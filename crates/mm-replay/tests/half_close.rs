//! A client that half-closes after its request: every request read
//! before the peer's FIN is answered in full, and the server's FIN
//! follows the last answer. Conforming browsers never half-close with a
//! request outstanding, so this is the only place the rule is exercised.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use mm_http::{write_request, Request, Response};
use mm_mux::{Frame, FrameDecoder, MuxConfig};
use mm_net::{Host, IpAddr, Namespace, PacketIdGen, SocketAddr, SocketApp, SocketEvent, TcpHandle};
use mm_record::{RequestResponsePair, Scheme, StoredSite};
use mm_replay::{ReplayConfig, ReplayShell, ServerProtocol};
use mm_sim::{SimDuration, Simulator};

const SERVER: SocketAddr = SocketAddr::new(IpAddr::new(10, 0, 0, 1), 80);
const BODY_BYTES: usize = 200_000;

fn site() -> StoredSite {
    let mut s = StoredSite::new("s", "http://10.0.0.1:80/");
    s.push(RequestResponsePair {
        origin: SERVER,
        scheme: Scheme::Http,
        request: Request::get("/big", "10.0.0.1"),
        response: Response::ok(Bytes::from(vec![b'x'; BODY_BYTES]), "image/png"),
    });
    s
}

/// What the client saw: every byte received, and whether the server's
/// FIN arrived.
#[derive(Default)]
struct Seen {
    bytes: Vec<u8>,
    fin: bool,
}

/// Sends its request, then its FIN at once, and keeps reading.
struct HalfCloser {
    request: Bytes,
    seen: Rc<RefCell<Seen>>,
}

impl SocketApp for HalfCloser {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        match ev {
            SocketEvent::Connected => {
                h.send(sim, self.request.clone());
                h.close(sim);
            }
            SocketEvent::Data(b) => {
                let mut seen = self.seen.borrow_mut();
                assert!(!seen.fin, "data after the server's FIN");
                seen.bytes.extend_from_slice(&b);
            }
            SocketEvent::PeerClosed => self.seen.borrow_mut().fin = true,
            SocketEvent::Reset => panic!("the server reset the connection"),
            SocketEvent::SendQueueDrained => {}
        }
    }
}

/// One request over a 40 ms delay shell, half-closed after it is sent.
fn half_close(protocol: ServerProtocol, think_time: SimDuration, request: Bytes) -> Seen {
    let mut sim = Simulator::new();
    let root = Namespace::root("world");
    let ids = PacketIdGen::new();
    let config = ReplayConfig {
        think_time,
        protocol,
        ..ReplayConfig::default()
    };
    let _shell = ReplayShell::new(&root, &site(), config, &ids);
    let delay = mm_shells::delay_shell(&root, "d", SimDuration::from_millis(40));
    let client = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &delay.inner_ns);
    let seen = Rc::new(RefCell::new(Seen::default()));
    let app = Rc::new(HalfCloser {
        request,
        seen: seen.clone(),
    });
    client.connect(&mut sim, SERVER, app);
    sim.run();
    seen.take()
}

const THINK_TIMES: [SimDuration; 2] = [SimDuration::ZERO, SimDuration::from_millis(25)];

#[test]
fn http1_answers_a_half_closed_request_in_full_then_closes() {
    for think_time in THINK_TIMES {
        let request = write_request(&Request::get("/big", "10.0.0.1"));
        let seen = half_close(ServerProtocol::Http1, think_time, request);
        let head_end = seen
            .bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .unwrap_or_else(|| panic!("{think_time}: no response head"));
        assert!(seen.bytes.starts_with(b"HTTP/1.1 200"), "{think_time}");
        assert_eq!(seen.bytes.len() - head_end - 4, BODY_BYTES, "{think_time}");
        assert!(seen.fin, "{think_time}: no FIN after the answer");
    }
}

#[test]
fn mux_answers_a_half_closed_request_in_full_then_closes() {
    let config = MuxConfig::default();
    for think_time in THINK_TIMES {
        let headers = Frame::Headers {
            stream: 1,
            end_stream: true,
            priority: 0,
            fields: [
                (":method", "GET"),
                (":path", "/big"),
                (":authority", "10.0.0.1"),
            ]
            .map(|(name, value)| (name.to_string(), value.to_string()))
            .into(),
        };
        let protocol = ServerProtocol::Mux(config.clone());
        let seen = half_close(protocol, think_time, headers.encode());
        let frames = FrameDecoder::new()
            .feed(&seen.bytes)
            .expect("the server's frames decode");
        let mut body = 0;
        let mut ended = false;
        for frame in frames {
            match frame {
                Frame::Headers { stream, fields, .. } => {
                    assert_eq!(stream, 1);
                    assert!(fields.contains(&(":status".into(), "200".into())));
                }
                Frame::Data {
                    stream,
                    end_stream,
                    payload,
                } => {
                    assert_eq!(stream, 1);
                    assert!(!ended, "{think_time}: DATA after END_STREAM");
                    body += payload.len();
                    ended = end_stream;
                }
                Frame::Settings { .. } | Frame::WindowUpdate { .. } => {}
            }
        }
        assert_eq!(body, BODY_BYTES, "{think_time}");
        assert!(ended, "{think_time}: no END_STREAM");
        assert!(seen.fin, "{think_time}: no FIN after the answer");
    }
}
