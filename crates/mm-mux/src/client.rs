//! The client (browser) end of a multiplexed connection.
//!
//! One [`MuxClient`] owns one TCP connection to one origin and carries
//! every request to that origin as a stream. Requests beyond the
//! concurrent-stream limit queue in priority order (lowest byte first,
//! FIFO within a priority), so the root document always dispatches ahead
//! of queued subresources.
//!
//! Re-entrancy discipline mirrors the rest of the workspace: no
//! application callback ever runs while the client's state is borrowed.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::{Rc, Weak};

use bytes::{Bytes, BytesMut};
use mm_http::{Response, Url};
use mm_net::{Host, SocketAddr, SocketApp, SocketEvent, TcpHandle};
use mm_sim::Simulator;

use crate::flow::WindowRefill;
use crate::frame::{get_headers, Frame, FrameDecoder, FrameRef};
use crate::MuxConfig;

/// Most body bytes reserved on the strength of a declared
/// `Content-Length` alone (the HTTP/1.1 parser's cap); longer bodies grow
/// as they arrive.
const MAX_BODY_RESERVE: u64 = 1 << 24;

/// What a [`MuxClient`] reports to: its one owner, given at
/// [`MuxClient::connect`]. Each report names a request by the tag it was
/// submitted with, and runs after the client has released its state, so
/// an owner may submit further requests from it. The client holds its
/// owner, so an owner refers back to whatever holds the client weakly.
pub trait MuxOwner {
    /// The connection finished its handshake.
    fn connected(&self, _sim: &mut Simulator) {}
    /// Request `tag` left the client's queue: its HEADERS hit the socket.
    fn opened(&self, _sim: &mut Simulator, _tag: u32) {}
    /// The first response byte (the response HEADERS frame) of request
    /// `tag` arrived.
    fn first_byte(&self, _sim: &mut Simulator, _tag: u32) {}
    /// Request `tag` for `url` is over: answered with `response`, or
    /// (`None`) lost, because the connection died or the peer broke the
    /// protocol.
    fn settled(&self, sim: &mut Simulator, url: Url, tag: u32, response: Option<Response>);
}

struct PendingRequest {
    url: Url,
    priority: u8,
    tag: u32,
}

struct ActiveStream {
    /// Response head, once its HEADERS frame arrived.
    head: Option<Response>,
    body: BytesMut,
    refill: WindowRefill,
    url: Url,
    tag: u32,
}

/// A request that is over: its URL, tag and response (`None`: lost).
type Settled = (Url, u32, Option<Response>);

struct ClientInner {
    config: MuxConfig,
    handle: Option<TcpHandle>,
    connected: bool,
    dead: bool,
    decoder: FrameDecoder,
    /// The server's advertised concurrent-stream cap (ours until its
    /// SETTINGS arrive).
    peer_max_streams: u32,
    /// Next client-initiated stream id (odd, like HTTP/2).
    next_stream: u32,
    /// Queued requests by priority; BTreeMap keeps dispatch deterministic.
    pending: BTreeMap<u8, VecDeque<PendingRequest>>,
    active: BTreeMap<u32, ActiveStream>,
    conn_refill: WindowRefill,
    /// Tags whose first byte arrived in the batch being decoded; kept
    /// between batches so reporting them allocates once per connection.
    first_bytes: Vec<u32>,
}

/// A client's state and, last so that any owner fits, its owner.
struct Shared<O: ?Sized> {
    state: RefCell<ClientInner>,
    owner: O,
}

impl ClientInner {
    fn stream_limit(&self) -> usize {
        self.config
            .max_concurrent_streams
            .min(self.peer_max_streams) as usize
    }

    fn pop_pending(&mut self) -> Option<PendingRequest> {
        let (&priority, _) = self.pending.iter().find(|(_, q)| !q.is_empty())?;
        let req = self.pending.get_mut(&priority).unwrap().pop_front();
        if self.pending.get(&priority).is_some_and(|q| q.is_empty()) {
            self.pending.remove(&priority);
        }
        req
    }
}

/// A multiplexed connection to one origin. The client owns its socket
/// and its owner; the socket's application only refers back to it, so
/// the connection lives exactly as long as the caller holds the client
/// (or a clone): events for a client that was dropped are ignored.
#[derive(Clone)]
pub struct MuxClient {
    inner: Rc<Shared<dyn MuxOwner>>,
}

impl MuxClient {
    /// Open a multiplexed connection from `host` to `addr`, reporting to
    /// `owner` for as long as it lives.
    pub fn connect(
        sim: &mut Simulator,
        host: &Host,
        addr: SocketAddr,
        config: MuxConfig,
        owner: impl MuxOwner + 'static,
    ) -> MuxClient {
        let connection_window = config.connection_window;
        let peer_max = config.max_concurrent_streams;
        let client = MuxClient {
            inner: Rc::new(Shared {
                state: RefCell::new(ClientInner {
                    config,
                    handle: None,
                    connected: false,
                    dead: false,
                    decoder: FrameDecoder::new(),
                    peer_max_streams: peer_max,
                    next_stream: 1,
                    pending: BTreeMap::new(),
                    active: BTreeMap::new(),
                    conn_refill: WindowRefill::new(connection_window),
                    first_bytes: Vec::new(),
                }),
                owner,
            }),
        };
        let app = Rc::new(ClientApp {
            client: Rc::downgrade(&client.inner),
        });
        let handle = host.connect(sim, addr, app);
        client.inner.state.borrow_mut().handle = Some(handle);
        client
    }

    /// Submit a GET for `url` as a new stream, to be reported under
    /// `tag`. Queues behind the concurrent-stream limit in `priority`
    /// order. On a dead client the request is settled as lost at once.
    pub fn request(&self, sim: &mut Simulator, url: Url, priority: u8, tag: u32) {
        let dead = self.inner.state.borrow().dead;
        if dead {
            self.inner.owner.settled(sim, url, tag, None);
            return;
        }
        self.inner
            .state
            .borrow_mut()
            .pending
            .entry(priority)
            .or_default()
            .push_back(PendingRequest { url, priority, tag });
        self.pump(sim);
    }

    /// Local address of the underlying socket — the span layer's
    /// connection identity.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        let inner = self.inner.state.borrow();
        inner.handle.as_ref().map(|h| h.local_addr())
    }

    /// True once the connection has failed; outstanding and future
    /// requests on a dead client are settled as lost.
    pub fn is_dead(&self) -> bool {
        self.inner.state.borrow().dead
    }

    /// Streams currently in flight (tests/diagnostics).
    pub fn active_streams(&self) -> usize {
        self.inner.state.borrow().active.len()
    }

    /// Requests queued behind the concurrent-stream limit.
    pub fn queued_requests(&self) -> usize {
        self.inner
            .state
            .borrow()
            .pending
            .values()
            .map(|q| q.len())
            .sum()
    }

    /// Dispatch queued requests while stream slots are free.
    fn pump(&self, sim: &mut Simulator) {
        loop {
            let (handle, headers, tag) = {
                let mut inner = self.inner.state.borrow_mut();
                if !inner.connected || inner.dead || inner.active.len() >= inner.stream_limit() {
                    return;
                }
                let Some(p) = inner.pop_pending() else {
                    return;
                };
                let stream = inner.next_stream;
                inner.next_stream += 2;
                let headers = get_headers(stream, p.priority, &p.url);
                let window = inner.config.initial_stream_window;
                inner.active.insert(
                    stream,
                    ActiveStream {
                        head: None,
                        body: BytesMut::new(),
                        refill: WindowRefill::new(window),
                        url: p.url,
                        tag: p.tag,
                    },
                );
                let handle = inner.handle.clone().expect("connected client has handle");
                (handle, headers, p.tag)
            };
            handle.send(sim, headers);
            self.inner.owner.opened(sim, tag);
        }
    }

    /// Decode and act on inbound bytes.
    fn on_data(&self, sim: &mut Simulator, bytes: &[u8]) {
        let mut outgoing: Vec<Bytes> = Vec::new();
        let mut settled: Vec<Settled> = Vec::new();
        let mut protocol_error = false;
        let (handle, mut first_bytes) = {
            let mut guard = self.inner.state.borrow_mut();
            let inner = &mut *guard;
            let mut first_bytes = std::mem::take(&mut inner.first_bytes);
            let mut decoder = std::mem::take(&mut inner.decoder);
            let fed = decoder.feed_with(bytes, |frame| {
                if protocol_error {
                    return;
                }
                match frame {
                    FrameRef::Control(Frame::Settings {
                        max_concurrent_streams,
                        ..
                    }) => {
                        inner.peer_max_streams = max_concurrent_streams;
                    }
                    FrameRef::Headers {
                        stream,
                        end_stream,
                        fields,
                        ..
                    } => {
                        let Ok(head) = fields.to_response() else {
                            protocol_error = true;
                            return;
                        };
                        let Some(active) = inner.active.get_mut(&stream) else {
                            return; // stale stream; ignore
                        };
                        if active.head.is_none() {
                            first_bytes.push(active.tag);
                        }
                        // Room for the declared body, so DATA lands in it
                        // without regrowing.
                        let declared = head.headers.content_length().unwrap_or(0);
                        let declared = declared.min(MAX_BODY_RESERVE) as usize;
                        active
                            .body
                            .reserve(declared.saturating_sub(active.body.len()));
                        active.head = Some(head);
                        if end_stream {
                            settled.extend(inner.complete_stream(stream));
                        }
                    }
                    FrameRef::Data {
                        stream,
                        end_stream,
                        payload,
                    } => {
                        let n = payload.len() as u64;
                        if let Some(active) = inner.active.get_mut(&stream) {
                            active.body.extend_from_slice(payload);
                            if !end_stream {
                                let inc = active.refill.consumed(n);
                                outgoing.extend(inc.map(|inc| window_update(stream, inc)));
                            }
                        }
                        // Every DATA frame counts against the connection
                        // window, on a stream the client knows or not
                        // (RFC 9113 §6.9): a stray one's payload is
                        // dropped, its credit returned.
                        let inc = inner.conn_refill.consumed(n);
                        outgoing.extend(inc.map(|inc| window_update(0, inc)));
                        if end_stream {
                            settled.extend(inner.complete_stream(stream));
                        }
                    }
                    // The client sends nothing flow controlled, so inbound
                    // WINDOW_UPDATEs carry no information for it.
                    FrameRef::Control(_) => {}
                }
            });
            inner.decoder = decoder;
            protocol_error |= fed.is_err();
            (inner.handle.clone(), first_bytes)
        };
        for &tag in &first_bytes {
            self.inner.owner.first_byte(sim, tag);
        }
        first_bytes.clear();
        self.inner.state.borrow_mut().first_bytes = first_bytes;
        if protocol_error {
            if let Some(h) = &handle {
                h.abort(sim);
            }
            // Streams completed by valid frames earlier in this batch
            // already left `active`; settle them before losing the rest,
            // or the page load would never hear of them.
            self.report(sim, settled);
            self.fail_all(sim);
            return;
        }
        if let Some(h) = &handle {
            for wire in outgoing {
                h.send(sim, wire);
            }
        }
        self.report(sim, settled);
        self.pump(sim);
    }

    /// Report each of `settled` to the owner, in order.
    fn report(&self, sim: &mut Simulator, settled: Vec<Settled>) {
        for (url, tag, response) in settled {
            self.inner.owner.settled(sim, url, tag, response);
        }
    }

    /// Mark the connection dead and settle every outstanding and queued
    /// request as lost: streams in id order, then the queue in dispatch
    /// order.
    fn fail_all(&self, sim: &mut Simulator) {
        self.inner.state.borrow_mut().dead = true;
        loop {
            let (url, tag) = {
                let mut inner = self.inner.state.borrow_mut();
                if let Some((_, s)) = inner.active.pop_first() {
                    (s.url, s.tag)
                } else if let Some(p) = inner.pop_pending() {
                    (p.url, p.tag)
                } else {
                    return;
                }
            };
            self.inner.owner.settled(sim, url, tag, None);
        }
    }
}

/// A WINDOW_UPDATE granting `inc` more bytes on `stream` (0: the
/// connection).
fn window_update(stream: u32, inc: u64) -> Bytes {
    let increment = inc.min(u32::MAX as u64) as u32;
    Frame::WindowUpdate { stream, increment }.encode()
}

impl ClientInner {
    /// Retire `stream`: the request it carried is over.
    fn complete_stream(&mut self, stream: u32) -> Option<Settled> {
        let s = self.active.remove(&stream)?;
        // DATA before HEADERS: the peer is broken, and the request lost.
        let response = s.head.map(|mut resp| {
            resp.body = s.body.freeze();
            resp
        });
        Some((s.url, s.tag, response))
    }
}

struct ClientApp {
    client: Weak<Shared<dyn MuxOwner>>,
}

impl SocketApp for ClientApp {
    fn on_event(&self, sim: &mut Simulator, handle: &TcpHandle, ev: SocketEvent) {
        let Some(inner) = self.client.upgrade() else {
            return;
        };
        let client = MuxClient { inner };
        match ev {
            SocketEvent::Connected => {
                let wire = {
                    let mut inner = client.inner.state.borrow_mut();
                    inner.connected = true;
                    inner.config.settings()
                };
                client.inner.owner.connected(sim);
                handle.send(sim, wire);
                client.pump(sim);
            }
            SocketEvent::Data(bytes) => client.on_data(sim, &bytes),
            SocketEvent::PeerClosed | SocketEvent::Reset => client.fail_all(sim),
            // The client's writes (requests, WINDOW_UPDATEs) are small
            // and unpaced; drain edges carry no information for it.
            SocketEvent::SendQueueDrained => {}
        }
    }
}
