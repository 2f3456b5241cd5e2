//! The server (replay) end of a multiplexed connection.
//!
//! One [`MuxServerConn`] speaks the frame protocol on one accepted TCP
//! connection. Complete requests are handed to a [`MuxHandler`], which
//! answers — immediately or after simulated think time — through a
//! [`MuxResponder`]. Response bodies are cut into DATA frames no larger
//! than `frame_max_data` and scheduled across streams priority-weighted
//! (≈4:1 between adjacent classes), shortest-remaining-body first within
//! a class, each frame gated by the stream's and the connection's
//! flow-control windows. Run-to-completion (rather than round-robin)
//! lets early resources *complete* early, so a client's parser and
//! subresource discovery overlap with later transfers; a window-blocked
//! stream never blocks the others. Emission is self-clocked on the TCP
//! [`SocketEvent::SendQueueDrained`] writability edge, so scheduling
//! decisions track the connection's real drain rate instead of freezing
//! at enqueue time. A peer that closes its direction is still answered:
//! every request it completed before its FIN gets its whole response,
//! and the server's FIN follows the last one.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use mm_http::{Request, Response};
use mm_net::{SocketAddr, SocketApp, SocketEvent, TcpHandle, TcpState, WeakTcpHandle};
use mm_sim::Simulator;

use crate::flow::FlowWindow;
use crate::frame::{data_head, response_headers, Frame, FrameDecoder, FrameRef};
use crate::MuxConfig;

/// Application logic behind a mux server connection.
pub trait MuxHandler {
    /// A complete request arrived on a stream of the connection from
    /// `peer`. Answer by calling [`MuxResponder::respond`], now or from a
    /// scheduled event.
    fn handle(&self, sim: &mut Simulator, peer: SocketAddr, req: Request, responder: MuxResponder);
}

/// The write half of one server stream; consumed by responding.
pub struct MuxResponder {
    inner: Rc<RefCell<ServerInner>>,
    stream: u32,
}

impl MuxResponder {
    /// Send `resp` on this stream. The header block goes out at once;
    /// the body drains through flow-controlled DATA frames, each a view
    /// of `resp.body` behind its own head, never a copy. No-op if the
    /// connection died in the meantime.
    pub fn respond(self, sim: &mut Simulator, resp: &Response) {
        let (handle, headers) = {
            let mut inner = self.inner.borrow_mut();
            if inner.dead {
                return;
            }
            let Some(handle) = inner.handle.upgrade() else {
                return;
            };
            let Some(stream) = inner.streams.get_mut(&self.stream) else {
                return;
            };
            let end_stream = resp.body.is_empty();
            let headers = response_headers(self.stream, end_stream, stream.priority, resp);
            if end_stream {
                inner.streams.remove(&self.stream);
            } else {
                stream.out = resp.body.clone();
                stream.responded = true;
            }
            (handle, headers)
        };
        handle.send(sim, headers);
        pump(&self.inner, sim);
    }
}

/// Drain scheduled DATA onto the connection. All DATA emission funnels
/// through here: the `pumping` guard makes nested invocations (a
/// `SendQueueDrained` edge firing inside one of our own sends) defer to
/// the active loop, so frames always hit the wire in schedule order.
/// Once the peer has closed, the FIN goes out behind the last frame of
/// the last stream.
fn pump(inner_rc: &Rc<RefCell<ServerInner>>, sim: &mut Simulator) {
    let handle = {
        let mut inner = inner_rc.borrow_mut();
        if inner.pumping || inner.dead {
            return;
        }
        let Some(handle) = inner.handle.upgrade() else {
            return;
        };
        inner.pumping = true;
        handle
    };
    loop {
        let wires = {
            let unsent = handle.unsent_bytes() as usize;
            inner_rc.borrow_mut().schedule_data(unsent)
        };
        if wires.is_empty() {
            break;
        }
        for (head, payload) in wires {
            // One write, so the wire sees exactly the joined frame.
            handle.send_vectored(sim, [head, payload]);
        }
        // A nested drain edge during those sends hit the guard and
        // returned; looping re-probes the backlog and sends its frames.
    }
    let idle = {
        let mut inner = inner_rc.borrow_mut();
        inner.pumping = false;
        inner.streams.is_empty()
    };
    if idle && handle.state() == TcpState::CloseWait {
        handle.close(sim);
    }
}

/// One stream's server-side state.
struct Stream {
    priority: u8,
    /// Send window for this stream's DATA.
    window: FlowWindow,
    /// Request head + body being assembled (taken when complete).
    recv: Option<(Request, BytesMut)>,
    /// Response body remainder; `out_pos` bytes already framed.
    out: Bytes,
    out_pos: usize,
    responded: bool,
}

struct ServerInner {
    config: MuxConfig,
    /// The connection this state speaks on. Weak: the socket owns its
    /// application (this), never the reverse; a responder that outlives
    /// the socket finds nothing to write to.
    handle: WeakTcpHandle,
    decoder: FrameDecoder,
    /// Reset, or aborted on a protocol error: nothing more is sent.
    dead: bool,
    /// Connection-level send window.
    conn_window: FlowWindow,
    /// Per-stream window size the client advertised in SETTINGS.
    peer_initial_window: u64,
    streams: BTreeMap<u32, Stream>,
    /// Frames sent to the top class since the last yield to a lower one.
    frames_since_yield: u32,
    /// Re-entrancy guard for [`pump`].
    pumping: bool,
}

impl ServerInner {
    /// How many frames' worth of DATA may sit unsent in the TCP send
    /// buffer. Small enough that scheduling decisions track the
    /// connection's real drain rate (a late-arriving high-priority
    /// response preempts almost immediately); large enough that the
    /// sender never starves between [`SocketEvent::SendQueueDrained`]
    /// edges.
    const SEND_BUDGET_FRAMES: usize = 2;

    /// After this many consecutive frames to the top class, one frame
    /// goes to the next class down (≈ a 4:1 HTTP/2 weight ratio between
    /// adjacent priority classes).
    const YIELD_INTERVAL: u32 = 4;

    /// Cut the next DATA frames from eligible streams until windows,
    /// queues, or the TCP backlog budget (less the `unsent` bytes already
    /// sitting in the send buffer) run out. Pure scheduling: returns each
    /// frame as its head and a view of the stream's body, for the caller
    /// to send outside the borrow. Emission is self-clocked: each
    /// `SendQueueDrained` edge re-enters here for the next budget.
    fn schedule_data(&mut self, unsent: usize) -> Vec<(Bytes, Bytes)> {
        let mut wires = Vec::new();
        let mut budget =
            (self.config.frame_max_data * Self::SEND_BUDGET_FRAMES).saturating_sub(unsent);
        loop {
            if budget == 0 || self.conn_window.is_blocked() {
                break;
            }
            // Eligible: responded, body remaining, stream window open.
            // Scheduling is priority-weighted, not strict: most frames go
            // to the most urgent class present, but every
            // `YIELD_INTERVAL`-th frame serves the next class down, so a
            // large high-priority body cannot starve small leaf content
            // outright (HTTP/2's weight tree has the same effect). Within
            // a class: shortest remaining body first — the server knows
            // response sizes, and draining small responses early both
            // unblocks client-side discovery and overlaps client parse
            // with later transfers; stream id breaks ties.
            let eligible =
                |s: &Stream| s.responded && s.out_pos < s.out.len() && !s.window.is_blocked();
            // The most urgent class present and the one after it.
            let mut classes = self
                .streams
                .values()
                .filter(|s| eligible(s))
                .map(|s| s.priority);
            let Some(first) = classes.next() else {
                break;
            };
            let (top, next) = classes.fold((first, None), |(top, next), p| match p.cmp(&top) {
                Ordering::Less => (p, Some(top)),
                Ordering::Equal => (top, next),
                Ordering::Greater => (top, Some(next.map_or(p, |n: u8| n.min(p)))),
            });
            let class = match next {
                Some(next) if self.frames_since_yield >= Self::YIELD_INTERVAL => {
                    self.frames_since_yield = 0;
                    next
                }
                _ => {
                    self.frames_since_yield += 1;
                    top
                }
            };
            let id = self
                .streams
                .iter()
                .filter(|(_, s)| s.priority == class && eligible(s))
                .min_by_key(|(&id, s)| (s.out.len() - s.out_pos, id))
                .map(|(&id, _)| id);
            let Some(id) = id else {
                break;
            };
            let stream = self.streams.get_mut(&id).unwrap();
            let remaining = stream.out.len() - stream.out_pos;
            let n = (self.config.frame_max_data)
                .min(remaining)
                .min(stream.window.available() as usize)
                .min(self.conn_window.available() as usize);
            let end_stream = n == remaining;
            let payload = stream.out.slice(stream.out_pos..stream.out_pos + n);
            stream.out_pos += n;
            stream.window.consume(n as u64);
            self.conn_window.consume(n as u64);
            wires.push((data_head(id, end_stream, n), payload));
            budget = budget.saturating_sub(n);
            if end_stream {
                self.streams.remove(&id);
            }
        }
        wires
    }
}

/// A mux protocol speaker for one accepted connection.
pub struct MuxServerConn {
    inner: Rc<RefCell<ServerInner>>,
    handler: Rc<dyn MuxHandler>,
}

impl MuxServerConn {
    /// Wrap an accepted connection; `handler` answers its requests.
    pub fn new(handle: TcpHandle, config: MuxConfig, handler: Rc<dyn MuxHandler>) -> MuxServerConn {
        let conn_window = config.connection_window;
        let initial_window = config.initial_stream_window;
        MuxServerConn {
            inner: Rc::new(RefCell::new(ServerInner {
                config,
                handle: handle.downgrade(),
                decoder: FrameDecoder::new(),
                dead: false,
                conn_window: FlowWindow::new(conn_window),
                peer_initial_window: initial_window,
                streams: BTreeMap::new(),
                frames_since_yield: 0,
                pumping: false,
            })),
            handler,
        }
    }

    fn on_data(&self, sim: &mut Simulator, handle: &TcpHandle, bytes: &[u8]) {
        let mut requests: Vec<(u32, Request)> = Vec::new();
        let mut protocol_error = false;
        {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            let mut decoder = std::mem::take(&mut inner.decoder);
            let fed = decoder.feed_with(bytes, |frame| {
                if protocol_error {
                    return;
                }
                match frame {
                    FrameRef::Control(Frame::Settings {
                        initial_window,
                        connection_window,
                        ..
                    }) => {
                        inner.peer_initial_window = initial_window as u64;
                        // The client's SETTINGS precede its first request
                        // on the byte stream, so no DATA credit has been
                        // spent yet: adopt its connection window outright.
                        // This keeps mismatched client/server configs from
                        // deadlocking (the sender's view must match the
                        // WINDOW_UPDATE cadence of the receiver).
                        inner.conn_window = FlowWindow::new(connection_window as u64);
                    }
                    FrameRef::Headers {
                        stream,
                        end_stream,
                        priority,
                        fields,
                    } => {
                        let Ok(req) = fields.to_request() else {
                            protocol_error = true;
                            return;
                        };
                        let window = inner.peer_initial_window;
                        inner.streams.insert(
                            stream,
                            Stream {
                                priority,
                                window: FlowWindow::new(window),
                                recv: Some((req, BytesMut::new())),
                                out: Bytes::new(),
                                out_pos: 0,
                                responded: false,
                            },
                        );
                        if end_stream {
                            if let Some(r) = inner.finish_request(stream) {
                                requests.push((stream, r));
                            }
                        }
                    }
                    FrameRef::Data {
                        stream,
                        end_stream,
                        payload,
                    } => {
                        let Some(s) = inner.streams.get_mut(&stream) else {
                            return;
                        };
                        if let Some((_, body)) = s.recv.as_mut() {
                            body.extend_from_slice(payload);
                        }
                        if end_stream {
                            if let Some(r) = inner.finish_request(stream) {
                                requests.push((stream, r));
                            }
                        }
                    }
                    FrameRef::Control(Frame::WindowUpdate { stream, increment }) => {
                        if stream == 0 {
                            inner.conn_window.grant(increment as u64);
                        } else if let Some(s) = inner.streams.get_mut(&stream) {
                            s.window.grant(increment as u64);
                        }
                        // Fresh credit may unblock queued DATA.
                    }
                    // The decoder lends DATA and HEADERS as views.
                    FrameRef::Control(_) => {}
                }
            });
            inner.decoder = decoder;
            protocol_error |= fed.is_err();
        }
        if protocol_error {
            handle.abort(sim);
            self.inner.borrow_mut().dead = true;
            return;
        }
        // Window grants may have unblocked queued DATA.
        pump(&self.inner, sim);
        let peer = handle.remote_addr();
        for (stream, req) in requests {
            self.handler.handle(
                sim,
                peer,
                req,
                MuxResponder {
                    inner: self.inner.clone(),
                    stream,
                },
            );
        }
    }
}

impl ServerInner {
    /// Assemble the completed request on `stream`, leaving the stream
    /// registered for the response.
    fn finish_request(&mut self, stream: u32) -> Option<Request> {
        let s = self.streams.get_mut(&stream)?;
        let (mut req, body) = s.recv.take()?;
        req.body = body.freeze();
        Some(req)
    }
}

impl SocketApp for MuxServerConn {
    fn on_event(&self, sim: &mut Simulator, handle: &TcpHandle, ev: SocketEvent) {
        match ev {
            SocketEvent::Connected => {
                let wire = self.inner.borrow().config.settings();
                handle.send(sim, wire);
            }
            SocketEvent::Data(bytes) => self.on_data(sim, handle, &bytes),
            SocketEvent::SendQueueDrained => {
                // The connection drained its backlog: emit the next
                // budget of DATA frames.
                pump(&self.inner, sim);
            }
            SocketEvent::PeerClosed => {
                // A request still incomplete at the FIN never will be;
                // the rest are answered before the connection closes.
                self.inner
                    .borrow_mut()
                    .streams
                    .retain(|_, s| s.recv.is_none());
                pump(&self.inner, sim);
            }
            SocketEvent::Reset => {
                self.inner.borrow_mut().dead = true;
            }
        }
    }
}
