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
use mm_http::{Request, Response};
use mm_net::{Host, SocketAddr, SocketApp, SocketEvent, TcpHandle};
use mm_sim::{Simulator, Timestamp};

use crate::flow::WindowRefill;
use crate::frame::{request_headers, Frame, FrameDecoder, FrameRef};
use crate::MuxConfig;

/// Most body bytes reserved on the strength of a declared
/// `Content-Length` alone (the HTTP/1.1 parser's cap); longer bodies grow
/// as they arrive.
const MAX_BODY_RESERVE: u64 = 1 << 24;

/// Why a request could not be completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxError {
    /// The connection died (reset, closed, or refused) with the request
    /// outstanding.
    ConnectionClosed,
    /// The peer sent bytes that do not decode as frames.
    Protocol,
}

impl std::fmt::Display for MuxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MuxError::ConnectionClosed => f.write_str("mux connection closed"),
            MuxError::Protocol => f.write_str("mux protocol error"),
        }
    }
}

impl std::error::Error for MuxError {}

/// Completion callback for one request.
pub(crate) type DoneFn = Box<dyn FnOnce(&mut Simulator, Result<Response, MuxError>)>;

/// Stream-scheduler milestones surfaced to a `StreamObserver`: the
/// edges a span layer needs to split "waiting for a stream slot" from
/// "request on the wire" without reaching into the client's state. A
/// stream's milestones carry the tag its request was submitted with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEvent {
    /// The connection finished its handshake.
    ConnReady,
    /// A queued request left the scheduler: its HEADERS hit the socket.
    Opened(u32),
    /// The first response byte (the response HEADERS frame) arrived.
    FirstByte(u32),
}

/// Observer of the connection's and its streams' scheduling milestones.
/// Purely observational: called after the client releases its borrow,
/// must not touch the client.
pub(crate) type StreamObserver = Rc<dyn Fn(StreamEvent, Timestamp)>;

struct PendingRequest {
    req: Request,
    priority: u8,
    tag: u32,
    done: DoneFn,
}

struct ActiveStream {
    /// Response head, once its HEADERS frame arrived.
    head: Option<Response>,
    body: BytesMut,
    refill: WindowRefill,
    tag: u32,
    done: Option<DoneFn>,
}

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
    observer: Option<StreamObserver>,
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

/// A multiplexed connection to one origin. The client owns its socket;
/// the socket's application only refers back to it, so the connection
/// lives exactly as long as the caller holds the client (or a clone):
/// events for a client that was dropped are ignored.
#[derive(Clone)]
pub struct MuxClient {
    inner: Rc<RefCell<ClientInner>>,
}

impl MuxClient {
    /// Open a multiplexed connection from `host` to `addr`.
    pub fn connect(
        sim: &mut Simulator,
        host: &Host,
        addr: SocketAddr,
        config: MuxConfig,
    ) -> MuxClient {
        let connection_window = config.connection_window;
        let peer_max = config.max_concurrent_streams;
        let client = MuxClient {
            inner: Rc::new(RefCell::new(ClientInner {
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
                observer: None,
            })),
        };
        let app = Rc::new(ClientApp {
            client: Rc::downgrade(&client.inner),
        });
        let handle = host.connect(sim, addr, app);
        client.inner.borrow_mut().handle = Some(handle);
        client
    }

    /// Submit `req` as a new stream; `done` fires with the response (or
    /// the error that killed the connection). Queues behind the
    /// concurrent-stream limit in `priority` order. The installed
    /// `StreamObserver` sees the stream's milestones under `tag`, so
    /// callers can attribute scheduler waits to their own requests.
    pub fn request(
        &self,
        sim: &mut Simulator,
        req: Request,
        priority: u8,
        tag: u32,
        done: impl FnOnce(&mut Simulator, Result<Response, MuxError>) + 'static,
    ) {
        let done: DoneFn = Box::new(done);
        let dead = self.inner.borrow().dead;
        if dead {
            done(sim, Err(MuxError::ConnectionClosed));
            return;
        }
        self.inner
            .borrow_mut()
            .pending
            .entry(priority)
            .or_default()
            .push_back(PendingRequest {
                req,
                priority,
                tag,
                done,
            });
        self.pump(sim);
    }

    /// Install the milestone observer (replacing any previous one).
    pub fn set_observer(&self, observer: StreamObserver) {
        self.inner.borrow_mut().observer = Some(observer);
    }

    /// Local address of the underlying socket — the span layer's
    /// connection identity.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        let inner = self.inner.borrow();
        inner.handle.as_ref().map(|h| h.local_addr())
    }

    /// True once the connection has failed; outstanding and future
    /// requests on a dead client fail with `ConnectionClosed`.
    pub fn is_dead(&self) -> bool {
        self.inner.borrow().dead
    }

    /// Streams currently in flight (tests/diagnostics).
    pub fn active_streams(&self) -> usize {
        self.inner.borrow().active.len()
    }

    /// Requests queued behind the concurrent-stream limit.
    pub fn queued_requests(&self) -> usize {
        self.inner.borrow().pending.values().map(|q| q.len()).sum()
    }

    /// Dispatch queued requests while stream slots are free.
    fn pump(&self, sim: &mut Simulator) {
        loop {
            let step = {
                let mut inner = self.inner.borrow_mut();
                if !inner.connected || inner.dead || inner.active.len() >= inner.stream_limit() {
                    None
                } else {
                    match inner.pop_pending() {
                        None => None,
                        Some(p) => {
                            let stream = inner.next_stream;
                            inner.next_stream += 2;
                            let headers =
                                request_headers(stream, p.req.body.is_empty(), p.priority, &p.req);
                            // Request bodies ride un-flow-controlled DATA:
                            // the page-load workload only sends GETs, and
                            // upload flow control would model a direction
                            // the experiments never stress.
                            let body = (!p.req.body.is_empty()).then(|| {
                                Frame::Data {
                                    stream,
                                    end_stream: true,
                                    payload: p.req.body.clone(),
                                }
                                .encode()
                            });
                            let window = inner.config.initial_stream_window;
                            inner.active.insert(
                                stream,
                                ActiveStream {
                                    head: None,
                                    body: BytesMut::new(),
                                    refill: WindowRefill::new(window),
                                    tag: p.tag,
                                    done: Some(p.done),
                                },
                            );
                            let handle = inner.handle.clone().expect("connected client has handle");
                            Some((handle, headers, body, p.tag, inner.observer.clone()))
                        }
                    }
                }
            };
            match step {
                None => return,
                Some((handle, headers, body, tag, observer)) => {
                    handle.send(sim, headers);
                    if let Some(body) = body {
                        handle.send(sim, body);
                    }
                    if let Some(obs) = observer {
                        obs(StreamEvent::Opened(tag), sim.now());
                    }
                }
            }
        }
    }

    /// Decode and act on inbound bytes.
    fn on_data(&self, sim: &mut Simulator, bytes: &[u8]) {
        type Completion = (DoneFn, Result<Response, MuxError>);
        let mut outgoing: Vec<Bytes> = Vec::new();
        let mut completions: Vec<Completion> = Vec::new();
        let mut first_bytes: Vec<u32> = Vec::new();
        let mut protocol_error = false;
        let (handle, observer) = {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            let observed = inner.observer.is_some();
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
                        if active.head.is_none() && observed {
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
                            if let Some(c) = inner.complete_stream(stream) {
                                completions.push(c);
                            }
                        }
                    }
                    FrameRef::Data {
                        stream,
                        end_stream,
                        payload,
                    } => {
                        let n = payload.len() as u64;
                        let Some(active) = inner.active.get_mut(&stream) else {
                            return;
                        };
                        active.body.extend_from_slice(payload);
                        if !end_stream {
                            let inc = active.refill.consumed(n);
                            outgoing.extend(inc.map(|inc| window_update(stream, inc)));
                        }
                        let inc = inner.conn_refill.consumed(n);
                        outgoing.extend(inc.map(|inc| window_update(0, inc)));
                        if end_stream {
                            if let Some(c) = inner.complete_stream(stream) {
                                completions.push(c);
                            }
                        }
                    }
                    // The client sends nothing flow controlled, so inbound
                    // WINDOW_UPDATEs carry no information for it.
                    FrameRef::Control(_) => {}
                }
            });
            inner.decoder = decoder;
            protocol_error |= fed.is_err();
            (inner.handle.clone(), inner.observer.clone())
        };
        if let Some(obs) = &observer {
            let now = sim.now();
            for tag in first_bytes {
                obs(StreamEvent::FirstByte(tag), now);
            }
        }
        if protocol_error {
            if let Some(h) = &handle {
                h.abort(sim);
            }
            // Streams completed by valid frames earlier in this batch
            // already left `active`; deliver their results before failing
            // the rest, or their callbacks would be dropped and the page
            // load would never settle.
            for (done, result) in completions {
                done(sim, result);
            }
            self.fail_all(sim, MuxError::Protocol);
            return;
        }
        if let Some(h) = &handle {
            for wire in outgoing {
                h.send(sim, wire);
            }
        }
        for (done, result) in completions {
            done(sim, result);
        }
        self.pump(sim);
    }

    /// Fail every outstanding and queued request.
    fn fail_all(&self, sim: &mut Simulator, err: MuxError) {
        let callbacks: Vec<DoneFn> = {
            let mut inner = self.inner.borrow_mut();
            inner.dead = true;
            let mut cbs: Vec<DoneFn> = Vec::new();
            for s in std::mem::take(&mut inner.active).into_values() {
                if let Some(done) = s.done {
                    cbs.push(done);
                }
            }
            for q in std::mem::take(&mut inner.pending).into_values() {
                for p in q {
                    cbs.push(p.done);
                }
            }
            cbs
        };
        for done in callbacks {
            done(sim, Err(err));
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
    /// Retire `stream`, producing its completion callback and response.
    fn complete_stream(&mut self, stream: u32) -> Option<(DoneFn, Result<Response, MuxError>)> {
        let s = self.active.remove(&stream)?;
        let done = s.done?;
        match s.head {
            Some(mut resp) => {
                resp.body = s.body.freeze();
                Some((done, Ok(resp)))
            }
            // DATA before HEADERS: the peer is broken.
            None => Some((done, Err(MuxError::Protocol))),
        }
    }
}

struct ClientApp {
    client: Weak<RefCell<ClientInner>>,
}

impl SocketApp for ClientApp {
    fn on_event(&self, sim: &mut Simulator, handle: &TcpHandle, ev: SocketEvent) {
        let Some(inner) = self.client.upgrade() else {
            return;
        };
        let client = MuxClient { inner };
        match ev {
            SocketEvent::Connected => {
                let (wire, observer) = {
                    let mut inner = client.inner.borrow_mut();
                    inner.connected = true;
                    (inner.config.settings(), inner.observer.clone())
                };
                if let Some(obs) = observer {
                    obs(StreamEvent::ConnReady, sim.now());
                }
                handle.send(sim, wire);
                client.pump(sim);
            }
            SocketEvent::Data(bytes) => client.on_data(sim, &bytes),
            SocketEvent::PeerClosed | SocketEvent::Reset => {
                client.fail_all(sim, MuxError::ConnectionClosed);
            }
            // The client's writes (requests, WINDOW_UPDATEs) are small
            // and unpaced; drain edges carry no information for it.
            SocketEvent::SendQueueDrained => {}
        }
    }
}
