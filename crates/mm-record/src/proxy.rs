//! RecordShell: the recording man-in-the-middle proxy.
//!
//! From the paper: "RecordShell spawns a man-in-the-middle proxy, equipped
//! with an HTTP parser, on the host machine to store and forward all
//! HTTP(S) traffic both to and from an application running within
//! RecordShell. [...] RecordShell is compatible with any unmodified browser
//! because recording is done transparently."
//!
//! Structure here: a *LAN host* with a transparent-intercept listener sits
//! on the uplink of the RecordShell namespace and accepts every outbound
//! connection at the original destination address; for each one, a *WAN
//! host* in the parent namespace opens the real connection. Bytes are
//! stored-and-forwarded through HTTP parsers in both directions, and each
//! completed request/response pair is appended to a [`StoredSite`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use mm_http::{write_request, Request, RequestParser, ResponseParser};
use mm_net::{
    Host, IpAddr, Listener, Namespace, PacketIdGen, SocketApp, SocketEvent, TcpHandle,
    WeakTcpHandle,
};
use mm_sim::Simulator;

use crate::store::{RequestResponsePair, Scheme, StoredSite};

/// A running RecordShell.
pub struct RecordShell {
    /// The namespace the recorded application (browser) runs inside.
    pub inner_ns: Namespace,
    /// The MITM intercept host (LAN side), held so it lives as long as
    /// the shell: a namespace does not keep its hosts alive.
    _lan_host: Host,
    /// The outbound host in the parent namespace (WAN side).
    pub wan_host: Host,
    store: Rc<RefCell<StoredSite>>,
}

impl RecordShell {
    /// Build a RecordShell under `parent`. `wan_ip` is the address the
    /// proxy's outbound connections originate from (the "host machine"
    /// address servers see).
    pub fn new(
        parent: &Namespace,
        name: &str,
        wan_ip: IpAddr,
        ids: PacketIdGen,
        site_name: &str,
        root_url: &str,
    ) -> RecordShell {
        let inner_ns = Namespace::root(name);
        let store = Rc::new(RefCell::new(StoredSite::new(site_name, root_url)));

        // LAN host: egress points *into* the inner namespace so replies
        // (src = original server address) reach the browser.
        let lan_host = Host::new(IpAddr::new(100, 64, 255, 254), ids.clone());
        let wan_host = Host::new_in(wan_ip, ids, parent);

        let listener = Rc::new(InterceptListener {
            wan_host: wan_host.clone(),
            store: store.clone(),
        });
        lan_host.listen_any(listener);

        // Uplink: every packet leaving the inner namespace lands on the
        // LAN intercept host. Downlink: unused in practice (servers only
        // ever talk to the WAN host), but wired for completeness.
        parent.attach_child(&inner_ns, lan_host.sink(), inner_ns.router());
        // The LAN host's own egress must inject into the inner namespace.
        lan_host.set_egress(inner_ns.router());

        RecordShell {
            inner_ns,
            _lan_host: lan_host,
            wan_host,
            store,
        }
    }

    /// Snapshot of the recording so far.
    pub fn recorded(&self) -> StoredSite {
        self.store.borrow().clone()
    }

    /// Number of pairs recorded so far.
    pub fn pair_count(&self) -> usize {
        self.store.borrow().pairs.len()
    }
}

/// Accepts intercepted connections and spawns a proxy pipe for each.
struct InterceptListener {
    wan_host: Host,
    store: Rc<RefCell<StoredSite>>,
}

impl Listener for InterceptListener {
    fn on_connection(&self, sim: &mut Simulator, lan: TcpHandle) -> Rc<dyn SocketApp> {
        // The socket is bound to the browser's original destination: that
        // is the origin to connect to and to record under.
        let origin = lan.local_addr();
        let state = Rc::new(RefCell::new(ProxyConn {
            origin,
            scheme: if origin.port == 443 {
                Scheme::Https
            } else {
                Scheme::Http
            },
            lan: lan.downgrade(),
            wan: None,
            wan_connected: false,
            to_wan_buffer: Vec::new(),
            req_parser: RequestParser::new(),
            resp_parser: ResponseParser::new(),
            pending_requests: VecDeque::new(),
            store: self.store.clone(),
        }));
        // Open the WAN side immediately.
        let wan_app = Rc::new(WanSide {
            state: state.clone(),
        });
        let wan = self.wan_host.connect(sim, origin, wan_app);
        state.borrow_mut().wan = Some(wan.downgrade());
        Rc::new(LanSide { state })
    }
}

/// One intercepted connection's proxy state, shared by the applications
/// of its two sockets — which is why it holds both sockets weakly: each
/// is owned by its host's connection table, never by its own application.
struct ProxyConn {
    origin: mm_net::SocketAddr,
    scheme: Scheme,
    lan: WeakTcpHandle,
    wan: Option<WeakTcpHandle>,
    wan_connected: bool,
    /// Browser bytes buffered until the WAN connection completes.
    to_wan_buffer: Vec<Bytes>,
    req_parser: RequestParser,
    resp_parser: ResponseParser,
    /// Requests forwarded but not yet answered (HTTP/1.1 pipelining).
    pending_requests: VecDeque<Request>,
    store: Rc<RefCell<StoredSite>>,
}

/// Deferred socket operations, executed after releasing the state borrow.
enum Action {
    SendWan(Bytes),
    SendLan(Bytes),
    CloseWan,
    CloseLan,
    AbortBoth,
}

fn run_actions(state: &Rc<RefCell<ProxyConn>>, sim: &mut Simulator, actions: Vec<Action>) {
    for a in actions {
        // A side whose socket is gone has nothing to be done to it.
        let (lan, wan) = {
            let s = state.borrow();
            (
                s.lan.upgrade(),
                s.wan.as_ref().and_then(WeakTcpHandle::upgrade),
            )
        };
        match a {
            Action::SendWan(b) => {
                if let Some(w) = wan {
                    w.send(sim, b);
                }
            }
            Action::SendLan(b) => {
                if let Some(l) = lan {
                    l.send(sim, b);
                }
            }
            Action::CloseWan => {
                if let Some(w) = wan {
                    w.close(sim);
                }
            }
            Action::CloseLan => {
                if let Some(l) = lan {
                    l.close(sim);
                }
            }
            Action::AbortBoth => {
                if let Some(l) = lan {
                    l.abort(sim);
                }
                if let Some(w) = wan {
                    w.abort(sim);
                }
            }
        }
    }
}

/// The browser-facing side of the pipe.
struct LanSide {
    state: Rc<RefCell<ProxyConn>>,
}

impl SocketApp for LanSide {
    fn on_event(&self, sim: &mut Simulator, _h: &TcpHandle, ev: SocketEvent) {
        let actions = {
            let mut s = self.state.borrow_mut();
            match ev {
                SocketEvent::Connected => Vec::new(),
                SocketEvent::Data(bytes) => {
                    let mut actions = Vec::new();
                    match s.req_parser.feed(&bytes) {
                        Ok(reqs) => {
                            for req in reqs {
                                s.resp_parser
                                    .expect_head(req.method == mm_http::Method::Head);
                                s.pending_requests.push_back(req);
                            }
                        }
                        Err(_) => {
                            // Not HTTP: RecordShell only records HTTP, but
                            // keeps forwarding unparseable traffic.
                        }
                    }
                    if s.wan_connected {
                        actions.push(Action::SendWan(bytes));
                    } else {
                        s.to_wan_buffer.push(bytes);
                    }
                    actions
                }
                SocketEvent::PeerClosed => vec![Action::CloseWan],
                SocketEvent::Reset => vec![Action::AbortBoth],
                SocketEvent::SendQueueDrained => Vec::new(),
            }
        };
        run_actions(&self.state, sim, actions);
    }
}

/// The server-facing side of the pipe.
struct WanSide {
    state: Rc<RefCell<ProxyConn>>,
}

impl SocketApp for WanSide {
    fn on_event(&self, sim: &mut Simulator, _h: &TcpHandle, ev: SocketEvent) {
        let actions = {
            let mut s = self.state.borrow_mut();
            match ev {
                SocketEvent::Connected => {
                    s.wan_connected = true;
                    let buffered: Vec<Bytes> = s.to_wan_buffer.drain(..).collect();
                    buffered.into_iter().map(Action::SendWan).collect()
                }
                SocketEvent::Data(bytes) => {
                    // Forwarding is unconditional: an unparseable
                    // response is simply not recorded.
                    if let Ok(resps) = s.resp_parser.feed_bytes(&bytes) {
                        for resp in resps {
                            s.record_response(resp);
                        }
                    }
                    vec![Action::SendLan(bytes)]
                }
                SocketEvent::PeerClosed => {
                    // Close-delimited bodies complete at EOF.
                    if let Ok(Some(resp)) = s.resp_parser.finish() {
                        s.record_response(resp);
                    }
                    vec![Action::CloseLan]
                }
                SocketEvent::Reset => vec![Action::AbortBoth],
                SocketEvent::SendQueueDrained => Vec::new(),
            }
        };
        run_actions(&self.state, sim, actions);
    }
}

impl ProxyConn {
    fn record_response(&mut self, response: mm_http::Response) {
        if let Some(request) = self.pending_requests.pop_front() {
            self.store.borrow_mut().push(RequestResponsePair {
                origin: self.origin,
                scheme: self.scheme,
                request,
                response,
            });
        }
    }
}

/// Convenience for tests and examples: issue a single GET from inside a
/// RecordShell namespace and return the response body when the simulation
/// settles.
pub fn fetch_via(
    sim: &mut Simulator,
    client: &Host,
    origin: mm_net::SocketAddr,
    request: Request,
) -> Rc<RefCell<Vec<u8>>> {
    let body = Rc::new(RefCell::new(Vec::new()));
    struct FetchApp {
        request: RefCell<Option<Request>>,
        body: Rc<RefCell<Vec<u8>>>,
    }
    impl SocketApp for FetchApp {
        fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
            match ev {
                SocketEvent::Connected => {
                    if let Some(req) = self.request.borrow_mut().take() {
                        h.send(sim, write_request(&req));
                    }
                }
                SocketEvent::Data(b) => self.body.borrow_mut().extend_from_slice(&b),
                _ => {}
            }
        }
    }
    let app = Rc::new(FetchApp {
        request: RefCell::new(Some(request)),
        body: body.clone(),
    });
    client.connect(sim, origin, app);
    body
}
