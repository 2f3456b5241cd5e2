//! What the workspace's integration tests build their worlds from: one
//! corpus site builder, the lossy path of the audit and span tests, the
//! four observers attached to one load, and the record → replay circle.
//! Each test file takes what it needs (`mod common;`), so the rest is
//! unused there.
#![allow(dead_code)]

use std::cell::RefCell;
use std::rc::Rc;

use mahimahi::browser::{Browser, BrowserConfig, PageLoadResult, Resolver};
use mahimahi::corpus;
use mahimahi::harness::{LinkSpec, LoadSpec, NetSpec};
use mahimahi::obs::Artefact;
use mm_audit::Auditor;
use mm_capture::{Capture, PacketEventKind};
use mm_metrics::{FlowTracer, MetricsHandle, Registry, RegistrySink};
use mm_net::{Host, IpAddr, Namespace, PacketIdGen, SocketAddr, TcpConfig};
use mm_record::{RecordShell, StoredSite};
use mm_replay::{ReplayConfig, ReplayShell};
use mm_sim::{RngStream, SimDuration, Simulator};
use mm_trace::{constant_rate, TraceBuffer};

/// Every artefact a recording can hold.
pub const ALL: [Artefact; 4] = [
    Artefact::Trace,
    Artefact::Capture,
    Artefact::Span,
    Artefact::Audit,
];

/// A corpus site with `servers` origins and about `median_objects`
/// objects, planned as site number `seed` from a stream seeded `seed`.
pub fn site(seed: u64, servers: usize, median_objects: f64) -> StoredSite {
    let params = corpus::SiteParams {
        servers: Some(servers),
        median_objects,
        ..corpus::SiteParams::default()
    };
    corpus::materialize(&corpus::plan_site(
        seed as usize,
        &params,
        &mut RngStream::from_seed(seed),
    ))
}

/// 40 ms each way over a 12 Mbit/s link with an infinite queue, and
/// i.i.d. `loss` each way when it is positive.
pub fn lossy_net(loss: f64) -> NetSpec {
    NetSpec {
        delay: Some(SimDuration::from_millis(40)),
        link: Some(LinkSpec::symmetric(constant_rate(12.0, 1_500))),
        loss: (loss > 0.0).then_some((loss, loss)),
    }
}

/// All four observer channels, attached to one load: flow trace,
/// capture, spans and the conformance auditor.
pub struct Observers {
    pub tracer: FlowTracer,
    pub capture: Capture,
    pub spans: Rc<TraceBuffer>,
    pub auditor: Auditor,
}

impl Observers {
    pub fn attach(spec: &mut LoadSpec<'_>) -> Observers {
        let tracer = FlowTracer::new();
        let sink = RegistrySink::with_tracer(Registry::new(), tracer.clone());
        spec.tcp = Some(
            TcpConfig::builder()
                .metrics(MetricsHandle::new(sink))
                .build(),
        );
        let capture = Capture::for_load(0);
        let spans = TraceBuffer::for_load(0);
        let auditor = Auditor::for_load(0);
        spec.capture = Some(capture.handle());
        spec.span = Some(spans.handle());
        spec.audit = Some(auditor.clone());
        Observers {
            tracer,
            capture,
            spans,
            auditor,
        }
    }

    /// Every recorder saw the run: the flow trace and the span buffer
    /// something, the capture its link meta, packets entering, leaving
    /// and crossing a link and HTTP events, and the auditor the same
    /// packet stream as the capture, TCP samples, spans, and digests for
    /// both link directions and the connections.
    pub fn check(&self) {
        assert!(self.tracer.sample_count() > 0, "flow trace saw nothing");
        assert!(!self.spans.spans().is_empty(), "span buffer saw nothing");
        let data = self.capture.data();
        assert!(!data.links.is_empty(), "capture recorded no link meta");
        assert!(!data.https.is_empty(), "capture recorded no http events");
        for kind in [
            PacketEventKind::Enqueue,
            PacketEventKind::Dequeue,
            PacketEventKind::Deliver,
        ] {
            assert!(
                data.packets.iter().any(|p| p.kind == kind),
                "capture saw no {kind:?}"
            );
        }
        let report = self.auditor.finish();
        assert_eq!(
            report.packets,
            data.packets.len() as u64,
            "auditor vs capture packets"
        );
        assert!(report.samples > 0, "auditor saw no TCP samples");
        assert!(report.spans > 0, "auditor saw no spans");
        for (scope, found) in [
            ("-up", report.digests.keys().any(|k| k.ends_with("-up"))),
            ("-down", report.digests.keys().any(|k| k.ends_with("-down"))),
            (
                "conn:",
                report.digests.keys().any(|k| k.starts_with("conn:")),
            ),
        ] {
            assert!(found, "no {scope} audit digest");
        }
    }

    /// What the recorders besides the auditor wrote, each named:
    /// capture, span buffer and flow trace JSONL, in that order.
    pub fn jsonl(&self) -> [(&'static str, String); 3] {
        [
            ("capture", self.capture.take_jsonl()),
            ("span buffer", self.spans.to_jsonl()),
            ("flow trace", self.tracer.take_jsonl()),
        ]
    }
}

/// Load `site` through a RecordShell in front of a ReplayShell serving
/// it ("the Internet"), and return the load and what the shell recorded.
pub fn record(site: &StoredSite) -> (PageLoadResult, StoredSite) {
    let mut sim = Simulator::new();
    let internet = Namespace::root("internet");
    let ids = PacketIdGen::new();
    let origin_servers = Rc::new(ReplayShell::new(
        &internet,
        site,
        ReplayConfig::default(),
        &ids,
    ));
    let shell = RecordShell::new(
        &internet,
        "recordshell",
        IpAddr::new(192, 168, 0, 9),
        ids.clone(),
        &site.name,
        &site.root_url,
    );
    let browser_host = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &shell.inner_ns);
    let resolver: Resolver = {
        let s = origin_servers.clone();
        Rc::new(move |url: &mm_http::Url| {
            Some(s.resolve(SocketAddr::new(url.host().parse().unwrap(), url.port())))
        })
    };
    let browser = Browser::new(browser_host, resolver, BrowserConfig::default());
    let result = Rc::new(RefCell::new(None));
    let slot = result.clone();
    browser.navigate(&mut sim, &site.root_url, move |_s, r| {
        *slot.borrow_mut() = Some(r)
    });
    sim.run();
    let load = result.borrow_mut().take().expect("load completed");
    (load, shell.recorded())
}
