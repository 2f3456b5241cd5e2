//! Workspace integration: the full record → replay circle.
//!
//! A corpus site is served by one ReplayShell ("the Internet"); a browser
//! inside a RecordShell loads it, producing a recording; the recording is
//! then replayed in a second, fresh world and must reproduce the same
//! resources, bytes and (bit-identical settings ⇒ near-identical) PLT.

use std::cell::RefCell;
use std::rc::Rc;

use mahimahi::browser::{Browser, BrowserConfig, PageLoadResult, Resolver};
use mahimahi::corpus;
use mahimahi::harness::{run_page_load, LoadSpec};
use mm_net::{Host, IpAddr, Namespace, PacketIdGen, SocketAddr};
use mm_record::RecordShell;
use mm_replay::{ReplayConfig, ReplayShell};
use mm_sim::{RngStream, Simulator};

fn load_through_recordshell() -> (mm_record::StoredSite, PageLoadResult, mm_record::StoredSite) {
    // "The Internet": a replayed corpus site in the root namespace.
    let plan = corpus::plan_site(
        42,
        &corpus::SiteParams {
            servers: Some(7),
            median_objects: 22.0,
            ..Default::default()
        },
        &mut RngStream::from_seed(11),
    );
    let original = corpus::materialize(&plan);

    let mut sim = Simulator::new();
    let internet = Namespace::root("internet");
    let ids = PacketIdGen::new();
    let origin_servers = Rc::new(ReplayShell::new(
        &internet,
        &original,
        ReplayConfig::default(),
        &ids,
    ));

    // RecordShell between the browser and the internet.
    let shell = RecordShell::new(
        &internet,
        "recordshell",
        IpAddr::new(192, 168, 0, 9),
        ids.clone(),
        &original.name,
        &original.root_url,
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
    browser.navigate(&mut sim, &original.root_url, move |_s, r| {
        *slot.borrow_mut() = Some(r)
    });
    sim.run();
    let live_result = result.borrow_mut().take().expect("load completed");
    let recording = shell.recorded();
    (original, live_result, recording)
}

#[test]
fn recording_captures_the_whole_page() {
    let (original, live, recording) = load_through_recordshell();
    assert_eq!(live.failures, 0);
    assert_eq!(
        recording.pairs.len(),
        live.resource_count(),
        "one recorded pair per fetched resource"
    );
    // Every recorded body matches the original site's content.
    for pair in recording.pairs.iter() {
        let matching = original
            .pairs
            .iter()
            .find(|p| p.request.target == pair.request.target && p.origin == pair.origin);
        let m = matching.expect("recorded pair corresponds to an original");
        assert_eq!(m.response.body, pair.response.body);
    }
    assert_eq!(recording.origins().len(), original.origins().len());
}

#[test]
fn replaying_the_recording_reproduces_the_page() {
    let (_original, live, recording) = load_through_recordshell();
    // Replay the recording in a fresh world and load it again.
    let spec = LoadSpec::new(&recording);
    let replayed = run_page_load(&spec);
    assert_eq!(replayed.failures, 0);
    assert_eq!(replayed.resource_count(), live.resource_count());
    assert_eq!(replayed.total_body_bytes, live.total_body_bytes);
}
