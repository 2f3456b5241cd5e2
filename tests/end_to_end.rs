//! Workspace integration: the full record → replay circle.
//!
//! A corpus site is served by one ReplayShell ("the Internet"); a browser
//! inside a RecordShell loads it, producing a recording; the recording is
//! then replayed in a second, fresh world and must reproduce the same
//! resources and bytes. `tests/world_digest.rs`'s `record_store_replay`
//! row pins the circle byte for byte, through the store format.

mod common;

use common::{record, site};
use mahimahi::harness::{run_page_load, LoadSpec};

#[test]
fn recording_captures_the_whole_page() {
    let original = site(42, 7, 22.0);
    let (live, recording) = record(&original);
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
    let (live, recording) = record(&site(42, 7, 22.0));
    // Replay the recording in a fresh world and load it again.
    let spec = LoadSpec::new(&recording);
    let replayed = run_page_load(&spec);
    assert_eq!(replayed.failures, 0);
    assert_eq!(replayed.resource_count(), live.resource_count());
    assert_eq!(replayed.total_body_bytes, live.total_body_bytes);
}
