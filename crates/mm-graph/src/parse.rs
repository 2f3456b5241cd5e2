//! Parse capture files back into [`CaptureData`].
//!
//! Capture JSONL is the flat, fixed-shape objects
//! `mm_capture::data_to_jsonl` emits, read with the shared scanner in
//! `mm_trace::jsonl`. Every line carries a `load` tag; lines are grouped
//! into one [`CaptureData`] per load (loads run in separate simulations
//! with separate clocks, so they must never be mixed).

use std::collections::BTreeMap;

use mm_capture::{
    CaptureData, Dir, HttpEvent, HttpPhase, LinkMeta, PacketEvent, PacketEventKind, PointKind,
    TapPoint,
};
use mm_trace::jsonl::{get_str, get_u16, get_u32, get_u64, get_u64_array};

/// The capture-format token under `key`, read back by `from_str`;
/// `what` names it in the error.
fn get_token<T>(
    line: &str,
    key: &str,
    what: &str,
    from_str: fn(&str) -> Option<T>,
) -> Result<T, String> {
    let token = get_str(line, key)?;
    from_str(&token).ok_or_else(|| format!("unknown {what} {token:?}"))
}

fn get_point(line: &str) -> Result<TapPoint, String> {
    Ok(TapPoint {
        kind: get_token(line, "at", "tap point kind", PointKind::from_str)?,
        index: get_u32(line, "i")?,
        dir: get_token(line, "dir", "direction", Dir::from_str)?,
    })
}

fn parse_line(line: &str, by_load: &mut BTreeMap<u64, CaptureData>) -> Result<(), String> {
    let ev = get_str(line, "ev")?;
    let load = get_u64(line, "load")?;
    let data = by_load.entry(load).or_insert_with(|| CaptureData {
        load,
        ..CaptureData::default()
    });
    match ev.as_str() {
        "link" => data.links.push(LinkMeta {
            point: get_point(line)?,
            deliveries_ms: get_u64_array(line, "deliveries_ms")?.into(),
            period_ms: get_u64(line, "period_ms")?,
            mtu_bytes: get_u32(line, "mtu")?,
        }),
        "pkt" => data.packets.push(PacketEvent {
            t_ns: get_u64(line, "t_ns")?,
            kind: get_token(line, "kind", "packet event kind", PacketEventKind::from_str)?,
            point: get_point(line)?,
            pkt_id: get_u64(line, "pkt")?,
            size_bytes: get_u32(line, "size")?,
            sojourn_ns: get_u64(line, "sojourn_ns")?,
            // Absent in pre-flow capture files; 0 means "no identity".
            flow: get_u64(line, "flow").unwrap_or(0),
        }),
        "http" => data.https.push(HttpEvent {
            t_ns: get_u64(line, "t_ns")?,
            phase: get_token(line, "phase", "http phase", HttpPhase::from_str)?,
            resource: get_u32(line, "res")?,
            url: get_str(line, "url")?,
            status: get_u16(line, "status")?,
            bytes: get_u64(line, "bytes")?,
        }),
        other => return Err(format!("unknown event type {other:?}")),
    }
    Ok(())
}

/// Parse a JSONL capture, grouping events into one [`CaptureData`] per
/// load, ordered by load id.
pub(crate) fn parse_jsonl(text: &str) -> Result<Vec<CaptureData>, String> {
    let mut by_load = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        parse_line(line, &mut by_load).map_err(|e| format!("line {}: {e}", idx + 1))?;
    }
    Ok(by_load.into_values().collect())
}

/// Parse a capture file's bytes.
pub fn parse_capture_bytes(bytes: &[u8]) -> Result<Vec<CaptureData>, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("capture is not UTF-8: {e}"))?;
    parse_jsonl(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_capture::{data_to_jsonl, Capture, PacketTap, NO_RESOURCE};

    fn sample_data(load: u64) -> CaptureData {
        let cap = Capture::for_load(load);
        cap.on_link_meta(&LinkMeta {
            point: TapPoint {
                kind: PointKind::Link,
                index: 2,
                dir: Dir::Down,
            },
            deliveries_ms: vec![0, 1, 1, 3].into(),
            period_ms: 4,
            mtu_bytes: 1500,
        });
        cap.on_packet(&PacketEvent {
            t_ns: 1_500_000,
            kind: PacketEventKind::Dequeue,
            point: TapPoint {
                kind: PointKind::Link,
                index: 2,
                dir: Dir::Down,
            },
            flow: 7,
            pkt_id: 42,
            size_bytes: 1460,
            sojourn_ns: 320_000,
        });
        cap.on_http(&HttpEvent {
            t_ns: 9,
            phase: HttpPhase::Done,
            resource: 0,
            url: "http://10.0.0.1/a\"b\\c".to_string(),
            status: 200,
            bytes: 1234,
        });
        cap.on_http(&HttpEvent {
            t_ns: 10,
            phase: HttpPhase::ServerSent,
            resource: NO_RESOURCE,
            url: "/a".to_string(),
            status: 200,
            bytes: 1234,
        });
        cap.data()
    }

    #[test]
    fn jsonl_roundtrip_exact() {
        let data = sample_data(7);
        let parsed = parse_jsonl(&data_to_jsonl(&data)).unwrap();
        assert_eq!(parsed, vec![data]);
    }

    #[test]
    fn multiple_loads_grouped_and_ordered() {
        let a = sample_data(5);
        let b = sample_data(2);
        let merged = format!("{}{}", data_to_jsonl(&a), data_to_jsonl(&b));
        let parsed = parse_jsonl(&merged).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].load, 2);
        assert_eq!(parsed[1].load, 5);
        assert_eq!(parsed[1], a);
    }

    #[test]
    fn url_containing_key_pattern_does_not_confuse_scanner() {
        // A URL whose text contains `","t_ns":` style fragments: the
        // embedded quotes are escaped on write, so the scanner must skip
        // them when locating real keys.
        let data = {
            let cap = Capture::for_load(0);
            cap.on_http(&HttpEvent {
                t_ns: 4,
                phase: HttpPhase::Queued,
                resource: 1,
                url: "http://x/?q=\",\"t_ns\":999,\"".to_string(),
                status: 0,
                bytes: 0,
            });
            cap.data()
        };
        let parsed = parse_jsonl(&data_to_jsonl(&data)).unwrap();
        assert_eq!(parsed, vec![data]);
        assert_eq!(parsed[0].https[0].t_ns, 4);
    }

    #[test]
    fn a_size_past_32_bits_is_an_error() {
        let line = data_to_jsonl(&sample_data(1))
            .lines()
            .find(|l| l.contains("\"ev\":\"pkt\""))
            .unwrap()
            .replace("\"size\":1460,", "\"size\":4294967301,");
        let err = parse_jsonl(&line).unwrap_err();
        assert!(err.contains("\"size\""), "{err}");
    }

    #[test]
    fn bad_lines_are_reported_with_line_numbers() {
        let err = parse_jsonl("{\"ev\":\"pkt\",\"load\":1}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = parse_jsonl("{\"ev\":\"nope\",\"load\":1}").unwrap_err();
        assert!(err.contains("unknown event type"), "{err}");
    }
}
