//! JSON in and out, over the vendored `serde` / `serde_json` — the one
//! dependency named outside `api.rs`: a stand-in for a published crate,
//! not an item of the simulator — plus the metric-name rule.

pub use serde::Value;

/// An object from `(key, value)` pairs, in the order given.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Compact JSON text. Floats print with every digit needed to round-trip.
pub fn to_string(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value tree always serializes")
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Member `key` of an object.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A number, whichever way the printer chose to write it.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Names (metrics, workloads) start with a letter or digit and use only
/// `[A-Za-z0-9_.-]`, at most 64 characters — the benchmark contract's
/// charset, which also keeps every name shell- and JSON-safe. The
/// catalogue's tests hold every name and unit to these rules.
#[cfg(test)]
pub fn name_ok(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Units use `[A-Za-z0-9_/%.-]`, at most 16 characters.
#[cfg(test)]
pub fn unit_ok(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_charset() {
        for good in ["ops_per_s", "mm-sim.dispatch_ns_per_event", "9lives", "a"] {
            assert!(name_ok(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/ed",
            "ünï",
            too_long.as_str(),
        ] {
            assert!(!name_ok(bad), "{bad}");
        }
        assert!(unit_ok("MB/s") && unit_ok("1/s") && unit_ok("%") && unit_ok("op/s"));
        assert!(!unit_ok("") && !unit_ok("a b") && !unit_ok("seventeen_chars__"));
    }

    #[test]
    fn writer_round_trips_through_serde_json() {
        let v = obj(vec![
            ("correct", Value::Bool(true)),
            ("attempted", Value::Int(1200)),
            ("tiny", Value::Float(1.234_567_890_123_456_7e-9)),
            ("third", Value::Float(1.0 / 3.0)),
            ("whole", Value::Float(42.0)),
            (
                "text",
                Value::Str("quote \" backslash \\ newline \n tab \t é".to_string()),
            ),
            (
                "nested",
                obj(vec![(
                    "list",
                    Value::Seq(vec![Value::Int(-1), Value::Null]),
                )]),
            ),
        ]);
        let text = to_string(&v);
        assert!(!text.contains('\n'), "one line: {text}");
        let back = parse(&text).expect("own output must parse");
        // Every float survives bit for bit.
        assert_eq!(
            as_f64(get(&back, "tiny").unwrap()),
            Some(1.234_567_890_123_456_7e-9)
        );
        assert_eq!(as_f64(get(&back, "third").unwrap()), Some(1.0 / 3.0));
        assert_eq!(as_f64(get(&back, "whole").unwrap()), Some(42.0));
        assert_eq!(get(&back, "text"), get(&v, "text"));
        assert_eq!(get(&back, "nested"), get(&v, "nested"));
        assert_eq!(to_string(&back), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("{} trailing").is_err());
    }
}
