//! The flat-JSONL codec the observer artefacts share: the span trace
//! (here), the audit report (`mm-audit`) and the capture reader
//! (`mm-graph`).
//!
//! Every artefact line is one flat object of known keys whose values are
//! unsigned integers, strings or arrays of unsigned integers, so this is
//! a scanner over that shape, not a general JSON parser. A key is found
//! by its `"key":` text; inside a string written by [`escape`] every `"`
//! is preceded by a backslash, so key text embedded in a value can never
//! match. Malformed input — truncated lines, stray bytes, out-of-range
//! numbers — is an `Err` naming the field, never a panic.

/// `s` as the body of a JSON string: quotes and backslashes escaped,
/// control characters as `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The offset just past `"key":`, skipping occurrences whose opening
/// quote is escaped (text inside a string value).
fn find_key(line: &str, key: &str) -> Result<usize, String> {
    let pat = format!("\"{key}\":");
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(rel) = line[start..].find(&pat) {
        let pos = start + rel;
        if pos == 0 || bytes[pos - 1] != b'\\' {
            return Ok(pos + pat.len());
        }
        start = pos + 1;
    }
    Err(format!("missing field {key:?}"))
}

/// The unsigned integer value of `key`.
pub fn get_u64(line: &str, key: &str) -> Result<u64, String> {
    let digits = &line[find_key(line, key)?..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    if end == 0 {
        return Err(format!("field {key:?} is not a number"));
    }
    digits[..end]
        .parse()
        .map_err(|e| format!("field {key:?}: {e}"))
}

/// [`get_u64`], rejecting values that do not fit a `u32`.
pub fn get_u32(line: &str, key: &str) -> Result<u32, String> {
    let v = get_u64(line, key)?;
    u32::try_from(v).map_err(|_| format!("field {key:?}: {v} does not fit 32 bits"))
}

/// [`get_u64`], rejecting values that do not fit a `u16`.
pub fn get_u16(line: &str, key: &str) -> Result<u16, String> {
    let v = get_u64(line, key)?;
    u16::try_from(v).map_err(|_| format!("field {key:?}: {v} does not fit 16 bits"))
}

/// The string value of `key`, unescaped.
pub fn get_str(line: &str, key: &str) -> Result<String, String> {
    let rest = &line[find_key(line, key)?..];
    let Some(body) = rest.strip_prefix('"') else {
        return Err(format!("field {key:?} is not a string"));
    };
    let mut out = String::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Ok(out),
            '\\' => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|e| format!("field {key:?}: bad \\u escape: {e}"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("field {key:?}: bad codepoint {code}"))?,
                    );
                }
                other => return Err(format!("field {key:?}: bad escape {other:?}")),
            },
            c => out.push(c),
        }
    }
    Err(format!("field {key:?}: unterminated string"))
}

/// The array-of-unsigned-integers value of `key`.
pub fn get_u64_array(line: &str, key: &str) -> Result<Vec<u64>, String> {
    let rest = &line[find_key(line, key)?..];
    let Some(body) = rest.strip_prefix('[') else {
        return Err(format!("field {key:?} is not an array"));
    };
    let close = body
        .find(']')
        .ok_or_else(|| format!("field {key:?}: unterminated array"))?;
    let body = &body[..close];
    if body.trim().is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|s| s.trim().parse().map_err(|e| format!("field {key:?}: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_getters_reject_what_does_not_fit() {
        let line = "{\"a\":4294967301,\"b\":65536,\"c\":65535}";
        assert_eq!(get_u64(line, "a"), Ok(4_294_967_301));
        assert!(get_u32(line, "a").is_err());
        assert_eq!(get_u32(line, "b"), Ok(65_536));
        assert!(get_u16(line, "b").is_err());
        assert_eq!(get_u16(line, "c"), Ok(65_535));
    }

    #[test]
    fn key_text_inside_a_string_is_not_a_key() {
        let url = "x\",\"t\":9,\"";
        let line = format!("{{\"url\":\"{}\",\"t\":4}}", escape(url));
        assert_eq!(get_u64(&line, "t"), Ok(4));
        assert_eq!(get_str(&line, "url").as_deref(), Ok(url));
    }
}
