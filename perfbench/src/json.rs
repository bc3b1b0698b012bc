//! Just enough JSON writing for the result line, the run record and the
//! span dump, without dependencies.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// JSON has no NaN or infinity; those become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON object from already-encoded values, in the given key order.
pub fn object(fields: &[(&str, String)]) -> String {
    let cells: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", cells.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_strings_numbers_objects() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(
            object(&[("x", number(2.0)), ("y", string("z"))]),
            "{\"x\": 2, \"y\": \"z\"}"
        );
    }
}
