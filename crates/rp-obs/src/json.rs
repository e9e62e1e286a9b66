//! Minimal JSON rendering helpers — just enough for the metrics
//! export, the flight-recorder dump and the chrome-trace writer. No
//! parsing, no dependencies, no allocation beyond the output buffer.

use std::fmt::Write as _;

/// Appends `s` as a JSON string literal (quoted, escaped).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number (`null` for NaN/infinite values, which
/// JSON cannot represent).
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A JSON scalar value.
#[derive(Clone, Copy, Debug)]
pub enum JsonValue<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (NaN/inf render as `null`).
    F64(f64),
    /// String (escaped on render).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl JsonValue<'_> {
    /// Renders the value into `out` as a JSON scalar.
    pub fn render(&self, out: &mut String) {
        match *self {
            JsonValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::F64(v) => push_json_f64(out, v),
            JsonValue::Str(s) => push_json_string(out, s),
            JsonValue::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut out = String::new();
        push_json_f64(&mut out, f64::NAN);
        out.push(' ');
        push_json_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null null");
    }

    #[test]
    fn scalar_values_render_as_json() {
        let mut out = String::new();
        for (value, expect) in [
            (JsonValue::U64(7), "7"),
            (JsonValue::I64(-3), "-3"),
            (JsonValue::F64(1.5), "1.5"),
            (JsonValue::Str("x"), "\"x\""),
            (JsonValue::Bool(true), "true"),
        ] {
            out.clear();
            value.render(&mut out);
            assert_eq!(out, expect);
        }
    }
}
