//! JSON output. The tree type and the parser are the repository's own
//! (`cackle_telemetry::json`); this adds the writer that crate has no
//! use for, plus a few builders so report code reads as data.

pub use cackle_telemetry::json::{parse, Value};

/// An object from `(key, value)` pairs, in the order given.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn num(v: f64) -> Value {
    Value::Num(v)
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn nums(vs: &[f64]) -> Value {
    Value::Arr(vs.iter().map(|&v| Value::Num(v)).collect())
}

/// Serialize on one line. Numbers print with Rust's shortest
/// round-trip form, so a value parses back to the same bits and a
/// measured time keeps all its digits; integers below 2^53 print
/// without a fraction. Non-finite numbers have no JSON form and become
/// `null`.
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if !n.is_finite() => out.push_str("null"),
        Value::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
            out.push_str(&format!("{}", *n as i64))
        }
        Value::Num(n) => out.push_str(&format!("{n:?}")),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write(item, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// [`render`], with each top-level member of an object on its own line
/// so committed baselines diff by section.
pub fn render_lines(v: &Value) -> String {
    match v {
        Value::Obj(pairs) => {
            let mut out = String::from("{\n");
            for (i, (k, item)) in pairs.iter().enumerate() {
                write_str(k, &mut out);
                out.push_str(": ");
                write(item, &mut out);
                out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
            }
            out.push_str("}\n");
            out
        }
        other => render(other) + "\n",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back_to_the_same_tree() {
        let doc = obj([
            ("name", text("a \"quoted\"\\ line\nwith\ttabs \u{1} é")),
            ("count", num(12.0)),
            ("big", num(9_007_199_254_740_992.0)),
            ("neg", num(-3.0)),
            ("time", num(0.123_456_789_012_345_68)),
            ("tiny", num(4e-7)),
            ("list", nums(&[1.5, 2.0, -0.25])),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
            ("nested", obj([("k", Value::Arr(vec![]))])),
        ]);
        for rendered in [render(&doc), render_lines(&doc)] {
            assert_eq!(parse(&rendered).expect("valid JSON"), doc, "{rendered}");
        }
        assert!(render(&doc).contains("\"count\":12,"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(render(&nums(&[f64::NAN, f64::INFINITY])), "[null,null]");
    }
}
