//! The JSON text the workspace writes: one string writer and one number
//! writer, shared by [`Telemetry::to_jsonl`](crate::telemetry::Telemetry::to_jsonl)
//! and the sweep report.

use std::fmt::Write as _;

/// Appends `s` as a JSON string: in quotes, with `"`, `\` and every control
/// character escaped.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number: with `places` fixed decimals, or in the
/// shortest form that reads back as `v` when `None`. JSON has no NaN or
/// infinity, so either is written as `null`.
pub fn number(out: &mut String, v: f64, places: Option<usize>) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let _ = match places {
        Some(places) => write!(out, "{v:.places$}"),
        None => write!(out, "{v}"),
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(write: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        write(&mut out);
        out
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(written(|o| string(o, "a\"b\\c\nd")), "\"a\\\"b\\\\c\\u000ad\"");
        assert_eq!(written(|o| string(o, "wlan/ü")), "\"wlan/ü\"");
    }

    #[test]
    fn numbers_are_shortest_or_fixed_and_never_nan() {
        assert_eq!(written(|o| number(o, 2.5, None)), "2.5");
        assert_eq!(written(|o| number(o, 3.0, None)), "3");
        assert_eq!(written(|o| number(o, 1.0 / 3.0, Some(6))), "0.333333");
        assert_eq!(written(|o| number(o, f64::NAN, None)), "null");
        assert_eq!(written(|o| number(o, f64::INFINITY, Some(6))), "null");
    }
}
