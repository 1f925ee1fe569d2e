//! The flat-JSON reader and escaper behind the hand-written line formats:
//! the job journal reads and writes through both, and telemetry events
//! escape their strings with [`escape_into`].
//!
//! Each of those formats writes one object per line whose values are
//! numbers, `null`, strings, or arrays/objects of numbers, so looking a key
//! up is a scan for `"key":` followed by one value.  This is not a general
//! JSON parser: a key is found at its first occurrence at any depth.

use std::fmt::Write as _;

/// Appends `s` escaped for the inside of a JSON string literal.
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// `s` escaped for the inside of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// Reverses [`escape`]; `None` on a malformed escape sequence.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let code: String = chars.by_ref().take(4).collect();
                out.push(char::from_u32(u32::from_str_radix(&code, 16).ok()?)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// The raw value after `"key":` — a number, `null`, a quoted string (quotes
/// kept), or a whole array or object — ending before the next `,`, `}` or
/// `]` outside any string and at nesting depth zero.
pub fn raw<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &s[s.find(&pat)? + pat.len()..];
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' | '{' => depth += 1,
            ',' | ']' | '}' if depth == 0 => return Some(&rest[..i]),
            ']' | '}' => depth -= 1,
            _ => {}
        }
    }
    Some(rest)
}

/// `"key":<u64>`; also serves nullable fields (`null` yields `None`).
pub fn u64_field(s: &str, key: &str) -> Option<u64> {
    raw(s, key)?.parse().ok()
}

/// `"key":"<string>"`, unescaped.
pub fn str_field(s: &str, key: &str) -> Option<String> {
    let raw = raw(s, key)?;
    unescape(raw.strip_prefix('"')?.strip_suffix('"')?)
}

/// `"key":[a,b,…]` holding exactly `N` unsigned integers.
pub fn u64_array<const N: usize>(s: &str, key: &str) -> Option<[u64; N]> {
    let body = raw(s, key)?.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = [0u64; N];
    let mut parts = body.split(',');
    for slot in &mut out {
        *slot = parts.next()?.trim().parse().ok()?;
    }
    parts.next().is_none().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_unescape() {
        let s = "a\nb\\c\"d\u{1}\te\r/";
        assert_eq!(escape(s), "a\\nb\\\\c\\\"d\\u0001\\te\\r/");
        assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        assert_eq!(unescape("bad \\q escape"), None);
        assert_eq!(unescape("torn \\"), None);
    }

    #[test]
    fn fields_skip_strings_and_nested_values() {
        let line = "{\"label\":\"x,\\\"y}\",\"arr\":[1, 2,3],\"obj\":{\"a\":1,\"b\":[2]},\
                    \"n\":42,\"none\":null}";
        assert_eq!(str_field(line, "label").as_deref(), Some("x,\"y}"));
        assert_eq!(u64_array::<3>(line, "arr"), Some([1, 2, 3]));
        assert_eq!(u64_array::<2>(line, "arr"), None);
        assert_eq!(raw(line, "obj"), Some("{\"a\":1,\"b\":[2]}"));
        assert_eq!(u64_field(line, "n"), Some(42));
        assert_eq!(u64_field(line, "none"), None);
        assert_eq!(raw(line, "missing"), None);
        assert_eq!(raw("{\"tail\":7", "tail"), Some("7"));
    }
}
