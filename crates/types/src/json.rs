//! JSON text writer: the encode half of the workspace's JSON codec.
//!
//! [`JsonWriter`] appends compact JSON to one `String` in the order the
//! caller writes it, byte for byte what `serde_json::to_string` produces
//! for the same document: no whitespace, and strings escaped the same way
//! — `"` and `\` backslashed, `\n \r \t \b \f` in their short forms, the
//! other control characters as `\u00XX`, every other character (DEL and
//! non-ASCII included) verbatim.
//!
//! Values that are already text in place — RFC 3339 instants, counters
//! the Data API carries as decimal strings, etags — are written straight
//! into the buffer through [`JsonWriter::str_with`] instead of being
//! formatted into a temporary first.

use crate::time::Timestamp;

/// A compact JSON writer over one growing `String`.
///
/// Separators are the writer's business: every value and every
/// [`key`](JsonWriter::key) after the first in its object or array is
/// preceded by a comma. Nesting is not checked; callers write
/// well-formed documents.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next value or key needs a `,` before it.
    comma: bool,
}

impl JsonWriter {
    /// A writer whose buffer starts with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(capacity),
            comma: false,
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    /// Opens an object (as a value).
    pub fn begin_object(&mut self) -> &mut JsonWriter {
        self.separate();
        self.out.push('{');
        self.comma = false;
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut JsonWriter {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Opens an array (as a value).
    pub fn begin_array(&mut self) -> &mut JsonWriter {
        self.separate();
        self.out.push('[');
        self.comma = false;
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut JsonWriter {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// Writes an object key. Keys are field names and are written
    /// unescaped, so they must not contain `"`, `\` or control characters.
    pub fn key(&mut self, key: &str) -> &mut JsonWriter {
        debug_assert!(!key.bytes().any(needs_escape), "key {key:?} needs escaping");
        self.separate();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.comma = false;
        self
    }

    /// Writes a string value, escaped.
    pub fn str(&mut self, value: &str) -> &mut JsonWriter {
        self.separate();
        write_str(&mut self.out, value);
        self.comma = true;
        self
    }

    /// Writes a string value whose text `fill` appends to the buffer
    /// between the quotes. `fill` must append only text that needs no
    /// escaping (digits, ASCII letters and punctuation other than `"` and
    /// `\`, or escapes it writes itself).
    pub fn str_with(&mut self, fill: impl FnOnce(&mut String)) -> &mut JsonWriter {
        self.separate();
        self.out.push('"');
        fill(&mut self.out);
        self.out.push('"');
        self.comma = true;
        self
    }

    /// Writes an unsigned integer as a JSON number.
    pub fn u64(&mut self, value: u64) -> &mut JsonWriter {
        self.separate();
        write_u64(&mut self.out, value);
        self.comma = true;
        self
    }

    /// Writes an unsigned integer as a decimal string (`"123"`), the way
    /// the Data API carries its counters.
    pub fn u64_str(&mut self, value: u64) -> &mut JsonWriter {
        self.str_with(|out| write_u64(out, value))
    }

    /// Writes a boolean.
    pub fn bool(&mut self, value: bool) -> &mut JsonWriter {
        self.separate();
        self.out.push_str(if value { "true" } else { "false" });
        self.comma = true;
        self
    }

    /// Writes an instant as an RFC 3339 string (`"2016-06-23T12:00:00Z"`).
    pub fn timestamp(&mut self, value: Timestamp) -> &mut JsonWriter {
        // Writing to a `String` cannot fail.
        self.str_with(|out| {
            let _ = value.write_rfc3339(out);
        })
    }
}

/// Whether `b` must be escaped inside a JSON string.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    while let Some(offset) = bytes[start..].iter().position(|&b| needs_escape(b)) {
        let at = start + offset;
        // Every escaped byte is ASCII, so `at` is a char boundary.
        out.push_str(&s[start..at]);
        let b = bytes[at];
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        start = at + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends `n` in decimal. Hand-rolled, like the RFC 3339 and etag
/// writers: through `write!` the three measured slower (DESIGN §17).
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &digit in &buf[i..] {
        out.push(char::from(digit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    #[test]
    fn every_ascii_character_escapes_like_serde_json() {
        for b in 0u8..=0x7f {
            let s = char::from(b).to_string();
            assert_eq!(
                escaped(&s),
                serde_json::to_string(&s).unwrap(),
                "byte {b:#04x}"
            );
        }
    }

    #[test]
    fn multi_byte_characters_pass_through_like_serde_json() {
        for s in [
            "é",
            "naïve café",
            "日本語",
            "emoji 🎉 in \"quotes\"",
            "\u{2028}\u{2029}",
            "\u{7f}\u{80}\u{ffff}",
            "mixed\tté\u{1}xt\\",
            "",
        ] {
            assert_eq!(escaped(s), serde_json::to_string(s).unwrap(), "{s:?}");
        }
    }

    #[test]
    fn numbers_match_serde_json() {
        for n in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::new();
            write_u64(&mut out, n);
            assert_eq!(out, serde_json::to_string(&n).unwrap());
        }
    }

    #[test]
    fn separators_follow_nesting() {
        let mut w = JsonWriter::with_capacity(64);
        w.begin_object();
        w.key("a").u64(1);
        w.key("b").begin_array();
        w.begin_object().key("c").bool(true).end_object();
        w.begin_object().end_object();
        w.str("x").u64_str(7);
        w.end_array();
        w.key("d").begin_object().end_object();
        w.key("e")
            .timestamp(Timestamp::from_ymd_hms(2016, 6, 23, 9, 5, 1).unwrap());
        w.key("f").str_with(|out| out.push_str("raw"));
        w.end_object();
        assert_eq!(
            w.into_string(),
            r#"{"a":1,"b":[{"c":true},{},"x","7"],"d":{},"e":"2016-06-23T09:05:01Z","f":"raw"}"#
        );
    }
}
