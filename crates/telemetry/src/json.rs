//! A minimal, byte-deterministic JSON writer.
//!
//! The workspace builds offline and its `serde` is a no-op marker shim,
//! so snapshot serialization is implemented here directly. The writer
//! guarantees byte stability: keys are emitted in the order the caller
//! provides them (snapshots iterate `BTreeMap`s and fixed enum tables),
//! floats are rendered with Rust's shortest round-trip formatting (which
//! is deterministic and platform-independent for finite values), and
//! non-finite floats are clamped to `null` as JSON requires.

use std::fmt::Write as _;

/// Formats an `f64` the way the snapshot writer does: shortest
/// round-trip decimal for finite values, `null` for NaN/infinities.
pub fn format_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        // `{}` renders whole floats as "1"; keep them float-typed in the
        // schema so consumers never see a field flip integer/float.
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // C0 controls must be escaped per RFC 8259; DEL (U+007F) and
            // the line/paragraph separators (U+2028/U+2029) are legal in
            // JSON strings but break log-line tooling and JavaScript
            // consumers, so they get the same treatment.
            c if (c as u32) < 0x20 || c == '\u{7f}' || c == '\u{2028}' || c == '\u{2029}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An append-only JSON document builder with two-space pretty printing.
///
/// The builder does not validate nesting beyond debug assertions; the
/// snapshot writer is its only intended caller and exercises every path
/// under test.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// Stack of "does the current container already have a member?".
    has_member: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn indent(&mut self) {
        for _ in 0..self.has_member.len() {
            self.buf.push_str("  ");
        }
    }

    /// Starts a member: the separator, the indent, and `key` if any.
    fn begin_member(&mut self, key: Option<&str>) {
        if let Some(last) = self.has_member.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
            self.buf.push('\n');
            self.indent();
        }
        if let Some(k) = key {
            let _ = write!(self.buf, "\"{}\": ", escape(k));
        }
    }

    /// Opens the root object or a nested object under `key` (pass `None`
    /// inside arrays or at the root).
    pub fn open_object(&mut self, key: Option<&str>) {
        self.begin_member(key);
        self.buf.push('{');
        self.has_member.push(false);
    }

    /// Closes the innermost object.
    pub fn close_object(&mut self) {
        let had = self.has_member.pop().unwrap_or(false);
        if had {
            self.buf.push('\n');
            self.indent();
        }
        self.buf.push('}');
    }

    /// Opens an array under `key` (or anonymously inside another array).
    pub fn open_array(&mut self, key: Option<&str>) {
        self.begin_member(key);
        self.buf.push('[');
        self.has_member.push(false);
    }

    /// Closes the innermost array.
    pub fn close_array(&mut self) {
        let had = self.has_member.pop().unwrap_or(false);
        if had {
            self.buf.push('\n');
            self.indent();
        }
        self.buf.push(']');
    }

    /// Writes a string member (or a bare string element inside arrays).
    pub fn string(&mut self, key: Option<&str>, value: &str) {
        self.begin_member(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
    }

    /// Writes an unsigned integer member.
    pub fn uint(&mut self, key: Option<&str>, value: u64) {
        self.begin_member(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Writes a boolean member.
    pub fn bool(&mut self, key: Option<&str>, value: bool) {
        self.begin_member(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Writes a float member with deterministic formatting.
    pub fn float(&mut self, key: Option<&str>, value: f64) {
        self.begin_member(key);
        let _ = write!(self.buf, "{}", format_f64(value));
    }

    /// Finishes the document and returns the JSON text (with a trailing
    /// newline, as written files conventionally carry).
    pub fn finish(mut self) -> String {
        self.buf.push('\n');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_are_stable_and_typed() {
        assert_eq!(format_f64(1.0), "1.0");
        assert_eq!(format_f64(0.25), "0.25");
        assert_eq!(format_f64(f64::NAN), "null");
        assert_eq!(format_f64(f64::INFINITY), "null");
        // Rust's Display never uses scientific notation; huge values come
        // out as full decimals and still get float-typed.
        let big = format_f64(1e300);
        assert!(big.starts_with('1') && big.ends_with(".0"), "{big}");
    }

    #[test]
    fn escaping_covers_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn escaping_covers_del_and_line_separators() {
        // DEL sits just past the C0 range the old guard covered; the
        // Unicode line separators would smuggle raw line breaks into
        // one-line-per-record journals.
        assert_eq!(escape("a\u{7f}b"), "a\\u007fb");
        assert_eq!(escape("\u{2028}"), "\\u2028");
        assert_eq!(escape("\u{2029}"), "\\u2029");
    }

    #[test]
    fn escaping_passes_other_non_ascii_through_raw() {
        // Only the characters that break consumers are escaped; general
        // Unicode stays verbatim so output remains human-readable.
        assert_eq!(escape("überflug ↑ 北京"), "überflug ↑ 北京");
        assert_eq!(escape("\u{2027}\u{202a}"), "\u{2027}\u{202a}");
    }

    #[test]
    fn writer_builds_nested_documents() {
        let mut w = JsonWriter::new();
        w.open_object(None);
        w.uint(Some("a"), 1);
        w.open_object(Some("b"));
        w.float(Some("x"), 0.5);
        w.bool(Some("y"), true);
        w.close_object();
        w.open_array(Some("c"));
        w.string(None, "e1");
        w.string(None, "e2");
        w.close_array();
        w.close_object();
        let out = w.finish();
        assert_eq!(
            out,
            "{\n  \"a\": 1,\n  \"b\": {\n    \"x\": 0.5,\n    \"y\": true\n  },\n  \"c\": [\n    \"e1\",\n    \"e2\"\n  ]\n}\n"
        );
    }

    #[test]
    fn empty_containers_close_inline() {
        let mut w = JsonWriter::new();
        w.open_object(None);
        w.open_array(Some("empty"));
        w.close_array();
        w.close_object();
        assert_eq!(w.finish(), "{\n  \"empty\": []\n}\n");
    }

    #[test]
    fn identical_inputs_are_byte_identical() {
        let build = || {
            let mut w = JsonWriter::new();
            w.open_object(None);
            w.float(Some("v"), 0.1 + 0.2);
            w.close_object();
            w.finish()
        };
        assert_eq!(build(), build());
    }
}
