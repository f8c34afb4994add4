//! Minimal deterministic JSON emission.
//!
//! The observability layer hand-rolls its JSON so that output is
//! byte-stable across runs and platforms: keys are written in the order
//! the caller provides them, numbers are integers (simulated time is
//! integer microseconds end to end), and strings are escaped per RFC
//! 8259. No external serialisation crate is needed or available offline.

/// Append a JSON string literal (with escaping) to `out`.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incremental writer for one JSON object: `{"k":v,...}`.
pub struct ObjWriter<'a> {
    out: &'a mut String,
    first: bool,
    numbers_only: bool,
}

impl<'a> ObjWriter<'a> {
    /// Open an object on `out`.
    pub fn begin(out: &'a mut String) -> Self {
        out.push('{');
        ObjWriter {
            out,
            first: true,
            numbers_only: false,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_json_str(self.out, k);
        self.out.push(':');
    }

    /// Write an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        self.out.push_str(&v.to_string());
        self
    }

    /// From here on, drop every field that is not a number: a Chrome
    /// counter record plots each of its args as a series.
    pub fn numbers_only(&mut self) -> &mut Self {
        self.numbers_only = true;
        self
    }

    /// Write a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        if self.numbers_only {
            return self;
        }
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Write a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        if self.numbers_only {
            return self;
        }
        self.key(k);
        push_json_str(self.out, v);
        self
    }

    /// Write an optional unsigned integer field, `null` when absent.
    pub fn opt_u64(&mut self, k: &str, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.u64(k, v),
            None => self.raw(k, "null"),
        }
    }

    /// Write a field whose value is a pre-rendered JSON fragment.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.out.push_str(v);
        self
    }

    /// Write a field whose value is an object that `f` fills in.
    pub fn obj(&mut self, k: &str, f: impl FnOnce(&mut ObjWriter)) -> &mut Self {
        self.key(k);
        let mut inner = ObjWriter::begin(self.out);
        f(&mut inner);
        inner.end();
        self
    }

    /// Close the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_orders_fields() {
        let mut s = String::new();
        let mut w = ObjWriter::begin(&mut s);
        w.str("a", "he said \"hi\"\n").u64("b", 7).bool("c", false);
        w.end();
        assert_eq!(s, r#"{"a":"he said \"hi\"\n","b":7,"c":false}"#);
    }

    #[test]
    fn nested_object_and_numbers_only() {
        let mut s = String::new();
        let mut w = ObjWriter::begin(&mut s);
        w.str("a", "x").obj("o", |w| {
            w.str("s", "y")
                .numbers_only()
                .str("t", "z")
                .u64("n", 1)
                .bool("b", true);
        });
        w.u64("c", 2);
        w.end();
        assert_eq!(s, r#"{"a":"x","o":{"s":"y","n":1},"c":2}"#);
    }

    #[test]
    fn control_chars_use_unicode_escapes() {
        let mut s = String::new();
        push_json_str(&mut s, "\u{1}x");
        assert_eq!(s, "\"\\u0001x\"");
    }
}
