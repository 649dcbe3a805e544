//! Minimal JSON-lines encoding for obs events.
//!
//! The workspace has no serde, so the sink hand-writes one JSON object per
//! line and this module provides the matching parser used by tests and by
//! anyone post-processing a `--trace` file. The schema is deliberately
//! flat:
//!
//! ```json
//! {"type":"span","id":7,"parent":3,"name":"sim.detailed.run",
//!  "start_us":120,"dur_us":4510,"counters":{"sim.detailed.instructions":10000}}
//! {"type":"event","name":"harness.cache.model","fields":{"bench":"gcc"}}
//! ```
//!
//! This module is compiled regardless of the `obs` feature so a trace file
//! produced by an instrumented build can be read back by any build.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One decoded JSONL record from an obs trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A finished span: a named, timed region with counter deltas.
    Span {
        /// Process-unique span id (allocation order).
        id: u64,
        /// Id of the enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Span name, e.g. `sim.badco.run`.
        name: String,
        /// Start offset from process epoch, microseconds.
        start_us: u64,
        /// Wall-clock duration, microseconds.
        dur_us: u64,
        /// Counter deltas over the span's lifetime (nonzero only).
        counters: BTreeMap<String, u64>,
        /// Worker id the span was shipped from in a distributed run;
        /// `None` for spans recorded by this process (the common case —
        /// the plain encoder omits the key and the parser defaults it).
        worker: Option<String>,
    },
    /// A point-in-time event with free-form string fields.
    Event {
        /// Event name, e.g. `harness.cache.population`.
        name: String,
        /// Key/value payload.
        fields: BTreeMap<String, String>,
    },
}

impl Record {
    /// The record's name, whichever variant it is.
    pub fn name(&self) -> &str {
        match self {
            Record::Span { name, .. } | Record::Event { name, .. } => name,
        }
    }
}

/// Escapes `s` as a JSON string body (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Encodes a span record as one JSONL line (no trailing newline).
pub fn encode_span(
    id: u64,
    parent: Option<u64>,
    name: &str,
    start_us: u64,
    dur_us: u64,
    counters: &BTreeMap<String, u64>,
) -> String {
    encode_span_tagged(None, id, parent, name, start_us, dur_us, counters)
}

/// Encodes a span record, optionally tagged with the worker id it came
/// from (the coordinator re-emits shipped worker spans this way; see
/// `docs/distributed.md`). `worker: None` produces exactly
/// [`encode_span`]'s output — the key is omitted, not null.
pub fn encode_span_tagged(
    worker: Option<&str>,
    id: u64,
    parent: Option<u64>,
    name: &str,
    start_us: u64,
    dur_us: u64,
    counters: &BTreeMap<String, u64>,
) -> String {
    let mut line = format!(
        "{{\"type\":\"span\",\"id\":{id},\"parent\":{},\"name\":\"{}\",",
        parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
        escape(name),
    );
    if let Some(w) = worker {
        let _ = write!(line, "\"worker\":\"{}\",", escape(w));
    }
    let _ = write!(
        line,
        "\"start_us\":{start_us},\"dur_us\":{dur_us},\"counters\":{{"
    );
    let mut first = true;
    for (k, v) in counters {
        if !first {
            line.push(',');
        }
        first = false;
        let _ = write!(line, "\"{}\":{v}", escape(k));
    }
    line.push_str("}}");
    line
}

/// Encodes a point event as one JSONL line (no trailing newline).
pub fn encode_event(name: &str, fields: &[(&str, String)]) -> String {
    let mut line = format!(
        "{{\"type\":\"event\",\"name\":\"{}\",\"fields\":{{",
        escape(name)
    );
    let mut first = true;
    for (k, v) in fields {
        if !first {
            line.push(',');
        }
        first = false;
        let _ = write!(line, "\"{}\":\"{}\"", escape(k), escape(v));
    }
    line.push_str("}}");
    line
}

/// Parses one JSONL line produced by this module.
///
/// # Errors
///
/// Returns a description of the first syntax problem found; the parser
/// accepts exactly the subset of JSON the encoder emits (string keys,
/// string/u64/null values, one level of nesting for `counters`/`fields`).
pub fn parse(line: &str) -> Result<Record, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let rec = p.record()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(rec)
}

/// Parses every non-empty line of a trace file body.
///
/// # Errors
///
/// Returns the line number (1-based) and message of the first bad line.
pub fn parse_all(body: &str) -> Result<Vec<Record>, String> {
    body.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

#[derive(Debug)]
enum Value {
    Str(String),
    Num(u64),
    Null,
    Map(BTreeMap<String, Value>),
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("short \\u escape")?;
                            let s = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid utf-8")?,
                    );
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'{') => Ok(Value::Map(self.map()?)),
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Value::Null)
                } else {
                    Err(format!("bad literal at offset {}", self.pos))
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("digits are ascii")
                    .parse()
                    .map(Value::Num)
                    .map_err(|e| format!("bad number: {e}"))
            }
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn map(&mut self) -> Result<BTreeMap<String, Value>, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            out.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn record(&mut self) -> Result<Record, String> {
        let mut map = self.map()?;
        let ty = match map.remove("type") {
            Some(Value::Str(s)) => s,
            _ => return Err("missing \"type\"".into()),
        };
        let name = match map.remove("name") {
            Some(Value::Str(s)) => s,
            _ => return Err("missing \"name\"".into()),
        };
        match ty.as_str() {
            "span" => {
                let num = |map: &mut BTreeMap<String, Value>, key: &str| match map.remove(key) {
                    Some(Value::Num(n)) => Ok(n),
                    _ => Err(format!("missing numeric \"{key}\"")),
                };
                let id = num(&mut map, "id")?;
                let start_us = num(&mut map, "start_us")?;
                let dur_us = num(&mut map, "dur_us")?;
                let parent = match map.remove("parent") {
                    Some(Value::Num(n)) => Some(n),
                    Some(Value::Null) | None => None,
                    _ => return Err("bad \"parent\"".into()),
                };
                let worker = match map.remove("worker") {
                    Some(Value::Str(s)) => Some(s),
                    None => None,
                    _ => return Err("bad \"worker\"".into()),
                };
                let mut counters = BTreeMap::new();
                if let Some(Value::Map(m)) = map.remove("counters") {
                    for (k, v) in m {
                        match v {
                            Value::Num(n) => {
                                counters.insert(k, n);
                            }
                            _ => return Err(format!("counter \"{k}\" is not a number")),
                        }
                    }
                }
                Ok(Record::Span {
                    id,
                    parent,
                    name,
                    start_us,
                    dur_us,
                    counters,
                    worker,
                })
            }
            "event" => {
                let mut fields = BTreeMap::new();
                if let Some(Value::Map(m)) = map.remove("fields") {
                    for (k, v) in m {
                        match v {
                            Value::Str(s) => {
                                fields.insert(k, s);
                            }
                            Value::Num(n) => {
                                fields.insert(k, n.to_string());
                            }
                            _ => return Err(format!("field \"{k}\" is not a string")),
                        }
                    }
                }
                Ok(Record::Event { name, fields })
            }
            other => Err(format!("unknown record type \"{other}\"")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_round_trip() {
        let mut counters = BTreeMap::new();
        counters.insert("sim.detailed.instructions".to_string(), 10_000);
        counters.insert("uncore.llc.misses".to_string(), 37);
        let line = encode_span(7, Some(3), "sim.detailed.run", 120, 4510, &counters);
        let rec = parse(&line).expect("encoder output parses");
        assert_eq!(
            rec,
            Record::Span {
                id: 7,
                parent: Some(3),
                name: "sim.detailed.run".into(),
                start_us: 120,
                dur_us: 4510,
                counters,
                worker: None,
            }
        );
    }

    #[test]
    fn worker_tagged_span_round_trips_and_plain_spans_omit_the_key() {
        let counters = BTreeMap::new();
        let plain = encode_span(2, None, "cell", 5, 9, &counters);
        assert!(!plain.contains("worker"), "{plain}");
        let tagged = encode_span_tagged(Some("w1"), 2, None, "cell", 5, 9, &counters);
        match parse(&tagged).expect("parses") {
            Record::Span { worker, name, .. } => {
                assert_eq!(worker.as_deref(), Some("w1"));
                assert_eq!(name, "cell");
            }
            r => panic!("wrong variant: {r:?}"),
        }
        // A trace written before the worker key existed still parses.
        match parse(&plain).expect("parses") {
            Record::Span { worker, .. } => assert_eq!(worker, None),
            r => panic!("wrong variant: {r:?}"),
        }
    }

    #[test]
    fn root_span_has_null_parent() {
        let line = encode_span(1, None, "phase.trace_gen", 0, 9, &BTreeMap::new());
        assert!(line.contains("\"parent\":null"));
        match parse(&line).expect("parses") {
            Record::Span { parent, .. } => assert_eq!(parent, None),
            r => panic!("wrong variant: {r:?}"),
        }
    }

    #[test]
    fn event_round_trip_with_escapes() {
        let line = encode_event(
            "harness.note",
            &[("msg", "a \"quoted\"\nline\t\\".to_string())],
        );
        match parse(&line).expect("parses") {
            Record::Event { name, fields } => {
                assert_eq!(name, "harness.note");
                assert_eq!(fields["msg"], "a \"quoted\"\nline\t\\");
            }
            r => panic!("wrong variant: {r:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"type\":\"span\"}").is_err());
        assert!(parse("{\"type\":\"mystery\",\"name\":\"x\"}").is_err());
        assert!(parse("{\"type\":\"event\",\"name\":\"x\"} trailing").is_err());
    }

    #[test]
    fn parse_all_reports_line_numbers() {
        let body = format!("{}\n\nbroken\n", encode_event("ok", &[]));
        let err = parse_all(&body).expect_err("line 3 is broken");
        assert!(err.starts_with("line 3:"), "{err}");
    }
}
