//! Hand-rolled JSON encoding for [`Trace`].
//!
//! The build environment has no crates.io access, so instead of `serde` the
//! trace format is written and parsed by this small module. The format is
//! stable and self-describing:
//!
//! ```json
//! {
//!   "name": "cholesky", "problem_size": 2048, "block_size": 64,
//!   "kernel_names": ["potrf", "trsm"],
//!   "tasks": [
//!     {"id": 0, "kernel": 0, "duration": 100,
//!      "deps": [{"addr": 4096, "dir": "inout"}]}
//!   ],
//!   "barriers": []
//! }
//! ```

use crate::task::{Dependence, Direction, KernelClass, TaskDescriptor, TaskId};
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::fmt;

/// Error from parsing a JSON trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the first problem encountered.
    pub message: String,
    /// Byte offset in the input where the problem was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------- encoding

/// Escapes `s` for use inside a JSON string literal (content only, no
/// surrounding quotes). Shared by every hand-rolled JSON emitter in the
/// workspace — the sweep harness uses it for workload labels and errors.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

pub(crate) fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&json_escape(s));
    out.push('"');
}

fn dir_name(d: Direction) -> &'static str {
    match d {
        Direction::In => "in",
        Direction::Out => "out",
        Direction::InOut => "inout",
    }
}

/// Encodes one task descriptor as a JSON object (shared by the trace
/// format, the session journal and the serve wire protocol, which must
/// agree on the task shape).
pub fn task_to_json(out: &mut String, t: &TaskDescriptor) {
    out.push_str(&format!(
        "{{\"id\":{},\"kernel\":{},\"duration\":{},\"deps\":[",
        t.id.raw(),
        t.kernel.0,
        t.duration
    ));
    for (j, d) in t.deps.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"addr\":{},\"dir\":\"{}\"}}",
            d.addr,
            dir_name(d.dir)
        ));
    }
    out.push_str("]}");
}

/// Decodes one task descriptor from its parsed JSON object. `i` labels
/// errors ("task {i} ..."); the caller checks id ordering and kernel-table
/// bounds where those constraints apply.
pub fn task_from_value(tv: &Value, i: usize) -> Result<TaskDescriptor, JsonError> {
    let Value::Obj(t) = tv else {
        return Err(bad(format!("task {i} must be an object")));
    };
    let id = as_u64(
        t.get("id").ok_or_else(|| bad("task missing id"))?,
        "task id",
    )?;
    if id > u32::MAX as u64 {
        return Err(bad(format!("task {i} id {id} exceeds 32 bits")));
    }
    let kernel = as_u64(t.get("kernel").unwrap_or(&Value::Int(0)), "task kernel")?;
    if kernel > u16::MAX as u64 {
        return Err(bad(format!("task {i} kernel {kernel} out of range")));
    }
    let duration = as_u64(
        t.get("duration")
            .ok_or_else(|| bad("task missing duration"))?,
        "task duration",
    )?;
    let mut deps = Vec::new();
    for dv in as_arr(t.get("deps"), "task deps")? {
        let Value::Obj(d) = dv else {
            return Err(bad(format!("dependence of task {i} must be an object")));
        };
        let addr = as_u64(
            d.get("addr").ok_or_else(|| bad("dep missing addr"))?,
            "dep addr",
        )?;
        let dir = match as_str(
            d.get("dir").ok_or_else(|| bad("dep missing dir"))?,
            "dep dir",
        )? {
            "in" => Direction::In,
            "out" => Direction::Out,
            "inout" => Direction::InOut,
            other => return Err(bad(format!("unknown dependence direction '{other}'"))),
        };
        deps.push(Dependence::new(addr, dir));
    }
    if deps.len() > crate::task::MAX_DEPS_PER_TASK {
        return Err(bad(format!(
            "task {i} has {} dependences, hardware limit is {}",
            deps.len(),
            crate::task::MAX_DEPS_PER_TASK
        )));
    }
    // TaskDescriptor::new re-merges duplicate addresses, which is a
    // no-op for encoder-produced JSON and a sanitizer for hand-written
    // inputs.
    Ok(TaskDescriptor::new(
        TaskId::new(id as u32),
        KernelClass(kernel as u16),
        deps,
        duration,
    ))
}

/// Encodes a trace to a JSON string.
pub(crate) fn trace_to_json(tr: &Trace) -> String {
    let mut out = String::with_capacity(64 + tr.len() * 64);
    out.push_str("{\"name\":");
    escape_into(&mut out, &tr.name);
    match tr.problem_size {
        Some(v) => out.push_str(&format!(",\"problem_size\":{v}")),
        None => out.push_str(",\"problem_size\":null"),
    }
    match tr.block_size {
        Some(v) => out.push_str(&format!(",\"block_size\":{v}")),
        None => out.push_str(",\"block_size\":null"),
    }
    out.push_str(",\"kernel_names\":[");
    for (i, k) in tr.kernel_names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(&mut out, k);
    }
    out.push_str("],\"tasks\":[");
    for (i, t) in tr.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        task_to_json(&mut out, t);
    }
    out.push_str("],\"barriers\":[");
    for (i, b) in tr.barriers().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&b.to_string());
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------- decoding

/// A parsed JSON value (the subset the trace format needs).
///
/// Unsigned integers keep their exact `u64` value (`Int`); only numbers
/// with a fraction, exponent or sign parse as `Num`. Routing every number
/// through `f64` would silently round addresses above 2^53 — dependence
/// addresses are full 64-bit byte addresses.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact.
    Int(u64),
    /// Any other number (fraction, exponent or sign).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (key order normalised).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, when this value is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The element list, when this value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string content, when this value is a string.
    pub fn as_string(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact integer, when this value is a non-negative integer.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so without a cap one line of `[`s overflows
/// the stack and aborts the process; past the cap it returns a
/// [`JsonError`] instead. In-tree documents stay far below it (a 4-shard
/// cluster snapshot nests 10 levels, a trace file 5).
pub const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_JSON_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, JsonError>) -> Result<Value, JsonError> {
        if self.depth == MAX_JSON_DEPTH {
            return self.err(format!("nesting deeper than {MAX_JSON_DEPTH} levels"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            self.err(format!("expected '{text}'"))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => self.err(format!("invalid number '{text}'")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return self.err("invalid \\u escape");
                            };
                            self.pos += 4;
                            // Surrogate pairs are not needed for trace names;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at b.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let end = (start + len).min(self.bytes.len());
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => return self.err("invalid UTF-8 in string"),
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses one complete JSON document into a [`Value`] tree.
///
/// This is the workspace's only JSON reader (the build environment has no
/// `serde`), so every in-tree JSON emitter — trace files, the session
/// journal, the Perfetto span export — validates its output through this
/// entry. Rejects trailing characters after the document and nesting
/// deeper than [`MAX_JSON_DEPTH`].
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first malformed byte.
pub fn parse_json(s: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after JSON value");
    }
    Ok(v)
}

pub(crate) use parse_json as parse_value;

pub(crate) fn bad(message: impl Into<String>) -> JsonError {
    JsonError {
        message: message.into(),
        offset: 0,
    }
}

pub(crate) fn as_u64(v: &Value, what: &str) -> Result<u64, JsonError> {
    match v {
        Value::Int(n) => Ok(*n),
        _ => Err(bad(format!("{what} must be a non-negative integer"))),
    }
}

fn as_opt_u64(v: Option<&Value>, what: &str) -> Result<Option<u64>, JsonError> {
    match v {
        None | Some(Value::Null) => Ok(None),
        Some(v) => as_u64(v, what).map(Some),
    }
}

pub(crate) fn as_str<'v>(v: &'v Value, what: &str) -> Result<&'v str, JsonError> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(bad(format!("{what} must be a string"))),
    }
}

pub(crate) fn as_arr<'v>(v: Option<&'v Value>, what: &str) -> Result<&'v [Value], JsonError> {
    match v {
        Some(Value::Arr(items)) => Ok(items),
        None => Err(bad(format!("missing field {what}"))),
        _ => Err(bad(format!("{what} must be an array"))),
    }
}

/// Decodes a trace from its JSON encoding.
pub(crate) fn trace_from_json(s: &str) -> Result<Trace, JsonError> {
    let Value::Obj(top) = parse_value(s)? else {
        return Err(bad("top-level value must be an object"));
    };
    let name = as_str(
        top.get("name").ok_or_else(|| bad("missing field name"))?,
        "name",
    )?
    .to_string();
    let problem_size = as_opt_u64(top.get("problem_size"), "problem_size")?;
    let block_size = as_opt_u64(top.get("block_size"), "block_size")?;

    let mut kernel_names = Vec::new();
    if let Some(v) = top.get("kernel_names") {
        for k in as_arr(Some(v), "kernel_names")? {
            kernel_names.push(as_str(k, "kernel name")?.to_string());
        }
    }
    if kernel_names.is_empty() {
        kernel_names.push("task".to_string());
    }

    let mut tasks = Vec::new();
    for (i, tv) in as_arr(top.get("tasks"), "tasks")?.iter().enumerate() {
        let task = task_from_value(tv, i)?;
        if task.id.index() != i {
            return Err(bad(format!(
                "task {i} has out-of-order id {}",
                task.id.raw()
            )));
        }
        if task.kernel.0 as usize >= kernel_names.len() {
            return Err(bad(format!(
                "task {i} kernel {} out of range",
                task.kernel.0
            )));
        }
        tasks.push(task);
    }

    let mut barriers = Vec::new();
    if let Some(v) = top.get("barriers") {
        for b in as_arr(Some(v), "barriers")? {
            // Bounds-check the full u64 before narrowing: `as u32` first
            // would silently wrap huge positions onto valid ones.
            let b = as_u64(b, "barrier position")?;
            if b == 0 || b >= tasks.len() as u64 {
                return Err(bad("barrier position outside 1..tasks.len()"));
            }
            barriers.push(b as u32);
        }
    }
    barriers.sort_unstable();
    barriers.dedup();

    Ok(Trace::from_parts(
        name,
        problem_size,
        block_size,
        kernel_names,
        tasks,
        barriers,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(
                parse_json(&nest(open, close, MAX_JSON_DEPTH)).is_ok(),
                "{open}"
            );
            let err = parse_json(&nest(open, close, MAX_JSON_DEPTH + 1)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
            assert_eq!(err.offset, MAX_JSON_DEPTH * open.len(), "{open}");
        }
        // Far past the cap — deep enough to overflow an uncapped recursive
        // parser's stack — the error is still an ordinary `Err`.
        for doc in [
            "[".repeat(100_000),
            "{\"k\":".repeat(100_000),
            "[{\"k\":".repeat(50_000),
        ] {
            assert!(parse_json(&doc).is_err());
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(trace_from_json("not json").is_err());
        assert!(trace_from_json("{}").is_err());
        assert!(trace_from_json("{\"name\":\"x\",\"tasks\":[]} trailing").is_err());
    }

    #[test]
    fn accepts_minimal_object() {
        let tr = trace_from_json("{\"name\":\"x\",\"tasks\":[]}").unwrap();
        assert_eq!(tr.name, "x");
        assert!(tr.is_empty());
    }

    #[test]
    fn escapes_roundtrip() {
        let mut tr = Trace::new("weird \"name\"\nwith\tescapes\\");
        tr.push(KernelClass::GENERIC, [Dependence::inout(7)], 3);
        let back = trace_from_json(&trace_to_json(&tr)).unwrap();
        assert_eq!(tr, back);
    }

    #[test]
    fn full_u64_addresses_roundtrip_exactly() {
        // Above 2^53: a float-routed parser would round these.
        let mut tr = Trace::new("wide");
        tr.push(KernelClass::GENERIC, [Dependence::inout(u64::MAX - 1)], 2);
        tr.push(
            KernelClass::GENERIC,
            [Dependence::input(0xffff_8000_0000_0001)],
            u64::MAX,
        );
        let back = trace_from_json(&trace_to_json(&tr)).unwrap();
        assert_eq!(tr, back);
        assert!(trace_from_json("{\"name\":\"x\",\"tasks\":[],\"barriers\":[1.5]}").is_err());
    }

    #[test]
    fn rejects_bad_barrier() {
        let json = "{\"name\":\"x\",\"tasks\":[{\"id\":0,\"duration\":1,\"deps\":[]}],\
                    \"barriers\":[5]}";
        assert!(trace_from_json(json).is_err());
        // A position above 2^32 must be rejected, not wrapped onto a valid
        // barrier by u32 truncation (4294967297 % 2^32 == 1).
        let json = "{\"name\":\"x\",\"tasks\":[\
                    {\"id\":0,\"duration\":1,\"deps\":[]},\
                    {\"id\":1,\"duration\":1,\"deps\":[]},\
                    {\"id\":2,\"duration\":1,\"deps\":[]}],\
                    \"barriers\":[4294967297]}";
        assert!(trace_from_json(json).is_err());
    }

    #[test]
    fn rejects_out_of_order_ids() {
        let json = "{\"name\":\"x\",\"tasks\":[{\"id\":1,\"duration\":1,\"deps\":[]}]}";
        assert!(trace_from_json(json).is_err());
    }
}
