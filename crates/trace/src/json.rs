//! Hand-rolled JSON: the workspace's one reader ([`JsonReader`]) and the
//! encoding for [`Trace`].
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

use crate::task::{Dependence, Direction, KernelClass, TaskDescriptor, TaskId, MAX_DEPS_PER_TASK};
use crate::trace::Trace;
use std::borrow::Cow;
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

/// Deepest array/object nesting a [`JsonReader`] accepts. The reader
/// recurses once per level, so without a cap one line of `[`s overflows
/// the stack and aborts the process; past the cap it returns a
/// [`JsonError`] instead. In-tree documents stay far below it (a 4-shard
/// cluster snapshot nests 10 levels, a trace file 5).
pub const MAX_JSON_DEPTH: usize = 128;

/// A pull reader over one JSON document: the workspace's only JSON
/// tokenizer and grammar.
///
/// [`parse_json`] is [`value`](JsonReader::value) then
/// [`end`](JsonReader::end). A typed decoder walks the document member by
/// member instead and builds no [`Value`] tree: the serve wire protocol
/// decodes requests this way, and [`TaskFields::read`] decodes a task
/// object.
///
/// Each reading method consumes exactly one JSON value at the current
/// position, after any whitespace. Errors carry the byte offset where the
/// problem was found. After an error the reader is spent.
#[derive(Debug)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        JsonReader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// The first byte of the next value (or delimiter), skipping
    /// whitespace and consuming nothing else; `None` at the end of the
    /// input. A typed decoder uses it to tell a value's type before
    /// choosing how to read it.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    /// Reads one value of any type into a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at the first malformed byte.
    pub fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|r, key| {
                    let v = r.value()?;
                    map.insert(key.into_owned(), v);
                    Ok(())
                })?;
                Ok(Value::Obj(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Consumes the `[` or `{` that opens a value one level deeper,
    /// refusing to pass [`MAX_JSON_DEPTH`].
    fn open(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() != Some(b) {
            return self.err(format!("expected '{}'", b as char));
        }
        if self.depth == MAX_JSON_DEPTH {
            return self.err(format!("nesting deeper than {MAX_JSON_DEPTH} levels"));
        }
        self.pos += 1;
        self.depth += 1;
        Ok(())
    }

    /// Consumes the `]` or `}` of the innermost open value if it is next.
    fn close(&mut self, b: u8) -> bool {
        if self.peek() != Some(b) {
            return false;
        }
        self.pos += 1;
        self.depth -= 1;
        true
    }

    /// Reads one object, calling `member` with each key in document order.
    /// `member` must read exactly that member's value. A key that appears
    /// twice is passed twice; a decoder that keeps the last value agrees
    /// with [`Value::Obj`].
    ///
    /// # Errors
    ///
    /// Returns the first error of the syntax or of `member`.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.open(b'{')?;
        if self.close(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, key)?;
            if self.close(b'}') {
                return Ok(());
            }
            if self.peek() != Some(b',') {
                return self.err("expected ',' or '}'");
            }
            self.pos += 1;
        }
    }

    /// Reads one array, calling `item` once per element, which it must
    /// read.
    ///
    /// # Errors
    ///
    /// Returns the first error of the syntax or of `item`.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.open(b'[')?;
        if self.close(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.close(b']') {
                return Ok(());
            }
            if self.peek() != Some(b',') {
                return self.err("expected ',' or ']'");
            }
            self.pos += 1;
        }
    }

    /// Reads one string. The result borrows the input unless the string
    /// contains escapes; each unescaped run is copied as one slice.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the next value is not a well-formed
    /// string.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            let Some(n) = text.as_bytes()[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = text.len();
                return self.err("unterminated string");
            };
            // Both stop bytes are ASCII, so `run + n` is a char boundary.
            let piece = &text[run..run + n];
            self.pos = run + n + 1;
            if text.as_bytes()[run + n] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(piece),
                    Some(mut s) => {
                        s.push_str(piece);
                        Cow::Owned(s)
                    }
                });
            }
            let c = self.escape()?;
            let s = owned.get_or_insert_with(String::new);
            s.push_str(piece);
            s.push(c);
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(&e) = self.text.as_bytes().get(self.pos) else {
            return self.err("unterminated escape");
        };
        self.pos += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                // Exactly four hex digits: `from_str_radix` alone would
                // also take a sign.
                let code = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok());
                let Some(code) = code else {
                    return self.err("invalid \\u escape");
                };
                self.pos += 4;
                // Surrogate pairs are not needed for trace names; map lone
                // surrogates to the replacement char.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return self.err("unknown escape"),
        })
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            self.err(format!("expected '{text}'"))
        }
    }

    /// Reads a number. A plain digit run is accumulated as it is scanned;
    /// a sign, fraction, exponent or `u64` overflow falls back to parsing
    /// the scanned text, which keeps `Int` exact and sends the rest to
    /// `f64`.
    fn number(&mut self) -> Result<Value, JsonError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut exact = Some(0u64);
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
            exact = None;
        }
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {
                    exact = exact.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(b - b'0')));
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => exact = None,
                _ => break,
            }
            self.pos += 1;
        }
        if let Some(n) = exact {
            return Ok(Value::Int(n));
        }
        let text = &self.text[start..self.pos];
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => self.err(format!("invalid number '{text}'")),
        }
    }

    /// Checks that only whitespace follows the value read.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at the first trailing character.
    pub fn end(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return self.err("trailing characters after JSON value");
        }
        Ok(())
    }
}

/// Parses one complete JSON document into a [`Value`] tree: a
/// [`JsonReader`]'s `value()` then `end()`.
///
/// The reader is the workspace's only JSON reader (the build environment
/// has no `serde`), so every in-tree JSON emitter — trace files, the
/// session journal, the Perfetto span export — validates its output
/// through this entry. Rejects trailing characters after the document and
/// nesting deeper than [`MAX_JSON_DEPTH`].
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first malformed byte.
pub fn parse_json(s: &str) -> Result<Value, JsonError> {
    let mut r = JsonReader::new(s);
    let v = r.value()?;
    r.end()?;
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

/// One member of an object as a decoder's checks see it.
#[derive(Debug, Clone)]
enum Member<T> {
    /// The key is absent.
    Missing,
    /// The key's value has the wrong type.
    Wrong,
    /// The key's value, of the right type.
    Is(T),
}

impl<T> Member<T> {
    fn get(self, missing: &str, wrong: &str) -> Result<T, JsonError> {
        match self {
            Member::Missing => Err(bad(missing)),
            Member::Wrong => Err(bad(wrong)),
            Member::Is(v) => Ok(v),
        }
    }
}

fn int_member(v: Option<&Value>) -> Member<u64> {
    match v {
        None => Member::Missing,
        Some(Value::Int(n)) => Member::Is(*n),
        Some(_) => Member::Wrong,
    }
}

/// A task object's members as read, before the task checks run.
///
/// Both task decoders fill one: [`task_from_value`] from a parsed tree
/// (journals, trace files) and [`TaskFields::read`] straight from a
/// [`JsonReader`] (the serve wire protocol). So the checks, their order
/// and their messages exist once, in [`TaskFields::check`]. A key that
/// appears twice keeps its last value, as in a parsed object.
#[derive(Debug, Clone)]
pub struct TaskFields {
    /// The task's position, `i` in "task {i} ..." messages.
    i: usize,
    /// Whether the value was an object; every other member is `Missing`
    /// when it was not.
    object: bool,
    id: Member<u64>,
    kernel: Member<u64>,
    duration: Member<u64>,
    /// The dependences, or the first one that failed its checks.
    deps: Member<Result<Vec<Dependence>, JsonError>>,
}

impl TaskFields {
    fn new(i: usize, object: bool) -> TaskFields {
        TaskFields {
            i,
            object,
            id: Member::Missing,
            kernel: Member::Missing,
            duration: Member::Missing,
            deps: Member::Missing,
        }
    }

    fn from_value(tv: &Value, i: usize) -> TaskFields {
        let Value::Obj(t) = tv else {
            return TaskFields::new(i, false);
        };
        let deps = match t.get("deps") {
            None => Member::Missing,
            Some(Value::Arr(items)) => Member::Is(
                items
                    .iter()
                    .map(|d| {
                        let fields = d.as_obj().map(|d| {
                            let dir = match d.get("dir") {
                                None => Member::Missing,
                                Some(Value::Str(s)) => Member::Is(Cow::Borrowed(s.as_str())),
                                Some(_) => Member::Wrong,
                            };
                            (int_member(d.get("addr")), dir)
                        });
                        dependence(fields, i)
                    })
                    .collect(),
            ),
            Some(_) => Member::Wrong,
        };
        TaskFields {
            i,
            object: true,
            id: int_member(t.get("id")),
            kernel: int_member(t.get("kernel")),
            duration: int_member(t.get("duration")),
            deps,
        }
    }

    /// Reads one value of any type as task `i`. A value that is not a
    /// task object still reads; [`TaskFields::check`] reports it.
    ///
    /// # Errors
    ///
    /// Only malformed JSON.
    pub fn read(r: &mut JsonReader<'_>, i: usize) -> Result<TaskFields, JsonError> {
        if r.peek() != Some(b'{') {
            r.value()?;
            return Ok(TaskFields::new(i, false));
        }
        let mut t = TaskFields::new(i, true);
        r.object(|r, key| {
            match &*key {
                "id" => t.id = int_member(Some(&r.value()?)),
                "kernel" => t.kernel = int_member(Some(&r.value()?)),
                "duration" => t.duration = int_member(Some(&r.value()?)),
                "deps" if r.peek() == Some(b'[') => {
                    let mut deps = Ok(Vec::new());
                    r.array(|r| {
                        let d = read_dependence(r, i)?;
                        if let Ok(list) = &mut deps {
                            match d {
                                Ok(d) => list.push(d),
                                Err(e) => deps = Err(e),
                            }
                        }
                        Ok(())
                    })?;
                    t.deps = Member::Is(deps);
                }
                "deps" => {
                    r.value()?;
                    t.deps = Member::Wrong;
                }
                _ => {
                    r.value()?;
                }
            }
            Ok(())
        })?;
        Ok(t)
    }

    /// Runs the task checks in order and builds the task.
    ///
    /// # Errors
    ///
    /// Returns the first failed check: not an object, a missing or
    /// mistyped member, an id past 32 bits or a kernel past 16, a bad
    /// dependence, or more than [`MAX_DEPS_PER_TASK`] dependences.
    pub fn check(self) -> Result<TaskDescriptor, JsonError> {
        let i = self.i;
        if !self.object {
            return Err(bad(format!("task {i} must be an object")));
        }
        let id = self
            .id
            .get("task missing id", "task id must be a non-negative integer")?;
        if id > u32::MAX as u64 {
            return Err(bad(format!("task {i} id {id} exceeds 32 bits")));
        }
        let kernel = match self.kernel {
            Member::Missing => 0,
            Member::Wrong => return Err(bad("task kernel must be a non-negative integer")),
            Member::Is(k) => k,
        };
        if kernel > u16::MAX as u64 {
            return Err(bad(format!("task {i} kernel {kernel} out of range")));
        }
        let duration = self.duration.get(
            "task missing duration",
            "task duration must be a non-negative integer",
        )?;
        // The outer error is the list's type, the inner its first bad
        // dependence.
        let deps = self
            .deps
            .get("missing field task deps", "task deps must be an array")??;
        if deps.len() > MAX_DEPS_PER_TASK {
            return Err(bad(format!(
                "task {i} has {} dependences, hardware limit is {MAX_DEPS_PER_TASK}",
                deps.len(),
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
}

/// Reads one dependence of task `i`; the inner result is its checks'.
fn read_dependence(
    r: &mut JsonReader<'_>,
    i: usize,
) -> Result<Result<Dependence, JsonError>, JsonError> {
    if r.peek() != Some(b'{') {
        r.value()?;
        return Ok(dependence(None, i));
    }
    let (mut addr, mut dir) = (Member::Missing, Member::Missing);
    r.object(|r, key| {
        match &*key {
            "addr" => addr = int_member(Some(&r.value()?)),
            "dir" if r.peek() == Some(b'"') => dir = Member::Is(r.string()?),
            "dir" => {
                r.value()?;
                dir = Member::Wrong;
            }
            _ => {
                r.value()?;
            }
        }
        Ok(())
    })?;
    Ok(dependence(Some((addr, dir)), i))
}

/// The checks of one dependence of task `i`, given its `addr` and `dir`
/// members, or `None` if it is not an object.
fn dependence(
    fields: Option<(Member<u64>, Member<Cow<'_, str>>)>,
    i: usize,
) -> Result<Dependence, JsonError> {
    let Some((addr, dir)) = fields else {
        return Err(bad(format!("dependence of task {i} must be an object")));
    };
    let addr = addr.get(
        "dep missing addr",
        "dep addr must be a non-negative integer",
    )?;
    let dir = match &*dir.get("dep missing dir", "dep dir must be a string")? {
        "in" => Direction::In,
        "out" => Direction::Out,
        "inout" => Direction::InOut,
        other => return Err(bad(format!("unknown dependence direction '{other}'"))),
    };
    Ok(Dependence::new(addr, dir))
}

/// Decodes one task descriptor from its parsed JSON object. `i` labels
/// errors ("task {i} ..."); the caller checks id ordering and kernel-table
/// bounds where those constraints apply.
pub fn task_from_value(tv: &Value, i: usize) -> Result<TaskDescriptor, JsonError> {
    TaskFields::from_value(tv, i).check()
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
    fn unicode_escape_takes_exactly_four_hex_digits() {
        assert_eq!(parse_json(r#""\u0041\u00e9""#), Ok(Value::Str("Aé".into())));
        // A sign is not a hex digit, though `from_str_radix` accepts one.
        for doc in [r#""\u+041""#, r#""\u-041""#, r#""\u004G""#, r#""\u12""#] {
            let err = parse_json(doc).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                ("invalid \\u escape", 3)
            );
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
