//! Differential pin for the one-pass request decoder.
//!
//! `Request::parse` reads a line once through `JsonReader` and builds no
//! `Value` tree. The oracle below is the tree-walk decoder it replaced,
//! kept verbatim as test code over `parse_json`: every line of a seeded
//! corpus must give the oracle's `Ok(Request)` or its exact `Err(String)`.
//! The corpus holds `Request::to_line` for every verb and mutations of
//! those lines: reordered, duplicated and unknown keys, whitespace,
//! escaped characters, every member replaced by every type and by edge
//! numbers, every member removed, too many dependences, deep nesting, and
//! every truncation of the seed lines and of one in 64 of the others.
//!
//! Two fixes are the only allowed differences, each named where it is
//! allowed:
//! - `checkpoint` with a `tenant` that is present but not a string is
//!   refused. The tree walk read it as "every tenant".
//! - A `\u` escape takes exactly four hex digits, where the tree walk's
//!   tokenizer also took a sign. Both decoders share the tokenizer, so
//!   this one cannot show here; the `parse_json` table below pins it.

use picos_backend::BackendSpec;
use picos_serve::{Request, TenantSpec};
use picos_trace::rng::SplitMix64;
use picos_trace::{
    json_escape, parse_json, Dependence, Direction, KernelClass, TaskDescriptor, TaskId, Value,
    MAX_DEPS_PER_TASK, MAX_JSON_DEPTH,
};

/// The tree-walk decoder `Request::parse` used before the one-pass
/// reader, with the task decoder and helpers it called, unchanged.
mod oracle {
    use picos_serve::{Request, TenantSpec};
    use picos_trace::{parse_json, Dependence, Direction, JsonError, KernelClass, TaskDescriptor};
    use picos_trace::{TaskId, Value};

    fn bad(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }

    fn as_u64(v: &Value, what: &str) -> Result<u64, JsonError> {
        match v {
            Value::Int(n) => Ok(*n),
            _ => Err(bad(format!("{what} must be a non-negative integer"))),
        }
    }

    fn as_str<'v>(v: &'v Value, what: &str) -> Result<&'v str, JsonError> {
        match v {
            Value::Str(s) => Ok(s),
            _ => Err(bad(format!("{what} must be a string"))),
        }
    }

    fn as_arr<'v>(v: Option<&'v Value>, what: &str) -> Result<&'v [Value], JsonError> {
        match v {
            Some(Value::Arr(items)) => Ok(items),
            None => Err(bad(format!("missing field {what}"))),
            _ => Err(bad(format!("{what} must be an array"))),
        }
    }

    fn task_from_value(tv: &Value, i: usize) -> Result<TaskDescriptor, JsonError> {
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
        if deps.len() > picos_trace::MAX_DEPS_PER_TASK {
            return Err(bad(format!(
                "task {i} has {} dependences, hardware limit is {}",
                deps.len(),
                picos_trace::MAX_DEPS_PER_TASK
            )));
        }
        Ok(TaskDescriptor::new(
            TaskId::new(id as u32),
            KernelClass(kernel as u16),
            deps,
            duration,
        ))
    }

    pub fn parse(line: &str) -> Result<Request, String> {
        let v = parse_json(line).map_err(|e| format!("bad request JSON: {e}"))?;
        let obj = v.as_obj().ok_or("request must be a JSON object")?;
        let cmd = obj
            .get("cmd")
            .and_then(Value::as_string)
            .ok_or("request needs a \"cmd\" string")?;
        let tenant = || -> Result<String, String> {
            obj.get("tenant")
                .and_then(Value::as_string)
                .map(str::to_string)
                .ok_or_else(|| format!("\"{cmd}\" needs a \"tenant\" string"))
        };
        match cmd {
            "open" => {
                let spec = obj.get("spec").ok_or("\"open\" needs a \"spec\" object")?;
                Ok(Request::Open {
                    tenant: tenant()?,
                    spec: TenantSpec::from_value(spec)?,
                })
            }
            "submit" => {
                let task = obj
                    .get("task")
                    .ok_or("\"submit\" needs a \"task\" object")?;
                Ok(Request::Submit {
                    tenant: tenant()?,
                    task: task_from_value(task, 0).map_err(|e| format!("bad task: {e}"))?,
                })
            }
            "barrier" => Ok(Request::Barrier { tenant: tenant()? }),
            "advance" => {
                let cycle = obj
                    .get("cycle")
                    .and_then(Value::as_int)
                    .ok_or("\"advance\" needs an integer \"cycle\"")?;
                Ok(Request::Advance {
                    tenant: tenant()?,
                    cycle,
                })
            }
            "drain-events" => Ok(Request::DrainEvents { tenant: tenant()? }),
            "stats" => Ok(Request::Stats { tenant: tenant()? }),
            "scrape" => Ok(Request::Scrape),
            "checkpoint" => Ok(Request::Checkpoint {
                tenant: obj
                    .get("tenant")
                    .and_then(Value::as_string)
                    .map(str::to_string),
            }),
            "close" => Ok(Request::Close { tenant: tenant()? }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

/// A JSON document as the corpus builds it: unlike `Value`, an object
/// keeps its member order and duplicate keys, and a number keeps its text.
#[derive(Debug, Clone)]
enum Doc {
    /// A literal or number, as written.
    Raw(String),
    Str(String),
    Arr(Vec<Doc>),
    Obj(Vec<(String, Doc)>),
}

impl Doc {
    fn from_value(v: &Value) -> Doc {
        match v {
            Value::Null => Doc::Raw("null".into()),
            Value::Bool(b) => Doc::Raw(b.to_string()),
            Value::Int(n) => Doc::Raw(n.to_string()),
            Value::Num(x) => Doc::Raw(format!("{x:?}")),
            Value::Str(s) => Doc::Str(s.clone()),
            Value::Arr(items) => Doc::Arr(items.iter().map(Doc::from_value).collect()),
            Value::Obj(m) => Doc::Obj(
                m.iter()
                    .map(|(k, v)| (k.clone(), Doc::from_value(v)))
                    .collect(),
            ),
        }
    }

    fn parse(line: &str) -> Doc {
        Doc::from_value(&parse_json(line).expect("corpus seed parses"))
    }

    /// Nodes in preorder, this one included.
    fn count(&self) -> usize {
        1 + match self {
            Doc::Arr(items) => items.iter().map(Doc::count).sum(),
            Doc::Obj(members) => members.iter().map(|(_, v)| v.count()).sum(),
            _ => 0,
        }
    }

    /// Applies `f` to the `k`-th node in preorder.
    fn at(&mut self, k: &mut usize, f: &mut dyn FnMut(&mut Doc)) -> bool {
        if *k == 0 {
            f(self);
            return true;
        }
        *k -= 1;
        match self {
            Doc::Arr(items) => items.iter_mut().any(|c| c.at(k, f)),
            Doc::Obj(members) => members.iter_mut().any(|(_, c)| c.at(k, f)),
            _ => false,
        }
    }

    /// A copy of the `k`-th node in preorder.
    fn node(&self, k: usize) -> Doc {
        let mut found = Doc::Raw(String::new());
        self.clone().at(&mut { k }, &mut |n| found = n.clone());
        found
    }

    fn with_node(&self, k: usize, mut f: impl FnMut(&mut Doc)) -> Doc {
        let mut d = self.clone();
        d.at(&mut { k }, &mut f);
        d
    }

    fn render(&self, style: &mut Style) -> String {
        let mut out = String::new();
        self.write(style, &mut out);
        style.space(&mut out);
        out
    }

    fn write(&self, style: &mut Style, out: &mut String) {
        style.space(out);
        match self {
            Doc::Raw(t) => out.push_str(t),
            Doc::Str(s) => style.string(s, out),
            Doc::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        style.space(out);
                        out.push(',');
                    }
                    item.write(style, out);
                    style.space(out);
                }
                style.space(out);
                out.push(']');
            }
            Doc::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        style.space(out);
                        out.push(',');
                    }
                    style.space(out);
                    style.string(k, out);
                    style.space(out);
                    out.push(':');
                    v.write(style, out);
                    style.space(out);
                }
                style.space(out);
                out.push('}');
            }
        }
    }
}

/// How a `Doc` is written out: compact, or with random whitespace and
/// random characters of strings written as escapes.
struct Style {
    rng: Option<SplitMix64>,
}

impl Style {
    fn compact() -> Style {
        Style { rng: None }
    }

    fn noisy(seed: u64) -> Style {
        Style {
            rng: Some(SplitMix64::new(seed)),
        }
    }

    fn space(&mut self, out: &mut String) {
        if let Some(rng) = &mut self.rng {
            while rng.bool(0.2) {
                out.push([' ', '\t', '\n', '\r'][rng.below(4) as usize]);
            }
        }
    }

    fn string(&mut self, s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            let escape = self.rng.as_mut().is_some_and(|rng| rng.bool(0.3));
            match c {
                '"' | '\\' | '/' if escape => {
                    out.push('\\');
                    out.push(c);
                }
                c if escape && (c as u32) < 0x10000 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push_str(&json_escape(c.encode_utf8(&mut [0; 4]))),
            }
        }
        out.push('"');
    }
}

/// Values every member is replaced by: each JSON type, the number edges
/// of the integer slots (id, kernel, cycle, addr, workers, ...), and
/// command and direction names in the wrong places.
const SAMPLES: &[&str] = &[
    "null",
    "true",
    "false",
    "0",
    "7",
    "-1",
    "-0",
    "1.5",
    "1e3",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "\"\"",
    "\"x\"",
    "\"in\"",
    "\"submit\"",
    "\"checkpoint\"",
    "[]",
    "[1,\"a\"]",
    "{}",
    "{\"addr\":1,\"dir\":\"in\"}",
];

fn any_sample(rng: &mut SplitMix64) -> Doc {
    Doc::parse(SAMPLES[rng.below(SAMPLES.len() as u64) as usize])
}

/// A tenant name that needs escaping, or not.
fn name(rng: &mut SplitMix64) -> String {
    const NAMES: &[&str] = &[
        "t0",
        "a\"b",
        "back\\slash",
        "tab\tnl\n",
        "ü✓🎉",
        "\u{1}",
        "",
    ];
    NAMES[rng.below(NAMES.len() as u64) as usize].to_string()
}

fn task(rng: &mut SplitMix64, deps: usize) -> TaskDescriptor {
    let dirs = [Direction::In, Direction::Out, Direction::InOut];
    let addrs = [0, 64, 0x4000, 1 << 53, u64::MAX - 1, u64::MAX];
    let deps: Vec<Dependence> = (0..deps)
        .map(|j| {
            let addr = if j < addrs.len() && rng.bool(0.5) {
                addrs[j]
            } else {
                rng.next_u64()
            };
            Dependence::new(addr, dirs[rng.below(3) as usize])
        })
        .collect();
    let id = [0, 1, u32::MAX][rng.below(3) as usize];
    let kernel = [0, 3, u16::MAX][rng.below(3) as usize];
    TaskDescriptor::new(
        TaskId::new(id),
        KernelClass(kernel),
        deps,
        rng.range_u64(0, u64::MAX),
    )
}

/// `Request::to_line` of every verb, with varied names, specs and tasks.
fn seeds(rng: &mut SplitMix64) -> Vec<String> {
    let mut reqs = Vec::new();
    for backend in BackendSpec::ALL {
        let mut spec = TenantSpec::new(backend, rng.range_usize(1, 16));
        spec.window = rng.bool(0.5).then_some(64);
        spec.quota = rng.bool(0.5).then_some(8);
        spec.timeline_window = rng.bool(0.5).then_some(1024);
        spec.trace_spans = rng.bool(0.5);
        reqs.push(Request::Open {
            tenant: name(rng),
            spec,
        });
    }
    for deps in [0, 1, 3, MAX_DEPS_PER_TASK] {
        reqs.push(Request::Submit {
            tenant: name(rng),
            task: task(rng, deps),
        });
    }
    for cycle in [0, 4096, u64::MAX] {
        reqs.push(Request::Advance {
            tenant: name(rng),
            cycle,
        });
    }
    reqs.extend([
        Request::Barrier { tenant: name(rng) },
        Request::DrainEvents { tenant: name(rng) },
        Request::Stats { tenant: name(rng) },
        Request::Scrape,
        Request::Checkpoint { tenant: None },
        Request::Checkpoint {
            tenant: Some(name(rng)),
        },
        Request::Close { tenant: name(rng) },
        Request::Shutdown,
    ]);
    reqs.iter().map(Request::to_line).collect()
}

/// One random structural mutation somewhere in `doc`.
fn mutate(doc: &mut Doc, rng: &mut SplitMix64) {
    let k = rng.below(doc.count() as u64) as usize;
    let pick = rng.below(8);
    let extra = rng.next_u64();
    doc.at(&mut { k }, &mut |node: &mut Doc| {
        let mut rng = SplitMix64::new(extra);
        match (pick, node) {
            // Reorder the members of an object.
            (0, Doc::Obj(m)) if !m.is_empty() => {
                for i in (1..m.len()).rev() {
                    m.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            // Duplicate a member, the copy before or after it holding a
            // sample value or the same one.
            (1, Doc::Obj(m)) if !m.is_empty() => {
                let i = rng.below(m.len() as u64) as usize;
                let mut copy = m[i].clone();
                if rng.bool(0.7) {
                    copy.1 = any_sample(&mut rng);
                }
                let at = if rng.bool(0.5) { i } else { i + 1 };
                m.insert(at, copy);
            }
            // An unknown key.
            (2, Doc::Obj(m)) => {
                let v = any_sample(&mut rng);
                let at = rng.below(m.len() as u64 + 1) as usize;
                m.insert(at, ("unknown".into(), v));
            }
            // A missing member.
            (3, Doc::Obj(m)) if !m.is_empty() => {
                m.remove(rng.below(m.len() as u64) as usize);
            }
            // More items: past `MAX_DEPS_PER_TASK` on a dependence list.
            (4, Doc::Arr(items)) if !items.is_empty() => {
                let n = rng.range_usize(1, MAX_DEPS_PER_TASK + 2);
                for _ in 0..n {
                    let i = rng.below(items.len() as u64) as usize;
                    items.push(items[i].clone());
                }
            }
            // Nesting at and past the cap from here.
            (5, node) => {
                let levels = MAX_JSON_DEPTH - 2 + rng.below(4) as usize;
                for _ in 0..levels {
                    let inner = std::mem::replace(node, Doc::Raw(String::new()));
                    *node = if rng.bool(0.5) {
                        Doc::Arr(vec![inner])
                    } else {
                        Doc::Obj(vec![("n".into(), inner)])
                    };
                }
            }
            (_, node) => *node = any_sample(&mut rng),
        }
    });
}

/// The corpus: seeds, each member of each seed replaced by every sample
/// and removed, random stacks of mutations written compact or noisy, and
/// every truncation of the seeds and of a share of the mutants.
fn corpus(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed);
    let seeds = seeds(&mut rng);
    let mut lines = seeds.clone();
    for line in &seeds {
        let doc = Doc::parse(line);
        for k in 0..doc.count() {
            for s in SAMPLES {
                let v = Doc::parse(s);
                lines.push(
                    doc.with_node(k, |n| *n = v.clone())
                        .render(&mut Style::compact()),
                );
            }
            match doc.node(k) {
                // Each member missing in turn.
                Doc::Obj(members) => {
                    for i in 0..members.len() {
                        let removed = doc.with_node(k, |n| {
                            if let Doc::Obj(m) = n {
                                m.remove(i);
                            }
                        });
                        lines.push(removed.render(&mut Style::compact()));
                    }
                }
                // A list (of dependences) grown to just past
                // `MAX_DEPS_PER_TASK` and well past it.
                Doc::Arr(items) if !items.is_empty() => {
                    for len in [MAX_DEPS_PER_TASK + 1, MAX_DEPS_PER_TASK + 5] {
                        let grown: Vec<Doc> = items.iter().cycle().take(len).cloned().collect();
                        lines.push(
                            doc.with_node(k, |n| *n = Doc::Arr(grown.clone()))
                                .render(&mut Style::compact()),
                        );
                    }
                }
                _ => {}
            }
        }
        for round in 0..150 {
            let mut d = doc.clone();
            for _ in 0..rng.range_usize(1, 4) {
                mutate(&mut d, &mut rng);
            }
            let mut style = if round % 2 == 0 {
                Style::compact()
            } else {
                Style::noisy(rng.next_u64())
            };
            lines.push(d.render(&mut style));
        }
    }
    let truncated: Vec<String> = lines
        .iter()
        .enumerate()
        .filter(|(i, _)| *i < seeds.len() || i % 64 == 0)
        .flat_map(|(_, line)| {
            (0..line.len())
                .filter(|&k| line.is_char_boundary(k))
                .map(|k| line[..k].to_string())
        })
        .collect();
    lines.extend(truncated);
    lines.extend([
        "[".repeat(MAX_JSON_DEPTH + 1),
        "[".repeat(MAX_JSON_DEPTH) + &"]".repeat(MAX_JSON_DEPTH),
        "{\"cmd\":\"stats\",\"tenant\":\"a\"} {}".to_string(),
        "{\"c\\u006dd\":\"st\\u0061ts\",\"tenant\":\"\\u00fc\"}".to_string(),
        "{\"cmd\":\"checkpoint\",\"tenant\":\"\\u+041\"}".to_string(),
        "  ".to_string(),
        String::new(),
    ]);
    lines
}

/// The `checkpoint` fix: the line's last `tenant` is present but not a
/// string, which the tree walk read as "every tenant".
fn checkpoint_with_non_string_tenant(line: &str) -> bool {
    let Ok(Value::Obj(m)) = parse_json(line) else {
        return false;
    };
    m.get("cmd").and_then(Value::as_string) == Some("checkpoint")
        && m.get("tenant").is_some_and(|t| t.as_string().is_none())
}

#[test]
fn one_pass_decoder_matches_the_tree_walk() {
    let (mut lines, mut fixed, mut ok) = (0, 0, 0);
    let mut mismatches = Vec::new();
    for seed in [1, 2, 3] {
        for line in corpus(seed) {
            lines += 1;
            let got = Request::parse(&line);
            let want = oracle::parse(&line);
            ok += usize::from(want.is_ok());
            if checkpoint_with_non_string_tenant(&line) {
                fixed += 1;
                assert_eq!(want, Ok(Request::Checkpoint { tenant: None }), "{line}");
                assert_eq!(
                    got,
                    Err("\"checkpoint\" needs a \"tenant\" string".to_string()),
                    "{line}"
                );
            } else if got != want {
                mismatches.push(format!("{line:?}\n  got  {got:?}\n  want {want:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {lines} lines differ, first:\n{}",
        mismatches.len(),
        mismatches[..mismatches.len().min(5)].join("\n")
    );
    // The corpus reaches both outcomes and the fix.
    assert!(
        lines > 20_000 && ok > 1_000 && ok < lines / 2,
        "{ok} of {lines}"
    );
    assert!(fixed > 0);
}

/// `parse_json`'s exact results on tokenizer edge cases, message and
/// offset included, as the tokenizer before the pull reader gave them.
/// One row changed on purpose: a `\u` escape now needs four hex digits,
/// and `"\u+041"` used to read as `"A"`.
#[test]
fn tokenizer_edge_cases_are_pinned() {
    const TABLE: &[(&str, &str)] = &[
        (
            "\"abc",
            r#"Err(JsonError { message: "unterminated string", offset: 4 })"#,
        ),
        (
            "\"ab\\",
            r#"Err(JsonError { message: "unterminated escape", offset: 4 })"#,
        ),
        (
            "\"a\\qb\"",
            r#"Err(JsonError { message: "unknown escape", offset: 4 })"#,
        ),
        (
            "\"\\u12\"",
            r#"Err(JsonError { message: "invalid \\u escape", offset: 3 })"#,
        ),
        (
            "\"\\u12",
            r#"Err(JsonError { message: "invalid \\u escape", offset: 3 })"#,
        ),
        (
            "\"\\u004G\"",
            r#"Err(JsonError { message: "invalid \\u escape", offset: 3 })"#,
        ),
        (
            "\"\\u+041\"",
            r#"Err(JsonError { message: "invalid \\u escape", offset: 3 })"#,
        ),
        (
            "\"h\u{e9}llo \u{2713} \u{1f389}\"",
            "Ok(Str(\"h\u{e9}llo \u{2713} \u{1f389}\"))",
        ),
        ("\"a\u{1}b\"", r#"Ok(Str("a\u{1}b"))"#),
        ("\"\u{1f}\"", r#"Ok(Str("\u{1f}"))"#),
        (
            "\"\\u0041\\n\\t\\\"\\\\\\/\\b\\f\\r\"",
            r#"Ok(Str("A\n\t\"\\/\u{8}\u{c}\r"))"#,
        ),
        ("\"\\ud800\"", "Ok(Str(\"\u{fffd}\"))"),
        ("\"\\u00e9\"", "Ok(Str(\"\u{e9}\"))"),
        (
            "-",
            r#"Err(JsonError { message: "invalid number '-'", offset: 1 })"#,
        ),
        (
            "1-2",
            r#"Err(JsonError { message: "invalid number '1-2'", offset: 3 })"#,
        ),
        (
            "1e",
            r#"Err(JsonError { message: "invalid number '1e'", offset: 2 })"#,
        ),
        ("007", "Ok(Int(7))"),
        ("-0", "Ok(Num(-0.0))"),
        ("1.5", "Ok(Num(1.5))"),
        ("18446744073709551615", "Ok(Int(18446744073709551615))"),
        ("18446744073709551616", "Ok(Num(1.8446744073709552e19))"),
        ("1.", "Ok(Num(1.0))"),
        ("-.5", "Ok(Num(-0.5))"),
        ("1e400", "Ok(Num(inf))"),
        ("1E+2", "Ok(Num(100.0))"),
        ("01.5e-1", "Ok(Num(0.15))"),
        (
            "0x10",
            r#"Err(JsonError { message: "trailing characters after JSON value", offset: 1 })"#,
        ),
        (
            "+1",
            r#"Err(JsonError { message: "expected a JSON value", offset: 0 })"#,
        ),
        (
            "",
            r#"Err(JsonError { message: "expected a JSON value", offset: 0 })"#,
        ),
        (
            "   ",
            r#"Err(JsonError { message: "expected a JSON value", offset: 3 })"#,
        ),
        (
            "tru",
            r#"Err(JsonError { message: "expected 'true'", offset: 0 })"#,
        ),
        (
            "nul",
            r#"Err(JsonError { message: "expected 'null'", offset: 0 })"#,
        ),
        (
            "falsey",
            r#"Err(JsonError { message: "trailing characters after JSON value", offset: 5 })"#,
        ),
        (" 1 ", "Ok(Int(1))"),
        (
            "1 2",
            r#"Err(JsonError { message: "trailing characters after JSON value", offset: 2 })"#,
        ),
        (
            "[1,]",
            r#"Err(JsonError { message: "expected a JSON value", offset: 3 })"#,
        ),
        (
            "{\"a\":1,}",
            r#"Err(JsonError { message: "expected '\"'", offset: 7 })"#,
        ),
        (
            "{\"a\" 1}",
            r#"Err(JsonError { message: "expected ':'", offset: 5 })"#,
        ),
        (
            "{1:2}",
            r#"Err(JsonError { message: "expected '\"'", offset: 1 })"#,
        ),
        (
            "[1 2]",
            r#"Err(JsonError { message: "expected ',' or ']'", offset: 3 })"#,
        ),
        (
            "{\"a\":1 \"b\":2}",
            r#"Err(JsonError { message: "expected ',' or '}'", offset: 7 })"#,
        ),
        ("{\"a\":1,\"a\":2}", r#"Ok(Obj({"a": Int(2)}))"#),
        (
            "{\"k\":\"v\"",
            r#"Err(JsonError { message: "expected ',' or '}'", offset: 8 })"#,
        ),
        (
            "[",
            r#"Err(JsonError { message: "expected a JSON value", offset: 1 })"#,
        ),
        (
            "]",
            r#"Err(JsonError { message: "expected a JSON value", offset: 0 })"#,
        ),
        (
            "{}x",
            r#"Err(JsonError { message: "trailing characters after JSON value", offset: 2 })"#,
        ),
        ("{\"c\\u006dd\":\"x\"}", r#"Ok(Obj({"cmd": Str("x")}))"#),
    ];
    for (input, want) in TABLE {
        assert_eq!(&format!("{:?}", parse_json(input)), want, "{input:?}");
    }
}
