//! Snapshot state codec: compact positional encoding over the in-tree
//! JSON [`Value`].
//!
//! Every engine in the workspace is a deterministic state machine; the
//! snapshot subsystem serializes their *dynamic* state (clocks, queues,
//! tables, telemetry cursors) so a freshly built, identically configured
//! session can be overwritten into a bit-exact copy of a live one.
//! Config-derived structure (wheel dimensions, FIFO capacities, unit
//! counts) is deliberately *not* encoded — the restoring side rebuilds it
//! from the same config, and a [`guard`] fingerprint rejects mismatches.
//!
//! Each snapshotted type has one codec, a [`Snap`] impl whose
//! [`Snap::put`] and [`Snap::take`] follow a single field list. Plain
//! records declare that list once with [`snap_record!`](crate::snap_record),
//! which generates both directions through an exhaustive destructure, so
//! a field added to the struct but not to the list is a compile error;
//! fieldless enums list their variant codes once with
//! [`snap_code!`](crate::snap_code).
//! Positions follow one layout rule:
//!
//! * a *scalar* ([`Snap::SCALAR`]: integer, bool, string, packed
//!   reference, enum code) is one bare slot;
//! * a *record* puts its fields inline, in list order;
//! * inside a container (`Vec`, `VecDeque`, `Arc<[T]>`, `Option`) a
//!   non-scalar element is wrapped in its own array ([`Enc::nest`]) and a
//!   scalar stays bare;
//! * a sub-state restored in place is nested as one slot.
//!
//! Types rebuilt from their config and overwritten in place (engine
//! units, links, sessions) keep `save_state`/`load_state` instead of a
//! `Snap` impl. Their `save_state` opens with an exhaustive
//! `let Self { .. } = self;` that names config and scratch fields as
//! `field: _`, so a new field is a compile error until it is either put
//! or explicitly skipped; their `load_state` reads recorded config facts
//! back with [`Dec::guard`].
//!
//! Integers narrow with one rule: a slot that does not fit the target
//! type is a [`SnapError`], never a wrapped value.
//!
//! All numbers ride [`Value::Int`], which keeps full 64-bit values exact
//! (the JSON parser never routes integers through `f64`).

use crate::json::{json_escape, parse_json, JsonError, Value};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Error from decoding a snapshot: a malformed document, a field of the
/// wrong shape, or a config fingerprint mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// Human-readable description of the first problem encountered.
    pub message: String,
}

impl SnapError {
    /// A new error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        SnapError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot: {}", self.message)
    }
}

impl std::error::Error for SnapError {}

impl From<JsonError> for SnapError {
    fn from(e: JsonError) -> Self {
        SnapError::new(e.to_string())
    }
}

// ---------------------------------------------------------------- rendering

/// Renders a [`Value`] tree as compact JSON text — the inverse of
/// [`parse_json`], shared by every snapshot writer.
pub fn render_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Num(n) => out.push_str(&format!("{n}")),
        Value::Str(s) => {
            out.push('"');
            out.push_str(&json_escape(s));
            out.push('"');
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&json_escape(k));
                out.push_str("\":");
                render_value(item, out);
            }
            out.push('}');
        }
    }
}

/// Renders a [`Value`] to an owned JSON string.
pub fn value_to_json(v: &Value) -> String {
    let mut out = String::new();
    render_value(v, &mut out);
    out
}

/// Parses a snapshot document (JSON text) back into a [`Value`].
///
/// # Errors
///
/// Returns [`SnapError`] on malformed JSON.
pub fn value_from_json(s: &str) -> Result<Value, SnapError> {
    Ok(parse_json(s)?)
}

/// Checks a config fingerprint (or shape, or attachment flag) recorded at
/// save time against the value the restoring side derives from its own
/// config. Restore overwrites dynamic
/// state only — structure must match, and a silent mismatch would corrupt
/// the session instead of erroring.
///
/// # Errors
///
/// Returns [`SnapError`] naming the guard on mismatch.
pub fn guard<T: PartialEq + fmt::Debug>(name: &str, expected: T, got: T) -> Result<(), SnapError> {
    if expected == got {
        Ok(())
    } else {
        Err(SnapError::new(format!(
            "config mismatch on {name}: snapshot has {expected:?}, session has {got:?}"
        )))
    }
}

// -------------------------------------------------------------------- codec

/// One type's snapshot codec: [`Snap::put`] appends the value's slots to a
/// record and [`Snap::take`] reads them back in the same order.
///
/// Records implement it with [`snap_record!`](crate::snap_record); enums
/// and types with load-time checks write the two directions by hand,
/// opening `put` with an exhaustive destructure.
pub trait Snap: Sized {
    /// Whether the value is one bare slot (integer, bool, string, packed
    /// reference, enum code). Containers wrap non-scalar elements in their
    /// own array and leave scalars bare.
    const SCALAR: bool = false;

    /// Appends the value's slots to `e`.
    fn put(&self, e: &mut Enc);

    /// Reads the value back from the slots [`Snap::put`] wrote.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on exhaustion, a slot of the wrong shape, an
    /// out-of-range integer or an unknown enum code.
    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError>;
}

/// Implements [`Snap`] for a struct from its field list, in encoding
/// order. Both directions come from the one list: `put` destructures the
/// struct exhaustively and `take` rebuilds it with every field, so a field
/// missing from the list fails to compile. One type parameter is allowed
/// (`snap_record!(LinkEv<T> { at, seq, msg })`), bounded by `Snap`.
///
/// ```
/// use picos_trace::snap::{Dec, Enc};
/// use picos_trace::snap_record;
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: u64,
///     y: u32,
/// }
/// snap_record!(Point { y, x });
///
/// let mut e = Enc::new();
/// e.put(&Point { x: 7, y: 2 });
/// let v = e.done();
/// assert_eq!(picos_trace::snap::value_to_json(&v), "[2,7]");
/// let back: Point = Dec::new(&v, "point").unwrap().take().unwrap();
/// assert_eq!(back, Point { x: 7, y: 2 });
/// ```
///
/// Leaving a field off the list is rejected at compile time:
///
/// ```compile_fail
/// use picos_trace::snap_record;
///
/// struct Point {
///     x: u64,
///     y: u32,
/// }
/// snap_record!(Point { x });
/// ```
#[macro_export]
macro_rules! snap_record {
    ($ty:ident $(<$p:ident>)? { $($f:ident),+ $(,)? }) => {
        impl$(<$p: $crate::snap::Snap>)? $crate::snap::Snap for $ty$(<$p>)? {
            #[inline]
            fn put(&self, e: &mut $crate::snap::Enc) {
                let $ty { $($f),+ } = self;
                $(e.put($f);)+
            }

            #[inline]
            fn take(
                d: &mut $crate::snap::Dec<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                $(let $f = d.take()?;)+
                Ok($ty { $($f),+ })
            }
        }
    };
}

/// Implements [`Snap`] for a fieldless enum as one scalar code per
/// variant, listed once: `snap_code!(Direction { In = 0, Out = 1 })`.
/// An unknown code decodes to a [`SnapError`].
#[macro_export]
macro_rules! snap_code {
    ($ty:ident { $($v:ident = $c:literal),+ $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            const SCALAR: bool = true;

            #[inline]
            fn put(&self, e: &mut $crate::snap::Enc) {
                e.put(&match self {
                    $($ty::$v => $c as u64,)+
                });
            }

            #[inline]
            fn take(
                d: &mut $crate::snap::Dec<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                match d.u64()? {
                    $($c => Ok($ty::$v),)+
                    other => Err($crate::snap::SnapError::new(format!(
                        concat!("unknown ", stringify!($ty), " code {}"),
                        other
                    ))),
                }
            }
        }
    };
}

// ------------------------------------------------------------------ encoder

/// Positional record encoder: [`Enc::put`] values in field order, take the
/// resulting [`Value::Arr`] with [`Enc::done`].
#[derive(Debug, Default)]
pub struct Enc {
    items: Vec<Value>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Appends a value's slots ([`Snap::put`]).
    #[inline]
    pub fn put<T: Snap>(&mut self, v: &T) -> &mut Self {
        v.put(self);
        self
    }

    /// Appends a value as one slot: a record wrapped in its own array, the
    /// form of a container element and of a sub-state nested in a session.
    #[inline]
    pub fn nest<T: Snap>(&mut self, v: &T) -> &mut Self {
        let mut sub = Enc::new();
        v.put(&mut sub);
        self.items.push(Value::Arr(sub.items));
        self
    }

    /// Appends a sequence as one array slot, wrapping non-scalar elements
    /// and leaving scalars bare (the container rule). Takes borrowed
    /// elements so sorted or partial views encode without copies; read it
    /// back as a `Vec<T>`.
    pub fn seq<'a, T: Snap + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>) -> &mut Self {
        let items = items.into_iter();
        let mut sub = Enc {
            items: Vec::with_capacity(items.size_hint().0),
        };
        for v in items {
            if T::SCALAR {
                v.put(&mut sub);
            } else {
                sub.nest(v);
            }
        }
        self.items.push(Value::Arr(sub.items));
        self
    }

    /// Appends `(key, value)` entries as one array of `[key, value...]`
    /// records — a sorted view of a map or a sparse table. Read it back as
    /// a `Vec<(K, V)>`.
    pub fn pairs<'a, K: Snap, V: Snap + 'a>(
        &mut self,
        items: impl IntoIterator<Item = (K, &'a V)>,
    ) -> &mut Self {
        let sub = items
            .into_iter()
            .map(|(k, v)| {
                let mut e = Enc::new();
                e.put(&k).put(v);
                Value::Arr(e.items)
            })
            .collect();
        self.items.push(Value::Arr(sub));
        self
    }

    /// Appends an already-encoded slot (a nested sub-state).
    #[inline]
    pub fn val(&mut self, v: Value) -> &mut Self {
        self.items.push(v);
        self
    }

    /// The encoded positional array.
    pub fn done(self) -> Value {
        Value::Arr(self.items)
    }
}

// ------------------------------------------------------------------ decoder

/// Positional record decoder: [`Dec::take`] values in the order [`Enc`]
/// put them. Every read consumes slots; running past the end or hitting
/// the wrong shape errors with the record label.
#[derive(Debug)]
pub struct Dec<'a> {
    items: &'a [Value],
    at: usize,
    what: &'a str,
}

impl<'a> Dec<'a> {
    /// Opens a positional record.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when `v` is not an array.
    pub fn new(v: &'a Value, what: &'a str) -> Result<Self, SnapError> {
        match v.as_array() {
            Some(items) => Ok(Dec { items, at: 0, what }),
            None => Err(SnapError::new(format!("{what}: expected a record array"))),
        }
    }

    /// Reads a value ([`Snap::take`]).
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on exhaustion or a malformed value.
    #[inline]
    pub fn take<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::take(self)
    }

    /// Reads a value written by [`Enc::nest`]: one slot holding the record
    /// as its own array.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when the slot is not an array or the record
    /// inside is malformed.
    #[inline]
    pub fn nest<T: Snap>(&mut self) -> Result<T, SnapError> {
        let items = self.array()?;
        T::take(&mut Dec {
            items,
            at: 0,
            what: self.what,
        })
    }

    /// Reads a raw [`Value`] slot (a nested sub-state).
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when the record is exhausted.
    #[inline]
    pub fn val(&mut self) -> Result<&'a Value, SnapError> {
        let v = self
            .items
            .get(self.at)
            .ok_or_else(|| SnapError::new(format!("{}: record too short", self.what)))?;
        self.at += 1;
        Ok(v)
    }

    /// Reads a config fact recorded at save time (a fingerprint, a shape,
    /// an attachment flag) and [`guard`]s it against the restoring side's.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed slot or a mismatch.
    pub fn guard<T: Snap + PartialEq + fmt::Debug>(
        &mut self,
        name: &str,
        got: T,
    ) -> Result<(), SnapError> {
        let expected = self.take()?;
        guard(name, expected, got)
    }

    /// Restores a per-unit table in place from one array slot holding one
    /// sub-state per unit; `name` guards the unit count.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when the slot is not an array, its length is
    /// not `units.len()`, or `load` fails on any unit.
    pub fn each<T>(
        &mut self,
        units: &mut [T],
        name: &str,
        mut load: impl FnMut(&mut T, &Value) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let states = self.array()?;
        guard(name, states.len(), units.len())?;
        units
            .iter_mut()
            .zip(states)
            .try_for_each(|(u, v)| load(u, v))
    }

    /// Reads a `u64` slot.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on exhaustion or a non-integer slot.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        match self.val()? {
            Value::Int(n) => Ok(*n),
            _ => self.type_err("an integer"),
        }
    }

    /// Error for an integer slot that does not fit `ty`.
    fn range_err(&self, v: u64, ty: &str) -> SnapError {
        SnapError::new(format!(
            "{}: field {} value {v} out of range for {ty}",
            self.what,
            self.at - 1
        ))
    }

    fn type_err<T>(&self, want: &str) -> Result<T, SnapError> {
        Err(SnapError::new(format!(
            "{}: field {} is not {want}",
            self.what,
            self.at - 1
        )))
    }

    /// Reads an array slot's elements.
    fn array(&mut self) -> Result<&'a [Value], SnapError> {
        match self.val()? {
            Value::Arr(items) => Ok(items),
            _ => self.type_err("an array"),
        }
    }

    /// Reads a sequence written by [`Enc::seq`].
    fn elems<T: Snap>(&mut self) -> Result<Vec<T>, SnapError> {
        let items = self.array()?;
        let mut sub = Dec {
            items,
            at: 0,
            what: self.what,
        };
        let mut out = Vec::with_capacity(items.len());
        while sub.at < items.len() {
            out.push(if T::SCALAR {
                T::take(&mut sub)?
            } else {
                sub.nest()?
            });
        }
        Ok(out)
    }
}

// --------------------------------------------------------------- primitives

/// Integers ride one `u64` slot; narrower types narrow back checked.
macro_rules! snap_int {
    ($($t:ty),+) => {$(
        impl Snap for $t {
            const SCALAR: bool = true;

            #[inline]
            fn put(&self, e: &mut Enc) {
                e.items.push(Value::Int(*self as u64));
            }

            #[inline]
            fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
                let v = d.u64()?;
                <$t>::try_from(v).map_err(|_| d.range_err(v, stringify!($t)))
            }
        }
    )+};
}

snap_int!(u8, u16, u32, u64, usize);

impl Snap for bool {
    const SCALAR: bool = true;

    #[inline]
    fn put(&self, e: &mut Enc) {
        e.items.push(Value::Bool(*self));
    }

    #[inline]
    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        match d.val()? {
            Value::Bool(b) => Ok(*b),
            _ => d.type_err("a bool"),
        }
    }
}

impl Snap for String {
    const SCALAR: bool = true;

    fn put(&self, e: &mut Enc) {
        e.items.push(Value::Str(self.clone()));
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        match d.val()? {
            Value::Str(s) => Ok(s.clone()),
            _ => d.type_err("a string"),
        }
    }
}

/// `None` is `null`; `Some` follows the container rule.
impl<T: Snap> Snap for Option<T> {
    #[inline]
    fn put(&self, e: &mut Enc) {
        match self {
            None => {
                e.items.push(Value::Null);
            }
            Some(v) if T::SCALAR => v.put(e),
            Some(v) => {
                e.nest(v);
            }
        }
    }

    #[inline]
    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        if let Some(Value::Null) = d.items.get(d.at) {
            d.at += 1;
            return Ok(None);
        }
        if T::SCALAR {
            T::take(d).map(Some)
        } else {
            d.nest().map(Some)
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn put(&self, e: &mut Enc) {
        e.seq(self);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        d.elems()
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn put(&self, e: &mut Enc) {
        e.seq(self);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        d.elems().map(VecDeque::from)
    }
}

impl<T: Snap> Snap for Arc<[T]> {
    fn put(&self, e: &mut Enc) {
        e.seq(self.iter());
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        d.elems::<T>().map(Arc::from)
    }
}

/// Tuples are records: their components go inline, in order.
macro_rules! snap_tuple {
    ($($t:ident $v:ident),+) => {
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            #[inline]
            fn put(&self, e: &mut Enc) {
                let ($($v,)+) = self;
                $(e.put($v);)+
            }

            #[inline]
            fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
                Ok(($(d.take::<$t>()?,)+))
            }
        }
    };
}

snap_tuple!(A a, B b);
snap_tuple!(A a, B b, C c);
snap_tuple!(A a, B b, C c, D d);

#[cfg(test)]
mod tests {
    use super::*;

    fn record<T: Snap>(v: &T) -> Value {
        let mut e = Enc::new();
        e.put(v);
        e.done()
    }

    #[test]
    fn render_roundtrips_through_the_parser() {
        let mut e = Enc::new();
        e.put(&u64::MAX)
            .put(&true)
            .put(&"we\"ird\n".to_string())
            .put(&None::<u64>)
            .put(&Some(7u64))
            .put(&vec![1u64, 2, 3])
            .put(&vec![(4u64, true), (5, false)]);
        let v = Value::Obj(
            [
                ("version".to_string(), Value::Int(1)),
                ("state".to_string(), e.done()),
            ]
            .into_iter()
            .collect(),
        );
        let text = value_to_json(&v);
        let back = value_from_json(&text).unwrap();
        assert_eq!(v, back, "exact tree roundtrip, u64::MAX kept exact");
    }

    #[test]
    fn decoder_reads_fields_in_order() {
        let mut e = Enc::new();
        e.put(&9u64)
            .put(&false)
            .put(&"x".to_string())
            .put(&vec![3u32, 4]);
        let v = e.done();
        let mut d = Dec::new(&v, "t").unwrap();
        assert_eq!(d.take::<u64>().unwrap(), 9);
        assert!(!d.take::<bool>().unwrap());
        assert_eq!(d.take::<String>().unwrap(), "x");
        assert_eq!(d.take::<Vec<u32>>().unwrap(), vec![3, 4]);
        let err = d.take::<u64>().unwrap_err();
        assert!(err.message.contains("record too short"), "{err}");
    }

    #[test]
    fn decoder_errors_name_the_record() {
        let v = Value::Arr(vec![Value::Bool(true)]);
        let mut d = Dec::new(&v, "wheel").unwrap();
        let err = d.take::<u64>().unwrap_err();
        assert!(err.message.contains("wheel"), "{err}");
        let err = d.take::<u64>().unwrap_err();
        assert!(err.message.contains("record too short"), "{err}");
    }

    #[test]
    fn narrowing_is_checked_not_wrapped() {
        for (v, ok) in [(255u64, true), (256, false)] {
            let doc = Value::Arr(vec![Value::Int(v)]);
            let got = Dec::new(&doc, "n").unwrap().take::<u8>();
            assert_eq!(got.is_ok(), ok, "u8 <- {v}");
        }
        let doc = Value::Arr(vec![Value::Int(65536)]);
        let err = Dec::new(&doc, "n").unwrap().take::<u16>().unwrap_err();
        assert!(err.message.contains("out of range for u16"), "{err}");
        let doc = Value::Arr(vec![Value::Int(u64::from(u32::MAX) + 1)]);
        assert!(Dec::new(&doc, "n").unwrap().take::<u32>().is_err());
        let doc = Value::Arr(vec![Value::Arr(vec![Value::Int(1), Value::Int(300)])]);
        assert!(Dec::new(&doc, "n").unwrap().take::<Vec<u8>>().is_err());
    }

    #[test]
    fn layout_rule_wraps_records_but_not_scalars() {
        // Scalars stay bare in containers; records (tuples here) are
        // wrapped; a record's own fields go inline.
        let v = record(&(
            vec![1u32, 2],
            vec![(3u64, true)],
            Some((4u64, 5u64)),
            None::<u64>,
        ));
        assert_eq!(value_to_json(&v), "[[1,2],[[3,true]],[4,5],null]");
        type Doc = (Vec<u32>, Vec<(u64, bool)>, Option<(u64, u64)>, Option<u64>);
        let back: Doc = Dec::new(&v, "t").unwrap().take().unwrap();
        assert_eq!(back, (vec![1, 2], vec![(3, true)], Some((4, 5)), None));
        // A sequence of sequences wraps each inner sequence.
        let nested = record(&vec![vec![1u64], vec![]]);
        assert_eq!(value_to_json(&nested), "[[[[1]],[[]]]]");
        let mut e = Enc::new();
        e.pairs([(7u64, &vec![8u32])]);
        assert_eq!(value_to_json(&e.done()), "[[[7,[8]]]]");
    }

    #[test]
    fn guard_rejects_config_mismatch() {
        assert!(guard("workers", 4, 4).is_ok());
        let err = guard("workers", 4, 8).unwrap_err();
        assert!(err.message.contains("workers"), "{err}");
    }
}
