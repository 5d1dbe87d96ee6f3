//! Offline drop-in subset of the `serde` API.
//!
//! The build environment has no crates.io access, so this crate provides the
//! slice of serde this workspace uses: the `Serialize` trait and its derive
//! macro, re-exported from the local `serde_derive`. The format is fixed to
//! JSON. [`Serialize`] streams JSON text through a [`Writer`] into any
//! `fmt::Write` sink, so serializing a typed value builds no intermediate
//! tree. JSON is only ever read back as the owned [`Value`] tree that the
//! local `serde_json` parses; nothing decodes a typed value.
//!
//! The derive macro emits the same externally-tagged enum representation as
//! upstream serde's default, so JSON produced by this stack is shaped like
//! what real serde would produce for the types in this repository (plain
//! structs and enums, no `#[serde(...)]` attributes).

#![forbid(unsafe_code)]

use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

mod writer;
pub use writer::Writer;

/// An owned JSON-like data tree: what `serde_json` parses, and the form of
/// hand-built documents.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object, in insertion order.
    Map(Vec<(String, Value)>),
}

/// Serialization/deserialization error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Build an error from anything displayable.
    pub fn msg(m: impl std::fmt::Display) -> Self {
        Error(m.to_string())
    }
}

/// Types that can be written as JSON.
pub trait Serialize {
    /// Write `self` into `w`.
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result;
}

impl Serialize for Value {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::U64(n) => w.u64(*n),
            Value::I64(n) => w.i64(*n),
            Value::F64(f) => w.f64(*f),
            Value::Str(s) => w.str(s),
            Value::Seq(xs) => w.seq(xs),
            Value::Map(entries) => w.map(entries.iter().map(|(k, v)| (k.as_str(), v))),
        }
    }
}

// ----------------------------------------------------------------------
// Primitive impls
// ----------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result { w.u64(*self as u64) }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result { w.i64(*self as i64) }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result { w.f64(*self as f64) }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for bool {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.bool(*self)
    }
}

impl Serialize for char {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.str(self.encode_utf8(&mut [0; 4]))
    }
}

impl Serialize for String {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.str(self)
    }
}

impl Serialize for str {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.str(self)
    }
}

impl Serialize for std::time::Duration {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.begin_map()?;
        w.raw_key("\"secs\"")?;
        w.u64(self.as_secs())?;
        w.raw_key("\"nanos\"")?;
        w.u64(u64::from(self.subsec_nanos()))?;
        w.end_map()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        (**self).serialize(w)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        match self {
            Some(x) => x.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.seq(self)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.seq(self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.seq(self)
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.seq(self)
    }
}

/// Keys are written in sorted order, so the output does not depend on the
/// hasher's iteration order.
impl<V: Serialize, S> Serialize for std::collections::HashMap<String, V, S> {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        let mut entries: Vec<(&str, &V)> = self.iter().map(|(k, v)| (k.as_str(), v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        w.map(entries)
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.map(self.iter().map(|(k, v)| (k.as_str(), v)))
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+),)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
                w.begin_seq()?;
                $(w.elem()?; self.$n.serialize(w)?;)+
                w.end_seq()
            }
        }
    )*};
}
impl_tuple! {
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact<T: Serialize + ?Sized>(x: &T) -> String {
        let mut out = String::new();
        x.serialize(&mut Writer::compact(&mut out)).unwrap();
        out
    }

    #[test]
    fn writes_primitives() {
        assert_eq!(compact(&7u32), "7");
        assert_eq!(compact(&-3i64), "-3");
        assert_eq!(compact(&true), "true");
        assert_eq!(compact("hi"), "\"hi\"");
        assert_eq!(compact(&Option::<u8>::None), "null");
        assert_eq!(compact(&vec![1u8, 2, 3]), "[1,2,3]");
    }
}
