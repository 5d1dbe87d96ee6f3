//! Offline drop-in subset of the `serde` API.
//!
//! The build environment has no crates.io access, so this crate provides the
//! slice of serde this workspace uses: the `Serialize` / `Deserialize`
//! traits and their derive macros, re-exported from the local
//! `serde_derive`. The format is fixed to JSON. [`Serialize`] streams JSON
//! text through a [`Writer`] into any `fmt::Write` sink, so serializing a
//! typed value builds no intermediate tree. [`Deserialize`] rebuilds values
//! from the owned [`Value`] tree that the local `serde_json` parses.
//!
//! The derive macros emit the same externally-tagged enum representation as
//! upstream serde's default, so JSON produced by this stack is shaped like
//! what real serde would produce for the types in this repository (plain
//! structs and enums, no `#[serde(...)]` attributes).

#![forbid(unsafe_code)]

use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

mod writer;
pub use writer::Writer;

/// An owned JSON-like data tree: what `serde_json` parses and
/// [`Deserialize`] impls read, and the form of hand-built documents.
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

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuild from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Fetch a field from an object value; used by derived impls.
pub fn get_field<'a>(map: &'a [(String, Value)], key: &str) -> Result<&'a Value, Error> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| Error(format!("missing field `{key}`")))
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

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
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
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::U64(n) => n,
                    Value::I64(n) if n >= 0 => n as u64,
                    Value::F64(f) if f >= 0.0 && f.fract() == 0.0 => f as u64,
                    _ => return Err(Error(format!("expected unsigned integer, got {v:?}"))),
                };
                <$t>::try_from(n).map_err(|_| Error(format!("integer {n} out of range")))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result { w.i64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::I64(n) => n,
                    Value::U64(n) => i64::try_from(n)
                        .map_err(|_| Error(format!("integer {n} out of range")))?,
                    Value::F64(f) if f.fract() == 0.0 => f as i64,
                    _ => return Err(Error(format!("expected integer, got {v:?}"))),
                };
                <$t>::try_from(n).map_err(|_| Error(format!("integer {n} out of range")))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result { w.f64(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match *v {
                    Value::F64(f) => Ok(f as $t),
                    Value::U64(n) => Ok(n as $t),
                    Value::I64(n) => Ok(n as $t),
                    _ => Err(Error(format!("expected number, got {v:?}"))),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for bool {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error(format!("expected bool, got {v:?}"))),
        }
    }
}

impl Serialize for char {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.str(self.encode_utf8(&mut [0; 4]))
    }
}
impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error(format!("expected single-char string, got {v:?}"))),
        }
    }
}

impl Serialize for String {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.str(self)
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error(format!("expected string, got {v:?}"))),
        }
    }
}

impl Serialize for str {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.str(self)
    }
}

/// Exists so `#[derive(Deserialize)]` compiles on catalog structs holding
/// `&'static str` fields. Deserializing one **leaks** the string; the
/// workspace only ever serializes such types at runtime.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(&*Box::leak(s.clone().into_boxed_str())),
            _ => Err(Error(format!("expected string, got {v:?}"))),
        }
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
impl Deserialize for std::time::Duration {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => {
                let secs = u64::from_value(get_field(m, "secs")?)?;
                let nanos = u32::from_value(get_field(m, "nanos")?)?;
                Ok(std::time::Duration::new(secs, nanos))
            }
            _ => Err(Error(format!("expected duration object, got {v:?}"))),
        }
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
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.seq(self)
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(xs) => xs.iter().map(T::from_value).collect(),
            _ => Err(Error(format!("expected array, got {v:?}"))),
        }
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
impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(Into::into)
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
impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(Error(format!("expected object, got {v:?}"))),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn serialize<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.map(self.iter().map(|(k, v)| (k.as_str(), v)))
    }
}
impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(Error(format!("expected object, got {v:?}"))),
        }
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
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Seq(xs) => Ok(($($t::from_value(
                        xs.get($n).ok_or_else(|| Error("tuple too short".into()))?
                    )?,)+)),
                    _ => Err(Error(format!("expected tuple array, got {v:?}"))),
                }
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

    #[test]
    fn rebuilds_primitives_from_values() {
        assert_eq!(u32::from_value(&Value::U64(7)).unwrap(), 7);
        assert_eq!(i64::from_value(&Value::I64(-3)).unwrap(), -3);
        assert!(bool::from_value(&Value::Bool(true)).unwrap());
        assert_eq!(String::from_value(&Value::Str("hi".into())).unwrap(), "hi");
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Vec::<u8>::from_value(&Value::Seq(vec![Value::U64(1), Value::U64(2)])).unwrap(),
            vec![1, 2]
        );
    }

    #[test]
    fn missing_field_reports_name() {
        let err = get_field(&[], "x").unwrap_err();
        assert!(err.0.contains("`x`"));
    }
}
