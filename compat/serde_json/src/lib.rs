//! Offline stand-in for `serde_json`.
//!
//! The build environment cannot fetch crates, so this crate implements the
//! subset of the `serde_json` surface the workspace uses — [`Value`],
//! [`Map`], [`Error`], [`json!`], [`to_string`], [`to_string_pretty`] and
//! [`from_str`] — on top of `std` alone. Because the real `serde` is equally
//! unavailable, serialization goes through the local [`ToJson`] / [`FromJson`]
//! traits instead of `Serialize` / `Deserialize`; types that previously
//! derived serde implement these by hand (the wire format is kept identical
//! to what the derives produced, so stored JSON keeps parsing).

// The `json!` array expansion builds a Vec then pushes into it; only this
// crate's own tests see the lint (expansions in dependent crates count as
// external macros and are exempt).
#![allow(clippy::vec_init_then_push)]

use std::collections::BTreeMap;
use std::fmt;

mod de;
mod ser;

pub use de::from_str;
pub use ser::{to_string, to_string_pretty};

/// Object type. A `BTreeMap` keeps key order deterministic, which the bench
/// harness relies on for stable `results/*.json` diffs. The (defaulted) type
/// parameters exist so call sites written for the real crate — e.g.
/// `collect::<serde_json::Map<_, _>>()` — compile unchanged.
pub type Map<K = String, V = Value> = BTreeMap<K, V>;

/// A parsed or constructed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Integers are kept exact rather than routed through f64 so counters
    /// round-trip and render without a trailing `.0`.
    Int(i64),
    Float(f64),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(f as i64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup mirroring `value["key"]` / `value.get("key")`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&ser::write_compact(self))
    }
}

/// Parse / serialize error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
    line: usize,
    column: usize,
}

impl Error {
    pub(crate) fn new(msg: impl Into<String>, line: usize, column: usize) -> Self {
        Error {
            msg: msg.into(),
            line,
            column,
        }
    }

    /// A position-less error, for `FromJson` implementations downstream.
    pub fn msg(msg: impl Into<String>) -> Self {
        Error::new(msg, 0, 0)
    }

    pub fn line(&self) -> usize {
        self.line
    }

    pub fn column(&self) -> usize {
        self.column
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{} at line {} column {}",
                self.msg, self.line, self.column
            )
        } else {
            f.write_str(&self.msg)
        }
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------------
// Conversions used by `json!` value positions.
// ---------------------------------------------------------------------------

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Int(v as i64)
            }
        }
        impl From<&$t> for Value {
            fn from(v: &$t) -> Self {
                Value::Int(*v as i64)
            }
        }
    )*};
}

impl_from_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&f64> for Value {
    fn from(v: &f64) -> Self {
        Value::Float(*v)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Float(v as f64)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Self {
        Value::String(v.clone())
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&Vec<T>> for Value {
    fn from(v: &Vec<T>) -> Self {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Self {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(v: [T; N]) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<A: Into<Value>, B: Into<Value>> From<(A, B)> for Value {
    fn from((a, b): (A, B)) -> Self {
        Value::Array(vec![a.into(), b.into()])
    }
}

impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::Object(m)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl FromIterator<(String, Value)> for Value {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Value::Object(iter.into_iter().collect())
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::Array(iter.into_iter().collect())
    }
}

// ---------------------------------------------------------------------------
// ToJson / FromJson: the local replacement for serde's Serialize/Deserialize.
// ---------------------------------------------------------------------------

/// Serialize to a [`Value`]. Stand-in for `serde::Serialize`.
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// Deserialize from a [`Value`]. Stand-in for `serde::Deserialize`.
pub trait FromJson: Sized {
    fn from_json(v: &Value) -> Result<Self, Error>;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            other => Err(Error::msg(format!("expected array, got {other}"))),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

macro_rules! impl_json_prim {
    ($($t:ty => $as:ident / $what:literal),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::from(*self)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, Error> {
                v.$as()
                    .and_then(|x| <$t>::try_from_json_num(x))
                    .ok_or_else(|| Error::msg(format!(concat!("expected ", $what, ", got {}"), v)))
            }
        }
    )*};
}

/// Narrowing helper so `FromJson` integer impls can share one macro.
trait TryFromJsonNum<Src>: Sized {
    fn try_from_json_num(src: Src) -> Option<Self>;
}

macro_rules! impl_narrow {
    ($($t:ty),*) => {$(
        impl TryFromJsonNum<i64> for $t {
            fn try_from_json_num(src: i64) -> Option<Self> {
                <$t>::try_from(src).ok()
            }
        }
    )*};
}

impl_narrow!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl TryFromJsonNum<f64> for f64 {
    fn try_from_json_num(src: f64) -> Option<Self> {
        Some(src)
    }
}

impl TryFromJsonNum<bool> for bool {
    fn try_from_json_num(src: bool) -> Option<Self> {
        Some(src)
    }
}

impl_json_prim!(
    i8 => as_i64 / "integer",
    i16 => as_i64 / "integer",
    i32 => as_i64 / "integer",
    i64 => as_i64 / "integer",
    u8 => as_i64 / "integer",
    u16 => as_i64 / "integer",
    u32 => as_i64 / "integer",
    u64 => as_i64 / "integer",
    usize => as_i64 / "integer",
    isize => as_i64 / "integer",
    f64 => as_f64 / "number",
    bool => as_bool / "bool"
);

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::msg(format!("expected string, got {v}")))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

// ---------------------------------------------------------------------------
// json! macro: a tt-muncher handling nested object/array literals with
// arbitrary expressions (including calls with internal commas) in value
// position.
// ---------------------------------------------------------------------------

#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => {
        $crate::json_internal!($($tt)+)
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => {{
        let mut array: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_array_items!(array; () $($tt)+);
        $crate::Value::Array(array)
    }};
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut object = $crate::Map::new();
        $crate::json_object_items!(object; $($tt)+);
        $crate::Value::Object(object)
    }};
    ($expr:expr) => { $crate::Value::from($expr) };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_object_items {
    ($obj:ident;) => {};
    ($obj:ident; $key:literal : $($rest:tt)+) => {
        $crate::json_object_value!($obj [$key] () $($rest)+);
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_object_value {
    // Value finished by a top-level comma.
    ($obj:ident [$key:literal] ($($val:tt)+) , $($rest:tt)*) => {
        $obj.insert($key.to_string(), $crate::json_internal!($($val)+));
        $crate::json_object_items!($obj; $($rest)*);
    };
    // Value runs to the end of input.
    ($obj:ident [$key:literal] ($($val:tt)+)) => {
        $obj.insert($key.to_string(), $crate::json_internal!($($val)+));
    };
    // Accumulate one token into the value.
    ($obj:ident [$key:literal] ($($val:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_object_value!($obj [$key] ($($val)* $next) $($rest)*);
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_array_items {
    ($arr:ident; ()) => {};
    ($arr:ident; ($($val:tt)+) , $($rest:tt)*) => {
        $arr.push($crate::json_internal!($($val)+));
        $crate::json_array_items!($arr; () $($rest)*);
    };
    ($arr:ident; ($($val:tt)+)) => {
        $arr.push($crate::json_internal!($($val)+));
    };
    ($arr:ident; ($($val:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_array_items!($arr; ($($val)* $next) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_shapes() {
        let n = 3usize;
        let v = json!({
            "int": n,
            "float": 1.5,
            "str": "hi",
            "call": format!("{}-{}", 1, 2),
            "nested": {"a": [1, 2, 3], "b": null},
            "arr": [{"x": 1.0}, {"x": 2.0}],
            "pairs": vec![(1.0, 2.0), (3.0, 4.0)],
            "flag": true,
        });
        let obj = v.as_object().unwrap();
        assert_eq!(obj["int"], Value::Int(3));
        assert_eq!(obj["call"], Value::String("1-2".into()));
        assert_eq!(obj["nested"].get("a").unwrap().as_array().unwrap().len(), 3);
        assert!(obj["nested"].get("b").unwrap().is_null());
        assert_eq!(obj["arr"].as_array().unwrap().len(), 2);
        assert_eq!(
            obj["pairs"].as_array().unwrap()[1],
            Value::Array(vec![Value::Float(3.0), Value::Float(4.0)])
        );
    }

    #[test]
    fn display_round_trips() {
        let v = json!({"a": [1, 2.5, "x"], "b": {"c": true}});
        let s = v.to_string();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_round_trips() {
        let v = json!([{"k": -1.25e-3}, null, [[]], "esc\"\n\t"]);
        let s = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = from_str::<Value>("{\"a\": }").unwrap_err();
        assert!(err.line() >= 1);
        assert!(err.to_string().contains("line"));
    }

    #[test]
    fn nesting_is_capped_at_the_recursion_limit() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let v: Value = from_str(&nested(de::MAX_DEPTH)).unwrap();
        assert!(v.as_array().is_some());
        let err = from_str::<Value>(&nested(de::MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Far past the cap the parser still errors instead of overflowing.
        assert!(from_str::<Value>(&"[{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn map_collect_compiles_like_serde_json() {
        let m: Map<_, _> = vec![("k".to_string(), Value::Int(1))].into_iter().collect();
        assert_eq!(json!({"k": 1}), Value::Object(m));
    }
}
