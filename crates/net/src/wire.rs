//! A compact binary serde codec — the wire format of the simulated cluster.
//!
//! Everything that crosses a (simulated) network link is actually serialized
//! to bytes and parsed back on the far side, so marshalling costs are paid
//! exactly as they would be on a real cluster and message sizes can be
//! accounted against the latency model.
//!
//! Format (little-endian):
//! * `bool` → 1 byte; integers → fixed-width LE; floats → LE bits
//! * `str` / `bytes` / sequences / maps → `u64` length + contents
//! * `Option` → 1-byte tag + payload
//! * enum variants → `u32` index + payload
//! * structs / tuples → fields in order, no framing

use std::fmt;

use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};
use serde::ser::{self, Serialize};

/// Errors produced by the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Serialization-side failure (unsupported type or custom error).
    Encode(String),
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// Malformed input (bad tag, invalid UTF-8, trailing bytes...).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Encode(m) => write!(f, "encode error: {m}"),
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::Malformed(m) => write!(f, "malformed input: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl ser::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Encode(msg.to_string())
    }
}

impl de::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Malformed(msg.to_string())
    }
}

/// Serialize `value` to bytes.
///
/// # Errors
/// Returns [`WireError::Encode`] for unsupported shapes.
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut ser = Encoder { out: Vec::new() };
    value.serialize(&mut ser)?;
    Ok(ser.out)
}

/// Deserialize a value from `bytes`, requiring the full buffer be consumed.
///
/// # Errors
/// Returns [`WireError`] on malformed or trailing input.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, WireError> {
    let mut de = Decoder { input: bytes };
    let value = T::deserialize(&mut de)?;
    if !de.input.is_empty() {
        return Err(WireError::Malformed(format!("{} trailing bytes", de.input.len())));
    }
    Ok(value)
}

/// First byte of every request frame.
pub const HEADER_MAGIC: u8 = 0xC7;

/// Current request-header version.
pub const HEADER_VERSION: u8 = 2;

/// Length of the header payload: trace_id + budget + origin +
/// invocation_id + attempt.
const HEADER_LEN: usize = 8 + 8 + 1 + 8 + 4;

/// The out-of-band request envelope: per-invocation context carried ahead
/// of the serialized request body.
///
/// Layout: `magic (1) | version (1) | payload_len (u16 LE) | payload`,
/// the payload being `trace_id (u64 LE) | budget_nanos (u64 LE) | origin
/// (u8) | invocation_id (u64 LE) | attempt (u32 LE)`. Receivers skip
/// payload bytes beyond what they understand (`payload_len` is
/// authoritative), so future versions can append fields without breaking
/// old nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHeader {
    /// Sender's header version.
    pub version: u8,
    /// Trace identity of the invocation.
    pub trace_id: u64,
    /// Remaining deadline budget in nanoseconds (`u64::MAX` = none).
    pub budget_nanos: u64,
    /// Origin tag (see `lambda-telemetry`'s `Origin`).
    pub origin: u8,
    /// Client-assigned invocation identity, stable across retries of the
    /// same logical invocation (0 = unassigned, dedup disabled).
    pub invocation_id: u64,
    /// Retry ordinal of this delivery (0 = first attempt).
    pub attempt: u32,
}

impl RequestHeader {
    /// Serialize the header envelope (to be followed by the body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + HEADER_LEN);
        out.push(HEADER_MAGIC);
        out.push(self.version);
        out.extend_from_slice(&(HEADER_LEN as u16).to_le_bytes());
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.budget_nanos.to_le_bytes());
        out.push(self.origin);
        out.extend_from_slice(&self.invocation_id.to_le_bytes());
        out.extend_from_slice(&self.attempt.to_le_bytes());
        out
    }

    /// Serialize the header followed by `body` in one buffer.
    pub fn encode_with_body(&self, body: &[u8]) -> Vec<u8> {
        let mut out = self.encode();
        out.extend_from_slice(body);
        out
    }
}

/// Split a request frame into its header and the body. Payload bytes
/// beyond the fields this version knows are skipped.
///
/// # Errors
/// Returns [`WireError`] for frames that do not start with
/// [`HEADER_MAGIC`], are truncated mid-header, or declare a payload too
/// short to hold every header field.
pub fn split_header(bytes: &[u8]) -> Result<(RequestHeader, &[u8]), WireError> {
    match bytes.first() {
        None => return Err(WireError::UnexpectedEof),
        Some(&HEADER_MAGIC) => {}
        Some(b) => return Err(WireError::Malformed(format!("no request header: {b:#04x}"))),
    }
    if bytes.len() < 4 {
        return Err(WireError::UnexpectedEof);
    }
    let version = bytes[1];
    let payload_len = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
    let payload = bytes.get(4..4 + payload_len).ok_or(WireError::UnexpectedEof)?;
    if payload.len() < HEADER_LEN {
        return Err(WireError::Malformed(format!(
            "header payload too short: {} bytes",
            payload.len()
        )));
    }
    let header = RequestHeader {
        version,
        trace_id: u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes")),
        budget_nanos: u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes")),
        origin: payload[16],
        invocation_id: u64::from_le_bytes(payload[17..25].try_into().expect("8 bytes")),
        attempt: u32::from_le_bytes(payload[25..29].try_into().expect("4 bytes")),
    };
    Ok((header, &bytes[4 + payload_len..]))
}

struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    fn put_len(&mut self, len: usize) {
        self.out.extend_from_slice(&(len as u64).to_le_bytes());
    }
}

macro_rules! encode_fixed {
    ($fn:ident, $ty:ty) => {
        fn $fn(self, v: $ty) -> Result<(), WireError> {
            self.out.extend_from_slice(&v.to_le_bytes());
            Ok(())
        }
    };
}

impl ser::Serializer for &mut Encoder {
    type Ok = ();
    type Error = WireError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), WireError> {
        self.out.push(v as u8);
        Ok(())
    }
    encode_fixed!(serialize_i8, i8);
    encode_fixed!(serialize_i16, i16);
    encode_fixed!(serialize_i32, i32);
    encode_fixed!(serialize_i64, i64);
    encode_fixed!(serialize_u8, u8);
    encode_fixed!(serialize_u16, u16);
    encode_fixed!(serialize_u32, u32);
    encode_fixed!(serialize_u64, u64);
    encode_fixed!(serialize_f32, f32);
    encode_fixed!(serialize_f64, f64);

    fn serialize_char(self, v: char) -> Result<(), WireError> {
        self.serialize_u32(v as u32)
    }
    fn serialize_str(self, v: &str) -> Result<(), WireError> {
        self.put_len(v.len());
        self.out.extend_from_slice(v.as_bytes());
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), WireError> {
        self.put_len(v.len());
        self.out.extend_from_slice(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<(), WireError> {
        self.out.push(0);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), WireError> {
        self.out.push(1);
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), WireError> {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), WireError> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), WireError> {
        self.serialize_u32(variant_index)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        self.serialize_u32(variant_index)?;
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self, WireError> {
        let len = len.ok_or_else(|| WireError::Encode("sequence length required".into()))?;
        self.put_len(len);
        Ok(self)
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, WireError> {
        self.serialize_u32(variant_index)?;
        Ok(self)
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self, WireError> {
        let len = len.ok_or_else(|| WireError::Encode("map length required".into()))?;
        self.put_len(len);
        Ok(self)
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, WireError> {
        self.serialize_u32(variant_index)?;
        Ok(self)
    }
}

macro_rules! forward_compound {
    ($trait:path, $method:ident $(, $key:ident)?) => {
        impl $trait for &mut Encoder {
            type Ok = ();
            type Error = WireError;
            $(
                fn $key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), WireError> {
                    key.serialize(&mut **self)
                }
            )?
            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), WireError> {
                Ok(())
            }
        }
    };
}

forward_compound!(ser::SerializeSeq, serialize_element);
forward_compound!(ser::SerializeTuple, serialize_element);
forward_compound!(ser::SerializeTupleStruct, serialize_field);
forward_compound!(ser::SerializeTupleVariant, serialize_field);
forward_compound!(ser::SerializeMap, serialize_value, serialize_key);

impl ser::SerializeStruct for &mut Encoder {
    type Ok = ();
    type Error = WireError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for &mut Encoder {
    type Ok = ();
    type Error = WireError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

struct Decoder<'de> {
    input: &'de [u8],
}

impl<'de> Decoder<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], WireError> {
        if self.input.len() < n {
            return Err(WireError::UnexpectedEof);
        }
        let (head, rest) = self.input.split_at(n);
        self.input = rest;
        Ok(head)
    }

    fn take_len(&mut self) -> Result<usize, WireError> {
        let bytes = self.take(8)?;
        let len = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        if len > (1 << 40) {
            return Err(WireError::Malformed(format!("implausible length {len}")));
        }
        Ok(len as usize)
    }
}

macro_rules! decode_fixed {
    ($fn:ident, $visit:ident, $ty:ty, $n:expr) => {
        fn $fn<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
            let bytes = self.take($n)?;
            visitor.$visit(<$ty>::from_le_bytes(bytes.try_into().expect("fixed")))
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Decoder<'de> {
    type Error = WireError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::Malformed("wire format is not self-describing".into()))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            other => Err(WireError::Malformed(format!("bad bool tag {other}"))),
        }
    }

    decode_fixed!(deserialize_i8, visit_i8, i8, 1);
    decode_fixed!(deserialize_i16, visit_i16, i16, 2);
    decode_fixed!(deserialize_i32, visit_i32, i32, 4);
    decode_fixed!(deserialize_i64, visit_i64, i64, 8);
    decode_fixed!(deserialize_u8, visit_u8, u8, 1);
    decode_fixed!(deserialize_u16, visit_u16, u16, 2);
    decode_fixed!(deserialize_u32, visit_u32, u32, 4);
    decode_fixed!(deserialize_u64, visit_u64, u64, 8);
    decode_fixed!(deserialize_f32, visit_f32, f32, 4);
    decode_fixed!(deserialize_f64, visit_f64, f64, 8);

    fn deserialize_i128<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::Malformed("i128 unsupported".into()))
    }
    fn deserialize_u128<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::Malformed("u128 unsupported".into()))
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let bytes = self.take(4)?;
        let v = u32::from_le_bytes(bytes.try_into().expect("4"));
        let c =
            char::from_u32(v).ok_or_else(|| WireError::Malformed(format!("invalid char {v}")))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        let s = std::str::from_utf8(bytes)
            .map_err(|e| WireError::Malformed(format!("invalid utf-8: {e}")))?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        visitor.visit_borrowed_bytes(bytes)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            other => Err(WireError::Malformed(format!("bad option tag {other}"))),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.take_len()?;
        visitor.visit_seq(Counted { de: self, remaining: len })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(Counted { de: self, remaining: len })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.take_len()?;
        visitor.visit_map(Counted { de: self, remaining: len })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::Malformed("identifiers not supported".into()))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::Malformed("cannot skip unknown fields".into()))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct Counted<'a, 'de> {
    de: &'a mut Decoder<'de>,
    remaining: usize,
}

impl<'de> de::SeqAccess<'de> for Counted<'_, 'de> {
    type Error = WireError;
    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, WireError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'de> de::MapAccess<'de> for Counted<'_, 'de> {
    type Error = WireError;
    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, WireError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, WireError> {
        seed.deserialize(&mut *self.de)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut Decoder<'de>,
}

impl<'de> de::EnumAccess<'de> for EnumAccess<'_, 'de> {
    type Error = WireError;
    type Variant = Self;
    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), WireError> {
        let bytes = self.de.take(4)?;
        let idx = u32::from_le_bytes(bytes.try_into().expect("4"));
        let value = seed.deserialize(idx.into_deserializer())?;
        Ok((value, self))
    }
}

impl<'de> de::VariantAccess<'de> for EnumAccess<'_, 'de> {
    type Error = WireError;
    fn unit_variant(self) -> Result<(), WireError> {
        Ok(())
    }
    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, WireError> {
        seed.deserialize(self.de)
    }
    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, WireError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Inner {
        flag: bool,
        text: String,
        data: Vec<u8>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Kind {
        Empty,
        One(u64),
        Pair(i32, i32),
        Named { x: f64, label: String },
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Outer {
        id: u64,
        opt: Option<Inner>,
        kinds: Vec<Kind>,
        map: BTreeMap<String, i64>,
        tuple: (u8, u16, u32),
        ch: char,
    }

    fn sample() -> Outer {
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), -1);
        map.insert("b".to_string(), 42);
        Outer {
            id: 7,
            opt: Some(Inner { flag: true, text: "héllo".into(), data: vec![1, 2, 3] }),
            kinds: vec![
                Kind::Empty,
                Kind::One(99),
                Kind::Pair(-5, 5),
                Kind::Named { x: 2.5, label: "pi-ish".into() },
            ],
            map,
            tuple: (1, 2, 3),
            ch: 'λ',
        }
    }

    #[test]
    fn round_trip_complex_struct() {
        let v = sample();
        let bytes = to_bytes(&v).unwrap();
        let back: Outer = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn round_trip_primitives() {
        macro_rules! rt {
            ($v:expr, $t:ty) => {{
                let bytes = to_bytes(&$v).unwrap();
                let back: $t = from_bytes(&bytes).unwrap();
                assert_eq!(back, $v);
            }};
        }
        rt!(true, bool);
        rt!(0u8, u8);
        rt!(-123i64, i64);
        rt!(u64::MAX, u64);
        rt!(3.25f64, f64);
        rt!("string".to_string(), String);
        rt!(Vec::<u8>::new(), Vec<u8>);
        rt!(Some(5i32), Option<i32>);
        rt!(None::<i32>, Option<i32>);
        rt!((), ());
    }

    #[test]
    fn none_option_is_one_byte() {
        assert_eq!(to_bytes(&None::<u64>).unwrap().len(), 1);
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = to_bytes(&42u32).unwrap();
        bytes.push(0);
        assert!(matches!(from_bytes::<u32>(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = to_bytes(&sample()).unwrap();
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Outer>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_bad_bool_and_option_tags() {
        assert!(from_bytes::<bool>(&[7]).is_err());
        assert!(from_bytes::<Option<u8>>(&[9, 1]).is_err());
    }

    #[test]
    fn rejects_invalid_utf8() {
        // Length 1 + invalid continuation byte.
        let mut bytes = 1u64.to_le_bytes().to_vec();
        bytes.push(0xff);
        assert!(from_bytes::<String>(&bytes).is_err());
    }

    #[test]
    fn rejects_implausible_length() {
        let bytes = u64::MAX.to_le_bytes().to_vec();
        assert!(from_bytes::<String>(&bytes).is_err());
    }

    #[test]
    fn rejects_unknown_enum_variant() {
        let bytes = 200u32.to_le_bytes().to_vec();
        assert!(from_bytes::<Kind>(&bytes).is_err());
    }

    #[test]
    fn nested_empty_collections() {
        let v: Vec<Vec<String>> = vec![vec![], vec!["x".into()]];
        let back: Vec<Vec<String>> = from_bytes(&to_bytes(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn header_round_trip() {
        let h = RequestHeader {
            version: HEADER_VERSION,
            trace_id: 0xDEAD_BEEF,
            budget_nanos: 1_500_000,
            origin: 1,
            invocation_id: 0x1234_5678_9ABC_DEF0,
            attempt: 3,
        };
        let body = to_bytes(&sample()).unwrap();
        let frame = h.encode_with_body(&body);
        let (parsed, rest) = split_header(&frame).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(rest, &body[..]);
        let back: Outer = from_bytes(rest).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn unknown_trailing_header_bytes_are_tolerated() {
        // A future version-3 sender appends extra fields to the header
        // payload and bumps the declared length; a v2 receiver must skip
        // them while still parsing every field it knows.
        let h = RequestHeader {
            version: 3,
            trace_id: 42,
            budget_nanos: u64::MAX,
            origin: 0,
            invocation_id: 777,
            attempt: 2,
        };
        let body = to_bytes(&Kind::Pair(-1, 1)).unwrap();
        let extra = [0xAA, 0xBB, 0xCC, 0xDD];
        let mut frame = h.encode();
        // Rewrite the declared payload length to include the extra bytes.
        let len = u16::from_le_bytes([frame[2], frame[3]]) + extra.len() as u16;
        frame[2..4].copy_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&extra);
        frame.extend_from_slice(&body);

        let (parsed, rest) = split_header(&frame).unwrap();
        assert_eq!(parsed, h);
        let back: Kind = from_bytes(rest).unwrap();
        assert_eq!(back, Kind::Pair(-1, 1));
    }

    #[test]
    fn truncated_header_is_rejected() {
        let h = RequestHeader {
            version: HEADER_VERSION,
            trace_id: 1,
            budget_nanos: 2,
            origin: 0,
            invocation_id: 3,
            attempt: 1,
        };
        let frame = h.encode();
        for cut in 0..frame.len() {
            assert!(split_header(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn short_header_payload_is_malformed() {
        // Magic + version + declared length 4, but the header needs 29.
        let frame = [HEADER_MAGIC, 1, 4, 0, 1, 2, 3, 4];
        assert!(matches!(split_header(&frame), Err(WireError::Malformed(_))));

        // A 17-byte payload (trace_id + budget + origin, no invocation
        // identity) is too short as well, body or not.
        let mut frame = vec![HEADER_MAGIC, 1];
        frame.extend_from_slice(&17u16.to_le_bytes());
        frame.extend_from_slice(&99u64.to_le_bytes());
        frame.extend_from_slice(&u64::MAX.to_le_bytes());
        frame.push(0);
        frame.extend_from_slice(&to_bytes(&Kind::One(7)).unwrap());
        assert!(matches!(split_header(&frame), Err(WireError::Malformed(_))));
    }

    #[test]
    fn headerless_frames_are_malformed() {
        // A bare serialized body starts with a small enum variant index,
        // never the magic.
        let body = to_bytes(&Kind::One(7)).unwrap();
        assert_ne!(body[0], HEADER_MAGIC);
        assert!(matches!(split_header(&body), Err(WireError::Malformed(_))));
    }
}
