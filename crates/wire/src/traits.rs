//! The [`Encode`] / [`Decode`] traits and implementations for common types.
//!
//! Sequences (`Vec<T>`, `[T]`) write a varint length and then their
//! elements through [`Encode::encode_slice`] and [`Decode::decode_vec`].
//! Those default to one call per element; `u8` overrides both, so a byte
//! vector moves through the codec as one copy. The bytes on the wire, and
//! the error a truncated input gives, are the element loop's.

use std::collections::{BTreeMap, BTreeSet};

use crate::{Reader, WireError, Writer};

/// A value that can be written to the wire.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Number of bytes `self` occupies on the wire.
    ///
    /// The default implementation encodes into a scratch buffer; types with a
    /// cheaply computable size may override it.
    fn encoded_len(&self) -> usize {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.len()
    }

    /// Appends the encodings of `items`, in order: the body of a sequence,
    /// after its length prefix.
    ///
    /// The default encodes one element at a time. `u8` overrides it with
    /// one bulk copy, so byte vectors and slices cost one call, not one
    /// per byte; the bytes written are the same.
    fn encode_slice(items: &[Self], w: &mut Writer)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(w);
        }
    }
}

/// A value that can be read back from the wire.
pub trait Decode: Sized {
    /// Decodes a value from `r`, consuming exactly the bytes it wrote.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the input is truncated or malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decodes `len` consecutive elements: the body of a sequence whose
    /// length prefix declared `len`.
    ///
    /// The default decodes one element at a time and preallocates at most
    /// 1024 elements, so a declared length the input cannot back allocates
    /// little. `u8` overrides it with one bounds check and one copy, and
    /// fails exactly as the loop does.
    ///
    /// # Errors
    ///
    /// Returns the first element's [`WireError`].
    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Primitive integers
// ---------------------------------------------------------------------------

macro_rules! impl_fixed_int {
    ($ty:ty, $put:ident, $get:ident, $len:expr) => {
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn encoded_len(&self) -> usize {
                $len
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    };
}

impl_fixed_int!(u16, put_u16, get_u16, 2);
impl_fixed_int!(u32, put_u32, get_u32, 4);
impl_fixed_int!(u64, put_u64, get_u64, 8);
impl_fixed_int!(u128, put_u128, get_u128, 16);

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
    fn encode_slice(items: &[u8], w: &mut Writer) {
        w.put_bytes(items);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_u8()
    }
    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<u8>, WireError> {
        if r.remaining() < len {
            // The element loop would read every remaining byte, then fail
            // on the next one: leave the reader and the error as it would.
            r.get_bytes(r.remaining())?;
            return Err(WireError::UnexpectedEof {
                needed: 1,
                remaining: 0,
            });
        }
        Ok(r.get_bytes(len)?.to_vec())
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_uvarint(*self as u64);
    }
    fn encoded_len(&self) -> usize {
        crate::uvarint_len(*self as u64)
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = r.get_uvarint()?;
        usize::try_from(v).map_err(|_| WireError::LengthOverflow { declared: v })
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::InvalidBool(other)),
        }
    }
}

// ---------------------------------------------------------------------------
// Strings and byte containers
// ---------------------------------------------------------------------------

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_len_prefixed(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.get_len_prefixed()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

impl Encode for str {
    fn encode(&self, w: &mut Writer) {
        w.put_len_prefixed(self.as_bytes());
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
    fn encoded_len(&self) -> usize {
        N
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.get_bytes(N)?;
        let mut arr = [0u8; N];
        arr.copy_from_slice(bytes);
        Ok(arr)
    }
}

// ---------------------------------------------------------------------------
// Generic containers
// ---------------------------------------------------------------------------

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let declared = r.get_uvarint()?;
        let overflow = WireError::LengthOverflow { declared };
        if declared > crate::reader::MAX_FIELD_LEN {
            return Err(overflow);
        }
        T::decode_vec(r, usize::try_from(declared).map_err(|_| overflow)?)
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.put_uvarint(self.len() as u64);
        T::encode_slice(self, w);
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(WireError::InvalidDiscriminant {
                ty: "Option",
                value: u64::from(other),
            }),
        }
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.put_uvarint(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_uvarint()?;
        if len > crate::reader::MAX_FIELD_LEN {
            return Err(WireError::LengthOverflow { declared: len });
        }
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_uvarint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_uvarint()?;
        if len > crate::reader::MAX_FIELD_LEN {
            return Err(WireError::LengthOverflow { declared: len });
        }
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Tuples and references
// ---------------------------------------------------------------------------

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                $( self.$idx.encode(w); )+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(( $( $name::decode(r)?, )+ ))
            }
        }
    };
}

impl_tuple!(A: 0);
impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl Encode for () {
    fn encode(&self, _w: &mut Writer) {}
    fn encoded_len(&self) -> usize {
        0
    }
}

impl Decode for () {
    fn decode(_r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        assert_eq!(bytes.len(), value.encoded_len());
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u16::MAX);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(u128::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(usize::MAX);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u8>::new());
        round_trip(Some(9u64));
        round_trip(Option::<u64>::None);
        round_trip("héllo wörld".to_string());
        round_trip([7u8; 32]);
        round_trip((1u8, 2u16, 3u32, 4u64, true));
        let mut map = BTreeMap::new();
        map.insert(1u32, "a".to_string());
        map.insert(2u32, "b".to_string());
        round_trip(map);
        let set: BTreeSet<u16> = [5, 6, 7].into_iter().collect();
        round_trip(set);
    }

    #[test]
    fn invalid_bool_and_option_discriminants() {
        assert!(matches!(
            from_bytes::<bool>(&[2]),
            Err(WireError::InvalidBool(2))
        ));
        assert!(matches!(
            from_bytes::<Option<u8>>(&[3]),
            Err(WireError::InvalidDiscriminant { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_len_prefixed(&[0xFF, 0xFE]);
        assert!(matches!(
            from_bytes::<String>(&w.into_bytes()),
            Err(WireError::InvalidUtf8)
        ));
    }

    #[test]
    fn absurd_vec_length_rejected_without_allocation() {
        let mut w = Writer::new();
        w.put_uvarint(u64::MAX);
        assert!(matches!(
            from_bytes::<Vec<u64>>(&w.into_bytes()),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = (vec![1u64, 2, 3], "abc".to_string(), Some(false));
        assert_eq!(to_bytes(&v), to_bytes(&v.clone()));
    }
}
