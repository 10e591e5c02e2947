//! # mpca-wire
//!
//! A small, dependency-free, deterministic wire format.
//!
//! Communication complexity is the central quantity measured by this
//! repository: the number of **bits** sent by honest parties while following
//! the protocol (see §3.1 of the paper). To make that number well defined,
//! every message exchanged by a protocol is encoded through this crate before
//! it enters the network simulator, and the simulator charges exactly
//! `8 * encoded_len` bits per envelope payload.
//!
//! The format is intentionally simple and canonical:
//!
//! * fixed-width little-endian encodings for fixed-size integers,
//! * LEB128-style varints for lengths and ids,
//! * length-prefixed byte strings and sequences,
//! * no padding, no alignment, no versioning overhead.
//!
//! # Example
//!
//! ```
//! use mpca_wire::{Decode, Encode, Reader, Writer};
//!
//! # fn main() -> Result<(), mpca_wire::WireError> {
//! let mut w = Writer::new();
//! 42u64.encode(&mut w);
//! "hello".to_string().encode(&mut w);
//! let bytes = w.into_bytes();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(u64::decode(&mut r)?, 42);
//! assert_eq!(String::decode(&mut r)?, "hello");
//! r.finish()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod frame;
mod reader;
mod traits;
mod varint;
mod writer;

pub use error::WireError;
pub use frame::{Frame, FrameField, FrameReader, TAMPER_MASK};
pub use reader::Reader;
pub use reader::MAX_FIELD_LEN;
pub use traits::{Decode, Encode};
pub use varint::{decode_uvarint, encode_uvarint, uvarint_len, MAX_VARINT_LEN};
pub use writer::Writer;

/// Encodes a value into a fresh byte vector.
///
/// This is a convenience wrapper around [`Writer`].
///
/// ```
/// let bytes = mpca_wire::to_bytes(&(1u32, 2u32));
/// assert_eq!(bytes.len(), 8);
/// ```
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value from a byte slice, requiring that the slice is consumed
/// exactly.
///
/// # Errors
///
/// Returns [`WireError`] if the bytes are malformed or if trailing bytes
/// remain after decoding.
///
/// ```
/// let bytes = mpca_wire::to_bytes(&7u16);
/// let v: u16 = mpca_wire::from_bytes(&bytes).unwrap();
/// assert_eq!(v, 7);
/// ```
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Returns the number of bytes `value` occupies on the wire.
///
/// ```
/// assert_eq!(mpca_wire::encoded_len(&0u8), 1);
/// assert_eq!(mpca_wire::encoded_len(&vec![0u8; 10]), 11);
/// ```
pub fn encoded_len<T: Encode + ?Sized>(value: &T) -> usize {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_helpers() {
        let v = vec![1u64, 2, 3];
        let bytes = to_bytes(&v);
        let back: Vec<u64> = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
        assert_eq!(encoded_len(&v), bytes.len());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&5u8);
        bytes.push(0);
        assert!(from_bytes::<u8>(&bytes).is_err());
    }
}
