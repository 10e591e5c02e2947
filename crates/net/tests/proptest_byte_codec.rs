//! Property tests for the bulk byte codec: `Vec<u8>` fields, and the
//! `BTreeMap<PartyId, Vec<u8>>` views the committee and all-to-all
//! protocols encode, must encode and decode exactly as the element-wise
//! codec did (one `u8` call per byte), down to the error a truncated
//! input gives. Abort texts carry that error into trace digests, so the
//! reference below is the codec as it was.

use std::collections::BTreeMap;

use mpca_net::PartyId;
use mpca_wire::{from_bytes, to_bytes, Decode, Encode, Reader, WireError, Writer, MAX_FIELD_LEN};
use proptest::prelude::*;

/// The element-wise encoding of a byte vector: a varint length, then one
/// `u8` encode per byte.
fn encode_bytes_reference(bytes: &[u8], w: &mut Writer) {
    w.put_uvarint(bytes.len() as u64);
    for byte in bytes {
        byte.encode(w);
    }
}

/// The element-wise decoding of a byte vector: one `u8` decode per byte,
/// preallocating at most 1024.
fn decode_bytes_reference(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
    let len = r.get_uvarint()?;
    if len > MAX_FIELD_LEN {
        return Err(WireError::LengthOverflow { declared: len });
    }
    let mut out = Vec::with_capacity(len.min(1024) as usize);
    for _ in 0..len {
        out.push(u8::decode(r)?);
    }
    Ok(out)
}

fn encode_view_reference(view: &BTreeMap<PartyId, Vec<u8>>) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_uvarint(view.len() as u64);
    for (party, bytes) in view {
        party.encode(&mut w);
        encode_bytes_reference(bytes, &mut w);
    }
    w.into_bytes()
}

fn decode_view_reference(r: &mut Reader<'_>) -> Result<BTreeMap<PartyId, Vec<u8>>, WireError> {
    let len = r.get_uvarint()?;
    if len > MAX_FIELD_LEN {
        return Err(WireError::LengthOverflow { declared: len });
    }
    let mut view = BTreeMap::new();
    for _ in 0..len {
        let party = PartyId::decode(r)?;
        view.insert(party, decode_bytes_reference(r)?);
    }
    Ok(view)
}

/// Decodes `bytes` with `decode` and reports the result with the reader's
/// position afterwards, so a bulk decode that stops elsewhere shows.
fn decode_at<T>(
    bytes: &[u8],
    decode: impl Fn(&mut Reader<'_>) -> Result<T, WireError>,
) -> (Result<T, WireError>, usize) {
    let mut r = Reader::new(bytes);
    let result = decode(&mut r);
    (result, r.position())
}

/// Every prefix of `encoded`, and the whole of it, decodes through the
/// codec exactly as through the reference.
fn assert_truncations_agree<T: Decode + PartialEq + std::fmt::Debug>(
    encoded: &[u8],
    reference: impl Fn(&mut Reader<'_>) -> Result<T, WireError>,
) {
    for cut in 0..=encoded.len() {
        let prefix = &encoded[..cut];
        assert_eq!(
            decode_at(prefix, T::decode),
            decode_at(prefix, &reference),
            "prefix of {cut} of {} bytes",
            encoded.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Byte vectors encode to the reference bytes, decode to the same
    /// value, and fail at every truncation point with the reference error.
    #[test]
    fn byte_vectors_match_the_elementwise_codec(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let mut w = Writer::new();
        encode_bytes_reference(&bytes, &mut w);
        let encoded = w.into_bytes();
        prop_assert_eq!(&to_bytes(&bytes), &encoded);
        prop_assert_eq!(&to_bytes(bytes.as_slice()), &encoded);
        prop_assert_eq!(from_bytes::<Vec<u8>>(&encoded), Ok(bytes.clone()));
        assert_truncations_agree::<Vec<u8>>(&encoded, decode_bytes_reference);
    }

    /// A declared length past the end of the input, a few bytes past or
    /// beyond `MAX_FIELD_LEN`, fails as the reference does.
    #[test]
    fn overlong_declared_lengths_match_the_elementwise_codec(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        near in 1u64..64,
        far in 64u64..(1 << 40),
    ) {
        for extra in [near, far] {
            let mut w = Writer::new();
            w.put_uvarint(bytes.len() as u64 + extra);
            w.put_bytes(&bytes);
            let encoded = w.into_bytes();
            prop_assert_eq!(
                decode_at(&encoded, Vec::<u8>::decode),
                decode_at(&encoded, decode_bytes_reference)
            );
        }
    }

    /// Party-indexed views of byte vectors encode to the reference bytes,
    /// decode to the same map, and fail at every truncation point with the
    /// reference error.
    #[test]
    fn views_match_the_elementwise_codec(
        entries in proptest::collection::btree_map(
            0usize..300,
            proptest::collection::vec(any::<u8>(), 0..160),
            0..12,
        ),
    ) {
        let view: BTreeMap<PartyId, Vec<u8>> =
            entries.into_iter().map(|(i, bytes)| (PartyId(i), bytes)).collect();
        let encoded = encode_view_reference(&view);
        prop_assert_eq!(&to_bytes(&view), &encoded);
        prop_assert_eq!(from_bytes::<BTreeMap<PartyId, Vec<u8>>>(&encoded), Ok(view.clone()));
        assert_truncations_agree::<BTreeMap<PartyId, Vec<u8>>>(&encoded, decode_view_reference);
    }
}

/// The error a short byte vector gives is the element loop's: one byte
/// needed, none remaining, with every remaining byte consumed.
#[test]
fn a_short_byte_vector_fails_like_the_element_loop() {
    let encoded = [5u8, 1, 2, 3];
    let (result, position) = decode_at(&encoded, Vec::<u8>::decode);
    assert_eq!(
        result,
        Err(WireError::UnexpectedEof {
            needed: 1,
            remaining: 0
        })
    );
    assert_eq!(position, encoded.len());
}
