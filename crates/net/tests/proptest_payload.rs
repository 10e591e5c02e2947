//! Property tests for the zero-copy [`Payload`] type: its wire behaviour
//! must be indistinguishable, byte for byte, from the `Vec<u8>` payloads it
//! replaced — otherwise the refactor would move the paper's communication
//! numbers.

use mpca_net::Payload;
use proptest::prelude::*;

proptest! {
    /// A `Payload` encodes to exactly the bytes `Vec<u8>` encodes to, reports
    /// the same `encoded_len`, and round-trips through either decoder.
    #[test]
    fn wire_round_trip_matches_vec_u8(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let payload = Payload::from(bytes.clone());
        let from_payload = mpca_wire::to_bytes(&payload);
        let from_vec = mpca_wire::to_bytes(&bytes);
        prop_assert_eq!(&from_payload, &from_vec);
        prop_assert_eq!(mpca_wire::encoded_len(&payload), mpca_wire::encoded_len(&bytes));

        let payload_back: Payload = mpca_wire::from_bytes(&from_vec).expect("payload decode");
        prop_assert_eq!(&payload_back, &bytes);
        let vec_back: Vec<u8> = mpca_wire::from_bytes(&from_payload).expect("vec decode");
        prop_assert_eq!(&vec_back, &bytes);
    }

    /// Subslicing a payload agrees with slicing the underlying bytes, and
    /// never re-materialises the buffer.
    #[test]
    fn subslicing_matches_slice_semantics(
        bytes in proptest::collection::vec(any::<u8>(), 1..512),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
    ) {
        let lo = cut_a % (bytes.len() + 1);
        let hi = lo + (cut_b % (bytes.len() - lo + 1));
        let payload = Payload::from(bytes.clone());

        let window = payload.slice(lo..hi);
        prop_assert!(window.ptr_eq(&payload), "subslicing must not allocate");
        prop_assert_eq!(window.as_slice(), &bytes[lo..hi]);

        let prefix = payload.prefix(lo);
        let suffix = payload.suffix(lo);
        prop_assert_eq!(prefix.as_slice(), &bytes[..lo]);
        prop_assert_eq!(suffix.as_slice(), &bytes[lo..]);
    }

    /// Cloning is free: every clone shares the original's backing buffer
    /// instead of materialising a new one.
    #[test]
    fn clones_never_allocate(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        clones in 1usize..64,
    ) {
        let payload = Payload::from(bytes);
        let held: Vec<Payload> = (0..clones).map(|_| payload.clone()).collect();
        prop_assert!(held.iter().all(|c| c.ptr_eq(&payload)));
        prop_assert!(held.iter().all(|c| c == &payload));
    }
}
