//! Per-protocol **frame schemas**: structural decoders over this crate's
//! wire messages, built on the [`mpca_wire`] framing primitives.
//!
//! A [`FrameSchema`] maps one [`ProtocolKind`] to the message enums its
//! envelopes carry and decodes an opaque payload into a [`Frame`] — a stable
//! variant tag plus named byte spans. Two consumers:
//!
//! * the trace plane (`mpca-trace`) tags every recorded envelope with its
//!   frame tag, turning byte streams into phase-readable transcripts;
//! * framing-aware adversaries
//!   ([`Equivocate::with_rewriter`](mpca_net::Equivocate::with_rewriter))
//!   tamper a *field* inside a frame — the copy still parses, so the attack
//!   reaches the protocol's verification instead of dying in its parser.
//!
//! Families whose executions mix message enums across phases (Theorem 1
//! mixes committee-election and MPC messages; Theorem 4 adds gossip and
//! connection messages) are framed by trying each enum's decoder in a fixed
//! order and keeping the first that consumes the buffer exactly. The
//! decoders and their order are an entry of the family's
//! [`FamilySpec`](crate::catalog::FamilySpec) row, dominant enum first.
//! Tags are therefore authoritative for
//! tampering targets (a tamper only fires on an exact tag match) and
//! best-effort for pure tracing of short ambiguous buffers.
//!
//! Field **mutability** encodes what framing-aware tampering may touch:
//! value bytes (key words, ciphertext words, output bytes) are mutable,
//! discriminants and length prefixes are not — a tampered frame is
//! guaranteed to re-parse as the same variant with exactly one field
//! changed. `tests/proptest_frames.rs` pins both properties for every
//! family.

use mpca_wire::{Frame, FrameReader, Reader, WireError};

use crate::catalog::ProtocolKind;

/// One message enum's framing attempt: decodes the full buffer or fails.
pub(crate) type FrameDecoder = fn(&[u8]) -> Result<Frame, WireError>;

/// Frames one encoded message of a protocol family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSchema {
    kind: ProtocolKind,
}

impl FrameSchema {
    /// The schema of `kind`.
    pub fn new(kind: ProtocolKind) -> Self {
        Self { kind }
    }

    /// The protocol family this schema frames.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// Decodes `bytes` into a [`Frame`], or `None` when no message enum of
    /// the family consumes the buffer exactly. The decoders, and the order
    /// they are tried in, come from the family's
    /// [`FamilySpec`](crate::catalog::FamilySpec) row.
    pub fn decode(&self, bytes: &[u8]) -> Option<Frame> {
        self.kind
            .spec()
            .frame_decoders
            .iter()
            .find_map(|attempt| attempt(bytes).ok())
    }

    /// The frame tag of `bytes`, when it frames.
    pub fn tag(&self, bytes: &[u8]) -> Option<&'static str> {
        self.decode(bytes).map(|f| f.tag)
    }

    /// Rewrites exactly the bytes of mutable field `field` when `bytes`
    /// frames with tag `tag`; `None` otherwise. The result always re-parses
    /// as the same variant (see [`Frame::tamper`]).
    pub fn tamper(&self, bytes: &[u8], tag: &str, field: &str) -> Option<Vec<u8>> {
        let frame = self.decode(bytes)?;
        if frame.tag != tag {
            return None;
        }
        frame.tamper(bytes, field)
    }
}

/// Records `count` little-endian `u64` words as one mutable span.
fn u64_run(
    fr: &mut FrameReader<'_>,
    name: &str,
    count: usize,
    mutable: bool,
) -> Result<(), WireError> {
    fr.field_with(name.to_string(), mutable, |r| {
        for _ in 0..count {
            r.get_u64()?;
        }
        Ok(())
    })
}

/// Records a varint as an immutable field and returns it (bounds-checked so
/// framing never allocates for a hostile length).
fn varint_field(fr: &mut FrameReader<'_>, name: &str) -> Result<usize, WireError> {
    let value = fr.field_with(name.to_string(), false, Reader::get_uvarint)?;
    if value > 1 << 20 {
        return Err(WireError::Invalid("declared count too large for framing"));
    }
    Ok(value as usize)
}

/// Records a length-prefixed byte string as two fields: the immutable
/// `<name>.len` prefix and the mutable `<name>` body.
fn len_prefixed_field(fr: &mut FrameReader<'_>, name: &str) -> Result<(), WireError> {
    let len = fr.field_with(format!("{name}.len"), false, Reader::get_uvarint)?;
    if len > mpca_wire::MAX_FIELD_LEN {
        return Err(WireError::LengthOverflow { declared: len });
    }
    fr.field_with(name.to_string(), true, |r| {
        r.get_bytes(len as usize)?;
        Ok(())
    })
}

/// Frames an `LweCiphertext` body: `count` immutable, then per chunk the
/// immutable `dim.<i>` prefix, the mutable `c1.<i>` word run and the mutable
/// `c2.<i>` word — so `c2.0` names the tamper target of a concrete-path
/// input ciphertext.
fn ciphertext_fields(fr: &mut FrameReader<'_>) -> Result<(), WireError> {
    let chunks = varint_field(fr, "count")?;
    for i in 0..chunks {
        let dim = varint_field(fr, &format!("dim.{i}"))?;
        u64_run(fr, &format!("c1.{i}"), dim, true)?;
        u64_run(fr, &format!("c2.{i}"), 1, true)?;
    }
    Ok(())
}

/// Frames an `EqualityChallenge`: the prime is immutable (tampering it could
/// leave the modulus composite, changing the *kind* of failure), the
/// fingerprint is the mutable attack surface.
fn challenge_fields(fr: &mut FrameReader<'_>) -> Result<(), WireError> {
    u64_run(fr, "prime", 1, false)?;
    u64_run(fr, "fingerprint", 1, true)
}

/// `mpca_core::mpc::MpcMsg` (shared by Theorems 1 and 4).
pub(crate) fn frame_mpc_msg(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut fr = FrameReader::new(bytes);
    let disc: u8 = fr.field("disc", false)?;
    match disc {
        0 => {
            let len = varint_field(&mut fr, "len")?;
            u64_run(&mut fr, "b", len, true)?;
            fr.finish("mpc:keygen")
        }
        1 => {
            len_prefixed_field(&mut fr, "body")?;
            fr.finish("mpc:filler")
        }
        2 => {
            let len = varint_field(&mut fr, "len")?;
            u64_run(&mut fr, "b", len, true)?;
            fr.finish("mpc:public-key")
        }
        3 => {
            ciphertext_fields(&mut fr)?;
            fr.finish("mpc:input-ct")
        }
        4 => {
            challenge_fields(&mut fr)?;
            fr.finish("mpc:ct-challenge")
        }
        5 => {
            fr.field::<bool>("equal", false)?;
            fr.finish("mpc:ct-response")
        }
        6 => {
            let len = varint_field(&mut fr, "len")?;
            u64_run(&mut fr, "values", len, true)?;
            fr.finish("mpc:partial")
        }
        7 => {
            len_prefixed_field(&mut fr, "output")?;
            fr.finish("mpc:output")
        }
        other => Err(WireError::InvalidDiscriminant {
            ty: "MpcMsg",
            value: u64::from(other),
        }),
    }
}

/// `mpca_core::committee::CommitteeMsg`.
pub(crate) fn frame_committee_msg(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut fr = FrameReader::new(bytes);
    let disc: u8 = fr.field("disc", false)?;
    match disc {
        0 => fr.finish("committee:elected"),
        1 => {
            challenge_fields(&mut fr)?;
            fr.finish("committee:challenge")
        }
        2 => {
            fr.field::<bool>("equal", false)?;
            fr.finish("committee:response")
        }
        other => Err(WireError::InvalidDiscriminant {
            ty: "CommitteeMsg",
            value: u64::from(other),
        }),
    }
}

/// `mpca_core::local_committee::LocalCommitteeMsg`.
pub(crate) fn frame_local_committee_msg(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut fr = FrameReader::new(bytes);
    let disc: u8 = fr.field("disc", false)?;
    match disc {
        0 => {
            challenge_fields(&mut fr)?;
            fr.finish("local-committee:challenge")
        }
        1 => {
            fr.field::<bool>("equal", false)?;
            fr.finish("local-committee:response")
        }
        other => Err(WireError::InvalidDiscriminant {
            ty: "LocalCommitteeMsg",
            value: u64::from(other),
        }),
    }
}

/// `mpca_core::gossip::GossipMsg`.
pub(crate) fn frame_gossip_msg(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut fr = FrameReader::new(bytes);
    let disc: u8 = fr.field("disc", false)?;
    match disc {
        0 => {
            fr.field_with("source", false, Reader::get_uvarint)?;
            len_prefixed_field(&mut fr, "value")?;
            fr.finish("gossip:rumour")
        }
        1 => fr.finish("gossip:warning"),
        other => Err(WireError::InvalidDiscriminant {
            ty: "GossipMsg",
            value: u64::from(other),
        }),
    }
}

/// `mpca_core::sparse::ConnectMsg`.
pub(crate) fn frame_connect_msg(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut fr = FrameReader::new(bytes);
    let disc: u8 = fr.field("disc", false)?;
    if disc != 0 {
        return Err(WireError::InvalidDiscriminant {
            ty: "ConnectMsg",
            value: u64::from(disc),
        });
    }
    fr.finish("sparse:connect")
}

/// `mpca_core::broadcast::BroadcastMsg`.
pub(crate) fn frame_broadcast_msg(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut fr = FrameReader::new(bytes);
    let disc: u8 = fr.field("disc", false)?;
    match disc {
        0 => {
            len_prefixed_field(&mut fr, "message")?;
            fr.finish("bcast:send")
        }
        1 => {
            let some: bool = fr.field("some", false)?;
            if some {
                len_prefixed_field(&mut fr, "message")?;
            }
            fr.finish("bcast:echo")
        }
        other => Err(WireError::InvalidDiscriminant {
            ty: "BroadcastMsg",
            value: u64::from(other),
        }),
    }
}

/// `mpca_core::all_to_all::SuccinctMsg`.
pub(crate) fn frame_succinct_msg(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut fr = FrameReader::new(bytes);
    let disc: u8 = fr.field("disc", false)?;
    match disc {
        0 => {
            len_prefixed_field(&mut fr, "input")?;
            fr.finish("a2a:input")
        }
        1 => {
            challenge_fields(&mut fr)?;
            fr.finish("a2a:challenge")
        }
        2 => {
            fr.field::<bool>("equal", false)?;
            fr.finish("a2a:response")
        }
        other => Err(WireError::InvalidDiscriminant {
            ty: "SuccinctMsg",
            value: u64::from(other),
        }),
    }
}

/// The unchecked sum's bare little-endian `u64` value.
pub(crate) fn frame_sum_value(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut fr = FrameReader::new(bytes);
    u64_run(&mut fr, "value", 1, true)?;
    fr.finish("sum:value")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::BroadcastMsg;
    use crate::committee::CommitteeMsg;
    use crate::mpc::MpcMsg;
    use mpca_crypto::lwe::LweCiphertext;

    #[test]
    fn mpc_frames_tag_and_tile() {
        let schema = FrameSchema::new(ProtocolKind::Theorem1Mpc);
        let pk = mpca_wire::to_bytes(&MpcMsg::PublicKey(vec![7, 8, 9]));
        let frame = schema.decode(&pk).unwrap();
        assert_eq!(frame.tag, "mpc:public-key");
        assert!(frame.covers_exactly());
        assert_eq!(frame.reassemble(&pk).unwrap(), pk);
        assert_eq!(frame.field("b").unwrap().len(), 24);

        let elected = mpca_wire::to_bytes(&CommitteeMsg::Elected);
        assert_eq!(schema.tag(&elected), Some("committee:elected"));

        let output = mpca_wire::to_bytes(&MpcMsg::Output(vec![1, 2, 3, 4]));
        assert_eq!(schema.tag(&output), Some("mpc:output"));
        assert!(schema.tag(&[0xFF, 0xFF]).is_none());
    }

    #[test]
    fn tampered_public_key_still_parses_but_differs() {
        let schema = FrameSchema::new(ProtocolKind::Theorem1Mpc);
        let msg = MpcMsg::PublicKey(vec![1, 2, 3]);
        let bytes = mpca_wire::to_bytes(&msg);
        let tampered = schema.tamper(&bytes, "mpc:public-key", "b").unwrap();
        assert_eq!(tampered.len(), bytes.len(), "length (and charge) preserved");
        let reparsed: MpcMsg = mpca_wire::from_bytes(&tampered).expect("still parses");
        match reparsed {
            MpcMsg::PublicKey(b) => assert_ne!(b, vec![1, 2, 3]),
            other => panic!("variant changed: {other:?}"),
        }
        // Wrong tag or immutable field: no tamper.
        assert!(schema.tamper(&bytes, "mpc:output", "b").is_none());
        assert!(schema.tamper(&bytes, "mpc:public-key", "len").is_none());
    }

    #[test]
    fn tampered_input_ciphertext_targets_one_chunk_word() {
        let schema = FrameSchema::new(ProtocolKind::Theorem1Mpc);
        let ct = LweCiphertext {
            chunks: vec![(vec![11, 22, 33], 44)],
        };
        let bytes = mpca_wire::to_bytes(&MpcMsg::InputCt(ct));
        let tampered = schema.tamper(&bytes, "mpc:input-ct", "c2.0").unwrap();
        let reparsed: MpcMsg = mpca_wire::from_bytes(&tampered).expect("still parses");
        match reparsed {
            MpcMsg::InputCt(ct) => {
                assert_eq!(ct.chunks[0].0, vec![11, 22, 33], "c1 untouched");
                assert_ne!(ct.chunks[0].1, 44, "c2 changed");
            }
            other => panic!("variant changed: {other:?}"),
        }
    }

    #[test]
    fn every_family_frames_its_own_traffic() {
        let bcast = mpca_wire::to_bytes(&BroadcastMsg::Echo(Some(vec![5; 4])));
        assert_eq!(
            FrameSchema::new(ProtocolKind::Broadcast).tag(&bcast),
            Some("bcast:echo")
        );
        let none_echo = mpca_wire::to_bytes(&BroadcastMsg::Echo(None));
        assert_eq!(
            FrameSchema::new(ProtocolKind::Broadcast).tag(&none_echo),
            Some("bcast:echo")
        );
        let sum = mpca_wire::to_bytes(&99u64);
        let schema = FrameSchema::new(ProtocolKind::UncheckedSum);
        assert_eq!(schema.tag(&sum), Some("sum:value"));
        let tampered = schema.tamper(&sum, "sum:value", "value").unwrap();
        let v: u64 = mpca_wire::from_bytes(&tampered).unwrap();
        assert_ne!(v, 99);
    }
}
