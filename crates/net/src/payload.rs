//! Zero-copy message payloads.
//!
//! [`Payload`] is the workspace's single message-body representation: an
//! immutable byte buffer backed by an `Arc<[u8]>` window. Cloning a payload
//! is O(1) — it bumps a reference count instead of copying bytes — so the
//! simulator, the adversaries and relay-style protocols (broadcast echo,
//! gossip forwarding, committee fan-out) can hand the *same* buffer to many
//! recipients. The communication statistics are unchanged by construction:
//! [`CommStats`](crate::CommStats) charges `payload.len()` per envelope, and
//! a shared buffer has the same length as a copied one.
//!
//! Two construction paths exist:
//!
//! * [`Payload::encode`] — wraps `mpca-wire` encoding and materialises the
//!   bytes exactly once;
//! * [`Payload::slice`] / [`Payload::prefix`] / [`Payload::suffix`] — O(1)
//!   re-framing of an existing buffer (the window narrows, the backing
//!   allocation is shared).
//!
//! Every fresh materialisation (and only a materialisation — never a clone
//! or subslice) is counted by a process-wide allocation counter, which is how
//! the `E14-message-plane` experiment and the engine's
//! `BatchReport::allocated_payload_bytes` measure the bytes the message
//! plane actually copies.

use std::fmt;
use std::ops::{Deref, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;

use mpca_wire::{Decode, Encode, Reader, WireError, Writer};

/// Bytes materialised into fresh payload buffers, process-wide.
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Number of fresh payload buffers materialised, process-wide.
static ALLOC_BUFFERS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide payload allocation counters.
///
/// The counters only ever increase; take two snapshots and subtract
/// ([`PayloadAllocStats::since`]) to measure the bytes a region of code
/// copied into the message plane. Clones and subslices are free and do not
/// move the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PayloadAllocStats {
    /// Total bytes materialised into fresh buffers.
    pub bytes: u64,
    /// Number of fresh buffers materialised.
    pub buffers: u64,
}

impl PayloadAllocStats {
    /// Takes a snapshot of the current counters.
    pub fn snapshot() -> Self {
        Self {
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            buffers: ALLOC_BUFFERS.load(Ordering::Relaxed),
        }
    }

    /// The counter deltas since an `earlier` snapshot.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            bytes: self.bytes.saturating_sub(earlier.bytes),
            buffers: self.buffers.saturating_sub(earlier.buffers),
        }
    }
}

fn record_materialisation(bytes: usize) {
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    ALLOC_BUFFERS.fetch_add(1, Ordering::Relaxed);
    // Mirror into the metrics plane so snapshots expose the same counters
    // the message-plane experiments read. Handles are cached: the registry
    // lock is taken once per process, not per allocation.
    if mpca_metrics::enabled() {
        static METRICS: OnceLock<(
            &'static mpca_metrics::Counter,
            &'static mpca_metrics::Counter,
        )> = OnceLock::new();
        let (bytes_counter, buffers_counter) = METRICS.get_or_init(|| {
            let registry = mpca_metrics::Registry::global();
            (
                registry.counter("payload.materialised.bytes"),
                registry.counter("payload.materialised.buffers"),
            )
        });
        bytes_counter.add(bytes as u64);
        buffers_counter.inc();
    }
}

/// An immutable, cheaply clonable message body.
///
/// `Payload` is a `[start, end)` window into a shared `Arc<[u8]>` buffer.
/// [`Clone`] is O(1); [`Payload::slice`] is O(1) and shares the backing
/// allocation. It dereferences to `[u8]`, so all slice APIs apply, and its
/// wire encoding is byte-for-byte identical to `Vec<u8>`'s (a varint length
/// prefix followed by the bytes).
#[derive(Clone)]
pub struct Payload {
    buf: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Payload {
    /// The empty payload (shared; allocates nothing after first use).
    pub fn empty() -> Self {
        static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
        let buf = EMPTY.get_or_init(|| Arc::from(&[][..])).clone();
        Self {
            buf,
            start: 0,
            end: 0,
        }
    }

    /// Materialises `bytes` into a payload, counting the allocation.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        if bytes.is_empty() {
            return Self::empty();
        }
        record_materialisation(bytes.len());
        let buf: Arc<[u8]> = Arc::from(bytes);
        let end = buf.len();
        Self { buf, start: 0, end }
    }

    /// Copies `bytes` into a payload, counting the allocation.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        if bytes.is_empty() {
            return Self::empty();
        }
        record_materialisation(bytes.len());
        Self {
            buf: Arc::from(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Encodes `msg` through `mpca-wire` into a fresh payload.
    ///
    /// This is the canonical "build a message once" entry point: encode with
    /// `Payload::encode`, then clone the handle per recipient.
    pub fn encode<T: Encode + ?Sized>(msg: &T) -> Self {
        let mut w = Writer::with_capacity(msg.encoded_len());
        msg.encode(&mut w);
        Self::from_vec(w.into_bytes())
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Length of the payload in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the payload holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copies the payload out into an owned vector (the one deliberate copy).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// O(1) subslice sharing the backing buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, mirroring slice indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&i) => i,
            std::ops::Bound::Excluded(&i) => i + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&i) => i + 1,
            std::ops::Bound::Excluded(&i) => i,
            std::ops::Bound::Unbounded => len,
        };
        assert!(
            lo <= hi && hi <= len,
            "payload slice {lo}..{hi} out of bounds for length {len}"
        );
        Self {
            buf: Arc::clone(&self.buf),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// The first `n` bytes as an O(1) shared window (prefix framing).
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn prefix(&self, n: usize) -> Self {
        self.slice(..n)
    }

    /// The bytes from offset `n` onwards as an O(1) shared window (suffix
    /// framing).
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn suffix(&self, n: usize) -> Self {
        self.slice(n..)
    }

    /// Reads a varint-length-prefixed field from `r` — a reader that **must**
    /// be positioned inside this payload's bytes — and returns the field as
    /// an O(1) subslice sharing this payload's buffer.
    ///
    /// This is the zero-copy receive path for relay protocols: a forwarded
    /// field keeps pointing into the inbound envelope's buffer instead of
    /// being copied out.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`WireError`] if the field is malformed or
    /// truncated.
    pub fn read_len_prefixed(&self, r: &mut Reader<'_>) -> Result<Self, WireError> {
        let field = r.get_len_prefixed()?;
        let offset = r.position() - field.len();
        Ok(self.slice(offset..offset + field.len()))
    }

    /// `true` when both payloads share the same backing allocation.
    ///
    /// This is identity of the buffer, not equality of the bytes: clones and
    /// subslices of a payload are `ptr_eq` to it, while an equal-but-separate
    /// materialisation is not. Tests use this to prove a fan-out or relay
    /// path did not copy.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes", self.len())?;
        let preview: Vec<String> = self
            .as_slice()
            .iter()
            .take(8)
            .map(|b| format!("{b:02x}"))
            .collect();
        if !preview.is_empty() {
            write!(
                f,
                ": {}{}",
                preview.join(""),
                if self.len() > 8 { "…" } else { "" }
            )?;
        }
        write!(f, ")")
    }
}

impl Default for Payload {
    fn default() -> Self {
        Self::empty()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Self::from_vec(bytes)
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Self::copy_from_slice(bytes)
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(bytes: &[u8; N]) -> Self {
        Self::copy_from_slice(bytes)
    }
}

impl From<Writer> for Payload {
    fn from(w: Writer) -> Self {
        Self::from_vec(w.into_bytes())
    }
}

/// The wire encoding matches `Vec<u8>` byte for byte: a varint length prefix
/// followed by the raw bytes. A `Payload` field can therefore replace a
/// `Vec<u8>` field in any message without changing charged communication.
impl Encode for Payload {
    fn encode(&self, w: &mut Writer) {
        w.put_len_prefixed(self.as_slice());
    }
    fn encoded_len(&self) -> usize {
        mpca_wire::uvarint_len(self.len() as u64) + self.len()
    }
}

impl Decode for Payload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self::copy_from_slice(r.get_len_prefixed()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE for every test below: the allocation counters are process-wide,
    // and the test harness runs this binary's tests concurrently, so exact
    // equalities on counter deltas would race with unrelated tests. Buffer
    // identity is asserted with `ptr_eq` (exact, race-free); counter deltas
    // are only ever bounded from below.

    #[test]
    fn clone_shares_the_backing_buffer() {
        let p = Payload::from_vec(vec![1, 2, 3, 4]);
        let clones: Vec<Payload> = (0..100).map(|_| p.clone()).collect();
        assert!(clones.iter().all(|c| *c == p));
        assert!(
            clones.iter().all(|c| c.ptr_eq(&p)),
            "clones must share the backing buffer, not copy it"
        );
    }

    #[test]
    fn subslicing_is_zero_copy_and_windows_correctly() {
        let p = Payload::from_vec((0u8..10).collect());
        let mid = p.slice(2..8);
        let pre = mid.prefix(3);
        let suf = mid.suffix(3);
        assert_eq!(mid, [2, 3, 4, 5, 6, 7]);
        assert_eq!(pre, [2, 3, 4]);
        assert_eq!(suf, [5, 6, 7]);
        for window in [&mid, &pre, &suf] {
            assert!(window.ptr_eq(&p), "subslices must share the buffer");
        }
        assert_eq!(p.slice(..), p);
        assert_eq!(p.slice(10..10).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        Payload::from_vec(vec![1, 2, 3]).slice(1..5);
    }

    #[test]
    fn wire_encoding_matches_vec_u8() {
        for bytes in [vec![], vec![7u8], vec![0u8; 300], (0u8..200).collect()] {
            let payload = Payload::from_vec(bytes.clone());
            assert_eq!(
                mpca_wire::to_bytes(&payload),
                mpca_wire::to_bytes(&bytes),
                "Payload and Vec<u8> encodings must be byte-identical"
            );
            assert_eq!(payload.encoded_len(), mpca_wire::encoded_len(&bytes));
            let back: Payload = mpca_wire::from_bytes(&mpca_wire::to_bytes(&bytes)).unwrap();
            assert_eq!(back, payload);
            let as_vec: Vec<u8> = mpca_wire::from_bytes(&mpca_wire::to_bytes(&payload)).unwrap();
            assert_eq!(as_vec, bytes);
        }
    }

    #[test]
    fn empty_payloads_are_free_and_shared() {
        let a = Payload::empty();
        let b = Payload::from_vec(Vec::new());
        let c = Payload::default();
        assert!(
            a.ptr_eq(&b) && b.ptr_eq(&c),
            "empty payloads must share the one static buffer"
        );
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert!(a.is_empty());
    }

    #[test]
    fn read_len_prefixed_shares_the_buffer() {
        // Frame: u8 tag, then a length-prefixed field, then a trailing u8.
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_len_prefixed(b"hello world");
        w.put_u8(0xCD);
        let payload = Payload::from_vec(w.into_bytes());

        let mut r = Reader::new(&payload);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        let field = payload.read_len_prefixed(&mut r).unwrap();
        assert_eq!(r.get_u8().unwrap(), 0xCD);
        r.finish().unwrap();
        assert_eq!(field, *b"hello world");
        assert!(
            field.ptr_eq(&payload),
            "field must share the payload's buffer"
        );
    }

    #[test]
    fn debug_and_eq_variants() {
        let p = Payload::from_vec(vec![0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5]);
        let rendered = format!("{p:?}");
        assert!(rendered.contains("9 bytes"));
        assert!(rendered.contains("deadbeef"));
        assert_eq!(p, p.to_vec());
        assert_eq!(p, *p.as_slice());
        assert_eq!(p, p.as_slice());
        let arr: &[u8; 4] = b"\x01\x02\x03\x04";
        assert_eq!(Payload::from(arr), [1u8, 2, 3, 4]);
    }
}
