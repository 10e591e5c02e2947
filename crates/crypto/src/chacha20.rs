//! ChaCha20 stream cipher (RFC 8439), used as the PRG and for symmetric
//! encryption.
//!
//! Every PRG draw in the repository comes out of this keystream, and the
//! random-prime sampler of the equality test takes one 8-byte draw per
//! candidate, so the per-draw cost matters as much as the block function.
//! The block function keeps its sixteen working words in locals; the
//! keystream of each block is buffered and handed out by copying, so a
//! draw the buffered block covers is a single copy. Both are the RFC's
//! keystream byte for byte, which the tests check against the RFC vectors
//! and a byte-at-a-time reference.

/// ChaCha20 keystream generator / stream cipher.
///
/// ```
/// use mpca_crypto::ChaCha20;
///
/// let key = [7u8; 32];
/// let nonce = [1u8; 12];
/// let mut cipher = ChaCha20::new(&key, &nonce, 0);
/// let mut data = b"attack at dawn".to_vec();
/// cipher.apply_keystream(&mut data);
///
/// let mut cipher2 = ChaCha20::new(&key, &nonce, 0);
/// cipher2.apply_keystream(&mut data);
/// assert_eq!(&data, b"attack at dawn");
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    /// Constant + key + counter + nonce, per RFC 8439 §2.3.
    state: [u32; 16],
    /// Buffered keystream from the current block.
    keystream: [u8; 64],
    /// Number of keystream bytes already consumed from `keystream`.
    used: usize,
}

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574]; // "expand 32-byte k"

impl ChaCha20 {
    /// Creates a cipher for `key`, `nonce` and an initial block `counter`.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] =
                u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        Self {
            state,
            keystream: [0u8; 64],
            used: 64,
        }
    }

    /// Computes one 64-byte keystream block for the current counter value.
    ///
    /// The sixteen working words live in locals rather than an indexed
    /// array, so the twenty rounds run in registers.
    fn block(&self) -> [u8; 64] {
        let [mut x0, mut x1, mut x2, mut x3, mut x4, mut x5, mut x6, mut x7, mut x8, mut x9, mut x10, mut x11, mut x12, mut x13, mut x14, mut x15] =
            self.state;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut x0, &mut x4, &mut x8, &mut x12);
            quarter_round(&mut x1, &mut x5, &mut x9, &mut x13);
            quarter_round(&mut x2, &mut x6, &mut x10, &mut x14);
            quarter_round(&mut x3, &mut x7, &mut x11, &mut x15);
            // Diagonal rounds.
            quarter_round(&mut x0, &mut x5, &mut x10, &mut x15);
            quarter_round(&mut x1, &mut x6, &mut x11, &mut x12);
            quarter_round(&mut x2, &mut x7, &mut x8, &mut x13);
            quarter_round(&mut x3, &mut x4, &mut x9, &mut x14);
        }
        let working = [
            x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15,
        ];
        let mut out = [0u8; 64];
        for ((chunk, word), input) in out.chunks_exact_mut(4).zip(working).zip(self.state) {
            chunk.copy_from_slice(&word.wrapping_add(input).to_le_bytes());
        }
        out
    }

    fn refill(&mut self) {
        self.keystream = self.block();
        // 32-bit counter with carry into the first nonce word would be a
        // protocol error at our scales; wrap deterministically instead.
        self.state[12] = self.state[12].wrapping_add(1);
        self.used = 0;
    }

    /// The next run of unconsumed keystream, at most `max` bytes long (and
    /// non-empty when `max > 0`), marked consumed.
    fn next_run(&mut self, max: usize) -> &[u8] {
        if self.used == 64 {
            self.refill();
        }
        let start = self.used;
        self.used += max.min(64 - start);
        &self.keystream[start..self.used]
    }

    /// XORs the keystream into `data` in place (encrypt == decrypt).
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        let mut rest = data;
        while !rest.is_empty() {
            let run = self.next_run(rest.len());
            let (head, tail) = rest.split_at_mut(run.len());
            for (byte, key) in head.iter_mut().zip(run) {
                *byte ^= key;
            }
            rest = tail;
        }
    }

    /// Fills `out` with keystream bytes (a PRG output): the same bytes
    /// [`apply_keystream`](Self::apply_keystream) would XOR in, copied
    /// straight out of the block buffer.
    #[inline]
    pub fn fill_keystream(&mut self, out: &mut [u8]) {
        // A request the buffered block covers is one copy: inlined into a
        // fixed-size caller such as `Prg::next_u64`, one load and store.
        if let Some(run) = self.keystream.get(self.used..self.used + out.len()) {
            out.copy_from_slice(run);
            self.used += out.len();
        } else {
            self.fill_across_blocks(out);
        }
    }

    fn fill_across_blocks(&mut self, out: &mut [u8]) {
        let mut rest = out;
        while !rest.is_empty() {
            let run = self.next_run(rest.len());
            let (head, tail) = rest.split_at_mut(run.len());
            head.copy_from_slice(run);
            rest = tail;
        }
    }
}

/// The ChaCha quarter round (RFC 8439 §2.1) on four state words.
#[inline(always)]
fn quarter_round(a: &mut u32, b: &mut u32, c: &mut u32, d: &mut u32) {
    *a = a.wrapping_add(*b);
    *d = (*d ^ *a).rotate_left(16);
    *c = c.wrapping_add(*d);
    *b = (*b ^ *c).rotate_left(12);
    *a = a.wrapping_add(*b);
    *d = (*d ^ *a).rotate_left(8);
    *c = c.wrapping_add(*d);
    *b = (*b ^ *c).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc8439_quarter_round_vector() {
        // RFC 8439 §2.1.1.
        let (mut a, mut b, mut c, mut d) = (0x11111111, 0x01020304, 0x9b8d6f43, 0x01234567);
        quarter_round(&mut a, &mut b, &mut c, &mut d);
        assert_eq!(
            [a, b, c, d],
            [0xea2a92f4, 0xcb1cf8ce, 0x4581472e, 0x5881c4bb]
        );
    }

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 §2.3.2: key = 00..1f, nonce = 000000090000004a00000000,
        // counter = 1.
        let mut key = [0u8; 32];
        for (i, byte) in key.iter_mut().enumerate() {
            *byte = i as u8;
        }
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let cipher = ChaCha20::new(&key, &nonce, 1);
        let block = cipher.block();
        let expected_prefix = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4,
        ];
        assert_eq!(&block[..16], &expected_prefix);
        let expected_suffix = [0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9];
        assert_eq!(&block[48..56], &expected_suffix);
    }

    #[test]
    fn keystream_is_deterministic_and_position_dependent() {
        let key = [42u8; 32];
        let nonce = [3u8; 12];
        let mut a = ChaCha20::new(&key, &nonce, 0);
        let mut b = ChaCha20::new(&key, &nonce, 0);
        let mut buf_a = [0u8; 200];
        let mut buf_b1 = [0u8; 150];
        let mut buf_b2 = [0u8; 50];
        a.fill_keystream(&mut buf_a);
        b.fill_keystream(&mut buf_b1);
        b.fill_keystream(&mut buf_b2);
        assert_eq!(&buf_a[..150], &buf_b1[..]);
        assert_eq!(&buf_a[150..], &buf_b2[..]);
    }

    /// The RFC 8439 block function as written in the RFC: the state as an
    /// indexed array, serialised word by word.
    fn reference_block(state: &[u32; 16]) -> [u8; 64] {
        fn qr(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(16);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(12);
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(8);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(7);
        }
        let mut w = *state;
        for _ in 0..10 {
            qr(&mut w, 0, 4, 8, 12);
            qr(&mut w, 1, 5, 9, 13);
            qr(&mut w, 2, 6, 10, 14);
            qr(&mut w, 3, 7, 11, 15);
            qr(&mut w, 0, 5, 10, 15);
            qr(&mut w, 1, 6, 11, 12);
            qr(&mut w, 2, 7, 8, 13);
            qr(&mut w, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            out[4 * i..4 * i + 4].copy_from_slice(&w[i].wrapping_add(state[i]).to_le_bytes());
        }
        out
    }

    /// A byte-at-a-time keystream: one reference block per 64 bytes.
    fn reference_stream(key: &[u8; 32], nonce: &[u8; 12], counter: u32, len: usize) -> Vec<u8> {
        let mut state = ChaCha20::new(key, nonce, counter).state;
        let mut out = Vec::with_capacity(len);
        let mut block = [0u8; 64];
        for i in 0..len {
            if i % 64 == 0 {
                block = reference_block(&state);
                state[12] = state[12].wrapping_add(1);
            }
            out.push(block[i % 64]);
        }
        out
    }

    #[test]
    fn fill_and_apply_match_the_bytewise_reference_under_random_splits() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for trial in 0..40u32 {
            let key: [u8; 32] = std::array::from_fn(|i| (i as u32 * 7 + trial) as u8);
            let nonce: [u8; 12] = std::array::from_fn(|i| (i as u32 ^ trial) as u8);
            // Start near the counter's wrap on some trials.
            let counter = if trial % 4 == 0 { u32::MAX - 1 } else { trial };
            let total = 1 + next(700) as usize;
            let expected = reference_stream(&key, &nonce, counter, total);
            let mut fill = ChaCha20::new(&key, &nonce, counter);
            let mut apply = ChaCha20::new(&key, &nonce, counter);
            let mut at = 0;
            while at < total {
                let len = (next(150) as usize).min(total - at);
                let mut got = vec![0u8; len];
                fill.fill_keystream(&mut got);
                assert_eq!(got, expected[at..at + len], "fill, trial {trial} at {at}");
                let plain: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
                let mut xored = plain.clone();
                apply.apply_keystream(&mut xored);
                for (i, byte) in xored.iter().enumerate() {
                    assert_eq!(*byte, plain[i] ^ expected[at + i], "apply, trial {trial}");
                }
                at += len;
            }
        }
    }

    #[test]
    fn different_nonces_give_different_streams() {
        let key = [1u8; 32];
        let mut a = ChaCha20::new(&key, &[0u8; 12], 0);
        let mut b = ChaCha20::new(&key, &[1u8; 12], 0);
        let mut buf_a = [0u8; 64];
        let mut buf_b = [0u8; 64];
        a.fill_keystream(&mut buf_a);
        b.fill_keystream(&mut buf_b);
        assert_ne!(buf_a, buf_b);
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let key = [9u8; 32];
        let nonce = [4u8; 12];
        let plaintext: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let mut data = plaintext.clone();
        ChaCha20::new(&key, &nonce, 7).apply_keystream(&mut data);
        assert_ne!(data, plaintext);
        ChaCha20::new(&key, &nonce, 7).apply_keystream(&mut data);
        assert_eq!(data, plaintext);
    }
}
