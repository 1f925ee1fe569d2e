//! A from-scratch AES-128 block cipher (FIPS-197).
//!
//! Implemented directly from the specification and checked against the
//! FIPS-197 Appendix B/C test vectors.  The cipher is the innermost hot
//! loop of the functional secure-memory model (eight invocations per
//! 128 B line for counter-mode pads).  Two interchangeable backends are
//! provided and selected once per process:
//!
//! * **AES-NI** (`x86_64` only): one `AESENC` per round via `std::arch`,
//!   used when `is_x86_feature_detected!("aes")` reports hardware support.
//! * **T-tables**: the classic 32-bit formulation — one 256-entry table of
//!   premixed `MixColumns ∘ SubBytes` columns, rotated for the other three
//!   rows — as the portable fallback.  Table lookups are not constant time;
//!   simulation-grade only.
//!
//! Both backends are cross-checked against the per-byte [`reference`]
//! cipher.

use std::sync::OnceLock;

/// The AES S-box.
const SBOX: [u8; 256] = build_sbox();

/// T-table for row 0: `T0[x]` is the MixColumns output column
/// `(2·S[x], S[x], S[x], 3·S[x])` packed big-endian.  Rows 1–3 use the
/// same table rotated right by 8/16/24 bits.
const T0: [u32; 256] = build_t0();

/// Builds the S-box at compile time from the GF(2^8) multiplicative inverse
/// followed by the affine transformation.
const fn build_sbox() -> [u8; 256] {
    // Compute inverses via exhaustive multiplication (const-friendly).
    let mut sbox = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let inv = if i == 0 { 0 } else { gf_inv(i as u8) };
        // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        let b = inv;
        let s =
            b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63;
        sbox[i] = s;
        i += 1;
    }
    sbox
}

/// Builds the round T-table at compile time from the S-box.
const fn build_t0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let s = SBOX[i];
        let s2 = gf_mul(s, 2);
        let s3 = s2 ^ s; // 3·s = 2·s ⊕ s in GF(2^8)
        t[i] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        i += 1;
    }
    t
}

/// GF(2^8) multiplication with the AES reduction polynomial 0x11B.
const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
        i += 1;
    }
    p
}

/// GF(2^8) multiplicative inverse by brute force (compile-time only).
const fn gf_inv(a: u8) -> u8 {
    let mut x = 1u16;
    while x < 256 {
        if gf_mul(a, x as u8) == 1 {
            return x as u8;
        }
        x += 1;
    }
    0
}

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36];

/// Applies the S-box to every byte of a big-endian word.
#[inline]
fn sub_word(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[b[0] as usize],
        SBOX[b[1] as usize],
        SBOX[b[2] as usize],
        SBOX[b[3] as usize],
    ])
}

/// Which block-encrypt implementation a process uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AesBackend {
    /// Portable 32-bit T-table rounds.
    TTable,
    /// Hardware `AESENC` rounds via `std::arch` (x86_64 with AES-NI).
    AesNi,
}

impl AesBackend {
    /// Stable label used in the benchmark report (`aes_backend`).
    pub fn name(self) -> &'static str {
        match self {
            AesBackend::TTable => "ttable",
            AesBackend::AesNi => "aesni",
        }
    }
}

/// True when the CPU supports the AES-NI path.
pub fn aesni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The backend every `Aes128` built in this process will use: AES-NI when
/// the CPU has it, T-tables otherwise.  Decided once and cached.
pub fn selected_backend() -> AesBackend {
    static CHOICE: OnceLock<AesBackend> = OnceLock::new();
    *CHOICE.get_or_init(|| {
        if aesni_available() {
            AesBackend::AesNi
        } else {
            AesBackend::TTable
        }
    })
}

/// An expanded AES-128 key ready for encryption.
///
/// The simulator only ever encrypts (counter mode needs no block decryption),
/// so no inverse cipher is provided.  Round keys are kept both as the 44
/// big-endian words the T-table rounds consume directly and as the eleven
/// 16-byte round keys the AES-NI rounds load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Aes128 {
    round_keys: [u32; 44],
    round_key_bytes: [[u8; 16]; 11],
    backend: AesBackend,
}

impl Aes128 {
    /// Expands `key` into the 44 round-key words (FIPS-197 §5.2).
    pub fn new(key: [u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t = sub_word(t.rotate_left(8)) ^ ((RCON[i / 4 - 1] as u32) << 24);
            }
            w[i] = w[i - 4] ^ t;
        }
        let mut round_key_bytes = [[0u8; 16]; 11];
        for (r, rk) in round_key_bytes.iter_mut().enumerate() {
            for i in 0..4 {
                rk[i * 4..i * 4 + 4].copy_from_slice(&w[4 * r + i].to_be_bytes());
            }
        }
        Self {
            round_keys: w,
            round_key_bytes,
            backend: selected_backend(),
        }
    }

    /// The backend this key will encrypt with.
    pub fn backend(&self) -> AesBackend {
        self.backend
    }

    /// Encrypts one 16-byte block with the process-selected backend.
    #[inline]
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if self.backend == AesBackend::AesNi {
            // SAFETY: AesNi is only selected when the `aes` feature was
            // detected at runtime.
            return unsafe { aesni::encrypt_block(&self.round_key_bytes, block) };
        }
        self.encrypt_block_ttable(block)
    }

    /// Encrypts one block on the hardware path, or `None` without AES-NI.
    /// Exposed for cross-check tests and microbenches.
    pub fn encrypt_block_aesni(&self, block: [u8; 16]) -> Option<[u8; 16]> {
        #[cfg(target_arch = "x86_64")]
        if aesni_available() {
            // SAFETY: feature detection passed above.
            return Some(unsafe { aesni::encrypt_block(&self.round_key_bytes, block) });
        }
        let _ = block;
        None
    }

    /// Encrypts one 16-byte block with the portable T-table rounds.
    pub fn encrypt_block_ttable(&self, block: [u8; 16]) -> [u8; 16] {
        let rk = &self.round_keys;
        // Columns of the state as big-endian words (row 0 in the MSB).
        let mut c0 = u32::from_be_bytes([block[0], block[1], block[2], block[3]]) ^ rk[0];
        let mut c1 = u32::from_be_bytes([block[4], block[5], block[6], block[7]]) ^ rk[1];
        let mut c2 = u32::from_be_bytes([block[8], block[9], block[10], block[11]]) ^ rk[2];
        let mut c3 = u32::from_be_bytes([block[12], block[13], block[14], block[15]]) ^ rk[3];

        // Rounds 1–9: SubBytes + ShiftRows + MixColumns + AddRoundKey fused
        // into four table lookups per output column.  ShiftRows appears as
        // output column j reading rows 1/2/3 from columns j+1/j+2/j+3.
        #[inline]
        fn round_col(a: u32, b: u32, c: u32, d: u32, k: u32) -> u32 {
            T0[(a >> 24) as usize]
                ^ T0[((b >> 16) & 0xFF) as usize].rotate_right(8)
                ^ T0[((c >> 8) & 0xFF) as usize].rotate_right(16)
                ^ T0[(d & 0xFF) as usize].rotate_right(24)
                ^ k
        }
        for round in 1..10 {
            let k = 4 * round;
            let n0 = round_col(c0, c1, c2, c3, rk[k]);
            let n1 = round_col(c1, c2, c3, c0, rk[k + 1]);
            let n2 = round_col(c2, c3, c0, c1, rk[k + 2]);
            let n3 = round_col(c3, c0, c1, c2, rk[k + 3]);
            (c0, c1, c2, c3) = (n0, n1, n2, n3);
        }

        // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        #[inline]
        fn last_col(a: u32, b: u32, c: u32, d: u32, k: u32) -> u32 {
            (u32::from(SBOX[(a >> 24) as usize]) << 24
                | u32::from(SBOX[((b >> 16) & 0xFF) as usize]) << 16
                | u32::from(SBOX[((c >> 8) & 0xFF) as usize]) << 8
                | u32::from(SBOX[(d & 0xFF) as usize]))
                ^ k
        }
        let e0 = last_col(c0, c1, c2, c3, rk[40]);
        let e1 = last_col(c1, c2, c3, c0, rk[41]);
        let e2 = last_col(c2, c3, c0, c1, rk[42]);
        let e3 = last_col(c3, c0, c1, c2, rk[43]);

        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&e0.to_be_bytes());
        out[4..8].copy_from_slice(&e1.to_be_bytes());
        out[8..12].copy_from_slice(&e2.to_be_bytes());
        out[12..16].copy_from_slice(&e3.to_be_bytes());
        out
    }
}

/// Hardware rounds: `AESENC` consumes the state and a round key per round.
/// Round keys are the big-endian word bytes in memory order, exactly what
/// `round_key_bytes` stores.
#[cfg(target_arch = "x86_64")]
mod aesni {
    use core::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
        _mm_xor_si128,
    };

    /// # Safety
    /// Caller must ensure the CPU supports the `aes` target feature.
    #[target_feature(enable = "aes")]
    pub unsafe fn encrypt_block(rk: &[[u8; 16]; 11], block: [u8; 16]) -> [u8; 16] {
        let key = |r: usize| -> __m128i { _mm_loadu_si128(rk[r].as_ptr().cast()) };
        let mut s = _mm_loadu_si128(block.as_ptr().cast());
        s = _mm_xor_si128(s, key(0));
        for r in 1..10 {
            s = _mm_aesenc_si128(s, key(r));
        }
        s = _mm_aesenclast_si128(s, key(10));
        let mut out = [0u8; 16];
        _mm_storeu_si128(out.as_mut_ptr().cast(), s);
        out
    }
}

/// Straightforward per-byte reference cipher (the pre-T-table
/// implementation), kept to cross-check both optimized backends.  Public so
/// microbenches and integration tests can compare against it; never used on
/// the simulation hot path.
pub mod reference {
    use super::{gf_mul, RCON, SBOX};

    /// Expands `key` into the eleven per-round 16-byte keys.
    pub fn expand(key: [u8; 16]) -> [[u8; 16]; 11] {
        let mut rk = [[0u8; 16]; 11];
        rk[0] = key;
        for round in 1..11 {
            let prev = rk[round - 1];
            let mut w = [prev[12], prev[13], prev[14], prev[15]];
            w.rotate_left(1);
            for b in w.iter_mut() {
                *b = SBOX[*b as usize];
            }
            w[0] ^= RCON[round - 1];
            for i in 0..4 {
                rk[round][i] = prev[i] ^ w[i];
            }
            for i in 4..16 {
                rk[round][i] = prev[i] ^ rk[round][i - 4];
            }
        }
        rk
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State is column-major: byte `state[c*4 + r]` is row r, column c.
    fn shift_rows(state: &mut [u8; 16]) {
        let orig = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[c * 4 + r] = orig[((c + r) % 4) * 4 + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[c * 4],
                state[c * 4 + 1],
                state[c * 4 + 2],
                state[c * 4 + 3],
            ];
            state[c * 4] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
            state[c * 4 + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
            state[c * 4 + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
            state[c * 4 + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
        }
    }

    /// Encrypts one block with the pre-expanded round keys from [`expand`].
    pub fn encrypt_block(rk: &[[u8; 16]; 11], block: [u8; 16]) -> [u8; 16] {
        let mut s = block;
        add_round_key(&mut s, &rk[0]);
        for round_key in rk.iter().take(10).skip(1) {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, round_key);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &rk[10]);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: plaintext/key/ciphertext example.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(key);
        assert_eq!(aes.encrypt_block(pt), expected);
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233...ff.
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(key);
        assert_eq!(aes.encrypt_block(pt), expected);
    }

    #[test]
    fn sbox_spot_values() {
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn t_table_matches_per_byte_reference() {
        // The T-table cipher must agree with the per-byte GF(2^8) reference
        // on a spread of keys and plaintexts (SplitMix-style sequence).
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..64 {
            let mut key = [0u8; 16];
            let mut pt = [0u8; 16];
            key[0..8].copy_from_slice(&next().to_le_bytes());
            key[8..16].copy_from_slice(&next().to_le_bytes());
            pt[0..8].copy_from_slice(&next().to_le_bytes());
            pt[8..16].copy_from_slice(&next().to_le_bytes());
            let fast = Aes128::new(key).encrypt_block_ttable(pt);
            let slow = reference::encrypt_block(&reference::expand(key), pt);
            assert_eq!(fast, slow, "divergence for key {key:02x?} pt {pt:02x?}");
        }
    }

    #[test]
    fn aesni_matches_ttable_when_available() {
        if !aesni_available() {
            eprintln!("skipping: CPU lacks AES-NI");
            return;
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x = x.wrapping_add(0x243F_6A88_85A3_08D3);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..64 {
            let mut key = [0u8; 16];
            let mut pt = [0u8; 16];
            key[0..8].copy_from_slice(&next().to_le_bytes());
            key[8..16].copy_from_slice(&next().to_le_bytes());
            pt[0..8].copy_from_slice(&next().to_le_bytes());
            pt[8..16].copy_from_slice(&next().to_le_bytes());
            let aes = Aes128::new(key);
            let hw = aes.encrypt_block_aesni(pt).expect("AES-NI detected");
            assert_eq!(
                hw,
                aes.encrypt_block_ttable(pt),
                "backend divergence for key {key:02x?} pt {pt:02x?}"
            );
        }
    }

    #[test]
    fn selected_backend_is_consistent() {
        let aes = Aes128::new([5u8; 16]);
        assert_eq!(aes.backend(), selected_backend());
        if selected_backend() == AesBackend::AesNi {
            assert!(aesni_available());
        }
        assert!(matches!(selected_backend().name(), "ttable" | "aesni"));
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes128::new([0u8; 16]);
        let b = Aes128::new([1u8; 16]);
        let pt = [7u8; 16];
        assert_ne!(a.encrypt_block(pt), b.encrypt_block(pt));
    }

    #[test]
    fn encryption_is_deterministic() {
        let aes = Aes128::new([9u8; 16]);
        assert_eq!(aes.encrypt_block([3u8; 16]), aes.encrypt_block([3u8; 16]));
    }
}
