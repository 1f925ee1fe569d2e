//! Functional cryptography for the SHM secure-memory simulator.
//!
//! The simulator models AES and MAC engines primarily as latency/bandwidth
//! actors, but this crate implements them *functionally* so the test suite
//! can verify real end-to-end security properties: counter-mode
//! confidentiality, stateful-MAC integrity, and Merkle-tree freshness.
//!
//! Contents:
//!
//! * [`aes::Aes128`] — a from-scratch AES-128 block cipher (FIPS-197).
//! * [`otp`] — one-time-pad generation for counter-mode memory encryption
//!   (step ①/② of Fig. 1 in the paper).
//! * [`mac`] — a 64-bit keyed MAC (SipHash-2-4 core) used for both per-block
//!   stateful MACs and per-chunk MACs.
//!
//! This is simulation-grade cryptography: AES-128 here is a correct,
//! test-vector-checked implementation, but it is not constant-time and must
//! not be used outside the simulator.
//!
//! ```
//! use shm_crypto::{Aes128, otp};
//!
//! let aes = Aes128::new([0u8; 16]);
//! let pad = otp::block_pad(&aes, 0x1000, 7, 3);
//! let ct: Vec<u8> = vec![0xAAu8; 128].iter().zip(pad.iter()).map(|(p, k)| p ^ k).collect();
//! let pt: Vec<u8> = ct.iter().zip(pad.iter()).map(|(c, k)| c ^ k).collect();
//! assert_eq!(pt, vec![0xAAu8; 128]);
//! ```

pub mod aes;
pub mod mac;
pub mod otp;

pub use aes::{aesni_available, selected_backend, Aes128, AesBackend};
pub use mac::{chunk_mac, stateful_mac, MacKey};

/// A 128-bit key tuple produced by the GPU command processor's key generator:
/// `k_enc` for memory encryption, `k_mac` for integrity, `k_tree` for the
/// integrity tree (Section IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyTuple {
    /// Memory-encryption key (K1).
    pub k_enc: [u8; 16],
    /// Memory-integrity key (K2).
    pub k_mac: [u8; 16],
    /// Integrity-tree key (K3).
    pub k_tree: [u8; 16],
}

impl KeyTuple {
    /// Derives a key tuple deterministically from a context seed.
    ///
    /// Real hardware uses a TRNG; the simulator derives keys from the GPU
    /// context id so runs are reproducible.
    pub fn derive(context_seed: u64) -> Self {
        let mut ks = [[0u8; 16]; 3];
        for (i, k) in ks.iter_mut().enumerate() {
            let mut x = context_seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for chunk in k.chunks_mut(8) {
                x = x
                    .rotate_left(23)
                    .wrapping_mul(0x2545_F491_4F6C_DD1D)
                    .wrapping_add(0x1234_5678_9ABC_DEF0);
                chunk.copy_from_slice(&x.to_le_bytes());
            }
        }
        Self {
            k_enc: ks[0],
            k_mac: ks[1],
            k_tree: ks[2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_keys_are_distinct_and_deterministic() {
        let a = KeyTuple::derive(1);
        let b = KeyTuple::derive(1);
        let c = KeyTuple::derive(2);
        assert_eq!(a, b);
        assert_ne!(a.k_enc, a.k_mac);
        assert_ne!(a.k_mac, a.k_tree);
        assert_ne!(a.k_enc, c.k_enc);
    }
}
