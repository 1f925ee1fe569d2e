//! FNV-1a 64, the digest every trace seed and journal config hash is built
//! on.

/// FNV-1a 64 over `data`.
///
/// `shm_bench::trace_seed` seeds every benchmark trace with it,
/// `shm_bench::config_hash` guards every job journal with it, and the
/// benchmark package digests its outputs with it.  The golden tables and
/// every journal on disk depend on its exact values.
pub fn payload_digest(data: &[u8]) -> u64 {
    data.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_digest_matches_fnv1a_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(payload_digest(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(payload_digest(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(payload_digest(b"foobar"), 0x85944171F73967E8);
    }
}
