//! End-to-end adversary campaign: the `full` campaign under a fixed seed
//! must reproduce a golden detection matrix — every injected tamper caught
//! as exactly the expected `VerifyError` variant, zero silent corruptions,
//! zero false alarms — plus single-bit-flip detection properties.

use proptest::prelude::*;
use shm_crypto::KeyTuple;
use shm_fault::{run_campaign, TamperKind, ALL_KINDS};
use shm_metadata::{SecureMemory, VerifyError};

/// The golden per-class injection counts for `full` (rounds of burst sizes
/// 1, 3, 2): burst classes get 1+3+2 tampers, single-target classes one per
/// round, Rowhammer two victims per aggressor per round.
fn golden_injected(kind: TamperKind) -> usize {
    match kind {
        TamperKind::BlockReplay
        | TamperKind::FullReplay
        | TamperKind::ChunkTamper
        | TamperKind::InterPoolTamper => 3,
        _ => 6,
    }
}

#[test]
fn full_campaign_seed7_matches_the_golden_detection_matrix() {
    let report = run_campaign("full", 7).expect("full is a known campaign");
    assert_eq!(report.matrix.len(), ALL_KINDS.len(), "every class ran");
    for (kind, entry) in &report.matrix {
        assert_eq!(
            entry.injected,
            golden_injected(*kind),
            "{}: injection count drifted from the golden matrix",
            kind.label()
        );
        assert_eq!(
            entry.detected,
            entry.injected,
            "{}: tamper went undetected or misclassified",
            kind.label()
        );
        assert_eq!(entry.wrong_variant, 0, "{}: wrong variant", kind.label());
        assert_eq!(entry.silent, 0, "{}: silent corruption", kind.label());
    }
    assert_eq!(report.total_injected(), 66);
    assert_eq!(report.false_alarms, 0, "clean reads must verify");
    assert!(report.clean_blocks > 0, "the false-alarm pass ran");
    assert!(report.is_clean_pass());
    // Rowhammer cross-check: the timing model saw serves from marked rows.
    assert!(report.dram_corrupted_serves > 0);
}

#[test]
fn campaign_reports_are_deterministic_across_runs() {
    let a = run_campaign("full", 7).expect("known campaign");
    let b = run_campaign("full", 7).expect("known campaign");
    assert_eq!(a.render(), b.render());
    assert_eq!(a.incidents, b.incidents);
}

#[test]
fn smoke_campaign_is_a_clean_pass_and_covers_every_class() {
    let report = run_campaign("smoke", 7).expect("smoke is a known campaign");
    assert!(report.is_clean_pass());
    assert_eq!(report.matrix.len(), ALL_KINDS.len());
}

const SPAN: u64 = 64 * 1024;

fn primed(seed: u64) -> SecureMemory {
    let mut mem = SecureMemory::new(SPAN, &KeyTuple::derive(seed));
    for block in 0..SPAN / 128 {
        mem.write_block(block * 128, &[(block as u8) ^ 0x5A; 128]);
    }
    mem
}

proptest! {
    /// Any single-bit flip anywhere in a block's ciphertext is caught by
    /// the per-block MAC.
    #[test]
    fn any_ciphertext_bit_flip_is_detected(
        seed in 0u64..u64::MAX,
        block in 0u64..SPAN / 128,
        byte in 0usize..128,
        bit in 0u8..8,
    ) {
        let mut mem = primed(seed);
        let addr = block * 128;
        mem.tamper_ciphertext_bit(addr, byte, bit);
        prop_assert_eq!(mem.read_block(addr), Err(VerifyError::BlockMacMismatch));
    }

    /// Any single-bit flip in a stored per-block MAC is caught.
    #[test]
    fn any_block_mac_bit_flip_is_detected(
        seed in 0u64..u64::MAX,
        block in 0u64..SPAN / 128,
        bit in 0u32..64,
    ) {
        let mut mem = primed(seed);
        let addr = block * 128;
        mem.tamper_block_mac(addr, 1u64 << bit);
        prop_assert_eq!(mem.read_block(addr), Err(VerifyError::BlockMacMismatch));
    }

    /// Rolling any block's counter back to its reset value trips the
    /// freshness check.
    #[test]
    fn any_counter_reset_is_detected(
        seed in 0u64..u64::MAX,
        block in 0u64..SPAN / 128,
    ) {
        let mut mem = primed(seed);
        let addr = block * 128;
        mem.tamper_counter_reset(addr);
        prop_assert_eq!(mem.read_block(addr), Err(VerifyError::FreshnessViolation));
    }

    /// Any single-bit corruption of a BMT leaf trips the freshness check.
    #[test]
    fn any_bmt_leaf_bit_flip_is_detected(
        seed in 0u64..u64::MAX,
        block in 0u64..SPAN / 128,
        bit in 0u32..64,
    ) {
        let mut mem = primed(seed);
        let addr = block * 128;
        let leaf = mem.snapshot_bmt_leaf(addr);
        mem.tamper_bmt_leaf(addr, leaf ^ (1u64 << bit));
        prop_assert_eq!(mem.read_block(addr), Err(VerifyError::FreshnessViolation));
    }

    /// Any single-bit flip in a streaming chunk MAC fails chunk
    /// verification.
    #[test]
    fn any_chunk_mac_bit_flip_is_detected(
        seed in 0u64..u64::MAX,
        chunk in 0u64..SPAN / 4096,
        bit in 0u32..64,
    ) {
        let mut mem = primed(seed);
        let addr = chunk * 4096;
        mem.produce_chunk_mac(addr);
        mem.tamper_chunk_mac(addr, 1u64 << bit);
        prop_assert_eq!(mem.verify_chunk(addr), Err(VerifyError::ChunkMacMismatch));
    }
}
