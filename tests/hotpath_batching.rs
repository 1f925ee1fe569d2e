//! Hot-path optimizations must be invisible in results: the AES-NI
//! backend and the profiler re-tiling may change wall time only, never a
//! simulated statistic or an encrypted byte.

use std::sync::Mutex;

use gpu_mem_sim::DesignPoint;
use proptest::prelude::*;
use shm_bench::{scaled_suite, BenchRow, Executor, Sweep};
use shm_crypto::aes::{aesni_available, reference, Aes128};

/// Profiling is a process-global toggle whose phase timers charge every
/// simulation in the process; every test that simulates serializes on this
/// lock, and the one that turns profiling on turns it off again.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

const SCALE: f64 = 0.05;

/// The suite sweep over `designs` at `scale` on `jobs` local workers.
fn suite_rows(designs: &[DesignPoint], scale: f64, jobs: usize) -> Vec<BenchRow> {
    let sweep = Sweep {
        executor: Executor::new(jobs),
        ..Sweep::suite(designs, scale)
    };
    let run = sweep.run(|_, job| job.run()).expect("sweep");
    sweep.rows(run.complete().expect("sweep completes"))
}

/// The profiler's exclusive phase tiling must still account for
/// essentially the whole sweep after the hot-path overhaul — hoisting
/// guards out of the per-access path may not open coverage holes.
#[test]
fn profiled_sweep_still_tiles_the_wall_clock() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::phase::set_profiling(true);
    shm_metrics::phase::reset_phases();
    let started = std::time::Instant::now();
    let _ = suite_rows(&[DesignPoint::Pssm, DesignPoint::Shm], SCALE, 1);
    let wall = started.elapsed().as_nanos() as u64;
    let covered = shm_metrics::phase::total_nanos();
    shm_metrics::phase::set_profiling(false);

    assert!(
        covered <= wall,
        "exclusive tiling exceeds wall ({covered} > {wall})"
    );
    let coverage = covered as f64 / wall as f64;
    assert!(
        coverage > 0.7,
        "phases tile only {:.1}% of wall — a hot path escaped the profiler",
        coverage * 100.0
    );
}

/// The suite is scale-invariant in shape: the profiles the identity sweep
/// runs are the same ones every figure target uses.
#[test]
fn identity_sweep_covers_the_whole_suite() {
    let profiles = scaled_suite(SCALE);
    assert!(!profiles.is_empty());
    let rows = {
        let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
        suite_rows(&[DesignPoint::Shm], SCALE, 1)
    };
    assert_eq!(rows.len(), profiles.len());
}

/// Assembles a 16-byte AES input from two random words.
fn bytes16(hi: u64, lo: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&hi.to_le_bytes());
    out[8..].copy_from_slice(&lo.to_le_bytes());
    out
}

proptest! {
    /// The AES-NI backend is a drop-in for the T-table path: same
    /// ciphertext for any key and block.  Skips (trivially passing) on
    /// hosts without the AES extension — the runtime dispatcher falls
    /// back to T-tables there, so there is nothing to cross-check.
    #[test]
    fn aesni_matches_ttable_for_any_key_and_block(
        k0 in any::<u64>(), k1 in any::<u64>(),
        b0 in any::<u64>(), b1 in any::<u64>(),
    ) {
        if aesni_available() {
            let (key, block) = (bytes16(k0, k1), bytes16(b0, b1));
            let aes = Aes128::new(key);
            let hw = aes.encrypt_block_aesni(block).expect("aesni available");
            prop_assert_eq!(hw, aes.encrypt_block_ttable(block));
        }
    }

    /// Both table-driven implementations match the FIPS-197 per-byte
    /// reference, independent of hardware.
    #[test]
    fn ttable_matches_reference_for_any_key_and_block(
        k0 in any::<u64>(), k1 in any::<u64>(),
        b0 in any::<u64>(), b1 in any::<u64>(),
    ) {
        let (key, block) = (bytes16(k0, k1), bytes16(b0, b1));
        let aes = Aes128::new(key);
        let rk = reference::expand(key);
        prop_assert_eq!(aes.encrypt_block_ttable(block), reference::encrypt_block(&rk, block));
    }
}
