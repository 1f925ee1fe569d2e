//! Specification tests for Tables III and IV: every
//! (prediction, detection, read-only, access-kind) row of the
//! misprediction-handling tables, exercised against the SHM engine with a
//! controlled single-chunk scenario, asserting the bandwidth consequence
//! the paper prescribes.

use gpu_types::{AccessKind, GpuConfig, MemorySpace, PhysAddr, ShmConfig, SimStats, TrafficClass};
use secure_core::{DramFabric, MemRequest};
use shm::{DesignPoint, ShmSystem};

const CHUNK: u64 = 4096;

fn cfg() -> GpuConfig {
    GpuConfig::default()
}

fn req(c: &GpuConfig, phys: u64, kind: AccessKind) -> MemRequest {
    MemRequest::new(
        PhysAddr::new(phys),
        c.partition_map(),
        kind,
        MemorySpace::Global,
        32,
    )
}

/// Runs a closure-driven scenario, returning the end stats and fabric.
fn scenario(
    readonly_len: u64,
    body: impl FnOnce(&mut ShmSystem, &GpuConfig, &mut DramFabric, &mut SimStats),
) -> (SimStats, DramFabric) {
    let c = cfg();
    let mut sys = ShmSystem::new(DesignPoint::Shm, &c, ShmConfig::default(), None);
    if readonly_len > 0 {
        sys.mark_readonly_range(c.partition_map(), PhysAddr::new(0), readonly_len);
    }
    let mut fabric = DramFabric::new(&c);
    let mut stats = SimStats::default();
    body(&mut sys, &c, &mut fabric, &mut stats);
    (stats, fabric)
}

/// Sweep the first `n` physical sectors at cycle stride `dt`.
fn sweep(
    sys: &mut ShmSystem,
    c: &GpuConfig,
    fabric: &mut DramFabric,
    stats: &mut SimStats,
    n: u64,
    dt: u64,
    kind: AccessKind,
) {
    for i in 0..n {
        sys.process(i * dt, &req(c, i * 32, kind), fabric, stats);
    }
}

// ---------------------------------------------------------------------------
// Table III — read accesses
// ---------------------------------------------------------------------------

/// Row 1: predicted stream, detected stream (any read-only status): zero
/// overhead — only chunk MACs move.
#[test]
fn read_stream_predicted_stream_detected_costs_nothing_extra() {
    // Full local-chunk coverage: 12 partitions x 1 chunk each.
    let n = 12 * CHUNK / 32;
    let (stats, fabric) = scenario(12 * CHUNK, |sys, c, f, s| {
        sweep(sys, c, f, s, n, 1, AccessKind::Read);
    });
    assert_eq!(stats.stream_mispredictions, 0);
    assert_eq!(
        fabric.traffic().class_total(TrafficClass::MispredictFixup),
        0
    );
    assert!(stats.chunk_mac_accesses > 0, "chunk MACs unused");
    // Read-only: no counters, no tree.
    assert_eq!(fabric.traffic().class_total(TrafficClass::Counter), 0);
    assert_eq!(fabric.traffic().class_total(TrafficClass::Bmt), 0);
}

/// Row 2: predicted stream, detected random, READ-ONLY region: the fix-up
/// is a block-MAC re-fetch (cheap), never a data re-fetch.
#[test]
fn read_stream_predicted_random_detected_readonly_refetches_block_macs_only() {
    let (stats, fabric) = scenario(1 << 20, |sys, c, f, s| {
        // Hammer two blocks of one chunk until the tracker times out.
        for i in 0..80u64 {
            let phys = (i % 2) * 32;
            sys.process(i * 200, &req(c, phys, AccessKind::Read), f, s);
        }
    });
    assert!(stats.stream_mispredictions > 0, "no verdict rendered");
    let fixup = fabric.traffic().class_total(TrafficClass::MispredictFixup);
    assert!(fixup > 0, "no fix-up charged");
    assert!(
        fixup <= CHUNK / 128 * 8 * 4,
        "read-only fix-up moved more than the chunk's block MACs: {fixup}"
    );
}

/// Row 3: predicted random, detected random: zero overhead (block MACs).
#[test]
fn read_random_predicted_random_detected_costs_nothing_extra() {
    let c = cfg();
    let mut sys = ShmSystem::new(DesignPoint::Shm, &c, ShmConfig::default(), None);
    let mut fabric = DramFabric::new(&c);
    let mut stats = SimStats::default();
    // First, force the chunk's predictor entry to random.
    for i in 0..80u64 {
        let phys = (i % 2) * 32;
        sys.process(
            i * 200,
            &req(&c, phys, AccessKind::Read),
            &mut fabric,
            &mut stats,
        );
    }
    let fixups_before = fabric.traffic().class_total(TrafficClass::MispredictFixup);
    // Now random reads under a random prediction: no further penalty.
    for i in 0..40u64 {
        let phys = (i % 3) * 64;
        sys.process(
            40_000 + i * 200,
            &req(&c, phys, AccessKind::Read),
            &mut fabric,
            &mut stats,
        );
    }
    assert_eq!(
        fabric.traffic().class_total(TrafficClass::MispredictFixup),
        fixups_before,
        "random-predicted random reads still paid fix-ups"
    );
}

/// Row 4: predicted random, detected stream, non-read-only: re-fetch the
/// chunk-level MAC (cheap) so future reads can use it.
#[test]
fn read_random_predicted_stream_detected_refetches_chunk_mac() {
    let n = 12 * CHUNK / 32;
    let (stats, fabric) = scenario(0, |sys, c, f, s| {
        // Force the chunk entries to random first (writes ⇒ non-read-only).
        for i in 0..80u64 {
            let phys = (i % 2) * 32;
            sys.process(i * 200, &req(c, phys, AccessKind::Read), f, s);
        }
        // Then stream the whole local chunk: trackers detect streaming.
        sweep(sys, c, f, s, n, 1, AccessKind::Read);
        // Let remaining trackers time out.
        sys.process(1_000_000, &req(c, 0, AccessKind::Read), f, s);
    });
    // At least one random→stream correction happened, and the charged
    // fix-ups stay far below a whole-chunk data refetch per flip.
    assert!(stats.stream_mispredictions > 0);
    let fixup = fabric.traffic().class_total(TrafficClass::MispredictFixup);
    assert!(
        fixup < 12 * CHUNK,
        "random->stream handling should never refetch whole chunks: {fixup}"
    );
}

// ---------------------------------------------------------------------------
// Table IV — write accesses
// ---------------------------------------------------------------------------

/// Row 1/4: streaming writes under a streaming prediction produce block
/// MACs on chip (clean) and persist only the chunk MAC.
#[test]
fn write_stream_predicted_stream_detected_persists_only_chunk_macs() {
    let n = 12 * CHUNK / 32;
    let (_, fabric) = scenario(0, |sys, c, f, s| {
        sweep(sys, c, f, s, n, 1, AccessKind::Write);
        // Flush the metadata caches so every dirty line reaches DRAM.
        sys.flush(1_000_000, f, s);
    });
    let t = fabric.traffic();
    let mac_writes = t.write[TrafficClass::Mac as usize];
    // Only chunk MACs (8 B per 4 KB chunk, written at 32 B sector grain)
    // should persist — far below the 8 B/128 B block-MAC footprint (3 KB).
    assert!(
        mac_writes <= 12 * 32 * 2,
        "streaming writes persisted block MACs: {mac_writes} bytes"
    );
}

/// Row 2: writes under a streaming prediction later detected random must
/// re-fetch the chunk's data to reproduce the stale block MACs.
#[test]
fn write_stream_predicted_random_detected_refetches_chunk_data() {
    let (stats, fabric) = scenario(0, |sys, c, f, s| {
        for i in 0..80u64 {
            let phys = (i % 2) * 32;
            sys.process(i * 200, &req(c, phys, AccessKind::Write), f, s);
        }
    });
    assert!(stats.stream_mispredictions > 0);
    let fixup = fabric.traffic().class_total(TrafficClass::MispredictFixup);
    assert!(
        fixup >= CHUNK,
        "stale block MACs require a whole-chunk data refetch, got {fixup}"
    );
}

/// Row 3: random writes under a random prediction: block MACs update
/// normally, zero fix-up.
#[test]
fn write_random_predicted_random_detected_costs_nothing_extra() {
    let c = cfg();
    let mut sys = ShmSystem::new(DesignPoint::Shm, &c, ShmConfig::default(), None);
    let mut fabric = DramFabric::new(&c);
    let mut stats = SimStats::default();
    // Settle the chunk to random via reads, and let all trackers expire.
    for i in 0..80u64 {
        sys.process(
            i * 200,
            &req(&c, (i % 2) * 32, AccessKind::Read),
            &mut fabric,
            &mut stats,
        );
    }
    sys.process(
        100_000,
        &req(&c, 0, AccessKind::Read),
        &mut fabric,
        &mut stats,
    );
    let before = fabric.traffic().class_total(TrafficClass::MispredictFixup);
    // Random writes under the (now random) prediction: block-MAC updates,
    // zero additional fix-up traffic.
    for i in 0..40u64 {
        sys.process(
            200_000 + i * 200,
            &req(&c, (i % 2) * 32, AccessKind::Write),
            &mut fabric,
            &mut stats,
        );
    }
    let mac_writes = fabric.traffic().write[TrafficClass::Mac as usize]
        + fabric.traffic().class_total(TrafficClass::Mac);
    assert!(mac_writes > 0, "block MACs never updated");
    assert_eq!(
        fabric.traffic().class_total(TrafficClass::MispredictFixup),
        before,
        "random-predicted random writes paid fix-ups"
    );
}

/// Mispredictions are performance events, never correctness events: the
/// functional engine accepts every legitimate access in all of the above
/// scenarios (checked end-to-end by `end_to_end_security` and the runtime
/// tests), and the perf engine never rejects a request.
#[test]
fn mispredictions_never_reject_accesses() {
    let n = 2 * 12 * CHUNK / 32;
    let (stats, _) = scenario(12 * CHUNK, |sys, c, f, s| {
        // A hostile mix: stream + hammer + writes over the same chunks.
        sweep(sys, c, f, s, n, 3, AccessKind::Read);
        for i in 0..200u64 {
            sys.process(
                100_000 + i * 97,
                &req(c, (i % 7) * 32, AccessKind::Write),
                f,
                s,
            );
        }
        sweep(sys, c, f, s, n, 5, AccessKind::Read);
    });
    // Every access completed (the engine returns a completion cycle for
    // all of them; reaching here without panic is the assertion), and the
    // detectors were genuinely exercised.
    assert!(stats.stream_mispredictions > 0 || stats.readonly_mispredictions > 0);
}
