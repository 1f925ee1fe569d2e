//! Deterministic fault-injection and adversary campaigns against the
//! functional secure-memory engine.
//!
//! The paper's security argument (Tables I/II) is a claim about *detection*:
//! every physically plausible tamper against off-chip state must surface as
//! the right [`VerifyError`] variant, and legitimate traffic must never trip
//! a check.  This crate turns that claim into an executable experiment:
//!
//! * [`TamperKind`] enumerates the attack classes of the threat model, each
//!   mapped to the check that must catch it ([`TamperKind::expected`]).
//! * [`build_campaign`] expands a named campaign (`"smoke"`, `"full"`) into
//!   a seeded script of [`AttackStep`]s — single-shot tampers, bursts,
//!   Rowhammer-style row-neighbour flips and replay sequences.  Everything
//!   derives from one [`SplitMix64`] seed: no wall clock, no global RNG, so
//!   the same seed always produces the same script and the same report.
//! * [`run_campaign`] executes the script against a fresh [`SecureMemory`]
//!   per step (state repair between steps by construction) and classifies
//!   every injection as detected, wrong-variant or silent, plus a clean-run
//!   pass asserting zero false alarms.  The result is a
//!   [`CampaignReport`] whose detection matrix the CLI renders and CI gates.
//!
//! ```
//! let report = shm_fault::run_campaign("smoke", 7).expect("known campaign");
//! assert!(report.all_detected() && report.false_alarms == 0);
//! ```

use gpu_types::{SplitMix64, BLOCK_BYTES, CHUNK_BYTES};
use shm_crypto::KeyTuple;
use shm_dram::{DramConfig, DramPartition};
use shm_metadata::{SecureMemory, VerifyError};

/// Protected span the campaigns attack.  Large enough that a Rowhammer
/// aggressor has in-span row neighbours one row stride (row bytes × banks)
/// away in either direction.
const SPAN: u64 = 256 * 1024;

/// One attack class of the threat model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TamperKind {
    /// Flip one ciphertext bit in place.
    CiphertextBitFlip,
    /// Corrupt the stored per-block MAC.
    MacCorruption,
    /// Copy another address's ciphertext+MAC over the victim (splice).
    BlockSplice,
    /// Copy another address's MAC only over the victim's.
    MacSplice,
    /// Roll ciphertext+MAC back to a consistent earlier snapshot.
    BlockReplay,
    /// Roll ciphertext, MAC *and* counter back together — the full replay
    /// that defeats the MAC and only the BMT stops.
    FullReplay,
    /// Reset the victim's counter sector to its initial state.
    CounterReset,
    /// Overwrite the BMT leaf covering the victim's counter line.
    BmtNodeTamper,
    /// Rowhammer: bit flips land in the row-buffer neighbours of an
    /// aggressor row, one flip per neighbouring block.
    RowhammerNeighborFlips,
    /// Corrupt the 4 KB chunk MAC covering the victim.
    ChunkTamper,
    /// One-shot bit flip on the wire: corrupts exactly one fetch, gone on
    /// re-fetch (the transient the retry-once recovery policy absorbs).
    TransientBitFlip,
    /// Power-cut tear: a write's ciphertext lands but its MAC, counter and
    /// BMT micro-ops do not; the campaign asserts the torn state can never
    /// be served silently.
    TornWrite,
    /// Man-in-the-middle on the CPU↔GPU coherent link: flip wire bytes of a
    /// page mid-migration between the pools.  The link MAC must reject the
    /// page before anything commits at the destination.
    InterPoolTamper,
}

/// Every attack class, in matrix order.
pub const ALL_KINDS: [TamperKind; 13] = [
    TamperKind::CiphertextBitFlip,
    TamperKind::MacCorruption,
    TamperKind::BlockSplice,
    TamperKind::MacSplice,
    TamperKind::BlockReplay,
    TamperKind::FullReplay,
    TamperKind::CounterReset,
    TamperKind::BmtNodeTamper,
    TamperKind::RowhammerNeighborFlips,
    TamperKind::ChunkTamper,
    TamperKind::TransientBitFlip,
    TamperKind::TornWrite,
    TamperKind::InterPoolTamper,
];

impl TamperKind {
    /// Stable matrix label.
    pub fn label(self) -> &'static str {
        match self {
            TamperKind::CiphertextBitFlip => "ciphertext_bit_flip",
            TamperKind::MacCorruption => "mac_corruption",
            TamperKind::BlockSplice => "block_splice",
            TamperKind::MacSplice => "mac_splice",
            TamperKind::BlockReplay => "block_replay",
            TamperKind::FullReplay => "full_replay",
            TamperKind::CounterReset => "counter_reset",
            TamperKind::BmtNodeTamper => "bmt_node_tamper",
            TamperKind::RowhammerNeighborFlips => "rowhammer_neighbor_flips",
            TamperKind::ChunkTamper => "chunk_tamper",
            TamperKind::TransientBitFlip => "transient_bit_flip",
            TamperKind::TornWrite => "torn_write",
            TamperKind::InterPoolTamper => "inter_pool_tamper",
        }
    }

    /// The `VerifyError` variant that must catch this class (Table I/II
    /// threat-model mapping — see `docs/ROBUSTNESS.md`).
    pub fn expected(self) -> VerifyError {
        match self {
            TamperKind::CiphertextBitFlip
            | TamperKind::MacCorruption
            | TamperKind::BlockSplice
            | TamperKind::MacSplice
            | TamperKind::BlockReplay
            | TamperKind::RowhammerNeighborFlips
            | TamperKind::TransientBitFlip
            | TamperKind::TornWrite
            | TamperKind::InterPoolTamper => VerifyError::BlockMacMismatch,
            TamperKind::FullReplay | TamperKind::CounterReset | TamperKind::BmtNodeTamper => {
                VerifyError::FreshnessViolation
            }
            TamperKind::ChunkTamper => VerifyError::ChunkMacMismatch,
        }
    }
}

/// One scripted step: tamper at every listed address, then probe each.
/// One address is a single-shot attack; several are a burst (all injected
/// before any probe runs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttackStep {
    /// Attack class applied at every address of this step.
    pub kind: TamperKind,
    /// Block-aligned victim addresses (for Rowhammer: the aggressor rows).
    pub addrs: Vec<u64>,
}

/// A named, fully expanded attack script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign name (`"smoke"`, `"full"`).
    pub name: String,
    /// Seed the script was expanded from.
    pub seed: u64,
    /// Steps in execution order.
    pub steps: Vec<AttackStep>,
}

/// Row stride of the modelled DRAM partition: consecutive rows of one bank
/// are this far apart in the address space.
fn row_stride() -> u64 {
    let cfg = DramConfig::default();
    cfg.row_bytes * cfg.num_banks as u64
}

/// A block-aligned address with in-span row neighbours on both sides.
fn pick_aggressor(rng: &mut SplitMix64) -> u64 {
    let stride = row_stride();
    let lo = stride / BLOCK_BYTES;
    let hi = (SPAN - stride) / BLOCK_BYTES;
    (lo + rng.next_below(hi - lo)) * BLOCK_BYTES
}

fn pick_block(rng: &mut SplitMix64) -> u64 {
    rng.next_below(SPAN / BLOCK_BYTES) * BLOCK_BYTES
}

/// Expands a named campaign under `seed`; `None` for unknown names.
///
/// `"smoke"` runs one single-shot step per attack class; `"full"` adds
/// burst rounds (several victims injected before any probe) and repeats
/// each class three times at fresh addresses.
pub fn build_campaign(name: &str, seed: u64) -> Option<CampaignSpec> {
    let rounds: &[usize] = match name {
        "smoke" => &[1],
        "full" => &[1, 3, 2],
        _ => return None,
    };
    let mut rng = SplitMix64::new(seed ^ 0x5EED_FA17);
    let mut steps = Vec::new();
    for &burst in rounds {
        for kind in ALL_KINDS {
            let addrs = match kind {
                TamperKind::RowhammerNeighborFlips => vec![pick_aggressor(&mut rng)],
                // Replay sequences, chunk tampers and migration tampers
                // probe one victim per step; everything else bursts.
                TamperKind::BlockReplay
                | TamperKind::FullReplay
                | TamperKind::ChunkTamper
                | TamperKind::InterPoolTamper => {
                    vec![pick_block(&mut rng)]
                }
                _ => {
                    let mut v: Vec<u64> = (0..burst).map(|_| pick_block(&mut rng)).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                }
            };
            steps.push(AttackStep { kind, addrs });
        }
    }
    Some(CampaignSpec {
        name: name.to_string(),
        seed,
        steps,
    })
}

/// Verdict for one injected tamper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Incident {
    /// Attack class injected.
    pub kind: TamperKind,
    /// Block address probed.
    pub addr: u64,
    /// The variant that should have fired.
    pub expected: VerifyError,
    /// What the probe saw (`None` = the read verified — silent corruption).
    pub observed: Option<VerifyError>,
    /// Transient only: the re-fetch returned the original plaintext.
    pub recovered: bool,
}

impl Incident {
    /// The injection surfaced as exactly the expected variant.
    pub fn detected(&self) -> bool {
        self.observed == Some(self.expected)
    }
}

/// One detection-matrix row: totals for a single attack class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatrixEntry {
    /// Tampers injected.
    pub injected: usize,
    /// Caught by the expected variant.
    pub detected: usize,
    /// Caught, but by the wrong variant.
    pub wrong_variant: usize,
    /// Verified clean after tampering — a broken security claim.
    pub silent: usize,
}

/// Everything a campaign run learned.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Seed the script ran under.
    pub seed: u64,
    /// Per-class totals, in [`ALL_KINDS`] order.
    pub matrix: Vec<(TamperKind, MatrixEntry)>,
    /// Per-injection verdicts, in execution order.
    pub incidents: Vec<Incident>,
    /// Clean-run reads that failed verification (must be 0).
    pub false_alarms: usize,
    /// Blocks read back clean in the false-alarm pass.
    pub clean_blocks: usize,
    /// Serves the timing model counted from rows the campaign marked
    /// faulted (Rowhammer cross-check; > 0 whenever Rowhammer ran).
    pub dram_corrupted_serves: u64,
}

impl CampaignReport {
    /// Tampers injected across all classes.
    pub fn total_injected(&self) -> usize {
        self.matrix.iter().map(|(_, e)| e.injected).sum()
    }

    /// Tampers caught by the expected variant.
    pub fn total_detected(&self) -> usize {
        self.matrix.iter().map(|(_, e)| e.detected).sum()
    }

    /// True when every injection surfaced as the expected variant.
    pub fn all_detected(&self) -> bool {
        self.total_detected() == self.total_injected()
    }

    /// True when the run upholds the full claim: 100% detection, zero
    /// silent corruptions, zero false alarms.
    pub fn is_clean_pass(&self) -> bool {
        self.all_detected() && self.false_alarms == 0
    }

    /// Renders the detection matrix as a fixed-width table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign {} (seed {}): {}/{} tampers detected, {} wrong-variant, {} silent, {} false alarms over {} clean blocks",
            self.name,
            self.seed,
            self.total_detected(),
            self.total_injected(),
            self.matrix.iter().map(|(_, e)| e.wrong_variant).sum::<usize>(),
            self.matrix.iter().map(|(_, e)| e.silent).sum::<usize>(),
            self.false_alarms,
            self.clean_blocks,
        );
        let _ = writeln!(
            out,
            "  {:<26} {:>8} {:>8} {:>6} {:>6}  expected",
            "kind", "injected", "detected", "wrong", "silent"
        );
        for (kind, e) in &self.matrix {
            let _ = writeln!(
                out,
                "  {:<26} {:>8} {:>8} {:>6} {:>6}  {}",
                kind.label(),
                e.injected,
                e.detected,
                e.wrong_variant,
                e.silent,
                kind.expected().label(),
            );
        }
        out
    }
}

/// Deterministic per-address fill byte, so expected plaintext never needs
/// to be stored.
fn fill_byte(seed: u64, addr: u64) -> u8 {
    let mut r = SplitMix64::new(seed ^ addr.rotate_left(17));
    r.next_u64() as u8
}

/// A fresh engine primed with every block the step touches.
fn primed_memory(seed: u64, blocks: &[u64]) -> SecureMemory {
    let mut mem = SecureMemory::new(SPAN, &KeyTuple::derive(seed ^ 0xCAFE_F00D));
    for &addr in blocks {
        mem.write_block(addr, &[fill_byte(seed, addr); 128]);
    }
    mem
}

/// The blocks a step needs primed: victims, Rowhammer neighbours, and the
/// whole chunk for chunk-MAC attacks.
fn required_blocks(step: &AttackStep) -> Vec<u64> {
    let mut blocks = Vec::new();
    for &addr in &step.addrs {
        match step.kind {
            TamperKind::RowhammerNeighborFlips => {
                let stride = row_stride();
                blocks.push(addr.saturating_sub(stride));
                blocks.push(addr);
                blocks.push(addr + stride);
            }
            TamperKind::ChunkTamper => {
                let chunk = addr - addr % CHUNK_BYTES;
                for b in 0..(CHUNK_BYTES / BLOCK_BYTES) {
                    blocks.push(chunk + b * BLOCK_BYTES);
                }
            }
            _ => blocks.push(addr),
        }
    }
    blocks.sort_unstable();
    blocks.dedup();
    blocks
}

/// Injects `kind` at `addr` and returns the addresses to probe.
fn inject(
    mem: &mut SecureMemory,
    dram: &mut DramPartition,
    rng: &mut SplitMix64,
    seed: u64,
    kind: TamperKind,
    addr: u64,
) -> Vec<u64> {
    match kind {
        TamperKind::CiphertextBitFlip => {
            mem.tamper_ciphertext_bit(addr, rng.next_below(128) as usize, rng.next_below(8) as u8);
            vec![addr]
        }
        TamperKind::MacCorruption => {
            mem.tamper_block_mac(addr, 1 << rng.next_below(64));
            vec![addr]
        }
        TamperKind::BlockSplice => {
            let mut src = pick_block(rng);
            if src == addr {
                src = (addr + BLOCK_BYTES) % SPAN;
            }
            mem.write_block(src, &[fill_byte(seed, src); 128]);
            mem.splice_blocks(src, addr);
            vec![addr]
        }
        TamperKind::MacSplice => {
            let mut src = pick_block(rng);
            if src == addr {
                src = (addr + BLOCK_BYTES) % SPAN;
            }
            mem.write_block(src, &[fill_byte(seed, src); 128]);
            mem.splice_block_macs(src, addr);
            vec![addr]
        }
        TamperKind::BlockReplay => {
            let stale = mem.snapshot_block(addr);
            mem.write_block(addr, &[fill_byte(seed, addr) ^ 0xFF; 128]);
            mem.replay_block(addr, stale.0, stale.1);
            vec![addr]
        }
        TamperKind::FullReplay => {
            let stale = mem.snapshot_block(addr);
            let ctr = mem.snapshot_counter(addr);
            mem.write_block(addr, &[fill_byte(seed, addr) ^ 0xFF; 128]);
            mem.replay_block(addr, stale.0, stale.1);
            mem.replay_counter(addr, ctr);
            vec![addr]
        }
        TamperKind::CounterReset => {
            mem.tamper_counter_reset(addr);
            vec![addr]
        }
        TamperKind::BmtNodeTamper => {
            let good = mem.snapshot_bmt_leaf(addr);
            mem.tamper_bmt_leaf(addr, good ^ (1 << rng.next_below(64)));
            vec![addr]
        }
        TamperKind::RowhammerNeighborFlips => {
            // The aggressor row disturbs its physical neighbours: one bit
            // flip per neighbouring block, and the timing layer marks the
            // rows faulted so corrupted serves can be cross-checked.
            let stride = row_stride();
            let victims = vec![addr - stride, addr + stride];
            for &v in &victims {
                mem.tamper_ciphertext_bit(v, rng.next_below(128) as usize, rng.next_below(8) as u8);
                dram.inject_fault(v);
            }
            victims
        }
        TamperKind::ChunkTamper => {
            mem.produce_chunk_mac(addr);
            mem.tamper_chunk_mac(addr, 1 << rng.next_below(64));
            vec![addr]
        }
        TamperKind::TransientBitFlip => {
            mem.inject_transient_fault(addr, rng.next_below(128) as usize, rng.next_below(8) as u8);
            vec![addr]
        }
        TamperKind::TornWrite => {
            // Power cut after the ciphertext micro-op: the new ciphertext
            // lands, MAC and counter stay pre-write (the consistent restore
            // keeps the BMT agreeing with the stale counter, as on real
            // hardware where neither was updated).
            let (_, old_mac) = mem.snapshot_block(addr);
            let old_ctr = mem.snapshot_counter(addr);
            mem.write_block(addr, &[fill_byte(seed, addr) ^ 0xA5; 128]);
            mem.restore_block_mac(addr, old_mac);
            mem.restore_counter(addr, old_ctr);
            vec![addr]
        }
        TamperKind::InterPoolTamper => {
            // The attack hits the inter-pool link, not resident state; the
            // probe drives the tampered migration itself (`probe_migration`).
            vec![addr]
        }
    }
}

/// Drives one page migration through the secure inter-pool channel with a
/// wire tamper whose parameters derive deterministically from `seed ^ addr`
/// (mask forced non-zero, so the fault is never a no-op).  Returns what the
/// receiver's link-MAC check observed.
fn probe_migration(seed: u64, addr: u64) -> Option<VerifyError> {
    let page_bytes = 2048u64;
    let mut r = SplitMix64::new(seed ^ addr.rotate_left(29));
    let mut channel = shm_pool::MigrationChannel::new(seed ^ addr, page_bytes);
    let tamper = shm_pool::LinkTamper {
        block: r.next_below(page_bytes / BLOCK_BYTES),
        byte: r.next_below(BLOCK_BYTES) as usize,
        mask: (r.next_below(255) + 1) as u8,
    };
    channel
        .transfer_page(addr, Some(tamper))
        .err()
        .map(|v| v.error)
}

/// Probes one victim after injection and classifies the outcome.
fn probe(mem: &mut SecureMemory, seed: u64, kind: TamperKind, addr: u64) -> Incident {
    let observed = match kind {
        TamperKind::ChunkTamper => mem.verify_chunk(addr).err(),
        TamperKind::InterPoolTamper => probe_migration(seed, addr),
        _ => mem.read_block(addr).err(),
    };
    let recovered = match kind {
        TamperKind::TransientBitFlip => {
            // The fault corrupts exactly one fetch; the re-fetch must
            // verify and return the original plaintext.
            mem.read_block(addr)
                .is_ok_and(|block| block == [fill_byte(seed, addr); 128])
        }
        _ => false,
    };
    Incident {
        kind,
        addr,
        expected: kind.expected(),
        observed,
        recovered,
    }
}

/// Runs a named campaign to completion; `None` for unknown names.
///
/// Each step executes against a freshly primed engine (so steps cannot
/// contaminate each other), and a clean pass over an untampered engine
/// counts false alarms.  Same name + same seed ⇒ identical report.
pub fn run_campaign(name: &str, seed: u64) -> Option<CampaignReport> {
    let spec = build_campaign(name, seed)?;
    run_spec(&spec)
}

/// Runs an already expanded script (what the CLI uses after printing it).
pub fn run_spec(spec: &CampaignSpec) -> Option<CampaignReport> {
    let seed = spec.seed;
    let mut rng = SplitMix64::new(seed ^ 0x14C3_C7E5);
    let mut dram = DramPartition::new(DramConfig::default());
    let mut incidents = Vec::new();

    for step in &spec.steps {
        let blocks = required_blocks(step);
        let mut mem = primed_memory(seed, &blocks);
        // Burst semantics: every tamper of the step lands before any probe.
        let mut victims = Vec::new();
        for &addr in &step.addrs {
            victims.extend(inject(&mut mem, &mut dram, &mut rng, seed, step.kind, addr));
        }
        for &v in &victims {
            dram.access(0, v, BLOCK_BYTES, false);
            incidents.push(probe(&mut mem, seed, step.kind, v));
        }
    }

    // Clean pass: prime a fresh engine and read everything back — any
    // failure here is a false alarm, any wrong byte a correctness bug.
    let clean_blocks: Vec<u64> = (0..SPAN / BLOCK_BYTES).map(|i| i * BLOCK_BYTES).collect();
    let mut clean = primed_memory(seed, &clean_blocks);
    let mut false_alarms = 0;
    for &addr in &clean_blocks {
        match clean.read_block(addr) {
            Ok(block) if block == [fill_byte(seed, addr); 128] => {}
            _ => false_alarms += 1,
        }
    }

    let mut matrix: Vec<(TamperKind, MatrixEntry)> = ALL_KINDS
        .iter()
        .map(|&k| (k, MatrixEntry::default()))
        .collect();
    for inc in &incidents {
        let entry = &mut matrix
            .iter_mut()
            .find(|(k, _)| *k == inc.kind)
            .expect("kind present")
            .1;
        entry.injected += 1;
        if inc.detected() {
            entry.detected += 1;
        } else if inc.observed.is_some() {
            entry.wrong_variant += 1;
        } else {
            entry.silent += 1;
        }
    }
    matrix.retain(|(_, e)| e.injected > 0);

    Some(CampaignReport {
        name: spec.name.clone(),
        seed,
        matrix,
        incidents,
        false_alarms,
        clean_blocks: clean_blocks.len(),
        dram_corrupted_serves: dram.corrupted_accesses(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_detects_everything() {
        let report = run_campaign("smoke", 7).expect("known campaign");
        assert!(report.is_clean_pass(), "\n{}", report.render());
        assert_eq!(report.matrix.len(), ALL_KINDS.len());
        assert_eq!(report.false_alarms, 0);
        assert!(report.total_injected() >= ALL_KINDS.len());
    }

    #[test]
    fn full_campaign_detects_everything_with_bursts() {
        let report = run_campaign("full", 7).expect("known campaign");
        assert!(report.is_clean_pass(), "\n{}", report.render());
        // Bursts make the full campaign strictly larger than smoke.
        let smoke = run_campaign("smoke", 7).expect("smoke");
        assert!(report.total_injected() > smoke.total_injected());
    }

    #[test]
    fn same_seed_same_report() {
        let a = run_campaign("full", 42).expect("run a");
        let b = run_campaign("full", 42).expect("run b");
        assert_eq!(a.render(), b.render());
        assert_eq!(a.incidents, b.incidents);
    }

    #[test]
    fn different_seeds_attack_different_addresses() {
        let a = build_campaign("smoke", 1).expect("a");
        let b = build_campaign("smoke", 2).expect("b");
        assert_ne!(a.steps, b.steps);
    }

    #[test]
    fn unknown_campaign_is_none() {
        assert!(build_campaign("nope", 7).is_none());
        assert!(run_campaign("nope", 7).is_none());
    }

    #[test]
    fn rowhammer_marks_faulted_rows_in_the_timing_model() {
        let report = run_campaign("smoke", 11).expect("run");
        assert!(
            report.dram_corrupted_serves > 0,
            "rowhammer victims must be served from marked rows"
        );
    }

    #[test]
    fn transient_faults_recover_on_refetch() {
        let report = run_campaign("smoke", 7).expect("run");
        let transients: Vec<&Incident> = report
            .incidents
            .iter()
            .filter(|i| i.kind == TamperKind::TransientBitFlip)
            .collect();
        assert!(!transients.is_empty());
        for t in transients {
            assert!(t.detected(), "transient must trip the MAC once");
            assert!(t.recovered, "re-fetch must return clean data");
        }
    }

    #[test]
    fn inter_pool_tamper_never_silent() {
        for (name, seed) in [("smoke", 7u64), ("smoke", 31), ("full", 7)] {
            let report = run_campaign(name, seed).expect("run");
            let entry = report
                .matrix
                .iter()
                .find(|(k, _)| *k == TamperKind::InterPoolTamper)
                .expect("inter_pool_tamper row")
                .1;
            assert!(entry.injected > 0);
            assert_eq!(entry.detected, entry.injected, "\n{}", report.render());
            assert_eq!(entry.silent, 0, "\n{}", report.render());
        }
    }

    #[test]
    fn render_includes_every_kind_and_expected_variant() {
        let report = run_campaign("smoke", 7).expect("run");
        let table = report.render();
        for kind in ALL_KINDS {
            assert!(table.contains(kind.label()), "missing {}", kind.label());
        }
        assert!(table.contains("block_mac_mismatch"));
        assert!(table.contains("freshness_violation"));
        assert!(table.contains("chunk_mac_mismatch"));
    }
}
