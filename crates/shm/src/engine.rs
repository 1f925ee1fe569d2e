//! The secure-memory engine behind every design point of Table VIII.
//!
//! One per-partition state block composes the MEE core from `secure-core`
//! with the paper's adaptive mechanisms, and the design's columns
//! ([`DesignPoint`]) decide which of them run:
//!
//! * metadata is addressed from physical addresses (Naive, Common_ctr) or
//!   partition-local ones, and fetched as whole lines or 32 B sectors;
//! * common counters let reads of compressed pages skip the counter fetch;
//! * reads/writes in predicted-read-only regions use the on-chip shared
//!   counter — no counter fetch, no BMT walk;
//! * a write into a read-only region transitions it (Fig. 8): counters
//!   propagate from the shared counter directly in the counter cache and
//!   the BMT grows to cover them;
//! * predicted-streaming chunks are authenticated with 8 B chunk-level MACs;
//!   predicted-random chunks with 8 B per-block MACs;
//! * tracker verdicts that contradict the prediction trigger the bandwidth
//!   fix-ups of Tables III and IV (charged as
//!   [`TrafficClass::MispredictFixup`]);
//! * optionally, the L2 serves as a victim cache for evicted metadata lines
//!   (enabled when the sampled L2 data miss rate exceeds the threshold).
//!
//! The baselines (Unprotected, Naive, Common_ctr, PSSM, PSSM_cctr) run the
//! same read and write paths with the detector columns off: no predictor
//! lookup, no constant/texture shortcut and no trackers.

use gpu_types::{
    GpuConfig, LocalAddr, PartitionId, PhysAddr, ShmConfig, SimStats, TrafficClass, BLOCK_BYTES,
};
use secure_core::mdc::NoVictim;
use secure_core::{Addressing, CommonCounterTable, DramFabric, MeeCore, MemRequest, VictimStore};
use shm_telemetry::{Event, Probe};

use crate::design::DesignPoint;
use crate::oracle::OracleProfile;
use crate::readonly::ReadOnlyPredictor;
use crate::streaming::{AccessTrackers, Detection, StreamingPredictor};

/// Per-partition engine state.
#[derive(Debug)]
struct PartitionShm {
    mee: MeeCore,
    common: CommonCounterTable,
    /// The SHM detectors; `None` for designs without them (the baselines).
    detectors: Option<Detectors>,
    /// Victim caching currently engaged (driven by sampled L2 miss rate).
    victim_engaged: bool,
}

/// One partition's read-only and streaming detectors.
#[derive(Debug)]
struct Detectors {
    readonly: ReadOnlyPredictor,
    streaming: StreamingPredictor,
    trackers: AccessTrackers,
}

/// The whole-GPU secure-memory system.
#[derive(Debug)]
pub struct ShmSystem {
    design: DesignPoint,
    shm_cfg: ShmConfig,
    partitions: Vec<PartitionShm>,
    oracle: Option<OracleProfile>,
    probe: Probe,
}

impl ShmSystem {
    /// Builds the system for `design` over `cfg`'s geometry.
    ///
    /// `oracle` supplies ground truth: required for
    /// [`DesignPoint::ShmUpperBound`], and used by every SHM design to break
    /// down predictor accuracy (Figs. 10/11).  The baselines ignore it and
    /// `shm_cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `design` is `ShmUpperBound` and no oracle is given.
    pub fn new(
        design: DesignPoint,
        cfg: &GpuConfig,
        shm_cfg: ShmConfig,
        oracle: Option<OracleProfile>,
    ) -> Self {
        assert!(
            !design.oracle() || oracle.is_some(),
            "SHM_upper_bound requires an oracle profile"
        );
        let addressing = design.addressing();
        let span = match addressing {
            Addressing::Local => cfg.protected_bytes_per_partition(),
            Addressing::Physical => cfg.protected_bytes,
        };
        // The SHM designs' dual-granularity MAC layout must agree with the
        // streaming detector's chunk size.
        let mut mdc = cfg.mdc.clone();
        if design.readonly_detector() {
            mdc.chunk_bytes = shm_cfg.chunk_bytes;
        }
        let partitions = (0..cfg.num_partitions)
            .map(|p| PartitionShm {
                mee: MeeCore::new(PartitionId(p), span, addressing, &mdc),
                common: CommonCounterTable::new(),
                detectors: design.readonly_detector().then(|| Detectors {
                    readonly: ReadOnlyPredictor::new(
                        shm_cfg.readonly_predictor_entries,
                        shm_cfg.readonly_region_bytes,
                    ),
                    streaming: StreamingPredictor::new(
                        shm_cfg.streaming_predictor_entries,
                        shm_cfg.chunk_bytes,
                    ),
                    trackers: AccessTrackers::with_chunk_bytes(
                        shm_cfg.num_trackers,
                        shm_cfg.tracker_phase_accesses,
                        shm_cfg.tracker_timeout_cycles,
                        shm_cfg.chunk_bytes,
                    ),
                }),
                victim_engaged: false,
            })
            .collect();
        Self {
            design,
            shm_cfg,
            partitions,
            oracle,
            probe: Probe::disabled(),
        }
    }

    /// Attaches a telemetry probe to the engine and every partition MEE;
    /// detector transitions and misprediction fix-ups are reported here,
    /// metadata-cache activity in the MEE cores.
    pub fn set_probe(&mut self, probe: &Probe) {
        self.probe = probe.clone();
        for p in &mut self.partitions {
            p.mee.set_probe(probe.clone());
        }
    }

    /// Marks a physical range read-only at context initialisation (host
    /// memory copies and constant/texture allocations).  The range is
    /// translated per partition via `map`.  Designs without the read-only
    /// detector ignore it, as they do the other host APIs below.
    pub fn mark_readonly_range(&mut self, map: gpu_types::PartitionMap, start: PhysAddr, len: u64) {
        // Conservatively mark whole covered local regions per partition: a
        // long physical range covers `len / num_partitions` of each
        // partition's local space.
        let mut addr = start.raw();
        let end = start.raw() + len;
        let region = self.shm_cfg.readonly_region_bytes;
        while addr < end {
            let la = map.to_local(PhysAddr::new(addr));
            let Some(d) = &mut self.partitions[la.partition.index()].detectors else {
                return;
            };
            d.readonly.mark_readonly(la.offset, 1, la.partition);
            // Stride by one region in the local space = region * partitions
            // in physical space (approximately; re-derive each step).
            addr += region.min(end - addr).min(map.granularity());
        }
    }

    /// Applies the `InputReadOnlyReset(range)` API (Section IV-B): re-marks
    /// the range read-only.  The shared counter it also advances carries no
    /// timing or traffic, so the performance model does not track it (the
    /// functional store in `shm-metadata` does).
    pub fn input_readonly_reset(
        &mut self,
        map: gpu_types::PartitionMap,
        start: PhysAddr,
        len: u64,
    ) {
        let mut addr = start.raw();
        let end = start.raw() + len;
        while addr < end {
            let la = map.to_local(PhysAddr::new(addr));
            let Some(d) = &mut self.partitions[la.partition.index()].detectors else {
                return;
            };
            d.readonly.input_readonly_reset(la.offset, 1, la.partition);
            addr += map.granularity();
        }
    }

    /// Records a host memory copy performed *mid-context*: the overwritten
    /// regions are no longer read-only (their shared-counter ciphertext
    /// would alias), so the predictor bits clear, matching Section IV-B's
    /// "once a region is updated by a store instruction or another CUDA
    /// memory copy API, the bit will be reset".
    pub fn host_memcpy(&mut self, map: gpu_types::PartitionMap, start: PhysAddr, len: u64) {
        let mut addr = start.raw();
        let end = start.raw() + len;
        while addr < end {
            let la = map.to_local(PhysAddr::new(addr));
            let Some(d) = &mut self.partitions[la.partition.index()].detectors else {
                return;
            };
            d.readonly.on_write(la);
            addr += map.granularity();
        }
    }

    /// The metadata layout of one partition's MEE (used by the simulator to
    /// classify metadata addresses spilled into the L2 victim cache).
    pub fn layout(&self, partition: PartitionId) -> &shm_metadata::MetadataLayout {
        &self.partitions[partition.index()].mee.layout
    }

    /// Updates the victim-cache engagement decision for one partition from
    /// its sampled L2 data miss rate (Section IV-D).
    pub fn update_victim_policy(&mut self, partition: PartitionId, sampled_miss_rate: Option<f64>) {
        let p = &mut self.partitions[partition.index()];
        if !self.design.victim_l2() {
            p.victim_engaged = false;
            return;
        }
        if let Some(rate) = sampled_miss_rate {
            p.victim_engaged = rate >= self.shm_cfg.l2_victim_miss_threshold;
        }
    }

    /// Whether victim caching is currently engaged for `partition`.
    pub fn victim_engaged(&self, partition: PartitionId) -> bool {
        self.partitions[partition.index()].victim_engaged
    }

    /// The detectors of every partition; none without the read-only
    /// detector.
    fn detectors(&self) -> impl Iterator<Item = &Detectors> {
        self.partitions.iter().filter_map(|p| p.detectors.as_ref())
    }

    /// Read-only predictor accuracy, summed over partitions (Fig. 10).
    pub fn readonly_accuracy(&self) -> crate::readonly::RoAccuracy {
        let mut acc = crate::readonly::RoAccuracy::default();
        for d in self.detectors() {
            let a = d.readonly.accuracy();
            acc.correct += a.correct;
            acc.mp_init += a.mp_init;
            acc.mp_aliasing += a.mp_aliasing;
        }
        acc
    }

    /// Streaming predictor accuracy, summed over partitions (Fig. 11).
    pub fn streaming_accuracy(&self) -> crate::streaming::StreamAccuracy {
        let mut acc = crate::streaming::StreamAccuracy::default();
        for d in self.detectors() {
            let a = d.streaming.accuracy();
            acc.correct += a.correct;
            acc.mp_init += a.mp_init;
            acc.mp_runtime_read_only += a.mp_runtime_read_only;
            acc.mp_runtime_non_read_only += a.mp_runtime_non_read_only;
            acc.mp_aliasing += a.mp_aliasing;
        }
        acc
    }

    /// Processes one L2 miss / write-back.  `victim` is the partition's L2
    /// acting as victim store (pass a `NoVictim` if unavailable); it is only
    /// consulted while the victim policy is engaged.
    ///
    /// Returns the cycle at which the request completes: for reads, when
    /// decrypted data can be forwarded to the L2 (data sent onward without
    /// waiting for integrity verification, as in the paper); for writes,
    /// when the write-back has been handed to DRAM.
    pub fn process_with_victim(
        &mut self,
        now: u64,
        req: &MemRequest,
        fabric: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) -> u64 {
        let design = self.design;
        let pid = req.local.partition;

        // --- the data transfer itself -----------------------------------
        let data_done = fabric.access_local(
            now,
            pid,
            req.local.offset,
            req.bytes,
            req.is_write(),
            TrafficClass::Data,
        );
        if !design.protected() {
            return data_done;
        }

        let p = &mut self.partitions[pid.index()];
        // Everything below is security-metadata work: predictions, counters,
        // MACs, BMT and fix-ups.
        let _meta_phase = p.mee.begin_request();

        // --- prediction ------------------------------------------------
        let (ro_pred, stream_pred) = match &mut p.detectors {
            Some(d) => {
                let (ro, stream) = d.predict(design, self.oracle.as_ref(), req.local);
                // Constant, texture and instruction memory are
                // architecturally read-only during kernel execution
                // (Table I): the command processor guarantees it, so the
                // shared counter serves them whatever the predictor says,
                // and no transition can occur.
                (ro || req.space.is_architecturally_read_only(), stream)
            }
            None => (false, false),
        };
        // Whether the oracle says the request's chunk really streams
        // (assumed so without an oracle).
        let truly_streaming = || {
            self.oracle
                .as_ref()
                .is_none_or(|o| o.chunk_streaming(req.local))
        };

        let mut no_victim = NoVictim;
        let victim: &mut dyn VictimStore = if p.victim_engaged {
            victim
        } else {
            &mut no_victim
        };
        let sectored = design.sectored_metadata();
        // The common-counter table is indexed in the metadata address space.
        let ctr_key = match design.addressing() {
            Addressing::Local => req.local.offset,
            Addressing::Physical => req.phys.raw(),
        };

        let mee = &mut p.mee;
        let done = if req.is_write() {
            // ---------------- write-back path ---------------------------
            let transitioned = match &mut p.detectors {
                Some(d) if ro_pred => d.readonly.on_write(req.local),
                _ => false,
            };
            if transitioned {
                // Transition read-only -> not-read-only (Fig. 8): clear the
                // bit and propagate the shared counter into per-block
                // counters directly in the counter cache.
                stats.readonly_mispredictions += 1;
                let region_base = req.local.offset & !(self.shm_cfg.readonly_region_bytes - 1);
                self.probe.emit(
                    now,
                    Event::DetectorTransition {
                        partition: pid.index(),
                        region: region_base / self.shm_cfg.readonly_region_bytes,
                        detector: "readonly",
                    },
                );
                mee.propagate_region_counters(
                    now,
                    region_base,
                    self.shm_cfg.readonly_region_bytes,
                    pid,
                    fabric,
                    victim,
                    stats,
                );
            }
            // From here on this is a normal counter-protected write: the
            // counter increments (plus BMT path update) unless the common-
            // counter sweep keeps the page compressed.
            if !design.common_counters() || p.common.record_write(ctr_key) {
                mee.update_counter(now, req.local, req.phys, sectored, fabric, victim, stats);
            }

            // MAC handling (Table IV).
            if design.dual_mac() && stream_pred && truly_streaming() {
                // Streaming write: block MACs are produced on chip, kept
                // clean; only the chunk-level MAC is persisted.
                mee.produce_block_mac_clean(now, req.local, req.phys, fabric, victim, stats);
                mee.update_chunk_mac(now, req.local, req.phys, fabric, victim, stats);
            } else {
                if design.dual_mac() && stream_pred {
                    // Mispredicted-streaming write to a chunk that never
                    // fully streams: the chunk-level MAC can never be
                    // reproduced from cached block MACs, so the block MAC
                    // must be persisted (Table IV's stream→random row).
                    stats.stream_mispredictions += 1;
                }
                mee.update_block_mac(now, req.local, req.phys, sectored, fabric, victim, stats);
            }
            data_done
        } else {
            // ---------------- read path --------------------------------
            // The OTP needs the counter; decryption gates data return.
            let ctr_ready = if ro_pred {
                // Shared counter: on-chip, no fetch, no BMT walk.
                stats.readonly_fast_path += 1;
                now
            } else if design.common_counters() && p.common.read_is_compressed(ctr_key) {
                now
            } else {
                mee.fetch_counter(now, req.local, req.phys, sectored, fabric, victim, stats)
            };

            // MAC handling (Table III): fetch per prediction; verification
            // is off the critical path.
            if design.dual_mac() && stream_pred {
                mee.fetch_chunk_mac(now, req.local, req.phys, fabric, victim, stats);
                // A chunk that never fully streams can never be verified
                // against its chunk-level MAC (the other block MACs never
                // materialise in the MAC cache): the second-chance check of
                // Section IV-C falls back to the per-block MAC, costing its
                // fetch on every such read.
                if !truly_streaming() {
                    mee.fetch_block_mac(now, req.local, req.phys, sectored, fabric, victim, stats);
                    // The failed second-chance check is itself a pattern
                    // signal: the predictor entry flips to random so the
                    // chunk stops paying the double fetch.
                    if let Some(d) = p.detectors.as_mut().filter(|_| !design.oracle()) {
                        stats.stream_mispredictions += 1;
                        d.streaming.update(&Detection {
                            chunk: req.local.chunk(),
                            streaming: false,
                            had_write: false,
                            predicted_streaming: true,
                        });
                    }
                }
            } else {
                mee.fetch_block_mac(now, req.local, req.phys, sectored, fabric, victim, stats);
            }
            data_done.max(ctr_ready) + mee.aes_latency()
        };

        // --- detection & misprediction fix-ups --------------------------
        if let Some(d) = p
            .detectors
            .as_mut()
            .filter(|_| design.dual_mac() && !design.oracle())
        {
            let mut dets = d.trackers.poll(now);
            if let Some(det) = d
                .trackers
                .observe(now, req.local, req.is_write(), stream_pred)
            {
                dets.push(det);
            }
            let chunk_bytes = self.shm_cfg.chunk_bytes;
            for det in dets {
                d.apply_detection(&det, mee, chunk_bytes, now, fabric, stats, &self.probe);
            }
        }

        done
    }

    /// Processes a request without a victim store.
    pub fn process(
        &mut self,
        now: u64,
        req: &MemRequest,
        fabric: &mut DramFabric,
        stats: &mut SimStats,
    ) -> u64 {
        let mut nv = NoVictim;
        self.process_with_victim(now, req, fabric, &mut nv, stats)
    }

    /// Flushes all metadata caches (end of context).
    pub fn flush(&mut self, now: u64, fabric: &mut DramFabric, stats: &mut SimStats) {
        let mut nv = NoVictim;
        for p in &mut self.partitions {
            p.mee.flush(now, fabric, &mut nv, stats);
        }
    }
}

impl Detectors {
    /// Computes the (read-only, streaming) predictions for a request,
    /// accounting accuracy against the oracle when available.
    fn predict(
        &mut self,
        design: DesignPoint,
        oracle: Option<&OracleProfile>,
        la: LocalAddr,
    ) -> (bool, bool) {
        match (design.oracle(), oracle) {
            (true, Some(o)) => (o.region_read_only(la), o.chunk_streaming(la)),
            (false, Some(o)) => {
                let ro_truth = o.region_read_only(la);
                let st_truth = o.chunk_streaming(la);
                let ro = self.readonly.predict_accounted(la, ro_truth);
                let st = self.streaming.predict_accounted(la, st_truth, ro_truth);
                (ro, st)
            }
            (false, None) => (self.readonly.predict(la), self.streaming.predict(la)),
            (true, None) => unreachable!("checked in constructor"),
        }
    }

    /// Applies a tracker verdict: updates the bit vector and charges the
    /// misprediction bandwidth of Tables III/IV through `mee`.
    #[allow(clippy::too_many_arguments)]
    fn apply_detection(
        &mut self,
        det: &Detection,
        mee: &mut MeeCore,
        chunk_bytes: u64,
        now: u64,
        fabric: &mut DramFabric,
        stats: &mut SimStats,
        probe: &Probe,
    ) {
        let chunk_base = LocalAddr::new(det.chunk.partition, det.chunk.index * chunk_bytes);
        // Compare against the *current* bit-vector prediction: the entry may
        // already have been corrected (e.g. by a failed chunk-MAC check)
        // since the tracker captured its prediction, in which case the
        // fix-up has already been paid.
        let current_pred = self.streaming.predict(chunk_base);
        self.streaming.update(det);
        if det.streaming == current_pred {
            return; // prediction already agrees: zero overhead
        }
        stats.stream_mispredictions += 1;
        probe.emit(
            now,
            Event::DetectorTransition {
                partition: det.chunk.partition.index(),
                region: det.chunk.index,
                detector: "streaming",
            },
        );
        let det = &Detection {
            predicted_streaming: current_pred,
            ..*det
        };
        let region_ro = self.readonly.predict(chunk_base);
        let pid = det.chunk.partition;
        let mut nv = NoVictim;

        match (
            det.predicted_streaming,
            det.streaming,
            region_ro,
            det.had_write,
        ) {
            // Predicted stream, detected random:
            (true, false, _, false) => {
                // No write ever happened under chunk-MAC mode, so the
                // per-block MACs in memory are still current (Table III's
                // read-only row, generalised by the tracker's write flag):
                // re-fetch them to verify the forwarded data.
                let bytes = chunk_bytes / BLOCK_BYTES * gpu_types::MAC_BYTES_PER_BLOCK;
                fabric.access_local(
                    now,
                    pid,
                    mee.layout.block_mac_sector(chunk_base.offset),
                    bytes,
                    false,
                    TrafficClass::MispredictFixup,
                );
                probe.emit(
                    now,
                    Event::MispredictFixup {
                        partition: pid.index(),
                        bytes,
                    },
                );
            }
            (true, false, _, _) => {
                // Written while predicted streaming: the in-memory block
                // MACs are stale, so every data block of the chunk must be
                // re-fetched to (re)produce the per-block MACs (Table IV).
                fabric.access_local(
                    now,
                    pid,
                    chunk_base.offset,
                    chunk_bytes,
                    false,
                    TrafficClass::MispredictFixup,
                );
                probe.emit(
                    now,
                    Event::MispredictFixup {
                        partition: pid.index(),
                        bytes: chunk_bytes,
                    },
                );
                // The produced block MACs are installed (clean -> dirty).
                for b in 0..(chunk_bytes / BLOCK_BYTES) {
                    let la = LocalAddr::new(pid, chunk_base.offset + b * BLOCK_BYTES);
                    mee.update_block_mac(
                        now,
                        la,
                        PhysAddr::new(la.offset),
                        true,
                        fabric,
                        &mut nv,
                        stats,
                    );
                }
            }
            // Predicted random, detected stream:
            (false, true, true, false) => {
                // Read-only: per-block MACs are always up to date — zero cost.
            }
            (true, true, _, _) | (false, false, _, _) => {
                unreachable!("handled by the early return on correct predictions")
            }
            (false, true, _, _) => {
                // Re-fetch and re-produce the chunk-level MAC.
                fabric.access_local(
                    now,
                    pid,
                    mee.layout.chunk_mac_sector(chunk_base.offset),
                    gpu_types::SECTOR_BYTES,
                    false,
                    TrafficClass::MispredictFixup,
                );
                probe.emit(
                    now,
                    Event::MispredictFixup {
                        partition: pid.index(),
                        bytes: gpu_types::SECTOR_BYTES,
                    },
                );
                mee.update_chunk_mac(
                    now,
                    chunk_base,
                    PhysAddr::new(chunk_base.offset),
                    fabric,
                    &mut nv,
                    stats,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_types::{AccessKind, MemEvent, MemorySpace};

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

    fn sys(design: DesignPoint, oracle: Option<OracleProfile>) -> ShmSystem {
        ShmSystem::new(design, &cfg(), ShmConfig::default(), oracle)
    }

    /// Streaming read trace over `n` sectors.
    fn stream_events(n: u64) -> Vec<MemEvent> {
        (0..n)
            .map(|i| MemEvent::global(PhysAddr::new(i * 32), AccessKind::Read))
            .collect()
    }

    fn run(system: &mut ShmSystem, events: &[MemEvent]) -> (SimStats, DramFabric) {
        let c = cfg();
        let mut fabric = DramFabric::new(&c);
        let mut stats = SimStats::default();
        for (i, ev) in events.iter().enumerate() {
            let r = req(&c, ev.addr.raw(), ev.kind);
            system.process(i as u64, &r, &mut fabric, &mut stats);
        }
        system.flush(events.len() as u64 * 10, &mut fabric, &mut stats);
        stats.traffic = fabric.traffic();
        (stats, fabric)
    }

    /// `n` sequential 32 B reads or writes, all issued at cycle 0.
    fn run_stream(design: DesignPoint, writes: bool, n: u64) -> (SimStats, DramFabric) {
        let c = cfg();
        let mut s = sys(design, None);
        let mut fabric = DramFabric::new(&c);
        let mut stats = SimStats::default();
        for i in 0..n {
            let k = if writes {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            s.process(0, &req(&c, i * 32, k), &mut fabric, &mut stats);
        }
        s.flush(1_000_000, &mut fabric, &mut stats);
        stats.traffic = fabric.traffic();
        (stats, fabric)
    }

    #[test]
    fn unprotected_moves_only_data() {
        let (stats, _) = run_stream(DesignPoint::Unprotected, false, 1000);
        assert_eq!(stats.traffic.data_bytes(), 32_000);
        assert_eq!(stats.traffic.metadata_bytes(), 0);
    }

    #[test]
    fn naive_has_much_higher_overhead_than_pssm() {
        let (naive, _) = run_stream(DesignPoint::Naive, false, 4000);
        let (pssm, _) = run_stream(DesignPoint::Pssm, false, 4000);
        let naive_oh = naive.traffic.overhead_ratio();
        let pssm_oh = pssm.traffic.overhead_ratio();
        assert!(
            naive_oh > 2.0 * pssm_oh,
            "naive {naive_oh:.3} vs pssm {pssm_oh:.3}"
        );
    }

    #[test]
    fn naive_generates_cross_partition_traffic() {
        let (_, fabric) = run_stream(DesignPoint::Naive, false, 4000);
        assert!(fabric.cross_partition_accesses() > 0);
        let (_, fabric) = run_stream(DesignPoint::Pssm, false, 4000);
        assert_eq!(fabric.cross_partition_accesses(), 0);
    }

    #[test]
    fn common_counters_cut_counter_traffic_for_reads() {
        let (cctr, _) = run_stream(DesignPoint::CommonCtr, false, 4000);
        let (naive, _) = run_stream(DesignPoint::Naive, false, 4000);
        let c = cctr.traffic.class_total(TrafficClass::Counter)
            + cctr.traffic.class_total(TrafficClass::Bmt);
        let n = naive.traffic.class_total(TrafficClass::Counter)
            + naive.traffic.class_total(TrafficClass::Bmt);
        assert!(c < n / 4, "common {c} vs naive {n}");
    }

    #[test]
    fn streaming_writes_stay_compressed_under_common_counters() {
        let (pssm_w, _) = run_stream(DesignPoint::Pssm, true, 4096);
        let (cctr_w, _) = run_stream(DesignPoint::PssmCctr, true, 4096);
        let c = cctr_w.traffic.class_total(TrafficClass::Counter);
        let p = pssm_w.traffic.class_total(TrafficClass::Counter);
        assert!(c < p, "common counter writes {c} vs split {p}");
    }

    #[test]
    fn reads_pay_aes_latency() {
        let c = cfg();
        let mut pssm = sys(DesignPoint::Pssm, None);
        let mut unprot = sys(DesignPoint::Unprotected, None);
        let mut f1 = DramFabric::new(&c);
        let mut f2 = DramFabric::new(&c);
        let mut stats = SimStats::default();
        let r = req(&c, 0, AccessKind::Read);
        let secure = pssm.process(0, &r, &mut f1, &mut stats);
        let plain = unprot.process(0, &r, &mut f2, &mut stats);
        assert!(
            secure > plain,
            "secure read not slower: {secure} vs {plain}"
        );
    }

    #[test]
    fn mac_traffic_dominates_pssm_reads() {
        // PSSM's remaining overhead is MAC-dominated (the paper's motivation
        // for dual-granularity MACs).
        let (pssm, _) = run_stream(DesignPoint::Pssm, false, 8000);
        let mac = pssm.traffic.class_total(TrafficClass::Mac);
        let ctr = pssm.traffic.class_total(TrafficClass::Counter);
        let bmt = pssm.traffic.class_total(TrafficClass::Bmt);
        assert!(mac > ctr + bmt, "mac={mac} ctr={ctr} bmt={bmt}");
    }

    #[test]
    fn readonly_regions_skip_counters_and_bmt() {
        let events = stream_events(8192);
        let mut s = sys(DesignPoint::Shm, None);
        s.mark_readonly_range(cfg().partition_map(), PhysAddr::new(0), 8192 * 32);
        let (stats, _) = run(&mut s, &events);
        assert_eq!(
            stats.traffic.class_total(TrafficClass::Counter)
                + stats.traffic.class_total(TrafficClass::Bmt),
            0,
            "read-only reads must not touch counters or BMT"
        );
        assert!(stats.readonly_fast_path > 0);
    }

    #[test]
    fn non_readonly_reads_fetch_counters() {
        let events = stream_events(4096);
        let mut s = sys(DesignPoint::Shm, None);
        let (stats, _) = run(&mut s, &events);
        assert!(stats.traffic.class_total(TrafficClass::Counter) > 0);
    }

    #[test]
    fn streaming_chunks_use_chunk_macs() {
        // 8192 sequential sectors: predictor starts all-streaming, so chunk
        // MACs are used throughout; MAC traffic should be far below the
        // per-block 8B/128B ratio.
        let events = stream_events(8192);
        let mut s = sys(DesignPoint::Shm, None);
        s.mark_readonly_range(cfg().partition_map(), PhysAddr::new(0), 8192 * 32);
        let (stats, _) = run(&mut s, &events);
        let data = stats.traffic.data_bytes();
        let mac = stats.traffic.class_total(TrafficClass::Mac);
        assert!(stats.chunk_mac_accesses > 0);
        assert!(
            (mac as f64) < 0.02 * data as f64,
            "chunk MACs should cost <2% of data: mac={mac} data={data}"
        );
    }

    #[test]
    fn shm_readonly_variant_uses_block_macs() {
        let events = stream_events(8192);
        let mut s = sys(DesignPoint::ShmReadOnly, None);
        s.mark_readonly_range(cfg().partition_map(), PhysAddr::new(0), 8192 * 32);
        let (stats, _) = run(&mut s, &events);
        let data = stats.traffic.data_bytes();
        let mac = stats.traffic.class_total(TrafficClass::Mac);
        assert_eq!(stats.chunk_mac_accesses, 0);
        // Per-block MACs: ~6.25% of data traffic on a streaming read.
        assert!(
            (mac as f64) > 0.04 * data as f64,
            "block MACs expected: mac={mac} data={data}"
        );
    }

    #[test]
    fn shm_beats_readonly_only_on_streaming_workloads() {
        let events = stream_events(8192);
        let c = cfg();
        let mut full = sys(DesignPoint::Shm, None);
        full.mark_readonly_range(c.partition_map(), PhysAddr::new(0), 8192 * 32);
        let mut ro = sys(DesignPoint::ShmReadOnly, None);
        ro.mark_readonly_range(c.partition_map(), PhysAddr::new(0), 8192 * 32);
        let (full_stats, _) = run(&mut full, &events);
        let (ro_stats, _) = run(&mut ro, &events);
        assert!(
            full_stats.traffic.overhead_ratio() < ro_stats.traffic.overhead_ratio(),
            "SHM {:.4} should beat SHM_readOnly {:.4}",
            full_stats.traffic.overhead_ratio(),
            ro_stats.traffic.overhead_ratio()
        );
    }

    #[test]
    fn write_transition_propagates_counters() {
        let c = cfg();
        let mut s = sys(DesignPoint::Shm, None);
        s.mark_readonly_range(c.partition_map(), PhysAddr::new(0), 1 << 20);
        let mut fabric = DramFabric::new(&c);
        let mut stats = SimStats::default();
        // A write into the read-only range triggers the Fig. 8 transition.
        s.process(
            0,
            &req(&c, 4096, AccessKind::Write),
            &mut fabric,
            &mut stats,
        );
        assert_eq!(stats.readonly_mispredictions, 1);
        // A second write to the same region is not a transition.
        s.process(
            1,
            &req(&c, 4128, AccessKind::Write),
            &mut fabric,
            &mut stats,
        );
        assert_eq!(stats.readonly_mispredictions, 1);
    }

    #[test]
    fn random_access_flips_predictor_and_uses_block_macs() {
        let c = cfg();
        let mut s = sys(DesignPoint::Shm, None);
        let mut fabric = DramFabric::new(&c);
        let mut stats = SimStats::default();
        // Hammer 2 blocks of one chunk; the tracker can never reach K
        // distinct blocks, so the 6000-cycle timeout flips the chunk to
        // random.
        let mut flips_before = stats.stream_mispredictions;
        for i in 0..64u64 {
            let phys = (i % 2) * 32;
            s.process(
                i * 200,
                &req(&c, phys, AccessKind::Read),
                &mut fabric,
                &mut stats,
            );
        }
        flips_before = stats.stream_mispredictions - flips_before;
        assert!(flips_before >= 1, "tracker should flip the chunk to random");
        // Fix-up traffic was charged.
        assert!(
            fabric.traffic().class_total(TrafficClass::MispredictFixup) > 0,
            "misprediction fix-up bandwidth missing"
        );
    }

    #[test]
    fn upper_bound_requires_oracle() {
        let result = std::panic::catch_unwind(|| sys(DesignPoint::ShmUpperBound, None));
        assert!(result.is_err());
    }

    #[test]
    fn upper_bound_has_no_mispredictions() {
        let events = stream_events(8192);
        let oracle = OracleProfile::from_trace(&events, cfg().partition_map());
        let mut s = sys(DesignPoint::ShmUpperBound, Some(oracle));
        let (stats, _) = run(&mut s, &events);
        assert_eq!(stats.stream_mispredictions, 0);
        assert_eq!(stats.traffic.class_total(TrafficClass::MispredictFixup), 0);
    }

    #[test]
    fn upper_bound_no_worse_than_detected_shm() {
        let events = stream_events(8192);
        let map = cfg().partition_map();
        let oracle = OracleProfile::from_trace(&events, map);
        let mut ub = sys(DesignPoint::ShmUpperBound, Some(oracle.clone()));
        let mut full = sys(DesignPoint::Shm, Some(oracle));
        let (ub_stats, _) = run(&mut ub, &events);
        let (full_stats, _) = run(&mut full, &events);
        assert!(
            ub_stats.traffic.metadata_bytes() <= full_stats.traffic.metadata_bytes(),
            "oracle {} should not exceed detected {}",
            ub_stats.traffic.metadata_bytes(),
            full_stats.traffic.metadata_bytes()
        );
    }

    #[test]
    fn accuracy_accounting_with_oracle() {
        let events = stream_events(4096);
        let map = cfg().partition_map();
        let oracle = OracleProfile::from_trace(&events, map);
        let mut s = sys(DesignPoint::Shm, Some(oracle));
        let _ = run(&mut s, &events);
        let ro = s.readonly_accuracy();
        let st = s.streaming_accuracy();
        assert!(ro.total() > 0);
        assert!(st.total() > 0);
        // The trace is read-only (no writes) but nothing was marked at init:
        // read-only mispredictions should be dominated by MP_Init.
        assert!(ro.mp_init > 0);
        assert!(ro.mp_aliasing <= ro.mp_init);
    }

    #[test]
    fn constant_and_texture_spaces_skip_counters_without_marking() {
        // Table I: architecturally read-only spaces need no predictor state
        // — even with nothing marked at init, their reads take the shared
        // counter fast path.
        let c = cfg();
        let mut s = sys(DesignPoint::Shm, None);
        let mut fabric = DramFabric::new(&c);
        let mut stats = SimStats::default();
        for (i, space) in [
            gpu_types::MemorySpace::Constant,
            gpu_types::MemorySpace::Texture,
            gpu_types::MemorySpace::Instruction,
        ]
        .iter()
        .enumerate()
        {
            let r = MemRequest::new(
                PhysAddr::new(i as u64 * 4096),
                c.partition_map(),
                AccessKind::Read,
                *space,
                32,
            );
            s.process(i as u64, &r, &mut fabric, &mut stats);
        }
        assert_eq!(stats.readonly_fast_path, 3);
        assert_eq!(
            fabric.traffic().class_total(TrafficClass::Counter)
                + fabric.traffic().class_total(TrafficClass::Bmt),
            0
        );
    }

    #[test]
    fn victim_policy_gates_on_miss_rate() {
        let mut s = sys(DesignPoint::ShmVL2, None);
        s.update_victim_policy(PartitionId(0), Some(0.95));
        assert!(s.victim_engaged(PartitionId(0)));
        s.update_victim_policy(PartitionId(0), Some(0.50));
        assert!(!s.victim_engaged(PartitionId(0)));
        // Designs without the victim cache never engage.
        let mut plain = sys(DesignPoint::Shm, None);
        plain.update_victim_policy(PartitionId(0), Some(0.99));
        assert!(!plain.victim_engaged(PartitionId(0)));
    }

    #[test]
    fn input_readonly_reset_restores_fast_path() {
        let c = cfg();
        let mut s = sys(DesignPoint::Shm, None);
        s.mark_readonly_range(c.partition_map(), PhysAddr::new(0), 1 << 20);
        let mut fabric = DramFabric::new(&c);
        let mut stats = SimStats::default();
        // Kernel 1 writes the region: transitions to per-block counters.
        s.process(0, &req(&c, 0, AccessKind::Write), &mut fabric, &mut stats);
        // Host resets it for kernel 2.
        s.input_readonly_reset(c.partition_map(), PhysAddr::new(0), 1 << 20);
        let before = stats.readonly_fast_path;
        s.process(1, &req(&c, 0, AccessKind::Read), &mut fabric, &mut stats);
        assert_eq!(stats.readonly_fast_path, before + 1);
    }
}
