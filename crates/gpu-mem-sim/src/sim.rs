//! The trace-driven simulation loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gpu_types::{
    AccessKind, GpuConfig, MemEvent, PartitionId, ShmConfig, SimStats, TrafficClass, SECTOR_BYTES,
};
use secure_core::{DramFabric, MemRequest};
use shm::{DesignPoint, OracleProfile, ShmSystem};
use shm_cache::Eviction;
use shm_metadata::MetadataKind;
use shm_pool::PoolSim;
use shm_telemetry::{Event, Hook, Probe};

use crate::l2::{L2Bank, L2Outcome, L2_HIT_LATENCY};
use crate::trace::{ContextTrace, HostAction};

/// A trace-driven simulation of one design point on the Table-V GPU.
pub struct Simulator {
    cfg: GpuConfig,
    shm_cfg: ShmConfig,
    design: DesignPoint,
    probe: Probe,
    pools: Option<shm_pool::PoolsConfig>,
}

impl Simulator {
    /// Creates a simulator for `design` over `cfg`'s geometry.
    pub fn new(cfg: &GpuConfig, design: DesignPoint) -> Self {
        Self {
            cfg: cfg.clone(),
            shm_cfg: ShmConfig::default(),
            design,
            probe: Probe::disabled(),
            pools: None,
        }
    }

    /// Overrides the SHM mechanism configuration.
    pub fn with_shm_config(mut self, shm_cfg: ShmConfig) -> Self {
        self.shm_cfg = shm_cfg;
        self
    }

    /// Attaches a heterogeneous-pool model (CPU-side DRAM pool behind a
    /// coherent link). Without this call the simulator is single-pool and
    /// its output is byte-identical to the pre-pool code path.
    pub fn with_pools(mut self, pools: shm_pool::PoolsConfig) -> Self {
        self.pools = Some(pools);
        self
    }

    /// Attaches a telemetry probe; it is cloned into the DRAM fabric and the
    /// secure-memory engine so every layer reports through the same sink.
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// The design under simulation.
    pub fn design(&self) -> DesignPoint {
        self.design
    }

    /// Runs `trace` to completion and returns the aggregated statistics.
    ///
    /// SHM designs are profiled first to obtain the oracle ground truth used
    /// for upper-bound prediction and accuracy accounting.
    pub fn run(&self, trace: &ContextTrace) -> SimStats {
        let (stats, _, _) = self.run_with_engine(trace);
        stats
    }

    /// Runs `trace` and also returns per-partition DRAM summaries
    /// `(bytes_read, bytes_written, bus_free_at)` for diagnostics.
    pub fn run_inspect(&self, trace: &ContextTrace) -> (SimStats, Vec<(u64, u64, u64)>) {
        let (stats, _, fabric) = self.run_with_engine(trace);
        let parts = (0..fabric.num_partitions())
            .map(|i| {
                let p = fabric.partition(PartitionId(i as u16));
                (p.bytes_read(), p.bytes_written(), p.bus_free_at())
            })
            .collect();
        (stats, parts)
    }

    /// Runs `trace` and also returns predictor accuracy from the engine
    /// (empty accuracies for designs without the detectors).
    pub fn run_detailed(
        &self,
        trace: &ContextTrace,
    ) -> (
        SimStats,
        shm::readonly::RoAccuracy,
        shm::streaming::StreamAccuracy,
    ) {
        let (stats, engine, _) = self.run_with_engine(trace);
        (
            stats,
            engine.readonly_accuracy(),
            engine.streaming_accuracy(),
        )
    }

    fn build_engine(&self, trace: &ContextTrace) -> ShmSystem {
        let map = self.cfg.partition_map();
        // The SHM designs profile the trace first: the oracle is the upper
        // bound's predictor and every detector's accuracy reference.
        let oracle = self
            .design
            .readonly_detector()
            .then(|| OracleProfile::from_trace(trace.all_events(), map));
        let mut sys = ShmSystem::new(self.design, &self.cfg, self.shm_cfg.clone(), oracle);
        for (start, len) in &trace.readonly_init {
            sys.mark_readonly_range(map, *start, *len);
        }
        sys
    }

    fn run_with_engine(&self, trace: &ContextTrace) -> (SimStats, ShmSystem, DramFabric) {
        // Outermost phase: engine setup (including the SHM oracle pre-pass)
        // and warp scheduling charge here; nested L2/fabric/metadata/AES
        // guards carve their own shares out of it.
        let _issue_phase = shm_metrics::phase::guard(shm_metrics::phase::Phase::AccessIssue);
        let map = self.cfg.partition_map();
        let mut engine = self.build_engine(trace);
        let mut fabric = DramFabric::new(&self.cfg);
        let probe = &self.probe;
        fabric.set_probe(probe.clone());
        engine.set_probe(probe);
        let mut stats = SimStats::default();
        let mut next_epoch = probe.next_epoch_at();
        let mut banks: Vec<Vec<L2Bank>> = (0..self.cfg.num_partitions)
            .map(|_| {
                (0..self.cfg.l2_banks_per_partition)
                    .map(|_| L2Bank::new(&self.cfg))
                    .collect()
            })
            .collect();

        // Heterogeneous pools ride alongside the fabric; `None` keeps the
        // single-pool hot path untouched (and its output byte-identical).
        let mut pool = self.pools.map(PoolSim::new);

        let mut clock = 0u64;
        for kernel in &trace.kernels {
            for action in &kernel.pre_actions {
                match action {
                    HostAction::MemcpyToDevice { start, len } => {
                        engine.host_memcpy(map, *start, *len)
                    }
                    HostAction::InputReadOnlyReset { start, len } => {
                        engine.input_readonly_reset(map, *start, *len)
                    }
                }
            }

            if probe.is_enabled() {
                probe.emit(
                    clock,
                    Event::KernelStart {
                        kernel: kernel.name.clone(),
                    },
                );
            }
            let kernel_end = self.run_kernel(
                clock,
                &kernel.events,
                map,
                probe,
                &mut next_epoch,
                &mut engine,
                &mut fabric,
                &mut banks,
                &mut pool,
                &mut stats,
            );
            if probe.is_enabled() {
                probe.emit(
                    kernel_end,
                    Event::KernelEnd {
                        kernel: kernel.name.clone(),
                        cycles: kernel_end - clock,
                    },
                );
            }
            clock = kernel_end;

            // Kernel boundary: close the epochs that ended before it, flush
            // the L2 (dirty data drains through the MEE) and reset the
            // miss-rate samplers.
            tick_epochs(
                probe,
                &mut next_epoch,
                clock,
                &stats,
                &fabric,
                pool.as_ref(),
            );
            for (p, pbanks) in banks.iter_mut().enumerate() {
                for bank in pbanks.iter_mut() {
                    for ev in bank.flush() {
                        Self::writeback_eviction(
                            &ev,
                            PartitionId(p as u16),
                            map,
                            self.cfg.protected_bytes_per_partition(),
                            clock,
                            &mut engine,
                            &mut fabric,
                            &mut stats,
                        );
                    }
                    bank.reset_sampler();
                }
            }
            stats.instructions += kernel.instructions();
        }

        // End of context: metadata caches drain.
        engine.flush(clock, &mut fabric, &mut stats);

        // The run is not over until the channels drain the posted work.
        let drain = (0..fabric.num_partitions())
            .map(|i| fabric.partition(PartitionId(i as u16)).bus_free_at())
            .max()
            .unwrap_or(0);
        let mut stats = totals(&stats, &fabric, pool.as_ref());
        stats.cycles = clock.max(drain).max(1);
        probe.end_run(&stats);
        (stats, engine, fabric)
    }

    /// Simulates one kernel starting at `start_cycle`; returns its end cycle.
    ///
    /// Each pop of the scheduler heap issues at most one access: the SM with
    /// the earliest `(time, sm)` estimate issues its next event and is
    /// requeued at its new ready time.
    #[allow(clippy::too_many_arguments)]
    fn run_kernel(
        &self,
        start_cycle: u64,
        events: &[MemEvent],
        map: gpu_types::PartitionMap,
        probe: &Probe,
        next_epoch: &mut u64,
        engine: &mut ShmSystem,
        fabric: &mut DramFabric,
        banks: &mut [Vec<L2Bank>],
        pool: &mut Option<PoolSim>,
        stats: &mut SimStats,
    ) -> u64 {
        let num_sms = self.cfg.num_sms as usize;
        let max_outstanding = self.cfg.sm_max_outstanding as usize;
        let span = self.cfg.protected_bytes_per_partition();
        // Scratch for drained evictions, reused across every access in the
        // kernel so the hot path never allocates.
        let mut scratch: Vec<Eviction> = Vec::new();

        // Distribute events to SMs by warp id, preserving per-warp order.
        let mut queues: Vec<Vec<&MemEvent>> = vec![Vec::new(); num_sms];
        for ev in events {
            queues[ev.warp.0 as usize % num_sms].push(ev);
        }
        let mut cursors = vec![0usize; num_sms];
        let mut ready = vec![start_cycle; num_sms];
        let mut outstanding: Vec<BinaryHeap<Reverse<u64>>> = vec![BinaryHeap::new(); num_sms];

        // Lazy priority queue over SMs keyed by estimated next issue time.
        let mut pq: BinaryHeap<Reverse<(u64, usize)>> = (0..num_sms)
            .filter(|&s| !queues[s].is_empty())
            .map(|s| Reverse((start_cycle, s)))
            .collect();

        let mut end = start_cycle;
        let mut accesses_since_policy = 0u64;

        while let Some(Reverse((est, sm))) = pq.pop() {
            if cursors[sm] >= queues[sm].len() {
                continue;
            }
            // Compute the actual issue time for this SM's next event.
            let ev = queues[sm][cursors[sm]];
            let think = ev.think_cycles as u64;
            let mut t = ready[sm] + think;
            while outstanding[sm].len() >= max_outstanding {
                let Reverse(done) = outstanding[sm].pop().expect("non-empty at limit");
                t = t.max(done);
            }
            // If another SM became strictly earlier, requeue lazily.
            if let Some(Reverse((other_est, _))) = pq.peek() {
                if t > *other_est && t > est {
                    pq.push(Reverse((t, sm)));
                    ready[sm] = ready[sm].max(t - think);
                    continue;
                }
            }

            tick_epochs(probe, next_epoch, t, stats, fabric, pool.as_ref());
            let completion = self.access_memory(
                t,
                ev,
                map,
                span,
                probe,
                &mut scratch,
                engine,
                fabric,
                banks,
                pool,
                stats,
            );
            stats.accesses += 1;
            stats.lat_sum += completion.saturating_sub(t);
            stats.lat_max = stats.lat_max.max(completion.saturating_sub(t));
            outstanding[sm].push(Reverse(completion));
            ready[sm] = t + 1;
            end = end.max(completion).max(t + 1);
            cursors[sm] += 1;

            // Periodically refresh the victim-cache policy from sampled
            // L2 miss rates (Section IV-D).
            accesses_since_policy += 1;
            if accesses_since_policy >= 4096 {
                accesses_since_policy = 0;
                for (p, pbanks) in banks.iter().enumerate() {
                    let rate = pbanks[0].sampled_miss_rate();
                    engine.update_victim_policy(PartitionId(p as u16), rate);
                }
            }

            if cursors[sm] < queues[sm].len() {
                pq.push(Reverse((ready[sm], sm)));
            }
        }

        end
    }

    /// Sends one warp-level access through L2 → MEE → DRAM; returns the
    /// completion cycle.  `map`, `span`, and the eviction scratch vector are
    /// hoisted out to [`Self::run_kernel`] so this path does no per-access
    /// setup and no allocation.
    #[allow(clippy::too_many_arguments)]
    fn access_memory(
        &self,
        t: u64,
        ev: &MemEvent,
        map: gpu_types::PartitionMap,
        span: u64,
        probe: &Probe,
        scratch: &mut Vec<Eviction>,
        engine: &mut ShmSystem,
        fabric: &mut DramFabric,
        banks: &mut [Vec<L2Bank>],
        pool: &mut Option<PoolSim>,
        stats: &mut SimStats,
    ) -> u64 {
        let local = map.to_local(ev.addr);
        let p = local.partition;
        let bank_idx = ((local.offset / 128) % self.cfg.l2_banks_per_partition as u64) as usize;

        // Retire every fill that has landed by now, freeing MSHR entries.
        // A single heap peek skips the drain when nothing is due.
        if banks[p.index()][bank_idx]
            .next_completion_at()
            .is_some_and(|ready| ready <= t)
        {
            scratch.clear();
            banks[p.index()][bank_idx].drain_completed_into(t, scratch);
            for evicted in scratch.iter() {
                Self::writeback_eviction(evicted, p, map, span, t, engine, fabric, stats);
            }
        }

        let bank = &mut banks[p.index()][bank_idx];
        let stalls_before = bank.mshr_stalls();
        let outcome = {
            let _l2_phase = shm_metrics::phase::guard(shm_metrics::phase::Phase::L2);
            if ev.kind.is_write() {
                bank.write(local.offset)
            } else {
                bank.read(t, local.offset)
            }
        };
        if bank.mshr_stalls() > stalls_before {
            probe.emit(t, Event::MshrStall { bank: bank_idx });
        }

        let completion = match outcome {
            L2Outcome::Hit => {
                stats.l2_hits += 1;
                t + L2_HIT_LATENCY
            }
            L2Outcome::WriteAllocated => {
                stats.l2_misses += 1;
                t + L2_HIT_LATENCY
            }
            L2Outcome::MergedMiss { ready_at } => {
                stats.l2_hits += 1; // merged: no extra DRAM traffic
                ready_at.max(t) + L2_HIT_LATENCY
            }
            L2Outcome::Miss => {
                stats.l2_misses += 1;
                if probe.is_enabled() {
                    probe.emit(
                        t,
                        Event::L2Miss {
                            bank: bank_idx,
                            addr: local.offset,
                        },
                    );
                }
                let req = MemRequest {
                    phys: ev.addr.sector_base(),
                    local: local.block_base().offset_sector(local),
                    kind: AccessKind::Read,
                    space: ev.space,
                    bytes: SECTOR_BYTES,
                };
                // The accessed bank doubles as the metadata victim store (SHM_vL2).
                let mut done = engine.process_with_victim(
                    t + L2_HIT_LATENCY,
                    &req,
                    fabric,
                    &mut banks[p.index()][bank_idx],
                    stats,
                );
                // Heterogeneous pools: offer the miss to the pool model.  A
                // CPU-resident page pays the remote path (LPDDR + link) on
                // top of the native pipeline — completion is whichever is
                // later — and may trigger a secure page migration.
                if let Some(pool) = pool.as_mut() {
                    if let Some(remote_done) = pool.on_dram_access(
                        t + L2_HIT_LATENCY,
                        ev.addr.raw(),
                        SECTOR_BYTES,
                        ev.kind.is_write(),
                    ) {
                        done = done.max(remote_done);
                    }
                }
                banks[p.index()][bank_idx].note_pending(local.offset, done);
                // MSHR residency: the entry lives from allocation until the
                // fill lands and is retired by a later drain.
                probe.record(Hook::MshrResidency {
                    cycles: done.saturating_sub(t),
                });
                done
            }
        };

        // Drain write-backs generated by this access (data evictions from
        // write allocation, and victim-cache displacements).
        if banks[p.index()][bank_idx].has_data_evictions() {
            scratch.clear();
            banks[p.index()][bank_idx].drain_data_evictions_into(scratch);
            for evd in scratch.iter() {
                Self::writeback_eviction(evd, p, map, span, t, engine, fabric, stats);
            }
        }
        if banks[p.index()][bank_idx].has_deferred_writebacks() {
            scratch.clear();
            banks[p.index()][bank_idx].drain_deferred_writebacks_into(scratch);
            for evd in scratch.iter() {
                Self::writeback_metadata(evd, p, t, engine, fabric);
            }
        }

        completion
    }

    /// Writes a dirty evicted L2 line back.  Lines whose address lies above
    /// the partition's protected data span are security-metadata victims
    /// (Section IV-D) and are persisted directly; data lines go through the
    /// MEE (counter increment + MAC update).
    #[allow(clippy::too_many_arguments)]
    fn writeback_eviction(
        evicted: &Eviction,
        p: PartitionId,
        map: gpu_types::PartitionMap,
        data_span: u64,
        t: u64,
        engine: &mut ShmSystem,
        fabric: &mut DramFabric,
        stats: &mut SimStats,
    ) {
        // Metadata offsets were laid out above the per-partition data span,
        // so the address range identifies the line's kind.
        if evicted.addr >= data_span {
            Self::writeback_metadata(evicted, p, t, engine, fabric);
            return;
        }
        for sector in 0..4u8 {
            if evicted.dirty_sectors & (1 << sector) == 0 {
                continue;
            }
            let local = gpu_types::LocalAddr::new(p, evicted.addr + sector as u64 * SECTOR_BYTES);
            let req = MemRequest {
                phys: map.to_phys(local),
                local,
                kind: AccessKind::Write,
                space: gpu_types::MemorySpace::Global,
                bytes: SECTOR_BYTES,
            };
            stats.l2_writebacks += 1;
            engine.process(t, &req, fabric, stats);
        }
    }

    /// Persists a dirty *metadata* line displaced from the L2 victim cache.
    fn writeback_metadata(
        evicted: &Eviction,
        p: PartitionId,
        t: u64,
        engine: &ShmSystem,
        fabric: &mut DramFabric,
    ) {
        let class = match engine.layout(p).classify(evicted.addr) {
            Some(MetadataKind::Counter) => TrafficClass::Counter,
            Some(MetadataKind::BlockMac) | Some(MetadataKind::ChunkMac) => TrafficClass::Mac,
            Some(MetadataKind::Bmt(_)) => TrafficClass::Bmt,
            None => TrafficClass::Data,
        };
        let bytes = evicted.dirty_sectors.count_ones() as u64 * SECTOR_BYTES;
        if bytes > 0 {
            fabric.access_local(t, p, evicted.addr, bytes, true, class);
        }
    }
}

/// The run's statistics so far: the counters updated in place plus the
/// fabric's traffic and request counts and the pool counters.  It builds
/// the end-of-run `SimStats` and the running totals every telemetry epoch
/// is a delta of.
fn totals(stats: &SimStats, fabric: &DramFabric, pool: Option<&PoolSim>) -> SimStats {
    let mut totals = stats.clone();
    totals.traffic = fabric.traffic();
    totals.dram_requests = fabric.requests();
    if let Some(pool) = pool {
        let c = pool.counters();
        totals.pool_migrations = c.migrations;
        totals.pool_spills = c.spills;
        totals.pool_cpu_accesses = c.cpu_accesses;
        totals.pool_capacity_events = c.capacity_events;
        (totals.link_bytes_to_gpu, totals.link_bytes_to_cpu) = pool.link_bytes();
    }
    totals
}

/// Hands `probe` the run's running totals once `t` reaches the next epoch
/// boundary, `next` (`u64::MAX` with telemetry off), and moves `next` on.
#[inline]
fn tick_epochs(
    probe: &Probe,
    next: &mut u64,
    t: u64,
    stats: &SimStats,
    fabric: &DramFabric,
    pool: Option<&PoolSim>,
) {
    if t >= *next {
        *next = probe.close_epochs(t, &totals(stats, fabric, pool));
    }
}

/// Helper: rebuild the sector-precise local address from a block-aligned
/// base plus the original local address's sector.
trait OffsetSector {
    fn offset_sector(self, original: gpu_types::LocalAddr) -> gpu_types::LocalAddr;
}

impl OffsetSector for gpu_types::LocalAddr {
    fn offset_sector(self, original: gpu_types::LocalAddr) -> gpu_types::LocalAddr {
        gpu_types::LocalAddr::new(
            self.partition,
            self.offset + (original.offset % 128) / SECTOR_BYTES * SECTOR_BYTES,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ContextTrace;
    use gpu_types::PhysAddr;

    fn demo(n: u64) -> ContextTrace {
        ContextTrace::streaming_read_demo(n)
    }

    fn run(design: DesignPoint, trace: &ContextTrace) -> SimStats {
        Simulator::new(&GpuConfig::default(), design).run(trace)
    }

    #[test]
    fn baseline_runs_and_counts() {
        let t = demo(4096);
        let s = run(DesignPoint::Unprotected, &t);
        assert_eq!(s.instructions, 4096);
        assert_eq!(s.accesses, t.all_events().count() as u64);
        assert!(s.cycles > 0);
        assert!(s.l2_hits + s.l2_misses >= 4096);
        assert_eq!(s.traffic.metadata_bytes(), 0);
    }

    #[test]
    fn protected_designs_are_slower_than_baseline() {
        let t = demo(8192);
        let base = run(DesignPoint::Unprotected, &t);
        let naive = run(DesignPoint::Naive, &t);
        let pssm = run(DesignPoint::Pssm, &t);
        assert!(
            naive.cycles > base.cycles,
            "naive {} base {}",
            naive.cycles,
            base.cycles
        );
        assert!(pssm.cycles >= base.cycles);
        assert!(naive.cycles > pssm.cycles, "naive should be slowest");
    }

    #[test]
    fn shm_close_to_baseline_on_readonly_streaming() {
        let t = demo(8192);
        let base = run(DesignPoint::Unprotected, &t);
        let shm = run(DesignPoint::Shm, &t);
        let pssm = run(DesignPoint::Pssm, &t);
        let shm_overhead = shm.cycles as f64 / base.cycles as f64;
        let pssm_overhead = pssm.cycles as f64 / base.cycles as f64;
        assert!(
            shm_overhead <= pssm_overhead,
            "SHM {shm_overhead:.3} should not exceed PSSM {pssm_overhead:.3}"
        );
    }

    #[test]
    fn upper_bound_at_least_as_good_as_shm_on_aligned_chunks() {
        // Use a sweep that covers whole 4 KB chunks in every partition
        // (12 partitions x 2 chunks x 4 KB / 32 B sectors) so no ambiguous
        // partial-chunk tail exists; then the oracle can only win.
        let t = demo(12 * 2 * 4096 / 32);
        let shm = run(DesignPoint::Shm, &t);
        let ub = run(DesignPoint::ShmUpperBound, &t);
        assert_eq!(ub.stream_mispredictions, 0);
        assert_eq!(
            ub.traffic
                .class_total(gpu_types::TrafficClass::MispredictFixup),
            0
        );
        assert!(
            ub.traffic.metadata_bytes() <= shm.traffic.metadata_bytes(),
            "oracle {} vs detected {}",
            ub.traffic.metadata_bytes(),
            shm.traffic.metadata_bytes()
        );
    }

    #[test]
    fn multi_kernel_reset_api_keeps_fast_path() {
        let mut trace = ContextTrace::new("two-kernel");
        trace.readonly_init = vec![(PhysAddr::new(0), 1 << 20)];
        let events: Vec<_> = (0..4096u64)
            .map(|i| {
                let mut e =
                    gpu_types::MemEvent::global(PhysAddr::new(i * 32), gpu_types::AccessKind::Read);
                e.warp = gpu_types::Warp((i % 64) as u32);
                e
            })
            .collect();
        trace
            .kernels
            .push(crate::trace::KernelTrace::new("k1", events.clone()));
        let mut k2 = crate::trace::KernelTrace::new("k2", events);
        k2.pre_actions.push(HostAction::InputReadOnlyReset {
            start: PhysAddr::new(0),
            len: 1 << 20,
        });
        trace.kernels.push(k2);

        let s = run(DesignPoint::Shm, &trace);
        assert!(s.readonly_fast_path > 0);
        assert_eq!(s.instructions, 8192);
        assert_eq!(s.accesses, trace.all_events().count() as u64);
    }

    #[test]
    fn detailed_run_reports_accuracy() {
        let t = demo(8192);
        let sim = Simulator::new(&GpuConfig::default(), DesignPoint::Shm);
        let (_, ro, st) = sim.run_detailed(&t);
        assert!(ro.total() > 0);
        assert!(st.total() > 0);
        assert!(ro.accuracy() > 0.5, "ro accuracy {}", ro.accuracy());
    }

    #[test]
    fn think_cycles_lengthen_runtime() {
        let mut fast = demo(2048);
        let mut slow = fast.clone();
        for ev in &mut slow.kernels[0].events {
            ev.think_cycles = 16;
        }
        let _ = &mut fast;
        let fast_s = run(DesignPoint::Unprotected, &fast);
        let slow_s = run(DesignPoint::Unprotected, &slow);
        assert!(slow_s.cycles > fast_s.cycles);
        assert!(slow_s.instructions > fast_s.instructions);
    }
}
