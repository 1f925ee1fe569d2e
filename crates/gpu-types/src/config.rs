//! Hardware configuration structures (Tables V, VI and IX of the paper).

use crate::addr::PartitionMap;

/// Top-level GPU configuration (Table V).
///
/// Defaults model the Nvidia-Turing-like baseline used by the paper: 30 SMs
/// at 1506 MHz, 12 memory partitions with two 128 KB L2 banks each (3 MB L2
/// total) and 336 GB/s of aggregate GDDR bandwidth.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Core clock in MHz (used only to convert bandwidth to bytes/cycle).
    pub core_clock_mhz: u32,
    /// Number of GDDR memory partitions.
    pub num_partitions: u16,
    /// Partition interleaving granularity in bytes.
    pub interleave_bytes: u64,
    /// L2 banks per partition.
    pub l2_banks_per_partition: u32,
    /// Capacity of each L2 bank in bytes.
    pub l2_bank_bytes: u64,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// MSHR entries per L2 bank.
    pub l2_mshr_entries: u32,
    /// Requests merged per MSHR entry.
    pub l2_mshr_merges: u32,
    /// Aggregate DRAM bandwidth in GB/s.
    pub dram_bw_gbps: f64,
    /// Uncontended DRAM access latency in core cycles.
    pub dram_latency_cycles: u32,
    /// Bytes of device memory protected by the secure-memory engine.
    pub protected_bytes: u64,
    /// Maximum in-flight memory accesses per SM (memory-level parallelism).
    pub sm_max_outstanding: u32,
    /// Metadata-cache configuration (Table VI).
    pub mdc: MdcConfig,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            num_sms: 30,
            core_clock_mhz: 1506,
            num_partitions: 12,
            interleave_bytes: 256,
            l2_banks_per_partition: 2,
            l2_bank_bytes: 128 * 1024,
            l2_assoc: 16,
            l2_mshr_entries: 192,
            l2_mshr_merges: 16,
            dram_bw_gbps: 336.0,
            dram_latency_cycles: 220,
            protected_bytes: 4 << 30,
            sm_max_outstanding: 48,
            mdc: MdcConfig::default(),
        }
    }
}

impl GpuConfig {
    /// The partition interleaving map for this configuration.
    pub fn partition_map(&self) -> PartitionMap {
        PartitionMap::new(self.num_partitions, self.interleave_bytes)
    }

    /// DRAM bandwidth available to one partition, in bytes per core cycle.
    pub fn partition_bytes_per_cycle(&self) -> f64 {
        let total_bytes_per_cycle = self.dram_bw_gbps * 1e9 / (self.core_clock_mhz as f64 * 1e6);
        total_bytes_per_cycle / self.num_partitions as f64
    }

    /// Bytes of protected space mapped to each partition.
    pub fn protected_bytes_per_partition(&self) -> u64 {
        self.partition_map().local_span(self.protected_bytes)
    }
}

/// Metadata-cache (MDC) and memory-encryption-engine organization (Table VI).
#[derive(Clone, Debug, PartialEq)]
pub struct MdcConfig {
    /// Capacity of each metadata cache (counter / MAC / BMT) in bytes.
    pub cache_bytes: u64,
    /// Metadata cache line size in bytes.
    pub line_bytes: u64,
    /// Metadata cache associativity.
    pub assoc: u32,
    /// MSHR entries per metadata cache.
    pub mshr_entries: u32,
    /// Latency of the hash/MAC engine in cycles.
    pub hash_latency: u32,
    /// Latency of the pipelined AES engine in cycles.
    pub aes_latency: u32,
    /// Arity of the integrity tree (16 = BMT with 8 B hashes per 128 B
    /// node, 8 = SGX-style counter tree with 56-bit versions).
    pub tree_arity: u64,
    /// Bytes of MAC per 128 B block (8 default; 4 = PSSM's truncated MACs,
    /// which Section III-C shows is below the birthday-attack bound).
    pub mac_bytes_per_block: u64,
    /// Chunk-MAC coverage in bytes (4 KB in the paper).
    pub chunk_bytes: u64,
}

impl Default for MdcConfig {
    fn default() -> Self {
        Self {
            cache_bytes: 2 * 1024,
            line_bytes: 128,
            assoc: 4,
            mshr_entries: 256,
            hash_latency: 40,
            aes_latency: 40,
            tree_arity: 16,
            mac_bytes_per_block: 8,
            chunk_bytes: 4096,
        }
    }
}

/// Configuration of the SHM adaptive mechanisms (Section IV / Table IX).
#[derive(Clone, Debug, PartialEq)]
pub struct ShmConfig {
    /// Entries in the per-partition read-only predictor bit vector.
    pub readonly_predictor_entries: usize,
    /// Read-only region granularity in bytes (16 KB).
    pub readonly_region_bytes: u64,
    /// Entries in the per-partition streaming predictor bit vector.
    pub streaming_predictor_entries: usize,
    /// Streaming chunk granularity in bytes (4 KB).
    pub chunk_bytes: u64,
    /// Memory access trackers per partition.
    pub num_trackers: usize,
    /// Accesses per tracker monitoring phase (K).
    pub tracker_phase_accesses: u32,
    /// Tracker timeout in cycles.
    pub tracker_timeout_cycles: u64,
    /// Sampled L2 miss-rate threshold above which the victim cache engages.
    pub l2_victim_miss_threshold: f64,
}

impl Default for ShmConfig {
    fn default() -> Self {
        Self {
            readonly_predictor_entries: 1024,
            readonly_region_bytes: 16 * 1024,
            streaming_predictor_entries: 2048,
            chunk_bytes: 4096,
            num_trackers: 8,
            tracker_phase_accesses: 32,
            tracker_timeout_cycles: 6000,
            l2_victim_miss_threshold: 0.90,
        }
    }
}

impl ShmConfig {
    /// Storage cost in bits of one partition's predictors and trackers
    /// (Table IX: 128 B + 256 B + 8×71 bit in the default configuration).
    pub fn partition_storage_bits(&self) -> u64 {
        let ro = self.readonly_predictor_entries as u64;
        let st = self.streaming_predictor_entries as u64;
        let blocks_per_chunk = self.chunk_bytes / crate::BLOCK_BYTES;
        // tag (20b for 32-bit local addresses / 4 KB chunks) + write flag +
        // per-block 1-bit counters + 5-bit access counter + 13-bit timeout.
        let tracker_bits = 20 + 1 + blocks_per_chunk + 5 + 13;
        ro + st + self.num_trackers as u64 * tracker_bits
    }

    /// Total storage cost in bytes across `num_partitions` partitions.
    pub fn total_storage_bytes(&self, num_partitions: u16) -> u64 {
        (self.partition_storage_bits() * num_partitions as u64).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bandwidth_per_partition() {
        let cfg = GpuConfig::default();
        let bpc = cfg.partition_bytes_per_cycle();
        // 336 GB/s over 12 partitions at 1506 MHz ~= 18.6 B/cycle per partition.
        assert!((bpc - 18.59).abs() < 0.1, "got {bpc}");
    }

    #[test]
    fn table_ix_storage_overhead() {
        let shm = ShmConfig::default();
        // 1024 + 2048 + 8*71 bits = 3640 bits = 455 B per partition.
        assert_eq!(shm.partition_storage_bits(), 1024 + 2048 + 8 * 71);
        // 12 partitions: 5460 B (the paper's 5.33 KB total).
        assert_eq!(shm.total_storage_bytes(12), 5460);
    }

    #[test]
    fn protected_span_divides_across_partitions() {
        let cfg = GpuConfig::default();
        let span = cfg.protected_bytes_per_partition();
        assert!(span >= (4 << 30) / 12);
        assert!(span <= (4 << 30) / 12 + cfg.interleave_bytes);
    }
}
