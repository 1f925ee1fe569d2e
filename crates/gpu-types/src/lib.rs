//! Common types for the SHM (Secure Heterogeneous Memory) GPU simulator.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: physical and partition-local addresses, the partition mapping
//! used by the simulated GPU, memory-space classification (global, constant,
//! texture, local), memory access records, and the top-level hardware
//! configuration (Tables V and VI of the paper).
//!
//! # Address spaces
//!
//! The simulated GPU interleaves physical addresses across `num_partitions`
//! memory partitions at a fixed interleaving granularity (256 B in the
//! Turing-like baseline).  A *partition-local address* ("local address" in
//! the PSSM and SHM papers) is the byte offset within one partition after
//! that mapping.  Security metadata can be constructed from either address
//! kind; constructing it from local addresses removes cross-partition
//! redundancy, which is the key idea of PSSM and is inherited by SHM.
//!
//! ```
//! use gpu_types::{GpuConfig, PhysAddr};
//!
//! let cfg = GpuConfig::default();
//! let pa = PhysAddr::new(0x1_0040);
//! let loc = cfg.partition_map().to_local(pa);
//! assert_eq!(cfg.partition_map().to_phys(loc), pa);
//! ```

pub mod access;
pub mod addr;
pub mod config;
pub mod fxhash;
pub mod json;
pub mod rng;
pub mod stats;

pub use access::{AccessKind, MemEvent, MemorySpace, Warp};
pub use addr::{ChunkId, LocalAddr, PartitionId, PartitionMap, PhysAddr, RegionId};
pub use config::{GpuConfig, MdcConfig, ShmConfig};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use rng::SplitMix64;
pub use stats::{SimStats, StatValue, TrafficBytes, TrafficClass};

/// Size of a cache line / memory block in bytes (a "block" in the paper).
pub const BLOCK_BYTES: u64 = 128;

/// Size of a DRAM sector (minimum transfer granularity) in bytes.
pub const SECTOR_BYTES: u64 = 32;

/// Number of sectors in a cache line.
pub const SECTORS_PER_BLOCK: usize = (BLOCK_BYTES / SECTOR_BYTES) as usize;

/// Size of a streaming-detection chunk in bytes (4 KB in the paper).
pub const CHUNK_BYTES: u64 = 4096;

/// Number of 128 B blocks per 4 KB chunk.
pub const BLOCKS_PER_CHUNK: usize = (CHUNK_BYTES / BLOCK_BYTES) as usize;

/// Size of a read-only-detection region in bytes (16 KB in the paper).
pub const REGION_BYTES: u64 = 16 * 1024;

/// Bytes of MAC per protected 128 B block (8 B in the paper).
pub const MAC_BYTES_PER_BLOCK: u64 = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_are_consistent() {
        assert_eq!(SECTORS_PER_BLOCK as u64 * SECTOR_BYTES, BLOCK_BYTES);
        assert_eq!(BLOCKS_PER_CHUNK as u64 * BLOCK_BYTES, CHUNK_BYTES);
        assert_eq!(REGION_BYTES % CHUNK_BYTES, 0);
    }
}
