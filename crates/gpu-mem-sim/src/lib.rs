//! Trace-driven GPU memory-hierarchy simulator for the SHM evaluation.
//!
//! The simulator reproduces the paper's methodology: a Turing-like GPU
//! (Table V) whose SMs issue warp-level sector accesses against a banked,
//! sectored L2; L2 misses and write-backs flow through a per-partition
//! memory-encryption engine into GDDR channels whose bandwidth is shared
//! between data and security metadata.  Normalized IPC, bandwidth
//! breakdowns and energy per instruction come out the other end.
//!
//! The SM pipeline itself is abstracted: each trace event carries
//! `think_cycles` of compute preceding the access, and each SM sustains a
//! bounded number of outstanding memory accesses (memory-level
//! parallelism).  For the memory-bound workloads the paper evaluates, this
//! reproduces the mechanism that determines performance — contention for
//! DRAM bandwidth between data and metadata.
//!
//! ```
//! use gpu_mem_sim::{DesignPoint, Simulator};
//! use gpu_types::GpuConfig;
//! use gpu_mem_sim::trace::ContextTrace;
//!
//! let cfg = GpuConfig::default();
//! let trace = ContextTrace::streaming_read_demo(4096);
//! let stats = Simulator::new(&cfg, DesignPoint::Unprotected).run(&trace);
//! assert!(stats.cycles > 0);
//! ```

pub mod codec;
pub mod energy;
pub mod l2;
pub mod sim;
pub mod trace;

pub use codec::{read_trace, write_trace, CodecError};
pub use energy::EnergyModel;
pub use l2::L2Bank;
pub use shm::DesignPoint;
pub use sim::Simulator;
pub use trace::{ContextTrace, HostAction, KernelTrace};
