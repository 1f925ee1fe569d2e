//! SHM — adaptive security support for heterogeneous memory on GPUs.
//!
//! This crate implements the primary contribution of the HPCA 2022 paper:
//! secure GPU memory that *adapts* its protection mechanisms to the kind of
//! data being protected, retaining the confidentiality / integrity /
//! freshness guarantees of CPU TEEs while dramatically reducing the
//! security-metadata bandwidth they cost.
//!
//! The two adaptive mechanisms, each backed by a lightweight hardware
//! detector:
//!
//! 1. **Read-only regions** ([`readonly::ReadOnlyPredictor`]) — data that is
//!    never written during kernel execution (constant memory, texture
//!    memory, instruction memory, and most copied-in input buffers) cannot
//!    be meaningfully replayed within a kernel, so it needs no per-block
//!    counters and no Bonsai-Merkle-Tree coverage.  One on-chip shared
//!    counter provides temporal uniqueness across kernels; the
//!    `InputReadOnlyReset` API keeps it fresh when the host reuses input
//!    regions.
//!
//! 2. **Streaming chunks** ([`streaming`]) — chunks whose blocks are all
//!    touched can be authenticated by a single 8 B *chunk-level* MAC instead
//!    of thirty-two 8 B block MACs, cutting MAC bandwidth ~32×.  Randomly
//!    accessed chunks keep per-block MACs.  Mispredictions cost bandwidth,
//!    never correctness (Tables III/IV).
//!
//! [`engine::ShmSystem`] is the one secure-memory engine behind all ten
//! design points of Table VIII ([`design::DesignPoint`]).  It composes the
//! metadata-cache flows of `secure-core` with both mechanisms, and a
//! design's columns switch each feature on: the baselines (Unprotected,
//! Naive, Common_ctr, PSSM, PSSM_cctr) run with the detectors off, and
//! `SHM_readOnly`, `SHM`, `SHM_cctr`, `SHM_vL2` and `SHM_upper_bound` add
//! them one feature at a time.

pub mod design;
pub mod engine;
pub mod oracle;
pub mod policy;
pub mod readonly;
pub mod streaming;

pub use design::DesignPoint;
pub use engine::ShmSystem;
pub use oracle::OracleProfile;
pub use policy::{required_mechanisms, DataProperty, Protection};
pub use readonly::ReadOnlyPredictor;
pub use streaming::{AccessTrackers, Detection, StreamingPredictor};
