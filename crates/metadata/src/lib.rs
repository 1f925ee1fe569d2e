//! Security-metadata geometry and functional stores for SHM.
//!
//! This crate answers two questions for the rest of the workspace:
//!
//! 1. **Where does metadata live?** — [`layout::MetadataLayout`] maps a
//!    protected data address to the addresses of its encryption-counter
//!    sector, its per-block MAC sector, its per-chunk MAC sector and the
//!    Bonsai-Merkle-Tree path covering its counter line.  The same layout is
//!    instantiated once per partition over *local* addresses (PSSM/SHM
//!    construction) or once over the whole *physical* range (the Naive
//!    baseline), which is exactly the difference that creates or removes
//!    cross-partition metadata redundancy.
//!
//! 2. **What are the metadata values?** — [`store::SecureMemory`] is a
//!    functional model holding real counters, MACs, BMT hashes and
//!    ciphertext, built on the [`shm_crypto`] primitives.  The test suite
//!    uses it to demonstrate the actual security guarantees: tampering and
//!    replay are detected, and read-only regions protected by the shared
//!    counter remain replay-proof across kernels.
//!
//! Split counters, minor-counter overflow handling and the on-chip shared
//! counter register live in [`counters`] and [`shared`].

pub mod bmt;
pub mod counters;
pub mod layout;
pub mod shared;
pub mod store;

pub use bmt::BmtGeometry;
pub use counters::{CounterSector, Increment};
pub use layout::{MetadataKind, MetadataLayout};
pub use shared::SharedCounter;
pub use store::{IntegrityViolation, SecureMemory, VerifyError};
