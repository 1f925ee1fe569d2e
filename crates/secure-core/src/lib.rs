//! Memory-encryption-engine (MEE) performance model: the building blocks
//! every secure-memory design shares.
//!
//! This crate models the *timing and traffic* of secure GPU memory: each
//! memory partition owns an MEE with three metadata caches (counter, MAC,
//! BMT — Table VI) sitting between the L2 and the GDDR channel.
//! [`mdc::MeeCore`] fetches and updates the security metadata through those
//! caches and charges the [`DramFabric`] for every transfer; it addresses
//! metadata from physical addresses (Naive) or partition-local ones (PSSM
//! and everything built on it), in whole lines or 32 B sectors.
//! [`common_ctr::CommonCounterTable`] models common-value counter
//! compression [Na et al., HPCA'21].
//!
//! The `shm` crate's engine composes these pieces into all ten design points
//! of Table VIII, from the unprotected baseline to SHM with oracle
//! predictors.

pub mod common_ctr;
pub mod fabric;
pub mod mdc;
pub mod request;

pub use common_ctr::CommonCounterTable;
pub use fabric::DramFabric;
pub use mdc::{Addressing, MdcKind, MeeCore, VictimStore};
pub use request::MemRequest;
