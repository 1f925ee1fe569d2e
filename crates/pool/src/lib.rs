//! Heterogeneous memory pools for the SHM simulator.
//!
//! The paper adapts security metadata to heterogeneity *within* GPU memory;
//! this crate opens the axis it could not evaluate: a second, CPU-side DRAM
//! pool (LPDDR-like latency/bandwidth) behind a coherent NVLink-C2C/RDMA-style
//! interconnect, with *placement policies* deciding which pages live where and
//! a *secure migration engine* that moves pages between pools only through
//! MAC-verified, counter-rekeyed transfers built on `shm-metadata` +
//! `shm-crypto`.  A page tampered in flight on the link surfaces as an
//! [`shm_metadata::IntegrityViolation`] — never silent corruption.
//!
//! The model is strictly additive: a simulator without a [`PoolSim`] attached
//! takes exactly the single-pool code path and produces byte-identical output.
//!
//! See `docs/HETERO.md` for the pool model, link model, migration protocol
//! and the default geometry of [`PoolsConfig::new`].

pub mod config;
pub mod link;
pub mod migrate;
pub mod sim;

pub use config::{PlacementPolicy, PoolsConfig};
pub use link::{CoherentLink, LinkDir};
pub use migrate::{LinkTamper, MigrationChannel};
pub use sim::{PoolCounters, PoolSim};
