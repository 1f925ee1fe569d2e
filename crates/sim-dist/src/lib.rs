//! The workspace's one FNV-1a hash, [`protocol::payload_digest`].
//!
//! This crate used to hold a distributed sweep backend, a TCP
//! coordinator/worker cluster.  Every sweep now runs on the local
//! executor, and only the hash is left.  It keeps its path because
//! `shm_bench::trace_seed`, `shm_bench::config_hash` and the benchmark
//! package's output digest (`benchmark/src/report.rs`) call it as
//! `sim_dist::protocol::payload_digest`.  The benchmark package's lockfile
//! also pins this crate and its dependency edges, which are left as they
//! were.  Moving FNV-1a into `gpu-types` and deleting this crate wait for
//! a change that also edits the benchmark package.

pub mod protocol;
