//! The phase self-profiler for the SHM simulator ([`phase`]): scoped RAII
//! timers that tile wall time exclusively across the simulator pipeline
//! phases, printed by `shm run --profile`.  Dependency-free; while
//! profiling is off every guard is one relaxed atomic load.

pub mod phase;
