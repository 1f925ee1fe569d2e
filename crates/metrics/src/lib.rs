//! Live metrics for the SHM simulator.
//!
//! Three pieces, all dependency-free:
//!
//! * a lock-free **registry** of named counters ([`register_counter`],
//!   [`counter!`]) that is zero-cost while [`enabled`] is false — every
//!   hot-path hook is one relaxed atomic load;
//! * a **Prometheus text-format** renderer ([`render_prometheus`]) plus a
//!   one-thread blocking HTTP exposition endpoint ([`http::MetricsServer`])
//!   and the matching scraper client ([`http::fetch_metrics`]);
//! * a **phase self-profiler** ([`phase`]) of scoped RAII timers that tile
//!   wall time exclusively across the simulator pipeline phases.
//!
//! Registration takes a global mutex (cold path, once per call site thanks
//! to the `OnceLock` inside the macro); updates are plain relaxed atomics.

pub mod http;
pub mod phase;
mod registry;

pub use http::{fetch_metrics, MetricsServer};
pub use registry::{
    enabled, is_valid_label_name, is_valid_metric_name, parse_exposition, register_counter,
    render_prometheus, set_enabled, Counter, Sample,
};
