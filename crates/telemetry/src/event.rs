//! Structured trace events with cycle timestamps.

use std::fmt::Write as _;

/// How an event field renders as a JSON value: numbers bare, strings
/// quoted and escaped.
trait FieldJson {
    fn write_value(&self, out: &mut String);
}

macro_rules! number_fields {
    ($($t:ty),*) => {$(
        impl FieldJson for $t {
            fn write_value(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

number_fields!(u32, u64, usize);

impl FieldJson for str {
    fn write_value(&self, out: &mut String) {
        out.push('"');
        gpu_types::json::escape_into(self, out);
        out.push('"');
    }
}

/// Declares every event kind once: its variant, its JSONL `kind` tag,
/// whether it is low-frequency (always logged, never sampled out) and its
/// fields, which the JSONL line writes in declaration order under their
/// own names.  Generates [`Event`], [`NUM_KINDS`] and the per-kind
/// accessors.
macro_rules! events {
    ($(
        $(#[doc = $doc:literal])+
        $variant:ident = $tag:literal, low_frequency: $low:literal {
            $($field:ident: $ty:ty),* $(,)?
        }
    )*) => {
        /// One structured simulator event.
        ///
        /// High-frequency kinds (cache misses, stalls, walks) are sampled on
        /// the way into the JSONL log — see [`crate::SAMPLE_STRIDE`] — but
        /// every emission always lands in the flight-recorder ring and bumps
        /// the per-kind totals, so aggregate counts stay exact.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum Event {
            $($(#[doc = $doc])+ $variant { $($field: $ty),* },)*
        }

        /// Dense kind indices, in declaration order.
        enum Kind {
            $($variant,)*
        }

        /// Total number of distinct event kinds.
        pub const NUM_KINDS: usize = [$(Kind::$variant),*].len();

        /// `(tag, low-frequency)` per kind, by dense index.
        const KINDS: [(&str, bool); NUM_KINDS] = [$(($tag, $low)),*];

        impl Event {
            /// Dense index of this kind, for per-kind counters.
            pub fn kind_index(&self) -> usize {
                match self {
                    $(Event::$variant { .. } => Kind::$variant as usize,)*
                }
            }

            /// Appends this event as one JSON object line (no trailing
            /// newline).
            pub fn write_json(&self, cycle: u64, out: &mut String) {
                let _ = write!(
                    out,
                    "{{\"type\":\"event\",\"cycle\":{cycle},\"kind\":\"{}\"",
                    self.kind()
                );
                match self {
                    $(Event::$variant { $($field),* } => {
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.write_value(out);
                        )*
                    })*
                }
                out.push('}');
            }
        }
    };
}

events! {
    /// A kernel began executing.
    KernelStart = "kernel_start", low_frequency: true { kernel: String }
    /// A kernel drained; `cycles` is its wall-clock cycle span.
    KernelEnd = "kernel_end", low_frequency: true { kernel: String, cycles: u64 }
    /// An L2 lookup missed and went to the memory system.
    L2Miss = "l2_miss", low_frequency: false { bank: usize, addr: u64 }
    /// An L2 miss could not allocate an MSHR entry and stalled.
    MshrStall = "mshr_stall", low_frequency: false { bank: usize }
    /// Observed DRAM partition queue depth (cycles of backlog) at issue.
    DramQueueDepth = "dram_queue_depth", low_frequency: false { partition: usize, depth: u64 }
    /// Counter metadata-cache miss in a secure engine.
    CtrCacheMiss = "ctr_cache_miss", low_frequency: false { partition: usize }
    /// A BMT integrity walk terminated after visiting `depth` levels.
    BmtWalk = "bmt_walk", low_frequency: false { partition: usize, depth: u32 }
    /// A security-mode detector changed state for a region.
    DetectorTransition = "detector_transition", low_frequency: true {
        partition: usize,
        region: u64,
        detector: &'static str,
    }
    /// Misprediction fixup traffic was charged.
    MispredictFixup = "mispredict_fixup", low_frequency: false { partition: usize, bytes: u64 }
    /// Secure memory rejected an access: `violation` is the `VerifyError`
    /// label, `action` the recovery taken (abort / retry_recovered /
    /// quarantine).
    IntegrityViolation = "integrity_violation", low_frequency: true {
        addr: u64,
        violation: &'static str,
        action: &'static str,
    }
    /// One distributed sweep worker's end-of-sweep accounting (jobs run,
    /// wire bytes each way, jobs reassigned away after it was lost).
    DistWorker = "dist_worker", low_frequency: true {
        worker: String,
        jobs: u64,
        bytes_rx: u64,
        bytes_tx: u64,
        reassigned: u64,
    }
}

impl Event {
    /// Stable snake_case kind tag used in JSONL output and summaries.
    pub fn kind(&self) -> &'static str {
        Self::kind_label(self.kind_index())
    }

    /// Kind tag for a dense index (inverse of [`Event::kind_index`]).
    pub fn kind_label(index: usize) -> &'static str {
        KINDS[index].0
    }

    /// True for kinds that are always logged regardless of sampling.
    pub fn is_low_frequency(&self) -> bool {
        KINDS[self.kind_index()].1
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub use gpu_types::json::escape as json_escape;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_index_roundtrips() {
        let events = [
            Event::KernelStart { kernel: "k".into() },
            Event::KernelEnd {
                kernel: "k".into(),
                cycles: 1,
            },
            Event::L2Miss { bank: 0, addr: 0 },
            Event::MshrStall { bank: 0 },
            Event::DramQueueDepth {
                partition: 0,
                depth: 0,
            },
            Event::CtrCacheMiss { partition: 0 },
            Event::BmtWalk {
                partition: 0,
                depth: 0,
            },
            Event::DetectorTransition {
                partition: 0,
                region: 0,
                detector: "ro",
            },
            Event::MispredictFixup {
                partition: 0,
                bytes: 0,
            },
            Event::IntegrityViolation {
                addr: 0,
                violation: "block_mac_mismatch",
                action: "abort",
            },
            Event::DistWorker {
                worker: "w".into(),
                jobs: 0,
                bytes_rx: 0,
                bytes_tx: 0,
                reassigned: 0,
            },
        ];
        assert_eq!(events.len(), NUM_KINDS);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.kind_index(), i);
            assert_eq!(Event::kind_label(i), e.kind());
        }
    }

    #[test]
    fn json_lines_are_wellformed() {
        let mut out = String::new();
        Event::KernelEnd {
            kernel: "fdtd\"2d".into(),
            cycles: 42,
        }
        .write_json(7, &mut out);
        assert_eq!(
            out,
            "{\"type\":\"event\",\"cycle\":7,\"kind\":\"kernel_end\",\"kernel\":\"fdtd\\\"2d\",\"cycles\":42}"
        );
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(json_escape("a\nb\\c\"d\u{1}"), "a\\nb\\\\c\\\"d\\u0001");
    }
}
