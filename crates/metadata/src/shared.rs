//! The on-chip shared counter register for read-only regions.
//!
//! Read-only data needs no per-block temporal uniqueness within a single
//! kernel, so one on-chip counter serves every read-only region (Section
//! III-B).  The register only matters across kernel boundaries: when the
//! host re-uses a read-only region via `InputReadOnlyReset`, the shared
//! counter is raised to at least the maximum per-block major counter found
//! in the reset range, so a pad value can never be reused by a cross-kernel
//! replay attack (Fig. 9).

/// The on-chip shared counter register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SharedCounter {
    value: u64,
}

impl SharedCounter {
    /// A new register starting at zero.
    pub const fn new() -> Self {
        Self { value: 0 }
    }

    /// Current value — used as the major counter for every read-only block
    /// (the minor counter is zero-padded).
    pub const fn value(self) -> u64 {
        self.value
    }

    /// `(major, minor)` seed pair for read-only data.
    pub const fn seed_pair(self) -> (u64, u16) {
        (self.value, 0)
    }

    /// Applies an `InputReadOnlyReset`: raises the register to
    /// `max(current, max_scanned_major) + 1` where `max_scanned_major` is
    /// the maximum per-block major counter scanned from the reset range.
    ///
    /// The paper resets to the scanned maximum; we additionally add one,
    /// because the pad `(major = scanned_max, minor = 0)` has already been
    /// consumed either by the previous read-only generation or by untouched
    /// blocks after shared-counter propagation, and counter-mode pads must
    /// never be reused with different data.  Returns the new value.
    pub fn reset_for_reuse(&mut self, max_scanned_major: u64) -> u64 {
        self.value = self.value.max(max_scanned_major) + 1;
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SharedCounter::new().value(), 0);
        assert_eq!(SharedCounter::new().seed_pair(), (0, 0));
    }

    #[test]
    fn reset_takes_max_plus_one() {
        let mut c = SharedCounter::new();
        assert_eq!(
            c.reset_for_reuse(90),
            91,
            "Fig. 9 example, +1 for pad freshness"
        );
        assert_eq!(c.reset_for_reuse(5), 92, "never lowered; always advances");
    }
}
