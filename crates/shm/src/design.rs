//! The ten design points evaluated across the paper's figures (Table VIII).
//!
//! Each design adds features to a simpler one: PSSM is Naive with
//! partition-local sectored metadata, SHM_readOnly is PSSM with the
//! read-only detector and its shared counter, SHM adds dual-granularity
//! MACs, and the `_cctr`, `_vL2` and upper-bound variants add common
//! counters, the L2 victim cache and oracle predictors.  The columns below
//! are the only thing the engine ([`crate::ShmSystem`]) asks of a design.

use secure_core::Addressing;

/// Every secure-memory design evaluated in the paper (Table VIII), plus the
/// unprotected baseline that normalizes the results.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DesignPoint {
    /// No secure memory — the normalization baseline.
    Unprotected,
    /// Physical-address metadata, non-sectored (Naive).
    Naive,
    /// Naive + common counters.
    CommonCtr,
    /// Partition-local sectored metadata (PSSM).
    Pssm,
    /// PSSM + common counters.
    PssmCctr,
    /// SHM with only the read-only optimisation.
    ShmReadOnly,
    /// Full SHM: read-only + dual-granularity MACs.
    Shm,
    /// SHM + common counters.
    ShmCctr,
    /// SHM + L2 victim cache for metadata.
    ShmVL2,
    /// SHM with oracle predictors.
    ShmUpperBound,
}

impl DesignPoint {
    /// All design points, in the paper's usual presentation order.
    pub const ALL: [DesignPoint; 10] = [
        DesignPoint::Unprotected,
        DesignPoint::Naive,
        DesignPoint::CommonCtr,
        DesignPoint::Pssm,
        DesignPoint::PssmCctr,
        DesignPoint::ShmReadOnly,
        DesignPoint::Shm,
        DesignPoint::ShmCctr,
        DesignPoint::ShmVL2,
        DesignPoint::ShmUpperBound,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DesignPoint::Unprotected => "Baseline",
            DesignPoint::Naive => "Naive",
            DesignPoint::CommonCtr => "Common_ctr",
            DesignPoint::Pssm => "PSSM",
            DesignPoint::PssmCctr => "PSSM_cctr",
            DesignPoint::ShmReadOnly => "SHM_readOnly",
            DesignPoint::Shm => "SHM",
            DesignPoint::ShmCctr => "SHM_cctr",
            DesignPoint::ShmVL2 => "SHM_vL2",
            DesignPoint::ShmUpperBound => "SHM_upper_bound",
        }
    }

    /// Parses a design from its figure label (case-insensitive).
    pub fn from_name(name: &str) -> Option<DesignPoint> {
        let lower = name.to_ascii_lowercase();
        DesignPoint::ALL
            .into_iter()
            .find(|d| d.name().to_ascii_lowercase() == lower)
    }

    /// Whether any protection is applied at all.
    pub const fn protected(self) -> bool {
        !matches!(self, DesignPoint::Unprotected)
    }

    /// How metadata addresses are constructed: from physical addresses
    /// (Naive, Common_ctr) or partition-local ones (everything else).
    pub const fn addressing(self) -> Addressing {
        match self {
            DesignPoint::Naive | DesignPoint::CommonCtr => Addressing::Physical,
            _ => Addressing::Local,
        }
    }

    /// Whether metadata is fetched at 32 B sector granularity (PSSM and
    /// later) or as whole 128 B lines (Naive, Common_ctr).
    pub const fn sectored_metadata(self) -> bool {
        !matches!(self, DesignPoint::Naive | DesignPoint::CommonCtr)
    }

    /// Whether common-value compressed counters let reads skip the counter
    /// fetch and BMT walk.
    pub const fn common_counters(self) -> bool {
        matches!(
            self,
            DesignPoint::CommonCtr | DesignPoint::PssmCctr | DesignPoint::ShmCctr
        )
    }

    /// Whether the read-only detector serves predicted-read-only regions
    /// from the on-chip shared counter (every SHM design).
    pub const fn readonly_detector(self) -> bool {
        matches!(
            self,
            DesignPoint::ShmReadOnly
                | DesignPoint::Shm
                | DesignPoint::ShmCctr
                | DesignPoint::ShmVL2
                | DesignPoint::ShmUpperBound
        )
    }

    /// Whether the streaming detector picks chunk- or block-level MACs
    /// (dual-granularity MACs).
    pub const fn dual_mac(self) -> bool {
        self.readonly_detector() && !matches!(self, DesignPoint::ShmReadOnly)
    }

    /// Whether the L2 serves as a victim cache for metadata.
    pub const fn victim_l2(self) -> bool {
        matches!(self, DesignPoint::ShmVL2)
    }

    /// Whether oracle predictors replace the hardware detectors.
    pub const fn oracle(self) -> bool {
        matches!(self, DesignPoint::ShmUpperBound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = DesignPoint::ALL.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DesignPoint::ALL.len());
    }

    #[test]
    fn from_name_roundtrips() {
        for d in DesignPoint::ALL {
            assert_eq!(DesignPoint::from_name(d.name()), Some(d));
            assert_eq!(DesignPoint::from_name(&d.name().to_uppercase()), Some(d));
        }
        assert_eq!(DesignPoint::from_name("nonesuch"), None);
    }

    #[test]
    fn oracle_requirement() {
        assert!(DesignPoint::ShmUpperBound.oracle());
        assert!(!DesignPoint::Shm.oracle());
    }

    #[test]
    fn baseline_names_match_paper() {
        assert_eq!(DesignPoint::CommonCtr.name(), "Common_ctr");
        assert_eq!(DesignPoint::Pssm.name(), "PSSM");
    }

    #[test]
    fn shm_names_match_paper() {
        assert_eq!(DesignPoint::Shm.name(), "SHM");
        assert_eq!(DesignPoint::ShmReadOnly.name(), "SHM_readOnly");
        assert_eq!(DesignPoint::ShmCctr.name(), "SHM_cctr");
        assert_eq!(DesignPoint::ShmVL2.name(), "SHM_vL2");
        assert_eq!(DesignPoint::ShmUpperBound.name(), "SHM_upper_bound");
    }

    #[test]
    fn table_viii_configurations() {
        assert_eq!(DesignPoint::Naive.addressing(), Addressing::Physical);
        assert!(!DesignPoint::Naive.sectored_metadata());

        assert_eq!(DesignPoint::Pssm.addressing(), Addressing::Local);
        assert!(DesignPoint::Pssm.sectored_metadata());

        assert!(DesignPoint::PssmCctr.common_counters());

        assert!(!DesignPoint::Unprotected.protected());
    }

    #[test]
    fn feature_matrix() {
        assert!(!DesignPoint::ShmReadOnly.dual_mac());
        assert!(DesignPoint::Shm.dual_mac());
        assert!(DesignPoint::ShmCctr.common_counters());
        assert!(!DesignPoint::Shm.common_counters());
        assert!(DesignPoint::ShmVL2.victim_l2());
        assert!(DesignPoint::ShmUpperBound.oracle());
        // The detectors are what separates the SHM family from the baselines.
        for d in DesignPoint::ALL {
            assert_eq!(d.readonly_detector(), d.name().starts_with("SHM"));
        }
    }
}
