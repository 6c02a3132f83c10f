//! The six trace profiles of Table II / Figure 4.
//!
//! The published facts we reproduce exactly: total operation counts and
//! conflict ratios (Table II), plus the cross-server proportions the text
//! states ("about 48% of metadata requests are cross-server operations" on
//! s3d, "about 35%" on CTH, §IV-C1). The per-class mix stands in for
//! Figure 4 (whose bars are not numerically legible in the text):
//! checkpoint-style create/remove-heavy mixes for the Red Storm traces,
//! lookup/getattr-heavy mixes for the Harvard NFS traces — consistent with
//! the paper's description of both workload families (§II-C).

use cx_types::OpClass;

/// Relative weights per operation class (they need not sum to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    pub create: f64,
    pub remove: f64,
    pub mkdir: f64,
    pub rmdir: f64,
    pub link: f64,
    pub unlink: f64,
    pub stat: f64,
    pub lookup: f64,
    pub getattr: f64,
    pub setattr: f64,
    pub readdir: f64,
    pub access: f64,
}

impl ClassMix {
    pub fn weight(&self, class: OpClass) -> f64 {
        match class {
            OpClass::Create => self.create,
            OpClass::Remove => self.remove,
            OpClass::Mkdir => self.mkdir,
            OpClass::Rmdir => self.rmdir,
            OpClass::Link => self.link,
            OpClass::Unlink => self.unlink,
            OpClass::Stat => self.stat,
            OpClass::Lookup => self.lookup,
            OpClass::Getattr => self.getattr,
            OpClass::Setattr => self.setattr,
            OpClass::Readdir => self.readdir,
            OpClass::Access => self.access,
        }
    }

    pub fn total(&self) -> f64 {
        OpClass::ALL.iter().map(|c| self.weight(*c)).sum()
    }

    /// Fraction of operations that are Table I mutations (the only ones
    /// that can become cross-server).
    pub fn mutation_fraction(&self) -> f64 {
        let m = self.create + self.remove + self.mkdir + self.rmdir + self.link + self.unlink;
        m / self.total()
    }

    /// Normalized share of one class.
    pub fn share(&self, class: OpClass) -> f64 {
        self.weight(class) / self.total()
    }
}

/// One synthetic trace profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceProfile {
    /// Trace name as in the paper.
    pub name: &'static str,
    /// Origin description.
    pub origin: &'static str,
    /// Total metadata operations (Table II).
    pub total_ops: u64,
    /// Conflict ratio the paper measured (Table II), as a fraction.
    pub paper_conflict_ratio: f64,
    /// Number of client processes that generated the trace.
    pub processes: u32,
    /// Operation mix (stands in for Figure 4).
    pub mix: ClassMix,
    /// Probability that a read targets another process's recently
    /// created shared file — the knob calibrated so the *measured*
    /// conflict ratio lands near `paper_conflict_ratio`.
    pub shared_access_prob: f64,
    /// Fraction of creates that go to the shared (common) directory
    /// rather than the process's private directory.
    pub shared_create_frac: f64,
}

/// Checkpoint-style supercomputing mix: dominated by state-file creates
/// and removes plus the stats that checkpointing libraries issue.
const HPC_MIX: ClassMix = ClassMix {
    create: 0.22,
    remove: 0.13,
    mkdir: 0.01,
    rmdir: 0.005,
    link: 0.005,
    unlink: 0.03,
    stat: 0.22,
    lookup: 0.16,
    getattr: 0.12,
    setattr: 0.02,
    readdir: 0.02,
    access: 0.06,
};

/// NFS network-server mix: lookup/getattr heavy, moderate mutations.
const NFS_MIX: ClassMix = ClassMix {
    create: 0.065,
    remove: 0.05,
    mkdir: 0.005,
    rmdir: 0.003,
    link: 0.007,
    unlink: 0.02,
    stat: 0.10,
    lookup: 0.33,
    getattr: 0.27,
    setattr: 0.03,
    readdir: 0.05,
    access: 0.07,
};

/// Email-server mix (lair62b): more create/remove churn than home dirs.
const MAIL_MIX: ClassMix = ClassMix {
    create: 0.10,
    remove: 0.09,
    mkdir: 0.004,
    rmdir: 0.002,
    link: 0.015,
    unlink: 0.039,
    stat: 0.09,
    lookup: 0.31,
    getattr: 0.23,
    setattr: 0.03,
    readdir: 0.04,
    access: 0.05,
};

/// The six profiles of Table II.
pub const PROFILES: [TraceProfile; 6] = [
    TraceProfile {
        name: "CTH",
        origin: "CTH 8.1 shock physics on 3300 Red Storm clients (Sandia)",
        total_ops: 505_247,
        paper_conflict_ratio: 0.00112,
        processes: 64,
        mix: HPC_MIX,
        shared_access_prob: 0.0042,
        shared_create_frac: 0.55,
    },
    TraceProfile {
        name: "s3d",
        origin: "s3d Fortran IO on 6400 Red Storm clients (Sandia)",
        total_ops: 724_818,
        paper_conflict_ratio: 0.00322,
        processes: 64,
        mix: ClassMix {
            // s3d has the highest cross-server share (~48%): heavier
            // create/remove churn than CTH.
            create: 0.30,
            remove: 0.18,
            mkdir: 0.012,
            rmdir: 0.006,
            link: 0.004,
            unlink: 0.048,
            stat: 0.16,
            lookup: 0.12,
            getattr: 0.09,
            setattr: 0.015,
            readdir: 0.015,
            access: 0.05,
        },
        shared_access_prob: 0.0148,
        shared_create_frac: 0.6,
    },
    TraceProfile {
        name: "alegra",
        origin: "Alegra shock on 5000 Red Storm clients (Sandia)",
        total_ops: 404_812,
        paper_conflict_ratio: 0.00623,
        processes: 64,
        mix: HPC_MIX,
        shared_access_prob: 0.024,
        shared_create_frac: 0.55,
    },
    TraceProfile {
        name: "home2",
        origin: "Harvard primary home directories (NFS)",
        total_ops: 2_720_599,
        paper_conflict_ratio: 0.00669,
        processes: 96,
        mix: NFS_MIX,
        shared_access_prob: 0.025,
        shared_create_frac: 0.25,
    },
    TraceProfile {
        name: "deasna2",
        origin: "Harvard research directories (NFS)",
        total_ops: 3_888_022,
        paper_conflict_ratio: 0.02972,
        processes: 96,
        mix: NFS_MIX,
        shared_access_prob: 0.150,
        shared_create_frac: 0.35,
    },
    TraceProfile {
        name: "lair62b",
        origin: "Harvard email directories (NFS)",
        total_ops: 11_057_516,
        paper_conflict_ratio: 0.01571,
        processes: 128,
        mix: MAIL_MIX,
        shared_access_prob: 0.072,
        shared_create_frac: 0.30,
    },
];

impl TraceProfile {
    pub fn by_name(name: &str) -> Option<&'static TraceProfile> {
        PROFILES.iter().find(|p| p.name == name)
    }

    /// Expected cross-server share at `servers` metadata servers: every
    /// mutation whose two halves land on different servers (probability
    /// 1 − 1/N under OrangeFS placement).
    pub fn expected_cross_server(&self, servers: u32) -> f64 {
        self.mix.mutation_fraction() * (1.0 - 1.0 / servers as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_totals_match_the_paper() {
        let expect: [(&str, u64, f64); 6] = [
            ("CTH", 505_247, 0.00112),
            ("s3d", 724_818, 0.00322),
            ("alegra", 404_812, 0.00623),
            ("home2", 2_720_599, 0.00669),
            ("deasna2", 3_888_022, 0.02972),
            ("lair62b", 11_057_516, 0.01571),
        ];
        for (name, ops, conflict) in expect {
            let p = TraceProfile::by_name(name).unwrap();
            assert_eq!(p.total_ops, ops);
            assert!((p.paper_conflict_ratio - conflict).abs() < 1e-9);
        }
    }

    #[test]
    fn mixes_are_normalized_enough() {
        for p in &PROFILES {
            let t = p.mix.total();
            assert!((0.95..=1.05).contains(&t), "{} mix sums to {t}", p.name);
        }
    }

    #[test]
    fn cross_server_shares_match_the_text() {
        // "about 35% of metadata requests are cross-server operations" on
        // CTH and "about 48%" on s3d, at 8 servers (§IV-C1).
        let cth = TraceProfile::by_name("CTH")
            .unwrap()
            .expected_cross_server(8);
        assert!((0.30..=0.42).contains(&cth), "CTH cross-server {cth}");
        let s3d = TraceProfile::by_name("s3d")
            .unwrap()
            .expected_cross_server(8);
        assert!((0.43..=0.53).contains(&s3d), "s3d cross-server {s3d}");
    }

    #[test]
    fn nfs_profiles_are_read_dominated() {
        for name in ["home2", "deasna2", "lair62b"] {
            let p = TraceProfile::by_name(name).unwrap();
            assert!(
                p.mix.mutation_fraction() < 0.30,
                "{name} should be read-dominated"
            );
        }
    }

    #[test]
    fn hpc_profiles_are_mutation_heavy() {
        for name in ["CTH", "s3d", "alegra"] {
            let p = TraceProfile::by_name(name).unwrap();
            assert!(
                p.mix.mutation_fraction() > 0.35,
                "{name} should be mutation-heavy"
            );
        }
    }

    #[test]
    fn conflict_knob_tracks_paper_ratio() {
        // sharing probability must scale with the target conflict ratio so
        // calibration is monotone
        let mut last = 0.0;
        let mut by_ratio: Vec<_> = PROFILES.iter().collect();
        by_ratio.sort_by(|a, b| {
            a.paper_conflict_ratio
                .partial_cmp(&b.paper_conflict_ratio)
                .unwrap()
        });
        for p in by_ratio {
            assert!(
                p.shared_access_prob >= last,
                "{} sharing probability must be monotone in conflict ratio",
                p.name
            );
            last = p.shared_access_prob;
        }
    }
}
