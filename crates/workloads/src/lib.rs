//! Workloads: synthetic traces, the Metarates benchmark, and conflict
//! injection, each generated lazily as a [`StreamTrace`] — the one
//! workload representation every runtime takes.
//!
//! The paper evaluates Cx with six real traces (Table II / Figure 4): three
//! supercomputing traces from Sandia's Red Storm (CTH, s3d_fortIO, alegra)
//! and three Harvard NFS traces (home2, deasna2, lair62b). Those traces are
//! not redistributable, so this crate synthesizes statistically equivalent
//! workloads (see DESIGN.md §2): each [`TraceProfile`] reproduces the
//! published total operation count, the conflict ratio, the stated
//! cross-server proportions (≈35 % for CTH, ≈48 % for s3d), and a
//! documented per-class operation mix standing in for Figure 4.
//!
//! The access-pattern structure follows the paper's analysis (§II-C):
//! checkpointing processes create state files that are "normally
//! exclusively accessed by the process which created it", so conflicts are
//! rare and arise only from the small shared-file population; the NFS
//! workloads are "exclusive-dominated" per-user directories with slightly
//! more sharing.
//!
//! [`Metarates`] emulates the MPI benchmark of §IV-B: processes
//! concurrently create/remove zero-byte files in one common directory and
//! stat them, in read-dominated (20/80) and update-dominated (80/20)
//! mixes.

pub mod metarates;
pub mod model;
pub mod profile;
pub mod stats;
pub mod stream;
pub mod trace;

pub use metarates::{Metarates, MetaratesMix};
pub use model::NamespaceModel;
pub use profile::{ClassMix, TraceProfile, PROFILES};
pub use stats::TraceSummary;
pub use stream::{injection_counts, OpStream, StreamTrace, VecStream};
pub use trace::{SeedEntry, TraceBuilder, TraceOp};
