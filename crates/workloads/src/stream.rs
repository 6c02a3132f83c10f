//! Pull-based streaming workload plane.
//!
//! Full-scale traces reach 11M operations; materializing them as a
//! `Vec<TraceOp>` costs hundreds of megabytes per replay *before* the
//! simulator makes its own per-process copy. [`OpStream`] inverts the
//! flow: the generator state (rng, fresh-identity counters, per-process
//! lists) lives inside the stream and each operation is synthesized the
//! moment a client asks for it, so a replay holds only in-flight ops.
//! [`StreamTrace`] is the only workload representation: every runtime
//! takes one.
//!
//! Determinism contract: two streams from one builder with the same
//! parameters yield *exactly* the same header and op sequence, and a
//! generator-backed stream's `total_ops_hint` is the number of ops it
//! yields; `tests/stream_determinism.rs` pins both for every profile.
//! `Metarates::stream()` is checked the same way against the eager
//! generator kept in `metarates.rs`'s unit tests.

use crate::trace::{SeedEntry, TraceOp};
use cx_types::rng::{det_rng, SmallRng};
use cx_types::{FsOp, InodeNo, ProcId};
use std::collections::VecDeque;

/// A pull-based source of trace operations in global issue order.
pub trait OpStream {
    fn next_op(&mut self) -> Option<TraceOp>;
}

/// A workload whose operations are generated on demand. Carries the
/// header (seeds, roots, process count) — everything the cluster needs up
/// front — while the op sequence stays lazy.
pub struct StreamTrace {
    pub name: String,
    pub processes: u32,
    pub seeds: Vec<SeedEntry>,
    /// Directory inodes exempt from orphan checking.
    pub roots: Vec<InodeNo>,
    /// Exact op count for generator- and vec-backed streams; a lower
    /// bound once an injection adapter is stacked on top (the adapter's
    /// additions are rng-dependent). Used for event-budget sizing and
    /// stuck-op accounting, never for termination.
    pub total_ops_hint: u64,
    pub ops: Box<dyn OpStream + Send>,
}

impl StreamTrace {
    /// Stack the conflict-injection adapter on this stream (§IV-D2's
    /// injected lookups). `base_total` / `base_injectable` are the op
    /// counts of the *underlying* stream, obtained from a counting pass
    /// ([`injection_counts`]) over a second stream from the same builder.
    pub fn inject_conflicting_lookups(
        self,
        added_ratio: f64,
        seed: u64,
        base_total: u64,
        base_injectable: u64,
    ) -> StreamTrace {
        if added_ratio <= 0.0 {
            return self;
        }
        let per_mutation = added_ratio * base_total as f64 / base_injectable.max(1) as f64;
        StreamTrace {
            name: self.name,
            processes: self.processes,
            seeds: self.seeds,
            roots: self.roots,
            total_ops_hint: self.total_ops_hint,
            ops: Box::new(InjectLookups {
                inner: self.ops,
                rng: det_rng(seed, 0x1213),
                per_mutation,
                processes: self.processes,
                pending: VecDeque::new(),
            }),
        }
    }
}

/// A stream over an already-materialized op vector.
pub struct VecStream {
    iter: std::vec::IntoIter<TraceOp>,
}

impl VecStream {
    pub fn new(ops: Vec<TraceOp>) -> Self {
        Self {
            iter: ops.into_iter(),
        }
    }
}

impl OpStream for VecStream {
    fn next_op(&mut self) -> Option<TraceOp> {
        self.iter.next()
    }
}

/// Count (total ops, injectable mutations) of a stream by draining it.
/// Used to parameterize [`StreamTrace::inject_conflicting_lookups`]
/// without materializing: generation is re-run (CPU), memory stays flat.
pub fn injection_counts(mut stream: StreamTrace) -> (u64, u64) {
    let mut total = 0u64;
    let mut injectable = 0u64;
    while let Some(t) = stream.ops.next_op() {
        total += 1;
        if matches!(t.op, FsOp::Create { .. } | FsOp::Mkdir { .. }) {
            injectable += 1;
        }
    }
    (total, injectable)
}

/// Stream adapter injecting lookups by *other* processes immediately
/// after create/mkdir mutations — the paper's conflict-ratio sweep
/// (§IV-D2). The rng is drawn once per injected-lookup trial after a
/// pulled create or mkdir, so the emitted sequence depends only on the
/// underlying stream and the seed.
struct InjectLookups {
    inner: Box<dyn OpStream + Send>,
    rng: SmallRng,
    per_mutation: f64,
    processes: u32,
    pending: VecDeque<TraceOp>,
}

impl OpStream for InjectLookups {
    fn next_op(&mut self) -> Option<TraceOp> {
        if let Some(op) = self.pending.pop_front() {
            return Some(op);
        }
        let t = self.inner.next_op()?;
        if t.op.is_mutation() {
            let target = match t.op {
                FsOp::Create { parent, name, .. } | FsOp::Mkdir { parent, name, .. } => {
                    Some((parent, name))
                }
                _ => None,
            };
            if let Some((parent, name)) = target {
                let mut n = self.per_mutation;
                while n > 0.0 && self.rng.gen::<f64>() < n {
                    // an access by a *different* process right after the
                    // mutation: lands in the inconsistency window
                    let other = ProcId::new(t.proc.client.0.wrapping_add(1) % self.processes, 0);
                    self.pending.push_back(TraceOp {
                        proc: other,
                        op: FsOp::Lookup { parent, name },
                    });
                    n -= 1.0;
                }
            }
        }
        Some(t)
    }
}
