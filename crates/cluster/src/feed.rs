//! Per-process operation intake over a pull-based workload stream.
//!
//! Both runtimes replay a trace as per-process synchronous queues, but a
//! [`StreamTrace`] yields ops in *global* order. [`OpFeed`] bridges the
//! two: each pull from the stream is routed to its process's buffer, and
//! a process asking for its next op drains the stream just far enough.
//! Per-process subsequences — the only order the replay observes — are
//! exactly those of the materialized trace (a vec-backed stream goes
//! through the same feed), so there is one intake.

use cx_types::FsOp;
use cx_workloads::OpStream;
use std::collections::VecDeque;

pub struct OpFeed {
    source: Box<dyn OpStream + Send>,
    buffers: Vec<VecDeque<FsOp>>,
    exhausted: bool,
    /// Ops pulled out of the source so far.
    pulled: u64,
    total_hint: u64,
}

impl OpFeed {
    /// Wrap a stream and pre-pull until every process has at least one
    /// buffered op (or the stream ends): afterwards, a process with an
    /// empty buffer provably has no ops in the whole trace and starts
    /// out `done`.
    pub fn new(source: Box<dyn OpStream + Send>, processes: u32, total_hint: u64) -> Self {
        let mut feed = Self {
            source,
            buffers: (0..processes).map(|_| VecDeque::new()).collect(),
            exhausted: false,
            pulled: 0,
            total_hint,
        };
        let mut empty = feed.buffers.len();
        while empty > 0 && !feed.exhausted {
            match feed.source.next_op() {
                Some(t) => {
                    feed.pulled += 1;
                    let b = &mut feed.buffers[t.proc.client.0 as usize];
                    if b.is_empty() {
                        empty -= 1;
                    }
                    b.push_back(t.op);
                }
                None => feed.exhausted = true,
            }
        }
        feed
    }

    /// Whether `proc` has no ops at all (valid right after construction).
    pub fn starts_empty(&self, proc: u32) -> bool {
        self.buffers[proc as usize].is_empty()
    }

    /// Next op for `proc`, pulling the source forward as needed.
    pub fn next_for(&mut self, proc: u32) -> Option<FsOp> {
        loop {
            if let Some(op) = self.buffers[proc as usize].pop_front() {
                return Some(op);
            }
            if self.exhausted {
                return None;
            }
            match self.source.next_op() {
                Some(t) => {
                    self.pulled += 1;
                    self.buffers[t.proc.client.0 as usize].push_back(t.op);
                }
                None => self.exhausted = true,
            }
        }
    }

    /// Ops not yet handed to any process: buffered plus (estimated) still
    /// in the source. Exact for vec- and generator-backed streams, a
    /// lower bound under the injection adapter.
    pub fn remaining(&self) -> u64 {
        let buffered: u64 = self.buffers.iter().map(|b| b.len() as u64).sum();
        if self.exhausted {
            buffered
        } else {
            buffered + self.total_hint.saturating_sub(self.pulled)
        }
    }

    pub fn total_hint(&self) -> u64 {
        self.total_hint
    }
}
