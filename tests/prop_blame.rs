//! Property tests for the blame engine: for ANY span the decomposition
//! must produce non-negative segments (guaranteed by `u64`, but the sums
//! are asserted exactly) that telescope to the client-visible latency,
//! with the suffix segments telescoping to the commitment latency —
//! including spans with disordered stamps, arbitrary edge sets, and spans
//! assembled by the shard-merge path with randomized clock offsets.

use cx_obs::flow::{FlowNode, MsgEdge};
use cx_obs::span::{OpSpan, Phase};
use cx_obs::{blame_span, BlameTable, ObsSink};
use cx_types::check::check;
use cx_types::{MsgKind, OpClass, OpId, OpOutcome, ProcId, ServerId, SimTime};

fn op(client: u32, seq: u64) -> OpId {
    OpId::new(ProcId::new(client, 0), seq)
}

/// A span with an arbitrary subset of phases stamped at arbitrary (not
/// necessarily ordered) times. `stamps[i]` = Some(t) stamps phase i+1
/// (Issued always comes from the constructor).
fn raw_span(client: u32, issued: u64, stamps: &[Option<u64>]) -> OpSpan {
    let mut s = OpSpan::new(op(client, 1), OpClass::Create, true, SimTime(issued));
    for (i, t) in stamps.iter().enumerate() {
        if let Some(t) = t {
            // Direct writes, bypassing stamp()'s niceties: the blame
            // engine must survive stamps in any order.
            s.at_ns[i + 1] = *t;
        }
    }
    s
}

fn raw_edge(id: u64, client: u32, spec: &(u8, u8, u8, u64, u64)) -> MsgEdge {
    let (kind_i, from_i, to_i, sent, recv) = *spec;
    let node = |i: u8| {
        if i == 0 {
            FlowNode::Client(client)
        } else {
            FlowNode::Server(i as u32 - 1)
        }
    };
    MsgEdge {
        id,
        op: Some(op(client, 1)),
        kind: MsgKind::ALL[kind_i as usize % MsgKind::COUNT],
        from: node(from_i % 5),
        to: node(to_i % 5),
        sent_ns: sent,
        recv_ns: recv,
    }
}

/// The core invariant under fuzzed stamps and edges: whenever a span
/// is decomposable (Issued + Replied present), client segments sum
/// exactly to the client window and suffix segments to the commitment
/// window.
#[test]
fn segments_sum_exactly_for_random_stamps() {
    check("segments_sum_exactly_for_random_stamps", 48, |g| {
        let issued = g.gen_range(0u64..1_000_000);
        let stamps = g.vec((Phase::COUNT - 1)..Phase::COUNT, |g| {
            g.gen_bool(0.75).then(|| g.gen_range(0u64..2_000_000))
        });
        let edges = g.vec(0..12, |g| {
            let (kind, from, to) = (g.gen_range(0..30), g.gen_range(0..8), g.gen_range(0..8));
            let (sent, recv) = (g.gen_range(0..2_000_000), g.gen_range(0..2_000_000));
            (kind, from, to, sent, recv)
        });
        let span = raw_span(3, issued, &stamps);
        let edges: Vec<MsgEdge> = edges
            .iter()
            .enumerate()
            .map(|(i, spec)| raw_edge(i as u64 + 1, 3, spec))
            .collect();
        let refs: Vec<&MsgEdge> = edges.iter().collect();
        match blame_span(&span, &refs) {
            Some(b) => {
                assert!(b.check().is_ok(), "{:?}", b.check());
                let client: u64 = b.segs[..7].iter().sum();
                let replied = span.at(Phase::Replied).unwrap().max(issued);
                assert_eq!(client, replied - issued);
                let suffix: u64 = b.segs[7..].iter().sum();
                assert_eq!(suffix, b.commit_ns);
                // Chain rows re-sum to the same totals.
                let chain: u64 = b.chain.iter().map(|c| c.dur_ns).sum();
                assert_eq!(chain, client + suffix);
            }
            None => {
                // Only legitimate when the reply milestone is missing.
                assert!(span.at(Phase::Replied).is_none());
            }
        }
    });
}

/// Shard-merge path: a coordinator recorder absorbs server-side
/// stamps and edges recorded on a skewed clock. Every merged span must
/// still decompose with exact sums, and the aggregated table must
/// cover every replied op.
#[test]
fn shard_merged_spans_still_sum() {
    check("shard_merged_spans_still_sum", 48, |g| {
        let (offset, n_ops) = (
            g.gen_range(-3_000_000i64..3_000_000),
            g.gen_range(1usize..8),
        );
        let (exec_at, reply_gap) = (g.gen_range(2_000u64..50_000), g.gen_range(1u64..10_000));
        let coord = ObsSink::recording("cx");
        let shard = ObsSink::recording("cx");
        for i in 0..n_ops as u64 {
            let o = op(2, i);
            let t0 = i * 1_000;
            coord.op_issued(o, OpClass::Mkdir, true, SimTime(t0));
            coord.op_phase(o, Phase::Dispatched, SimTime(t0 + 100), None);
            // The shard's clock runs `offset` ahead of the coordinator's.
            let shard_exec = (t0 + exec_at) as i64 + offset;
            if shard_exec >= 0 {
                shard.op_issued(o, OpClass::Mkdir, true, SimTime(t0));
                shard.op_phase(
                    o,
                    Phase::Executed,
                    SimTime(shard_exec as u64),
                    Some(ServerId(1)),
                );
                shard.msg_edge(
                    Some(o),
                    MsgKind::SubOpResp,
                    FlowNode::Server(1),
                    FlowNode::Client(2),
                    shard_exec as u64,
                    shard_exec as u64 + 50,
                );
            }
            coord.op_replied(
                o,
                SimTime(t0 + exec_at + reply_gap),
                OpOutcome::Applied,
                false,
            );
        }
        let (spans, edges) = shard.export_shard();
        coord.absorb_shard(&spans, &edges, offset);
        let (merged, merged_edges) = coord.export_shard();
        for span in &merged {
            assert!(span.check_accounting().is_ok());
            let refs: Vec<&MsgEdge> = merged_edges
                .iter()
                .filter(|e| e.op == Some(span.op))
                .collect();
            let b = blame_span(span, &refs).expect("replied span decomposes");
            assert!(b.check().is_ok(), "{:?}", b.check());
        }
        let table = BlameTable::from_spans("cx", &merged, &merged_edges);
        assert_eq!(table.ops, n_ops as u64);
    });
}

/// Merging two tables is equivalent to building one from the union:
/// per-segment histogram moments must match exactly.
#[test]
fn table_merge_matches_union() {
    check("table_merge_matches_union", 48, |g| {
        let lat_a = g.vec(1..20, |g| g.gen_range(100u64..1_000_000));
        let lat_b = g.vec(1..20, |g| g.gen_range(100u64..1_000_000));
        let build = |lats: &[u64], base: u64| -> Vec<OpSpan> {
            lats.iter()
                .enumerate()
                .map(|(i, &lat)| {
                    let t0 = base + i as u64 * 2_000_000;
                    let mut s =
                        OpSpan::new(op(1, base + i as u64), OpClass::Link, true, SimTime(t0));
                    s.stamp(Phase::Dispatched, SimTime(t0 + lat / 4), None);
                    s.stamp(Phase::Executed, SimTime(t0 + lat / 2), Some(ServerId(0)));
                    s.stamp(Phase::Replied, SimTime(t0 + lat), None);
                    s
                })
                .collect()
        };
        let sa = build(&lat_a, 0);
        let sb = build(&lat_b, 1_000_000_000);
        let mut union = sa.clone();
        union.extend(sb.iter().cloned());
        let ta = BlameTable::from_spans("cx", &sa, &[]);
        let tb = BlameTable::from_spans("cx", &sb, &[]);
        let tu = BlameTable::from_spans("cx", &union, &[]);
        let mut merged = ta;
        merged.merge(&tb);
        assert_eq!(merged.ops, tu.ops);
        assert_eq!(merged.client_total.sum, tu.client_total.sum);
        for (m, u) in merged.segs.iter().zip(&tu.segs) {
            assert_eq!(m.hist.sum, u.hist.sum, "segment {}", m.seg.name());
            assert_eq!(m.hist.count, u.hist.count);
        }
    });
}
