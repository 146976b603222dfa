//! The per-layer ledger of a traced run.
//!
//! Self time is the duration of a node's callbacks. A hop is the time
//! from `NetCtx::send` to the start of the `on_message` it causes, so it
//! holds encode, egress queueing, the socket, decode and mailbox wait.
//!
//! Reconciliation walks each completed op's causal chain backwards from
//! the client callback that finished it, through send→delivery and
//! timer→callback links, to the client callback that began it. Along the
//! chain, hops + callback self time + timer waits should add up to the
//! latency the client measured, within [`RECONCILE_RANGE`].

use crate::probe::{Cause, Span};
use crate::run::{percentile, Op, RunData};
use crate::workload::{Role, Workload};
use crate::Metric;
use bytes::BytesMut;
use scalla_proto::{encode_frame_traced, FrameDecoder, Msg};
use scalla_util::Nanos;
use std::time::Instant;

/// Accepted range of (hops + callback self time + timer waits) along the
/// chains over client latency, aggregated over every reconciled op. The
/// sum cannot fall short of the latency unless a piece of the path went
/// unrecorded; it exceeds it by the work callbacks do after the send that
/// continues the chain (that work overlaps the next hop).
const RECONCILE_RANGE: (f64, f64) = (0.95, 1.30);
/// Share of completed ops whose chain must reconcile on its own trace
/// (the rest joined another op's origin fill, see [`Chain::Joined`]).
const MIN_RECONCILED: f64 = 0.90;
/// Replay passes over the captured message mix; the median is reported.
const REPLAY_PASSES: usize = 5;

enum Chain {
    /// The chain reached the op's first callback.
    Complete { hops: u32, hop: u64, busy: u64, wait: u64 },
    /// The chain entered another op's trace (a read released by a block
    /// fill another client's read started).
    Joined,
    /// A link was missing.
    Broken,
}

struct Spans<'a> {
    by_node: Vec<&'a [Span]>,
}

impl<'a> Spans<'a> {
    fn get(&self, id: u64) -> Option<&'a Span> {
        self.by_node.get(Span::node_of(id))?.get(Span::seq_of(id))
    }

    /// The callback on `node` running at instant `t`.
    fn at(&self, node: usize, t: Nanos) -> Option<&'a Span> {
        let spans = self.by_node[node];
        let i = spans.partition_point(|s| s.start <= t).checked_sub(1)?;
        (spans[i].end >= t).then(|| &spans[i])
    }

    fn chain(&self, client: usize, op: &Op) -> Chain {
        let Some(mut cur) = self.at(client, op.end) else { return Chain::Broken };
        let (mut hops, mut hop, mut busy, mut wait) = (0u32, 0u64, op.end.since(cur.start).0, 0u64);
        for _ in 0..4096 {
            let (parent, at) = match cur.cause {
                Cause::Send { span, at } => {
                    hops += 1;
                    hop += cur.start.since(at).0;
                    (span, at)
                }
                Cause::Timer { span, at } => {
                    wait += cur.start.since(at).0;
                    (span, at)
                }
                Cause::None => return Chain::Broken,
            };
            let Some(p) = self.get(parent) else { return Chain::Broken };
            if p.node as usize == client && p.start <= op.start && op.start <= p.end {
                busy += at.since(op.start).0;
                return Chain::Complete { hops, hop, busy, wait };
            }
            if p.end < op.start || (p.trace != 0 && p.trace != op.trace) {
                return Chain::Joined;
            }
            busy += p.end.since(p.start).0;
            cur = p;
        }
        Chain::Broken
    }
}

/// Median per-message encode and decode time over the captured mix, and
/// mean frame bytes.
fn replay(msgs: &[&Msg]) -> (f64, f64, f64) {
    if msgs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    const BATCH_BYTES: usize = 8 << 20;
    let mut enc = Vec::with_capacity(REPLAY_PASSES);
    let mut dec = Vec::with_capacity(REPLAY_PASSES);
    let mut bytes = 0usize;
    for _ in 0..REPLAY_PASSES {
        let (mut e, mut d, mut decoded) = (0u128, 0u128, 0usize);
        bytes = 0;
        let mut i = 0;
        while i < msgs.len() {
            let mut wire = BytesMut::with_capacity(BATCH_BYTES);
            let t = Instant::now();
            while i < msgs.len() && wire.len() < BATCH_BYTES {
                encode_frame_traced(msgs[i], 0x5EED, &mut wire);
                i += 1;
            }
            e += t.elapsed().as_nanos();
            bytes += wire.len();
            let mut decoder = FrameDecoder::new();
            let t = Instant::now();
            for chunk in wire.chunks(16 * 1024) {
                decoder.feed(chunk);
                while let Some(m) = decoder.next_traced().expect("replayed frames decode") {
                    std::hint::black_box(m);
                    decoded += 1;
                }
            }
            d += t.elapsed().as_nanos();
        }
        assert_eq!(decoded, msgs.len(), "replay decodes every frame");
        enc.push(e as f64 / msgs.len() as f64);
        dec.push(d as f64 / msgs.len() as f64);
    }
    enc.sort_by(f64::total_cmp);
    dec.sort_by(f64::total_cmp);
    (enc[REPLAY_PASSES / 2], dec[REPLAY_PASSES / 2], bytes as f64 / msgs.len() as f64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of a traced run, and any reconciliation violation.
pub fn per_layer(d: &RunData) -> (Vec<Metric>, Vec<String>) {
    let spans = Spans { by_node: d.recorders.iter().map(|r| r.spans.as_slice()).collect() };
    let ops = d.completed_in_window().max(1) as f64;
    let in_window = |s: &Span| s.start >= d.t0 && s.start <= d.t1;

    // Self time per role over the window.
    let self_us = |role: Role| -> f64 {
        let ns: u64 = spans
            .by_node
            .iter()
            .enumerate()
            .filter(|(n, _)| d.roles[*n] == role)
            .flat_map(|(_, s)| s.iter())
            .filter(|s| in_window(s))
            .map(|s| s.end.since(s.start).0)
            .sum();
        ns as f64 / 1e3 / ops
    };

    // Hop latency over every request-carrying delivery in the window.
    let mut hops: Vec<u64> = spans
        .by_node
        .iter()
        .flat_map(|s| s.iter())
        .filter(|s| in_window(s) && s.trace != 0)
        .filter_map(|s| match s.cause {
            Cause::Send { at, .. } => Some(s.start.since(at).0),
            _ => None,
        })
        .collect();
    hops.sort_unstable();

    // Critical paths of the window's completed ops.
    let (mut reconciled, mut joined, mut broken) = (0u64, 0u64, 0u64);
    let (mut path_hops, mut chain_ns, mut lat_ns) = (0u64, 0u64, 0u64);
    let (mut redirects, mut waits, mut refreshes, mut slow) = (0u64, 0u64, 0u64, 0u64);
    for (c, w) in d.clients.iter().enumerate() {
        for op in d.ok_ops_of(w) {
            redirects += u64::from(op.redirects);
            waits += u64::from(op.waits);
            refreshes += u64::from(op.refreshes);
            slow += u64::from(op.latency() > Nanos::from_secs(1));
            match spans.chain(d.client_nodes[c], op) {
                Chain::Complete { hops, hop, busy, wait } => {
                    reconciled += 1;
                    path_hops += u64::from(hops);
                    chain_ns += hop + busy + wait;
                    lat_ns += op.latency().0;
                }
                Chain::Joined => joined += 1,
                Chain::Broken => broken += 1,
            }
        }
    }
    let total_ops = reconciled + joined + broken;
    let share = ratio(chain_ns, lat_ns);
    let reconciled_ratio = ratio(reconciled, total_ops);
    let mut violations = Vec::new();
    if broken > 0 {
        violations.push(format!("reconciliation: {broken} ops with a broken causal chain"));
    }
    if reconciled_ratio < MIN_RECONCILED {
        violations.push(format!(
            "reconciliation: only {reconciled} of {total_ops} ops reconciled on their own trace"
        ));
    }
    if !(RECONCILE_RANGE.0..=RECONCILE_RANGE.1).contains(&share) {
        violations.push(format!(
            "reconciliation: hops + self time + waits sum to {share:.3} of client latency, \
             outside {RECONCILE_RANGE:?}"
        ));
    }

    // Codec replay of the window's message mix.
    let captured: Vec<&Msg> = d.recorders.iter().flat_map(|r| r.captured.iter()).collect();
    let sent: u64 = d.recorders.iter().map(|r| r.sent).sum();
    let (encode_ns, decode_ns, frame_bytes) = replay(&captured);

    let role_count = |role: Role, f: fn(&crate::probe::Recorder) -> u64| -> u64 {
        d.recorders.iter().enumerate().filter(|(n, _)| d.roles[*n] == role).map(|(_, r)| f(r)).sum()
    };
    let locates =
        role_count(Role::Manager, |r| r.locates) + role_count(Role::Supervisor, |r| r.locates);
    let origin_reads = role_count(Role::Proxy, |r| r.reads);

    let net = (&d.before.net.egress, &d.after.net.egress);
    let sum_cache = |f: fn(&scalla_cache::StatsSnapshot) -> u64| -> u64 {
        d.after.cache.iter().map(f).sum::<u64>() - d.before.cache.iter().map(f).sum::<u64>()
    };
    let store = match (d.before.store, d.after.store) {
        (Some(a), Some(b)) => (b.hits - a.hits, b.misses - a.misses, b.evictions - a.evictions),
        _ => (0, 0, 0),
    };
    let lc = match (d.before.lcache, d.after.lcache) {
        (Some(a), Some(b)) => (
            b.hits - a.hits,
            b.misses - a.misses,
            (b.purges_stale + b.purges_recovery) - (a.purges_stale + a.purges_recovery),
        ),
        _ => (0, 0, 0),
    };

    let m = vec![
        Metric::new("sim.hop_p50_us", percentile(&hops, 0.50) / 1e3, "us"),
        Metric::new("sim.hop_p99_us", percentile(&hops, 0.99) / 1e3, "us"),
        Metric::new("sim.hops_per_op", ratio(path_hops, reconciled), "count"),
        Metric::new(
            "sim.frames_per_write",
            ratio(net.1.frames - net.0.frames, net.1.writes - net.0.writes),
            "ratio",
        ),
        Metric::new("sim.drops", d.drops as f64, "count"),
        Metric::new("proto.encode_ns", encode_ns, "ns"),
        Metric::new("proto.decode_ns", decode_ns, "ns"),
        Metric::new("proto.wire_bytes_per_op", frame_bytes * sent as f64 / ops, "bytes"),
        Metric::new("client.self_us_per_op", self_us(Role::Client), "us"),
        Metric::new("client.redirects_per_op", redirects as f64 / total_ops.max(1) as f64, "count"),
        Metric::new("client.waits_per_op", waits as f64 / total_ops.max(1) as f64, "count"),
        Metric::new("client.refreshes_per_op", refreshes as f64 / total_ops.max(1) as f64, "count"),
        Metric::new("cmsd.mgr_self_us_per_op", self_us(Role::Manager), "us"),
        Metric::extra("cmsd.sup_self_us_per_op", self_us(Role::Supervisor), "us"),
        Metric::new("cmsd.locates_per_op", locates as f64 / ops, "count"),
        Metric::new(
            "cache.hit_ratio",
            ratio(sum_cache(|s| s.hits), sum_cache(|s| s.lookups)),
            "ratio",
        ),
        Metric::new(
            "cache.queued_waiters_per_op",
            sum_cache(|s| s.queued_waiters) as f64 / ops,
            "count",
        ),
        Metric::new("cache.resizes", sum_cache(|s| s.resizes) as f64, "count"),
        Metric::new("server.self_us_per_op", self_us(Role::Server), "us"),
        Metric::extra("pcache.self_us_per_op", self_us(Role::Proxy), "us"),
        Metric::new("pcache.block_hit_ratio", ratio(store.0, store.0 + store.1), "ratio"),
        Metric::new("pcache.origin_reads_per_op", origin_reads as f64 / ops, "count"),
        Metric::new("pcache.evicted_blocks", store.2 as f64, "count"),
        Metric::new(
            "pcache.reads_over_1s",
            if d.workload == Workload::ReadPcache { slow } else { 0 } as f64,
            "count",
        ),
        Metric::new("lcache.hit_ratio", ratio(lc.0, lc.0 + lc.1), "ratio"),
        Metric::new("lcache.purges", lc.2 as f64, "count"),
        Metric::new("trace.reconciled_share", share, "ratio"),
        Metric::new("trace.reconciled_ops", reconciled_ratio, "ratio"),
        Metric::extra("trace.joined_ops", joined as f64, "count"),
        Metric::extra("trace.traced_ops_per_s", d.ops_per_s(), "1/s"),
    ];
    (m, violations)
}
