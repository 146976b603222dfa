//! One measured run: set-up to a readiness predicate, a timed window,
//! a drain, shutdown, and the correctness checks.

use crate::probe::{Probe, Recorder};
use crate::workload::{Cluster, Inputs, Role, Workload};
use crate::Metric;
use scalla_cache::StatsSnapshot;
use scalla_client::{OpOutcome, OpResult};
use scalla_lcache::LcacheSnapshot;
use scalla_node::CmsdNode;
use scalla_pcache::PcacheStats;
use scalla_sim::NetCounters;
use scalla_util::{Clock, Nanos};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// How long the tree may take to assemble, and warm-up to finish.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long ops in flight when the window closes may take to finish
/// before they count as unfinished.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Counters read at one instant.
pub struct Snap {
    pub net: NetCounters,
    pub cache: Vec<StatsSnapshot>,
    pub store: Option<PcacheStats>,
    pub lcache: Option<LcacheSnapshot>,
}

impl Snap {
    fn take(c: &Cluster) -> Snap {
        Snap {
            net: c.net.counters(),
            cache: c.cache_stats.iter().map(|s| s.snapshot()).collect(),
            store: c.store.as_ref().map(|s| s.stats()),
            lcache: c.lcache.as_ref().map(|s| s.snapshot()),
        }
    }
}

/// One finished op, without its payload (a run's reads would otherwise
/// stay in memory).
pub struct Op {
    pub start: Nanos,
    pub end: Nanos,
    pub ok: bool,
    pub redirects: u32,
    pub waits: u32,
    pub refreshes: u32,
    pub trace: u64,
    pub bytes: u64,
}

impl Op {
    pub fn latency(&self) -> Nanos {
        self.end.since(self.start)
    }
}

/// Where each client's ops fall relative to the timed window.
pub struct ClientWindow {
    pub ops: Vec<Op>,
    /// Script index of the first op started at or after `t0`.
    pub first: usize,
    /// One past the last op started before `t1` (including an op still in
    /// flight at shutdown).
    pub end: usize,
    pub script_len: usize,
}

/// What the box did during one second of the window.
pub struct Slice {
    /// Process CPU time.
    pub cpu_ns: u64,
    /// CPU ticks (1/100 s of one CPU) the hypervisor stole from the box.
    pub steal: u64,
}

pub struct RunData {
    pub workload: Workload,
    pub setup_s: f64,
    pub t0: Nanos,
    pub t1: Nanos,
    pub slices: Vec<Slice>,
    pub clients: Vec<ClientWindow>,
    pub before: Snap,
    pub after: Snap,
    /// Drops over the whole run, read after the drain.
    pub drops: u64,
    pub invariants: Vec<(usize, usize)>,
    pub roles: Vec<Role>,
    pub client_nodes: Vec<usize>,
    pub recorders: Vec<Recorder>,
    /// Correctness violations.
    pub problems: Vec<String>,
    /// Ops that ended other than `Ok`.
    pub failures: Vec<String>,
}

/// Process user+sys CPU time.
fn cpu_now() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Cumulative CPU ticks the hypervisor stole from this machine (the
/// `steal` column of `/proc/stat`; 0 where it is unavailable).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Polls `cond` every 100 µs until it holds or `timeout` passes.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    true
}

/// Builds the cluster and waits until it is ready: every login
/// acknowledged, then every client's warm-up ops completed. Returns the
/// cluster and the set-up time.
fn set_up(inputs: &Inputs, traced: bool) -> Result<(Cluster, f64), String> {
    // Copying the scripts is the benchmark's work, not set-up.
    let scripts = inputs.scripts.iter().map(|s| Probe::chunks(s)).collect();
    let started = Instant::now();
    let cluster = Cluster::build(inputs, scripts, traced);
    let board = cluster.board.clone();
    if !wait_for(READY_TIMEOUT, || board.logins.load(Ordering::Acquire) >= cluster.expected_logins)
    {
        return Err(format!(
            "tree never assembled: {} of {} logins acknowledged",
            board.logins.load(Ordering::Acquire),
            cluster.expected_logins
        ));
    }
    board.go.store(true, Ordering::Release);
    let warm = |c: usize| board.finished(c) >= inputs.warmup[c];
    if !wait_for(READY_TIMEOUT, || (0..inputs.warmup.len()).all(warm)) {
        return Err("warm-up never completed".into());
    }
    Ok((cluster, started.elapsed().as_secs_f64()))
}

fn fail(why: &str) -> ! {
    eprintln!("wallbench: {why}");
    std::process::exit(1);
}

pub fn run(inputs: &Inputs, seconds: u64, traced: bool) -> RunData {
    let (cluster, setup_s) = set_up(inputs, traced).unwrap_or_else(|e| fail(&e));
    let clock = cluster.net.clock();
    let board = cluster.board.clone();

    let t0 = clock.now();
    let cpu0 = cpu_now();
    let before = Snap::take(&cluster);
    board.recording.store(traced, Ordering::Release);
    // One-second slices; the CPU the process used and the CPU the
    // hypervisor stole from the box are read at each slice's end.
    let (mut slices, mut last) = (Vec::new(), (cpu0, steal_ticks()));
    for k in 1..=seconds {
        let edge = t0 + Nanos::from_secs(k);
        while clock.now() < edge {
            std::thread::sleep(Duration::from_nanos(edge.since(clock.now()).0.min(50_000_000)));
        }
        let now = (cpu_now(), steal_ticks());
        slices.push(Slice { cpu_ns: now.0 - last.0, steal: now.1 - last.1 });
        last = now;
    }
    let t1 = clock.now();
    let after = Snap::take(&cluster);
    board.recording.store(false, Ordering::Release);

    // Drain: let every op begun before `t1` finish (or time out).
    let (mut problems, mut failures) = (Vec::new(), Vec::new());
    let drained = wait_for(DRAIN_TIMEOUT, || {
        (0..inputs.scripts.len())
            .all(|c| board.last_end(c) >= t1 || board.finished(c) >= inputs.scripts[c].len())
    });
    if !drained {
        problems.push(format!(
            "ops in flight at the window's end did not finish within {DRAIN_TIMEOUT:?}"
        ));
    }
    let end_counters = cluster.net.counters();
    let drops = end_counters.egress.queue_drops
        + end_counters.egress.conn_drops
        + end_counters.total_mailbox_drops();

    let roles = cluster.roles.clone();
    let client_nodes: Vec<usize> = cluster.clients.iter().map(|a| a.0 as usize).collect();
    let cmsd_nodes: Vec<usize> = cluster.cmsds.iter().map(|a| a.0 as usize).collect();
    let mut nodes = cluster.net.shutdown();
    let mut probes: Vec<&mut Probe> = nodes
        .iter_mut()
        .map(|n| {
            n.as_any_mut().and_then(|a| a.downcast_mut::<Probe>()).expect("every node is probed")
        })
        .collect();
    let invariants = cmsd_nodes
        .iter()
        .map(|&i| {
            let any = probes[i].inner_mut().as_any_mut().expect("cmsd downcast");
            any.downcast_ref::<CmsdNode>().expect("cmsd").cache().invariant_violations()
        })
        .collect();
    let clients = client_nodes
        .iter()
        .enumerate()
        .map(|(c, &i)| {
            let (results, begun) = probes[i].client_results();
            let ops = harvest(inputs, c, &results, &mut problems, &mut failures);
            // Conservation: every op begun has exactly one result, but
            // for at most one still in flight at shutdown.
            if begun != ops.len() && begun != ops.len() + 1 {
                problems.push(format!("client {c}: {begun} ops begun, {} results", ops.len()));
            }
            window(ops, begun > results.len(), inputs.scripts[c].len(), t0, t1)
        })
        .collect();
    let recorders = probes.iter_mut().filter_map(|p| p.take_recorder()).collect();
    RunData {
        workload: inputs.workload,
        setup_s,
        t0,
        t1,
        slices,
        clients,
        before,
        after,
        drops,
        invariants,
        roles,
        client_nodes,
        recorders,
        problems,
        failures,
    }
}

/// Checks every result of client `c` against its script and keeps the
/// compact record: op indices are contiguous, each op names its scripted
/// path, an `Ok` open landed on the server that holds the file, and an
/// `Ok` read returned exactly the requested length. An op that ended
/// otherwise is no wrong answer; it is counted as failed and described
/// in `failures`.
fn harvest(
    inputs: &Inputs,
    c: usize,
    results: &[(OpResult, u64)],
    problems: &mut Vec<String>,
    failures: &mut Vec<String>,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity(results.len());
    for (i, (r, bytes)) in results.iter().enumerate() {
        let bytes = *bytes;
        if r.op_index != i {
            problems.push(format!("client {c}: result {i} carries op index {}", r.op_index));
            break;
        }
        let file = &inputs.files[inputs.targets[c][i]];
        if r.path != file.path {
            problems.push(format!("client {c} op {i}: path {} != {}", r.path, file.path));
        }
        let ok = r.outcome == OpOutcome::Ok;
        if !ok {
            failures.push(format!(
                "client {c} op {i}: {} ended {:?} after {:?} ({} redirects, {} waits, {} refreshes)",
                file.path,
                r.outcome,
                r.latency(),
                r.redirects,
                r.waits,
                r.refreshes
            ));
        }
        if ok && inputs.workload == Workload::ReadPcache && bytes != file.size {
            problems.push(format!(
                "client {c} op {i}: read {bytes} of {} bytes of {}",
                file.size, file.path
            ));
        }
        let want = format!("srv-{}", file.server);
        if ok && inputs.workload != Workload::ReadPcache && r.server.as_deref() != Some(&want) {
            problems.push(format!(
                "client {c} op {i}: {} opened at {:?}, lives on {want}",
                file.path, r.server
            ));
        }
        ops.push(Op {
            start: r.start,
            end: r.end,
            ok,
            redirects: r.redirects,
            waits: r.waits,
            refreshes: r.refreshes,
            trace: r.trace_id,
            bytes,
        });
    }
    ops
}

fn window(ops: Vec<Op>, in_flight: bool, script_len: usize, t0: Nanos, t1: Nanos) -> ClientWindow {
    let first = ops.partition_point(|r| r.start < t0);
    let mut end = ops.partition_point(|r| r.start < t1);
    // The closed loop starts op k+1 the instant op k ends: an op in flight
    // at shutdown began before `t1` when its predecessor ended before it.
    if in_flight && end == ops.len() && ops.last().is_none_or(|r| r.end < t1) {
        end += 1;
    }
    ClientWindow { ops, first, end, script_len }
}

/// The verdict on a run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub failures: Vec<String>,
}

impl Outcome {
    /// The verdict on several runs of one workload.
    pub fn merge(outs: impl IntoIterator<Item = Outcome>) -> Outcome {
        let mut all = Outcome { attempted: 0, failed: 0, violations: vec![], failures: vec![] };
        for (k, out) in outs.into_iter().enumerate() {
            all.attempted += out.attempted;
            all.failed += out.failed;
            all.violations.extend(out.violations.into_iter().map(|v| format!("run {k}: {v}")));
            all.failures.extend(out.failures.into_iter().map(|v| format!("run {k}: {v}")));
        }
        all
    }
}

impl RunData {
    pub fn window_secs(&self) -> f64 {
        self.t1.since(self.t0).as_secs_f64()
    }

    /// One client's ops attempted in the window that completed `Ok`.
    pub fn ok_ops_of<'a>(&self, c: &'a ClientWindow) -> impl Iterator<Item = &'a Op> {
        c.ops[c.first..c.end.min(c.ops.len())].iter().filter(|r| r.ok)
    }

    /// Ops attempted in the window that completed `Ok`.
    pub fn ok_ops(&self) -> impl Iterator<Item = &Op> {
        self.clients.iter().flat_map(|c| self.ok_ops_of(c))
    }

    /// Ops that completed `Ok` inside the window (throughput numerator).
    pub fn done_in_window(&self) -> impl Iterator<Item = &Op> {
        let (t0, t1) = (self.t0, self.t1);
        self.clients.iter().flat_map(|c| &c.ops).filter(move |r| r.ok && r.end >= t0 && r.end <= t1)
    }

    pub fn completed_in_window(&self) -> usize {
        self.done_in_window().count()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.completed_in_window() as f64 / self.window_secs()
    }

    pub fn outcome(&self) -> Outcome {
        let mut violations = self.problems.clone();
        let (mut attempted, mut failed) = (0u64, 0u64);
        for (c, w) in self.clients.iter().enumerate() {
            if w.end >= w.script_len {
                violations.push(format!("client {c}: script exhausted before the window closed"));
            }
            attempted += (w.end - w.first) as u64;
            // Not `Ok`, or still unfinished after the drain.
            failed +=
                (w.first..w.end).filter(|&i| !w.ops.get(i).is_some_and(|r| r.ok)).count() as u64;
        }
        if attempted == 0 {
            violations.push("no op was attempted in the window".into());
        }
        // `invariant_violations` returns (entries checked, violations).
        for (i, &(checked, bad)) in self.invariants.iter().enumerate() {
            if bad != 0 {
                violations.push(format!(
                    "cmsd {i}: {bad} of {checked} cached entries break V_q ∩ (V_h ∪ V_p) = ∅"
                ));
            }
        }
        if self.drops != 0 {
            violations.push(format!("{} egress/mailbox drops", self.drops));
        }
        Outcome { attempted, failed, violations, failures: self.failures.clone() }
    }
}

/// One second of a window: the latencies of the ops that started in it
/// (sorted), the ops that completed `Ok` in it, the CPU the process used
/// and the CPU the hypervisor stole from the box.
struct SliceStats {
    lat: Vec<u64>,
    done: u64,
    cpu_ns: u64,
    steal: u64,
}

/// The end-to-end metrics of untraced runs, each on a fresh cluster.
/// `setup_s` is the median of their set-ups. Throughput, latency
/// percentiles and CPU per op are computed exactly for each one-second
/// slice of every run's window (ops by start time for latency, by end time
/// for throughput and CPU). The reported value is the median over the
/// quieter half of all slices: those in which the hypervisor stole no more
/// CPU from the box than in the median slice. Neighbours on a shared box
/// steal CPU in bursts of seconds; this keeps a burst from moving the
/// result. A cluster's threads, sockets and tables keep their placement
/// for its life, and runs on fresh clusters of one process differed by up
/// to 25 % in ops per second; pooling the slices of several clusters keeps
/// one placement from setting the result. The whole-window figures, and
/// the share of CPU stolen over the windows, are printed alongside.
pub fn end_to_end(runs: &[RunData], out: &Outcome) -> Vec<Metric> {
    let mut slices: Vec<SliceStats> = Vec::new();
    let (mut all, mut completed, mut bytes, mut secs) = (Vec::new(), 0, 0u64, 0.0);
    for d in runs {
        let first = slices.len();
        slices.extend(d.slices.iter().map(|s| SliceStats {
            lat: Vec::new(),
            done: 0,
            cpu_ns: s.cpu_ns,
            steal: s.steal,
        }));
        let run_slices = &mut slices[first..];
        let slice_of = |t: Nanos| (t.since(d.t0).0 / 1_000_000_000) as usize;
        for r in d.ok_ops() {
            if let Some(s) = run_slices.get_mut(slice_of(r.start)) {
                s.lat.push(r.latency().0);
            }
        }
        for r in d.done_in_window() {
            if let Some(s) = run_slices.get_mut(slice_of(r.end)) {
                s.done += 1;
            }
            bytes += r.bytes;
        }
        all.extend(run_slices.iter().flat_map(|s| s.lat.iter().copied()));
        completed += d.completed_in_window();
        secs += d.window_secs();
    }
    all.sort_unstable();
    for s in &mut slices {
        s.lat.sort_unstable();
    }
    let cut = median(slices.iter().map(|s| s.steal as f64).collect());
    let quiet: Vec<&SliceStats> = slices.iter().filter(|s| s.steal as f64 <= cut).collect();
    let per_slice = |f: &dyn Fn(&SliceStats) -> f64| median(quiet.iter().map(|s| f(s)).collect());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let setup_s = median(runs.iter().map(|d| d.setup_s).collect());
    let mut m = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", per_slice(&|s| s.done as f64), "1/s"),
        Metric::new("op_p50_us", per_slice(&|s| percentile(&s.lat, 0.50)) / 1e3, "us"),
        Metric::extra("op_p99_us", per_slice(&|s| percentile(&s.lat, 0.99)) / 1e3, "us"),
        Metric::new(
            "cpu_us_per_op",
            per_slice(&|s| s.cpu_ns as f64 / 1e3 / s.done.max(1) as f64),
            "us",
        ),
        Metric::extra("sub_runs", runs.len() as f64, "count"),
        Metric::extra("op_samples", all.len() as f64, "count"),
        Metric::extra(
            "op_samples_per_slice_min",
            slices.iter().map(|s| s.lat.len()).min().unwrap_or(0) as f64,
            "count",
        ),
        Metric::extra("quiet_slices", quiet.len() as f64, "count"),
        Metric::extra(
            "steal_share",
            slices.iter().map(|s| s.steal).sum::<u64>() as f64 / 100.0 / secs / cpus as f64,
            "ratio",
        ),
        Metric::extra(
            "window_cpu_us_per_op",
            slices.iter().map(|s| s.cpu_ns).sum::<u64>() as f64 / 1e3 / completed.max(1) as f64,
            "us",
        ),
        Metric::extra("window_ops_per_s", completed as f64 / secs, "1/s"),
        Metric::extra("window_op_p50_us", percentile(&all, 0.50) / 1e3, "us"),
        Metric::extra("window_op_p99_us", percentile(&all, 0.99) / 1e3, "us"),
        Metric::extra("window_op_max_us", all.last().copied().unwrap_or(0) as f64 / 1e3, "us"),
        Metric::extra("error_rate", out.failed as f64 / out.attempted.max(1) as f64, "ratio"),
    ];
    if runs.first().is_some_and(|d| d.workload == Workload::ReadPcache) {
        m.push(Metric::extra("read_mb_per_s", bytes as f64 / 1e6 / secs, "MB/s"));
    }
    m
}

/// Median of a non-empty set of values.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}
