//! Wall-clock benchmark of the Scalla node state machines on loopback TCP.
//!
//! ```text
//! wallbench --workload <open_hot|open_miss_tree|read_pcache> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each run assembles a cluster of unmodified nodes on `scalla_sim::TcpNet`
//! (every message crosses a real localhost socket), drives it with a
//! closed loop of two clients, checks the outputs, and prints a table of
//! metrics followed by one JSON line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` makes an untraced and a traced run and reports the
//! per-layer ledger (see `README.md` in this directory).

mod ledger;
mod probe;
mod run;
mod workload;

use run::{Outcome, RunData};
use std::process::ExitCode;
use workload::{Inputs, Workload};

/// Fresh clusters per `--trace 0` run. The window is shared out between
/// them, and `setup_s` is the median of their set-ups.
const SUB_RUNS: u64 = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad seconds {val}"))?),
            "--trace" => trace = Some(val == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One metric line of the table and the JSON object.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Printed in the table but not part of the JSON line.
    pub table_only: bool,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, table_only: false }
    }
    pub fn extra(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, table_only: true }
    }
}

fn emit(args: &Args, out: &Outcome, metrics: &[Metric]) {
    println!(
        "workload={} seed={} seconds={} trace={} clock=wall transport=loopback-tcp clients={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::CLIENTS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for m in metrics {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (tag, lines) in [("FAILED", &out.failures), ("VIOLATION", &out.violations)] {
        const SHOWN: usize = 20;
        for line in lines.iter().take(SHOWN) {
            println!("{tag}: {line}");
        }
        if lines.len() > SHOWN {
            println!("{tag}: … and {} more", lines.len() - SHOWN);
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| !m.table_only)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations.is_empty(),
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Fixes glibc malloc's thresholds before any thread starts. By default
/// glibc raises its mmap threshold, and with it the heap trim threshold,
/// each time it frees a large mmapped block, so how often a run's bulk
/// buffers (`read_pcache` moves 128–256 KiB per op) are mapped, unmapped
/// and faulted in again depends on the order of the first large frees.
/// Runs of the same seed then settled at 0.4 to 0.9 M minor faults per
/// 8 s and their CPU per op moved with them by up to 30 %. Fixed
/// thresholds (4 MiB mmap, 64 MiB trim) keep large buffers on the heap in
/// every run; the open workloads fault alike either way.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_malloc_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: called from `main` before any other thread exists.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 4 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1
    };
    assert!(ok, "mallopt");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_malloc_thresholds() {}

fn main() -> ExitCode {
    fix_malloc_thresholds();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed, args.seconds);
    let (out, metrics) = if args.trace {
        let plain = run::run(&inputs, args.seconds, false);
        let traced = run::run(&inputs, args.seconds, true);
        let (mut metrics, reconciliation) = ledger::per_layer(&traced);
        let ratio = traced.ops_per_s() / plain.ops_per_s();
        metrics.push(Metric::new("trace.ops_per_s_ratio", ratio, "ratio"));
        let mut out = traced.outcome();
        let plain_out = plain.outcome();
        out.violations
            .extend(plain_out.violations.into_iter().map(|v| format!("untraced run: {v}")));
        out.failures.extend(plain_out.failures.into_iter().map(|v| format!("untraced run: {v}")));
        out.violations.extend(reconciliation);
        (out, metrics)
    } else {
        // Every sub-run gets at least one second.
        let n = SUB_RUNS.min(args.seconds);
        let runs: Vec<RunData> = (0..n)
            .map(|k| run::run(&inputs, args.seconds / n + u64::from(k < args.seconds % n), false))
            .collect();
        let out = Outcome::merge(runs.iter().map(RunData::outcome));
        let metrics = run::end_to_end(&runs, &out);
        (out, metrics)
    };
    emit(&args, &out, &metrics);
    if out.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
