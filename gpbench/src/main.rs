//! gpbench: the serving benchmark of the graphical-password auth server.
//!
//! ```text
//! cargo run --release --manifest-path gpbench/Cargo.toml -- \
//!     --workload <login_burst|login_open|enroll_durable|cluster_sync> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! See `gpbench/README.md` for the workloads and metrics.

mod gen;
mod host;
mod load;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use workloads::{Outcome, RunConfig, WindowResult, Workload};

/// Where spans and scratch stores go.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// End-to-end metrics the JSON line carries with `--trace 0`, as listed in
/// BENCHMARK.json.  Login latency is reported but not gated; see "Why these
/// are gated" in gpbench/README.md.
const END_TO_END: [&str; 4] = ["setup_s", "ops_per_s", "cpu_ms_per_op", "peak_rss_mb"];

/// Per-layer metrics the JSON line carries with `--trace 1`, as listed in
/// BENCHMARK.json: the probes, which every workload measures.
const PER_LAYER: [&str; 16] = [
    "crypto.hash1_ms",
    "crypto.hash4_ms",
    "crypto.hash16_ms",
    "crypto.hash16_mixed_ms",
    "discretization.locate_ns",
    "passwords.prepare_verify_us",
    "passwords.prepare_enroll_us",
    "store.get_cached_ns",
    "store.snapshot_ms",
    "wal.group_commit_ms",
    "reactor.rtt_idle_us",
    "protocol.login_codec_ns",
    "lockout.settle_ns",
    "replication.ack_ms",
    "replication.group4_ack_ms",
    "cluster.route_ns",
];

/// Fewest logins behind one p99 in `login_p99_ms` (10 beyond it).
const P99_GROUP: usize = 1_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!(
        "unknown workload {workload:?}; one of {:?}",
        Workload::ALL.map(Workload::name)
    ))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Metrics of one window: name, value and a note on how it was measured.
type Metrics = Vec<(&'static str, f64, String)>;

/// The end-to-end metrics of one window, with the sample count behind
/// each latency.
fn end_to_end(outcome: &Outcome, w: &WindowResult, peak_rss_mb: f64) -> Metrics {
    let mut login = w.tally.login_ms();
    let mut enroll = w.tally.enroll_ms.clone();
    let mut late = w.tally.late_ms.clone();
    let completed = w.tally.completed().max(1) as f64;
    let mut out = vec![(
        "setup_s",
        stats::median(&outcome.setup_s),
        format!(
            "median of {} set-ups {:.3?}",
            outcome.setup_s.len(),
            outcome.setup_s
        ),
    )];
    let completed_in = |i: usize| w.tally.completed_by_slice[i] as f64;
    let rates: Vec<f64> = w
        .slice_secs
        .iter()
        .enumerate()
        .map(|(i, secs)| completed_in(i) / secs)
        .collect();
    out.push((
        "ops_per_s",
        stats::iqm(&rates),
        format!(
            "interquartile mean of {} slice rates; {} acked in {:.1} s = {:.1}/s",
            rates.len(),
            w.tally.completed(),
            w.secs,
            w.tally.completed() as f64 / w.secs
        ),
    ));
    for (prefix, samples) in [
        ("login", &mut login),
        ("enroll", &mut enroll),
        ("late", &mut late),
    ] {
        let Some(s) = stats::summarize(samples) else {
            continue;
        };
        let top = s
            .top
            .map_or(String::new(), |(p, v)| format!(", p{p}={v:.3}"));
        let note = format!("n={}{top}", s.count);
        let (p50, p99) = match prefix {
            "login" => ("login_p50_ms", "login_p99_ms"),
            "enroll" => ("enroll_p50_ms", "enroll_p99_ms"),
            _ => ("late_p50_ms", "late_p99_ms"),
        };
        out.push((p50, s.p50, note.clone()));
        match (prefix, stats::grouped_p99(&w.tally.login_by_slice, P99_GROUP)) {
            ("login", Some((p99_typical, groups))) => out.push((
                p99,
                p99_typical,
                format!("median p99 of {groups} slice groups of >= {P99_GROUP}; whole window p99={:.3}, {note}", s.p99),
            )),
            _ => out.push((p99, s.p99, note)),
        }
    }
    out.push((
        "failed_share",
        w.tally.failed as f64 / w.tally.attempted.max(1) as f64,
        format!(
            "{} of {} {:?}",
            w.tally.failed, w.tally.attempted, w.tally.failures
        ),
    ));
    let cpu_ms: f64 = w.cpu_by_slice.iter().sum();
    let cpu_per_op: Vec<f64> = (0..rates.len())
        .filter(|i| completed_in(*i) > 0.0)
        .map(|i| w.cpu_by_slice[i] / completed_in(i))
        .collect();
    out.push((
        "cpu_ms_per_op",
        if cpu_per_op.is_empty() {
            cpu_ms / completed
        } else {
            stats::iqm(&cpu_per_op)
        },
        format!(
            "interquartile mean over slices; {cpu_ms:.0} ms CPU, server and client, = {:.4}/op",
            cpu_ms / completed
        ),
    ));
    out.push(("peak_rss_mb", peak_rss_mb, "VmHWM of the process".into()));
    out
}

/// A metric's unit, from its name's suffix; counts and ratios have none.
fn unit_of(name: &str) -> &'static str {
    [
        ("_ms_per_op", "ms"),
        ("_per_s", "1/s"),
        ("_ms", "ms"),
        ("_us", "us"),
        ("_ns", "ns"),
        ("_mb", "MiB"),
        ("_s", "s"),
    ]
    .into_iter()
    .find(|(suffix, _)| name.ends_with(suffix))
    .map_or("", |(_, unit)| unit)
}

fn json_metrics(metrics: &[(&str, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let unit = unit_of(name);
        let _ = write!(
            s,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    s.push('}');
    s
}

fn main() {
    let process_start = std::time::Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gpbench: {e}");
            std::process::exit(2);
        }
    };
    let host = host::Host::probe();
    println!(
        "gpbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} cpu=\"{}\" kernel={} commit={}",
        host.nproc, host.cpu_model, host.kernel, host.commit
    );
    let inputs = match workloads::Inputs::generate(args.seed) {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("gpbench: generator disagrees with the scheme oracle: {e}");
            std::process::exit(1);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    let run = RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: host.nproc,
        scratch: out_dir.join(format!("scratch-{}", std::process::id())),
    };
    let outcome = workloads::run(&run, &inputs);
    let peak_rss_mb = host::peak_rss_mb();
    println!("shape: {}", outcome.shape);
    println!(
        "process start to first measured request: {:.3} s (first set-up, then {:.1} s warm-up)",
        outcome
            .first_measured
            .duration_since(process_start)
            .as_secs_f64(),
        workloads::WARMUP.as_secs_f64()
    );
    println!(
        "deployment: Centered r=9, 5 clicks, 4 shards, max_failures=3, reactor + 3 compute workers, h^3000"
    );

    // Every attempt counts, warm-up included; an acked enrollment missing
    // after recovery is one more failure.
    let whole = &outcome.whole;
    let attempted = whole.attempted;
    let failed = whole.failed + outcome.durable_missing;
    println!(
        "whole run: attempted={attempted} failed={} {:?}",
        whole.failed, whole.failures
    );
    let mut correct = failed == 0 && attempted > 0;
    let mut checks = outcome.checks.clone();
    checks.push(("lockout.locked", whole.locked as f64, whole.locked == 0));
    for (name, value, holds) in &checks {
        println!(
            "check {name:<36} {value:>12} {}",
            if *holds { "ok" } else { "FAILED" }
        );
        correct &= holds;
    }

    let per_window: Vec<Metrics> = outcome
        .windows
        .iter()
        .map(|w| end_to_end(&outcome, w, peak_rss_mb))
        .collect();
    for (w, metrics) in outcome.windows.iter().zip(&per_window) {
        println!(
            "window ({}, {:.1} s): attempted={} failed={}",
            if w.traced { "traced" } else { "untraced" },
            w.secs,
            w.tally.attempted,
            w.tally.failed
        );
        for (name, value, note) in metrics {
            println!("  {name:<16} {value:>14.4} {:<5} {note}", unit_of(name));
        }
        let c = &w.counters;
        println!(
            "  host steal: {:.1}% of CPU time went to other guests during the window",
            100.0 * c.steal_ticks as f64 / c.host_ticks.max(1) as f64
        );
        let rates: Vec<String> = w
            .tally
            .completed_by_slice
            .iter()
            .map(|n| n.to_string())
            .collect();
        println!("  completed per slice: {}", rates.join(" "));
        let p99s: Vec<String> = w
            .tally
            .login_by_slice
            .iter()
            .map(|v| {
                let mut v = v.clone();
                stats::summarize(&mut v).map_or("-".into(), |s| format!("{:.2}", s.p99))
            })
            .collect();
        println!("  login p99 per slice: {}", p99s.join(" "));
    }

    let json = if args.trace {
        // Each sub-run measured one untraced and one traced half; compare
        // the medians of the two halves over this run's sub-runs.
        let by_half: Vec<[Metrics; 2]> = outcome
            .subrun_windows
            .iter()
            .map(|ws| [0, 1].map(|i| end_to_end(&outcome, &ws[i], peak_rss_mb)))
            .collect();
        let median_of = |half: usize, name: &str| -> Option<f64> {
            let values: Vec<f64> = by_half
                .iter()
                .filter_map(|h| h[half].iter().find(|m| m.0 == name).map(|m| m.1))
                .collect();
            (!values.is_empty()).then(|| stats::median(&values))
        };
        println!(
            "tracing overhead (medians over {} sub-runs, traced vs untraced):",
            by_half.len()
        );
        for (name, _, _) in &per_window[per_window.len() - 1] {
            let (Some(traced), Some(base)) = (median_of(1, name), median_of(0, name)) else {
                continue;
            };
            let share = if base == 0.0 {
                String::new()
            } else {
                format!(" ({:+.1}%)", 100.0 * (traced - base) / base)
            };
            println!(
                "  {name:<16} traced {traced:>12.4}  untraced {base:>12.4}  diff {:>+10.4}{share}",
                traced - base,
            );
        }
        println!("per-layer:");
        for (name, value) in &outcome.layers {
            println!("  {name:<32} {value:>14.4} {}", unit_of(name));
        }
        let spans_path = out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match trace::write_jsonl(&spans_path, outcome.epoch, &outcome.spans) {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.spans.len(),
                spans_path.display()
            ),
            Err(e) => println!("spans: not written ({e})"),
        }
        let metrics: Vec<(&str, f64)> = PER_LAYER
            .iter()
            .map(|name| {
                let value = outcome.layers.iter().find(|(n, _)| n == name);
                (*name, value.expect("every probe ran").1)
            })
            .collect();
        json_metrics(&metrics)
    } else {
        let window = &per_window[0];
        let metrics: Vec<(&str, f64)> = END_TO_END
            .iter()
            .map(|name| {
                let value = window.iter().find(|m| m.0 == *name);
                (*name, value.map_or(0.0, |m| m.1))
            })
            .collect();
        let json = json_metrics(&metrics);
        if let Some(name) = END_TO_END
            .iter()
            .find(|name| !window.iter().any(|m| m.0 == **name))
        {
            println!("{name} has no samples");
            correct = false;
        }
        json
    };
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {json}}}"#
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics this binary emits are the ones BENCHMARK.json declares,
    /// with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!(r#""name": "{name}", "unit": "{}""#, unit_of(name));
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(spec.matches(r#""bound""#).count(), END_TO_END.len());
        assert_eq!(
            spec.matches(r#""better""#).count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in Workload::ALL {
            assert!(spec.contains(&format!(r#""name": "{}""#, w.name())));
        }
    }
}
