//! The machine-readable benchmark report (`BENCH_results.json`).
//!
//! One schema, three writers: `bench_report` (micro-benchmark medians),
//! `authload` (serving-layer throughput) and — read-only — `bench_check`
//! (the CI regression gate).  The format is deliberately tiny:
//!
//! ```json
//! {
//!   "results":    { "name": {"median_ns": 123.4}, … },
//!   "throughput": { "name": 5678.9, … },
//!   "speedups":   { "name": 4.56, … }
//! }
//! ```
//!
//! `results` entries are medians in nanoseconds (lower is better);
//! `throughput` entries are operations per second (higher is better);
//! `speedups` are informational ratios.  Sections may be absent.  The
//! parser below handles exactly this shape (hand-rolled — the workspace's
//! serde stand-in has no JSON format on purpose) and is exercised by
//! round-trip tests.

use std::fmt::Write as _;
use std::path::Path;

/// In-memory form of `BENCH_results.json`.  Entry order is preserved so
/// regenerated files diff cleanly against committed ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// `name → median nanoseconds` (lower is better).
    pub results: Vec<(String, f64)>,
    /// `name → operations per second` (higher is better).
    pub throughput: Vec<(String, f64)>,
    /// `name → speedup ratio` (informational).
    pub speedups: Vec<(String, f64)>,
}

fn upsert(entries: &mut Vec<(String, f64)>, name: &str, value: f64) {
    if let Some(slot) = entries.iter_mut().find(|(n, _)| n == name) {
        slot.1 = value;
    } else {
        entries.push((name.to_string(), value));
    }
}

fn lookup(entries: &[(String, f64)], name: &str) -> Option<f64> {
    entries.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

impl BenchReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a median-nanoseconds entry.
    pub fn set_result(&mut self, name: &str, median_ns: f64) {
        upsert(&mut self.results, name, median_ns);
    }

    /// Insert or replace an ops-per-second entry.
    pub fn set_throughput(&mut self, name: &str, ops_per_sec: f64) {
        upsert(&mut self.throughput, name, ops_per_sec);
    }

    /// Insert or replace a speedup entry.
    pub fn set_speedup(&mut self, name: &str, ratio: f64) {
        upsert(&mut self.speedups, name, ratio);
    }

    /// Median nanoseconds for `name`, if present.
    pub fn result(&self, name: &str) -> Option<f64> {
        lookup(&self.results, name)
    }

    /// Ops per second for `name`, if present.
    pub fn throughput(&self, name: &str) -> Option<f64> {
        lookup(&self.throughput, name)
    }

    /// Speedup ratio for `name`, if present.
    pub fn speedup(&self, name: &str) -> Option<f64> {
        lookup(&self.speedups, name)
    }

    /// Overwrite (or add) every entry of `other` into `self`, preserving
    /// the position of entries both reports share.  This is how `authload`
    /// contributes its serving metrics without clobbering the
    /// `bench_report` micro-benchmarks already in the file.
    pub fn merge_from(&mut self, other: &BenchReport) {
        for (name, v) in &other.results {
            upsert(&mut self.results, name, *v);
        }
        for (name, v) in &other.throughput {
            upsert(&mut self.throughput, name, *v);
        }
        for (name, v) in &other.speedups {
            upsert(&mut self.speedups, name, *v);
        }
    }

    /// Serialize in the canonical layout.
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n  \"results\": {\n");
        for (i, (name, ns)) in self.results.iter().enumerate() {
            let comma = if i + 1 == self.results.len() { "" } else { "," };
            let _ = writeln!(json, "    \"{name}\": {{\"median_ns\": {ns:.1}}}{comma}");
        }
        json.push_str("  }");
        if !self.throughput.is_empty() {
            json.push_str(",\n  \"throughput\": {\n");
            for (i, (name, ops)) in self.throughput.iter().enumerate() {
                let comma = if i + 1 == self.throughput.len() {
                    ""
                } else {
                    ","
                };
                let _ = writeln!(json, "    \"{name}\": {ops:.1}{comma}");
            }
            json.push_str("  }");
        }
        json.push_str(",\n  \"speedups\": {\n");
        for (i, (name, x)) in self.speedups.iter().enumerate() {
            let comma = if i + 1 == self.speedups.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(json, "    \"{name}\": {x:.2}{comma}");
        }
        json.push_str("  }\n}\n");
        json
    }

    /// Parse a report serialized by [`BenchReport::to_json`] (tolerant of
    /// whitespace variations, intolerant of anything outside the schema).
    pub fn parse(json: &str) -> Result<Self, String> {
        let mut report = Self::new();
        let mut section: Option<&'static str> = None;
        for raw in json.lines() {
            let line = raw.trim().trim_end_matches(',');
            if line.is_empty() || line == "{" || line == "}" {
                continue;
            }
            if let Some(rest) = line.strip_prefix('"') {
                let (name, rest) = rest
                    .split_once('"')
                    .ok_or_else(|| format!("unterminated name in line {raw:?}"))?;
                let rest = rest.trim_start_matches(':').trim();
                match rest {
                    "{" => {
                        section = Some(match name {
                            "results" => "results",
                            "throughput" => "throughput",
                            "speedups" => "speedups",
                            other => return Err(format!("unknown section {other:?}")),
                        });
                    }
                    value => {
                        let section =
                            section.ok_or_else(|| format!("entry outside section: {raw:?}"))?;
                        let number = value
                            .trim_start_matches("{\"median_ns\":")
                            .trim_end_matches('}')
                            .trim();
                        let parsed: f64 = number
                            .parse()
                            .map_err(|_| format!("bad number {number:?} in line {raw:?}"))?;
                        match section {
                            "results" => report.results.push((name.to_string(), parsed)),
                            "throughput" => report.throughput.push((name.to_string(), parsed)),
                            _ => report.speedups.push((name.to_string(), parsed)),
                        }
                    }
                }
            } else {
                return Err(format!("unrecognized line {raw:?}"));
            }
        }
        Ok(report)
    }

    /// Load a report from disk.
    pub fn load(path: &Path) -> Result<Self, String> {
        let contents =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&contents)
    }

    /// Write the report to disk.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// One metric's regression verdict from [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Metric name.
    pub name: String,
    /// Committed (baseline) value.
    pub committed: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Slowdown factor (>1 means the fresh run is worse).
    pub slowdown: f64,
}

/// Compare a fresh report against the committed baseline: every committed
/// `results` (lower-better) and `throughput` (higher-better) metric must
/// exist in the fresh report and must not be worse by more than
/// `threshold` (0.25 = 25%).  Returns the offending metrics (empty = the
/// gate passes).  Metrics only present in the fresh report are ignored —
/// adding benchmarks is not a regression.
pub fn compare(committed: &BenchReport, fresh: &BenchReport, threshold: f64) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for (name, committed_ns) in &committed.results {
        let slowdown = match fresh.result(name) {
            // Missing metric: infinitely regressed (the gate must fail
            // rather than silently lose coverage).
            None => f64::INFINITY,
            Some(fresh_ns) => fresh_ns / committed_ns,
        };
        if slowdown > 1.0 + threshold {
            regressions.push(Regression {
                name: name.clone(),
                committed: *committed_ns,
                fresh: fresh.result(name).unwrap_or(f64::NAN),
                slowdown,
            });
        }
    }
    for (name, committed_ops) in &committed.throughput {
        let slowdown = match fresh.throughput(name) {
            None => f64::INFINITY,
            Some(fresh_ops) if fresh_ops > 0.0 => committed_ops / fresh_ops,
            Some(_) => f64::INFINITY,
        };
        if slowdown > 1.0 + threshold {
            regressions.push(Regression {
                name: name.clone(),
                committed: *committed_ops,
                fresh: fresh.throughput(name).unwrap_or(f64::NAN),
                slowdown,
            });
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new();
        r.set_result("sha256/one_shot_40B", 310.0);
        r.set_result("h1000/lanes_16_per_msg", 67318.7);
        r.set_throughput("authload/reactor_logins_per_sec", 14000.0);
        r.set_speedup("authload_reactor_durable_vs_reactor", 0.66);
        r
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let parsed = BenchReport::parse(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn parses_the_no_throughput_legacy_shape() {
        let mut legacy = sample();
        legacy.throughput.clear();
        let parsed = BenchReport::parse(&legacy.to_json()).unwrap();
        assert_eq!(parsed, legacy);
        assert!(parsed.throughput.is_empty());
    }

    #[test]
    fn merge_overwrites_shared_and_appends_new() {
        let mut base = sample();
        let mut fresh = BenchReport::new();
        fresh.set_result("sha256/one_shot_40B", 250.0);
        fresh.set_result("new/metric", 1.0);
        base.merge_from(&fresh);
        assert_eq!(base.result("sha256/one_shot_40B"), Some(250.0));
        assert_eq!(base.result("new/metric"), Some(1.0));
        assert_eq!(base.result("h1000/lanes_16_per_msg"), Some(67318.7));
        assert_eq!(base.results.len(), 3);
    }

    #[test]
    fn compare_passes_within_threshold() {
        let committed = sample();
        let mut fresh = sample();
        fresh.set_result("sha256/one_shot_40B", 310.0 * 1.2); // +20% < 25%
        fresh.set_throughput("authload/reactor_logins_per_sec", 14000.0 / 1.2);
        assert!(compare(&committed, &fresh, 0.25).is_empty());
    }

    #[test]
    fn compare_flags_slowdowns_in_both_directions_of_better() {
        let committed = sample();
        let mut fresh = sample();
        fresh.set_result("h1000/lanes_16_per_msg", 67318.7 * 1.5);
        fresh.set_throughput("authload/reactor_logins_per_sec", 14000.0 / 2.0);
        let regressions = compare(&committed, &fresh, 0.25);
        let names: Vec<&str> = regressions.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["h1000/lanes_16_per_msg", "authload/reactor_logins_per_sec"]
        );
        assert!(regressions.iter().all(|r| r.slowdown > 1.25));
    }

    #[test]
    fn compare_fails_on_missing_metric_and_ignores_extra() {
        let committed = sample();
        let mut fresh = BenchReport::new();
        fresh.set_result("sha256/one_shot_40B", 310.0);
        fresh.set_result("extra/not_in_baseline", 5.0);
        // lanes metric + throughput metric are missing from fresh.
        let regressions = compare(&committed, &fresh, 0.25);
        assert_eq!(regressions.len(), 2);
        assert!(regressions.iter().all(|r| r.slowdown.is_infinite()));

        // Extra metrics in fresh never fail the gate.
        let superset = {
            let mut s = sample();
            s.set_result("extra/new_bench", 1.0);
            s
        };
        assert!(compare(&committed, &superset, 0.25).is_empty());
    }

    #[test]
    fn faster_is_never_a_regression() {
        let committed = sample();
        let mut fresh = sample();
        fresh.set_result("sha256/one_shot_40B", 1.0);
        fresh.set_throughput("authload/reactor_logins_per_sec", 1e9);
        assert!(compare(&committed, &fresh, 0.25).is_empty());
    }
}
