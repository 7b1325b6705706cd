//! Timers, the metric ledger, correctness checks and the result line the
//! workload process hands back to `run.py`.

use std::time::Instant;
use webstruct_util::report::{Figure, Table};
use webstruct_util::sha::Sha256;

/// Named metrics with units, in insertion order. A name set twice keeps
/// its first position and takes the last value; `add` accumulates, which
/// is how the traced runs charge many calls to one layer.
#[derive(Default)]
pub struct Ledger {
    entries: Vec<(String, f64, &'static str)>,
}

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => e.1 += value,
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// Run `f`, charging its wall time in seconds to `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64(), "s");
        out
    }

    /// Sum of every `*_s` entry whose name starts with one of `prefixes`
    /// — the attributed part of a traced wall clock.
    pub fn sum_seconds(&self, prefixes: &[&str]) -> f64 {
        self.entries
            .iter()
            .filter(|(n, _, u)| *u == "s" && prefixes.iter().any(|p| n.starts_with(p)))
            .map(|e| e.1)
            .sum()
    }
}

/// Correctness checks plus the attempted/failed operation tally.
#[derive(Default)]
pub struct Outcome {
    pub checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Exact-repeat facts (digests, counts) `run.py` compares against the
    /// references recorded for the default and held-out seeds.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        eprintln!("check {name}: {} {detail}", if ok { "ok" } else { "FAILED" });
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice; 0 if empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// CPU time the calling thread has used, in seconds, from the
/// scheduler's nanosecond counter (Linux). Falls back to 0 elsewhere.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 over every figure's and table's CSV, in output order — the
/// reproduction's byte-identity fingerprint.
pub fn artifact_digest(figures: &[Figure], tables: &[Table]) -> String {
    let mut h = Sha256::new();
    for fig in figures {
        h.update(fig.id.as_bytes());
        h.update(b"\n");
        h.update(webstruct_util::csv::figure_to_csv(fig).as_bytes());
    }
    for table in tables {
        h.update(table.title.as_bytes());
        h.update(b"\n");
        h.update(webstruct_util::csv::table_to_csv(table).as_bytes());
    }
    hex(&h.finalize())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The single JSON line the workload process prints on stdout.
pub fn result_line(ledger: &Ledger, outcome: &Outcome) -> String {
    let metrics: Vec<String> = ledger
        .entries
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|(n, ok, d)| {
            format!(
                "{{\"name\": {}, \"ok\": {ok}, \"detail\": {}}}",
                json_str(n),
                json_str(d)
            )
        })
        .collect();
    let facts: Vec<String> = outcome
        .facts
        .iter()
        .map(|(n, v)| format!("{}: {}", json_str(n), json_str(v)))
        .collect();
    format!(
        "{{\"attempted\": {}, \"failed\": {}, \"checks\": [{}], \"facts\": {{{}}}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        checks.join(", "),
        facts.join(", "),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
    }

    #[test]
    fn ledger_accumulates_and_sums_layers() {
        let mut l = Ledger::default();
        l.add("graph.ifub_s", 1.0, "s");
        l.add("graph.ifub_s", 2.0, "s");
        l.set("graph.ifub_bfs_runs", 7.0, "count");
        l.add("corpus.store_s", 0.5, "s");
        assert_eq!(l.sum_seconds(&["graph.", "corpus."]), 3.5);
        let line = result_line(&l, &Outcome::default());
        assert!(line.contains("\"graph.ifub_bfs_runs\": {\"value\": 7, \"unit\": \"count\"}"));
    }
}
