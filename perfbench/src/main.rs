//! The workload process behind `perfbench/run.py`: runs one workload in a
//! fresh process and prints one JSON line of raw results on stdout
//! (progress and check verdicts go to stderr).
//!
//! ```text
//! perfbench <reproduce|ingest|serve_hot|serve_swap> --seed N --seconds S
//!           --trace 0|1 --work-dir DIR --scale X --min-iters N
//!           [--rate R --closed-share F]      (serve workloads)
//! ```
//!
//! Every option is required; `run.py` passes the values recorded in
//! `perfbench/config.json`.

mod ingest;
mod loadgen;
mod measure;
mod reproduce;
mod serve;

use measure::{Ledger, Outcome};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Program worker threads (`WEBSTRUCT_THREADS`), server workers and load
/// generator clients: the measurement host's core count.
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Name prefixes of the per-layer timers whose sum is the attributed part
/// of a traced wall clock.
pub const LAYER_PREFIXES: &[&str] = &["corpus.", "extract.", "graph.", "coverage.", "demand.", "core.epoch_"];

/// Command-line settings shared by every workload.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    pub min_iters: usize,
    /// Directory for stores; the workload deletes what it writes there.
    pub work_dir: PathBuf,
    /// Every `--key value` option, for the workload-specific ones.
    options: HashMap<String, String>,
}

impl Args {
    /// The value of the required option `--key`.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> T {
        let v = self.options.get(key).unwrap_or_else(|| die(&format!("missing --{key}")));
        v.parse().unwrap_or_else(|_| die(&format!("bad value for --{key}: {v}")))
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

/// Run `f` with `WEBSTRUCT_THREADS` set to `n`, restoring the previous
/// value after. The program re-reads the variable on every call; only
/// call this while no other benchmark thread is running.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let key = webstruct_util::par::THREADS_ENV;
    let old = std::env::var(key).ok();
    std::env::set_var(key, n.to_string());
    let out = f();
    match old {
        Some(v) => std::env::set_var(key, v),
        None => std::env::remove_var(key),
    }
    out
}

/// Set up `k` times and return each set-up's seconds.
pub fn repeat_setup(k: usize, mut f: impl FnMut()) -> Vec<f64> {
    let setups: Vec<f64> = (0..k.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    eprintln!("set-ups: {setups:.3?} s");
    setups
}

fn parse(argv: &[String]) -> (String, Args) {
    let workload = argv.first().cloned().unwrap_or_else(|| die("missing workload"));
    let mut kv = HashMap::new();
    let mut it = argv[1..].iter();
    while let Some(k) = it.next() {
        let key = k.strip_prefix("--").unwrap_or_else(|| die(&format!("unexpected argument {k}")));
        let v = it.next().unwrap_or_else(|| die(&format!("--{key} needs a value")));
        kv.insert(key.to_string(), v.clone());
    }
    let mut args = Args {
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: 0.0,
        min_iters: 0,
        work_dir: PathBuf::new(),
        options: kv,
    };
    args.seed = args.get("seed");
    args.seconds = args.get("seconds");
    args.trace = args.get::<u8>("trace") == 1;
    args.scale = args.get("scale");
    args.min_iters = args.get("min-iters");
    args.work_dir = args.get("work-dir");
    (workload, args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, args) = parse(&argv);
    // Every program path sizes its worker pool from this variable; the
    // traced runs override it to one thread around the replicas.
    std::env::set_var(webstruct_util::par::THREADS_ENV, THREADS.to_string());
    let mut ledger = Ledger::default();
    let mut outcome = Outcome::default();
    outcome.fact("threads", THREADS);
    match workload.as_str() {
        "reproduce" => reproduce::run(&args, &mut ledger, &mut outcome),
        "ingest" => ingest::run(&args, &mut ledger, &mut outcome),
        "serve_hot" => serve::run(&args, false, &mut ledger, &mut outcome),
        "serve_swap" => serve::run(&args, true, &mut ledger, &mut outcome),
        other => die(&format!("unknown workload {other}")),
    }
    println!("{}", measure::result_line(&ledger, &outcome));
}
