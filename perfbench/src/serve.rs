//! The `serve_hot` and `serve_swap` workloads: a warm server over
//! Restaurants (`ServeState::from_epoch`, response cache on) answering the
//! seed-pure Amazon-preset `RequestPlan` (2% conditional requests) from
//! two keep-alive clients in this process.
//!
//! `serve_hot` uses `Server::start`; `serve_swap` uses `Server::start_with`
//! and an `EpochManager`, and posts `POST /admin/epoch?fraction_bp=..`
//! swaps (a 1% mutation plus a dirty-slice rebuild), so rebuilds compete
//! with the reads for the same cores. Its closed loop times rounds of one
//! swap plus a fixed number of requests; its open loop posts swaps at
//! fixed points of the plan and times each swap's visibility at a fixed
//! offered load.
//!
//! The traced run times the server's per-request phases in-process over
//! the same request stream (`parse_head`, cache probe+lookup, the cached
//! response write, the full router), the cache build and, on
//! `serve_swap`, the swap rebuild itself.

use crate::ingest;
use crate::loadgen::{self, Client, SwapSpec, Tally};
use crate::measure::{median, percentile, Ledger, Outcome};
use crate::Args;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use webstruct_core::epoch::{Epoch, DEFAULT_EPOCH_SHARD_BYTES};
use webstruct_core::study::StudyConfig;
use webstruct_corpus::domain::Domain;
use webstruct_demand::model::{StudySite, TrafficConfig};
use webstruct_demand::traffic::RequestPlan;
use webstruct_serve::http::{parse_head, write_response_head, HeadParse, Request};
use webstruct_serve::{
    fetch, replay, route, EpochManager, ReplayOptions, ResponseCache, ServeConfig, ServeEpoch,
    ServeState, ServeStats, Server, SharedServing,
};
use webstruct_util::rng::Seed;

/// Requests per closed-loop block (the `serve_hot` unit of work), per
/// fixed-length check replay, and timed per in-process phase.
const BLOCK: u64 = 20_000;
/// Requests per `serve_swap` closed-loop round, beside one swap; enough
/// that the requests outlast the swap.
const ROUND: u64 = 150_000;
/// Share of plan requests sent with `If-None-Match`.
const REVALIDATE_FRAC: f64 = 0.02;
/// `serve_swap`'s open loop posts a swap at every this many plan
/// indices, so swaps run back to back beside the reads.
const SWAP_EVERY: u64 = 5_000;
/// Sites a swap mutates, in basis points (1%).
const FRACTION_BP: u64 = 100;

struct Settings {
    dir: PathBuf,
    /// Open-loop offered rate, requests per second.
    rate: f64,
    /// Share of the window spent in the closed loop.
    closed_share: f64,
    swap: Option<SwapSpec>,
}

impl Settings {
    fn from(args: &Args, swap: bool) -> Self {
        Settings {
            dir: args.work_dir.clone(),
            rate: args.get("rate"),
            closed_share: args.get("closed-share"),
            swap: swap.then(|| SwapSpec {
                fraction_bp: FRACTION_BP,
                seed: Seed(args.seed).derive("perfbench-swap").0 >> 16,
                every: SWAP_EVERY,
            }),
        }
    }
}

/// A booted server and everything needed to drive and stop it.
struct Booted {
    server: Server,
    addr: SocketAddr,
    state: Arc<ServeState>,
    manager: Option<Arc<EpochManager>>,
    plan: RequestPlan,
}

fn clear(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear store directory");
    }
}

fn study_config(args: &Args, seed: Seed) -> StudyConfig {
    StudyConfig::default().with_scale(args.scale).with_seed(seed)
}

/// The corpus seed of set-up `i` of `k`. The last set-up boots the
/// `--seed` corpus, which is the one served; the ones before it boot
/// corpora derived from it, so `setup_s`, their median, does not hang on
/// one corpus's size.
fn setup_seed(seed: u64, i: usize, k: usize) -> Seed {
    if i + 1 == k {
        Seed(seed)
    } else {
        Seed(seed).derive("perfbench-setup").derive_u64(i as u64)
    }
}

fn server_config(threads: usize, cache: bool) -> ServeConfig {
    ServeConfig {
        threads,
        cache,
        ..ServeConfig::default()
    }
}

/// Set-up: generate corpus `seed`, run the cold epoch into a fresh store,
/// build the serving state and start the server.
fn boot(args: &Args, set: &Settings, seed: Seed, i: usize) -> Booted {
    // Each set-up gets a fresh store; all are deleted after the run.
    let dir = set.dir.join(format!("store-{i}"));
    let epoch = Epoch::new(Domain::Restaurants, study_config(args, seed));
    let state = Arc::new(ServeState::from_epoch(&epoch, &dir, crate::THREADS).expect("serving state builds"));
    let plan = RequestPlan::new(
        &TrafficConfig::preset(StudySite::Amazon).scaled(args.scale),
        state.catalog.len(),
        Seed(args.seed),
    )
    .with_revalidate_frac(REVALIDATE_FRAC);
    let cfg = server_config(crate::THREADS, true);
    let (server, manager) = if set.swap.is_some() {
        let shared = Arc::new(SharedServing::new(ServeEpoch::new(Arc::clone(&state))));
        let manager = Arc::new(EpochManager::new(epoch, dir, crate::THREADS));
        let server = Server::start_with(shared, Some(Arc::clone(&manager)), &cfg, "127.0.0.1:0");
        (server, Some(manager))
    } else {
        (Server::start(Arc::clone(&state), &cfg, "127.0.0.1:0"), None)
    };
    let server = server.expect("bind loopback");
    let addr = server.local_addr();
    Booted {
        server,
        addr,
        state,
        manager,
        plan,
    }
}

/// Wait until no background swap is running.
fn wait_idle(manager: Option<&Arc<EpochManager>>) {
    if let Some(m) = manager {
        while m.swap_in_flight() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
}

/// Let any swap finish, then shut the server down and return its stats.
fn stop(server: Server, manager: Option<&Arc<EpochManager>>) -> ServeStats {
    wait_idle(manager);
    fetch(server.local_addr(), "POST", "/shutdown").expect("shutdown request");
    server.join()
}

pub fn run(args: &Args, swap: bool, ledger: &mut Ledger, outcome: &mut Outcome) {
    let set = Settings::from(args, swap);
    let name = if swap { "serve_swap" } else { "serve_hot" };
    clear(&set.dir);
    let mut booted: Option<Booted> = None;
    let mut i = 0;
    let k = if args.trace { 1 } else { crate::SETUPS };
    let setups = crate::repeat_setup(k, || {
        if let Some(b) = booted.take() {
            stop(b.server, b.manager.as_ref());
        }
        booted = Some(boot(args, &set, setup_seed(args.seed, i, k), i));
        i += 1;
    });
    let b = booted.expect("booted");
    if !args.trace {
        ledger.set("setup_s", median(&setups), "s");
    }
    let mut clients: Vec<Client> = (0..loadgen::CLIENTS).map(|_| Client::new(b.addr)).collect();
    let (mut next, mut swap_k) = (0u64, 0u64);

    let validator = loadgen::validator(b.addr);
    let closed_s = args.seconds * set.closed_share;
    let closed = match &set.swap {
        Some(spec) => loadgen::swap_rounds(
            &mut clients,
            &b.plan,
            validator.as_deref(),
            ROUND,
            closed_s,
            args.min_iters,
            spec,
            &mut next,
            &mut swap_k,
            || wait_idle(b.manager.as_ref()),
        ),
        None => {
            loadgen::closed_loop(&mut clients, &b.plan, validator.as_deref(), BLOCK, closed_s, args.min_iters, &mut next)
        }
    };
    let cpu_closed = closed.client_cpu_s;
    // Idle keep-alive connections would hold both server workers.
    clients.iter_mut().for_each(Client::disconnect);
    let validator = loadgen::validator(b.addr);
    let open = loadgen::open_loop(
        &mut clients,
        &b.plan,
        validator.as_deref(),
        set.rate,
        args.seconds * (1.0 - set.closed_share),
        next,
        set.swap.as_ref(),
        &mut swap_k,
    );
    let mut tally = Tally::default();
    for c in &clients {
        tally.merge(&c.tally);
    }
    drop(clients);
    outcome.attempted += tally.requests() + tally.swaps_accepted + tally.swaps_rejected + tally.swaps_failed;
    outcome.failed += tally.failed();

    let lat = &open.latency_ms;
    if args.trace {
        // The traced timings need the cores (and `WEBSTRUCT_THREADS`) to
        // themselves, so the last swap the open loop posted ends first.
        wait_idle(b.manager.as_ref());
        traced(args, &set, &b, &closed, cpu_closed, &open, &tally, ledger, outcome);
    } else {
        // The unit of work: a block of closed-loop requests on
        // `serve_hot`, a round of one swap plus its requests on
        // `serve_swap`.
        let block_s = median(&closed.block_s);
        ledger.set("wall_s", block_s, "s");
        ledger.set("capacity_rps", (if swap { ROUND } else { BLOCK }) as f64 / block_s, "1/s");
        ledger.set("p50_ms", percentile(lat, 0.50), "ms");
        ledger.set("p99_ms", percentile(lat, 0.99), "ms");
        ledger.set("loadgen.samples", lat.len() as f64, "count");
        ledger.set("loadgen.offered_rps", set.rate, "1/s");
        ledger.set("loadgen.blocks", closed.block_s.len() as f64, "count");
        if swap {
            eprintln!("swaps visible after: {:.3?} s", open.swap_visible_s);
            ledger.set("swap_visible_s", median(&open.swap_visible_s), "s");
            outcome.check(
                "serve_swap.swaps_visible",
                !open.swap_visible_s.is_empty(),
                format!("{} swaps seen in the open loop", open.swap_visible_s.len()),
            );
        }
        outcome.check(
            &format!("{name}.open_loop_samples"),
            lat.len() >= 1000,
            format!("{} open-loop samples at {} req/s", lat.len(), set.rate),
        );
    }
    outcome.check(
        &format!("{name}.responses"),
        tally.failed() == 0 && tally.untagged == 0,
        format!(
            "{} ok, {} bad status, {} transport errors, {} untagged, {} failed swaps",
            tally.ok, tally.bad_status, tally.transport_errors, tally.untagged, tally.swaps_failed
        ),
    );

    if swap {
        // Every plan response carries an ETag; the epochs served are the
        // boot epoch plus every accepted swap (the last one may land after
        // the window closes).
        let sliced: u64 = tally.by_etag.values().sum();
        let epochs = tally.by_etag.len() as u64;
        outcome.check(
            "serve_swap.etag_slices",
            sliced == tally.requests() && epochs >= tally.swaps_accepted && epochs <= tally.swaps_accepted + 1,
            format!(
                "{} epochs served, slices sum to {sliced} of {} requests, {} swaps accepted, {} rejected",
                tally.by_etag.len(),
                tally.requests(),
                tally.swaps_accepted,
                tally.swaps_rejected
            ),
        );
        let stats = stop(b.server, b.manager.as_ref());
        outcome.check("serve_swap.stats_consistent", stats.is_consistent(), format!("{stats:?}"));
    } else {
        let Booted { server, state, plan, .. } = b;
        let stats = stop(server, None);
        outcome.check("serve_hot.stats_consistent", stats.is_consistent(), format!("{stats:?}"));
        if !args.trace {
            digest_checks(&state, &plan, outcome);
        }
    }
    clear(&set.dir);
}

/// One fixed-length `replay` against a fresh server.
fn replay_fresh(state: &Arc<ServeState>, threads: usize, cache: bool, plan: &RequestPlan, n: u64) -> (webstruct_serve::ReplayReport, ServeStats) {
    let server = Server::start(Arc::clone(state), &server_config(threads, cache), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let report = replay(addr, plan, &ReplayOptions { clients: loadgen::CLIENTS as usize, requests: n });
    fetch(addr, "POST", "/shutdown").expect("shutdown request");
    (report, server.join())
}

/// Untimed: the response digest is identical at 1 and 2 server workers
/// and with the cache on or off. The one-worker server's hit and miss
/// counts are exact-repeat facts: it serves one request at a time, so no
/// two requests race to fill the same cache slot and both count a miss.
fn digest_checks(state: &Arc<ServeState>, plan: &RequestPlan, outcome: &mut Outcome) {
    let n = BLOCK;
    let (two, _) = replay_fresh(state, crate::THREADS, true, plan, n);
    let (one, stats) = replay_fresh(state, 1, true, plan, n);
    let (uncached, _) = replay_fresh(state, crate::THREADS, false, plan, n);
    outcome.attempted += 3 * n;
    outcome.failed += [&two, &one, &uncached].iter().map(|r| r.errors + r.rejected).sum::<u64>();
    outcome.check(
        "serve_hot.digest_workers_and_cache",
        two.digest == one.digest && two.digest == uncached.digest && two.ok == n && one.ok == n && uncached.ok == n,
        format!(
            "{n} requests: 2 workers {} / 1 worker {} / uncached {}",
            &two.digest[..16],
            &one.digest[..16],
            &uncached.digest[..16]
        ),
    );
    outcome.fact("serve.digest", &two.digest);
    outcome.fact("serve.cache_hits", stats.cache_hits);
    outcome.fact("serve.cache_misses", stats.cache_misses);
}

/// Nanoseconds per item of `f` over `items`.
fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for it in items {
        f(it);
    }
    t.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    set: &Settings,
    b: &Booted,
    closed: &loadgen::ClosedReport,
    cpu_closed: f64,
    open: &loadgen::OpenReport,
    tally: &Tally,
    ledger: &mut Ledger,
    outcome: &mut Outcome,
) {
    // The epoch path behind set-up and swaps, at the store's shard size:
    // a cold run (set-up) and a 1% mutation plus warm run (a swap).
    let mutation = FRACTION_BP as f64 / 10_000.0;
    let epoch_path = ingest::Settings::new(DEFAULT_EPOCH_SHARD_BYTES, mutation, set.dir.join("epoch-path"));
    ingest::trace_epoch_path(args, &epoch_path, ledger, outcome);

    // The server's per-request phases, in-process, over the plan's first
    // requests (the same stream the clients sent).
    let epoch = ServeEpoch::new(Arc::clone(&b.state));
    let validator = Arc::clone(&epoch.etag);
    let raw: Vec<Vec<u8>> = (0..BLOCK)
        .map(|i| {
            let r = b.plan.request(i);
            let inm = if r.conditional { format!("If-None-Match: {validator}\r\n") } else { String::new() };
            format!("GET {} HTTP/1.1\r\n{inm}\r\n", r.path).into_bytes()
        })
        .collect();
    let parse_ns = per_item_ns(&raw, |buf| {
        std::hint::black_box(parse_head(buf));
    });
    let heads: Vec<Request> = raw
        .iter()
        .map(|buf| match parse_head(buf) {
            HeadParse::Complete(h, _) => Request::from_head(&h),
            _ => panic!("plan request failed to parse"),
        })
        .collect();
    // Warm the entity slab as a serving epoch would be, then time hits.
    for r in &heads {
        let _ = epoch.cache.lookup(&epoch.state, &r.path);
    }
    let lookup_ns = per_item_ns(&heads, |r| {
        std::hint::black_box(epoch.cache.probe(&r.path));
        std::hint::black_box(epoch.cache.lookup(&epoch.state, &r.path));
    });
    let cached: Vec<_> = heads.iter().filter_map(|r| epoch.cache.lookup(&epoch.state, &r.path).map(|(c, _)| c)).collect();
    let mut out = Vec::with_capacity(1 << 16);
    let write_ns = per_item_ns(&cached, |c| {
        out.clear();
        write_response_head(&mut out, c.status, c.content_type, c.body.len(), Some(&epoch.etag), true);
        out.extend_from_slice(&c.body);
        std::hint::black_box(&out);
    });
    let route_ns = per_item_ns(&raw, |buf| {
        if let HeadParse::Complete(h, _) = parse_head(buf) {
            let routed = route(&epoch.state, &Request::from_head(&h));
            out.clear();
            routed.response.write_into(&mut out, true, false);
            std::hint::black_box(&out);
        }
    });
    ledger.set("serve.parse_ns", parse_ns, "ns");
    ledger.set("serve.cache_lookup_ns", lookup_ns, "ns");
    ledger.set("serve.write_ns", write_ns, "ns");
    ledger.set("serve.route_ns", route_ns, "ns");
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(ResponseCache::build(&b.state));
            t.elapsed().as_secs_f64()
        })
        .collect();
    ledger.set("serve.cache_build_s", median(&builds), "s");

    let stats = b.server.stats();
    let lookups = (stats.cache_hits + stats.cache_misses + stats.cache_revalidations).max(1);
    ledger.set("serve.cache_hit_rate", stats.cache_hits as f64 / lookups as f64, "ratio");
    ledger.set("serve.swaps", tally.swaps_accepted as f64, "count");
    ledger.set("serve.swap_rejected", tally.swaps_rejected as f64, "count");
    ledger.set("client.busy_s", cpu_closed, "s");
    let per_request = closed.requests.max(1) as f64;
    ledger.set("client.busy_us", cpu_closed / per_request * 1e6, "us");
    let observed_us = closed.latency_sum_s / per_request * 1e6;
    ledger.set("serve.transport_us", observed_us - (parse_ns + lookup_ns + write_ns) / 1e3, "us");
    ledger.set("loadgen.lag_ms", median(&open.lag_ms), "ms");
    ledger.set("loadgen.lag_p99_ms", percentile(&open.lag_ms, 0.99), "ms");

    // The swap rebuild on a private epoch and store: mutate plus
    // `ServeState::from_epoch` over the dirty slice.
    let dir = set.dir.join("swap-probe");
    let mut epoch = Epoch::new(Domain::Restaurants, study_config(args, Seed(args.seed)));
    ServeState::from_epoch(&epoch, &dir, crate::THREADS).expect("probe state builds");
    let swaps: Vec<f64> = (0..2)
        .map(|k| {
            let t = Instant::now();
            epoch.mutate(mutation, Seed(args.seed).derive("perfbench-swap-probe").derive_u64(k));
            std::hint::black_box(ServeState::from_epoch(&epoch, &dir, crate::THREADS).expect("swap rebuild"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    ledger.set("core.epoch_swap_s", median(&swaps), "s");
    clear(&dir);
    if set.swap.is_none() {
        let n = BLOCK;
        let (report, stats) = replay_fresh(&b.state, 1, true, &b.plan, n);
        outcome.attempted += n;
        outcome.failed += report.errors + report.rejected;
        ledger.set("serve.cache_hits", stats.cache_hits as f64, "count");
        ledger.set("serve.cache_misses", stats.cache_misses as f64, "count");
        outcome.fact("serve.cache_hits", stats.cache_hits);
        outcome.fact("serve.cache_misses", stats.cache_misses);
    }
}
