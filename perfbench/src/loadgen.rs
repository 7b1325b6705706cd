//! The load generator: two keep-alive client threads in this process,
//! replaying a seed-pure [`RequestPlan`] against a live server.
//!
//! * [`closed_loop`] has both clients pull plan requests back to back and
//!   timestamps every block of requests.
//! * [`open_loop`] sends plan request `k` at `start + k / rate` whatever
//!   the server does, and times each request from that scheduled instant.
//!
//! * [`swap_rounds`] (`serve_swap`) times rounds of one `POST
//!   /admin/epoch` plus a closed-loop block of requests beside it.
//!
//! On `serve_swap` the open loop also posts swaps at fixed plan indices,
//! and the clients note when each swap's epoch first shows in an ETag.
//!
//! Every response is counted by status class and under its ETag; the
//! response bytes themselves are checked by the untimed `replay` digest
//! checks, not here. At most two connections are open at a time: a
//! client closes its keep-alive connection before it sends a swap `POST`
//! on a fresh one.

use crate::measure::thread_cpu_s;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use webstruct_demand::traffic::RequestPlan;
use webstruct_serve::{fetch, Connection, HttpResponse};

/// Client threads, and so connections.
pub const CLIENTS: u64 = crate::THREADS as u64;

/// The epoch number inside an ETag (`"{epoch}-{digest16}"`).
pub fn etag_version(etag: &str) -> Option<u64> {
    etag.trim_matches('"').split('-').next()?.parse().ok()
}

/// Swap settings for `serve_swap`.
#[derive(Clone, Copy)]
pub struct SwapSpec {
    pub fraction_bp: u64,
    /// Seed of the first swap; swap `k` uses `seed + k`.
    pub seed: u64,
    /// One swap every this many plan requests.
    pub every: u64,
}

/// What the clients saw: response classes and per-ETag counts.
#[derive(Default)]
pub struct Tally {
    pub ok: u64,
    pub bad_status: u64,
    pub transport_errors: u64,
    pub untagged: u64,
    pub by_etag: BTreeMap<String, u64>,
    pub swaps_accepted: u64,
    pub swaps_rejected: u64,
    pub swaps_failed: u64,
}

impl Tally {
    fn record(&mut self, resp: &HttpResponse) {
        if resp.status / 100 == 2 || resp.status == 304 {
            self.ok += 1;
        } else {
            self.bad_status += 1;
        }
        if resp.etag.is_empty() {
            self.untagged += 1;
        } else {
            *self.by_etag.entry(resp.etag.clone()).or_insert(0) += 1;
        }
    }

    pub fn merge(&mut self, o: &Tally) {
        self.ok += o.ok;
        self.bad_status += o.bad_status;
        self.transport_errors += o.transport_errors;
        self.untagged += o.untagged;
        for (tag, n) in &o.by_etag {
            *self.by_etag.entry(tag.clone()).or_insert(0) += n;
        }
        self.swaps_accepted += o.swaps_accepted;
        self.swaps_rejected += o.swaps_rejected;
        self.swaps_failed += o.swaps_failed;
    }

    /// Plan requests attempted (every one ends in exactly one bucket).
    pub fn requests(&self) -> u64 {
        self.ok + self.bad_status + self.transport_errors
    }

    pub fn failed(&self) -> u64 {
        self.bad_status + self.transport_errors + self.swaps_failed
    }
}

/// One client: a keep-alive connection plus its own tally and CPU clock.
pub struct Client {
    addr: SocketAddr,
    conn: Connection,
    pub tally: Tally,
    pub cpu_s: f64,
    /// Newest epoch number this client has seen in an ETag.
    pub version: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: Connection::new(addr),
            tally: Tally::default(),
            cpu_s: 0.0,
            version: 0,
        }
    }

    /// Close the keep-alive connection (the next request reconnects), so
    /// the server worker holding it is free for other connections.
    pub fn disconnect(&mut self) {
        self.conn = Connection::new(self.addr);
    }

    /// Send plan request `i`; returns the epoch number its ETag carried.
    fn send(&mut self, plan: &RequestPlan, i: u64, validator: Option<&str>) -> Option<u64> {
        let req = plan.request(i);
        let inm = if req.conditional { validator } else { None };
        match self.conn.get_with(&req.path, inm) {
            Ok(resp) => {
                self.tally.record(&resp);
                let v = etag_version(&resp.etag);
                if let Some(v) = v {
                    self.version = self.version.max(v);
                }
                v
            }
            Err(_) => {
                self.tally.transport_errors += 1;
                None
            }
        }
    }

    /// Ask for a hot swap on a fresh connection, closing the keep-alive
    /// one first. Returns the epoch the swap will publish if the server
    /// started it (its answer names the epoch it starts from).
    fn post_swap(&mut self, spec: &SwapSpec, k: u64) -> Option<u64> {
        self.disconnect();
        let target = format!("/admin/epoch?fraction_bp={}&seed={}", spec.fraction_bp, spec.seed + k);
        match fetch(self.addr, "POST", &target) {
            Ok(r) if r.status == 200 => {
                self.tally.swaps_accepted += 1;
                let from = r.text().split("\"from_epoch\":").nth(1).and_then(|rest| {
                    rest.trim_start().split(|c: char| !c.is_ascii_digit()).next()?.parse::<u64>().ok()
                });
                if from.is_none() {
                    self.tally.swaps_failed += 1;
                }
                from.map(|e| e + 1)
            }
            Ok(r) if r.status == 409 => {
                self.tally.swaps_rejected += 1;
                None
            }
            _ => {
                self.tally.swaps_failed += 1;
                None
            }
        }
    }
}

/// The validator conditional requests send: the `/coverage` ETag,
/// fetched once per phase, as the program's `replay` does.
pub fn validator(addr: SocketAddr) -> Option<String> {
    fetch(addr, "GET", "/coverage").ok().map(|r| r.etag).filter(|t| !t.is_empty())
}

/// Closed-loop results.
#[derive(Default)]
pub struct ClosedReport {
    /// Seconds each consecutive block of requests took.
    pub block_s: Vec<f64>,
    /// Client-observed seconds per request, summed over the phase.
    pub latency_sum_s: f64,
    pub requests: u64,
    pub client_cpu_s: f64,
}

/// Accepted swaps and when each became visible, shared by the clients.
struct SwapLog {
    /// Newest epoch number any client has seen in an ETag.
    newest: AtomicU64,
    /// Per accepted swap: (epoch it must reach, posted at, first seen at).
    swaps: Mutex<Vec<(u64, Instant, Option<Instant>)>>,
}

impl SwapLog {
    fn new(clients: &[Client]) -> Self {
        SwapLog {
            newest: AtomicU64::new(clients.iter().map(|c| c.version).max().unwrap_or(0)),
            swaps: Mutex::new(Vec::new()),
        }
    }

    /// Post swap `k` from `client` and log it if the server started it.
    fn post(&self, client: &mut Client, spec: &SwapSpec, k: u64) {
        let posted = Instant::now();
        if let Some(want) = client.post_swap(spec, k) {
            self.swaps.lock().expect("swap log").push((want, posted, None));
        }
    }

    /// A response carrying epoch `v` arrived `at`.
    fn seen(&self, v: Option<u64>, at: Instant) {
        if let Some(v) = v {
            if v > self.newest.fetch_max(v, Ordering::AcqRel) {
                for sw in self.swaps.lock().expect("swap log").iter_mut() {
                    if sw.0 <= v && sw.2.is_none() {
                        sw.2 = Some(at);
                    }
                }
            }
        }
    }

    /// Seconds from each accepted swap's `POST` to the first response
    /// carrying its epoch (swaps still in flight at the end are absent).
    fn visible_s(self) -> Vec<f64> {
        self.swaps
            .into_inner()
            .expect("swap log")
            .iter()
            .filter_map(|&(_, posted, seen)| Some(seen?.duration_since(posted).as_secs_f64()))
            .collect()
    }
}

/// What the clients share during a closed-loop phase.
struct Shared {
    cursor: AtomicU64,
    done: AtomicU64,
    latency_ns: AtomicU64,
    block_ends: Mutex<Vec<Instant>>,
}

/// Both clients pull plan requests from `*next` on until `seconds` have
/// passed and at least `min_blocks` blocks of `block` requests are done.
pub fn closed_loop(
    clients: &mut [Client],
    plan: &RequestPlan,
    validator: Option<&str>,
    block: u64,
    seconds: f64,
    min_blocks: usize,
    next: &mut u64,
) -> ClosedReport {
    let start = Instant::now();
    let first = *next;
    let shared = Shared {
        cursor: AtomicU64::new(first),
        done: AtomicU64::new(0),
        latency_ns: AtomicU64::new(0),
        block_ends: Mutex::new(Vec::new()),
    };
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            let shared = &shared;
            s.spawn(move || {
                let cpu0 = thread_cpu_s();
                loop {
                    let blocks = shared.done.load(Ordering::Relaxed) / block;
                    if blocks as usize >= min_blocks && start.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
                    let t = Instant::now();
                    c.send(plan, i, validator);
                    let now = Instant::now();
                    shared.latency_ns.fetch_add(now.duration_since(t).as_nanos() as u64, Ordering::Relaxed);
                    if (shared.done.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(block) {
                        shared.block_ends.lock().expect("block log").push(now);
                    }
                }
                c.cpu_s += thread_cpu_s() - cpu0;
            });
        }
    });
    let mut ends = shared.block_ends.into_inner().expect("block log");
    ends.sort();
    let mut prev = start;
    let block_s = ends
        .iter()
        .map(|&t| {
            let d = t.duration_since(prev).as_secs_f64();
            prev = t;
            d
        })
        .collect();
    *next = shared.cursor.load(Ordering::Relaxed);
    ClosedReport {
        block_s,
        latency_sum_s: shared.latency_ns.into_inner() as f64 / 1e9,
        requests: shared.done.into_inner(),
        client_cpu_s: clients.iter().map(|c| c.cpu_s).sum(),
    }
}

/// Rounds of one swap plus `block` requests, until `seconds` have passed
/// and at least `min_blocks` rounds are done. A round starts when client
/// 0 posts swap `*swap_k`; both clients then run one closed-loop block
/// from `*next` on, and the round ends when the block is done and
/// `wait_idle` has returned (the swap is published). The block is sized
/// to outlast the swap, so the two cores stay busy for the whole round
/// and its time follows the CPU work of the requests plus the rebuild,
/// not how the rebuild's disk writes interleave with them. `block_s`
/// holds the round times.
#[allow(clippy::too_many_arguments)]
pub fn swap_rounds(
    clients: &mut [Client],
    plan: &RequestPlan,
    validator: Option<&str>,
    block: u64,
    seconds: f64,
    min_blocks: usize,
    spec: &SwapSpec,
    next: &mut u64,
    swap_k: &mut u64,
    wait_idle: impl Fn(),
) -> ClosedReport {
    let start = Instant::now();
    let mut report = ClosedReport::default();
    while report.block_s.len() < min_blocks || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        clients[0].post_swap(spec, *swap_k);
        *swap_k += 1;
        let round = closed_loop(clients, plan, validator, block, 0.0, 1, next);
        wait_idle();
        report.block_s.push(t.elapsed().as_secs_f64());
        report.latency_sum_s += round.latency_sum_s;
        report.requests += round.requests;
    }
    report.client_cpu_s = clients.iter().map(|c| c.cpu_s).sum();
    report
}

/// Open-loop results.
#[derive(Default)]
pub struct OpenReport {
    /// Per-request latency from the scheduled send time, ascending, ms.
    pub latency_ms: Vec<f64>,
    /// How late each send left relative to its schedule, ascending, ms.
    pub lag_ms: Vec<f64>,
    /// Swap requests posted.
    pub swaps_posted: u64,
    /// Per accepted swap: seconds from its `POST` to the first response
    /// carrying its epoch, under the offered load.
    pub swap_visible_s: Vec<f64>,
}

/// Send plan requests `start..` at `rate` per second for `seconds`,
/// client `c` taking the requests `k ≡ c (mod 2)`. With `swap`, client 0
/// posts a swap before every `swap.every`-th request.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    clients: &mut [Client],
    plan: &RequestPlan,
    validator: Option<&str>,
    rate: f64,
    seconds: f64,
    start_index: u64,
    swap: Option<&SwapSpec>,
    swap_k: &mut u64,
) -> OpenReport {
    let n = (rate * seconds) as u64;
    let t0 = Instant::now() + Duration::from_millis(5);
    let k0 = *swap_k;
    let log = SwapLog::new(clients);
    let per_client: Vec<(Vec<f64>, Vec<f64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let log = &log;
                s.spawn(move || {
                    let cpu0 = thread_cpu_s();
                    let (mut lat, mut lag, mut posted) = (Vec::new(), Vec::new(), 0u64);
                    let mut k = c as u64;
                    while k < n {
                        if let Some(spec) = swap {
                            if c == 0 && k > 0 && k.is_multiple_of(spec.every) {
                                log.post(client, spec, k0 + posted);
                                posted += 1;
                            }
                        }
                        let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        lag.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                        let failed_before = client.tally.failed();
                        let v = client.send(plan, start_index + k, validator);
                        let now = Instant::now();
                        log.seen(v, now);
                        // A failed request counts as over any latency limit.
                        lat.push(if client.tally.failed() > failed_before {
                            f64::INFINITY
                        } else {
                            now.duration_since(due).as_secs_f64() * 1e3
                        });
                        k += CLIENTS;
                    }
                    client.cpu_s += thread_cpu_s() - cpu0;
                    (lat, lag, posted)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("open-loop client")).collect()
    });
    let mut report = OpenReport::default();
    for (lat, lag, posted) in per_client {
        report.latency_ms.extend(lat);
        report.lag_ms.extend(lag);
        report.swaps_posted += posted;
    }
    *swap_k += report.swaps_posted;
    report.swap_visible_s = log.visible_s();
    report.latency_ms.sort_by(f64::total_cmp);
    report.lag_ms.sort_by(f64::total_cmp);
    report
}
