//! The `ingest` workload: the `webstruct epoch` path. A cold `Epoch::run`
//! of Restaurants into 8 KiB shards on real disk (render, WSP1 write,
//! fsync, manifest commits, extraction, extraction-cache writes), then
//! 1% mutations each followed by a warm `Epoch::run` that re-renders and
//! re-extracts only the dirty slice.
//!
//! Untraced, each cycle is one cold run plus three warm runs on a fresh
//! corpus, repeated until `--seconds` have passed; every cycle
//! replays the same inputs, so hit/miss counts and digests must repeat
//! exactly. Traced, `Epoch::run_extracted`'s single-thread body is
//! replayed from public calls with a timer around each layer call; the
//! replica's output digest must equal `Epoch::run`'s.

use crate::measure::{hex, median, Ledger, Outcome};
use crate::Args;
use std::path::{Path, PathBuf};
use std::time::Instant;
use webstruct_core::epoch::{identifying_attribute, Epoch, EpochReport, COVERAGE_MAX_K};
use webstruct_core::study::StudyConfig;
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_corpus::extcache::{self, ExtLoad};
use webstruct_corpus::page::PageConfig;
use webstruct_corpus::shard::{ShardStore, ShardedWeb};
use webstruct_coverage::StreamingCoverage;
use webstruct_extract::{train_review_classifier, ExtractedWeb, Extractor, NaiveBayes};
use webstruct_graph::GraphAccumulator;
use webstruct_util::ids::SiteId;
use webstruct_util::iofault::FaultSession;
use webstruct_util::rng::Seed;
use webstruct_util::sha::Sha256;

/// Target shard size of the ingest store: small shards, many fsyncs.
const SHARD_BYTES: u64 = 8 << 10;
/// Share of sites each warm step mutates.
const MUTATION: f64 = 0.01;
/// Warm steps after each cold run.
const WARM_PER_COLD: usize = 3;

pub struct Settings {
    shard_bytes: u64,
    mutation: f64,
    warm_per_cold: usize,
    dir: PathBuf,
}

impl Settings {
    /// Settings for tracing the epoch path of another workload's store.
    pub fn new(shard_bytes: u64, mutation: f64, dir: PathBuf) -> Self {
        Settings {
            shard_bytes,
            mutation,
            warm_per_cold: 1,
            dir,
        }
    }

    fn from(args: &Args) -> Self {
        Settings {
            shard_bytes: SHARD_BYTES,
            mutation: MUTATION,
            warm_per_cold: WARM_PER_COLD,
            dir: args.work_dir.clone(),
        }
    }

    fn epoch(&self, seed: u64, scale: f64) -> Epoch {
        let cfg = StudyConfig::default().with_scale(scale).with_seed(Seed(seed));
        Epoch::new(Domain::Restaurants, cfg).with_shard_bytes(self.shard_bytes)
    }
}

/// The seed of the `w`-th mutation of a cycle: the same in every cycle.
fn mutation_seed(seed: u64, w: usize) -> Seed {
    Seed(seed).derive("perfbench-mutate").derive_u64(w as u64)
}

fn clear(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear store directory");
    }
}

/// Bytes on disk under `dir` (one level: the store is flat).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Pages in the store, from its committed manifest.
fn store_pages(dir: &Path) -> u64 {
    ShardStore::open(dir)
        .map(|s| s.manifest().shards.iter().map(|e| u64::from(e.page_count)).sum())
        .unwrap_or(0)
}

pub fn run(args: &Args, ledger: &mut Ledger, outcome: &mut Outcome) {
    let set = Settings::from(args);
    if args.trace {
        return trace_epoch_path(args, &set, ledger, outcome);
    }
    clear(&set.dir);
    let mut booted = None;
    let setups = crate::repeat_setup(crate::SETUPS, || {
        booted = Some(set.epoch(args.seed, args.scale));
    });
    ledger.set("setup_s", median(&setups), "s");

    let start = Instant::now();
    let (mut colds, mut warms) = (Vec::new(), Vec::new());
    // (hits, misses, digest) per warm step of the first cycle.
    let mut first_cycle: Vec<(usize, usize, String)> = Vec::new();
    let mut cold_digest = String::new();
    let mut last: Option<(Epoch, EpochReport)> = None;
    let mut cycle = 0;
    'cycles: while cycle < args.min_iters || start.elapsed().as_secs_f64() < args.seconds {
        let mut epoch = match booted.take() {
            Some(e) => e,
            None => set.epoch(args.seed, args.scale),
        };
        // Each cycle writes a fresh store; all are deleted after the
        // timed window, since deleting between cycles slows the next
        // cycle's writes on discard-mounted disks.
        let store = set.dir.join(format!("store-{cycle}"));
        let t = Instant::now();
        outcome.attempted += 1;
        let cold = match epoch.run(&store, crate::THREADS) {
            Ok(r) => r,
            Err(e) => {
                outcome.failed += 1;
                outcome.check("ingest.cold_run", false, format!("{e}"));
                break;
            }
        };
        colds.push(t.elapsed().as_secs_f64());
        if cycle == 0 {
            cold_digest = cold.digest_hex();
            outcome.fact("ingest.cold_digest", &cold_digest);
            outcome.fact("corpus.shards", cold.recovery.shards_total);
            outcome.fact("extract.pages", store_pages(&store));
        } else if cold.digest_hex() != cold_digest {
            outcome.check("ingest.cold_repeats", false, format!("cycle {cycle} digest drifted"));
        }
        let mut report = cold;
        for w in 0..set.warm_per_cold {
            let t = Instant::now();
            epoch.mutate(set.mutation, mutation_seed(args.seed, w));
            outcome.attempted += 1;
            report = match epoch.run(&store, crate::THREADS) {
                Ok(r) => r,
                Err(e) => {
                    outcome.failed += 1;
                    outcome.check("ingest.warm_run", false, format!("{e}"));
                    break 'cycles;
                }
            };
            warms.push(t.elapsed().as_secs_f64());
            let got = (report.cache_hits, report.cache_misses, report.digest_hex());
            if cycle == 0 {
                if w == 0 {
                    outcome.fact("ingest.warm_hits", got.0);
                    outcome.fact("ingest.warm_misses", got.1);
                }
                first_cycle.push(got);
            } else if first_cycle[w] != got {
                outcome.check(
                    "ingest.warm_repeats",
                    false,
                    format!("cycle {cycle} step {w}: {got:?} vs {:?}", first_cycle[w]),
                );
            }
        }
        eprintln!("ingest cycle {cycle}: cold {:.3} s", colds[cycle]);
        last = Some((epoch, report));
        cycle += 1;
    }
    ledger.set("wall_s", median(&colds), "s");
    ledger.set("warm_s", median(&warms), "s");
    ledger.set("ingest.cycles", colds.len() as f64, "count");
    outcome.check(
        "ingest.repeats",
        !outcome.checks.iter().any(|(n, ok, _)| n.ends_with("_repeats") && !ok),
        format!("{} cycles with identical counts and digests", colds.len()),
    );
    let warm_hit = first_cycle.first().is_some_and(|&(h, m, _)| h > 0 && m > 0);
    outcome.check(
        "ingest.warm_is_incremental",
        warm_hit,
        format!("first warm run (hits, misses) = {:?}", first_cycle.first().map(|c| (c.0, c.1))),
    );

    // Untimed: the last warm state, recomputed cold from an empty store,
    // must give the same digest.
    if let Some((epoch, report)) = last {
        let check_dir = set.dir.join("cold-check");
        outcome.attempted += 1;
        match epoch.run_cold(&check_dir, crate::THREADS) {
            Ok(cold) => outcome.check(
                "ingest.warm_equals_cold",
                cold.output_digest == report.output_digest,
                format!("warm {} vs cold {}", &report.digest_hex()[..16], &cold.digest_hex()[..16]),
            ),
            Err(e) => {
                outcome.failed += 1;
                outcome.check("ingest.warm_equals_cold", false, format!("{e}"));
            }
        }
    }
    clear(&set.dir);
}

/// The traced epoch path, at one thread: the untraced cold + warm pair
/// (the overhead baseline), then the timed replica of the same pair. Call
/// it before anything else charges time to a layer in `ledger`.
pub fn trace_epoch_path(args: &Args, set: &Settings, ledger: &mut Ledger, outcome: &mut Outcome) {
    let (dir_a, dir_b) = (set.dir.join("untraced"), set.dir.join("traced"));
    clear(&dir_a);
    clear(&dir_b);
    let seed = mutation_seed(args.seed, 0);
    let (untraced_s, cold, warm) = crate::with_threads(1, || {
        let t = Instant::now();
        let mut epoch = set.epoch(args.seed, args.scale);
        let cold = epoch.run(&dir_a, 1).expect("untraced cold run");
        epoch.mutate(set.mutation, seed);
        let warm = epoch.run(&dir_a, 1).expect("untraced warm run");
        (t.elapsed().as_secs_f64(), cold, warm)
    });
    outcome.attempted += 2;

    let t = Instant::now();
    let mut epoch = ledger.time("corpus.generate_s", || set.epoch(args.seed, args.scale));
    let clf = ledger.time("extract.train_s", || review_classifier(&epoch));
    let cold_r = replica_run(&epoch, set, &dir_b, clf.as_ref(), ledger);
    ledger.set("corpus.shards", cold_r.shards as f64, "count");
    ledger.set("corpus.store_bytes", dir_bytes(&dir_b) as f64, "bytes");
    ledger.set("extract.pages", cold_r.pages as f64, "count");
    ledger.time("core.epoch_mutate_s", || epoch.mutate(set.mutation, seed));
    let warm_r = replica_run(&epoch, set, &dir_b, clf.as_ref(), ledger);
    let traced_s = t.elapsed().as_secs_f64();
    outcome.attempted += 2;

    outcome.check(
        "ingest.replica_digest",
        cold_r.digest == cold.output_digest && warm_r.digest == warm.output_digest,
        format!(
            "cold {} vs {}, warm {} vs {}",
            &hex(&cold_r.digest)[..16],
            &cold.digest_hex()[..16],
            &hex(&warm_r.digest)[..16],
            &warm.digest_hex()[..16]
        ),
    );
    outcome.check(
        "ingest.replica_hits",
        (warm_r.hits, warm_r.misses) == (warm.cache_hits, warm.cache_misses),
        format!("replica ({}, {}) vs ({}, {})", warm_r.hits, warm_r.misses, warm.cache_hits, warm.cache_misses),
    );
    let lookups = (warm.cache_hits + warm.cache_misses).max(1);
    ledger.set("core.extcache_hit_ratio", warm.cache_hits as f64 / lookups as f64, "ratio");
    outcome.fact("corpus.shards", cold.recovery.shards_total);
    outcome.fact("extract.pages", cold_r.pages);
    outcome.fact("ingest.cold_digest", cold.digest_hex());
    outcome.fact("ingest.warm_hits", warm.cache_hits);
    outcome.fact("ingest.warm_misses", warm.cache_misses);
    let attributed = ledger.sum_seconds(crate::LAYER_PREFIXES);
    ledger.set("trace.wall_s", traced_s, "s");
    ledger.set("ingest.unattributed_s", traced_s - attributed, "s");
    ledger.set("trace.overhead_s", traced_s - untraced_s, "s");
    clear(&dir_a);
    clear(&dir_b);
}

/// The review classifier the epoch trains once and reuses across runs.
fn review_classifier(epoch: &Epoch) -> Option<NaiveBayes> {
    epoch.domain().has_attribute(Attribute::Review).then(|| {
        train_review_classifier(epoch.config().seed.derive("nb"), 300)
            .expect("training set is balanced by construction")
    })
}

struct ReplicaRun {
    digest: [u8; 32],
    hits: usize,
    misses: usize,
    shards: usize,
    pages: u64,
}

/// `Epoch::run_extracted` at one worker, call for call.
fn replica_run(
    epoch: &Epoch,
    set: &Settings,
    dir: &Path,
    clf: Option<&NaiveBayes>,
    l: &mut Ledger,
) -> ReplicaRun {
    let (web, catalog) = (epoch.web(), epoch.catalog());
    let (n_sites, n_entities) = (web.n_sites(), catalog.len());
    let render_seed = epoch.config().seed.derive("render");
    let (mut store, _) = l.time("corpus.store_s", || {
        ShardStore::write_resumable(dir, web, catalog, &PageConfig::default(), render_seed, set.shard_bytes)
            .expect("shard store write")
    });
    let fp = epoch.extractor_fingerprint();
    let manifest = store.manifest().clone();
    let n_shards = manifest.shards.len();
    let manifest_fp_ok = manifest.ext.as_ref().is_some_and(|s| s.fingerprint == fp);
    let mut extractor = Extractor::new(catalog);
    if let Some(clf) = clf {
        extractor = extractor.with_review_classifier(clf.clone());
    }
    let attr = identifying_attribute(epoch.domain());
    let sharded = ShardedWeb::Stored(&store);

    let mut acc = ExtractedWeb::new(n_sites, n_entities);
    let mut cov = StreamingCoverage::new(n_entities, COVERAGE_MAX_K);
    let mut graph = GraphAccumulator::new(n_entities, n_sites);
    let mut new_entries = Vec::new();
    let (mut hits, mut misses, mut pages) = (0, 0, 0u64);
    for (i, entry) in manifest.shards.iter().enumerate() {
        let sites = entry.sites.start as usize..entry.sites.end as usize;
        let cached = match manifest.ext.as_ref().and_then(|s| s.entries.get(i)) {
            Some(Some(e)) if manifest_fp_ok => {
                match l.time("corpus.extcache_s", || extcache::load_entry(dir, i, e, entry.sha256, fp)) {
                    ExtLoad::Hit(payload) => Some(payload),
                    ExtLoad::Miss | ExtLoad::Poisoned(_) => None,
                }
            }
            _ => None,
        };
        let payload = match cached {
            Some(p) => {
                hits += 1;
                p
            }
            None => {
                misses += 1;
                pages += u64::from(entry.page_count);
                let fresh = l.time("extract.busy_s", || {
                    extractor.extract_one_shard(&sharded, i, n_sites).expect("extract shard")
                });
                let bytes = l.time("extract.busy_s", || fresh.shard_snapshot_bytes(sites.clone()));
                let e = l.time("corpus.extcache_s", || {
                    extcache::write_entry(dir, i, entry.sha256, fp, &bytes, &FaultSession::clean())
                        .expect("extraction cache write")
                });
                new_entries.push((i, e));
                bytes
            }
        };
        let mut shard_acc = ExtractedWeb::new(n_sites, n_entities);
        l.time("extract.merge_s", || shard_acc.merge_snapshot(&payload).expect("snapshot replays"));
        for s in sites {
            let entities = l.time("extract.merge_s", || shard_acc.site_entities(s, attr));
            l.time("coverage.accumulate_s", || cov.add_site(&entities));
            l.time("graph.accumulate_s", || graph.add_page(SiteId::new(s as u32), &entities));
        }
        l.time("extract.merge_s", || acc.merge(shard_acc));
    }

    let mut entries = vec![None; n_shards];
    if manifest_fp_ok {
        if let Some(section) = &manifest.ext {
            entries.clone_from_slice(&section.entries);
        }
    }
    for (i, e) in new_entries {
        entries[i] = Some(e);
    }
    l.time("corpus.extcache_s", || {
        store.commit_extractions(fp, entries, &FaultSession::clean()).expect("commit extractions")
    });
    let coverages = l.time("coverage.accumulate_s", || cov.coverages());
    let graph = l.time("graph.accumulate_s", || graph.finish().expect("graph builds"));
    let occurrences = l.time("extract.merge_s", || acc.total_occurrences(attr));
    let digest = l.time("core.epoch_digest_s", || {
        let mut h = Sha256::new();
        h.update(b"webstruct-epoch-output-v1\n");
        h.update(&acc.shard_snapshot_bytes(0..n_sites));
        for c in &coverages {
            h.update(&c.to_bits().to_le_bytes());
        }
        h.update(&(graph.n_edges() as u64).to_le_bytes());
        h.update(&(graph.entities_present() as u64).to_le_bytes());
        h.update(&(occurrences as u64).to_le_bytes());
        h.update(store.manifest().render().as_bytes());
        h.finalize()
    });
    ReplicaRun {
        digest,
        hits,
        misses,
        shards: n_shards,
        pages,
    }
}
