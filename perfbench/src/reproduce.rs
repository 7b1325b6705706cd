//! The `reproduce` workload: `run_all` on the oracle source — every table
//! and figure of the paper — where the §5 connectivity family (iFUB
//! diameters) is the critical path.
//!
//! Untraced, the run times `run_all` at the configured worker count over a
//! sequence of corpus seeds derived from `--seed` and reports the median.
//! Traced, it replays `run_all`'s single-thread call order from the public
//! experiment building blocks with a timer around every call into a
//! layer; the replica's artifact digest must equal `run_all`'s, which is
//! what proves the replica times the same work.

use crate::measure::{artifact_digest, median, Ledger, Outcome};
use crate::Args;
use std::time::Instant;
use webstruct_core::experiments::connectivity::{table2_graphs, DIAMETER_BFS_BUDGET};
use webstruct_core::experiments::spread::MAX_K;
use webstruct_core::experiments::table1;
use webstruct_core::runner::{run_all, RunOutput};
use webstruct_core::study::StudyConfig;
use webstruct_core::Study;
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_coverage::{aggregate_coverage, comparison_figure, greedy_cover, k_coverage};
use webstruct_demand::{cdf_figure, fig7, fig8, pdf_figure, Channel, InfoDecay, StudySite};
use webstruct_graph::{
    component_stats, ifub_diameter, robustness_series, robustness_sweep, BipartiteGraph,
};
use webstruct_util::ids::EntityId;
use webstruct_util::report::{Figure, Table};
use webstruct_util::rng::Seed;

/// The `i`-th corpus seed of a run: the run seed itself, then children
/// derived from it.
fn corpus_seed(seed: u64, i: usize) -> Seed {
    if i == 0 {
        Seed(seed)
    } else {
        Seed(seed).derive_u64(i as u64)
    }
}

fn config(args: &Args, i: usize) -> StudyConfig {
    StudyConfig::default()
        .with_scale(args.scale)
        .with_seed(corpus_seed(args.seed, i))
}

/// Set-up: a warm-up `run_all` of the program's quick configuration, so
/// lazy initialisation and first-touch costs land in `setup_s`, not in
/// the timed window.
fn setup() {
    let out = run_all(&StudyConfig::quick());
    assert!(out.is_complete(), "warm-up run_all degraded: {:?}", out.failures);
}

/// Check one `run_all` output — nothing degraded, every artifact
/// present, every Table 2 diameter exact — and tally its families.
fn check_output(out: &RunOutput, label: &str, outcome: &mut Outcome) {
    outcome.attempted += out.timings.len() as u64;
    outcome.failed += out.failures.len() as u64;
    let inexact = out.tables.get(1).map_or(17, |t| t.rows.iter().filter(|r| r[3].ends_with('+')).count());
    let rows = out.tables.get(1).map_or(0, |t| t.rows.len());
    outcome.check(
        label,
        out.is_complete() && out.figures.len() == 33 && out.tables.len() == 2 && rows == 17 && inexact == 0,
        format!(
            "{} figures, {} tables, {rows} Table 2 rows, {inexact} inexact diameters, failures {:?}",
            out.figures.len(),
            out.tables.len(),
            out.failures
        ),
    );
}

pub fn run(args: &Args, ledger: &mut Ledger, outcome: &mut Outcome) {
    if args.trace {
        return traced(args, ledger, outcome);
    }
    let setups = crate::repeat_setup(crate::SETUPS, setup);
    ledger.set("setup_s", median(&setups), "s");

    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first_digest = String::new();
    let mut i = 0;
    while i < args.min_iters || start.elapsed().as_secs_f64() < args.seconds {
        let cfg = config(args, i);
        let t = Instant::now();
        let out = run_all(&cfg);
        walls.push(t.elapsed().as_secs_f64());
        check_output(&out, &format!("reproduce.run{i}"), outcome);
        let digest = artifact_digest(&out.figures, &out.tables);
        eprintln!("reproduce seed {:#x}: {:.3} s, digest {}", cfg.seed.0, walls[i], &digest[..16]);
        if i == 0 {
            first_digest = digest;
        }
        i += 1;
    }
    ledger.set("wall_s", median(&walls), "s");
    ledger.set("reproduce.runs", walls.len() as f64, "count");
    outcome.fact("reproduce.digest", &first_digest);

    // Untimed: the first corpus seed again, single-threaded, must give
    // the same bytes as the timed multi-threaded run.
    let again = crate::with_threads(1, || run_all(&config(args, 0)));
    check_output(&again, "reproduce.rerun", outcome);
    let digest = artifact_digest(&again.figures, &again.tables);
    outcome.check(
        "reproduce.digest_repeats",
        digest == first_digest,
        format!("1 thread {} vs {} threads {}", &digest[..16], crate::THREADS, &first_digest[..16]),
    );
}

/// The traced run, for the first corpus seed: untraced `run_all` at the
/// configured worker count (family timings), untraced at one thread (the
/// overhead baseline), then the timed replica at one thread.
fn traced(args: &Args, ledger: &mut Ledger, outcome: &mut Outcome) {
    setup();
    let cfg = config(args, 0);
    let out = run_all(&cfg);
    check_output(&out, "reproduce", outcome);
    let digest = artifact_digest(&out.figures, &out.tables);
    for t in &out.timings {
        let name = format!("core.family_{}_s", t.family.replace('-', "_"));
        ledger.set(&name, t.secs, "s");
    }
    outcome.fact("reproduce.digest", &digest);

    let (untraced_s, single) = crate::with_threads(1, || {
        let t = Instant::now();
        let out = run_all(&cfg);
        (t.elapsed().as_secs_f64(), out)
    });
    check_output(&single, "reproduce.single", outcome);

    let (traced_s, replica) = crate::with_threads(1, || {
        let t = Instant::now();
        let replica = replica(&cfg, ledger);
        (t.elapsed().as_secs_f64(), replica)
    });
    let replica_digest = artifact_digest(&replica.figures, &replica.tables);
    outcome.check(
        "reproduce.replica_digest",
        replica_digest == digest && artifact_digest(&single.figures, &single.tables) == digest,
        format!("replica {} vs run_all {}", &replica_digest[..16], &digest[..16]),
    );
    let total_bfs: u32 = replica.bfs_runs.iter().map(|(_, n)| n).sum();
    ledger.set("graph.ifub_bfs_runs", f64::from(total_bfs), "count");
    for (graph, n) in &replica.bfs_runs {
        ledger.set(&format!("graph.ifub_bfs_runs.{graph}"), f64::from(*n), "count");
        outcome.fact(&format!("graph.ifub_bfs_runs.{graph}"), n);
    }
    let attributed = ledger.sum_seconds(crate::LAYER_PREFIXES);
    ledger.set("trace.wall_s", traced_s, "s");
    ledger.set("reproduce.unattributed_s", traced_s - attributed, "s");
    ledger.set("trace.overhead_s", traced_s - untraced_s, "s");
}

/// What the replica produced: the artifacts in `run_all`'s order plus the
/// iFUB BFS count per Table 2 graph.
struct Replica {
    figures: Vec<Figure>,
    tables: Vec<Table>,
    bfs_runs: Vec<(String, u32)>,
}

/// `run_all` at one thread, call for call, with every call into a layer
/// charged to that layer.
fn replica(cfg: &StudyConfig, l: &mut Ledger) -> Replica {
    let study = Study::new(cfg.clone());
    let mut figures = spread_family(&study, l);
    figures.extend(tail_family(&study, l));
    let (fig9, table2, bfs_runs) = connectivity_family(&study, l);
    figures.extend(fig9);
    Replica {
        figures,
        tables: vec![table1(), table2],
        bfs_runs,
    }
}

/// `study.domain(d)` then its occurrence lists: generation on first use,
/// the oracle relation every time.
fn occurrence_lists(study: &Study, d: Domain, attr: Attribute, l: &mut Ledger) -> (usize, Vec<Vec<EntityId>>) {
    let built = l.time("corpus.generate_s", || study.domain(d));
    let lists = l.time("corpus.occurrences_s", || built.occurrence_lists(attr, &study.config));
    (built.catalog.len(), lists)
}

/// The coverage universe of Figures 1–5: homepages are remapped onto the
/// dense sub-universe of entities that have one.
fn universe_lists(study: &Study, d: Domain, attr: Attribute, l: &mut Ledger) -> (usize, Vec<Vec<EntityId>>) {
    let (n, lists) = occurrence_lists(study, d, attr, l);
    if attr != Attribute::Homepage {
        return (n, lists);
    }
    let built = study.domain(d);
    l.time("coverage.spread_s", || {
        let mut remap = vec![u32::MAX; n];
        let mut n_universe = 0u32;
        for e in built.catalog.with_homepage() {
            remap[e.id.index()] = n_universe;
            n_universe += 1;
        }
        let lists = lists
            .iter()
            .map(|list| list.iter().map(|e| EntityId::new(remap[e.index()])).collect())
            .collect();
        (n_universe as usize, lists)
    })
}

fn coverage_figure(study: &Study, d: Domain, attr: Attribute, id: &str, title: &str, l: &mut Ledger) -> Figure {
    let (n, lists) = universe_lists(study, d, attr, l);
    l.time("coverage.spread_s", || {
        k_coverage(n, &lists, MAX_K)
            .expect("generated corpora always have entities and valid ids")
            .to_figure(id, title)
    })
}

fn spread_family(study: &Study, l: &mut Ledger) -> Vec<Figure> {
    let order = [
        Domain::Restaurants,
        Domain::Automotive,
        Domain::Banks,
        Domain::HotelsLodging,
        Domain::Libraries,
        Domain::RetailShopping,
        Domain::HomeGarden,
        Domain::Schools,
    ];
    let mut figures = Vec::new();
    for (attr, prefix) in [(Attribute::Phone, "fig1"), (Attribute::Homepage, "fig2")] {
        for (i, &d) in order.iter().enumerate() {
            let id = format!("{prefix}{}", (b'a' + i as u8) as char);
            let title = format!("{} {}s", d.display_name(), attr.slug());
            figures.push(coverage_figure(study, d, attr, &id, &title, l));
        }
    }
    figures.push(coverage_figure(study, Domain::Books, Attribute::Isbn, "fig3", "Books books", l));
    figures.push(coverage_figure(
        study,
        Domain::Restaurants,
        Attribute::Review,
        "fig4a",
        "Restaurant Reviews",
        l,
    ));
    let built = study.domain(Domain::Restaurants);
    let pages = l.time("corpus.occurrences_s", || built.review_page_lists(&study.config));
    figures.push(l.time("coverage.spread_s", || {
        aggregate_coverage(&pages).to_figure("fig4b", "Aggregate Reviews")
    }));
    let (n, lists) = universe_lists(study, Domain::Restaurants, Attribute::Homepage, l);
    figures.push(l.time("coverage.spread_s", || {
        let by_size = k_coverage(n, &lists, 1).expect("valid corpus").to_figure("tmp", "tmp");
        let greedy = greedy_cover(n, &lists).expect("valid corpus");
        comparison_figure(
            "fig5",
            "Greedy Covering For Restaurant Homepages",
            &by_size.series[0],
            &greedy,
        )
    }));
    figures
}

fn tail_family(study: &Study, l: &mut Ledger) -> Vec<Figure> {
    let studies: Vec<_> = StudySite::ALL
        .iter()
        .map(|&s| l.time("demand.traffic_s", || study.traffic(s)))
        .collect();
    let refs: Vec<&webstruct_demand::TrafficStudy> = studies.iter().map(AsRef::as_ref).collect();
    let mut figures = l.time("demand.tail_value_s", || {
        vec![
            cdf_figure(&refs, Channel::Search),
            pdf_figure(&refs, Channel::Search),
            cdf_figure(&refs, Channel::Browse),
            pdf_figure(&refs, Channel::Browse),
        ]
    });
    let panels = [StudySite::Yelp, StudySite::Amazon, StudySite::Imdb];
    for &s in &panels {
        let t = l.time("demand.traffic_s", || study.traffic(s));
        figures.push(l.time("demand.tail_value_s", || fig7(&t)));
    }
    for &s in &panels {
        let t = l.time("demand.traffic_s", || study.traffic(s));
        figures.push(l.time("demand.tail_value_s", || fig8(&t, InfoDecay::InverseLinear)));
    }
    figures
}

fn build_graph(study: &Study, d: Domain, attr: Attribute, l: &mut Ledger) -> BipartiteGraph {
    let (n, lists) = occurrence_lists(study, d, attr, l);
    l.time("graph.build_s", || {
        BipartiteGraph::from_occurrences(n, &lists).expect("generated ids are always in range")
    })
}

fn connectivity_family(study: &Study, l: &mut Ledger) -> (Vec<Figure>, Table, Vec<(String, u32)>) {
    let locals = [
        Domain::Automotive,
        Domain::Banks,
        Domain::HomeGarden,
        Domain::HotelsLodging,
        Domain::Libraries,
        Domain::Restaurants,
        Domain::RetailShopping,
        Domain::Schools,
    ];
    let mut panels = Vec::with_capacity(3);
    for (id, title, attr, domains) in [
        ("fig9a", "Robustness: Phones", Attribute::Phone, &locals[..]),
        ("fig9b", "Robustness: Home Pages", Attribute::Homepage, &locals[..]),
        ("fig9c", "Robustness: Book ISBN", Attribute::Isbn, &[Domain::Books][..]),
    ] {
        let mut fig = Figure::new(id, title)
            .with_axes("Top-K sites removed", "Fraction in Largest Component");
        for &d in domains {
            let graph = build_graph(study, d, attr, l);
            fig.push(l.time("graph.robustness_s", || {
                robustness_series(d.display_name(), &robustness_sweep(&graph, 10))
            }));
        }
        panels.push(fig);
    }

    let mut table = Table::new(
        "Table 2: Entity-Site Graphs and Metrics",
        &[
            "Domain",
            "Attr",
            "Avg #sites per entity",
            "diameter",
            "# conn. comp.",
            "% entities in largest comp.",
        ],
    );
    let mut bfs_runs = Vec::new();
    for (d, attr) in table2_graphs() {
        let graph = build_graph(study, d, attr, l);
        let stats = l.time("graph.components_s", || component_stats(&graph, &[]));
        let diameter = l.time("graph.ifub_s", || ifub_diameter(&graph, DIAMETER_BFS_BUDGET));
        bfs_runs.push((format!("{}.{}", d.slug(), attr.slug()), diameter.bfs_runs));
        table.push_row(vec![
            d.display_name().to_string(),
            attr.slug().to_string(),
            format!("{:.0}", graph.avg_sites_per_entity()),
            format!("{}{}", diameter.value, if diameter.exact { "" } else { "+" }),
            stats.n_components.to_string(),
            format!("{:.2}", 100.0 * stats.largest_fraction()),
        ]);
    }
    (panels, table, bfs_runs)
}
