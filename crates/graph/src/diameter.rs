//! Graph diameter (§5.2).
//!
//! The paper runs BFS from every node on a cluster; we instead implement
//! the iFUB algorithm (Crescenzi et al., TCS 2013), which computes the
//! *exact* diameter of the component containing the max-degree node from
//! a double-sweep lower bound plus the eccentricities of the deepest BFS
//! levels, stopping as soon as the bound closes. A BFS budget guards
//! pathological inputs.
//!
//! The level eccentricities are the cost: at scale 1.0 the Table 2 graphs
//! need up to ~12,700 of them (HotelsLodging/Homepage), not a handful. So
//! each level is evaluated 64 sources at a time with a bit-parallel
//! multi-source BFS (Then et al., *The More the Merrier*, PVLDB 2015):
//! one bit per source in `u64` seen/frontier/next words, so a node's
//! adjacency is scanned once per level for the whole batch.
//!
//! From an extraction perspective the quantity that matters is `d/2`: the
//! iteration bound for a perfect set-expansion crawler (§5.2).

use crate::bipartite::BipartiteGraph;
use std::collections::VecDeque;

/// Result of a diameter computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diameter {
    /// The diameter of the component containing the start node (exact when
    /// `exact` is true, otherwise a lower bound).
    pub value: u32,
    /// Whether the value is exact.
    pub exact: bool,
    /// Number of source eccentricities evaluated, plus the two sweep BFSs
    /// (root and double sweep). A batch of `k` sources counts `k`.
    pub bfs_runs: u32,
    /// Number of multi-source BFS batches (at most 64 sources each).
    pub batches: u32,
}

const UNVISITED: u32 = u32::MAX;

/// Sources per multi-source BFS batch: one bit of a `u64` word each.
const BATCH: usize = 64;

/// Single-source BFS over the unified node space. Returns the distance
/// array and the farthest node (ties: smallest id).
fn bfs(graph: &BipartiteGraph, start: u32, dist: &mut Vec<u32>) -> (u32, u32) {
    dist.clear();
    dist.resize(graph.n_nodes(), UNVISITED);
    let mut queue = VecDeque::new();
    dist[start as usize] = 0;
    queue.push_back(start);
    let mut far_node = start;
    let mut far_dist = 0;
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for v in graph.neighbors(u) {
            if dist[v as usize] == UNVISITED {
                dist[v as usize] = du + 1;
                if du + 1 > far_dist {
                    far_dist = du + 1;
                    far_node = v;
                }
                queue.push_back(v);
            }
        }
    }
    (far_node, far_dist)
}

/// Eccentricity of `start` within its component.
#[must_use]
pub fn eccentricity(graph: &BipartiteGraph, start: u32) -> u32 {
    let mut dist = Vec::new();
    bfs(graph, start, &mut dist).1
}

/// Double-sweep lower bound: BFS from `start`, then BFS from the farthest
/// node found; the second eccentricity lower-bounds the diameter (and on
/// many real graphs equals it).
#[must_use]
pub fn double_sweep(graph: &BipartiteGraph, start: u32) -> Diameter {
    let mut dist = Vec::new();
    let (far, _) = bfs(graph, start, &mut dist);
    let (_, ecc) = bfs(graph, far, &mut dist);
    Diameter {
        value: ecc,
        exact: false,
        bfs_runs: 2,
        batches: 0,
    }
}

/// Bit-parallel BFS from up to [`BATCH`] sources at once. Bit `b` of a
/// node's words belongs to source `b`: `seen` marks the sources that have
/// reached the node, `frontier` those that reached it at the current
/// level, `next` those that reach it at the next one.
struct MultiSourceBfs {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    /// Nodes with a nonzero `frontier` word.
    active: Vec<u32>,
    /// Nodes with a nonzero `next` word.
    touched: Vec<u32>,
    /// Nodes with a nonzero `seen` word: the only ones reset per batch.
    dirty: Vec<u32>,
}

impl MultiSourceBfs {
    fn new(n_nodes: usize) -> Self {
        MultiSourceBfs {
            seen: vec![0; n_nodes],
            frontier: vec![0; n_nodes],
            next: vec![0; n_nodes],
            active: Vec::new(),
            touched: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Write the eccentricity of `sources[b]` within its component to
    /// `ecc[b]`, for at most [`BATCH`] sources.
    fn eccentricities(&mut self, graph: &BipartiteGraph, sources: &[u32], ecc: &mut [u32]) {
        debug_assert!(sources.len() <= BATCH && ecc.len() >= sources.len());
        let MultiSourceBfs {
            seen,
            frontier,
            next,
            active,
            touched,
            dirty,
        } = self;
        for (b, &s) in sources.iter().enumerate() {
            let s_idx = s as usize;
            if seen[s_idx] == 0 {
                active.push(s);
                dirty.push(s);
            }
            seen[s_idx] |= 1 << b;
            frontier[s_idx] |= 1 << b;
            ecc[b] = 0;
        }
        let mut level = 0;
        while !active.is_empty() {
            level += 1;
            for &u in active.iter() {
                let f = std::mem::take(&mut frontier[u as usize]);
                for v in graph.neighbors(u) {
                    let v_idx = v as usize;
                    let new = f & !seen[v_idx];
                    if new != 0 {
                        if next[v_idx] == 0 {
                            touched.push(v);
                        }
                        if seen[v_idx] == 0 {
                            dirty.push(v);
                        }
                        next[v_idx] |= new;
                        seen[v_idx] |= new;
                    }
                }
            }
            // Every source with a bit in `next` still reaches new nodes
            // at this level, so its eccentricity is at least `level`.
            let mut reached = 0u64;
            for &v in touched.iter() {
                let w = std::mem::take(&mut next[v as usize]);
                frontier[v as usize] = w;
                reached |= w;
            }
            while reached != 0 {
                ecc[reached.trailing_zeros() as usize] = level;
                reached &= reached - 1;
            }
            std::mem::swap(active, touched);
            touched.clear();
        }
        for &v in dirty.iter() {
            seen[v as usize] = 0;
        }
        dirty.clear();
    }
}

/// Exact diameter of the component containing the highest-degree node,
/// via iFUB with a BFS budget.
///
/// Returns `exact == false` (with the best lower bound found) if the budget
/// is exhausted. The budget is checked before each batch of up to 64
/// sources, so [`Diameter::bfs_runs`] can overshoot `max_bfs` by at most 63.
#[must_use]
pub fn ifub_diameter(graph: &BipartiteGraph, max_bfs: u32) -> Diameter {
    // Start from the max-degree node: on hub-dominated graphs it is close
    // to the centre, which is what makes iFUB terminate quickly.
    let Some(start) = (0..graph.n_nodes() as u32)
        .max_by_key(|&n| graph.degree(n))
        .filter(|&n| graph.degree(n) > 0)
    else {
        return Diameter {
            value: 0,
            exact: true,
            bfs_runs: 0,
            batches: 0,
        };
    };
    // Level structure from the root.
    let mut levels = Vec::new();
    let (far, max_level) = bfs(graph, start, &mut levels);
    // Initial lower bound from a double sweep.
    let (_, mut lb) = bfs(graph, far, &mut Vec::new());
    let mut result = Diameter {
        value: lb,
        exact: true,
        bfs_runs: 2,
        batches: 0,
    };
    // Invariant: nodes at level i have eccentricity <= 2i, so once every
    // level deeper than i has been evaluated and lb >= 2i, no remaining
    // node can beat the bound and lb is the diameter. Graphs the double
    // sweep already closes allocate nothing more.
    if 2 * max_level <= lb {
        return result;
    }
    // Nodes bucketed by level, for the levels the loop can reach.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_level as usize + 1];
    for (n, &d) in levels.iter().enumerate() {
        if d != UNVISITED && 2 * d > lb {
            buckets[d as usize].push(n as u32);
        }
    }
    let mut msbfs = MultiSourceBfs::new(graph.n_nodes());
    let mut ecc = [0u32; BATCH];
    let mut i = max_level;
    while 2 * i > lb {
        for batch in buckets[i as usize].chunks(BATCH) {
            if result.bfs_runs >= max_bfs {
                result.value = lb;
                result.exact = false;
                return result;
            }
            msbfs.eccentricities(graph, batch, &mut ecc);
            result.bfs_runs += batch.len() as u32;
            result.batches += 1;
            lb = ecc[..batch.len()].iter().copied().fold(lb, u32::max);
            if lb >= 2 * i {
                break;
            }
        }
        i -= 1;
    }
    result.value = lb;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::ids::EntityId;
    use webstruct_util::rng::{Seed, Xoshiro256};

    fn e(id: u32) -> EntityId {
        EntityId::new(id)
    }

    /// A path graph in bipartite form: e0 - s0 - e1 - s1 - e2 - ... with
    /// `n` entities and `n - 1` sites → diameter 2(n-1).
    fn path_graph(n: usize) -> BipartiteGraph {
        let sites: Vec<Vec<EntityId>> = (0..n - 1)
            .map(|s| vec![e(s as u32), e(s as u32 + 1)])
            .collect();
        BipartiteGraph::from_occurrences(n, &sites).expect("fixture ids lie inside the declared entity universe")
    }

    /// A star: one hub site covering all entities → diameter 2.
    fn star_graph(n: usize) -> BipartiteGraph {
        let all: Vec<EntityId> = (0..n as u32).map(e).collect();
        BipartiteGraph::from_occurrences(n, &[all]).expect("fixture ids lie inside the declared entity universe")
    }

    #[test]
    fn eccentricity_of_path_ends_and_middle() {
        let g = path_graph(5); // nodes: e0..e4, s0..s3; length 8 path
        assert_eq!(eccentricity(&g, 0), 8); // e0 end
        assert_eq!(eccentricity(&g, 2), 4); // middle entity e2
    }

    #[test]
    fn double_sweep_is_exact_on_paths_and_stars() {
        let g = path_graph(6);
        let d = double_sweep(&g, 2);
        assert_eq!(d.value, 10);
        assert_eq!(d.bfs_runs, 2);
        let s = star_graph(10);
        assert_eq!(double_sweep(&s, 0).value, 2);
    }

    #[test]
    fn ifub_exact_on_path() {
        let g = path_graph(7);
        let d = ifub_diameter(&g, 10_000);
        assert!(d.exact);
        assert_eq!(d.value, 12);
    }

    #[test]
    fn ifub_exact_on_star() {
        let g = star_graph(50);
        let d = ifub_diameter(&g, 10_000);
        assert!(d.exact);
        assert_eq!(d.value, 2);
        assert!(d.bfs_runs < 60);
    }

    #[test]
    fn ifub_on_two_hub_graph() {
        // Two hubs sharing one entity: diameter 4 (entity on hub A side to
        // entity on hub B side).
        let mut a: Vec<EntityId> = (0..20).map(e).collect();
        let b: Vec<EntityId> = (19..40).map(e).collect();
        a.push(e(19));
        let g = BipartiteGraph::from_occurrences(40, &[a, b]).expect("fixture ids lie inside the declared entity universe");
        let d = ifub_diameter(&g, 10_000);
        assert!(d.exact);
        assert_eq!(d.value, 4);
    }

    #[test]
    fn ifub_respects_budget() {
        let g = path_graph(64);
        let d = ifub_diameter(&g, 3);
        assert!(!d.exact);
        assert!(d.value <= 126);
        assert!(d.value >= 63, "lower bound should be substantial");
    }

    /// A random occurrence table: `n` entities over `n / 3` sites of up
    /// to six entities each, plus one hub site, so the graph is sparse
    /// enough for deep levels and may leave several components.
    fn random_graph(rng: &mut Xoshiro256, n: usize) -> BipartiteGraph {
        let mut sites: Vec<Vec<EntityId>> = (0..n / 3)
            .map(|_| {
                let len = rng.range_u64(1, 7) as usize;
                (0..len).map(|_| e(rng.usize_below(n) as u32)).collect()
            })
            .collect();
        sites.push((0..n / 4).map(|_| e(rng.usize_below(n) as u32)).collect());
        BipartiteGraph::from_occurrences(n, &sites).expect("ids are drawn inside the universe")
    }

    #[test]
    fn multi_source_eccentricities_match_scalar_across_the_word() {
        let mut rng = Xoshiro256::from_seed(Seed(0x5eed));
        for case in 0..12 {
            let g = random_graph(&mut rng, 150 + 20 * case);
            let n = g.n_nodes() as u32;
            let mut ms = MultiSourceBfs::new(g.n_nodes());
            for count in [1usize, 63, 64, 65] {
                let sources: Vec<u32> = (0..count)
                    .map(|_| rng.u64_below(u64::from(n)) as u32)
                    .collect();
                let mut got = Vec::new();
                let mut ecc = [0u32; BATCH];
                for batch in sources.chunks(BATCH) {
                    ms.eccentricities(&g, batch, &mut ecc);
                    got.extend_from_slice(&ecc[..batch.len()]);
                }
                let want: Vec<u32> = sources.iter().map(|&s| eccentricity(&g, s)).collect();
                assert_eq!(got, want, "case {case}, {count} sources");
            }
            let words = ms.seen.iter().chain(&ms.frontier).chain(&ms.next);
            assert!(words.copied().all(|w| w == 0), "a batch left words set");
        }
    }

    /// Hub site `H` over entities e0..=e100; each e_k (k < 100) also sits
    /// on a private site S_k with a leaf entity p_k, and one site `Q`
    /// joins every leaf. From `H`, level 3 holds the 100 leaves, more
    /// than one batch; the diameter is 5 (e100 to Q) while the deepest
    /// level is 4, so iFUB must evaluate level 3 in full.
    fn two_hub_comb() -> BipartiteGraph {
        let mut sites: Vec<Vec<EntityId>> = vec![(0..=100).map(e).collect()];
        sites.extend((0..100).map(|k| vec![e(k), e(101 + k)]));
        sites.push((101..201).map(e).collect());
        BipartiteGraph::from_occurrences(201, &sites)
            .expect("fixture ids lie inside the declared entity universe")
    }

    #[test]
    fn ifub_evaluates_a_level_wider_than_one_batch() {
        let g = two_hub_comb();
        let d = ifub_diameter(&g, 10_000);
        assert!(d.exact);
        assert_eq!(d.value, 5);
        // Two sweeps, then Q (level 4) and the 100 leaves (level 3).
        assert_eq!(d.bfs_runs, 2 + 1 + 100);
        assert_eq!(d.batches, 1 + 2);
        let brute = (0..g.n_nodes() as u32).map(|v| eccentricity(&g, v)).max();
        assert_eq!(Some(d.value), brute);
    }

    #[test]
    fn budget_exhausted_mid_level_is_inexact_lower_bound() {
        let g = two_hub_comb();
        // Room for the sweeps, Q and the first batch of leaves only.
        let d = ifub_diameter(&g, 2 + 1 + 64);
        assert!(!d.exact);
        assert!(d.value <= 5);
        assert_eq!(d.bfs_runs, 2 + 1 + 64);
        assert_eq!(d.batches, 2);
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let g = BipartiteGraph::from_occurrences(3, &[]).expect("the empty occurrence list is always valid");
        let d = ifub_diameter(&g, 100);
        assert!(d.exact);
        assert_eq!(d.value, 0);
    }

    #[test]
    fn ifub_ignores_smaller_components() {
        // Big component: star of 30; small: path of 2 entities (diam 2).
        let mut sites: Vec<Vec<EntityId>> = vec![(0..30).map(e).collect()];
        sites.push(vec![e(30), e(31)]);
        let g = BipartiteGraph::from_occurrences(32, &sites).expect("fixture ids lie inside the declared entity universe");
        let d = ifub_diameter(&g, 10_000);
        // Hub of the big star dominates: diameter of that component is 2.
        assert!(d.exact);
        assert_eq!(d.value, 2);
    }
}
