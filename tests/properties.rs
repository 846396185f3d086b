//! Property-based tests (proptest) for the structural invariants the
//! paper's algorithms rely on.

use delta_coloring::brooks::{brooks_color, repair_single_uncolored};
use delta_coloring::gallai;
use delta_coloring::linial::{linial_color_bound, linial_coloring};
use delta_coloring::list_coloring::{self, ListColorMethod};
use delta_coloring::marking::{check_marking, marking_process, MarkingParams};
use delta_coloring::mis::{is_mis, luby_mis};
use delta_coloring::palette::{check_list_coloring, Color, Lists, PartialColoring};
use delta_coloring::ruling::{is_ruling_set, ruling_set_deterministic, ruling_set_randomized};
use delta_coloring::verify::{assert_nice, check_delta_coloring};
use delta_graphs::components::{blocks, is_biconnected};
use delta_graphs::{bfs, generators, props, Graph, NodeId};
use local_model::RoundLedger;
use proptest::prelude::*;

/// Strategy: a random simple graph from an edge list over `n` nodes,
/// with roughly `density·n` sampled edge slots.
fn arb_graph_dense(max_n: usize, density: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..(density * n)).prop_map(
            move |pairs| {
                let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|&(a, b)| a != b).collect();
                Graph::from_edges(n, &edges).expect("valid")
            },
        )
    })
}

/// Strategy: a random simple graph from an edge list over `n` nodes.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    arb_graph_dense(max_n, 3)
}

/// Strategy: a connected random graph (take the largest component).
fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    arb_graph(max_n).prop_map(|g| {
        let comps = delta_graphs::components::component_node_sets(&g);
        let biggest = comps.into_iter().max_by_key(Vec::len).expect("non-empty");
        g.induced(&biggest).0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn linial_is_proper_and_bounded(g in arb_graph(60)) {
        let mut ledger = RoundLedger::new();
        let colors = linial_coloring(&g, &mut ledger, "linial");
        prop_assert!(delta_coloring::reduce::is_proper(&g, &colors));
        let bound = linial_color_bound(g.max_degree()).max(g.n());
        prop_assert!(colors.iter().all(|&c| (c as usize) < bound));
    }

    #[test]
    fn luby_mis_is_mis(g in arb_graph(60), seed in 0u64..100) {
        let mut ledger = RoundLedger::new();
        let m = luby_mis(&g, seed, &mut ledger, "mis");
        prop_assert!(is_mis(&g, &m));
    }

    #[test]
    fn deterministic_ruling_set_is_ruling(g in arb_connected_graph(60)) {
        let mut ledger = RoundLedger::new();
        let set = ruling_set_deterministic(&g, &mut ledger, "rs");
        let beta = 2 * ((g.n().max(2)).ilog2() as usize + 1);
        prop_assert!(is_ruling_set(&g, &set, 2, beta));
    }

    #[test]
    fn randomized_ruling_set_is_ruling(
        g in arb_connected_graph(50),
        alpha in 2usize..4,
        seed in 0u64..50,
    ) {
        let mut ledger = RoundLedger::new();
        let set = ruling_set_randomized(&g, alpha, seed, &mut ledger, "rs");
        prop_assert!(is_ruling_set(&g, &set, alpha, alpha - 1));
    }

    #[test]
    fn list_coloring_solves_deg_plus_one(
        g in arb_graph(50),
        seed in 0u64..50,
        extra in 0usize..3,
        randomized in proptest::bool::ANY,
    ) {
        let lists = Lists::new(
            g.nodes()
                .map(|v| delta_coloring::palette::palette(g.degree(v) + 1 + extra))
                .collect(),
        );
        let method = if randomized {
            ListColorMethod::Randomized
        } else {
            ListColorMethod::Deterministic
        };
        let mut ledger = RoundLedger::new();
        let c = list_coloring::list_color(
            &g, &lists, PartialColoring::new(g.n()), method, seed, &mut ledger, "lc",
        ).expect("deg+1 instances are always solvable");
        prop_assert!(check_list_coloring(&g, &c, &lists).is_ok());
    }

    #[test]
    fn blocks_are_biconnected_and_cover_edges(g in arb_graph(40)) {
        let b = blocks(&g);
        // Every block of size >= 3 induces a biconnected subgraph.
        for blk in &b.blocks {
            if blk.len() >= 3 {
                let (sub, _) = g.induced(blk);
                prop_assert!(is_biconnected(&sub), "block {blk:?} not biconnected");
            }
        }
        // Every edge lies in exactly one block.
        let mut edge_count = 0usize;
        for blk in &b.blocks {
            let (sub, _) = g.induced(blk);
            edge_count += sub.m();
        }
        prop_assert_eq!(edge_count, g.m());
    }

    #[test]
    fn gallai_characterization_forward(
        g in arb_graph_dense(20, 6).prop_map(|g| {
            let comps = delta_graphs::components::component_node_sets(&g);
            let biggest = comps.into_iter().max_by_key(Vec::len).expect("non-empty");
            g.induced(&biggest).0
        }),
        seed in 0u64..20,
    ) {
        // Theorem 8 (one direction): a connected graph that is NOT a
        // Gallai tree is degree-choosable, so ANY tight list assignment
        // is solvable. Random tight lists must therefore never fail.
        prop_assume!(g.n() >= 4 && !props::is_gallai_forest(&g));
        let mut rng_state = seed.wrapping_mul(2).wrapping_add(1);
        let lists = Lists::new(
            g.nodes()
                .map(|v| {
                    // Deterministic pseudo-random tight lists: deg(v)
                    // DISTINCT colors from a universe of deg(v) + 3.
                    let universe = g.degree(v) as u64 + 3;
                    let mut pool: Vec<u32> = (0..universe as u32).collect();
                    // Fisher-Yates with an LCG.
                    for i in (1..pool.len()).rev() {
                        rng_state = rng_state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let j = ((rng_state >> 33) % (i as u64 + 1)) as usize;
                        pool.swap(i, j);
                    }
                    pool.truncate(g.degree(v));
                    pool.into_iter().map(Color).collect()
                })
                .collect(),
        );
        prop_assert!(lists.satisfies_deg(&g));
        let solved = gallai::solve_degree_list(&g, &lists, &PartialColoring::new(g.n()));
        prop_assert!(solved.is_ok(), "degree-choosable graph rejected a tight assignment");
    }

    #[test]
    fn gallai_blocks_reject_tight_identical_lists(
        blocks_n in 1usize..6,
        max_clique in 2usize..5,
        seed in 0u64..50,
    ) {
        // Gallai trees made of clique/odd-cycle blocks: the whole graph
        // gets the canonical *identical* tight lists only per block in
        // general, but single-block Gallai trees (cliques, odd cycles)
        // must reject them (Theorem 8, other direction, block case).
        let g = generators::random_gallai_tree(1, max_clique, seed);
        let _ = blocks_n;
        prop_assume!(g.n() >= 3);
        if props::is_clique(&g) || props::is_odd_cycle(&g) {
            let lists = gallai::tight_identical_lists(&g);
            prop_assert!(
                gallai::solve_degree_list(&g, &lists, &PartialColoring::new(g.n())).is_err()
            );
        }
    }


    #[test]
    fn gallai_trees_reject_canonical_lists(
        num_blocks in 1usize..10,
        max_clique in 2usize..6,
        seed in 0u64..200,
    ) {
        // Theorem 8 (other direction), constructively: every Gallai tree
        // admits a degree-list assignment with no proper coloring, and
        // the canonical disjoint-palette construction is one.
        let g = generators::random_gallai_tree(num_blocks, max_clique, seed);
        let lists = gallai::canonical_failing_lists(&g)
            .expect("generator output is a connected Gallai tree");
        prop_assert!(lists.satisfies_deg(&g));
        prop_assert!(
            gallai::solve_degree_list(&g, &lists, &PartialColoring::new(g.n())).is_err(),
            "canonical failing assignment was colorable"
        );
    }

    #[test]
    fn ball_matches_distances(g in arb_connected_graph(50), r in 0usize..5) {
        let v = NodeId(0);
        let ball = bfs::ball(&g, v, r);
        let dist = bfs::distances(&g, v);
        let expect: Vec<NodeId> = g
            .nodes()
            .filter(|w| dist[w.index()] != bfs::UNREACHABLE && dist[w.index()] as usize <= r)
            .collect();
        prop_assert_eq!(ball.globals.clone(), expect);
        for (i, &w) in ball.globals.iter().enumerate() {
            prop_assert_eq!(ball.dist[i], dist[w.index()]);
        }
    }

    #[test]
    fn marking_postconditions(
        n in 40usize..200,
        p in 0.001f64..0.3,
        b in 1usize..8,
        seed in 0u64..50,
    ) {
        let n = if n % 2 == 1 { n + 1 } else { n };
        let g = generators::random_regular(n, 4, seed);
        let mut coloring = PartialColoring::new(g.n());
        let mut ledger = RoundLedger::new();
        let out = marking_process(&g, None, MarkingParams { p, b }, seed, &mut coloring, &mut ledger, "m");
        prop_assert!(check_marking(&g, &out, b));
        prop_assert!(coloring.validate_proper(&g).is_ok());
    }

    #[test]
    fn brooks_on_arbitrary_nice_graphs(g in arb_connected_graph(40)) {
        prop_assume!(assert_nice(&g).is_ok());
        let delta = g.max_degree();
        let c = brooks_color(&g, delta).expect("Brooks' theorem");
        prop_assert!(check_delta_coloring(&g, &c).is_ok());
    }

    #[test]
    fn repair_on_arbitrary_nice_graphs(g in arb_connected_graph(40), pick in 0usize..40) {
        prop_assume!(assert_nice(&g).is_ok());
        let delta = g.max_degree();
        let mut c = brooks_color(&g, delta).expect("Brooks' theorem");
        let v = NodeId((pick % g.n()) as u32);
        c.unset(v);
        let mut ledger = RoundLedger::new();
        let out = repair_single_uncolored(&g, &mut c, v, delta, &mut ledger, "r");
        prop_assert!(out.is_ok(), "repair failed: {:?}", out.err());
        prop_assert!(check_delta_coloring(&g, &c).is_ok());
    }

    #[test]
    fn layering_covers_connected_graphs(g in arb_connected_graph(60), base_pick in 0usize..60) {
        let base = NodeId((base_pick % g.n()) as u32);
        let lay = delta_coloring::layering::layers_from_base(&g, &[base], None, None);
        prop_assert!(lay.is_cover());
        // Layer index equals BFS distance.
        let dist = bfs::distances(&g, base);
        for v in g.nodes() {
            prop_assert_eq!(lay.layer_of[v.index()], Some(dist[v.index()]));
        }
    }
}

proptest! {
    // Heavier end-to-end property: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn randomized_delta_coloring_on_arbitrary_nice_graphs(
        g in arb_connected_graph(60),
        seed in 0u64..20,
    ) {
        prop_assume!(assert_nice(&g).is_ok());
        let cfg = delta_coloring::delta::RandConfig::large_delta(&g, seed);
        let mut ledger = RoundLedger::new();
        let (c, _) = delta_coloring::delta::delta_color_rand(&g, cfg, &mut ledger)
            .expect("nice graphs are always colorable (fallback is complete)");
        prop_assert!(check_delta_coloring(&g, &c).is_ok());
    }

    #[test]
    fn deterministic_delta_coloring_on_arbitrary_nice_graphs(g in arb_connected_graph(60)) {
        prop_assume!(assert_nice(&g).is_ok());
        let mut ledger = RoundLedger::new();
        let (c, _) = delta_coloring::delta::delta_color_det(
            &g,
            delta_coloring::delta::DetConfig::default(),
            &mut ledger,
        )
        .expect("nice graphs are Theorem 4 colorable");
        prop_assert!(check_delta_coloring(&g, &c).is_ok());
    }
}

#[test]
fn gallai_forest_detection_matches_block_structure() {
    // Deterministic cross-check on known families.
    assert!(props::is_gallai_forest(&generators::random_gallai_tree(
        12, 5, 3
    )));
    assert!(!props::is_gallai_forest(&generators::torus(4, 4)));
    assert!(!props::is_gallai_forest(&generators::hypercube(3)));
}
