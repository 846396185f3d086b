//! Direct validation of the paper's Section 2 structural lemmas on
//! concrete graphs. These are deterministic inequalities — any failure
//! is a real bug (in the implementation or in our reading of the paper).

use delta_coloring::gallai;
use delta_graphs::{bfs, generators, props, Graph, NodeId};

/// Nodes of `g` whose radius-`r` ball contains no DCC (the lemmas'
/// precondition), from a deterministic sample.
fn dcc_free_sample(g: &Graph, r: usize, sample: usize) -> Vec<NodeId> {
    (0..sample as u64)
        .map(|i| NodeId(((i * 2_654_435_761) % g.n() as u64) as u32))
        .filter(|&v| gallai::ball_is_dcc_free(&bfs::ball(g, v, r)))
        .collect()
}

#[test]
fn lemma10_unique_bfs_tree_in_dcc_free_balls() {
    // Lemma 10: if there are no DCCs of radius <= r, the depth-r BFS
    // tree is unique — every node at level t has exactly one neighbor at
    // level t-1.
    let g = generators::random_regular(1 << 13, 4, 3);
    let r = 4;
    for v in dcc_free_sample(&g, r, 200) {
        let ball = bfs::ball(&g, v, r);
        let dist = &ball.dist;
        for u in ball.graph.nodes() {
            let t = dist[u.index()];
            if t == 0 || t as usize >= r {
                continue;
            }
            let parents = ball
                .graph
                .neighbors(u)
                .iter()
                .filter(|w| dist[w.index()] + 1 == t)
                .count();
            assert_eq!(
                parents, 1,
                "node {u} at level {t} of the BFS tree around {v} has {parents} parents"
            );
        }
    }
}

#[test]
fn lemma11_child_count_inequality() {
    // Lemma 11: for u' with deg(u') >= 3 and its BFS ancestor u,
    // d(u) + d(u') >= min(deg(u), deg(u')) in DCC-free balls.
    let g = generators::random_regular(1 << 13, 4, 9);
    let r = 4;
    for v in dcc_free_sample(&g, r, 150) {
        let ball = bfs::ball(&g, v, r);
        let tree = bfs::bfs_tree(&ball.graph, ball.center, Some(r));
        for u2 in ball.graph.nodes() {
            let Some(u) = tree.parent[u2.index()] else {
                continue;
            };
            // Only interior levels (children fully visible inside ball).
            if ball.dist[u2.index()] as usize >= r {
                continue;
            }
            let (du, du2) = (
                tree.child_count(&ball.graph, u),
                tree.child_count(&ball.graph, u2),
            );
            // Degrees measured in G (the ball is deep enough for the
            // interior).
            let (degu, degu2) = (g.degree(ball.to_global(u)), g.degree(ball.to_global(u2)));
            if degu2 < 3 {
                continue;
            }
            assert!(
                du + du2 >= degu.min(degu2),
                "Lemma 11 violated at ({u}, {u2}): d={du}+{du2} < min({degu}, {degu2})"
            );
        }
    }
}

#[test]
fn lemma13_clique_neighborhoods_in_dcc_free_graphs() {
    // Lemma 13: no radius-1 DCC anywhere => every G[N(v)] is a disjoint
    // union of cliques.
    for g in [
        generators::random_regular(2000, 4, 5),
        generators::random_gallai_tree(40, 5, 7),
        generators::random_tree(500, 1),
        generators::complete(8),
    ] {
        let has_r1_dcc = g
            .nodes()
            .any(|v| gallai::find_dcc_for_node(&g, v, 1, 2, usize::MAX).is_some());
        if !has_r1_dcc {
            assert!(
                gallai::neighborhoods_are_clique_unions(&g),
                "Lemma 13 violated on {g:?}"
            );
        }
    }
}

#[test]
fn lemma15_expansion_in_dcc_free_balls() {
    // Lemma 15: Δ-regular + DCC-free within r => |B_r(v)| >= (Δ-1)^(r/2).
    for &delta in &[3usize, 4, 5] {
        let g = generators::random_regular(1 << 13, delta, 11 + delta as u64);
        for &r in &[2usize, 4] {
            let bound = ((delta - 1) as f64).powf(r as f64 / 2.0).ceil() as usize;
            for v in dcc_free_sample(&g, r, 100) {
                let levels = props::level_sizes(&g, v);
                let b_r = levels.get(r).copied().unwrap_or(0);
                assert!(
                    b_r >= bound,
                    "Lemma 15 violated at {v}: |B_{r}| = {b_r} < {bound} (Δ={delta})"
                );
            }
        }
    }
}

#[test]
fn lemma16_dcc_or_low_degree_within_logarithmic_radius() {
    // Lemma 16: every (2 log_{Δ-1} n)-neighborhood contains a DCC or a
    // node of degree < Δ. Check it on nice graphs of several shapes.
    for g in [
        generators::random_regular(4096, 3, 2),
        generators::random_regular(4096, 4, 3),
        generators::torus(32, 32),
        generators::hypercube(10),
    ] {
        let delta = g.max_degree();
        let radius = delta_coloring::brooks::theorem5_radius(g.n(), delta);
        for i in 0..20u64 {
            let v = NodeId(((i * 977) % g.n() as u64) as u32);
            let ball = bfs::ball(&g, v, radius);
            let has_low_degree = ball.globals.iter().any(|&u| g.degree(u) < delta);
            // Lemma 16 asserts a DCC anywhere in the neighborhood, not
            // only through `v`.
            let has_dcc = !gallai::ball_is_dcc_free(&ball);
            assert!(
                has_low_degree || has_dcc,
                "Lemma 16 violated around {v} in {g:?} at radius {radius}"
            );
        }
    }
}

#[test]
fn theorem8_gallai_trees_are_exactly_the_non_choosable_graphs() {
    // Spot-check both directions of Theorem 8 on canonical instances.
    // Non-Gallai => every random degree-assignment solvable (spot):
    let theta =
        Graph::from_edges(6, [(0, 1), (1, 5), (0, 2), (2, 5), (0, 3), (3, 4), (4, 5)]).unwrap();
    assert!(!props::is_gallai_forest(&theta));
    for seed in 0..10u64 {
        let lists = pseudo_random_tight_lists(&theta, seed);
        assert!(
            gallai::solve_degree_list(
                &theta,
                &lists,
                &delta_coloring::palette::PartialColoring::new(6)
            )
            .is_ok(),
            "theta rejected seed {seed}"
        );
    }
    // Gallai blocks => canonical identical tight lists fail:
    for g in [generators::complete(4), generators::cycle(5)] {
        let lists = gallai::tight_identical_lists(&g);
        assert!(gallai::solve_degree_list(
            &g,
            &lists,
            &delta_coloring::palette::PartialColoring::new(g.n())
        )
        .is_err());
    }
}

fn pseudo_random_tight_lists(g: &Graph, seed: u64) -> delta_coloring::palette::Lists {
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    delta_coloring::palette::Lists::new(
        g.nodes()
            .map(|v| {
                let universe = g.degree(v) as u64 + 3;
                let mut pool: Vec<u32> = (0..universe as u32).collect();
                for i in (1..pool.len()).rev() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let j = ((state >> 33) % (i as u64 + 1)) as usize;
                    pool.swap(i, j);
                }
                pool.truncate(g.degree(v));
                pool.into_iter()
                    .map(delta_coloring::palette::Color)
                    .collect()
            })
            .collect(),
    )
}
