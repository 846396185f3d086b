//! Explore the structural engine of the paper: graphs without small
//! degree-choosable components *must expand* (Lemmas 12, 13, 15).
//!
//! This example measures BFS level sizes around nodes whose
//! neighborhoods are DCC-free, before and after the marking process,
//! and checks them against the paper's lower bounds. It also
//! demonstrates Lemma 13 (neighborhoods decompose into cliques).
//!
//! ```text
//! cargo run --example expansion_explorer --release
//! ```

use delta_coloring::gallai;
use delta_coloring::marking::{marking_process, MarkingParams};
use delta_coloring::palette::PartialColoring;
use delta_graphs::{generators, props, NodeId};
use local_model::RoundLedger;

fn main() {
    let n = 1 << 14;
    let delta = 4;
    let g = generators::random_regular(n, delta, 7);
    println!("graph: {g:?}");

    // Lemma 13: no radius-1 DCC around v => G[N(v)] is a clique union.
    let v0 = NodeId(0);
    if gallai::find_dcc_for_node(&g, v0, 1, 2, usize::MAX).is_none() {
        let (nbhd, _) = g.induced(g.neighbors(v0));
        println!(
            "Lemma 13 at node 0: neighborhood has {} edges; clique-union property: {}",
            nbhd.m(),
            gallai::neighborhoods_are_clique_unions(&g)
        );
    }

    // Lemma 15: |B_r(v)| >= (Δ-1)^(r/2) for DCC-free, Δ-regular balls.
    println!("\nLemma 15 (no marking): level sizes around DCC-free nodes");
    for r in [2usize, 4, 6] {
        let bound = ((delta - 1) as f64).powf(r as f64 / 2.0).ceil() as usize;
        let mut min_level = usize::MAX;
        let mut count = 0;
        for i in 0..400u64 {
            let v = NodeId(((i * 2_654_435_761) % n as u64) as u32);
            if !gallai::ball_is_dcc_free(&delta_graphs::bfs::ball(&g, v, r)) {
                continue;
            }
            count += 1;
            let levels = props::level_sizes(&g, v);
            min_level = min_level.min(levels.get(r).copied().unwrap_or(0));
        }
        println!("  r={r}: {count} qualifying nodes, min |B_r| = {min_level}, bound {bound}");
        assert!(count == 0 || min_level >= bound, "Lemma 15 violated");
    }

    // Lemma 12: after the marking process (b=6), expansion persists at
    // rate (Δ-2)^(r/2) in the unmarked graph.
    println!("\nLemma 12 (after marking, b=6): level sizes in H");
    let mut coloring = PartialColoring::new(g.n());
    let mut ledger = RoundLedger::new();
    let outcome = marking_process(
        &g,
        None,
        MarkingParams { p: 0.002, b: 6 },
        3,
        &mut coloring,
        &mut ledger,
        "mark",
    );
    let keep: Vec<NodeId> = g.nodes().filter(|v| !outcome.marked[v.index()]).collect();
    let (h, _) = g.induced(&keep);
    println!(
        "  {} T-nodes, {} marked nodes removed; H has {} nodes",
        outcome.t_nodes.len(),
        outcome.marked.iter().filter(|&&m| m).count(),
        h.n()
    );
    for r in [2usize, 4, 6] {
        let bound = ((delta - 2) as f64).powf(r as f64 / 2.0).ceil() as usize;
        let mut min_level = usize::MAX;
        let mut count = 0;
        for i in 0..400u64 {
            let v = NodeId(((i * 2_654_435_761) % h.n() as u64) as u32);
            // Lemma 12 preconditions: no DCC within r, degrees in
            // [Δ-1, Δ] throughout the ball.
            let ball = delta_graphs::bfs::ball(&h, v, r);
            if !gallai::ball_is_dcc_free(&ball)
                || ball.globals.iter().any(|&u| h.degree(u) + 1 < delta)
            {
                continue;
            }
            count += 1;
            let levels = props::level_sizes(&h, v);
            min_level = min_level.min(levels.get(r).copied().unwrap_or(0));
        }
        println!("  r={r}: {count} qualifying nodes, min |B_r| = {min_level}, bound {bound}");
        assert!(count == 0 || min_level >= bound, "Lemma 12 violated");
    }
    println!("\nexpansion bounds hold: DCC-free regions cannot hide from the shattering process");
}
