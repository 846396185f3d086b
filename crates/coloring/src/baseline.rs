//! Baseline algorithms the paper compares against (conceptually):
//!
//! * [`randomized_delta_plus_one`] — the "easy" `(Δ+1)`-coloring via
//!   randomized trial coloring, `O(log n)` rounds. Shows the gap the
//!   paper cares about: one fewer color changes the problem completely.
//! * [`ps_style_delta`] — a Panconesi–Srinivasan-style Δ-coloring: first
//!   compute a `(Δ+1)`-coloring, then eliminate the extra color class by
//!   independent Theorem-5 token-walk repairs, batched so that
//!   simultaneously repaired nodes have disjoint recoloring balls. Round
//!   complexity `O(log² n / log Δ)`-ish — polylogarithmic, the regime of
//!   the `O(log³ n / log Δ)` bound of \[PS92, PS95\] that Theorems 1 and
//!   3 improve on (see README.md, "Substitutions for the paper's
//!   constructions").

use crate::brooks::{repair_single_uncolored, theorem5_radius};
use crate::list_coloring::list_color_randomized;
use crate::palette::{ColoringError, Lists, PartialColoring};
use delta_graphs::{bfs, Graph, NodeId};
use local_model::RoundLedger;

/// Computes a `(Δ+1)`-coloring with randomized trial coloring.
///
/// # Errors
///
/// Propagates solver errors (impossible for well-formed graphs: uniform
/// `(Δ+1)` lists always satisfy the `(deg+1)` condition).
pub fn randomized_delta_plus_one(
    g: &Graph,
    seed: u64,
    ledger: &mut RoundLedger,
) -> Result<PartialColoring, ColoringError> {
    let lists = Lists::uniform(g.n(), g.max_degree() + 1);
    list_color_randomized(
        g,
        None,
        &lists,
        PartialColoring::new(g.n()),
        seed,
        ledger,
        "delta+1",
    )
}

/// Statistics of a [`ps_style_delta`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsStats {
    /// Nodes initially carrying the extra (Δ+1-th) color.
    pub extra_class_size: usize,
    /// Number of sequential repair batches.
    pub batches: usize,
    /// Maximum repair radius observed.
    pub max_repair_radius: usize,
}

/// Δ-colors a nice graph by `(Δ+1)`-coloring and then repairing away the
/// extra color class (see module docs).
///
/// # Errors
///
/// Propagates repair failures (non-nice inputs).
pub fn ps_style_delta(
    g: &Graph,
    seed: u64,
    ledger: &mut RoundLedger,
) -> Result<(PartialColoring, PsStats), ColoringError> {
    let delta = g.max_degree();
    let mut coloring = randomized_delta_plus_one(g, seed, ledger)?;
    // The extra class: nodes with color index Δ (palette {0..Δ}).
    let extra: Vec<NodeId> = g
        .nodes()
        .filter(|&v| coloring.get(v).map(|c| c.index()) == Some(delta))
        .collect();
    let extra_class_size = extra.len();
    // Shrink the extra class greedily first: class-Δ nodes form an
    // independent set, so all of them with a free color `< Δ` can
    // re-pick simultaneously (1 round per pass). Only the locally tight
    // nodes — whose neighbors show all Δ colors — need repairs.
    let mut extra = extra;
    for _ in 0..4 {
        let mut progressed = false;
        let picks: Vec<(NodeId, crate::palette::Color)> = extra
            .iter()
            .filter_map(|&v| coloring.free_colors(g, v, delta).first().map(|&c| (v, c)))
            .collect();
        for &(v, c) in &picks {
            coloring.set(v, c);
            progressed = true;
        }
        extra.retain(|&v| coloring.get(v).map(|c| c.index()) == Some(delta));
        ledger.charge("ps-shrink", 1);
        if !progressed {
            break;
        }
    }
    // Uncolor the rest; repairs then only ever see colors < Δ.
    for &v in &extra {
        coloring.unset(v);
    }
    let mut remaining: Vec<NodeId> = extra;
    let mut batches = 0usize;
    let mut max_repair_radius = 0usize;

    // Calibration: a few sequential repairs estimate the typical repair
    // radius, which sets the batch separation. Repairs that later exceed
    // the separation's safety radius are charged sequentially instead of
    // inside the parallel max, keeping the accounting honest.
    let calibration = remaining.len().min(4);
    let mut rho_star = 2usize;
    for _ in 0..calibration {
        let Some(v) = remaining.first().copied() else {
            break;
        };
        let mut sub = RoundLedger::new();
        let out = repair_single_uncolored(g, &mut coloring, v, delta, &mut sub, "repair")?;
        max_repair_radius = max_repair_radius.max(out.radius);
        rho_star = rho_star.max(out.radius);
        ledger.charge("ps-repair", sub.total());
        remaining.retain(|&u| !coloring.is_colored(u));
    }
    let theorem_cap = theorem5_radius(g.n(), delta);
    // Balls of radius `safety` are disjoint when centers are farther
    // than 2·safety apart.
    let safety = rho_star.max(2).min(theorem_cap);
    let sep = 2 * safety + 1;

    while !remaining.is_empty() {
        batches += 1;
        // Greedy batch: pairwise distance > sep, so repairs that stay
        // within radius `safety` have disjoint balls and genuinely run
        // in parallel. The selection is a distance-sep independent set,
        // computable in O(sep) rounds distributively; we charge that.
        let mut batch: Vec<NodeId> = Vec::new();
        let mut blocked = vec![false; g.n()];
        for &v in &remaining {
            if !blocked[v.index()] {
                batch.push(v);
                let ball = bfs::ball(g, v, sep);
                for &w in &ball.globals {
                    blocked[w.index()] = true;
                }
            }
        }
        ledger.charge("ps-batch-select", sep as u64);
        // Parallel repairs: max cost over in-budget repairs; repairs
        // whose radius exceeded the safety budget are charged in full
        // (a real execution would defer them to their own phase).
        let mut batch_ledger_max = 0u64;
        let mut oversized_total = 0u64;
        for &v in &batch {
            let mut sub = RoundLedger::new();
            let out = repair_single_uncolored(g, &mut coloring, v, delta, &mut sub, "repair")?;
            max_repair_radius = max_repair_radius.max(out.radius);
            if out.radius <= safety {
                batch_ledger_max = batch_ledger_max.max(sub.total());
            } else {
                oversized_total += sub.total();
            }
        }
        ledger.charge("ps-repair", batch_ledger_max + oversized_total);
        remaining.retain(|&v| !coloring.is_colored(v));
    }
    debug_assert!(coloring.is_total());
    Ok((
        coloring,
        PsStats {
            extra_class_size,
            batches,
            max_repair_radius,
        },
    ))
}

/// Greedy sequential Δ+1 coloring by id (centralized reference used in
/// tests to cross-check the distributed implementations; costs `n`
/// rounds if executed distributively, so it is never charged).
pub fn greedy_reference(g: &Graph) -> PartialColoring {
    let mut c = PartialColoring::new(g.n());
    for v in g.nodes() {
        let free = c.free_colors(g, v, g.max_degree() + 1);
        c.set(v, free[0]);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::check_k_coloring;
    use crate::verify::check_delta_coloring;
    use delta_graphs::generators;

    #[test]
    fn delta_plus_one_on_families() {
        for (i, g) in [
            generators::random_regular(500, 4, 1),
            generators::torus(10, 10),
            generators::random_tree(300, 2),
            generators::complete(6),
        ]
        .iter()
        .enumerate()
        {
            let mut ledger = RoundLedger::new();
            let c = randomized_delta_plus_one(g, i as u64, &mut ledger).unwrap();
            check_k_coloring(g, &c, g.max_degree() + 1).unwrap();
            assert!(ledger.total() < 80);
        }
    }

    #[test]
    fn ps_style_on_regular_graphs() {
        for seed in 0..3 {
            let g = generators::random_regular(600, 4, seed + 20);
            let mut ledger = RoundLedger::new();
            let (c, stats) = ps_style_delta(&g, seed, &mut ledger).unwrap();
            check_delta_coloring(&g, &c).unwrap();
            assert!(
                stats.extra_class_size > 0,
                "trial coloring used the full palette"
            );
            assert!(stats.batches >= 1);
        }
    }

    #[test]
    fn ps_style_on_torus_and_tree_like() {
        let g = generators::torus(9, 9);
        let mut ledger = RoundLedger::new();
        let (c, _) = ps_style_delta(&g, 5, &mut ledger).unwrap();
        check_delta_coloring(&g, &c).unwrap();

        let g2 = generators::tree_with_chords(300, 30, 3);
        if crate::verify::assert_nice(&g2).is_ok() {
            let mut ledger2 = RoundLedger::new();
            let (c2, _) = ps_style_delta(&g2, 6, &mut ledger2).unwrap();
            check_delta_coloring(&g2, &c2).unwrap();
        }
    }

    #[test]
    fn greedy_reference_is_proper() {
        let g = generators::random_regular(200, 6, 9);
        let c = greedy_reference(&g);
        check_k_coloring(&g, &c, 7).unwrap();
    }
}
