//! Deterministic Δ-coloring (Theorem 4).
//!
//! The algorithm of Section 3:
//!
//! 1. Linial's `O(Δ²)` coloring for symmetry breaking.
//! 2. Build the base layer `B_0`: an `(R, z)` ruling set with
//!    `R = 4·log_{Δ-1} n + 1`, so that the Theorem 5 repairs of distinct
//!    `B_0` nodes (radius `< R/2` each) cannot interact.
//! 3. Define layers `B_i` (distance `i` to `B_0`) and remove them.
//! 4. Re-add and color layers `B_z..B_1` in reverse order; each is a
//!    `(deg+1)`-list-coloring instance.
//! 5. Color `B_0` by independent distributed-Brooks repairs (Theorem 5).
//!
//! Steps 3–5 are one function, `color_from_base`, which Theorem 21
//! ([`crate::delta::netdecomp`]) runs on its own base layer.
//!
//! Round complexity `O(√Δ·log^{-3/2}Δ·log² n)` in the paper; our list
//! coloring substitution changes the Δ-dependence but preserves the
//! `log² n` scaling that experiment T3 measures (README.md,
//! "Substitutions for the paper's constructions"; T3 is listed with
//! the other experiments in the bench crate's `experiments` module).

use crate::brooks::{repair_single_uncolored, theorem5_radius};
use crate::layering::{color_upper_layers, layers_from_base};
use crate::list_coloring::ListColorMethod;
use crate::palette::{ColoringError, PartialColoring};
use crate::ruling::{ruling_forest, ruling_set_deterministic_alpha};
use crate::verify::assert_nice;
use delta_graphs::{Graph, NodeId};
use local_model::RoundLedger;

/// Configuration for the deterministic algorithm.
#[derive(Debug, Clone, Copy)]
pub struct DetConfig {
    /// List-coloring engine for the layer instances. The paper's
    /// Theorem 4 is fully deterministic; [`ListColorMethod::Randomized`]
    /// is offered for ablations.
    pub method: ListColorMethod,
    /// Seed for the randomized method (ignored when deterministic).
    pub seed: u64,
}

impl Default for DetConfig {
    fn default() -> Self {
        DetConfig {
            method: ListColorMethod::Deterministic,
            seed: 0,
        }
    }
}

/// Statistics of a [`delta_color_det`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetStats {
    /// The ruling-set separation `R` used.
    pub separation: usize,
    /// Number of base-layer (ruling set) nodes.
    pub base_size: usize,
    /// Number of layers (including `B_0`).
    pub layers: usize,
    /// Maximum Theorem 5 repair radius observed.
    pub max_repair_radius: usize,
}

/// Runs the deterministic Δ-coloring algorithm (Theorem 4).
///
/// # Errors
///
/// [`ColoringError::Unsolvable`] if the graph is not nice (paths,
/// cycles, cliques, disconnected graphs, or `Δ < 3`).
pub fn delta_color_det(
    g: &Graph,
    config: DetConfig,
    ledger: &mut RoundLedger,
) -> Result<(PartialColoring, DetStats), ColoringError> {
    assert_nice(g)?;
    // Separation R = 4·log_{Δ-1} n + 1: twice the Theorem 5 radius plus
    // slack, so B_0 repairs are independent.
    let separation = 2 * theorem5_radius(g.n(), g.max_degree()) + 1;

    // Step 1+2: base layer = (R, ·) ruling set (deterministic,
    // bit-halving on the power graph).
    let base = ruling_set_deterministic_alpha(g, separation, ledger, "ruling-set");
    let forest = ruling_forest(g, &base, ledger, "ruling-forest");
    debug_assert!(
        forest.root.iter().all(Option::is_some),
        "ruling forest covers the graph"
    );

    let (coloring, layers, max_repair_radius) =
        color_from_base(g, &base, config.method, config.seed, ledger)?;
    Ok((
        coloring,
        DetStats {
            separation,
            base_size: base.len(),
            layers,
            max_repair_radius,
        },
    ))
}

/// Steps 3–5, shared with Theorem 21 ([`crate::delta::netdecomp`]):
/// layers `B_i` by distance to the base layer `base` (its pairwise
/// distance at least `2·theorem5_radius + 1`), colors `B_z..B_1` in
/// reverse (`layer-coloring`), completes `B_0` by Theorem 5 repairs and
/// checks the result. The repairs run on disjoint balls, in parallel,
/// so each runs on a throw-away sub-ledger and `base-repair` is charged
/// the largest. Returns the coloring, the layering depth and the largest
/// repair radius.
pub(crate) fn color_from_base(
    g: &Graph,
    base: &[NodeId],
    method: ListColorMethod,
    seed: u64,
    ledger: &mut RoundLedger,
) -> Result<(PartialColoring, usize, usize), ColoringError> {
    let delta = g.max_degree();
    // Step 3: layers by distance to B_0 (until exhaustion; the ruling
    // property bounds the depth).
    let layering = layers_from_base(g, base, None, None);
    debug_assert!(layering.is_cover());

    // Step 4: color layers B_z..B_1 in reverse order.
    let mut coloring = PartialColoring::new(g.n());
    color_upper_layers(
        g,
        &layering,
        &mut coloring,
        delta,
        method,
        seed,
        ledger,
        "layer-coloring",
    )?;

    // Step 5: color B_0 via independent Theorem 5 repairs.
    let mut max_repair = 0u64;
    let mut max_repair_radius = 0usize;
    for &v in base {
        let mut sub = RoundLedger::new();
        let out = repair_single_uncolored(g, &mut coloring, v, delta, &mut sub, "repair")?;
        max_repair_radius = max_repair_radius.max(out.radius);
        max_repair = max_repair.max(sub.total());
    }
    ledger.charge("base-repair", max_repair);

    crate::verify::check_delta_coloring(g, &coloring)?;
    Ok((coloring, layering.depth(), max_repair_radius))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_delta_coloring;
    use delta_graphs::generators;

    #[test]
    fn det_on_regular_families() {
        for (g, name) in [
            (generators::random_regular(400, 4, 1), "rr4"),
            (generators::random_regular(400, 3, 2), "rr3"),
            (generators::random_regular(300, 8, 3), "rr8"),
            (generators::torus(10, 10), "torus"),
            (generators::hypercube(6), "hypercube"),
        ] {
            let mut ledger = RoundLedger::new();
            let (c, stats) = delta_color_det(&g, DetConfig::default(), &mut ledger).unwrap();
            check_delta_coloring(&g, &c).unwrap();
            assert!(stats.base_size >= 1, "{name}");
            assert!(
                stats.max_repair_radius <= stats.separation / 2 + 1,
                "{name}"
            );
        }
    }

    #[test]
    fn det_on_irregular_graphs() {
        for seed in 0..3 {
            let g = generators::perturbed_regular(300, 4, 0.05, seed);
            if crate::verify::assert_nice(&g).is_err() {
                continue;
            }
            let mut ledger = RoundLedger::new();
            let (c, _) = delta_color_det(&g, DetConfig::default(), &mut ledger).unwrap();
            check_delta_coloring(&g, &c).unwrap();
        }
    }

    #[test]
    fn det_rejects_non_nice() {
        assert!(delta_color_det(
            &generators::cycle(8),
            DetConfig::default(),
            &mut RoundLedger::new()
        )
        .is_err());
        assert!(delta_color_det(
            &generators::complete(5),
            DetConfig::default(),
            &mut RoundLedger::new()
        )
        .is_err());
    }

    #[test]
    fn det_with_randomized_layers() {
        let g = generators::random_regular(400, 4, 7);
        let cfg = DetConfig {
            method: ListColorMethod::Randomized,
            seed: 11,
        };
        let mut ledger = RoundLedger::new();
        let (c, _) = delta_color_det(&g, cfg, &mut ledger).unwrap();
        check_delta_coloring(&g, &c).unwrap();
    }

    #[test]
    fn det_round_scaling_with_n() {
        // log² n scaling: rounds(4n) should be far below 4×rounds(n).
        let mut rounds = Vec::new();
        for &n in &[256usize, 1024, 4096] {
            let g = generators::random_regular(n, 4, 5);
            let mut ledger = RoundLedger::new();
            delta_color_det(&g, DetConfig::default(), &mut ledger).unwrap();
            rounds.push(ledger.total());
        }
        assert!(
            rounds[2] < rounds[0] * 16,
            "rounds {rounds:?} not polylog-ish"
        );
    }
}
