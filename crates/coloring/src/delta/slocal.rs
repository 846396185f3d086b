//! Remark 17: Theorem 5 implies an `SLOCAL(O(log_Δ n))` algorithm for
//! Δ-coloring.
//!
//! In the SLOCAL model (Ghaffari–Kuhn–Maus \[GKM17\]) nodes are
//! processed *sequentially* in adversarial order; each node reads a ball
//! around itself (its *locality*) and commits its output (and may write
//! state into the ball). Theorem 5 gives Δ-coloring locality
//! `O(log_Δ n)`: process nodes in order, greedily color when a free
//! color exists, otherwise run the distributed Brooks repair — which
//! touches only the `2·log_{Δ-1} n` ball.
//!
//! This module implements that algorithm and reports the maximum
//! locality actually used, which experiments compare to the bound.

use crate::brooks::{repair_single_uncolored, theorem5_radius};
use crate::palette::{ColoringError, PartialColoring};
use crate::verify::assert_nice;
use delta_graphs::Graph;
use local_model::RoundLedger;

/// Statistics of an SLOCAL run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlocalStats {
    /// Maximum locality (ball radius read/written) over all nodes.
    pub max_locality: usize,
    /// Number of nodes that needed a Theorem 5 repair (no free color).
    pub repairs: usize,
    /// Number of repairs that recolored a degree-choosable component.
    pub dcc_repairs: usize,
}

/// Δ-colors `g` in the SLOCAL model, processing nodes in id order
/// (id order is the adversarial-order worst case for greedy, making the
/// measured locality an honest upper bound for this instance).
///
/// # Errors
///
/// [`ColoringError::Unsolvable`] if the graph is not nice.
pub fn delta_color_slocal(g: &Graph) -> Result<(PartialColoring, SlocalStats), ColoringError> {
    assert_nice(g).map_err(|e| ColoringError::Unsolvable {
        context: e.to_string(),
    })?;
    let delta = g.max_degree();
    let mut coloring = PartialColoring::new(g.n());
    let mut stats = SlocalStats {
        max_locality: 1,
        repairs: 0,
        dcc_repairs: 0,
    };
    let mut scratch = RoundLedger::new();
    for v in g.nodes() {
        if let Some(&c) = coloring.free_colors(g, v, delta).first() {
            coloring.set(v, c);
            continue;
        }
        let out = repair_single_uncolored(g, &mut coloring, v, delta, &mut scratch, "slocal")?;
        stats.repairs += 1;
        stats.dcc_repairs += out.used_dcc as usize;
        stats.max_locality = stats.max_locality.max(out.radius);
    }
    crate::verify::check_delta_coloring(g, &coloring)?;
    Ok((coloring, stats))
}

/// The Remark 17 locality bound, `O(log_Δ n)` (we use the Theorem 5
/// radius, which dominates it).
pub fn slocal_locality_bound(n: usize, delta: usize) -> usize {
    theorem5_radius(n, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_delta_coloring;
    use delta_graphs::generators;

    #[test]
    fn slocal_on_families() {
        for (i, g) in [
            generators::random_regular(500, 4, 3),
            generators::random_regular(500, 3, 4),
            generators::torus(12, 12),
            generators::hypercube(6),
            generators::petersen_like(),
        ]
        .iter()
        .enumerate()
        {
            let (c, stats) = delta_color_slocal(g).unwrap_or_else(|e| panic!("family {i}: {e}"));
            check_delta_coloring(g, &c).unwrap();
            assert!(
                stats.max_locality <= slocal_locality_bound(g.n(), g.max_degree()),
                "family {i}: locality {} exceeds bound",
                stats.max_locality
            );
        }
    }

    #[test]
    fn slocal_needs_repairs_on_tight_instances() {
        // On Δ-regular graphs, greedy in id order does hit dead ends.
        let g = generators::random_regular(2000, 3, 8);
        let (_, stats) = delta_color_slocal(&g).unwrap();
        assert!(stats.repairs > 0, "expected at least one Theorem 5 repair");
    }

    #[test]
    fn slocal_rejects_non_nice() {
        assert!(delta_color_slocal(&generators::complete(4)).is_err());
        assert!(delta_color_slocal(&generators::cycle(7)).is_err());
    }
}
