//! Theorem 21 ([PS95, Theorem 5], reproved by the paper's layering
//! technique): Δ-coloring via a network-decomposition-based ruling set.
//!
//! The paper's version computes a `(2^O(√log n), 2^O(√log n))` network
//! decomposition \[PS92\] and derives an `(R, R+1)` ruling set from it;
//! we substitute the MPX decomposition (see README.md, "Substitutions
//! for the paper's constructions") and derive the
//! ruling set by processing cluster color classes sequentially — within
//! a class, clusters are non-adjacent, so their greedy choices are
//! consistent after a distance-`R` exchange. The rest — layering,
//! reverse list coloring of `B_z..B_1` and the Theorem 5 base repairs —
//! is Theorem 4's own tail, `color_from_base` in [`crate::delta::det`].

use crate::brooks::theorem5_radius;
use crate::decomp::mpx_decomposition;
use crate::delta::det::color_from_base;
use crate::list_coloring::ListColorMethod;
use crate::palette::{ColoringError, PartialColoring};
use crate::verify::assert_nice;
use delta_graphs::{bfs, Graph, NodeId};
use local_model::RoundLedger;

/// Statistics of a [`delta_color_netdecomp`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetDecompStats {
    /// Clusters in the decomposition.
    pub clusters: usize,
    /// Colors of the cluster graph.
    pub cluster_colors: usize,
    /// Maximum cluster radius.
    pub max_cluster_radius: u32,
    /// Ruling set (base layer) size.
    pub base_size: usize,
    /// Number of layers (including `B_0`).
    pub layers: usize,
}

/// Runs the Theorem 21 algorithm: decomposition-derived `(R, ·)` ruling
/// set, reverse layered list coloring, Theorem 5 repairs for the base.
///
/// # Errors
///
/// [`ColoringError::Unsolvable`] if the graph is not nice.
pub fn delta_color_netdecomp(
    g: &Graph,
    method: ListColorMethod,
    seed: u64,
    ledger: &mut RoundLedger,
) -> Result<(PartialColoring, NetDecompStats), ColoringError> {
    assert_nice(g)?;
    let n = g.n();
    let separation = 2 * theorem5_radius(n, g.max_degree()) + 1;

    // Step 1: network decomposition.
    let decomp = mpx_decomposition(g, 0.25, seed ^ 0xdeca, ledger, "netdecomp");
    let members = decomp.cluster_members();

    // Step 2: (separation, ·) ruling set by iterating cluster color
    // classes. Within a class, clusters are pairwise non-adjacent, and
    // each cluster center serializes its own members, so the greedy
    // choice is globally consistent after a distance-`separation`
    // exchange per class (charged below).
    let mut base: Vec<NodeId> = Vec::new();
    let mut blocked = vec![false; n];
    let classes = decomp.color_count();
    for class in 0..classes as u32 {
        for (ci, cluster) in members.iter().enumerate() {
            if decomp.cluster_colors[ci] != class {
                continue;
            }
            for &v in cluster {
                if !blocked[v.index()] {
                    base.push(v);
                    // Block everything within separation - 1.
                    let ball = bfs::ball(g, v, separation - 1);
                    for &w in &ball.globals {
                        blocked[w.index()] = true;
                    }
                }
            }
        }
        ledger.charge(
            "netdecomp-ruling",
            (decomp.max_radius() as u64 + separation as u64).max(1),
        );
    }
    debug_assert!(!base.is_empty());

    // Steps 3-5: layering, reverse list coloring and base repairs, as in
    // Theorem 4.
    let (coloring, layers, _) = color_from_base(g, &base, method, seed, ledger)?;
    Ok((
        coloring,
        NetDecompStats {
            clusters: decomp.cluster_count(),
            cluster_colors: classes,
            max_cluster_radius: decomp.max_radius(),
            base_size: base.len(),
            layers,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_delta_coloring;
    use delta_graphs::generators;

    #[test]
    fn netdecomp_on_families() {
        for (i, g) in [
            generators::random_regular(400, 4, 1),
            generators::torus(12, 12),
            generators::random_regular(300, 3, 2),
            generators::hypercube(6),
        ]
        .iter()
        .enumerate()
        {
            let mut ledger = RoundLedger::new();
            let (c, stats) =
                delta_color_netdecomp(g, ListColorMethod::Randomized, i as u64, &mut ledger)
                    .unwrap();
            check_delta_coloring(g, &c).unwrap();
            assert!(stats.base_size >= 1);
            assert!(stats.clusters >= stats.cluster_colors);
        }
    }

    #[test]
    fn netdecomp_base_is_separated() {
        let g = generators::random_regular(500, 4, 9);
        let mut ledger = RoundLedger::new();
        let (_, stats) =
            delta_color_netdecomp(&g, ListColorMethod::Randomized, 3, &mut ledger).unwrap();
        // With separation > diameter the base collapses to few nodes.
        assert!(stats.base_size <= 4, "base size {}", stats.base_size);
    }

    #[test]
    fn netdecomp_rejects_non_nice() {
        let g = generators::cycle(10);
        assert!(
            delta_color_netdecomp(&g, ListColorMethod::Randomized, 0, &mut RoundLedger::new())
                .is_err()
        );
    }
}
