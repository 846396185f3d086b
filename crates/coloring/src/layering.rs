//! The paper's layering technique (Section 3).
//!
//! Choose a base layer `B_0`, define `B_i` as the nodes at distance `i`
//! from `B_0`, remove all layers, and re-add them in reverse order:
//! coloring layer `B_i` (for `i >= 1`) is a `(deg+1)`-list-coloring
//! instance on `G[B_i]`, because every node of `B_i` has an uncolored
//! neighbor in `B_{i-1}` — so its list (the Δ-palette minus the colors
//! of already-colored neighbors) has size at least `deg_{G[B_i]} + 1`.
//! The base layer is colored last by problem-specific means.

use crate::list_coloring::{list_color, ListColorMethod};
use crate::palette::{Color, ColoringError, Lists, PartialColoring};
use delta_graphs::bfs;
use delta_graphs::{Graph, NodeId};
use local_model::RoundLedger;
use std::collections::VecDeque;

/// A layering of (a subset of) the nodes by distance to a base set.
#[derive(Debug, Clone)]
pub struct Layering {
    /// `layer_of[v]` is `Some(i)` iff `v` is in layer `B_i`.
    pub layer_of: Vec<Option<u32>>,
    /// `layers[i]` lists the nodes of `B_i` (sorted by id).
    pub layers: Vec<Vec<NodeId>>,
}

impl Layering {
    /// Nodes covered by any layer.
    pub fn covered(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// Whether every node of the graph is in some layer.
    pub fn is_cover(&self) -> bool {
        self.layer_of.iter().all(Option::is_some)
    }

    /// Number of layers (including the base layer `B_0`).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

/// Builds distance layers from `base` by multi-source BFS, optionally
/// restricted to nodes where `within` is true (distances measured inside
/// the restriction) and truncated at `max_dist`.
///
/// # Example
///
/// ```
/// use delta_coloring::layering::layers_from_base;
/// use delta_graphs::{generators, NodeId};
///
/// let g = generators::path(5);
/// let lay = layers_from_base(&g, &[NodeId(0)], None, None);
/// assert_eq!(lay.depth(), 5); // one layer per distance
/// assert!(lay.is_cover());
/// ```
///
/// Layer `B_0` is exactly `base` (restricted to `within`); nodes beyond
/// `max_dist` or outside `within` are unlayered.
pub fn layers_from_base(
    g: &Graph,
    base: &[NodeId],
    max_dist: Option<usize>,
    within: Option<&[bool]>,
) -> Layering {
    let cap = max_dist.unwrap_or(usize::MAX);
    let inside = |v: NodeId| within.map(|m| m[v.index()]).unwrap_or(true);
    let mut layer_of: Vec<Option<u32>> = vec![None; g.n()];
    let mut q = VecDeque::new();
    let mut base_sorted: Vec<NodeId> = base.iter().copied().filter(|&v| inside(v)).collect();
    base_sorted.sort_unstable();
    base_sorted.dedup();
    for &s in &base_sorted {
        layer_of[s.index()] = Some(0);
        q.push_back(s);
    }
    while let Some(u) = q.pop_front() {
        let du = layer_of[u.index()].expect("queued nodes are layered");
        if (du as usize) >= cap {
            continue;
        }
        for &w in g.neighbors(u) {
            if inside(w) && layer_of[w.index()].is_none() {
                layer_of[w.index()] = Some(du + 1);
                q.push_back(w);
            }
        }
    }
    let depth = layer_of
        .iter()
        .flatten()
        .max()
        .map(|&d| d as usize + 1)
        .unwrap_or(0);
    let mut layers = vec![Vec::new(); depth];
    for v in g.nodes() {
        if let Some(i) = layer_of[v.index()] {
            layers[i as usize].push(v);
        }
    }
    Layering { layer_of, layers }
}

/// Colors layers `B_s, ..., B_1` (all layers except the base) in
/// reverse order, each as a `(deg+1)`-list-coloring instance with lists
/// `{0..delta-1}` minus already-colored neighbor colors. `B_0` is left
/// uncolored for the caller.
///
/// # Errors
///
/// Propagates solver errors; these indicate the layering precondition
/// was violated (a layer node without an uncolored lower-layer
/// neighbor).
#[allow(clippy::too_many_arguments)]
pub fn color_upper_layers(
    g: &Graph,
    layering: &Layering,
    coloring: &mut PartialColoring,
    delta: usize,
    method: ListColorMethod,
    seed: u64,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Result<(), ColoringError> {
    for i in (1..layering.depth()).rev() {
        color_one_layer(
            g,
            &layering.layers[i],
            coloring,
            delta,
            method,
            seed ^ i as u64,
            ledger,
            phase,
        )?;
    }
    Ok(())
}

/// Colors a single node set as a list-coloring instance (lists = Δ
/// palette minus colored neighbors in the *full* graph), writing the
/// result into `coloring`. Already-colored members are skipped.
///
/// The todo subgraph is **not materialized**: the randomized solver
/// runs on `G[todo]` through the `InducedOverlay` on the host engine
/// (non-todo nodes silent, every trial round a measured host round).
/// The deterministic solver still materializes the induced instance —
/// its Linial schedule is a charged central simulation either way.
#[allow(clippy::too_many_arguments)]
pub fn color_one_layer(
    g: &Graph,
    members: &[NodeId],
    coloring: &mut PartialColoring,
    delta: usize,
    method: ListColorMethod,
    seed: u64,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Result<(), ColoringError> {
    let mut todo: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|&v| !coloring.is_colored(v))
        .collect();
    todo.sort_unstable();
    todo.dedup();
    if todo.is_empty() {
        return Ok(());
    }
    // Rank-space lists: the Δ palette minus colored host neighbors, in
    // todo (= rank) order.
    let lists = Lists::new(
        todo.iter()
            .map(|&v| {
                let used: Vec<Color> = coloring.neighbor_colors(g, v);
                crate::palette::palette(delta)
                    .into_iter()
                    .filter(|c| used.binary_search(c).is_err())
                    .collect()
            })
            .collect(),
    );
    let solved = match method {
        ListColorMethod::Randomized => {
            let mut mask = vec![false; g.n()];
            for &v in &todo {
                mask[v.index()] = true;
            }
            crate::list_coloring::list_color_randomized(
                g,
                Some(&mask),
                &lists,
                PartialColoring::new(todo.len()),
                seed,
                ledger,
                phase,
            )?
        }
        ListColorMethod::Deterministic => {
            let (sub, _map) = g.induced(&todo);
            list_color(
                &sub,
                &lists,
                PartialColoring::new(sub.n()),
                method,
                seed,
                ledger,
                phase,
            )?
        }
    };
    for (i, &v) in todo.iter().enumerate() {
        coloring.set(v, solved.get(NodeId::from_index(i)).expect("total"));
    }
    Ok(())
}

/// Distances from a base set within a mask (`UNREACHABLE` outside), a
/// convenience re-export of the BFS used by several phases.
pub fn masked_distances(g: &Graph, base: &[NodeId], within: &[bool]) -> Vec<u32> {
    let lay = layers_from_base(g, base, None, Some(within));
    lay.layer_of
        .iter()
        .map(|o| o.map(|d| d).unwrap_or(bfs::UNREACHABLE))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_graphs::generators;

    #[test]
    fn layers_partition_by_distance() {
        let g = generators::path(7);
        let lay = layers_from_base(&g, &[NodeId(0)], None, None);
        assert_eq!(lay.depth(), 7);
        assert!(lay.is_cover());
        for (i, layer) in lay.layers.iter().enumerate() {
            assert_eq!(layer, &vec![NodeId(i as u32)]);
        }
    }

    #[test]
    fn layers_respect_max_dist() {
        let g = generators::path(7);
        let lay = layers_from_base(&g, &[NodeId(0)], Some(3), None);
        assert_eq!(lay.depth(), 4);
        assert_eq!(lay.covered(), 4);
        assert!(!lay.is_cover());
        assert_eq!(lay.layer_of[6], None);
    }

    #[test]
    fn layers_respect_mask() {
        let g = generators::cycle(8);
        let mut within = vec![true; 8];
        within[4] = false;
        let lay = layers_from_base(&g, &[NodeId(0)], None, Some(within.as_slice()));
        // Distances must route around the masked node.
        assert_eq!(lay.layer_of[4], None);
        assert_eq!(lay.layer_of[5], Some(3)); // 0-7-6-5
        assert_eq!(lay.layer_of[3], Some(3)); // 0-1-2-3
    }

    #[test]
    fn multi_source_base() {
        let g = generators::path(9);
        let lay = layers_from_base(&g, &[NodeId(0), NodeId(8)], None, None);
        assert_eq!(lay.layers[0].len(), 2);
        assert_eq!(lay.depth(), 5);
        assert!(lay.is_cover());
    }

    #[test]
    fn reverse_layer_coloring_leaves_base() {
        let g = generators::torus(6, 6);
        let delta = 4;
        let base = vec![NodeId(0), NodeId(20)];
        let lay = layers_from_base(&g, &base, None, None);
        let mut coloring = PartialColoring::new(g.n());
        let mut ledger = RoundLedger::new();
        color_upper_layers(
            &g,
            &lay,
            &mut coloring,
            delta,
            ListColorMethod::Randomized,
            7,
            &mut ledger,
            "layers",
        )
        .unwrap();
        // Base nodes stay uncolored; everything else is colored.
        for v in g.nodes() {
            if base.contains(&v) {
                assert!(!coloring.is_colored(v));
            } else {
                assert!(coloring.is_colored(v), "{v} uncolored");
            }
        }
        coloring.validate_proper(&g).unwrap();
        // Base nodes need not have free colors (that is what Theorem 5
        // repairs); completing them is covered by the delta module tests.
    }

    #[test]
    fn deterministic_method_works_too() {
        let g = generators::torus(5, 5);
        let lay = layers_from_base(&g, &[NodeId(12)], None, None);
        let mut coloring = PartialColoring::new(g.n());
        let mut ledger = RoundLedger::new();
        color_upper_layers(
            &g,
            &lay,
            &mut coloring,
            4,
            ListColorMethod::Deterministic,
            0,
            &mut ledger,
            "layers",
        )
        .unwrap();
        coloring.validate_proper(&g).unwrap();
        assert_eq!(coloring.uncolored().collect::<Vec<_>>(), vec![NodeId(12)]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use delta_graphs::generators;

    #[test]
    fn empty_base_yields_empty_layering() {
        let g = generators::cycle(6);
        let lay = layers_from_base(&g, &[], None, None);
        assert_eq!(lay.depth(), 0);
        assert_eq!(lay.covered(), 0);
        assert!(!lay.is_cover());
    }

    #[test]
    fn color_one_layer_skips_colored_members() {
        let g = generators::cycle(6);
        let mut coloring = PartialColoring::new(6);
        coloring.set(NodeId(0), Color(0));
        let mut ledger = RoundLedger::new();
        color_one_layer(
            &g,
            &[NodeId(0), NodeId(2), NodeId(4)],
            &mut coloring,
            2,
            ListColorMethod::Randomized,
            1,
            &mut ledger,
            "x",
        )
        .unwrap();
        assert_eq!(coloring.get(NodeId(0)), Some(Color(0)));
        assert!(coloring.is_colored(NodeId(2)));
        assert!(coloring.is_colored(NodeId(4)));
        assert!(!coloring.is_colored(NodeId(1)));
        coloring.validate_proper(&g).unwrap();
    }

    #[test]
    fn masked_distances_match_layering() {
        let g = generators::torus(5, 5);
        let within = vec![true; g.n()];
        let d = masked_distances(&g, &[NodeId(0)], &within);
        let bfs_d = delta_graphs::bfs::distances(&g, NodeId(0));
        assert_eq!(d, bfs_d);
    }
}
