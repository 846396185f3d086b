//! End-to-end validity checks shared by tests, examples, and benches.

use crate::palette::{Color, ColoringError, PartialColoring};
use delta_graphs::props;
use delta_graphs::{Graph, NodeId};

/// The complete set of violations a (partial) coloring exhibits against
/// a `k`-coloring contract — not just the first one.
///
/// Produced by [`violations`]. Where [`crate::palette::check_k_coloring`]
/// stops at the first problem, this report enumerates every uncolored
/// node, every palette overflow, and every monochromatic edge, which is
/// what fault detection needs: after an injected fault burst the repair
/// driver re-colors exactly the affected region, so it must know *all*
/// damage sites, with their edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationReport {
    /// The palette size `k` the coloring was checked against.
    pub palette: usize,
    /// Nodes with no color, in node-id order.
    pub uncolored: Vec<NodeId>,
    /// Nodes whose color index is `>= palette`, in node-id order.
    pub out_of_range: Vec<(NodeId, Color)>,
    /// Monochromatic edges `(u, v, shared color)` in the graph's edge
    /// iteration order (`u < v`).
    pub conflicting_edges: Vec<(NodeId, NodeId, Color)>,
}

impl ViolationReport {
    /// True when the coloring is a proper total `k`-coloring.
    pub fn is_clean(&self) -> bool {
        self.uncolored.is_empty()
            && self.out_of_range.is_empty()
            && self.conflicting_edges.is_empty()
    }

    /// Total number of recorded violations of all three kinds.
    pub fn total(&self) -> usize {
        self.uncolored.len() + self.out_of_range.len() + self.conflicting_edges.len()
    }

    /// Every node involved in some violation (uncolored, out of range,
    /// or an endpoint of a conflicting edge), sorted and deduplicated —
    /// the seed set for region repair.
    pub fn affected_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.uncolored.clone();
        out.extend(self.out_of_range.iter().map(|&(v, _)| v));
        for &(u, v, _) in &self.conflicting_edges {
            out.push(u);
            out.push(v);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The first violation in [`crate::palette::check_k_coloring`]'s
    /// historical order: the lowest-id uncolored or out-of-range node,
    /// else the first conflicting edge in edge order.
    pub fn first_error(&self) -> Option<ColoringError> {
        let node_err = match (self.uncolored.first(), self.out_of_range.first()) {
            (Some(&u), Some(&(v, c))) => Some(if u < v {
                ColoringError::Uncolored { node: u }
            } else {
                ColoringError::ColorOutOfRange {
                    node: v,
                    color: c,
                    allowed: self.palette,
                }
            }),
            (Some(&u), None) => Some(ColoringError::Uncolored { node: u }),
            (None, Some(&(v, c))) => Some(ColoringError::ColorOutOfRange {
                node: v,
                color: c,
                allowed: self.palette,
            }),
            (None, None) => None,
        };
        node_err.or_else(|| {
            self.conflicting_edges
                .first()
                .map(|&(u, v, color)| ColoringError::MonochromaticEdge { u, v, color })
        })
    }
}

/// Enumerates **every** violation of a total proper `k`-coloring:
/// uncolored nodes, palette overflows, and monochromatic edges.
///
/// This is the detection half of the fault-recovery loop: run it after
/// a fault burst, feed [`ViolationReport::affected_nodes`] to the
/// repair driver, and run it again afterwards to certify recovery.
pub fn violations(g: &Graph, coloring: &PartialColoring, k: usize) -> ViolationReport {
    let mut report = ViolationReport {
        palette: k,
        uncolored: Vec::new(),
        out_of_range: Vec::new(),
        conflicting_edges: Vec::new(),
    };
    for v in g.nodes() {
        match coloring.get(v) {
            None => report.uncolored.push(v),
            Some(c) if c.index() >= k => report.out_of_range.push((v, c)),
            _ => {}
        }
    }
    for (u, v) in g.edges() {
        if let (Some(a), Some(b)) = (coloring.get(u), coloring.get(v)) {
            if a == b {
                report.conflicting_edges.push((u, v, a));
            }
        }
    }
    report
}

/// Validates a total proper Δ-coloring, with Δ taken from the graph.
///
/// Thin wrapper over [`violations`]: builds the full report and
/// surfaces its [`ViolationReport::first_error`].
///
/// # Errors
///
/// The first violation (uncolored node, palette overflow, or
/// monochromatic edge).
pub fn check_delta_coloring(g: &Graph, coloring: &PartialColoring) -> Result<(), ColoringError> {
    match violations(g, coloring, g.max_degree()).first_error() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Why a graph is not *nice* (and hence outside the paper's scope).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotNice {
    /// The graph is empty or disconnected.
    Disconnected,
    /// The graph is a path.
    Path,
    /// The graph is a cycle.
    Cycle,
    /// The graph is a complete graph.
    Clique,
    /// The maximum degree is below 3.
    DegreeTooSmall,
}

impl std::fmt::Display for NotNice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NotNice::Disconnected => "graph is empty or disconnected",
            NotNice::Path => "graph is a path",
            NotNice::Cycle => "graph is a cycle",
            NotNice::Clique => "graph is a complete graph",
            NotNice::DegreeTooSmall => "maximum degree is below 3",
        };
        f.write_str(s)
    }
}

impl From<NotNice> for ColoringError {
    fn from(e: NotNice) -> Self {
        ColoringError::Unsolvable {
            context: e.to_string(),
        }
    }
}

/// Checks the paper's standing assumption: connected, not a path, not a
/// cycle, not a clique, `Δ >= 3`.
///
/// # Errors
///
/// Returns which niceness condition fails.
pub fn assert_nice(g: &Graph) -> Result<(), NotNice> {
    if g.n() == 0 || !delta_graphs::components::is_connected(g) {
        return Err(NotNice::Disconnected);
    }
    if props::is_path(g) {
        return Err(NotNice::Path);
    }
    if props::is_cycle(g) {
        return Err(NotNice::Cycle);
    }
    if props::is_clique(g) {
        return Err(NotNice::Clique);
    }
    if g.max_degree() < 3 {
        return Err(NotNice::DegreeTooSmall);
    }
    Ok(())
}

/// Number of distinct colors used by a (partial) coloring.
pub fn colors_used(coloring: &PartialColoring) -> usize {
    let mut seen: Vec<u32> = (0..coloring.len())
        .filter_map(|i| coloring.get(NodeId::from_index(i)).map(|c| c.0))
        .collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::Color;
    use delta_graphs::generators;

    #[test]
    fn nice_classification() {
        assert_eq!(assert_nice(&generators::path(5)), Err(NotNice::Path));
        assert_eq!(assert_nice(&generators::cycle(6)), Err(NotNice::Cycle));
        assert_eq!(assert_nice(&generators::complete(5)), Err(NotNice::Clique));
        assert_eq!(
            assert_nice(&generators::cycle(3).disjoint_union(&generators::cycle(3))),
            Err(NotNice::Disconnected)
        );
        assert!(assert_nice(&generators::torus(4, 5)).is_ok());
        assert!(assert_nice(&generators::random_regular(50, 3, 1)).is_ok());
    }

    #[test]
    fn delta_coloring_check() {
        let g = generators::star(3);
        let mut c = PartialColoring::new(4);
        c.set(NodeId(0), Color(0));
        for i in 1..4 {
            c.set(NodeId(i), Color(1));
        }
        assert!(check_delta_coloring(&g, &c).is_ok());
        assert_eq!(colors_used(&c), 2);
        c.set(NodeId(1), Color(3)); // Δ = 3, palette {0,1,2}
        assert!(check_delta_coloring(&g, &c).is_err());
    }

    #[test]
    fn violations_enumerates_everything() {
        // Path 0-1-2-3 with palette 2: node 0 uncolored, node 3 out of
        // range, edge (1,2) monochromatic.
        let g = generators::path(4);
        let mut c = PartialColoring::new(4);
        c.set(NodeId(1), Color(0));
        c.set(NodeId(2), Color(0));
        c.set(NodeId(3), Color(5));
        let report = violations(&g, &c, 2);
        assert!(!report.is_clean());
        assert_eq!(report.total(), 3);
        assert_eq!(report.uncolored, vec![NodeId(0)]);
        assert_eq!(report.out_of_range, vec![(NodeId(3), Color(5))]);
        assert_eq!(
            report.conflicting_edges,
            vec![(NodeId(1), NodeId(2), Color(0))]
        );
        assert_eq!(
            report.affected_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        // first_error matches check_k_coloring's historical order: the
        // lowest-id node problem wins over any edge conflict.
        assert_eq!(
            report.first_error(),
            Some(ColoringError::Uncolored { node: NodeId(0) })
        );
    }

    #[test]
    fn first_error_agrees_with_check_k_coloring() {
        use crate::palette::check_k_coloring;
        let g = generators::random_regular(40, 3, 7);
        for seed in 0..12u64 {
            // Deterministically damage a few nodes in three ways.
            let mut c = PartialColoring::new(g.n());
            for v in g.nodes() {
                c.set(v, Color((v.0 * 7 + seed as u32) % 3));
            }
            for j in 0..3u64 {
                let v = NodeId(((seed * 13 + j * 17) % g.n() as u64) as u32);
                match (seed + j) % 3 {
                    0 => c.unset(v),
                    1 => c.set(v, Color(9)),
                    _ => {
                        if let Some(&u) = g.neighbors(v).first() {
                            if let Some(cu) = c.get(u) {
                                c.set(v, cu);
                            }
                        }
                    }
                }
            }
            let report = violations(&g, &c, 3);
            assert_eq!(
                report.first_error(),
                check_k_coloring(&g, &c, 3).err(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn clean_report_is_clean() {
        let g = generators::torus(4, 5);
        let mut c = PartialColoring::new(g.n());
        // Torus(4,5) is 4-regular and bipartite-ish under (x+y) parity?
        // Just 2-color by coordinate parity of the generator's layout is
        // fragile; use a greedy proper coloring instead.
        for v in g.nodes() {
            let used = c.neighbor_colors(&g, v);
            let free = (0..).map(Color).find(|x| !used.contains(x)).unwrap();
            c.set(v, free);
        }
        let report = violations(&g, &c, g.max_degree() + 1);
        assert!(report.is_clean());
        assert_eq!(report.first_error(), None);
        assert!(report.affected_nodes().is_empty());
    }
}
