//! Colors, partial colorings, and color lists.

use delta_graphs::{Graph, NodeId};
use std::fmt;

/// A color. Colors are dense indices `0..Δ` for Δ-coloring; the paper's
/// "color one" (used by the marking process) is [`Color::FIRST`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Color(pub u32);

impl Color {
    /// The distinguished first color, assigned to marked nodes by the
    /// marking process (the paper's "color one").
    pub const FIRST: Color = Color(0);

    /// The color as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Color {
    fn from(c: u32) -> Self {
        Color(c)
    }
}

/// Colors travel gamma-coded: `O(log palette)` bits on the wire.
impl local_model::WireCodec for Color {
    fn encode(&self, w: &mut local_model::BitWriter) {
        w.write_gamma(self.0 as u64);
    }
    fn decode(r: &mut local_model::BitReader<'_>) -> Option<Self> {
        r.read_gamma_u32().map(Color)
    }
    fn encoded_bits(&self) -> u64 {
        local_model::wire::gamma_bits(self.0 as u64)
    }
}

/// The palette `{0, .., k-1}` of the first `k` colors.
pub fn palette(k: usize) -> Vec<Color> {
    (0..k as u32).map(Color).collect()
}

/// A (possibly partial) node coloring.
///
/// # Example
///
/// ```
/// use delta_coloring::palette::{Color, PartialColoring};
/// use delta_graphs::{generators, NodeId};
///
/// let g = generators::cycle(4);
/// let mut c = PartialColoring::new(g.n());
/// c.set(NodeId(0), Color(0));
/// c.set(NodeId(1), Color(1));
/// assert_eq!(c.colored_count(), 2);
/// assert!(!c.is_total());
/// assert!(c.validate_proper(&g).is_ok());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct PartialColoring {
    colors: Vec<Option<Color>>,
}

impl fmt::Debug for PartialColoring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PartialColoring({}/{} colored)",
            self.colored_count(),
            self.colors.len()
        )
    }
}

impl PartialColoring {
    /// All nodes uncolored.
    pub fn new(n: usize) -> Self {
        PartialColoring {
            colors: vec![None; n],
        }
    }

    /// Builds a total coloring from a color index per node.
    pub fn from_total(colors: &[u32]) -> Self {
        PartialColoring {
            colors: colors.iter().map(|&c| Some(Color(c))).collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Whether the coloring covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// The color of `v`, if assigned.
    #[inline]
    pub fn get(&self, v: NodeId) -> Option<Color> {
        self.colors[v.index()]
    }

    /// Assigns a color to `v` (overwriting any previous color).
    #[inline]
    pub fn set(&mut self, v: NodeId, c: Color) {
        self.colors[v.index()] = Some(c);
    }

    /// Removes the color of `v`.
    #[inline]
    pub fn unset(&mut self, v: NodeId) {
        self.colors[v.index()] = None;
    }

    /// Whether `v` is colored.
    #[inline]
    pub fn is_colored(&self, v: NodeId) -> bool {
        self.colors[v.index()].is_some()
    }

    /// Number of colored nodes.
    pub fn colored_count(&self) -> usize {
        self.colors.iter().filter(|c| c.is_some()).count()
    }

    /// Whether every node is colored.
    pub fn is_total(&self) -> bool {
        self.colors.iter().all(Option::is_some)
    }

    /// Iterator over uncolored nodes.
    pub fn uncolored<'a>(&'a self) -> impl Iterator<Item = NodeId> + 'a {
        self.colors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Colors used by the *colored* neighbors of `v`.
    pub fn neighbor_colors(&self, g: &Graph, v: NodeId) -> Vec<Color> {
        let mut out: Vec<Color> = g.neighbors(v).iter().filter_map(|&w| self.get(w)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The free colors of `v` within the palette `{0..k-1}`: colors not
    /// used by any colored neighbor.
    pub fn free_colors(&self, g: &Graph, v: NodeId, k: usize) -> Vec<Color> {
        let used = self.neighbor_colors(g, v);
        palette(k)
            .into_iter()
            .filter(|c| used.binary_search(c).is_err())
            .collect()
    }

    /// Whether `v` has two *colored* neighbors sharing a color — the
    /// paper's precondition for a node to have guaranteed slack (as for
    /// T-nodes in phase (7)).
    pub fn has_repeated_neighbor_color(&self, g: &Graph, v: NodeId) -> bool {
        let cols: Vec<Color> = g.neighbors(v).iter().filter_map(|&w| self.get(w)).collect();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        sorted.windows(2).any(|w| w[0] == w[1])
    }

    /// Checks that no edge is monochromatic (among colored endpoints).
    ///
    /// # Errors
    ///
    /// Returns the first conflicting edge.
    pub fn validate_proper(&self, g: &Graph) -> Result<(), ColoringError> {
        for (u, v) in g.edges() {
            if let (Some(a), Some(b)) = (self.get(u), self.get(v)) {
                if a == b {
                    return Err(ColoringError::MonochromaticEdge { u, v, color: a });
                }
            }
        }
        Ok(())
    }
}

/// Errors for coloring validation and solving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColoringError {
    /// Both endpoints of an edge share a color.
    MonochromaticEdge {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
        /// The shared color.
        color: Color,
    },
    /// A node remained uncolored where a total coloring was required.
    Uncolored {
        /// The uncolored node.
        node: NodeId,
    },
    /// A node used a color outside the allowed palette or its list.
    ColorOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The color it used.
        color: Color,
        /// The number of allowed colors.
        allowed: usize,
    },
    /// A solver could not complete a coloring (e.g. list coloring on a
    /// non-degree-choosable instance).
    Unsolvable {
        /// Human-readable context.
        context: String,
    },
}

impl fmt::Display for ColoringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColoringError::MonochromaticEdge { u, v, color } => {
                write!(f, "edge ({u}, {v}) is monochromatic with color {color}")
            }
            ColoringError::Uncolored { node } => write!(f, "node {node} is uncolored"),
            ColoringError::ColorOutOfRange {
                node,
                color,
                allowed,
            } => {
                write!(
                    f,
                    "node {node} uses color {color} outside palette of size {allowed}"
                )
            }
            ColoringError::Unsolvable { context } => write!(f, "unsolvable instance: {context}"),
        }
    }
}

impl std::error::Error for ColoringError {}

/// Per-node color lists for list-coloring instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lists {
    lists: Vec<Vec<Color>>,
}

impl Lists {
    /// Builds lists (one per node, sorted and deduplicated).
    pub fn new(mut lists: Vec<Vec<Color>>) -> Self {
        for l in &mut lists {
            l.sort_unstable();
            l.dedup();
        }
        Lists { lists }
    }

    /// Uniform lists: every one of `n` nodes gets palette `{0..k-1}`.
    pub fn uniform(n: usize, k: usize) -> Self {
        Lists {
            lists: vec![palette(k); n],
        }
    }

    /// The list of node `v`.
    pub fn of(&self, v: NodeId) -> &[Color] {
        &self.lists[v.index()]
    }

    /// Removes a color from `v`'s list; returns whether it was present.
    pub fn remove(&mut self, v: NodeId, c: Color) -> bool {
        let l = &mut self.lists[v.index()];
        if let Ok(i) = l.binary_search(&c) {
            l.remove(i);
            true
        } else {
            false
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether there are zero nodes.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Checks the `(deg+1)` precondition `|L(v)| >= deg(v) + 1` on `g`.
    pub fn satisfies_deg_plus_one(&self, g: &Graph) -> bool {
        g.nodes().all(|v| self.of(v).len() > g.degree(v))
    }

    /// Checks the degree-list precondition `|L(v)| >= deg(v)` on `g`.
    pub fn satisfies_deg(&self, g: &Graph) -> bool {
        g.nodes().all(|v| self.of(v).len() >= g.degree(v))
    }
}

/// Validates that `coloring` is a total proper coloring of `g` using at
/// most `k` colors.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_k_coloring(
    g: &Graph,
    coloring: &PartialColoring,
    k: usize,
) -> Result<(), ColoringError> {
    for v in g.nodes() {
        match coloring.get(v) {
            None => return Err(ColoringError::Uncolored { node: v }),
            Some(c) if c.index() >= k => {
                return Err(ColoringError::ColorOutOfRange {
                    node: v,
                    color: c,
                    allowed: k,
                })
            }
            _ => {}
        }
    }
    coloring.validate_proper(g)
}

/// Validates a total proper *list* coloring: every node colored from its
/// own list, no monochromatic edge.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_list_coloring(
    g: &Graph,
    coloring: &PartialColoring,
    lists: &Lists,
) -> Result<(), ColoringError> {
    for v in g.nodes() {
        match coloring.get(v) {
            None => return Err(ColoringError::Uncolored { node: v }),
            Some(c) => {
                if lists.of(v).binary_search(&c).is_err() {
                    return Err(ColoringError::ColorOutOfRange {
                        node: v,
                        color: c,
                        allowed: lists.of(v).len(),
                    });
                }
            }
        }
    }
    coloring.validate_proper(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_graphs::generators;

    #[test]
    fn partial_coloring_basics() {
        let mut c = PartialColoring::new(3);
        assert!(!c.is_total());
        assert_eq!(c.colored_count(), 0);
        c.set(NodeId(1), Color(2));
        assert_eq!(c.get(NodeId(1)), Some(Color(2)));
        assert!(c.is_colored(NodeId(1)));
        c.unset(NodeId(1));
        assert!(!c.is_colored(NodeId(1)));
        assert_eq!(c.uncolored().count(), 3);
    }

    #[test]
    fn proper_validation() {
        let g = generators::path(3);
        let mut c = PartialColoring::new(3);
        c.set(NodeId(0), Color(0));
        c.set(NodeId(1), Color(0));
        let err = c.validate_proper(&g).unwrap_err();
        assert!(matches!(err, ColoringError::MonochromaticEdge { .. }));
        c.set(NodeId(1), Color(1));
        assert!(c.validate_proper(&g).is_ok());
    }

    #[test]
    fn free_colors_and_repeats() {
        let g = generators::star(3);
        let mut c = PartialColoring::new(4);
        c.set(NodeId(1), Color(0));
        c.set(NodeId(2), Color(0));
        c.set(NodeId(3), Color(1));
        assert_eq!(c.free_colors(&g, NodeId(0), 3), vec![Color(2)]);
        assert!(c.has_repeated_neighbor_color(&g, NodeId(0)));
        c.set(NodeId(2), Color(2));
        assert!(!c.has_repeated_neighbor_color(&g, NodeId(0)));
        assert!(c.free_colors(&g, NodeId(0), 3).is_empty());
    }

    #[test]
    fn check_k_coloring_catches_all_failures() {
        let g = generators::cycle(4);
        let mut c = PartialColoring::new(4);
        assert!(matches!(
            check_k_coloring(&g, &c, 2),
            Err(ColoringError::Uncolored { .. })
        ));
        for v in g.nodes() {
            c.set(v, Color(v.0 % 2));
        }
        assert!(check_k_coloring(&g, &c, 2).is_ok());
        c.set(NodeId(0), Color(5));
        assert!(matches!(
            check_k_coloring(&g, &c, 2),
            Err(ColoringError::ColorOutOfRange { .. })
        ));
    }

    #[test]
    fn lists_operations() {
        let g = generators::path(3);
        let mut l = Lists::uniform(3, 3);
        assert!(l.satisfies_deg_plus_one(&g));
        assert!(l.remove(NodeId(1), Color(0)));
        assert!(!l.remove(NodeId(1), Color(0)));
        assert_eq!(l.of(NodeId(1)), &[Color(1), Color(2)]);
        assert!(!l.satisfies_deg_plus_one(&g)); // middle node has deg 2, list 2
        assert!(l.satisfies_deg(&g));
    }

    #[test]
    fn list_coloring_check() {
        let g = generators::path(2);
        let lists = Lists::new(vec![vec![Color(0)], vec![Color(1)]]);
        let mut c = PartialColoring::new(2);
        c.set(NodeId(0), Color(0));
        c.set(NodeId(1), Color(0));
        assert!(check_list_coloring(&g, &c, &lists).is_err()); // off-list
        c.set(NodeId(1), Color(1));
        assert!(check_list_coloring(&g, &c, &lists).is_ok());
    }

    #[test]
    fn neighbor_colors_dedup() {
        let g = generators::star(3);
        let mut c = PartialColoring::new(4);
        c.set(NodeId(1), Color(1));
        c.set(NodeId(2), Color(1));
        c.set(NodeId(3), Color(0));
        assert_eq!(c.neighbor_colors(&g, NodeId(0)), vec![Color(0), Color(1)]);
    }
}
