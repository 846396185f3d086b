//! The core [`Graph`] type: a compact, immutable, undirected simple graph.

use std::fmt;

/// Identifier of a node in a [`Graph`].
///
/// Node ids are dense indices `0..n`. In the LOCAL model these double as
/// the unique identifiers the algorithms use for symmetry breaking.
///
/// # Example
///
/// ```
/// use delta_graphs::NodeId;
/// let v = NodeId(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index, for indexing per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not fit in `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32 range"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Errors produced when constructing a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referred to a node id `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The number of nodes in the graph under construction.
        n: usize,
    },
    /// An edge connected a node to itself.
    SelfLoop {
        /// The node with the self loop.
        node: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(
                    f,
                    "edge endpoint {node} out of range for graph with {n} nodes"
                )
            }
            GraphError::SelfLoop { node } => write!(f, "self loop at node {node}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable, undirected, simple graph in CSR (compressed sparse row)
/// representation.
///
/// Parallel edges and self-loops are rejected or deduplicated at build
/// time, so `Graph` always represents a *simple* graph — the setting of
/// the paper. Adjacency lists are sorted by node id, enabling `O(log Δ)`
/// edge queries. Extremal degrees are cached at build time, so
/// [`Graph::max_degree`] and [`Graph::min_degree`] are `O(1)`.
///
/// # Arcs
///
/// Each undirected edge `{u, v}` corresponds to two **arcs** (directed
/// half-edges): the entry for `v` in `u`'s adjacency list and the entry
/// for `u` in `v`'s. Arcs are numbered `0..2m` by their position in the
/// concatenated adjacency array: [`Graph::arc_range`] gives the arc ids
/// leaving a node, [`Graph::arc_head`] the neighbor an arc points to,
/// and [`Graph::reverse_arc`] the opposite arc — equivalently, the
/// position of a node *inside its neighbor's adjacency list*, which is
/// what lets message-delivery substrates route a reply (or an inbox
/// slot) in `O(1)` instead of re-searching the adjacency list. The
/// reverse-arc table is computed in `O(m)` on first use and cached for
/// the graph's lifetime, so the myriad short-lived graphs this
/// workspace builds (BFS balls, induced subgraphs) never pay for it.
///
/// # Example
///
/// ```
/// use delta_graphs::{Graph, NodeId};
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(NodeId(0)), 2);
/// assert!(g.has_edge(NodeId(0), NodeId(1)));
/// assert!(!g.has_edge(NodeId(0), NodeId(2)));
/// // Arc round trip: every arc's reverse points back.
/// for a in g.arc_range(NodeId(0)) {
///     let b = g.reverse_arc(a);
///     assert_eq!(g.arc_head(b), NodeId(0));
///     assert_eq!(g.reverse_arc(b), a);
/// }
/// ```
#[derive(Clone)]
pub struct Graph {
    offsets: Vec<u32>,
    adj: Vec<NodeId>,
    /// `rev[a]` is the arc opposite to `a`: if arc `a` leaves `v` toward
    /// `w`, then `rev[a]` leaves `w` toward `v`. Lazily computed — see
    /// [`Graph::reverse_arcs`].
    rev: std::sync::OnceLock<Vec<u32>>,
    max_degree: u32,
    min_degree: u32,
}

/// Graphs compare by structure (offsets + adjacency); the cached
/// reverse-arc table is derived data and excluded.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.adj == other.adj
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, maxdeg={})",
            self.n(),
            self.m(),
            self.max_degree()
        )
    }
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Duplicate edges are silently deduplicated; edges may be given in
    /// either orientation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n` and
    /// [`GraphError::SelfLoop`] on a loop edge.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator,
        I::Item: std::borrow::Borrow<(u32, u32)>,
    {
        let mut b = GraphBuilder::new(n);
        for e in edges {
            let &(u, v) = std::borrow::Borrow::borrow(&e);
            b.add_edge_checked(u, v)?;
        }
        Ok(b.build())
    }

    /// Builds the empty graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        GraphBuilder::new(n).build()
    }

    /// Builds a graph directly from CSR arrays: `offsets` has `n + 1`
    /// entries and `adj[offsets[v]..offsets[v + 1]]` is `v`'s adjacency
    /// list, **sorted and symmetric** (every arc has its reverse). This
    /// is the streaming construction path (`crate::io::stream_graph`):
    /// unlike [`GraphBuilder::build`], it never materializes an edge
    /// list or sorts anything, so giant generated instances cost only
    /// their final CSR footprint.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent; sortedness and symmetry
    /// are `debug_assert`ed (callers are the in-crate generators, which
    /// emit sorted neighborhoods by construction).
    pub(crate) fn from_csr_parts(offsets: Vec<u32>, adj: Vec<NodeId>) -> Self {
        assert!(!offsets.is_empty(), "offsets needs a leading 0");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().expect("non-empty") as usize,
            adj.len(),
            "offsets must end at the adjacency length"
        );
        let n = offsets.len() - 1;
        let mut max_degree = 0u32;
        let mut min_degree = u32::MAX;
        for v in 0..n {
            let d = offsets[v + 1] - offsets[v];
            max_degree = max_degree.max(d);
            min_degree = min_degree.min(d);
            debug_assert!(
                adj[offsets[v] as usize..offsets[v + 1] as usize]
                    .windows(2)
                    .all(|w| w[0] < w[1]),
                "adjacency of {v} must be sorted and duplicate-free"
            );
        }
        if n == 0 {
            min_degree = 0;
        }
        Graph {
            offsets,
            adj,
            rev: std::sync::OnceLock::new(),
            max_degree,
            min_degree,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The sorted adjacency list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Whether the edge `{u, v}` is present. `O(log Δ)`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbor_position(u, v).is_some()
    }

    /// Position of `w` inside `v`'s sorted adjacency list, or `None` if
    /// the edge `{v, w}` is absent. `O(log Δ)`.
    ///
    /// The returned index is relative to [`Graph::neighbors`]`(v)`;
    /// adding `arc_range(v).start` turns it into a global arc id.
    #[inline]
    pub fn neighbor_position(&self, v: NodeId, w: NodeId) -> Option<usize> {
        self.neighbors(v).binary_search(&w).ok()
    }

    /// Number of arcs (directed half-edges), always `2m`.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.adj.len()
    }

    /// The global arc ids leaving `v`; `arc_range(v).len() == degree(v)`
    /// and arc `arc_range(v).start + i` points to `neighbors(v)[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn arc_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let i = v.index();
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// The neighbor arc `a` points to.
    ///
    /// # Panics
    ///
    /// Panics if `a >= num_arcs()`.
    #[inline]
    pub fn arc_head(&self, a: usize) -> NodeId {
        self.adj[a]
    }

    /// The arc opposite to `a`: if `a` leaves `v` toward `w`,
    /// `reverse_arc(a)` leaves `w` toward `v`. `O(1)` via the cached
    /// table — this is the "position of me in my neighbor's adjacency
    /// list" lookup. Hot loops should fetch [`Graph::reverse_arcs`]
    /// once and index it directly.
    ///
    /// # Panics
    ///
    /// Panics if `a >= num_arcs()`.
    #[inline]
    pub fn reverse_arc(&self, a: usize) -> usize {
        self.reverse_arcs()[a] as usize
    }

    /// The full reverse-arc table (`num_arcs()` entries): entry `a` is
    /// the arc opposite to `a`. Computed in `O(m)` on first call and
    /// cached for the graph's lifetime.
    pub fn reverse_arcs(&self) -> &[u32] {
        self.rev.get_or_init(|| {
            // Visiting sources v in ascending order consumes each
            // destination's sorted adjacency list front to back, so one
            // cursor per node builds the table with no searches.
            let mut rev = vec![0u32; self.adj.len()];
            let mut pos: Vec<u32> = self.offsets[..self.n()].to_vec();
            for v in 0..self.n() {
                let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
                for (r, &w) in rev[range.clone()].iter_mut().zip(&self.adj[range]) {
                    let w = w.index();
                    debug_assert_eq!(self.adj[pos[w] as usize], NodeId(v as u32));
                    *r = pos[w];
                    pos[w] += 1;
                }
            }
            rev
        })
    }

    /// Maximum degree Δ of the graph (0 for the empty graph). `O(1)`;
    /// cached by [`GraphBuilder::build`].
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree as usize
    }

    /// Minimum degree of the graph (0 for the empty graph). `O(1)`;
    /// cached by [`GraphBuilder::build`].
    #[inline]
    pub fn min_degree(&self) -> usize {
        self.min_degree as usize
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n() as u32).map(NodeId)
    }

    /// Iterator over all edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// Whether the graph is `d`-regular.
    pub fn is_regular(&self, d: usize) -> bool {
        self.nodes().all(|v| self.degree(v) == d)
    }

    /// Returns the node-induced subgraph on `keep` together with the map
    /// from new (local) node ids to the original (global) ids.
    ///
    /// `keep` may be in any order; duplicates are ignored. The `i`-th
    /// entry of the returned vector is the global id of local node `i`.
    pub fn induced(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut globals: Vec<NodeId> = keep.to_vec();
        globals.sort_unstable();
        globals.dedup();
        let mut local_of = vec![u32::MAX; self.n()];
        for (i, &g) in globals.iter().enumerate() {
            local_of[g.index()] = i as u32;
        }
        // The local ids are a monotone map of the global ones, so each
        // kept node's sorted host adjacency maps to a sorted local one,
        // and symmetry carries over: CSR directly, no edge list.
        let mut offsets = Vec::with_capacity(globals.len() + 1);
        offsets.push(0u32);
        let mut adj = Vec::new();
        for &g in &globals {
            let local = self.neighbors(g).iter().map(|w| local_of[w.index()]);
            adj.extend(local.filter(|&l| l != u32::MAX).map(NodeId));
            offsets.push(adj.len() as u32);
        }
        (Graph::from_csr_parts(offsets, adj), globals)
    }

    /// Returns the disjoint union of `self` and `other`; nodes of `other`
    /// are shifted by `self.n()`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let shift = self.n() as u32;
        let mut b = GraphBuilder::new(self.n() + other.n());
        for (u, v) in self.edges() {
            b.add_edge(u.0, v.0);
        }
        for (u, v) in other.edges() {
            b.add_edge(u.0 + shift, v.0 + shift);
        }
        b.build()
    }
}

/// Incremental builder for [`Graph`].
///
/// # Example
///
/// ```
/// use delta_graphs::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.m(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range. Use
    /// [`GraphBuilder::add_edge_checked`] for a fallible version.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.add_edge_checked(u, v).expect("invalid edge");
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns an error on self loops and out-of-range endpoints.
    pub fn add_edge_checked(&mut self, u: u32, v: u32) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let n = self.n;
        for w in [u, v] {
            if w as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: w, n });
            }
        }
        self.edges.push((u.min(v), u.max(v)));
        Ok(())
    }

    /// Number of nodes the built graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Finalizes the builder into an immutable [`Graph`], deduplicating
    /// parallel edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut degree = vec![0u32; self.n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..self.n].to_vec();
        let mut adj = vec![NodeId(0); acc as usize];
        for &(u, v) in &self.edges {
            adj[cursor[u as usize] as usize] = NodeId(v);
            cursor[u as usize] += 1;
            adj[cursor[v as usize] as usize] = NodeId(u);
            cursor[v as usize] += 1;
        }
        // Edges were inserted in sorted (u, v) order, so each node's
        // first-endpoint entries are sorted, but second-endpoint entries
        // interleave; sort each adjacency list for binary-search lookups.
        for i in 0..self.n {
            adj[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        let max_degree = degree.iter().copied().max().unwrap_or(0);
        let min_degree = degree.iter().copied().min().unwrap_or(0);
        Graph {
            offsets,
            adj,
            rev: std::sync::OnceLock::new(),
            max_degree,
            min_degree,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.nodes().all(|v| g.neighbors(v).is_empty()));
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn builds_and_queries() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 5);
        assert_eq!(g.degree(NodeId(0)), 3);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(1), NodeId(3)));
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn deduplicates_parallel_edges() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn rejects_self_loop() {
        let e = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(e, GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn rejects_out_of_range() {
        let e = Graph::from_edges(3, [(0, 3)]).unwrap_err();
        assert_eq!(e, GraphError::NodeOutOfRange { node: 3, n: 3 });
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = Graph::from_edges(4, [(2, 1), (3, 0), (0, 1)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(3)),
                (NodeId(1), NodeId(2)),
            ]
        );
    }

    #[test]
    fn induced_subgraph_maps_ids() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]).unwrap();
        let (h, map) = g.induced(&[NodeId(1), NodeId(3), NodeId(2)]);
        assert_eq!(h.n(), 3);
        assert_eq!(map, vec![NodeId(1), NodeId(2), NodeId(3)]);
        // Edges among {1,2,3}: (1,2), (2,3), (1,3) -> locally (0,1), (1,2), (0,2).
        assert_eq!(h.m(), 3);
        assert!(h.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(h, Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap());
    }

    #[test]
    fn induced_ignores_duplicates() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let (h, map) = g.induced(&[NodeId(1), NodeId(1), NodeId(0)]);
        assert_eq!(h.n(), 2);
        assert_eq!(map, vec![NodeId(0), NodeId(1)]);
        assert_eq!(h.m(), 1);
    }

    #[test]
    fn disjoint_union_shifts() {
        let a = Graph::from_edges(2, [(0, 1)]).unwrap();
        let b = Graph::from_edges(3, [(0, 2)]).unwrap();
        let u = a.disjoint_union(&b);
        assert_eq!(u.n(), 5);
        assert_eq!(u.m(), 2);
        assert!(u.has_edge(NodeId(0), NodeId(1)));
        assert!(u.has_edge(NodeId(2), NodeId(4)));
    }

    #[test]
    fn arc_table_round_trips() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 0)]).unwrap();
        assert_eq!(g.num_arcs(), 2 * g.m());
        let mut seen = vec![false; g.num_arcs()];
        for v in g.nodes() {
            let range = g.arc_range(v);
            assert_eq!(range.len(), g.degree(v));
            for (i, a) in range.clone().enumerate() {
                assert_eq!(g.arc_head(a), g.neighbors(v)[i]);
                let b = g.reverse_arc(a);
                assert_eq!(g.arc_head(b), v, "reverse arc must point back");
                assert_eq!(g.reverse_arc(b), a, "reverse is an involution");
                // b sits at v's position inside the neighbor's list.
                let w = g.arc_head(a);
                let p = g.neighbor_position(w, v).expect("symmetric edge");
                assert_eq!(b, g.arc_range(w).start + p);
                seen[a] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "arc ranges partition 0..2m");
    }

    #[test]
    fn neighbor_position_matches_sorted_list() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]).unwrap();
        assert_eq!(g.neighbor_position(NodeId(0), NodeId(1)), Some(0));
        assert_eq!(g.neighbor_position(NodeId(0), NodeId(3)), Some(2));
        assert_eq!(g.neighbor_position(NodeId(1), NodeId(3)), None);
        assert_eq!(g.neighbor_position(NodeId(3), NodeId(0)), Some(0));
    }

    #[test]
    fn cached_degrees_match_recomputation() {
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (4, 5)]).unwrap();
        assert_eq!(
            g.max_degree(),
            g.nodes().map(|v| g.degree(v)).max().unwrap()
        );
        assert_eq!(
            g.min_degree(),
            g.nodes().map(|v| g.degree(v)).min().unwrap()
        );
        let (h, _) = g.induced(&[NodeId(0), NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(h.max_degree(), 2);
        assert_eq!(h.min_degree(), 0); // node 4 loses its only neighbor
    }

    #[test]
    fn is_regular_checks() {
        let c4 = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert!(c4.is_regular(2));
        assert!(!c4.is_regular(3));
    }
}
