//! Power graphs `G^k`: nodes of `G`, edges between distinct nodes at
//! distance at most `k` in `G`.
//!
//! Ruling-set algorithms compute an independent set on `G^{α-1}` to get
//! an `(α, ·)` ruling set of `G`; one round on `G^k` costs `k` rounds in
//! `G` (the simulation charge).
//!
//! Since the virtual-topology overlay landed (`local_model::overlay`),
//! production phases never materialize `G^k`: they execute on the host
//! graph through relay compilation. [`power_graph`] survives as the
//! **equivalence-test oracle** those executions are proven against, and
//! [`PowerNeighborhoods`] is the batched per-node enumeration the
//! oracle, the overlay's degree precomputation, and the proptests share
//! — one set of reused BFS buffers for the whole sweep instead of an
//! `O(n)` allocation per node.

use crate::graph::{Graph, GraphBuilder, NodeId};
use std::cell::RefCell;

/// The reusable BFS scratch behind [`PowerNeighborhoods`]: the
/// epoch-stamped visited array, the two frontier arenas, and the output
/// buffer. Pooled per thread so that repeated sweep constructions —
/// e.g. one per overlay virtual round — recycle the buffers instead of
/// re-allocating (and re-zeroing) an `O(n)` stamp array each time.
#[derive(Default)]
struct PowerScratch {
    stamp: Vec<u32>,
    epoch: u32,
    frontier: Vec<NodeId>,
    next_frontier: Vec<NodeId>,
    out: Vec<NodeId>,
}

thread_local! {
    /// Per-thread pool of retired sweep scratches (bounded; see
    /// [`PowerScratch::put_back`]).
    static POWER_SCRATCH: RefCell<Vec<PowerScratch>> = const { RefCell::new(Vec::new()) };
}

impl PowerScratch {
    /// Takes a scratch sized for `n` nodes from the pool (or builds a
    /// fresh one). A same-size scratch keeps its stamps *and* its epoch
    /// — the invariant `stamp[v] <= epoch` survives pooling, so no
    /// clearing is needed; a size change resets both.
    fn take(n: usize) -> Self {
        let mut s = POWER_SCRATCH
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default();
        if s.stamp.len() != n {
            s.stamp.clear();
            s.stamp.resize(n, 0);
            s.epoch = 0;
        }
        s
    }

    /// Returns the scratch to the pool (dropped if the pool is full —
    /// the bound keeps pathological nesting from hoarding memory).
    fn put_back(self) {
        POWER_SCRATCH.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < 8 {
                pool.push(self);
            }
        });
    }
}

/// Batched enumeration of every node's `G^k`-neighborhood: a truncated
/// BFS per node that reuses one epoch-stamped visited array and one
/// frontier arena across the whole sweep, so per-node cost is
/// `O(|ball|)` with **zero** per-node allocation after warm-up — unlike
/// the naive [`power_neighbors`] oracle, which clears an `O(n)` distance
/// array for every center. The buffers themselves come from a per-thread pool
/// (`PowerScratch`) and outlive the sweep, so constructing one sweep
/// per overlay round is allocation-free at steady state too.
///
/// Call [`PowerNeighborhoods::next`] repeatedly; each call yields the
/// next node id together with its sorted `G^k`-neighbors (excluding the
/// node itself) as a borrowed slice that is only valid until the next
/// call (a lending iterator, deliberately not `Iterator`).
///
/// # Example
///
/// ```
/// use delta_graphs::generators;
/// use delta_graphs::power::{power_neighbors, PowerNeighborhoods};
///
/// let g = generators::cycle(8);
/// let mut sweep = PowerNeighborhoods::new(&g, 2);
/// while let Some((v, nbrs)) = sweep.next() {
///     assert_eq!(nbrs, power_neighbors(&g, v, 2).as_slice());
/// }
/// ```
pub struct PowerNeighborhoods<'g> {
    g: &'g Graph,
    k: usize,
    /// Pooled BFS buffers: `scratch.stamp[v] == scratch.epoch` means
    /// `v` was reached in the current sweep step — no clearing between
    /// nodes (or between pooled sweeps).
    scratch: PowerScratch,
    cursor: usize,
}

impl Drop for PowerNeighborhoods<'_> {
    fn drop(&mut self) {
        std::mem::take(&mut self.scratch).put_back();
    }
}

impl<'g> PowerNeighborhoods<'g> {
    /// Sweep over all nodes of `g` at power `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(g: &'g Graph, k: usize) -> Self {
        assert!(k >= 1, "power must be >= 1");
        PowerNeighborhoods {
            g,
            k,
            scratch: PowerScratch::take(g.n()),
            cursor: 0,
        }
    }

    /// Yields the next `(node, sorted G^k-neighbors)` pair, or `None`
    /// when every node has been visited. The slice borrows the sweep's
    /// internal buffer and is invalidated by the next call.
    #[allow(clippy::should_implement_trait)] // lending iterator: the yielded slice borrows self
    pub fn next(&mut self) -> Option<(NodeId, &[NodeId])> {
        if self.cursor >= self.g.n() {
            return None;
        }
        let v = NodeId::from_index(self.cursor);
        self.cursor += 1;
        let s = &mut self.scratch;
        s.out.clear();
        // Fresh epoch = fresh visited set, no clearing. Epoch 0 is the
        // initial stamp value, so skip it on wrap-around.
        s.epoch = s.epoch.wrapping_add(1);
        if s.epoch == 0 {
            s.stamp.fill(0);
            s.epoch = 1;
        }
        s.stamp[v.index()] = s.epoch;
        s.frontier.clear();
        s.frontier.push(v);
        for _ in 0..self.k {
            s.next_frontier.clear();
            for &u in &s.frontier {
                for &w in self.g.neighbors(u) {
                    if s.stamp[w.index()] != s.epoch {
                        s.stamp[w.index()] = s.epoch;
                        s.next_frontier.push(w);
                        s.out.push(w);
                    }
                }
            }
            if s.next_frontier.is_empty() {
                break;
            }
            std::mem::swap(&mut s.frontier, &mut s.next_frontier);
        }
        s.out.sort_unstable();
        Some((v, &s.out))
    }
}

/// Materializes the power graph `G^k`. For `k == 1` this is a copy of
/// `G`.
///
/// **Test oracle only.** Production phases run on `G^k` through the
/// virtual-topology overlay (`local_model::overlay`) without ever
/// building this `O(n·Δ^k)` object; it is kept as the reference the
/// overlay equivalence proptests pin the relay execution against.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn power_graph(g: &Graph, k: usize) -> Graph {
    assert!(k >= 1, "power must be >= 1");
    if k == 1 {
        return g.clone();
    }
    let mut b = GraphBuilder::new(g.n());
    let mut sweep = PowerNeighborhoods::new(g, k);
    while let Some((v, nbrs)) = sweep.next() {
        for &w in nbrs {
            if w > v {
                b.add_edge(v.0, w.0);
            }
        }
    }
    b.build()
}

/// Nodes within distance `k` of `v` in `G`, excluding `v` itself:
/// the `G^k`-neighborhood computed on demand. Per-node oracle sibling
/// of [`PowerNeighborhoods`] (which amortizes the scratch across a full
/// sweep); like [`power_graph`], a test/verification device.
pub fn power_neighbors(g: &Graph, v: NodeId, k: usize) -> Vec<NodeId> {
    let ball = crate::bfs::ball(g, v, k);
    ball.globals
        .iter()
        .zip(ball.dist.iter())
        .filter(|&(_, &d)| d > 0)
        .map(|(&w, _)| w)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn square_of_cycle() {
        let g = generators::cycle(8);
        let g2 = power_graph(&g, 2);
        assert!(g2.is_regular(4));
        assert!(g2.has_edge(NodeId(0), NodeId(2)));
        assert!(!g2.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn power_one_is_identity() {
        let g = generators::torus(3, 3);
        assert_eq!(power_graph(&g, 1), g);
    }

    #[test]
    fn cube_of_path() {
        let g = generators::path(6);
        let g3 = power_graph(&g, 3);
        assert!(g3.has_edge(NodeId(0), NodeId(3)));
        assert!(!g3.has_edge(NodeId(0), NodeId(4)));
    }

    #[test]
    fn power_neighbors_match_power_graph() {
        let g = generators::torus(4, 4);
        let g2 = power_graph(&g, 2);
        for v in g.nodes() {
            let mut a = power_neighbors(&g, v, 2);
            a.sort_unstable();
            assert_eq!(a.as_slice(), g2.neighbors(v));
        }
    }

    #[test]
    fn batched_sweep_matches_per_node_oracle() {
        for (g, k) in [
            (generators::torus(5, 4), 2),
            (generators::random_regular(60, 4, 3), 3),
            (generators::star(6), 2),
            (Graph::from_edges(6, [(0, 1), (2, 3)]).unwrap(), 4),
        ] {
            let mut sweep = PowerNeighborhoods::new(&g, k);
            let mut seen = 0usize;
            while let Some((v, nbrs)) = sweep.next() {
                let mut want = power_neighbors(&g, v, k);
                want.sort_unstable();
                assert_eq!(nbrs, want.as_slice(), "node {v} at k {k}");
                seen += 1;
            }
            assert_eq!(seen, g.n(), "sweep visits every node");
        }
    }

    #[test]
    fn pooled_scratch_survives_back_to_back_sweeps() {
        // Alternating sizes exercises the pool's keep-stamps (same n)
        // and reset (size change) paths across sweep constructions.
        for _ in 0..3 {
            for (g, k) in [(generators::cycle(9), 2), (generators::torus(4, 4), 3)] {
                let mut sweep = PowerNeighborhoods::new(&g, k);
                while let Some((v, nbrs)) = sweep.next() {
                    let mut want = power_neighbors(&g, v, k);
                    want.sort_unstable();
                    assert_eq!(nbrs, want.as_slice());
                }
            }
        }
    }

    #[test]
    fn large_power_saturates() {
        let g = generators::path(4);
        let gp = power_graph(&g, 10);
        assert!(crate::props::is_clique(&gp));
    }
}
