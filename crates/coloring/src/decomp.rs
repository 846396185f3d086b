//! Randomized network decomposition (Miller–Peng–Xu exponential shifts).
//!
//! Substrate for (a) the Panconesi–Srinivasan-style baseline and (b)
//! coloring the small shattered components (the paper uses \[PS92\] /
//! \[AGLP89\] decompositions; we substitute MPX, which gives clusters of
//! weak diameter `O(log n / β)` w.h.p. and a proper cluster-graph
//! coloring — the two properties the consumers rely on. See README.md,
//! "Substitutions for the paper's constructions".)

use delta_graphs::{Graph, NodeId};
use local_model::RoundLedger;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A clustering of the nodes with a proper coloring of the cluster
/// contact graph.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Cluster id per node.
    pub cluster_of: Vec<u32>,
    /// For each cluster: its center node.
    pub centers: Vec<NodeId>,
    /// For each cluster: its radius (max dist from center over members).
    pub radii: Vec<u32>,
    /// Proper coloring of the cluster contact graph (two clusters are in
    /// contact if an edge joins them).
    pub cluster_colors: Vec<u32>,
}

impl Decomposition {
    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.centers.len()
    }

    /// Maximum cluster radius.
    pub fn max_radius(&self) -> u32 {
        self.radii.iter().copied().max().unwrap_or(0)
    }

    /// Number of colors used on the cluster graph.
    pub fn color_count(&self) -> usize {
        self.cluster_colors
            .iter()
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Members of each cluster.
    pub fn cluster_members(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.centers.len()];
        for (i, &c) in self.cluster_of.iter().enumerate() {
            out[c as usize].push(NodeId::from_index(i));
        }
        out
    }
}

/// Computes an MPX decomposition with shift parameter `beta`
/// (cluster radius `O(log n / beta)` w.h.p.; smaller `beta`, bigger
/// clusters). Charges `O(max radius)` rounds for the decomposition plus
/// `O(max radius · cluster-graph colors)` for the cluster coloring.
///
/// # Example
///
/// ```
/// use delta_coloring::decomp::{check_decomposition, mpx_decomposition};
/// use delta_graphs::generators;
/// use local_model::RoundLedger;
///
/// let g = generators::torus(10, 10);
/// let mut ledger = RoundLedger::new();
/// let d = mpx_decomposition(&g, 0.4, 7, &mut ledger, "decomp");
/// assert!(check_decomposition(&g, &d));
/// assert!(d.cluster_count() >= 1);
/// ```
pub fn mpx_decomposition(
    g: &Graph,
    beta: f64,
    seed: u64,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Decomposition {
    assert!(beta > 0.0);
    let n = g.n();
    if n == 0 {
        return Decomposition {
            cluster_of: Vec::new(),
            centers: Vec::new(),
            radii: Vec::new(),
            cluster_colors: Vec::new(),
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Exponential shifts.
    let delta_shift: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.random::<f64>().max(1e-12);
            -u.ln() / beta
        })
        .collect();
    // Each node joins argmax_u (δ_u - dist(u, v)) = argmin (dist - δ_u):
    // Dijkstra from all nodes with start keys -δ_u.
    let mut best = vec![f64::INFINITY; n];
    let mut owner = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(OrdF64, u32, u32)>> = BinaryHeap::new();
    for (v, &shift) in delta_shift.iter().enumerate() {
        heap.push(Reverse((OrdF64(-shift), v as u32, v as u32)));
    }
    while let Some(Reverse((OrdF64(key), src, v))) = heap.pop() {
        let vi = v as usize;
        if owner[vi] != u32::MAX {
            continue;
        }
        owner[vi] = src;
        best[vi] = key;
        for &w in g.neighbors(NodeId(v)) {
            if owner[w.index()] == u32::MAX {
                heap.push(Reverse((OrdF64(key + 1.0), src, w.0)));
            }
        }
    }
    // Renumber clusters densely.
    let mut center_ids: Vec<u32> = owner.clone();
    center_ids.sort_unstable();
    center_ids.dedup();
    let cluster_index = |o: u32| center_ids.binary_search(&o).expect("present") as u32;
    let cluster_of: Vec<u32> = owner.iter().map(|&o| cluster_index(o)).collect();
    let centers: Vec<NodeId> = center_ids.iter().map(|&c| NodeId(c)).collect();
    // Radii via BFS distance from each node to its center... cheaper:
    // distance of v to center = dist in shifted Dijkstra minus key start.
    let mut radii = vec![0u32; centers.len()];
    for v in 0..n {
        let c = cluster_of[v] as usize;
        let d = (best[v] + delta_shift[owner[v] as usize]).round().max(0.0) as u32;
        radii[c] = radii[c].max(d);
    }
    // Greedy proper coloring of the cluster contact graph.
    let k = centers.len();
    let mut adj: Vec<std::collections::HashSet<u32>> = vec![std::collections::HashSet::new(); k];
    for (u, v) in g.edges() {
        let (cu, cv) = (cluster_of[u.index()], cluster_of[v.index()]);
        if cu != cv {
            adj[cu as usize].insert(cv);
            adj[cv as usize].insert(cu);
        }
    }
    let mut cluster_colors = vec![u32::MAX; k];
    for c in 0..k {
        let used: std::collections::HashSet<u32> = adj[c]
            .iter()
            .map(|&d| cluster_colors[d as usize])
            .filter(|&x| x != u32::MAX)
            .collect();
        let mut pick = 0u32;
        while used.contains(&pick) {
            pick += 1;
        }
        cluster_colors[c] = pick;
    }
    let max_radius = radii.iter().copied().max().unwrap_or(0) as u64;
    let colors = cluster_colors
        .iter()
        .map(|&c| c as u64 + 1)
        .max()
        .unwrap_or(1);
    // Decomposition: O(max radius) rounds; cluster coloring: iterate
    // color classes over cluster-graph (each step needs a radius-wide
    // exchange).
    ledger.charge(phase, max_radius + 1 + (max_radius + 1) * colors.min(64));
    Decomposition {
        cluster_of,
        centers,
        radii,
        cluster_colors,
    }
}

/// f64 wrapper with total order (no NaNs by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("no NaN keys")
    }
}

/// Validates decomposition invariants (test helper): every node in a
/// cluster, contact clusters get distinct colors, radii are honest.
pub fn check_decomposition(g: &Graph, d: &Decomposition) -> bool {
    if d.cluster_of.len() != g.n() {
        return false;
    }
    for (u, v) in g.edges() {
        let (cu, cv) = (d.cluster_of[u.index()], d.cluster_of[v.index()]);
        if cu != cv && d.cluster_colors[cu as usize] == d.cluster_colors[cv as usize] {
            return false;
        }
    }
    // Radii: distance from member to its center within the whole graph
    // (weak diameter) must not exceed the recorded radius.
    for (ci, members) in d.cluster_members().iter().enumerate() {
        if members.is_empty() {
            return false;
        }
        let dist = delta_graphs::bfs::distances(g, d.centers[ci]);
        for &v in members {
            if dist[v.index()] > d.radii[ci] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_graphs::generators;

    #[test]
    fn decomposition_on_families() {
        for (i, g) in [
            generators::torus(8, 8),
            generators::random_regular(500, 4, 2),
            generators::random_tree(300, 4),
            generators::cycle(64),
        ]
        .iter()
        .enumerate()
        {
            let mut ledger = RoundLedger::new();
            let d = mpx_decomposition(g, 0.4, i as u64, &mut ledger, "mpx");
            assert!(check_decomposition(g, &d), "family {i}");
            assert!(ledger.total() > 0);
        }
    }

    #[test]
    fn radius_scales_with_beta() {
        let g = generators::random_regular(2000, 4, 7);
        let mut l1 = RoundLedger::new();
        let mut l2 = RoundLedger::new();
        let big_beta = mpx_decomposition(&g, 0.9, 1, &mut l1, "mpx");
        let small_beta = mpx_decomposition(&g, 0.15, 1, &mut l2, "mpx");
        // Smaller beta => larger shifts => fewer, larger clusters.
        assert!(small_beta.cluster_count() < big_beta.cluster_count());
    }

    #[test]
    fn cluster_radius_is_logarithmic() {
        let g = generators::random_regular(4000, 4, 3);
        let mut ledger = RoundLedger::new();
        let d = mpx_decomposition(&g, 0.3, 5, &mut ledger, "mpx");
        assert!(check_decomposition(&g, &d));
        // O(log n / beta): generous bound 10 * ln(4000) / 0.3 ~ 276.
        assert!((d.max_radius() as f64) < 10.0 * (4000f64).ln() / 0.3);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        let mut ledger = RoundLedger::new();
        let d = mpx_decomposition(&g, 0.5, 0, &mut ledger, "mpx");
        assert_eq!(d.cluster_count(), 0);
    }

    use delta_graphs::Graph;
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use delta_graphs::generators;

    #[test]
    fn clusters_are_connected() {
        // MPX clusters are connected: the shifted-shortest-path argument
        // guarantees each node's path toward its center stays in-cluster.
        let g = generators::random_regular(800, 4, 3);
        let mut ledger = RoundLedger::new();
        let d = mpx_decomposition(&g, 0.4, 2, &mut ledger, "mpx");
        for (ci, members) in d.cluster_members().iter().enumerate() {
            let (sub, _) = g.induced(members);
            assert!(
                delta_graphs::components::is_connected(&sub),
                "cluster {ci} of size {} disconnected",
                members.len()
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::torus(10, 10);
        let mut l1 = RoundLedger::new();
        let mut l2 = RoundLedger::new();
        let a = mpx_decomposition(&g, 0.5, 9, &mut l1, "mpx");
        let b = mpx_decomposition(&g, 0.5, 9, &mut l2, "mpx");
        assert_eq!(a.cluster_of, b.cluster_of);
        assert_eq!(a.cluster_colors, b.cluster_colors);
    }

    #[test]
    fn singleton_graph_decomposes() {
        let g = Graph::empty(1);
        let mut ledger = RoundLedger::new();
        let d = mpx_decomposition(&g, 0.5, 0, &mut ledger, "mpx");
        assert_eq!(d.cluster_count(), 1);
        assert!(check_decomposition(&g, &d));
    }

    #[test]
    fn cluster_colors_are_few_on_bounded_degree() {
        let g = generators::random_regular(1000, 4, 7);
        let mut ledger = RoundLedger::new();
        let d = mpx_decomposition(&g, 0.3, 1, &mut ledger, "mpx");
        // Greedy coloring of the cluster graph uses at most
        // max-cluster-degree + 1 colors; sanity-bound it loosely.
        assert!(d.color_count() <= d.cluster_count());
        assert!(d.color_count() >= 1);
    }
}
