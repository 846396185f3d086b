//! Degree-choosable components (DCCs), Gallai trees, and the
//! constructive degree-list-coloring solver.
//!
//! Definitions 6–9 and Theorem 8 of the paper: a node-induced subgraph
//! is a *degree-choosable component* if it is 2-connected and neither a
//! clique nor an odd cycle; a connected graph is degree-choosable (every
//! list assignment with `|L(v)| >= deg(v)` admits a proper coloring) iff
//! it is **not** a Gallai tree \[ERT79, Viz76\].
//!
//! Detection works through block decomposition: the blocks of a graph
//! containing a node `v` are exactly the maximal 2-connected subgraphs
//! through `v`, and `v` lies in *some* DCC iff one of its blocks is
//! neither a clique nor an odd cycle (any 2-connected induced subgraph
//! through `v` lives inside a block; induced subgraphs of cliques are
//! cliques and of odd cycles are paths or the cycle itself).

use crate::palette::{Color, ColoringError, Lists, PartialColoring};
use delta_graphs::bfs::{self, Ball};
use delta_graphs::components::blocks;
use delta_graphs::props::{is_clique_subset, is_odd_cycle};
use delta_graphs::{Graph, NodeId};
use local_model::wire::gamma_bits;
use local_model::{run_ball_phase, BallView, BitReader, BitWriter, RoundLedger, WireCodec};

/// Wire format of DCC detection. The collective driver
/// ([`find_dccs_all`]) **executes through the engine**: every node
/// floods adjacency certificates for `r` rounds via the ball-collection
/// subsystem ([`local_model::BallMsg`] on the wire; this enum is the
/// equivalent declared shape) and searches its assembled view locally,
/// so rounds and per-edge bits are measured. Either way a relay can
/// carry up to `Θ(Δ^r)` edges in one message, so DCC detection is
/// **LOCAL-only**: on `O(log n)`-bit wires its rounds dilate. The
/// single-node
/// [`find_dcc_for_node`] remains the central reference oracle for
/// tests and ad-hoc probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GallaiMsg {
    /// Ball-collection relay: the sender's newly learned edges, as
    /// (smaller id, larger id) pairs.
    BallEdges(Vec<(u32, u32)>),
}

impl WireCodec for GallaiMsg {
    fn encode(&self, w: &mut BitWriter) {
        let GallaiMsg::BallEdges(edges) = self;
        w.write_gamma(edges.len() as u64);
        for &(a, b) in edges {
            w.write_gamma(a as u64);
            w.write_gamma(b as u64);
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        let len = r.read_gamma()?;
        let mut edges = Vec::with_capacity(r.capacity_hint(len));
        for _ in 0..len {
            let a = r.read_gamma_u32()?;
            let b = r.read_gamma_u32()?;
            edges.push((a, b));
        }
        Some(GallaiMsg::BallEdges(edges))
    }
    fn encoded_bits(&self) -> u64 {
        let GallaiMsg::BallEdges(edges) = self;
        gamma_bits(edges.len() as u64)
            + edges
                .iter()
                .map(|&(a, b)| gamma_bits(a as u64) + gamma_bits(b as u64))
                .sum::<u64>()
    }
}

/// Whether the node-induced subgraph on `nodes` is a degree-choosable
/// component of `g`: 2-connected, not a clique, not an odd cycle
/// (Definition 9).
pub fn is_dcc(g: &Graph, nodes: &[NodeId]) -> bool {
    if nodes.len() < 4 {
        // 2-connected graphs on 3 nodes are triangles (odd cycles).
        return false;
    }
    let (sub, _) = g.induced(nodes);
    delta_graphs::components::is_biconnected(&sub)
        && !delta_graphs::props::is_clique(&sub)
        && !is_odd_cycle(&sub)
}

/// A DCC found near a node: its (global) vertex set and its radius
/// measured inside the component.
#[derive(Debug, Clone)]
pub struct FoundDcc {
    /// Sorted global vertex set of the component.
    pub nodes: Vec<NodeId>,
    /// Radius of the node-induced subgraph on `nodes`.
    pub radius: usize,
}

/// Searches the radius-`r` ball around `v` for a degree-choosable
/// component containing `v` with in-component radius at most
/// `max_radius`; returns the smallest qualifying block.
///
/// LOCAL cost: `r` rounds to collect the ball (charged by callers).
///
/// Detection is block-exact *within the ball*: `v` is reported iff one
/// of the ball-blocks through `v` qualifies (see module docs). A DCC of
/// `G` that only becomes 2-connected outside the ball is missed — that
/// is the correct LOCAL-model semantics, since `v` cannot certify it in
/// `r` rounds.
pub fn find_dcc_for_node(
    g: &Graph,
    v: NodeId,
    r: usize,
    max_radius: usize,
    max_size: usize,
) -> Option<FoundDcc> {
    let ball = bfs::ball(g, v, r);
    find_dcc_in_ball(&ball, max_radius, max_size)
}

/// The default size cap for *selected* DCC components: components are
/// later brute-forced through their degree-choosability, so selection
/// keeps them `O(Δ)`-sized (short even cycles, diamonds, small blocks).
/// Under-selection is always safe — unselected DCC nodes are handled by
/// the shattering/expansion path instead.
pub fn dcc_size_cap(delta: usize) -> usize {
    4 * delta + 12
}

/// Engine-backed collective DCC detection: every node simultaneously
/// collects its radius-`r` ball as a real message-passing program
/// ([`local_model::run_ball_phase`] — `r` measured engine rounds of
/// certificate floods, charged to `phase` with their exact wire bits)
/// and searches the assembled view for a qualifying degree-choosable
/// component through it. Entry `v` equals
/// `find_dcc_for_node(g, v, r, max_radius, max_size)` — the central
/// oracle — for every node, but the rounds and bandwidth are measured,
/// and the phase is schedule-independent.
pub fn find_dccs_all(
    g: &Graph,
    r: usize,
    max_radius: usize,
    max_size: usize,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Vec<Option<FoundDcc>> {
    run_ball_phase::<(), _, _, _>(
        g,
        None,
        0,
        r,
        |_| (),
        |_, view| find_dcc_in_view(view, max_radius, max_size),
        ledger,
        phase,
    )
}

/// [`find_dcc_in_ball`] on a collected view. A view is connected, so
/// one with fewer edges than members is a tree: its blocks are single
/// edges, which never qualify, and the ball is never built.
pub(crate) fn find_dcc_in_view<M>(
    view: &BallView<M>,
    max_radius: usize,
    max_size: usize,
) -> Option<FoundDcc> {
    if view.edges.len() < view.members.len() {
        return None;
    }
    find_dcc_in_ball(&view.to_ball(), max_radius, max_size)
}

/// Ball-local DCC search (see [`find_dcc_for_node`]).
pub fn find_dcc_in_ball(ball: &Ball, max_radius: usize, max_size: usize) -> Option<FoundDcc> {
    let b = blocks(&ball.graph);
    let center = ball.center;
    let mut best: Option<FoundDcc> = None;
    for blk in &b.blocks {
        if blk.len() < 4 || blk.len() > max_size || blk.binary_search(&center).is_err() {
            continue;
        }
        let (sub, local_map) = ball.graph.induced(blk);
        if delta_graphs::props::is_clique(&sub) || is_odd_cycle(&sub) {
            continue;
        }
        let radius = delta_graphs::bfs::radius(&sub);
        if radius > max_radius {
            continue;
        }
        if best
            .as_ref()
            .is_none_or(|prev| blk.len() < prev.nodes.len())
        {
            let mut globals: Vec<NodeId> = local_map.iter().map(|&l| ball.to_global(l)).collect();
            globals.sort_unstable();
            best = Some(FoundDcc {
                nodes: globals,
                radius,
            });
        }
    }
    best
}

/// Whether the ball contains **no** degree-choosable component at all
/// (any block, not only through the center) — the precondition of the
/// expansion lemmas (Lemmas 10, 11, 12, 15), which quantify over the
/// whole neighborhood.
pub fn ball_is_dcc_free(ball: &Ball) -> bool {
    let b = blocks(&ball.graph);
    !b.blocks.iter().any(|blk| {
        blk.len() >= 4 && {
            let (sub, _) = ball.graph.induced(blk);
            !delta_graphs::props::is_clique(&sub) && !is_odd_cycle(&sub)
        }
    })
}

/// Solves a *degree-list* coloring instance by backtracking with MRV
/// (minimum remaining values) ordering and forward pruning, after
/// peeling every vertex with more live colors than active neighbors.
///
/// # Example
///
/// ```
/// use delta_coloring::gallai::{solve_degree_list, tight_identical_lists};
/// use delta_coloring::palette::PartialColoring;
/// use delta_graphs::generators;
///
/// // An even cycle is degree-choosable: tight identical lists work...
/// let c6 = generators::cycle(6);
/// let lists = tight_identical_lists(&c6);
/// assert!(solve_degree_list(&c6, &lists, &PartialColoring::new(6)).is_ok());
/// // ...while an odd cycle rejects them (it is a Gallai tree).
/// let c5 = generators::cycle(5);
/// let lists = tight_identical_lists(&c5);
/// assert!(solve_degree_list(&c5, &lists, &PartialColoring::new(5)).is_err());
/// ```
///
/// `fixed` colors are respected (treated as pre-assigned). When `g`
/// restricted to the uncolored nodes is degree-choosable and the lists
/// satisfy the degree condition, a solution exists (Theorem 8) and the
/// solver finds it; components produced by the paper's algorithms are
/// `poly(Δ)`-sized, keeping this fast.
///
/// # Errors
///
/// [`ColoringError::Unsolvable`] if the instance admits no proper list
/// coloring (e.g. a Gallai tree with tight identical lists).
pub fn solve_degree_list(
    g: &Graph,
    lists: &Lists,
    fixed: &PartialColoring,
) -> Result<PartialColoring, ColoringError> {
    let n = g.n();
    let mut coloring = fixed.clone();
    // Candidate sets as Vec<Color> per node, pruned by fixed colors.
    let mut cands: Vec<Vec<Color>> = (0..n)
        .map(|i| {
            let v = NodeId::from_index(i);
            match coloring.get(v) {
                Some(c) => vec![c],
                None => crate::list_coloring::available(g, lists, &coloring, v),
            }
        })
        .collect();

    // Degeneracy peeling: a node with more live colors than *active*
    // (uncolored, unpeeled) neighbors can always be colored last, so it
    // is deferred and removed. Only the all-tight core is backtracked —
    // typically a handful of short cycles even in large components.
    let mut active = vec![false; n];
    for v in coloring.uncolored() {
        active[v.index()] = true;
    }
    let mut deferred: Vec<NodeId> = Vec::new();
    loop {
        let peel = (0..n).map(NodeId::from_index).find(|&v| {
            active[v.index()] && {
                let active_deg = g.neighbors(v).iter().filter(|w| active[w.index()]).count();
                live_count(g, &cands, &coloring, v) > active_deg
            }
        });
        match peel {
            Some(v) => {
                active[v.index()] = false;
                deferred.push(v);
            }
            None => break,
        }
    }

    let order: Vec<NodeId> = {
        // Static MRV-flavored order over the core: ascending by slack
        // (list size minus degree), then by id; tight nodes first prunes
        // earlier.
        let mut o: Vec<NodeId> = (0..n)
            .map(NodeId::from_index)
            .filter(|v| active[v.index()])
            .collect();
        o.sort_by_key(|&v| (cands[v.index()].len() as i64 - g.degree(v) as i64, v.0));
        o
    };
    let mut steps: u64 = 0;
    const STEP_CAP: u64 = 50_000_000;
    if !backtrack(
        g,
        &order,
        0,
        &mut cands,
        &mut coloring,
        &mut steps,
        STEP_CAP,
    ) {
        return Err(ColoringError::Unsolvable {
            context: if steps >= STEP_CAP {
                "degree-list backtracking exceeded step cap".into()
            } else {
                "no proper list coloring exists".into()
            },
        });
    }
    // Color the deferred nodes in reverse peel order; the peeling
    // invariant guarantees a live color remains for each.
    for &v in deferred.iter().rev() {
        let opts = live_options(g, &cands, &coloring, v);
        let Some(&c) = opts.first() else {
            return Err(ColoringError::Unsolvable {
                context: "peeling invariant violated (internal bug)".into(),
            });
        };
        coloring.set(v, c);
    }
    debug_assert!(coloring.validate_proper(g).is_ok());
    Ok(coloring)
}

fn backtrack(
    g: &Graph,
    order: &[NodeId],
    depth: usize,
    cands: &mut [Vec<Color>],
    coloring: &mut PartialColoring,
    steps: &mut u64,
    cap: u64,
) -> bool {
    if depth == order.len() {
        return true;
    }
    // Dynamic MRV: pick the remaining node with fewest live candidates.
    let (pos, &v) = order[depth..]
        .iter()
        .enumerate()
        .min_by_key(|&(_, &v)| live_count(g, cands, coloring, v))
        .expect("non-empty suffix");
    let mut order2 = order.to_vec();
    order2.swap(depth, depth + pos);
    let v = {
        let _ = v;
        order2[depth]
    };
    let options: Vec<Color> = live_options(g, cands, coloring, v);
    for c in options {
        *steps += 1;
        if *steps >= cap {
            return false;
        }
        coloring.set(v, c);
        // Forward check: no uncolored neighbor may end with zero options.
        let dead = g
            .neighbors(v)
            .iter()
            .any(|&w| !coloring.is_colored(w) && live_count(g, cands, coloring, w) == 0);
        if !dead && backtrack(g, &order2, depth + 1, cands, coloring, steps, cap) {
            return true;
        }
        coloring.unset(v);
    }
    false
}

fn live_options(
    g: &Graph,
    cands: &[Vec<Color>],
    coloring: &PartialColoring,
    v: NodeId,
) -> Vec<Color> {
    let used = coloring.neighbor_colors(g, v);
    cands[v.index()]
        .iter()
        .copied()
        .filter(|c| used.binary_search(c).is_err())
        .collect()
}

fn live_count(g: &Graph, cands: &[Vec<Color>], coloring: &PartialColoring, v: NodeId) -> usize {
    let used = coloring.neighbor_colors(g, v);
    cands[v.index()]
        .iter()
        .filter(|c| used.binary_search(c).is_err())
        .count()
}

/// Colors a degree-choosable component *in place* on the global graph:
/// the component's lists are the Δ-palette minus the colors of already
/// colored outside neighbors (which yields `|L(v)| >= deg_in(v)`), and
/// Theorem 8 guarantees success.
///
/// # Errors
///
/// Propagates [`ColoringError::Unsolvable`] if the subgraph is not in
/// fact degree-choosable (a bug in the caller's selection logic).
pub fn color_component_respecting(
    g: &Graph,
    component: &[NodeId],
    delta: usize,
    coloring: &mut PartialColoring,
) -> Result<(), ColoringError> {
    let (sub, map) = g.induced(component);
    let lists = Lists::new(
        map.iter()
            .map(|&v| {
                // Palette minus outside colored neighbors. Inside
                // neighbors are uncolored (we color the whole component).
                let outside_used: Vec<Color> = g
                    .neighbors(v)
                    .iter()
                    .filter(|w| map.binary_search(w).is_err())
                    .filter_map(|&w| coloring.get(w))
                    .collect();
                crate::palette::palette(delta)
                    .into_iter()
                    .filter(|c| !outside_used.contains(c))
                    .collect()
            })
            .collect(),
    );
    let solved = solve_degree_list(&sub, &lists, &PartialColoring::new(sub.n()))?;
    for (i, &v) in map.iter().enumerate() {
        coloring.set(
            v,
            solved
                .get(NodeId::from_index(i))
                .expect("solver returns total colorings"),
        );
    }
    Ok(())
}

/// The canonical *failing* list assignment for a clique or odd-cycle
/// block: identical tight lists (used by tests to certify
/// non-choosability of Gallai blocks).
pub fn tight_identical_lists(g: &Graph) -> Lists {
    Lists::new(
        g.nodes()
            .map(|v| crate::palette::palette(g.degree(v)))
            .collect(),
    )
}

/// Whether every neighborhood `G[N(v)]` decomposes into disjoint cliques
/// — the structure forced by the absence of radius-1 DCCs (Lemma 13).
pub fn neighborhoods_are_clique_unions(g: &Graph) -> bool {
    g.nodes().all(|v| {
        let (sub, _) = g.induced(g.neighbors(v));
        delta_graphs::components::component_node_sets(&sub)
            .iter()
            .all(|comp| is_clique_subset(&sub, comp))
    })
}

/// Builds the canonical *failing* degree-list assignment for a connected
/// Gallai tree (the constructive half of Theorem 8's "only if"): every
/// block gets a fresh, pairwise-disjoint palette — of size `|B|-1` for a
/// clique block and `2` for an odd-cycle block — and `L(v)` is the union
/// of the palettes of the blocks containing `v`, which has size exactly
/// `deg(v)`.
///
/// Why no proper coloring exists: in a leaf clique block the non-cut
/// vertices are pairwise adjacent with identical `(|B|-1)`-sized lists,
/// so they consume the entire block palette, forbidding all of it to the
/// cut vertex; in a leaf odd-cycle block every proper 2-coloring of the
/// even path shows both palette colors at the cut vertex's neighbors.
/// Induction up the block tree strips every block's share from its cut
/// vertex until some vertex has no color left.
///
/// Returns `None` if the graph is not a connected Gallai tree (i.e. it
/// is degree-choosable, Theorem 8, and no such assignment exists).
pub fn canonical_failing_lists(g: &Graph) -> Option<Lists> {
    use delta_graphs::components::is_connected;
    if g.n() == 0 || !is_connected(g) || !delta_graphs::props::is_gallai_forest(g) {
        return None;
    }
    let b = blocks(g);
    let mut lists: Vec<Vec<Color>> = vec![Vec::new(); g.n()];
    let mut next_color = 0u32;
    for blk in &b.blocks {
        let (sub, _) = g.induced(blk);
        let share = if delta_graphs::props::is_clique(&sub) {
            (blk.len() - 1) as u32
        } else {
            // Gallai blocks that are not cliques are odd cycles.
            debug_assert!(is_odd_cycle(&sub));
            2
        };
        let palette: Vec<Color> = (next_color..next_color + share).map(Color).collect();
        next_color += share;
        for &v in blk {
            lists[v.index()].extend(palette.iter().copied());
        }
    }
    let lists = Lists::new(lists);
    debug_assert!(g.nodes().all(|v| lists.of(v).len() == g.degree(v)));
    Some(lists)
}

/// Whether a connected graph is degree-choosable (Theorem 8: exactly the
/// connected graphs that are not Gallai trees).
pub fn is_degree_choosable(g: &Graph) -> bool {
    delta_graphs::components::is_connected(g)
        && g.n() >= 1
        && !delta_graphs::props::is_gallai_forest(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_graphs::generators;

    #[test]
    fn even_cycle_is_dcc() {
        let g = generators::cycle(6);
        let all: Vec<NodeId> = g.nodes().collect();
        assert!(is_dcc(&g, &all));
    }

    #[test]
    fn odd_cycle_and_clique_are_not_dccs() {
        let c5 = generators::cycle(5);
        let all5: Vec<NodeId> = c5.nodes().collect();
        assert!(!is_dcc(&c5, &all5));
        let k4 = generators::complete(4);
        let all4: Vec<NodeId> = k4.nodes().collect();
        assert!(!is_dcc(&k4, &all4));
    }

    #[test]
    fn theta_is_dcc() {
        let theta =
            Graph::from_edges(6, [(0, 1), (1, 5), (0, 2), (2, 5), (0, 3), (3, 4), (4, 5)]).unwrap();
        let all: Vec<NodeId> = theta.nodes().collect();
        assert!(is_dcc(&theta, &all));
    }

    #[test]
    fn detection_on_torus() {
        // Torus has C4s through every node; radius-2 balls contain DCCs.
        let g = generators::torus(5, 5);
        for v in g.nodes().take(5) {
            let found = find_dcc_for_node(&g, v, 2, 4, usize::MAX);
            assert!(found.is_some(), "node {v}");
            let dcc = found.unwrap();
            assert!(is_dcc(&g, &dcc.nodes));
            assert!(dcc.nodes.contains(&v));
        }
    }

    #[test]
    fn collective_detection_matches_the_central_oracle() {
        use local_model::RoundLedger;
        let mut kinds = Vec::new();
        for (g, r) in [
            (generators::torus(5, 5), 2),
            (generators::random_regular(120, 4, 9), 2),
            (generators::cycle(12), 1),
            (generators::random_gallai_tree(8, 4, 1), 3),
            (generators::random_regular(2000, 3, 1), 2),
        ] {
            let mut ledger = RoundLedger::new();
            let all = find_dccs_all(&g, r, 2 * r, usize::MAX, &mut ledger, "dcc");
            assert_eq!(ledger.total(), r as u64);
            assert!(ledger.bits_sent() > 0, "certificate flood is measured");
            for v in g.nodes() {
                let want = find_dcc_for_node(&g, v, r, 2 * r, usize::MAX);
                let got = &all[v.index()];
                assert_eq!(
                    got.as_ref().map(|f| (&f.nodes, f.radius)),
                    want.as_ref().map(|f| (&f.nodes, f.radius)),
                    "node {v}"
                );
            }
            let trees = g.nodes().filter(|&v| {
                let ball = bfs::ball(&g, v, r);
                ball.graph.m() < ball.graph.n()
            });
            kinds.push((trees.count(), all.iter().flatten().count()));
        }
        // The sparse graph takes both paths of the view rule: most of
        // its radius-2 balls are trees, skipped without a ball, and a
        // few nodes find a DCC.
        let (trees, found) = kinds[4];
        assert!(
            trees > 0 && found > 0,
            "{trees} tree balls, {found} DCC nodes"
        );
    }

    #[test]
    fn no_detection_in_high_girth() {
        // Girth >= 5 means radius-1 balls are trees: no DCCs.
        let g = generators::cycle(12);
        for v in g.nodes() {
            assert!(find_dcc_for_node(&g, v, 1, 2, usize::MAX).is_none());
        }
    }

    #[test]
    fn no_detection_on_gallai_trees() {
        for seed in 0..5 {
            let g = generators::random_gallai_tree(8, 4, seed);
            for v in g.nodes() {
                // Any radius: Gallai trees never contain DCCs.
                assert!(
                    find_dcc_for_node(&g, v, 3, 10, usize::MAX).is_none(),
                    "seed {seed} node {v}"
                );
            }
        }
    }

    #[test]
    fn solver_colors_even_cycle_with_tight_lists() {
        let g = generators::cycle(6);
        let lists = tight_identical_lists(&g); // lists {0,1} everywhere
        let c = solve_degree_list(&g, &lists, &PartialColoring::new(6)).unwrap();
        crate::palette::check_list_coloring(&g, &c, &lists).unwrap();
    }

    #[test]
    fn solver_rejects_odd_cycle_with_tight_lists() {
        let g = generators::cycle(5);
        let lists = tight_identical_lists(&g);
        assert!(solve_degree_list(&g, &lists, &PartialColoring::new(5)).is_err());
    }

    #[test]
    fn solver_rejects_clique_with_tight_lists() {
        let g = generators::complete(4);
        let lists = tight_identical_lists(&g);
        assert!(solve_degree_list(&g, &lists, &PartialColoring::new(4)).is_err());
    }

    #[test]
    fn solver_respects_fixed_colors() {
        let g = generators::cycle(6);
        let lists = Lists::uniform(6, 3);
        let mut fixed = PartialColoring::new(6);
        fixed.set(NodeId(0), Color(2));
        let c = solve_degree_list(&g, &lists, &fixed).unwrap();
        assert_eq!(c.get(NodeId(0)), Some(Color(2)));
        c.validate_proper(&g).unwrap();
    }

    #[test]
    fn color_component_respecting_boundary() {
        // C6 embedded in a larger graph with colored outside neighbors.
        let mut b = delta_graphs::GraphBuilder::new(8);
        for i in 0..6u32 {
            b.add_edge(i, (i + 1) % 6);
        }
        b.add_edge(0, 6);
        b.add_edge(3, 7);
        let g = b.build();
        let mut coloring = PartialColoring::new(8);
        coloring.set(NodeId(6), Color(0));
        coloring.set(NodeId(7), Color(1));
        let comp: Vec<NodeId> = (0..6).map(NodeId).collect();
        color_component_respecting(&g, &comp, 3, &mut coloring).unwrap();
        assert!(coloring.is_total());
        coloring.validate_proper(&g).unwrap();
    }

    #[test]
    fn lemma13_clique_neighborhoods() {
        // High-girth graphs trivially satisfy the clique-union property
        // (neighborhoods are independent sets = unions of K1 cliques).
        assert!(neighborhoods_are_clique_unions(&generators::cycle(10)));
        // Cliques: neighborhoods are cliques.
        assert!(neighborhoods_are_clique_unions(&generators::complete(5)));
        // C4: N(v) = two non-adjacent nodes = union of two K1s: holds.
        assert!(neighborhoods_are_clique_unions(&generators::cycle(4)));
        // Wheel W5 (hub + C5): hub's neighborhood is C5, not a clique
        // union? C5's components: one component that is not a clique.
        let mut b = delta_graphs::GraphBuilder::new(6);
        for i in 0..5u32 {
            b.add_edge(i, (i + 1) % 5);
            b.add_edge(i, 5);
        }
        let wheel = b.build();
        assert!(!neighborhoods_are_clique_unions(&wheel));
    }

    #[test]
    fn canonical_failing_lists_defeat_the_solver() {
        for seed in 0..10u64 {
            let g = generators::random_gallai_tree(8, 4, seed);
            let lists = canonical_failing_lists(&g).expect("gallai trees have failing lists");
            assert!(
                solve_degree_list(&g, &lists, &PartialColoring::new(g.n())).is_err(),
                "seed {seed}: canonical assignment was colorable"
            );
        }
        // Simple sanity cases: path, odd cycle, clique.
        for g in [
            generators::path(5),
            generators::cycle(7),
            generators::complete(5),
        ] {
            let lists = canonical_failing_lists(&g).unwrap();
            assert!(solve_degree_list(&g, &lists, &PartialColoring::new(g.n())).is_err());
        }
    }

    #[test]
    fn canonical_failing_lists_absent_for_choosable_graphs() {
        assert!(canonical_failing_lists(&generators::cycle(6)).is_none());
        assert!(canonical_failing_lists(&generators::torus(4, 4)).is_none());
        assert!(is_degree_choosable(&generators::cycle(6)));
        assert!(!is_degree_choosable(&generators::cycle(7)));
        assert!(!is_degree_choosable(&generators::random_gallai_tree(
            5, 3, 1
        )));
    }

    use delta_graphs::Graph;
}
