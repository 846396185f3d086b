//! Brooks' theorem: sequential (Lovász-style, via the block-cut tree)
//! and distributed (Theorem 5 of the paper).
//!
//! *Sequential* ([`brooks_color`]): any connected graph with maximum
//! degree `Δ >= 3` that is not the complete graph `K_{Δ+1}` is
//! Δ-colorable. We color the block-cut tree block by block; within a
//! block a precolored attachment vertex makes reverse-BFS greedy
//! coloring succeed, and the first block uses the classical Lovász
//! construction (two non-adjacent neighbors of a root get the same
//! color).
//!
//! *Distributed* ([`repair_single_uncolored`]): given a Δ-coloring with a
//! single uncolored node `v`, the coloring can be completed by
//! re-coloring only inside the `2·log_{Δ-1} n` neighborhood of `v`
//! (Theorem 5). The procedure walks a "token" toward the nearest
//! small-degree node or degree-choosable component (Lemma 16 guarantees
//! one exists in range): each step colors the token node with its path
//! successor's color and uncolors the successor; a small-degree endpoint
//! always has a free color, and a DCC endpoint is re-colored wholesale
//! via its degree-choosability.

use crate::gallai;
use crate::palette::{Color, ColoringError, PartialColoring};
use delta_graphs::bfs;
use delta_graphs::components::{block_order, blocks, is_connected};
use delta_graphs::props;
use delta_graphs::{Graph, NodeId};
use local_model::{collect_ball_centered, RoundLedger};

/// Computes a Δ-coloring of a connected graph via Brooks' theorem.
///
/// Handles `Δ <= 2` directly (paths and even cycles 2-colored; odd
/// cycles get 3 colors if `delta >= 3` is passed, otherwise fail).
///
/// # Example
///
/// ```
/// use delta_coloring::brooks::brooks_color;
/// use delta_graphs::generators;
///
/// // The Petersen graph is 3-regular and 3-colorable by Brooks.
/// let g = generators::petersen_like();
/// let coloring = brooks_color(&g, 3)?;
/// delta_coloring::verify::check_delta_coloring(&g, &coloring)?;
/// # Ok::<(), delta_coloring::ColoringError>(())
/// ```
///
/// # Errors
///
/// [`ColoringError::Unsolvable`] for complete graphs `K_{Δ+1}` and odd
/// cycles when `delta == 2` — exactly the Brooks exceptions — and for
/// disconnected input.
pub fn brooks_color(g: &Graph, delta: usize) -> Result<PartialColoring, ColoringError> {
    if g.n() == 0 {
        return Ok(PartialColoring::new(0));
    }
    if !is_connected(g) {
        return Err(ColoringError::Unsolvable {
            context: "graph is disconnected".into(),
        });
    }
    if g.max_degree() > delta {
        return Err(ColoringError::Unsolvable {
            context: format!("max degree {} exceeds palette {delta}", g.max_degree()),
        });
    }
    if props::is_clique(g) {
        return if g.n() <= delta {
            // K_n with n <= Δ colors trivially.
            let mut c = PartialColoring::new(g.n());
            for v in g.nodes() {
                c.set(v, Color(v.0));
            }
            Ok(c)
        } else {
            Err(ColoringError::Unsolvable {
                context: format!("complete graph K_{} needs {} colors", g.n(), g.n()),
            })
        };
    }
    if props::is_path(g) {
        if g.n() == 1 {
            let mut c = PartialColoring::new(1);
            c.set(NodeId(0), Color(0));
            return Ok(c);
        }
        if delta >= 2 {
            return Ok(two_color_path_or_even_cycle(g));
        }
        return Err(ColoringError::Unsolvable {
            context: "a path with an edge needs 2 colors".into(),
        });
    }
    if props::is_cycle(g) {
        if g.n().is_multiple_of(2) {
            return Ok(two_color_path_or_even_cycle(g));
        }
        if delta >= 3 {
            let mut c = two_color_path_or_even_cycle_skip_last(g);
            let last = last_cycle_node(g);
            let free = c.free_colors(g, last, delta);
            c.set(last, free[0]);
            return Ok(c);
        }
        return Err(ColoringError::Unsolvable {
            context: "odd cycle is not 2-colorable".into(),
        });
    }
    // General case: block-by-block over the block-cut tree.
    let b = blocks(g);
    let order = block_order(g, &b);
    let mut coloring = PartialColoring::new(g.n());
    for (bi, attach) in order {
        color_block(g, &b.blocks[bi], attach, delta, &mut coloring)?;
    }
    debug_assert!(coloring.is_total());
    debug_assert!(coloring.validate_proper(g).is_ok());
    Ok(coloring)
}

fn last_cycle_node(g: &Graph) -> NodeId {
    // The node at maximal BFS distance from node 0 along the cycle.
    let d = bfs::distances(g, NodeId(0));
    g.nodes().max_by_key(|v| d[v.index()]).expect("non-empty")
}

fn two_color_path_or_even_cycle(g: &Graph) -> PartialColoring {
    let d = bfs::distances(g, NodeId(0));
    let mut c = PartialColoring::new(g.n());
    for v in g.nodes() {
        c.set(v, Color(d[v.index()] % 2));
    }
    c
}

fn two_color_path_or_even_cycle_skip_last(g: &Graph) -> PartialColoring {
    let last = last_cycle_node(g);
    let mut c = two_color_path_or_even_cycle(g);
    c.unset(last);
    c
}

/// Colors one block of the block-cut tree, respecting the already
/// colored attachment vertex (if any). All other block members must be
/// uncolored.
fn color_block(
    g: &Graph,
    block: &[NodeId],
    attach: Option<NodeId>,
    delta: usize,
    coloring: &mut PartialColoring,
) -> Result<(), ColoringError> {
    let (sub, map) = g.induced(block);
    // Color the block ignoring the attachment constraint, then permute
    // two colors so the attachment vertex matches its existing color
    // (a color permutation of a proper coloring stays proper, and only
    // block-internal vertices are affected).
    let mut solved = color_block_unconstrained(&sub, delta)?;
    if let Some(a) = attach {
        let al = NodeId::from_index(map.binary_search(&a).expect("attachment vertex in block"));
        let want = coloring.get(a).expect("attachment vertex already colored");
        let have = solved.get(al).expect("solver returns total colorings");
        if want != have {
            for v in sub.nodes() {
                let c = solved.get(v).expect("total");
                if c == have {
                    solved.set(v, want);
                } else if c == want {
                    solved.set(v, have);
                }
            }
        }
    }
    for (i, &v) in map.iter().enumerate() {
        if Some(v) != attach {
            coloring.set(v, solved.get(NodeId::from_index(i)).expect("total"));
        }
    }
    Ok(())
}

/// Δ-colors a single block (given as its own graph), unconstrained.
fn color_block_unconstrained(sub: &Graph, delta: usize) -> Result<PartialColoring, ColoringError> {
    let n = sub.n();
    // Cliques (includes K2 bridge blocks): need |block| colors;
    // |block| <= Δ always holds except for the whole-graph clique,
    // which brooks_color rejects earlier.
    if props::is_clique(sub) {
        if n > delta {
            return Err(ColoringError::Unsolvable {
                context: format!("clique block of size {n} exceeds palette {delta}"),
            });
        }
        let mut c = PartialColoring::new(n);
        for v in sub.nodes() {
            c.set(v, Color(v.0));
        }
        return Ok(c);
    }
    // Cycles: walk around; the final node sees two colored neighbors,
    // which 3 colors (or 2 for even length) always accommodate.
    if props::is_cycle(sub) {
        if delta < 3 && n % 2 == 1 {
            return Err(ColoringError::Unsolvable {
                context: "odd cycle block with a 2-color palette".into(),
            });
        }
        let start = NodeId(0);
        let mut c = PartialColoring::new(n);
        c.set(start, Color(0));
        let mut prev = start;
        let mut cur = sub.neighbors(start)[0];
        while cur != start {
            let free = c.free_colors(sub, cur, delta.max(2));
            c.set(cur, free[0]);
            let next = *sub
                .neighbors(cur)
                .iter()
                .find(|&&w| w != prev)
                .expect("cycle node has two neighbors");
            prev = cur;
            cur = next;
        }
        crate::palette::check_k_coloring(sub, &c, delta.max(2))?;
        return Ok(c);
    }

    // General 2-connected block. If some vertex has block-degree < Δ,
    // root the reverse-BFS greedy there: every non-root node has an
    // uncolored parent at its turn (at most deg-1 <= Δ-1 colored
    // neighbors), and the root has degree < Δ.
    if let Some(root) = sub.nodes().find(|&v| sub.degree(v) < delta) {
        return Ok(reverse_bfs_greedy(
            sub,
            delta,
            PartialColoring::new(n),
            root,
            &[],
        ));
    }
    // Δ-regular 2-connected non-clique non-cycle block: Lovász's
    // construction. Find x with non-adjacent neighbors a, b such that
    // sub - {a, b} is connected; give a and b the same color, so x (the
    // last node colored) sees at most Δ-1 distinct colors.
    let (x, a, b) = lovasz_triple(sub).ok_or_else(|| ColoringError::Unsolvable {
        context: "no Lovász triple found in a regular 2-connected block".into(),
    })?;
    let mut start = PartialColoring::new(n);
    start.set(a, Color(0));
    start.set(b, Color(0));
    Ok(reverse_bfs_greedy(sub, delta, start, x, &[a, b]))
}

/// Greedy coloring in order of decreasing BFS distance from `root`
/// (root last), skipping `excluded` nodes (already colored) in the BFS.
fn reverse_bfs_greedy(
    sub: &Graph,
    delta: usize,
    mut coloring: PartialColoring,
    root: NodeId,
    excluded: &[NodeId],
) -> PartialColoring {
    // BFS in sub minus excluded.
    let keep: Vec<NodeId> = sub.nodes().filter(|v| !excluded.contains(v)).collect();
    let (h, map) = sub.induced(&keep);
    let root_local = NodeId::from_index(map.binary_search(&root).expect("root not excluded"));
    let d = bfs::distances(&h, root_local);
    let mut order: Vec<NodeId> = h.nodes().collect();
    order.sort_by_key(|v| std::cmp::Reverse(d[v.index()]));
    for lv in order {
        let v = map[lv.index()];
        if !coloring.is_colored(v) {
            let free = coloring.free_colors(sub, v, delta);
            let c = *free
                .first()
                .expect("reverse-BFS greedy invariant: an uncolored neighbor remains");
            coloring.set(v, c);
        }
    }
    coloring
}

/// Finds `(x, a, b)`: `a, b` non-adjacent neighbors of `x` with
/// `sub - {a, b}` connected (the classical construction in Lovász's
/// proof of Brooks' theorem; exists in every 2-connected, regular,
/// non-complete, non-cycle graph with `Δ >= 3`).
fn lovasz_triple(sub: &Graph) -> Option<(NodeId, NodeId, NodeId)> {
    let n = sub.n();
    for x in sub.nodes() {
        let nbrs = sub.neighbors(x);
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if sub.has_edge(a, b) {
                    continue;
                }
                // Check connectivity of sub - {a, b}.
                if subgraph_connected_excluding(sub, a, b) == n - 2 {
                    return Some((x, a, b));
                }
            }
        }
    }
    None
}

/// Number of nodes reachable from some node of `sub - {a, b}`.
fn subgraph_connected_excluding(sub: &Graph, a: NodeId, b: NodeId) -> usize {
    let n = sub.n();
    if n <= 2 {
        return 0;
    }
    let start = sub.nodes().find(|&v| v != a && v != b).expect("n > 2");
    let mut seen = vec![false; n];
    seen[a.index()] = true;
    seen[b.index()] = true;
    let mut stack = vec![start];
    seen[start.index()] = true;
    let mut count = 1;
    while let Some(u) = stack.pop() {
        for &w in sub.neighbors(u) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                count += 1;
                stack.push(w);
            }
        }
    }
    count
}

/// Statistics of one distributed Brooks repair (Theorem 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Maximum distance from the initially uncolored node of any node
    /// whose color changed (0 if `v` itself had a free color).
    pub radius: usize,
    /// Number of token moves performed.
    pub moved: usize,
    /// Whether a degree-choosable component was recolored.
    pub used_dcc: bool,
}

/// Completes a Δ-coloring that is total except at `v` by recoloring only
/// inside the `O(log_{Δ-1} n)` ball around `v` (Theorem 5).
///
/// # Example
///
/// ```
/// use delta_coloring::brooks::{brooks_color, repair_single_uncolored};
/// use delta_graphs::{generators, NodeId};
/// use local_model::RoundLedger;
///
/// let g = generators::torus(8, 8);
/// let mut coloring = brooks_color(&g, 4)?;
/// coloring.unset(NodeId(17)); // a node reboots
/// let mut ledger = RoundLedger::new();
/// let out = repair_single_uncolored(&g, &mut coloring, NodeId(17), 4, &mut ledger, "fix")?;
/// assert!(coloring.is_total());
/// assert!(out.radius <= delta_coloring::brooks::theorem5_radius(g.n(), 4));
/// # Ok::<(), delta_coloring::ColoringError>(())
/// ```
///
/// Charges `2 × (radius actually inspected)` rounds: one sweep to
/// collect the ball, one to announce the recoloring. The initial
/// radius-2 inspection runs engine-backed (4 measured rounds with real
/// per-edge bit loads, confined to the probed ball); deeper doubling
/// probes are centrally simulated and charged the remainder.
///
/// # Errors
///
/// [`ColoringError::Unsolvable`] if no small-degree node or DCC exists
/// within the theorem's radius — impossible for nice graphs by
/// Lemma 16, so an error indicates a non-nice input.
pub fn repair_single_uncolored(
    g: &Graph,
    coloring: &mut PartialColoring,
    v: NodeId,
    delta: usize,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Result<RepairOutcome, ColoringError> {
    debug_assert!(!coloring.is_colored(v));
    // Quick exit: free color at v itself.
    if let Some(&c) = coloring.free_colors(g, v, delta).first() {
        coloring.set(v, c);
        ledger.charge(phase, 1);
        return Ok(RepairOutcome {
            radius: 0,
            moved: 0,
            used_dcc: false,
        });
    }
    let r_max = theorem5_radius(g.n(), delta);
    // Progressive deepening (doubling search): inspect balls of growing
    // radius until a target appears. The total LOCAL cost of doubling is
    // at most twice the final radius, which is what we charge. This also
    // keeps the inspected blocks small: at the first radius where a DCC
    // closes, it is a short even cycle / small block rather than the
    // giant block a full Theorem-5 ball would form.
    let mut target: Option<(u32, NodeId, Option<Vec<NodeId>>)> = None; // (dist, node, dcc)
    let mut r_explored = 2usize;
    // Rounds already charged by the engine-backed probe; the final
    // central charge below covers only the remainder.
    let mut engine_rounds = 0u64;
    let mut ball;
    loop {
        ball = if engine_rounds == 0 {
            engine_rounds = 2 * r_explored as u64;
            collect_ball_centered(g, v, r_explored, ledger, phase)
        } else {
            g.ball(v, r_explored)
        };
        // Nearest small-degree node.
        for (i, &gl) in ball.globals.iter().enumerate() {
            if g.degree(gl) < delta {
                let d = ball.dist[i];
                if target.as_ref().is_none_or(|t| d < t.0) {
                    target = Some((d, gl, None));
                }
            }
        }
        // Qualifying DCC block closest to the center; among equally
        // close ones, the smallest (cheapest to recolor).
        let b = blocks(&ball.graph);
        for blk in &b.blocks {
            if gallai::dcc_block(&ball.graph, blk).is_none() {
                continue;
            }
            let (&entry, &d) = blk
                .iter()
                .map(|u| (u, &ball.dist[u.index()]))
                .min_by_key(|&(_, &d)| d)
                .expect("non-empty block");
            let better = match &target {
                None => true,
                Some((td, _, tdcc)) => {
                    d < *td
                        || (d == *td && tdcc.as_ref().is_some_and(|prev| blk.len() < prev.len()))
                }
            };
            if better {
                let globals: Vec<NodeId> = blk.iter().map(|&l| ball.to_global(l)).collect();
                target = Some((d, ball.to_global(entry), Some(globals)));
            }
        }
        if target.is_some() || r_explored >= r_max || ball.len() >= g.n() {
            break;
        }
        r_explored = (r_explored * 2).min(r_max.max(2));
    }
    let Some((_, goal, dcc)) = target else {
        return Err(ColoringError::Unsolvable {
            context: format!(
                "no degree-<Δ node or DCC within radius {r_max} of {v} (graph not nice?)"
            ),
        });
    };

    // Walk the token along a shortest path from v to the goal inside the
    // ball. A free color ends the walk early; a goal without one is the
    // entry node of the target DCC.
    let mut path = shortest_path_in_ball(&ball, goal).into_iter().skip(1);
    let mut token = v;
    let mut moved = 0usize;
    let mut radius = 0usize;
    let mut used_dcc = false;
    loop {
        if let Some(&c) = coloring.free_colors(g, token, delta).first() {
            coloring.set(token, c);
            break;
        }
        let Some(next) = path.next() else {
            let Some(mut component) = dcc else {
                return Err(ColoringError::Unsolvable {
                    context: "small-degree target had no free color (invariant violation)".into(),
                });
            };
            component.sort_unstable();
            // Uncolor the DCC (token is its entry node and already uncolored).
            for &u in &component {
                coloring.unset(u);
                radius = radius.max(dist_in_ball(&ball, u) as usize);
            }
            gallai::color_component_respecting(g, &component, delta, coloring)?;
            used_dcc = true;
            break;
        };
        // No free color: all Δ neighbors carry Δ distinct colors, so
        // adopting the successor's color and uncoloring the successor
        // preserves properness.
        let c_next = coloring.get(next).expect("path interior is colored");
        coloring.set(token, c_next);
        coloring.unset(next);
        token = next;
        moved += 1;
        radius = radius.max(dist_in_ball(&ball, next) as usize);
    }
    let rounds = 2 * (radius.max(r_explored).max(1) as u64);
    ledger.charge(phase, rounds.saturating_sub(engine_rounds));
    Ok(RepairOutcome {
        radius,
        moved,
        used_dcc,
    })
}

/// The recoloring radius bound of Theorem 5: `2·log_{Δ-1} n` (plus a
/// small constant of slack for rounding).
pub fn theorem5_radius(n: usize, delta: usize) -> usize {
    let base = (delta.max(3) - 1) as f64;
    (2.0 * (n.max(2) as f64).ln() / base.ln()).ceil() as usize + 2
}

fn dist_in_ball(ball: &bfs::Ball, global: NodeId) -> u32 {
    let l = ball.to_local(global).expect("node inside ball");
    ball.dist[l.index()]
}

/// Shortest path (as global node ids, starting at the center) from the
/// ball's center to `goal`.
fn shortest_path_in_ball(ball: &bfs::Ball, goal: NodeId) -> Vec<NodeId> {
    let goal_local = ball.to_local(goal).expect("goal inside ball");
    let tree = bfs::bfs_tree(&ball.graph, ball.center, None);
    let mut path_local = vec![goal_local];
    let mut cur = goal_local;
    while let Some(p) = tree.parent[cur.index()] {
        path_local.push(p);
        cur = p;
    }
    debug_assert_eq!(*path_local.last().unwrap(), ball.center);
    path_local.reverse();
    path_local.into_iter().map(|l| ball.to_global(l)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::check_k_coloring;
    use delta_graphs::generators;

    #[test]
    fn brooks_on_families() {
        for (g, delta) in [
            (generators::torus(6, 7), 4),
            (generators::random_regular(200, 4, 3), 4),
            (generators::random_regular(200, 3, 5), 3),
            (generators::hypercube(4), 4),
            (generators::star(5), 5),
            (generators::random_tree(100, 2), 0),
            (generators::petersen_like(), 3),
        ] {
            let delta = if delta == 0 { g.max_degree() } else { delta };
            let c = brooks_color(&g, delta).unwrap();
            check_k_coloring(&g, &c, delta).unwrap();
        }
    }

    #[test]
    fn brooks_exceptions() {
        assert!(brooks_color(&generators::complete(5), 4).is_err());
        assert!(brooks_color(&generators::cycle(5), 2).is_err());
        // But with one extra color they work.
        assert!(brooks_color(&generators::complete(5), 5).is_ok());
        assert!(brooks_color(&generators::cycle(5), 3).is_ok());
    }

    #[test]
    fn brooks_paths_and_even_cycles() {
        let p = generators::path(9);
        let c = brooks_color(&p, 2).unwrap();
        check_k_coloring(&p, &c, 2).unwrap();
        let c6 = generators::cycle(6);
        let c = brooks_color(&c6, 2).unwrap();
        check_k_coloring(&c6, &c, 2).unwrap();
    }

    #[test]
    fn brooks_block_trees() {
        // Gallai trees are exactly the hard block structure; Brooks must
        // still Δ-color them when they are not cliques/odd cycles overall.
        for seed in 0..6 {
            let g = generators::random_gallai_tree(10, 4, seed);
            let delta = g.max_degree();
            if delta < 3 || props::is_clique(&g) || props::is_cycle(&g) || props::is_path(&g) {
                continue;
            }
            let c = brooks_color(&g, delta).unwrap();
            check_k_coloring(&g, &c, delta).unwrap();
        }
    }

    #[test]
    fn repair_on_regular_graphs() {
        for seed in 0..5 {
            let g = generators::random_regular(400, 4, seed);
            let delta = 4;
            let mut c = brooks_color(&g, delta).unwrap();
            let v = NodeId((seed as u32 * 37) % 400);
            c.unset(v);
            let mut ledger = RoundLedger::new();
            let out = repair_single_uncolored(&g, &mut c, v, delta, &mut ledger, "repair").unwrap();
            check_k_coloring(&g, &c, delta).unwrap();
            assert!(
                out.radius <= theorem5_radius(g.n(), delta),
                "radius {}",
                out.radius
            );
            assert!(ledger.total() >= 1);
        }
    }

    #[test]
    fn repair_probe_is_measured_on_the_wire() {
        // A hand-built tight instance (deterministic, unlike sampling a
        // brooks_color output): the star center sees all Δ colors, so
        // the repair must run the engine-backed radius-2 probe — which
        // must leave nonzero measured bits on the ledger.
        let g = generators::star(3);
        let mut c = PartialColoring::new(4);
        c.set(NodeId(1), Color(0));
        c.set(NodeId(2), Color(1));
        c.set(NodeId(3), Color(2));
        assert!(
            c.free_colors(&g, NodeId(0), 3).is_empty(),
            "tight by construction"
        );
        let mut ledger = RoundLedger::new();
        repair_single_uncolored(&g, &mut c, NodeId(0), 3, &mut ledger, "repair").unwrap();
        check_k_coloring(&g, &c, 3).unwrap();
        assert!(ledger.bits_sent() > 0, "probe bits measured");
        assert!(ledger.total() >= 4, "2r engine rounds charged");
    }

    #[test]
    fn repair_uses_free_color_when_available() {
        let g = generators::star(4);
        let mut c = brooks_color(&g, 4).unwrap();
        c.unset(NodeId(1));
        let mut ledger = RoundLedger::new();
        let out = repair_single_uncolored(&g, &mut c, NodeId(1), 4, &mut ledger, "repair").unwrap();
        assert_eq!(out.radius, 0);
        assert_eq!(out.moved, 0);
        check_k_coloring(&g, &c, 4).unwrap();
    }

    #[test]
    fn repair_on_adversarial_tight_coloring() {
        // 3-regular random graph; uncolor a node whose neighbors we
        // forcibly recolor to distinct colors so no free color exists.
        let g = generators::random_regular(300, 3, 9);
        let delta = 3;
        for attempt in 0..10u32 {
            let mut c = brooks_color(&g, delta).unwrap();
            let v = NodeId(attempt * 13 % 300);
            c.unset(v);
            if c.free_colors(&g, v, delta).is_empty() {
                let mut ledger = RoundLedger::new();
                let out =
                    repair_single_uncolored(&g, &mut c, v, delta, &mut ledger, "repair").unwrap();
                check_k_coloring(&g, &c, delta).unwrap();
                assert!(out.moved > 0 || out.used_dcc);
                return;
            }
        }
        // If no tight node found in attempts, the test is vacuous but
        // should not fail; other tests cover the walk.
    }

    #[test]
    fn theorem5_radius_grows_logarithmically() {
        assert!(theorem5_radius(1 << 10, 4) < theorem5_radius(1 << 20, 4));
        assert!(theorem5_radius(1 << 20, 4) <= 2 * theorem5_radius(1 << 10, 4));
        assert!(theorem5_radius(1000, 8) < theorem5_radius(1000, 4));
    }
}
