//! The marking process (Section 2.2 / phase (4) of the randomized
//! algorithm).
//!
//! Every node of the remainder graph `H` selects itself independently
//! with probability `p`; a selected node with another selected node
//! within the backoff distance `b` unselects itself; each surviving
//! selected node picks two non-adjacent neighbors and colors them with
//! the first color. The selected node becomes a **T-node**: it now has
//! two same-colored neighbors, i.e. guaranteed slack ("one free color")
//! whenever it is colored later.
//!
//! The whole process executes on the message-passing engine: the
//! backoff is a [`local_model::run_reach_phase`] flood of selected ids,
//! the neighborhood probe behind the survivor picks is a radius-2
//! [`local_model::run_ball_phase`], and the marks land through a
//! 3-round propose/claim/accept exchange — every round and every bit on
//! the wire is measured, and the whole process is schedule-independent
//! (see `tests/determinism.rs`).
//!
//! Lemma 12 (Δ >= 4, b = 6) and Lemma 14 (Δ = 3, b = 12) show the graph
//! of unmarked nodes still expands, which drives the shattering analysis
//! (Lemmas 22, 23, 30, 31).

use crate::palette::{Color, PartialColoring};
use delta_graphs::{bfs, Graph, NodeId};
use local_model::wire::gamma_bits;
use local_model::{
    run_ball_phase, run_reach_phase, BitReader, BitWriter, Engine, InducedOverlay, Outbox,
    OverlayEngine, RoundDriver, RoundLedger, WireCodec,
};

/// Wire format of the marking process's **mark-placement** rounds
/// (propose / claim / accept) — each message is `O(log n)` bits. The
/// process as a whole is still **LOCAL-only**: its backoff flood
/// executes as an engine-backed [`local_model::run_reach_phase`] whose
/// [`local_model::ReachMsg`] relays batch every selected id crossing an
/// edge (`Θ(Δ^b)` of them, unbounded), and the pick step collects
/// radius-2 [`local_model::BallView`]s — both measured on the wire by
/// the engine, so a trace's heaviest per-edge load for the marking
/// phase is the flood's, not these bounded control messages'.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MkMsg {
    /// Survivor → chosen neighbor: "I propose to mark you".
    Propose,
    /// Proposed node → all neighbors: "my strongest proposer is `id`"
    /// (conflict resolution: of two adjacent proposed nodes, the one
    /// with the smaller proposer keeps its mark).
    Claim(u32),
    /// Accepted mark → its winning proposer: "your mark stuck".
    Accept,
}

impl WireCodec for MkMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            MkMsg::Propose => w.write_bits(0, 2),
            MkMsg::Claim(id) => {
                w.write_bits(1, 2);
                w.write_gamma(*id as u64);
            }
            MkMsg::Accept => w.write_bits(2, 2),
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        match r.read_bits(2)? {
            0 => Some(MkMsg::Propose),
            1 => r.read_gamma_u32().map(MkMsg::Claim),
            2 => Some(MkMsg::Accept),
            _ => None,
        }
    }
    fn encoded_bits(&self) -> u64 {
        match self {
            MkMsg::Propose | MkMsg::Accept => 2,
            MkMsg::Claim(id) => 2 + gamma_bits(*id as u64),
        }
    }
}

/// Parameters of the marking process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkingParams {
    /// Selection probability `p` (paper default `Δ^-b`).
    pub p: f64,
    /// Backoff distance `b` (6 for Δ >= 4, 12 for Δ = 3).
    pub b: usize,
}

impl MarkingParams {
    /// The paper's parameters for the given maximum degree: `b = 6`,
    /// `p = Δ^-6` for `Δ >= 4`; `b = 12`, `p = Δ^-12` for `Δ = 3`
    /// (Section 4.1 and Section 4.4).
    pub fn paper_defaults(delta: usize) -> Self {
        let b = if delta >= 4 { 6 } else { 12 };
        MarkingParams {
            p: (delta.max(2) as f64).powi(-(b as i32)),
            b,
        }
    }

    /// Practically calibrated parameters: same backoff distances, but
    /// `p` scaled to the inverse expected ball size `(Δ-1)^-b` so that a
    /// constant fraction of selections survives the backoff at feasible
    /// `n` (the paper's constants are asymptotic; see README.md,
    /// "Substitutions for the paper's constructions").
    pub fn calibrated(delta: usize) -> Self {
        let b = if delta >= 4 { 6 } else { 12 };
        let base = (delta.max(3) - 1) as f64;
        MarkingParams {
            p: base.powi(-(b as i32)).min(0.05),
            b,
        }
    }
}

/// Result of the marking process.
#[derive(Debug, Clone)]
pub struct MarkingOutcome {
    /// Surviving selected nodes (the T-nodes), each with its two marked
    /// neighbors.
    pub t_nodes: Vec<TNode>,
    /// Mask of marked nodes (colored with [`Color::FIRST`]).
    pub marked: Vec<bool>,
    /// How many nodes initially selected themselves (before backoff).
    pub initially_selected: usize,
}

/// A T-node with its two (non-adjacent) marked neighbors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TNode {
    /// The selected node.
    pub node: NodeId,
    /// First marked neighbor.
    pub m1: NodeId,
    /// Second marked neighbor.
    pub m2: NodeId,
}

/// Per-node state of the mark-placement rounds.
#[derive(Clone, Default)]
struct ResState {
    pick: Option<(NodeId, NodeId)>,
    /// Smallest id among the survivors that proposed to mark me.
    proposer: Option<u32>,
    marked: bool,
    accepted: (bool, bool),
}

/// One no-traffic selection round: every node privately flips its
/// selection coin from its driver rng stream.
fn selection_round<DR: RoundDriver<bool>>(
    mut driver: DR,
    p: f64,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Vec<bool> {
    driver.round_step(
        ledger,
        phase,
        |ctx, s: &mut bool, _out: &mut Outbox<MkMsg>| {
            if ctx.random_f64() < p {
                *s = true;
            }
        },
        |_, _, _| {},
    );
    driver.into_node_states()
}

/// Rounds b+4..=b+6: the 3-round propose/claim/accept mark placement
/// (see [`marking_process`] docs), generic over the round driver.
fn placement_rounds<DR: RoundDriver<ResState>>(
    mut driver: DR,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Vec<ResState> {
    driver.round_step(
        ledger,
        phase,
        |_, s: &mut ResState, out: &mut Outbox<MkMsg>| {
            if let Some((m1, m2)) = s.pick {
                out.send_to(m1, MkMsg::Propose);
                out.send_to(m2, MkMsg::Propose);
            }
        },
        |_, s, inbox| {
            for &(w, ref m) in inbox {
                if matches!(m, MkMsg::Propose) {
                    s.proposer = Some(s.proposer.map_or(w.0, |q| q.min(w.0)));
                }
            }
        },
    );
    driver.round_step(
        ledger,
        phase,
        |_, s: &mut ResState, out: &mut Outbox<MkMsg>| {
            if let Some(q) = s.proposer {
                out.broadcast(MkMsg::Claim(q));
            }
        },
        |_, s, inbox| {
            if let Some(mine) = s.proposer {
                // Adjacent claims never tie: one survivor's two picks
                // are non-adjacent by construction.
                let lost = inbox
                    .iter()
                    .any(|(_, m)| matches!(m, MkMsg::Claim(q) if *q < mine));
                s.marked = !lost;
            }
        },
    );
    driver.round_step(
        ledger,
        phase,
        |_, s: &mut ResState, out: &mut Outbox<MkMsg>| {
            if s.marked {
                out.send_to(
                    NodeId(s.proposer.expect("marked nodes were proposed")),
                    MkMsg::Accept,
                );
            }
        },
        |_, s, inbox| {
            if let Some((m1, m2)) = s.pick {
                for &(w, ref m) in inbox {
                    if matches!(m, MkMsg::Accept) {
                        if w == m1 {
                            s.accepted.0 = true;
                        }
                        if w == m2 {
                            s.accepted.1 = true;
                        }
                    }
                }
            }
        },
    );
    driver.into_node_states()
}

/// Runs the marking process on the remainder graph, writing
/// [`Color::FIRST`] into `coloring` for marked nodes.
///
/// The remainder graph is `g` itself (`members == None`) or its
/// **induced subgraph** `G[members]`, executed through the
/// [`InducedOverlay`] on the host engine: non-members send and receive
/// nothing, so the backoff flood, the radius-2 pick collection, and the
/// propose/claim/accept placement all run as real host-graph rounds
/// with measured bits — this is how the randomized driver executes its
/// phase (4). Under a mask all ids — the outcome's T-nodes and marks,
/// and the `coloring` (which must have one slot per member) — live in
/// the member-rank space, identical to a materialized
/// `g.induced(members)` run.
///
/// # Example
///
/// ```
/// use delta_coloring::marking::{check_marking, marking_process, MarkingParams};
/// use delta_coloring::palette::PartialColoring;
/// use delta_graphs::generators;
/// use local_model::RoundLedger;
///
/// let h = generators::random_regular(500, 4, 1);
/// let mut coloring = PartialColoring::new(h.n());
/// let mut ledger = RoundLedger::new();
/// let out = marking_process(
///     &h,
///     None,
///     MarkingParams { p: 0.01, b: 6 },
///     42,
///     &mut coloring,
///     &mut ledger,
///     "marking",
/// );
/// assert!(check_marking(&h, &out, 6));
/// // Every T-node now has two same-colored neighbors: guaranteed slack.
/// for t in &out.t_nodes {
///     assert!(coloring.has_repeated_neighbor_color(&h, t.node));
/// }
/// ```
///
/// LOCAL cost, all engine-executed and measured: 1 round to select,
/// `b` rounds of backoff flood ([`local_model::run_reach_phase`]),
/// 2 rounds of radius-2 ball collection for the survivor picks
/// ([`local_model::run_ball_phase`]), and 3 rounds of
/// propose / claim / accept mark placement — `b + 6` rounds charged to
/// `phase`, with nonzero `bits_sent` whenever anything was selected.
pub fn marking_process(
    g: &Graph,
    members: Option<&[bool]>,
    params: MarkingParams,
    seed: u64,
    coloring: &mut PartialColoring,
    ledger: &mut RoundLedger,
    phase: &str,
) -> MarkingOutcome {
    let p = params.p;
    // Round 1: every node privately flips its selection coin (no
    // traffic; the draw comes from the node's engine rng stream).
    let selected = match members {
        None => selection_round(
            local_model::compile(Engine::new(g, seed, |_| false)),
            p,
            ledger,
            phase,
        ),
        Some(m) => selection_round(
            local_model::compile(OverlayEngine::new(
                g,
                InducedOverlay { members: m },
                seed,
                |_| false,
            )),
            p,
            ledger,
            phase,
        ),
    };
    let initially_selected = selected.iter().filter(|&&s| s).count();

    // Rounds 2..=b+1: backoff — selected ids flood `b` hops; a selected
    // node survives only if it hears no competitor.
    let survivor: Vec<bool> = run_reach_phase(
        g,
        members,
        0,
        params.b,
        |v| selected[v.index()].then_some(()),
        |v| (v.0, false),
        |acc: &mut (u32, bool), id, _dist, _: &()| {
            if id != acc.0 {
                acc.1 = true;
            }
        },
        |ctx, acc| selected[ctx.id.index()] && !acc.1,
        ledger,
        phase,
    );

    // Rounds b+2..=b+3: radius-2 ball collection; each survivor picks
    // two random non-adjacent uncolored neighbors with its private rng.
    // Pair adjacency is exactly radius-2 knowledge, delivered by the
    // collected view's edge certificates.
    let pick_payload = |v: NodeId| coloring.is_colored(v);
    let pick_rule = |ctx: &mut local_model::NodeCtx<'_>,
                     view: &local_model::BallView<bool>|
     -> Option<(NodeId, NodeId)> {
        if !survivor[ctx.id.index()] {
            return None;
        }
        let nbrs: Vec<u32> = view
            .members
            .iter()
            .zip(&view.dist)
            .zip(&view.payloads)
            .filter(|((_, &d), &colored)| d == 1 && !colored)
            .map(|((&id, _), _)| id)
            .collect();
        let mut pairs = Vec::new();
        for (i, &a) in nbrs.iter().enumerate() {
            for &b2 in &nbrs[i + 1..] {
                if view.edges.binary_search(&(a.min(b2), a.max(b2))).is_err() {
                    pairs.push((a, b2));
                }
            }
        }
        if pairs.is_empty() {
            return None; // neighborhood is a clique: no T-node here
        }
        let (m1, m2) = pairs[ctx.random_below(pairs.len() as u64) as usize];
        Some((NodeId(m1), NodeId(m2)))
    };
    let pick_seed = seed ^ 0x9e37_79b9_7f4a_7c15;
    let picks: Vec<Option<(NodeId, NodeId)>> = run_ball_phase(
        g,
        members,
        pick_seed,
        2,
        pick_payload,
        pick_rule,
        ledger,
        phase,
    );

    // Rounds b+4..=b+6: conflict-free mark placement. For the paper's
    // b >= 4 survivors are too far apart for their picks to interact and
    // every proposal is accepted unopposed; the resolution keeps the
    // marked set independent (hence the coloring proper) under ablation
    // backoffs b < 4 too: of two adjacent proposed marks, the one whose
    // strongest (smallest-id) proposer is smaller keeps its mark.
    let res_init = |v: NodeId| ResState {
        pick: picks[v.index()],
        ..Default::default()
    };
    let states = match members {
        None => placement_rounds(
            local_model::compile(Engine::new(g, seed ^ 0x5151, res_init)),
            ledger,
            phase,
        ),
        Some(m) => placement_rounds(
            local_model::compile(OverlayEngine::new(
                g,
                InducedOverlay { members: m },
                seed ^ 0x5151,
                res_init,
            )),
            ledger,
            phase,
        ),
    };
    let marked: Vec<bool> = states.iter().map(|s| s.marked).collect();
    let t_nodes: Vec<TNode> = states
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s.pick {
            Some((m1, m2)) if s.accepted == (true, true) => Some(TNode {
                node: NodeId::from_index(i),
                m1,
                m2,
            }),
            _ => None,
        })
        .collect();
    for (i, &m) in marked.iter().enumerate() {
        if m {
            coloring.set(NodeId::from_index(i), Color::FIRST);
        }
    }
    MarkingOutcome {
        t_nodes,
        marked,
        initially_selected,
    }
}

/// Validates the postconditions of the marking process (test/bench
/// helper): marked nodes are properly colored with the first color and
/// pairwise non-adjacent; every T-node has its two marked neighbors
/// non-adjacent; surviving T-nodes are pairwise farther than `b`.
pub fn check_marking(h: &Graph, out: &MarkingOutcome, b: usize) -> bool {
    for (u, v) in h.edges() {
        if out.marked[u.index()] && out.marked[v.index()] {
            return false;
        }
    }
    for t in &out.t_nodes {
        if h.has_edge(t.m1, t.m2) || !h.has_edge(t.node, t.m1) || !h.has_edge(t.node, t.m2) {
            return false;
        }
        if !out.marked[t.m1.index()] || !out.marked[t.m2.index()] {
            return false;
        }
    }
    for (i, t) in out.t_nodes.iter().enumerate() {
        let d = bfs::distances(h, t.node);
        for t2 in &out.t_nodes[i + 1..] {
            if (d[t2.node.index()] as usize) <= b {
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
    fn paper_defaults_match_section_4() {
        let p4 = MarkingParams::paper_defaults(4);
        assert_eq!(p4.b, 6);
        assert!((p4.p - 4f64.powi(-6)).abs() < 1e-12);
        let p3 = MarkingParams::paper_defaults(3);
        assert_eq!(p3.b, 12);
    }

    #[test]
    fn marking_postconditions_hold() {
        let g = generators::random_regular(2000, 4, 3);
        let params = MarkingParams { p: 0.01, b: 6 };
        let mut coloring = PartialColoring::new(g.n());
        let mut ledger = RoundLedger::new();
        let out = marking_process(&g, None, params, 1, &mut coloring, &mut ledger, "mark");
        assert!(check_marking(&g, &out, 6));
        // 1 select + b flood + 2 ball + 3 placement rounds, all engine
        // rounds with measured traffic.
        assert_eq!(ledger.total(), 6 + 6);
        assert!(ledger.bits_sent() > 0);
        assert!(ledger.max_edge_bits() > 0);
        // Marked nodes carry the first color.
        for t in &out.t_nodes {
            assert_eq!(coloring.get(t.m1), Some(Color::FIRST));
            assert_eq!(coloring.get(t.m2), Some(Color::FIRST));
            assert!(!coloring.is_colored(t.node));
        }
    }

    #[test]
    fn high_p_still_respects_backoff() {
        let g = generators::random_regular(500, 3, 7);
        let params = MarkingParams { p: 0.5, b: 12 };
        let mut coloring = PartialColoring::new(g.n());
        let mut ledger = RoundLedger::new();
        let out = marking_process(&g, None, params, 2, &mut coloring, &mut ledger, "mark");
        assert!(check_marking(&g, &out, 12));
        // With p = 0.5 on 500 nodes and b = 12, backoff kills almost
        // everything (expected survivors ~ 0).
        assert!(out.initially_selected > 100);
    }

    #[test]
    fn clique_neighborhoods_produce_no_t_nodes() {
        let g = generators::complete(6);
        let params = MarkingParams { p: 1.0, b: 0 };
        let mut coloring = PartialColoring::new(g.n());
        let mut ledger = RoundLedger::new();
        // b = 0: backoff never unselects; but neighborhoods are cliques,
        // so no non-adjacent pair exists.
        let out = marking_process(&g, None, params, 3, &mut coloring, &mut ledger, "mark");
        assert!(out.t_nodes.is_empty());
        assert_eq!(coloring.colored_count(), 0);
    }

    #[test]
    fn t_nodes_give_slack() {
        // On a long even cycle, a T-node's two marked neighbors share a
        // color, so the T-node always retains a free color in a
        // Δ=2...3-palette scenario.
        let g = generators::cycle(40);
        let params = MarkingParams { p: 0.2, b: 4 };
        let mut coloring = PartialColoring::new(g.n());
        let mut ledger = RoundLedger::new();
        let out = marking_process(&g, None, params, 5, &mut coloring, &mut ledger, "mark");
        for t in &out.t_nodes {
            assert!(coloring.has_repeated_neighbor_color(&g, t.node));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::random_regular(400, 4, 11);
        let run = |seed| {
            let mut coloring = PartialColoring::new(g.n());
            let mut ledger = RoundLedger::new();
            let out = marking_process(
                &g,
                None,
                MarkingParams { p: 0.02, b: 6 },
                seed,
                &mut coloring,
                &mut ledger,
                "mark",
            );
            out.t_nodes
        };
        assert_eq!(run(9), run(9));
    }
}
