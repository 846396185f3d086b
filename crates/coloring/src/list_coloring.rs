//! Distributed `(deg+1)`-list coloring.
//!
//! Every node has a color list with `|L(v)| >= deg(v) + 1`; the goal is
//! a proper coloring from the lists. This is the workhorse the layering
//! technique calls once per layer (Sections 3 and 4.1 of the paper).
//!
//! Two solvers are provided (see README.md, "Substitutions for the
//! paper's constructions", for the rationale):
//!
//! * [`list_color_randomized`] — each round, every uncolored node
//!   proposes a uniformly random available color and keeps it unless a
//!   conflicting neighbor with smaller id proposed the same color.
//!   `O(log n)` rounds w.h.p., with guaranteed termination (the minimum
//!   uncolored id always makes progress). Stand-in for Theorem 19
//!   \[Gha16\].
//! * [`list_color_deterministic`] — iterate over the classes of a
//!   proper schedule coloring (from Linial's algorithm): class members
//!   are independent, so each class can pick greedily in one round.
//!   `O(Δ² + log* n)` rounds. Stand-in for Theorem 18 \[FHK16+BEG17\].

use crate::palette::{Color, ColoringError, Lists, PartialColoring};
use delta_graphs::{Graph, NodeId};
use local_model::{
    BitReader, BitWriter, Engine, InducedOverlay, Outbox, OverlayEngine, RoundDriver, RoundLedger,
    WireCodec,
};

/// Which list-coloring engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListColorMethod {
    /// Randomized trial coloring (Theorem 19 stand-in).
    Randomized,
    /// Deterministic schedule-class iteration (Theorem 18 stand-in).
    Deterministic,
}

/// Solves a `(deg+1)`-list-coloring instance on `g` with the chosen
/// method, starting from `partial` (already-colored nodes are kept and
/// constrain their neighbors).
///
/// # Errors
///
/// Returns [`ColoringError::Unsolvable`] if some node runs out of
/// available colors — impossible when the `(deg+1)` precondition holds
/// on the uncolored subgraph, so an error indicates a malformed
/// instance.
pub fn list_color(
    g: &Graph,
    lists: &Lists,
    partial: PartialColoring,
    method: ListColorMethod,
    seed: u64,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Result<PartialColoring, ColoringError> {
    match method {
        ListColorMethod::Randomized => {
            list_color_randomized(g, None, lists, partial, seed, ledger, phase)
        }
        ListColorMethod::Deterministic => {
            list_color_deterministic(g, lists, partial, ledger, phase)
        }
    }
}

/// Per-node state of the randomized trial-coloring node program.
#[derive(Debug, Clone)]
struct LcState {
    /// Final color, once kept.
    color: Option<Color>,
    /// Whether `color` has been broadcast to the neighbors yet.
    announced: bool,
    /// This round's proposal (redrawn whenever it fails).
    proposal: Option<Color>,
    /// Colors announced by neighbors so far (sorted).
    used: Vec<Color>,
    /// Set when the available list empties: unsolvable instance.
    stuck: bool,
}

/// Messages of the randomized trial-coloring node program. One tag bit
/// plus one gamma-coded color — `O(log palette)` bits, so the
/// substrate is CONGEST-feasible whenever the lists are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LcMsg {
    /// "I try to take this color this round."
    Propose(Color),
    /// "I permanently hold this color."
    Colored(Color),
}

impl WireCodec for LcMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            LcMsg::Propose(c) => {
                w.write_bool(false);
                c.encode(w);
            }
            LcMsg::Colored(c) => {
                w.write_bool(true);
                c.encode(w);
            }
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        let colored = r.read_bool()?;
        let c = Color::decode(r)?;
        Some(if colored {
            LcMsg::Colored(c)
        } else {
            LcMsg::Propose(c)
        })
    }
    fn encoded_bits(&self) -> u64 {
        let (LcMsg::Propose(c) | LcMsg::Colored(c)) = self;
        1 + c.encoded_bits()
    }
}

/// Randomized trial list coloring on the message-passing engine; see
/// module docs.
///
/// One engine round per trial: uncolored nodes broadcast a proposal
/// drawn uniformly from their available colors (list minus every color
/// a neighbor has announced); a proposal survives unless a smaller-id
/// neighbor proposed the same color or a neighbor announced it this
/// very round. Keepers announce their color in the next round. At least
/// one node is colored every two rounds, so the `4n + 16` round cap is
/// only reachable on malformed instances.
///
/// With `members == Some(mask)` the instance is the **induced
/// subgraph** `G[members]`, executed through the `InducedOverlay` on
/// the host engine: the trial rounds are real host rounds in which
/// non-members stay silent. Ids (`lists`, `coloring`, the result) then
/// live in the member-rank space — identical to a materialized
/// `g.induced(members)` run. This is how the layering technique colors
/// its per-layer todo subgraphs without materializing them.
///
/// # Errors
///
/// [`ColoringError::Unsolvable`] when a node's available list empties
/// (malformed instance).
pub fn list_color_randomized(
    g: &Graph,
    members: Option<&[bool]>,
    lists: &Lists,
    coloring: PartialColoring,
    seed: u64,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Result<PartialColoring, ColoringError> {
    if coloring.uncolored().next().is_none() {
        return Ok(coloring);
    }
    let init = |v: NodeId| LcState {
        color: coloring.get(v),
        announced: false,
        proposal: None,
        used: Vec::new(),
        stuck: false,
    };
    match members {
        None => {
            let engine = local_model::compile(Engine::new(g, seed, init));
            let out = list_color_randomized_core(engine, lists, coloring, ledger, phase)?;
            debug_assert!(out.validate_proper(g).is_ok());
            Ok(out)
        }
        Some(members) => {
            let engine = local_model::compile(OverlayEngine::new(
                g,
                InducedOverlay { members },
                seed,
                init,
            ));
            list_color_randomized_core(engine, lists, coloring, ledger, phase)
        }
    }
}

/// The trial-coloring loop, generic over the round driver.
fn list_color_randomized_core<DR: RoundDriver<LcState>>(
    mut engine: DR,
    lists: &Lists,
    mut coloring: PartialColoring,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Result<PartialColoring, ColoringError> {
    let cap = 4 * engine.node_count() as u64 + 16;
    let mut rounds = 0u64;
    while engine.node_states().iter().any(|s| s.color.is_none()) {
        if rounds >= cap {
            return Err(ColoringError::Unsolvable {
                context: "randomized list coloring exceeded round cap".into(),
            });
        }
        rounds += 1;
        engine.round_step(
            ledger,
            phase,
            |ctx, s: &mut LcState, out: &mut Outbox<LcMsg>| {
                if let Some(c) = s.color {
                    if !s.announced {
                        out.broadcast(LcMsg::Colored(c));
                        s.announced = true;
                    }
                    return;
                }
                if s.proposal.is_none() {
                    let avail: Vec<Color> = lists
                        .of(ctx.id)
                        .iter()
                        .copied()
                        .filter(|c| s.used.binary_search(c).is_err())
                        .collect();
                    if avail.is_empty() {
                        s.stuck = true;
                        return;
                    }
                    s.proposal = Some(avail[ctx.random_below(avail.len() as u64) as usize]);
                }
                out.broadcast(LcMsg::Propose(s.proposal.expect("drawn above")));
            },
            |ctx, s, inbox| {
                if s.color.is_some() {
                    return;
                }
                let mut beaten = false;
                for &(w, msg) in inbox {
                    match msg {
                        LcMsg::Colored(c) => {
                            if let Err(at) = s.used.binary_search(&c) {
                                s.used.insert(at, c);
                            }
                            if s.proposal == Some(c) {
                                beaten = true;
                            }
                        }
                        LcMsg::Propose(c) => {
                            if s.proposal == Some(c) && w < ctx.id {
                                beaten = true;
                            }
                        }
                    }
                }
                match s.proposal.take() {
                    Some(p) if !beaten => {
                        s.color = Some(p);
                    }
                    _ => {} // redraw next round
                }
            },
        );
        if let Some(i) = engine.node_states().iter().position(|s| s.stuck) {
            return Err(ColoringError::Unsolvable {
                context: format!("node {} has an empty available list", NodeId::from_index(i)),
            });
        }
    }
    for (i, s) in engine.node_states().iter().enumerate() {
        let v = NodeId::from_index(i);
        if !coloring.is_colored(v) {
            coloring.set(v, s.color.expect("loop exits only when total"));
        }
    }
    Ok(coloring)
}

/// Deterministic list coloring by schedule-class iteration; computes a
/// Linial schedule coloring internally. See module docs.
///
/// # Errors
///
/// [`ColoringError::Unsolvable`] when a node's available list empties
/// (malformed instance).
pub fn list_color_deterministic(
    g: &Graph,
    lists: &Lists,
    mut coloring: PartialColoring,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Result<PartialColoring, ColoringError> {
    let schedule = crate::linial::linial_coloring(g, ledger, phase);
    let classes = crate::reduce::color_classes(&schedule);
    for class in &classes {
        let picks: Vec<(NodeId, Color)> = {
            let mut out = Vec::new();
            for &v in class {
                if coloring.is_colored(v) {
                    continue;
                }
                let avail = available(g, lists, &coloring, v);
                let Some(&c) = avail.first() else {
                    return Err(ColoringError::Unsolvable {
                        context: format!("node {v} has an empty available list"),
                    });
                };
                out.push((v, c));
            }
            out
        };
        for &(v, c) in &picks {
            coloring.set(v, c);
        }
        ledger.charge(phase, 1);
    }
    debug_assert!(coloring.validate_proper(g).is_ok());
    Ok(coloring)
}

/// The available colors of `v`: its list minus the colors of its
/// *colored* neighbors.
pub fn available(g: &Graph, lists: &Lists, coloring: &PartialColoring, v: NodeId) -> Vec<Color> {
    let used = coloring.neighbor_colors(g, v);
    lists
        .of(v)
        .iter()
        .copied()
        .filter(|c| used.binary_search(c).is_err())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::check_list_coloring;
    use delta_graphs::generators;

    fn deg_plus_one_lists(g: &Graph, extra: usize) -> Lists {
        Lists::new(
            g.nodes()
                .map(|v| crate::palette::palette(g.degree(v) + 1 + extra))
                .collect(),
        )
    }

    #[test]
    fn randomized_solves_deg_plus_one() {
        for (i, g) in [
            generators::random_regular(300, 4, 3),
            generators::torus(7, 8),
            generators::random_tree(200, 2),
            generators::complete(6),
        ]
        .iter()
        .enumerate()
        {
            let lists = deg_plus_one_lists(g, 0);
            let mut ledger = RoundLedger::new();
            let c = list_color_randomized(
                g,
                None,
                &lists,
                PartialColoring::new(g.n()),
                i as u64,
                &mut ledger,
                "lc",
            )
            .unwrap();
            check_list_coloring(g, &c, &lists).unwrap();
            assert!(ledger.total() < 100, "rounds {}", ledger.total());
        }
    }

    #[test]
    fn deterministic_solves_deg_plus_one() {
        for g in [
            generators::random_regular(300, 4, 5),
            generators::torus(7, 8),
            generators::hypercube(5),
        ] {
            let lists = deg_plus_one_lists(&g, 0);
            let mut ledger = RoundLedger::new();
            let c = list_color_deterministic(
                &g,
                &lists,
                PartialColoring::new(g.n()),
                &mut ledger,
                "lc",
            )
            .unwrap();
            check_list_coloring(&g, &c, &lists).unwrap();
        }
    }

    #[test]
    fn respects_existing_partial_coloring() {
        let g = generators::cycle(8);
        let lists = deg_plus_one_lists(&g, 0);
        let mut partial = PartialColoring::new(8);
        partial.set(NodeId(0), Color(2));
        partial.set(NodeId(4), Color(1));
        let mut ledger = RoundLedger::new();
        let c = list_color(
            &g,
            &lists,
            partial,
            ListColorMethod::Randomized,
            9,
            &mut ledger,
            "lc",
        )
        .unwrap();
        assert_eq!(c.get(NodeId(0)), Some(Color(2)));
        assert_eq!(c.get(NodeId(4)), Some(Color(1)));
        check_list_coloring(&g, &c, &lists).unwrap();
    }

    #[test]
    fn heterogeneous_lists() {
        // Path with disjoint-ish lists still deg+1.
        let g = generators::path(4);
        let lists = Lists::new(vec![
            vec![Color(0), Color(9)],
            vec![Color(0), Color(5), Color(9)],
            vec![Color(5), Color(7), Color(9)],
            vec![Color(7), Color(9)],
        ]);
        assert!(lists.satisfies_deg_plus_one(&g));
        for method in [ListColorMethod::Randomized, ListColorMethod::Deterministic] {
            let mut ledger = RoundLedger::new();
            let c = list_color(
                &g,
                &lists,
                PartialColoring::new(4),
                method,
                1,
                &mut ledger,
                "lc",
            )
            .unwrap();
            check_list_coloring(&g, &c, &lists).unwrap();
        }
    }

    #[test]
    fn unsolvable_instance_is_reported() {
        // Two adjacent nodes with identical singleton lists.
        let g = generators::path(2);
        let lists = Lists::new(vec![vec![Color(0)], vec![Color(0)]]);
        let mut ledger = RoundLedger::new();
        let r = list_color_randomized(
            &g,
            None,
            &lists,
            PartialColoring::new(2),
            0,
            &mut ledger,
            "lc",
        );
        assert!(r.is_err());
    }

    #[test]
    fn empty_graph_trivially_colored() {
        let g = Graph::empty(0);
        let lists = Lists::new(vec![]);
        let mut ledger = RoundLedger::new();
        let c = list_color_randomized(
            &g,
            None,
            &lists,
            PartialColoring::new(0),
            0,
            &mut ledger,
            "lc",
        )
        .unwrap();
        assert!(c.is_total());
        assert_eq!(ledger.total(), 0);
    }

    use delta_graphs::Graph;
}
