//! Luby's randomized maximal independent set, including execution on
//! power graphs (the substrate of randomized ruling sets, Lemma 20).
//!
//! The iteration body is written once against
//! [`local_model::RoundDriver`], so the same program runs on the host
//! graph ([`luby_mis`]) and on `G^k` through the [`PowerOverlay`]
//! ([`luby_mis_on_power`] — `k` measured relay rounds per virtual
//! round, nothing materialized).

use delta_graphs::{Graph, NodeId};
use local_model::wire::gamma_bits;
use local_model::{
    BitReader, BitWriter, Engine, Outbox, OverlayEngine, PowerOverlay, RoundDriver, RoundLedger,
    WireCodec,
};

/// Node status during and after MIS computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MisState {
    Undecided,
    In,
    Out,
}

/// Wire format of Luby's MIS. Draws come from a `min(n³, 2⁶⁰)`-sized
/// domain — `O(log n)` random bits, as in CONGEST formulations of Luby;
/// the sender id breaks the (1/n-probability per pair per round) ties
/// deterministically — so every message is `O(log n)` bits and the
/// substrate is CONGEST-feasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisMsg {
    /// Round 1: "my fresh random draw (with my id as tiebreak)".
    Draw {
        /// The random value, drawn from `[0, draw_domain(n))`.
        value: u64,
        /// Sender id, the deterministic tiebreak.
        tiebreak: u32,
    },
    /// Round 2: "I joined the MIS".
    Joined,
}

/// Size of the per-round random-draw domain for an `n`-node graph:
/// `n³` capped at `2⁶⁰` (collisions are broken by id, so the cap only
/// affects astronomically large graphs).
pub fn draw_domain(n: u64) -> u64 {
    n.max(2).saturating_pow(3).min(1 << 60)
}

impl WireCodec for MisMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            MisMsg::Draw { value, tiebreak } => {
                w.write_bool(false);
                w.write_gamma(*value);
                w.write_gamma(*tiebreak as u64);
            }
            MisMsg::Joined => w.write_bool(true),
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        match r.read_bool()? {
            false => Some(MisMsg::Draw {
                value: r.read_gamma()?,
                tiebreak: r.read_gamma_u32()?,
            }),
            true => Some(MisMsg::Joined),
        }
    }
    fn encoded_bits(&self) -> u64 {
        match self {
            MisMsg::Draw { value, tiebreak } => {
                1 + gamma_bits(*value) + gamma_bits(*tiebreak as u64)
            }
            MisMsg::Joined => 1,
        }
    }
}

#[derive(Clone, Copy)]
struct S {
    state: MisState,
    /// Random draw, with the node id as a deterministic tie-breaker.
    draw: (u64, u32),
}

/// Computes a maximal independent set with Luby's algorithm on the
/// message-passing engine.
///
/// Per iteration (2 LOCAL rounds): every undecided node draws a fresh
/// random value from its private stream and broadcasts it; strict local
/// minima join the set; new members announce themselves and their
/// neighbors drop out. Terminates in `O(log n)` iterations w.h.p.; a
/// deterministic greedy cleanup guarantees termination in the
/// (vanishing-probability) event the iteration cap is hit.
///
/// Returns the membership mask.
///
/// # Example
///
/// ```
/// use delta_coloring::mis::{is_mis, luby_mis};
/// use delta_graphs::generators;
/// use local_model::RoundLedger;
///
/// let g = generators::cycle(10);
/// let mut ledger = RoundLedger::new();
/// let mis = luby_mis(&g, 7, &mut ledger, "mis");
/// assert!(is_mis(&g, &mis));
/// ```
pub fn luby_mis(g: &Graph, seed: u64, ledger: &mut RoundLedger, phase: &str) -> Vec<bool> {
    let engine = local_model::compile(Engine::new(g, seed, |v| S {
        state: MisState::Undecided,
        draw: (0, v.0),
    }));
    let engine = luby_core(engine, ledger, phase);
    // Deterministic cleanup (unreachable w.h.p.): greedily add remaining
    // undecided nodes in id order.
    let mut member: Vec<bool> = engine
        .node_states()
        .iter()
        .map(|s| s.state == MisState::In)
        .collect();
    for v in g.nodes() {
        if engine.node_states()[v.index()].state == MisState::Undecided
            && !g.neighbors(v).iter().any(|&w| member[w.index()])
        {
            member[v.index()] = true;
        }
    }
    member
}

/// The Luby iteration, written once against [`RoundDriver`]: the same
/// node program runs on the host engine and on virtual-topology
/// overlays. Returns the driver after the loop so callers can run
/// their topology-appropriate deterministic cleanup.
fn luby_core<DR: RoundDriver<S>>(mut engine: DR, ledger: &mut RoundLedger, phase: &str) -> DR {
    let n = engine.node_count();
    let cap = 8 * ((n as u64).max(2).ilog2() as u64 + 2) + 64;
    let mut iterations = 0;
    while engine
        .node_states()
        .iter()
        .any(|s| s.state == MisState::Undecided)
        && iterations < cap
    {
        iterations += 1;
        // Round 1: undecided nodes draw fresh values (a local
        // computation, free in the LOCAL model) and exchange them;
        // strict local minima join. The draw domain is n³ — O(log n)
        // wire bits. The vendored Lemire reduction is an
        // order-preserving compression of the raw u64 stream, so the
        // decisions match a full-width draw except when two neighbors
        // collide in the n³ domain (~n⁻³ per pair per round) and the id
        // tiebreak picks the other winner — still a valid MIS.
        let domain = draw_domain(n as u64);
        engine.round_step(
            ledger,
            phase,
            |ctx, s: &mut S, out: &mut Outbox<MisMsg>| {
                if s.state == MisState::Undecided {
                    s.draw.0 = ctx.random_below(domain);
                    out.broadcast(MisMsg::Draw {
                        value: s.draw.0,
                        tiebreak: s.draw.1,
                    });
                }
            },
            |_, s, inbox| {
                if s.state != MisState::Undecided {
                    return; // decided nodes skip the O(degree) scan
                }
                let beaten = inbox.iter().any(|&(_, m)| match m {
                    MisMsg::Draw { value, tiebreak } => (value, tiebreak) <= s.draw,
                    MisMsg::Joined => unreachable!("round 1 carries draws only"),
                });
                if !beaten {
                    s.state = MisState::In;
                }
            },
        );
        // Round 2: new members announce; neighbors drop out.
        engine.round_step(
            ledger,
            phase,
            |_, s: &mut S, out: &mut Outbox<MisMsg>| {
                if s.state == MisState::In {
                    out.broadcast(MisMsg::Joined);
                }
            },
            |_, s, inbox| {
                if s.state == MisState::Undecided && !inbox.is_empty() {
                    s.state = MisState::Out;
                }
            },
        );
    }
    engine
}

/// Runs Luby's MIS on the power graph `G^k` **through the host engine**
/// ([`PowerOverlay`]): one virtual round executes as `k` measured relay
/// rounds of `G`, so the ledger is charged the true dilated cost — and
/// nothing is materialized (`power_graph` is only the proptest oracle
/// this execution is proven id-for-id equal to).
///
/// The result is an independent set of `G^k` (pairwise distance `> k` in
/// `G`) that dominates every node within distance `k` — i.e. a
/// `(k+1, k)` ruling set of `G` (Lemma 20 (4) in spirit).
pub fn luby_mis_on_power(
    g: &Graph,
    k: usize,
    seed: u64,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Vec<bool> {
    assert!(k >= 1);
    if k == 1 {
        return luby_mis(g, seed, ledger, phase);
    }
    let engine = OverlayEngine::new(g, PowerOverlay { k }, seed, |v| S {
        state: MisState::Undecided,
        draw: (0, v.0),
    });
    let engine = luby_core(local_model::compile(engine), ledger, phase);
    // Every host node is a member, so ranks coincide with host ids.
    let mut member: Vec<bool> = engine
        .node_states()
        .iter()
        .map(|s| s.state == MisState::In)
        .collect();
    // Deterministic cleanup (unreachable w.h.p.), on *virtual*
    // adjacency: greedily add remaining undecided nodes in id order.
    for v in g.nodes() {
        if engine.node_states()[v.index()].state == MisState::Undecided
            && !engine
                .inner()
                .virtual_neighbors(v)
                .iter()
                .any(|&w| member[w.index()])
        {
            member[v.index()] = true;
        }
    }
    member
}

/// Verifies the MIS properties: independence and maximality.
pub fn is_mis(g: &Graph, member: &[bool]) -> bool {
    let independent = g
        .edges()
        .all(|(u, v)| !(member[u.index()] && member[v.index()]));
    let maximal = g
        .nodes()
        .all(|v| member[v.index()] || g.neighbors(v).iter().any(|&w| member[w.index()]));
    independent && maximal
}

/// Collects the member node ids from a membership mask.
pub fn members(mask: &[bool]) -> Vec<NodeId> {
    mask.iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(i, _)| NodeId::from_index(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_graphs::generators;

    #[test]
    fn mis_on_families() {
        for (i, g) in [
            generators::cycle(20),
            generators::torus(6, 6),
            generators::random_regular(300, 4, 5),
            generators::complete(7),
            generators::star(9),
            generators::path(2),
        ]
        .iter()
        .enumerate()
        {
            let mut ledger = RoundLedger::new();
            let m = luby_mis(g, i as u64, &mut ledger, "mis");
            assert!(is_mis(g, &m), "family {i}");
            assert!(ledger.total() > 0);
        }
    }

    #[test]
    fn mis_round_count_logarithmic() {
        let g = generators::random_regular(2000, 6, 1);
        let mut ledger = RoundLedger::new();
        let m = luby_mis(&g, 3, &mut ledger, "mis");
        assert!(is_mis(&g, &m));
        assert!(ledger.total() < 120, "rounds {}", ledger.total());
    }

    #[test]
    fn mis_on_power_graph_separation() {
        let g = generators::cycle(30);
        let mut ledger = RoundLedger::new();
        let m = luby_mis_on_power(&g, 3, 9, &mut ledger, "ruling");
        let sel = members(&m);
        assert!(!sel.is_empty());
        // Pairwise distance > 3 on the cycle.
        for (i, &u) in sel.iter().enumerate() {
            for &v in &sel[i + 1..] {
                let d = delta_graphs::bfs::distances(&g, u)[v.index()];
                assert!(d > 3, "{u} and {v} at distance {d}");
            }
        }
        // Domination within 3.
        let dist = delta_graphs::bfs::multi_source_distances(&g, &sel);
        assert!(dist.iter().all(|&d| d <= 3));
    }

    #[test]
    fn empty_graph_mis() {
        let g = Graph::empty(5);
        let mut ledger = RoundLedger::new();
        let m = luby_mis(&g, 0, &mut ledger, "mis");
        assert!(m.iter().all(|&x| x));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::random_regular(200, 4, 8);
        let mut l1 = RoundLedger::new();
        let mut l2 = RoundLedger::new();
        let a = luby_mis(&g, 5, &mut l1, "mis");
        let b = luby_mis(&g, 5, &mut l2, "mis");
        assert_eq!(a, b);
        assert_eq!(l1.total(), l2.total());
    }
}
