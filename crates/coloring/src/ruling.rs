//! Ruling sets and ruling forests (Lemma 20 of the paper).
//!
//! An `(α, β)` ruling set of `G` is a set `M` with pairwise distance
//! `>= α` between members and every node within distance `β` of `M`.
//!
//! * [`ruling_set_randomized`]: Luby MIS on `G^{α-1}` — an
//!   `(α, α-1)` ruling set in `O((α-1)·log n)` rounds w.h.p. (stand-in
//!   for Lemma 20 (3)/(4)).
//! * [`ruling_set_deterministic`]: the classical bit-halving
//!   construction on node identifiers — a `(2, O(log n))` ruling set in
//!   `O(log n)` rounds, lifted to `(α, O(α·log n))` via the power graph
//!   (stand-in for Lemma 20 (1)/(2), see README.md, "Substitutions for
//!   the paper's constructions").
//! * [`ruling_forest`]: the assignment of every node to its closest
//!   ruling node — the base-layer structure of the layering technique.

use delta_graphs::bfs;
use delta_graphs::{Graph, NodeId};
use local_model::wire::{gamma_bits, gamma_u32s_bits, read_gamma_u32s, write_gamma_u32s};
use local_model::{run_reach_phase, BitReader, BitWriter, RoundLedger, WireCodec};

/// Wire format of the ruling-set constructions. Both paths **execute
/// through the engine**: the deterministic bit-halving runs one
/// [`local_model::run_reach_phase`] flood of candidate ids per bit
/// level at radius `α-1`, and the randomized Luby path runs on the
/// `G^{α-1}` [`local_model::PowerOverlay`] — `α-1` measured relay
/// rounds ([`local_model::OverlayRelay`] envelopes) per virtual round,
/// with no power graph materialized. Rounds and per-edge bits are
/// measured, not estimated ([`RulingMsg::Relay`] is the declared shape
/// of the relays). Either way, a power-graph round relays up to
/// `Δ^(α-2)` foreign messages over one edge, so the substrate is
/// **LOCAL-only** for non-constant `α`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RulingMsg {
    /// Bit-halving candidacy: "id `v` is a surviving candidate".
    Candidate(u32),
    /// Power-graph relay: candidate ids forwarded toward distance-`k`
    /// nodes (one entry per relayed message).
    Relay(Vec<u32>),
}

impl WireCodec for RulingMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            RulingMsg::Candidate(id) => {
                w.write_bool(false);
                w.write_gamma(*id as u64);
            }
            RulingMsg::Relay(ids) => {
                w.write_bool(true);
                write_gamma_u32s(w, ids);
            }
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        match r.read_bool()? {
            false => r.read_gamma_u32().map(RulingMsg::Candidate),
            true => read_gamma_u32s(r).map(RulingMsg::Relay),
        }
    }
    fn encoded_bits(&self) -> u64 {
        match self {
            RulingMsg::Candidate(id) => 1 + gamma_bits(*id as u64),
            RulingMsg::Relay(ids) => 1 + gamma_u32s_bits(ids),
        }
    }
}

/// Computes an `(alpha, alpha-1)` ruling set via Luby MIS on
/// `G^{alpha-1}`; rounds charged with the `×(alpha-1)` simulation factor.
///
/// # Example
///
/// ```
/// use delta_coloring::ruling::{is_ruling_set, ruling_set_randomized};
/// use delta_graphs::generators;
/// use local_model::RoundLedger;
///
/// let g = generators::cycle(40);
/// let mut ledger = RoundLedger::new();
/// let set = ruling_set_randomized(&g, 4, 7, &mut ledger, "ruling");
/// assert!(is_ruling_set(&g, &set, 4, 3)); // distance >= 4, domination <= 3
/// ```
///
/// # Panics
///
/// Panics if `alpha < 2`.
pub fn ruling_set_randomized(
    g: &Graph,
    alpha: usize,
    seed: u64,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Vec<NodeId> {
    assert!(alpha >= 2, "alpha must be at least 2");
    let mask = crate::mis::luby_mis_on_power(g, alpha - 1, seed, ledger, phase);
    crate::mis::members(&mask)
}

/// Deterministic `(2, O(log n))` ruling set by id-bit halving, executed
/// on the message-passing engine (see
/// [`ruling_set_deterministic_alpha`]; this is the `alpha = 2` case,
/// whose per-level floods are single-hop candidate announcements).
///
/// Charges one measured engine round per bit level.
pub fn ruling_set_deterministic(g: &Graph, ledger: &mut RoundLedger, phase: &str) -> Vec<NodeId> {
    ruling_set_deterministic_alpha(g, 2, ledger, phase)
}

/// Deterministic `(alpha, O(alpha·log n))` ruling set by id-bit halving
/// where adjacency is "distance < alpha in G" — the classical recursion
/// on the power graph `G^{alpha-1}`, executed **bottom-up as a real
/// message-passing program**: all merges of one bit level run
/// simultaneously (their node sets are disjoint), so each level is one
/// engine-backed [`run_reach_phase`] in which the level's candidates
/// (surviving nodes whose level bit is 0) flood their ids `alpha-1`
/// hops and every surviving second-half node drops out iff it hears a
/// candidate of its own merge group. Rounds and per-edge bits are
/// measured by the engine — `alpha-1` rounds per level, `⌈log₂ n⌉`
/// levels.
///
/// The only phase state is a reusable survivor mask (updated level by
/// level); the per-merge `HashSet`/BFS scratch of the old centrally
/// simulated recursion is gone, and per-node flood dedup lives inside
/// the reach phase's `O(ring)` window.
///
/// # Panics
///
/// Panics if `alpha < 2`.
pub fn ruling_set_deterministic_alpha(
    g: &Graph,
    alpha: usize,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Vec<NodeId> {
    assert!(alpha >= 2, "alpha must be at least 2");
    if g.n() == 0 {
        return Vec::new();
    }
    let bits = usize::BITS - (g.n() - 1).max(1).leading_zeros();
    // Survivor mask: the phase's only persistent state, reused across
    // levels. Initially everyone is the ruling set of its singleton
    // recursion leaf.
    let mut survive = vec![true; g.n()];
    for bit in 0..bits {
        // Merge level `bit`: groups are ids agreeing above `bit`; the
        // group's first half (bit clear) keeps its survivors, and a
        // second-half survivor stays only if no first-half survivor of
        // its own group is within distance alpha-1.
        let survive_in = &survive;
        let decisions = run_reach_phase(
            g,
            None,
            0,
            alpha - 1,
            |v| (survive_in[v.index()] && v.0 & (1 << bit) == 0).then_some(()),
            |v| (v.0, false),
            |acc: &mut (u32, bool), id, _dist, _m| {
                // Same merge group = same id prefix above the level bit.
                if id != acc.0 && (id as u64) >> (bit + 1) == (acc.0 as u64) >> (bit + 1) {
                    acc.1 = true;
                }
            },
            |ctx, &(_, hit)| survive_in[ctx.id.index()] && (ctx.id.0 & (1 << bit) == 0 || !hit),
            ledger,
            phase,
        );
        survive = decisions;
    }
    survive
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s)
        .map(|(i, _)| NodeId::from_index(i))
        .collect()
}

/// A ruling forest: every node assigned to its closest ruling node
/// (ties by smaller id), with the distance to it.
#[derive(Debug, Clone)]
pub struct RulingForest {
    /// Distance to the assigned root ([`delta_graphs::bfs::UNREACHABLE`]
    /// if no root reaches the node).
    pub dist: Vec<u32>,
    /// Assigned root per node (`None` if unreachable).
    pub root: Vec<Option<NodeId>>,
    /// The ruling nodes.
    pub roots: Vec<NodeId>,
}

impl RulingForest {
    /// The maximum finite assignment distance (the forest's depth).
    pub fn depth(&self) -> usize {
        self.dist
            .iter()
            .filter(|&&d| d != bfs::UNREACHABLE)
            .max()
            .copied()
            .unwrap_or(0) as usize
    }
}

/// Builds the ruling forest of `roots` by multi-source BFS; costs
/// `depth` rounds, charged to `phase`.
pub fn ruling_forest(
    g: &Graph,
    roots: &[NodeId],
    ledger: &mut RoundLedger,
    phase: &str,
) -> RulingForest {
    let (dist, root) = bfs::multi_source_assignment(g, roots);
    let forest = RulingForest {
        dist,
        root,
        roots: roots.to_vec(),
    };
    ledger.charge(phase, forest.depth() as u64);
    forest
}

/// Verifies the `(alpha, beta)` ruling properties (test/bench helper).
pub fn is_ruling_set(g: &Graph, set: &[NodeId], alpha: usize, beta: usize) -> bool {
    if g.n() == 0 {
        return set.is_empty();
    }
    if set.is_empty() {
        return false;
    }
    // Separation: pairwise distance >= alpha.
    for &u in set {
        let d = bfs::distances(g, u);
        for &v in set {
            if v != u && (d[v.index()] as usize) < alpha {
                return false;
            }
        }
    }
    // Domination: every node within beta (within its component; nodes in
    // components without ruling nodes fail the check).
    let dist = bfs::multi_source_distances(g, set);
    dist.iter()
        .all(|&d| d != bfs::UNREACHABLE && (d as usize) <= beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_graphs::generators;

    #[test]
    fn randomized_ruling_set_properties() {
        for alpha in [2usize, 3, 5] {
            let g = generators::random_regular(300, 4, 11);
            let mut ledger = RoundLedger::new();
            let set = ruling_set_randomized(&g, alpha, 3, &mut ledger, "rs");
            assert!(is_ruling_set(&g, &set, alpha, alpha - 1), "alpha {alpha}");
        }
    }

    #[test]
    fn deterministic_ruling_set_properties() {
        for g in [
            generators::cycle(64),
            generators::random_regular(400, 4, 2),
            generators::random_tree(200, 3),
        ] {
            let mut ledger = RoundLedger::new();
            let set = ruling_set_deterministic(&g, &mut ledger, "rs");
            let beta = 2 * (g.n().ilog2() as usize + 1);
            assert!(is_ruling_set(&g, &set, 2, beta));
            assert!(ledger.total() <= 3 * (g.n().ilog2() as u64 + 2) + 1);
            // The construction is engine-backed: its candidate floods
            // are measured, not estimated.
            assert!(ledger.bits_sent() > 0);
            assert!(ledger.max_edge_bits() > 0);
        }
    }

    #[test]
    fn deterministic_alpha_ruling_set() {
        let g = generators::cycle(100);
        let mut ledger = RoundLedger::new();
        let set = ruling_set_deterministic_alpha(&g, 4, &mut ledger, "rs");
        let beta = 3 * 2 * (g.n().ilog2() as usize + 1) + 3;
        assert!(is_ruling_set(&g, &set, 4, beta));
        assert!(ledger.bits_sent() > 0);
        assert_eq!(ledger.total(), 3 * (g.n().ilog2() as u64 + 1));
    }

    #[test]
    fn forest_assigns_everyone() {
        let g = generators::torus(8, 8);
        let mut ledger = RoundLedger::new();
        let set = ruling_set_randomized(&g, 3, 1, &mut ledger, "rs");
        let forest = ruling_forest(&g, &set, &mut ledger, "forest");
        assert!(forest.root.iter().all(Option::is_some));
        assert!(forest.depth() <= 2); // (3,2) ruling set
        for &r in &forest.roots {
            assert_eq!(forest.dist[r.index()], 0);
            assert_eq!(forest.root[r.index()], Some(r));
        }
    }

    #[test]
    fn is_ruling_set_rejects_bad_sets() {
        let g = generators::path(6);
        // Adjacent pair violates alpha=2... it doesn't; alpha=2 means
        // distance >= 2, i.e. non-adjacent.
        assert!(!is_ruling_set(&g, &[NodeId(0), NodeId(1)], 2, 5));
        // Far-apart singleton dominates only within 5.
        assert!(is_ruling_set(&g, &[NodeId(0)], 2, 5));
        assert!(!is_ruling_set(&g, &[NodeId(0)], 2, 3));
        assert!(!is_ruling_set(&g, &[], 2, 3));
    }

    #[test]
    fn singleton_graph() {
        let g = Graph::empty(1);
        let mut ledger = RoundLedger::new();
        let set = ruling_set_deterministic(&g, &mut ledger, "rs");
        assert_eq!(set, vec![NodeId(0)]);
    }
}
