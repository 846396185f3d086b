//! Overlay execution must be id-for-id identical to a materialized run.
//!
//! The virtual-topology overlay ([`local_model::overlay`]) claims that
//! executing a node program through [`OverlayEngine`] on `G^k` /
//! `G[S]` is indistinguishable — states, inbox contents and ordering,
//! and RNG streams — from executing the same program on an [`Engine`]
//! over the **materialized** `power_graph(g, k)` / `g.induced(members)`
//! oracle graphs. These proptests pin that claim with a
//! randomness-consuming mixed-traffic program, under **both** execution
//! schedules, and check the one tally, the host ledger: it is charged
//! the true dilation (`k` host rounds per virtual round) with nonzero
//! measured relay bits — on `G[S]`, exactly the relay envelopes' charge
//! by formula.

use delta_graphs::power::power_graph;
use delta_graphs::{generators, Graph, NodeId};
use local_model::wire::gamma_bits;
use local_model::{
    force_exec_mode, Engine, ExecMode, InducedOverlay, OverlayEngine, PowerOverlay, RoundDriver,
    RoundLedger, WireCodec,
};
use proptest::prelude::*;
use std::sync::Mutex;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n).prop_map(move |pairs| {
            let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|&(a, b)| a != b).collect();
            Graph::from_edges(n, &edges).expect("valid")
        })
    })
}

/// An arbitrary graph with a membership mask over its nodes (at least
/// one member).
fn arb_graph_with_mask() -> impl Strategy<Value = (Graph, Vec<bool>)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.n();
        proptest::collection::vec(proptest::bool::ANY, n..n).prop_map(move |mut m| {
            if !m.iter().any(|&b| b) {
                m[0] = true;
            }
            (g.clone(), m)
        })
    })
}

/// Per-node state of the probe program: an accumulator plus the
/// smallest sender heard last round (next round's directed target).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Probe {
    acc: u64,
    target: Option<NodeId>,
}

fn init(v: NodeId) -> Probe {
    Probe {
        acc: v.0 as u64,
        target: None,
    }
}

/// One node's sends in one round: its id, its broadcast's size in bits
/// and each directed message's target and size.
type Sent = (NodeId, u64, Vec<(NodeId, u64)>);

/// A topology-agnostic mixed-traffic program: every round each node
/// draws private randomness, broadcasts a value, and (when `directed`)
/// sends a directed message to the smallest sender it heard last round
/// — learned from the inbox, so the program needs no adjacency oracle,
/// which is exactly what lets the identical closure run on every
/// driver. Exercises broadcasts, directed sends, RNG streams, inbox
/// ordering, and sender ids at once. Returns the final states; with
/// `sends`, every node's sends of every round are appended there.
///
/// `directed` stays off for dilation ≥ 2 overlays (broadcast-only by
/// design).
fn run_probe<DR: RoundDriver<Probe>>(
    mut driver: DR,
    rounds: usize,
    directed: bool,
    ledger: &mut RoundLedger,
    sends: Option<&Mutex<Vec<Sent>>>,
) -> Vec<Probe> {
    for _ in 0..rounds {
        driver.round_step(
            ledger,
            "probe",
            |ctx, s: &mut Probe, out| {
                let draw = ctx.random_below(1 << 20);
                s.acc = s.acc.wrapping_mul(31).wrapping_add(draw);
                let bcast = (draw, ctx.id.0);
                out.broadcast(bcast);
                let to = s.target.filter(|_| directed);
                let msg = (s.acc & 0xffff, ctx.id.0);
                if let Some(t) = to {
                    out.send_to(t, msg);
                }
                if let Some(sends) = sends {
                    let sent = to.map(|t| (t, msg.encoded_bits()));
                    let entry = (ctx.id, bcast.encoded_bits(), sent.into_iter().collect());
                    sends.lock().expect("no send panicked").push(entry);
                }
            },
            |ctx, s, inbox: &[(NodeId, (u64, u32))]| {
                s.target = inbox.first().map(|&(w, _)| w);
                for &(w, (value, echo)) in inbox {
                    assert_eq!(w.0, echo, "payload travels with its sender id");
                    s.acc = s.acc.rotate_left(7) ^ value ^ (w.0 as u64);
                }
                s.acc ^= ctx.random_below(1 << 10);
            },
        );
    }
    driver.into_node_states()
}

/// The dilation-1 relay's ledger charge `(bits_sent, max_edge_bits)`
/// by formula: in every round, each edge v→w of `sub` (all carry v's
/// broadcast, as every probe node broadcasts) costs
/// `1 + b(v) + gamma_bits(k) + Σd` bits, where `b(v)` is v's broadcast
/// size and the `k` directed messages v→w total `Σd` bits — one
/// `OverlayEnvelope` per edge.
fn relay_charge(sub: &Graph, sends: &[Sent]) -> (u64, u64) {
    let (mut bits, mut max) = (0, 0);
    for (v, bcast, directed) in sends {
        for &w in sub.neighbors(*v) {
            let to_w = directed.iter().filter(|&&(t, _)| t == w).map(|&(_, d)| d);
            let (k, sum) = to_w.fold((0, 0), |(k, sum), d| (k + 1, sum + d));
            let load = 1 + bcast + gamma_bits(k) + sum;
            bits += load;
            max = max.max(load);
        }
    }
    (bits, max)
}

/// One full transcript: states and ledger fingerprint.
type Transcript = (Vec<Probe>, (u64, u64, u64, u64));

fn fingerprint(l: &RoundLedger) -> (u64, u64, u64, u64) {
    (
        l.total(),
        l.bits_sent(),
        l.max_edge_bits(),
        l.congest_violations(),
    )
}

/// Runs `f` under both forced schedules and asserts they agree.
fn under_both_modes(f: impl Fn() -> Transcript) -> Transcript {
    let seq = {
        let _g = force_exec_mode(ExecMode::Sequential);
        f()
    };
    let par = {
        let _g = force_exec_mode(ExecMode::Parallel);
        f()
    };
    assert_eq!(seq, par, "schedules diverged");
    seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `PowerOverlay { k }` ≡ a materialized `power_graph(g, k)` run:
    /// same states, and a ledger charged exactly `k ×` the materialized
    /// round count.
    #[test]
    fn power_overlay_matches_materialized_power_graph(
        g in arb_graph(),
        k in 2usize..5,
        seed in 0u64..1000,
    ) {
        let overlay = under_both_modes(|| {
            let mut ledger = RoundLedger::new();
            let driver = OverlayEngine::new(&g, PowerOverlay { k }, seed, init);
            let states = run_probe(driver, 4, false, &mut ledger, None);
            (states, fingerprint(&ledger))
        });
        let gk = power_graph(&g, k);
        let materialized = under_both_modes(|| {
            let mut ledger = RoundLedger::new();
            let driver = Engine::new(&gk, seed, init);
            let states = run_probe(driver, 4, false, &mut ledger, None);
            (states, fingerprint(&ledger))
        });
        prop_assert_eq!(&overlay.0, &materialized.0, "states diverged from materialized G^k");
        prop_assert_eq!(overlay.1.0, materialized.1.0 * k as u64, "ledger must charge the dilation");
        if gk.m() > 0 {
            prop_assert!(overlay.1.1 > 0, "relay envelopes must be measured");
        }
    }

    /// `InducedOverlay` ≡ a materialized `g.induced(members)` run —
    /// including directed traffic and its inbox ordering — and its
    /// ledger carries exactly the relay charge of the materialized
    /// run's sends on `G[S]` ([`relay_charge`]).
    #[test]
    fn induced_overlay_matches_materialized_subgraph(
        gm in arb_graph_with_mask(),
        seed in 0u64..1000,
    ) {
        let (g, mask) = gm;
        let overlay = under_both_modes(|| {
            let mut ledger = RoundLedger::new();
            let driver = OverlayEngine::new(&g, InducedOverlay { members: &mask }, seed, init);
            let states = run_probe(driver, 4, true, &mut ledger, None);
            (states, fingerprint(&ledger))
        });
        let members: Vec<NodeId> = g.nodes().filter(|v| mask[v.index()]).collect();
        let (sub, _map) = g.induced(&members);
        let sends = Mutex::new(Vec::new());
        let materialized = under_both_modes(|| {
            sends.lock().expect("no send panicked").clear();
            let mut ledger = RoundLedger::new();
            let driver = Engine::new(&sub, seed, init);
            let states = run_probe(driver, 4, true, &mut ledger, Some(&sends));
            (states, fingerprint(&ledger))
        });
        prop_assert_eq!(&overlay.0, &materialized.0, "states diverged from materialized G[S]");
        prop_assert_eq!(overlay.1.0, materialized.1.0, "dilation-1: same round count");
        let (bits, max_edge) = relay_charge(&sub, &sends.lock().expect("no send panicked"));
        prop_assert_eq!(overlay.1.1, bits, "relay bits_sent off the formula");
        prop_assert_eq!(overlay.1.2, max_edge, "relay max_edge_bits off the formula");
    }
}

/// No members: the virtual round still costs its one host round, and
/// nothing is sent, so it charges no bits.
#[test]
fn induced_overlay_without_members_charges_one_silent_round() {
    let g = generators::cycle(8);
    let mask = vec![false; g.n()];
    let (states, charge) = under_both_modes(|| {
        let mut ledger = RoundLedger::new();
        let driver = OverlayEngine::new(&g, InducedOverlay { members: &mask }, 0, init);
        let states = run_probe(driver, 1, true, &mut ledger, None);
        (states, fingerprint(&ledger))
    });
    assert!(states.is_empty());
    assert_eq!(charge, (1, 0, 0, 0));
}
