//! Overlay execution must be id-for-id identical to a materialized run.
//!
//! The virtual-topology overlay ([`local_model::overlay`]) claims that
//! executing a node program through [`OverlayEngine`] on `G^k` /
//! `G[S]` is indistinguishable — states, inbox contents
//! and ordering, RNG streams, and virtual-level [`MessageStats`] —
//! from executing the same program on an [`Engine`] over the
//! **materialized** `power_graph(g, k)` / `g.induced(members)` oracle
//! graphs. These proptests pin that claim with a randomness-consuming
//! mixed-traffic program, under **both** execution schedules, and
//! additionally check the ledger is charged the true dilation
//! (`k` host rounds per virtual round) with nonzero measured relay
//! bits.

use delta_graphs::power::power_graph;
use delta_graphs::{Graph, NodeId};
use local_model::{
    force_exec_mode, Engine, ExecMode, InducedOverlay, MessageStats, OverlayEngine, PowerOverlay,
    RoundDriver, RoundLedger,
};
use proptest::prelude::*;

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

/// A topology-agnostic mixed-traffic program: every round each node
/// draws private randomness, broadcasts a value, and (when `directed`)
/// sends a directed message to the smallest sender it heard last round
/// — learned from the inbox, so the program needs no adjacency oracle,
/// which is exactly what lets the identical closure run on every
/// driver. Exercises broadcasts, directed sends, RNG streams, inbox
/// ordering, and sender ids at once. Returns final states and the
/// driver's (virtual-level, for overlays) message stats.
///
/// `directed` stays off for dilation ≥ 2 overlays (broadcast-only by
/// design).
fn run_probe<DR: RoundDriver<Probe>>(
    mut driver: DR,
    rounds: usize,
    directed: bool,
    ledger: &mut RoundLedger,
) -> (Vec<Probe>, MessageStats) {
    for _ in 0..rounds {
        driver.round_step(
            ledger,
            "probe",
            |ctx, s: &mut Probe, out| {
                let draw = ctx.random_below(1 << 20);
                s.acc = s.acc.wrapping_mul(31).wrapping_add(draw);
                out.broadcast((draw, ctx.id.0));
                if directed {
                    if let Some(t) = s.target {
                        out.send_to(t, (s.acc & 0xffff, ctx.id.0));
                    }
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
    let stats = driver.round_stats();
    (driver.into_node_states(), stats)
}

/// One full transcript: states, stats, and ledger fingerprint.
type Transcript = (Vec<Probe>, MessageStats, (u64, u64, u64, u64));

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
    /// same states, same virtual MessageStats, and a ledger charged
    /// exactly `k ×` the materialized round count.
    #[test]
    fn power_overlay_matches_materialized_power_graph(
        g in arb_graph(),
        k in 2usize..5,
        seed in 0u64..1000,
    ) {
        let overlay = under_both_modes(|| {
            let mut ledger = RoundLedger::new();
            let driver = OverlayEngine::new(&g, PowerOverlay { k }, seed, init);
            let (states, stats) = run_probe(driver, 4, false, &mut ledger);
            (states, stats, fingerprint(&ledger))
        });
        let gk = power_graph(&g, k);
        let materialized = under_both_modes(|| {
            let mut ledger = RoundLedger::new();
            let driver = Engine::new(&gk, seed, init);
            let (states, stats) = run_probe(driver, 4, false, &mut ledger);
            (states, stats, fingerprint(&ledger))
        });
        prop_assert_eq!(&overlay.0, &materialized.0, "states diverged from materialized G^k");
        prop_assert_eq!(overlay.1, materialized.1, "virtual stats diverged");
        prop_assert_eq!(overlay.2.0, materialized.2.0 * k as u64, "ledger must charge the dilation");
        if gk.m() > 0 {
            prop_assert!(overlay.2.1 > 0, "relay envelopes must be measured");
        }
    }

    /// `InducedOverlay` ≡ a materialized `g.induced(members)` run —
    /// including directed traffic and its inbox ordering.
    #[test]
    fn induced_overlay_matches_materialized_subgraph(
        gm in arb_graph_with_mask(),
        seed in 0u64..1000,
    ) {
        let (g, mask) = gm;
        let overlay = under_both_modes(|| {
            let mut ledger = RoundLedger::new();
            let driver = OverlayEngine::new(&g, InducedOverlay { members: &mask }, seed, init);
            let (states, stats) = run_probe(driver, 4, true, &mut ledger);
            (states, stats, fingerprint(&ledger))
        });
        let members: Vec<NodeId> = g.nodes().filter(|v| mask[v.index()]).collect();
        let (sub, _map) = g.induced(&members);
        let materialized = under_both_modes(|| {
            let mut ledger = RoundLedger::new();
            let driver = Engine::new(&sub, seed, init);
            let (states, stats) = run_probe(driver, 4, true, &mut ledger);
            (states, stats, fingerprint(&ledger))
        });
        prop_assert_eq!(&overlay.0, &materialized.0, "states diverged from materialized G[S]");
        prop_assert_eq!(overlay.1, materialized.1, "virtual stats diverged");
        prop_assert_eq!(overlay.2.0, materialized.2.0, "dilation-1: same round count");
    }
}
