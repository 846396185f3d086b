//! The compact origin-window flood filter ≡ the two-ring batch dedup.
//!
//! The overlay's `G^k` relay used to deduplicate by retaining each
//! node's last two rounds of *received batches* (two "rings" of Arc'd
//! batch clones) and dropping re-arrivals found in either ring. The
//! compact filter replaces those rings with a sorted, epoch-segmented
//! window of origin ids — no payload batch is retained — relying on
//! the invariant that a duplicate of an origin first heard at round
//! `d` can only arrive at rounds `d + 1` and `d + 2`.
//!
//! These proptests pin the replacement to the original semantics with
//! a test-local reference implementation of the two-ring scheme
//! (explicit per-node `prev`/`last` origin rings, batch forwarding
//! with the round-uniform TTL, per-arc gamma-coded bit accounting).
//! On random graphs × `k ∈ {2, 3, 7}` × both execution schedules, a
//! broadcast probe run through [`OverlayEngine`] must match the
//! reference **bit-identically**: final states, and the host ledger's
//! charged dilation (`k` rounds per virtual round), total relay bits,
//! and heaviest-edge load. A materialized `power_graph` run pins the
//! virtual layer's states too, so the filter change is invisible to
//! the program and to the ledger.

use delta_graphs::power::power_graph;
use delta_graphs::{Graph, NodeId};
use local_model::wire::gamma_bits;
use local_model::{
    force_exec_mode, Engine, ExecMode, Outbox, OverlayEngine, PowerOverlay, RoundDriver,
    RoundLedger, WireCodec,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

const VIRTUAL_ROUNDS: usize = 2;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n).prop_map(move |pairs| {
            let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|&(a, b)| a != b).collect();
            Graph::from_edges(n, &edges).expect("valid")
        })
    })
}

/// The probe is deterministic (no RNG draws) so the central reference
/// can replay it exactly: each round a node mixes its id into its
/// state, broadcasts the new state **unless** its bit pattern says to
/// stay silent (sparse sources exercise the dedup paths a
/// broadcast-everyone program never hits), and folds its inbox in
/// sender order.
fn send_mutate(s: u64, id: u32) -> u64 {
    s.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(id as u64 + 1)
}

fn wants_broadcast(s: u64) -> bool {
    !s.count_ones().is_multiple_of(4)
}

fn recv_fold(s: u64, sender: u32, m: u64) -> u64 {
    s.rotate_left(7) ^ m ^ (sender as u64)
}

/// Host-level charges the reference expects the relay to put on the
/// ledger: real host rounds, per-arc envelope bits, heaviest arc.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct RefCharges {
    rounds: u64,
    bits: u64,
    max_edge_bits: u64,
}

/// One `G^k` flood under the **original two-ring dedup**: every node
/// keeps its last two rounds of first-heard origins (`prev`/`last`
/// rings), forwards its `last` ring each round as one batch with the
/// round-uniform TTL, and drops arrivals found in either ring.
/// Returns each node's virtual inbox (first-heard origins, ascending,
/// self excluded) and accumulates the wire charges: each arc a batch
/// crosses is charged the batch's exact encoded size — `gamma(len)`
/// then per origin `gamma(origin) + gamma(ttl) + payload` — matching
/// the codec of the flood kernel's `G^k` relay batch (a `ReachBatch`
/// with a TTL hop header), which encodes like `OverlayRelay`.
fn two_ring_flood(
    g: &Graph,
    k: usize,
    sources: &[Option<u64>],
    charges: &mut RefCharges,
) -> Vec<Vec<u32>> {
    let n = g.n();
    let clamp = (k - 1).min(n.saturating_sub(1)) as u64;
    let mut prev: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
    let mut last: Vec<BTreeSet<u32>> = (0..n)
        .map(|v| {
            if sources[v].is_some() {
                BTreeSet::from([v as u32])
            } else {
                BTreeSet::new()
            }
        })
        .collect();
    let mut heard: Vec<Vec<u32>> = vec![Vec::new(); n];
    for t in 1..=k as u64 {
        charges.rounds += 1;
        // Round-uniform TTL: everything forwarded at round t was first
        // heard at t - 1 and carries clamp - (t - 1); once that would
        // go negative nothing live is left.
        let forwarding = t <= clamp + 1;
        let ttl = clamp.saturating_sub(t - 1);
        let mut arrivals: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, ring) in last.iter().enumerate() {
            if !forwarding || ring.is_empty() {
                continue;
            }
            let mut batch_bits = gamma_bits(ring.len() as u64);
            for &o in ring {
                let payload = sources[o as usize].expect("every relayed origin is a source");
                batch_bits += gamma_bits(o as u64) + gamma_bits(ttl) + payload.encoded_bits();
            }
            for &w in g.neighbors(NodeId::from_index(v)) {
                charges.bits += batch_bits;
                charges.max_edge_bits = charges.max_edge_bits.max(batch_bits);
                arrivals[w.index()].extend(ring.iter().copied());
            }
        }
        for v in 0..n {
            let fresh: BTreeSet<u32> = arrivals[v]
                .iter()
                .copied()
                .filter(|o| !prev[v].contains(o) && !last[v].contains(o))
                .collect();
            heard[v].extend(fresh.iter().copied());
            prev[v] = std::mem::replace(&mut last[v], fresh);
        }
    }
    for inbox in &mut heard {
        inbox.sort_unstable();
    }
    heard
}

/// Central replay of the whole probe run on the two-ring reference:
/// final states plus the expected host-relay ledger charges.
fn reference_run(g: &Graph, k: usize, rounds: usize) -> (Vec<u64>, RefCharges) {
    let n = g.n();
    let mut states: Vec<u64> = (0..n as u64).collect();
    let mut charges = RefCharges::default();
    for _ in 0..rounds {
        let mut vals: Vec<Option<u64>> = Vec::with_capacity(n);
        for (v, s) in states.iter_mut().enumerate() {
            *s = send_mutate(*s, v as u32);
            vals.push(wants_broadcast(*s).then_some(*s));
        }
        let inboxes = two_ring_flood(g, k, &vals, &mut charges);
        for (v, s) in states.iter_mut().enumerate() {
            for &o in &inboxes[v] {
                *s = recv_fold(*s, o, vals[o as usize].expect("heard origins broadcast"));
            }
        }
    }
    (states, charges)
}

/// Runs the probe through any driver (overlay or materialized engine).
fn drive<DR: RoundDriver<u64>>(
    mut driver: DR,
    rounds: usize,
    ledger: &mut RoundLedger,
) -> Vec<u64> {
    for _ in 0..rounds {
        driver.round_step(
            ledger,
            "dedup-probe",
            |ctx, s: &mut u64, out: &mut Outbox<u64>| {
                *s = send_mutate(*s, ctx.id.0);
                if wants_broadcast(*s) {
                    out.broadcast(*s);
                }
            },
            |_, s, inbox| {
                for &(w, m) in inbox {
                    *s = recv_fold(*s, w.0, m);
                }
            },
        );
    }
    driver.into_node_states()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Compact filter ≡ two-ring dedup, observable at every level: the
    /// overlay run reproduces the reference's final states and its
    /// exact host-ledger charges (dilation, relay bits, heaviest arc),
    /// and agrees with a materialized `power_graph` run on states —
    /// under both execution schedules.
    #[test]
    fn compact_filter_matches_two_ring_reference(g in arb_graph()) {
        for &k in &[2usize, 3, 7] {
            let (ref_states, ref_charges) = reference_run(&g, k, VIRTUAL_ROUNDS);
            let gk = power_graph(&g, k);
            for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                let _guard = force_exec_mode(mode);

                let mut ledger = RoundLedger::new();
                let overlay = OverlayEngine::new(&g, PowerOverlay { k }, 7, |v| v.0 as u64);
                let states = drive(overlay, VIRTUAL_ROUNDS, &mut ledger);

                prop_assert_eq!(&states, &ref_states, "states diverged (k={}, {:?})", k, mode);
                prop_assert_eq!(
                    ledger.total(), ref_charges.rounds,
                    "charged dilation diverged (k={}, {:?})", k, mode
                );
                prop_assert_eq!(
                    ledger.bits_sent(), ref_charges.bits,
                    "relay bits diverged (k={}, {:?})", k, mode
                );
                prop_assert_eq!(
                    ledger.max_edge_bits(), ref_charges.max_edge_bits,
                    "heaviest-arc load diverged (k={}, {:?})", k, mode
                );
                prop_assert_eq!(ledger.congest_violations(), 0);

                let mut mledger = RoundLedger::new();
                let engine = Engine::new(&gk, 7, |v| v.0 as u64);
                let mstates = drive(engine, VIRTUAL_ROUNDS, &mut mledger);
                prop_assert_eq!(&states, &mstates, "materialized states diverged");
            }
        }
    }
}
