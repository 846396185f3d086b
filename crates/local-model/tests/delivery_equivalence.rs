//! Flat-arena delivery must be observationally identical to a naive
//! reference delivery.
//!
//! The engine routes messages through a CSR-indexed mailbox arena
//! (counts per destination arc, prefix sum, scatter). This proptest
//! pits it against the obvious specification — for every recipient,
//! walk the sorted neighbor list and take each neighbor's broadcast
//! followed by its directed messages in send order — on random graphs
//! and random per-round message patterns, in both execution modes and
//! over shard plans (whose cross-shard traffic travels as encoded
//! boundary blocks), and additionally checks the [`MessageStats`]
//! accounting. Two rounds with different patterns run on one engine so
//! buffer reuse across rounds is exercised, not just the cold path.

use delta_graphs::{Graph, NodeId, ShardPlan};
use local_model::{Engine, ExecMode, MessageStats, Outbox, RoundLedger};
use proptest::prelude::*;

/// One round's traffic: per node, an optional broadcast payload and a
/// list of (neighbor-selector, payload) directed messages. The selector
/// is reduced modulo the node's degree, so every directed message
/// targets a real neighbor.
#[derive(Debug, Clone)]
struct Pattern {
    broadcast: Vec<Option<u64>>,
    directed: Vec<Vec<(usize, u64)>>,
}

fn arb_graph_and_patterns() -> impl Strategy<Value = (Graph, Vec<Pattern>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n).prop_map(
            move |pairs| {
                let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|&(a, b)| a != b).collect();
                Graph::from_edges(n, &edges).expect("valid")
            },
        );
        // `n..n` is the stand-in's fixed-length form (empty range ⇒ start).
        let pattern = (
            proptest::collection::vec((proptest::bool::ANY, 0u64..1 << 40), n..n),
            proptest::collection::vec(
                proptest::collection::vec((0usize..16, 0u64..1 << 40), 0..5),
                n..n,
            ),
        )
            .prop_map(|(broadcast, directed): (Vec<(bool, u64)>, _)| Pattern {
                broadcast: broadcast
                    .into_iter()
                    .map(|(some, m)| some.then_some(m))
                    .collect(),
                directed,
            });
        (edges, proptest::collection::vec(pattern, 2..3))
    })
}

/// Resolves a pattern's directed selectors to concrete neighbor ids;
/// messages from degree-0 nodes are dropped (they have no neighbors).
fn resolved_directed(g: &Graph, p: &Pattern, v: NodeId) -> Vec<(NodeId, u64)> {
    let nbrs = g.neighbors(v);
    p.directed[v.index()]
        .iter()
        .filter(|_| !nbrs.is_empty())
        .map(|&(sel, m)| (nbrs[sel % nbrs.len()], m))
        .collect()
}

/// The specification: every recipient's inbox, computed by walking its
/// sorted adjacency and scanning each neighbor's outgoing traffic.
fn reference_inboxes(g: &Graph, p: &Pattern) -> Vec<Vec<(NodeId, u64)>> {
    g.nodes()
        .map(|v| {
            let mut inbox = Vec::new();
            for &w in g.neighbors(v) {
                if let Some(m) = p.broadcast[w.index()] {
                    inbox.push((w, m));
                }
                for (to, m) in resolved_directed(g, p, w) {
                    if to == v {
                        inbox.push((w, m));
                    }
                }
            }
            inbox
        })
        .collect()
}

/// The specification for [`MessageStats`] after the round, including
/// the bandwidth section: every `u64` payload costs 64 bits per edge
/// traversal, and the directed edge `w → v` carries `w`'s broadcast
/// plus all directed messages `w → v`.
fn reference_stats(g: &Graph, p: &Pattern) -> MessageStats {
    let mut s = MessageStats::default();
    for v in g.nodes() {
        if p.broadcast[v.index()].is_some() {
            s.broadcasts += 1;
            s.deliveries += g.degree(v) as u64;
        }
        let sent = resolved_directed(g, p, v).len() as u64;
        s.directed += sent;
        s.deliveries += sent;
    }
    for w in g.nodes() {
        let bcast_bits = if p.broadcast[w.index()].is_some() {
            64
        } else {
            0
        };
        let directed = resolved_directed(g, p, w);
        for &v in g.neighbors(w) {
            let load = bcast_bits + 64 * directed.iter().filter(|&&(to, _)| to == v).count() as u64;
            s.bits_sent += load;
            s.max_edge_bits = s.max_edge_bits.max(load);
        }
    }
    s
}

/// Runs the engine for one round of `p`, recording every node's inbox.
fn engine_round(
    engine: &mut Engine<'_, Vec<Vec<(NodeId, u64)>>>,
    g: &Graph,
    p: &Pattern,
    ledger: &mut RoundLedger,
) {
    engine.step(
        ledger,
        "equiv",
        |ctx, _, out: &mut Outbox<u64>| {
            if let Some(m) = p.broadcast[ctx.id.index()] {
                out.broadcast(m);
            }
            for (to, m) in resolved_directed(g, p, ctx.id) {
                out.send_to(to, m);
            }
        },
        |_, inboxes, inbox| inboxes.push(inbox.to_vec()),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_delivery_matches_reference(case in arb_graph_and_patterns()) {
        let (g, patterns) = case;
        let plan = |shards| ShardPlan::contiguous(g.n(), shards);
        let engines = [
            ("Sequential", Engine::new(&g, 1, |_| Vec::new()).with_mode(ExecMode::Sequential)),
            ("Parallel", Engine::new(&g, 1, |_| Vec::new()).with_mode(ExecMode::Parallel)),
            ("S=2", Engine::sharded(&g, plan(2), 1, |_| Vec::new())),
            ("S=3", Engine::sharded(&g, plan(3), 1, |_| Vec::new())),
        ];
        for (label, mut engine) in engines {
            let mut ledger = RoundLedger::new();
            let mut expected_stats = MessageStats::default();
            for p in &patterns {
                engine_round(&mut engine, &g, p, &mut ledger);
                let e = reference_stats(&g, p);
                expected_stats.broadcasts += e.broadcasts;
                expected_stats.directed += e.directed;
                expected_stats.deliveries += e.deliveries;
                expected_stats.bits_sent += e.bits_sent;
                expected_stats.max_edge_bits = expected_stats.max_edge_bits.max(e.max_edge_bits);
            }
            prop_assert_eq!(engine.message_stats(), expected_stats, "stats diverged ({label})");
            for (round, p) in patterns.iter().enumerate() {
                let expected = reference_inboxes(&g, p);
                for v in g.nodes() {
                    prop_assert_eq!(
                        &engine.states()[v.index()][round],
                        &expected[v.index()],
                        "inbox of {} in round {} diverged ({})",
                        v,
                        round,
                        label
                    );
                }
            }
        }
    }
}
