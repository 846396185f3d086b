//! Cross-crate substrate tests: the LOCAL engine against the graph
//! algorithms, and round-accounting coherence.

use delta_graphs::{bfs, generators, NodeId};
use local_model::{Engine, Outbox, RoundLedger};

#[test]
fn engine_flooding_equals_bfs_distances() {
    // Distance-vector flooding in the engine must converge to BFS
    // distances in exactly `eccentricity` rounds — the definition of the
    // LOCAL model's information propagation.
    let g = generators::torus(9, 11);
    let src = NodeId(17);
    let mut ledger = RoundLedger::new();
    let mut engine = Engine::new(&g, 0, |v| if v == src { 0u32 } else { u32::MAX });
    let ecc = bfs::eccentricity(&g, src) as u64;
    for _ in 0..ecc {
        engine.step(
            &mut ledger,
            "flood",
            |_, &mut d, out: &mut Outbox<u32>| {
                if d != u32::MAX {
                    out.broadcast(d);
                }
            },
            |_, d, inbox| {
                for &(_, m) in inbox {
                    *d = (*d).min(m.saturating_add(1));
                }
            },
        );
    }
    let expect = bfs::distances(&g, src);
    assert_eq!(engine.states(), expect.as_slice());
    assert_eq!(ledger.total(), ecc);
}

#[test]
fn ball_views_match_r_round_knowledge() {
    // After r rounds a node can know exactly its r-ball: gossip node ids
    // and compare the learned set to bfs::ball.
    let g = generators::random_regular(200, 3, 5);
    let r = 3;
    let mut ledger = RoundLedger::new();
    let mut engine = Engine::new(&g, 0, |v| vec![v]);
    for _ in 0..r {
        engine.step(
            &mut ledger,
            "gossip",
            |_, s: &mut Vec<NodeId>, out: &mut Outbox<Vec<NodeId>>| out.broadcast(s.clone()),
            |_, s, inbox| {
                for (_, m) in inbox {
                    s.extend(m.iter().copied());
                }
                s.sort_unstable();
                s.dedup();
            },
        );
    }
    for v in g.nodes().take(20) {
        let ball = bfs::ball(&g, v, r);
        assert_eq!(
            engine.states()[v.index()],
            ball.globals,
            "round-{r} knowledge of {v} differs from its {r}-ball"
        );
    }
    assert_eq!(ledger.total(), r as u64);
}

#[test]
fn directed_messages_route_along_bfs_tree() {
    // Per-neighbor messaging: after a flood establishes BFS parents,
    // every node reports its id upward one hop; only parents receive it.
    let g = generators::torus(6, 6);
    let src = NodeId(0);
    let dist = bfs::distances(&g, src);
    // Parent: the smallest neighbor one level closer to the source.
    let parent: Vec<Option<NodeId>> = g
        .nodes()
        .map(|v| {
            g.neighbors(v)
                .iter()
                .copied()
                .find(|&w| dist[w.index()] + 1 == dist[v.index()])
        })
        .collect();
    let mut ledger = RoundLedger::new();
    let mut engine = Engine::new(&g, 0, |_| Vec::<NodeId>::new());
    let parent_ref = &parent;
    engine.step(
        &mut ledger,
        "report",
        move |ctx, _, out: &mut Outbox<NodeId>| {
            if let Some(p) = parent_ref[ctx.id.index()] {
                out.send_to(p, ctx.id);
            }
        },
        |_, s, inbox| {
            s.extend(inbox.iter().map(|&(_, child)| child));
        },
    );
    // Every non-source node reported; each report arrived exactly at the
    // parent, so the received-children counts sum to n - 1.
    let received: usize = engine.states().iter().map(Vec::len).sum();
    assert_eq!(received, g.n() - 1);
    let stats = engine.message_stats();
    assert_eq!(stats.directed, g.n() as u64 - 1);
    assert_eq!(stats.deliveries, g.n() as u64 - 1);
    // A node's recorded children are exactly the nodes it parents.
    for v in g.nodes() {
        let mut expect: Vec<NodeId> = g
            .nodes()
            .filter(|&c| parent[c.index()] == Some(v))
            .collect();
        expect.sort_unstable();
        let mut got = engine.states()[v.index()].clone();
        got.sort_unstable();
        assert_eq!(got, expect, "children of {v}");
    }
}

#[test]
fn power_graph_rounds_match_simulation_factor() {
    // One round on G^k simulates in k rounds on G: verify the MIS round
    // accounting reflects the factor.
    let g = generators::cycle(64);
    let mut l1 = RoundLedger::new();
    let mut l2 = RoundLedger::new();
    let m1 =
        delta_coloring::mis::luby_mis(&delta_graphs::power::power_graph(&g, 3), 9, &mut l1, "x");
    let m2 = delta_coloring::mis::luby_mis_on_power(&g, 3, 9, &mut l2, "x");
    assert_eq!(m1, m2);
    assert_eq!(l2.total(), 3 * l1.total());
}

#[test]
fn ledger_phases_partition_total() {
    let g = generators::random_regular(300, 4, 2);
    let cfg = delta_coloring::delta::RandConfig::large_delta(&g, 3);
    let mut ledger = RoundLedger::new();
    delta_coloring::delta::delta_color_rand(&g, cfg, &mut ledger).unwrap();
    let by_phase: u64 = ledger.by_phase().iter().map(|&(_, r)| r).sum();
    assert_eq!(by_phase, ledger.total());
}

#[test]
fn engine_rng_is_node_private_and_stable() {
    // Adding a node's randomness consumption must not perturb other
    // nodes' streams (needed for reproducible distributed randomness).
    let g = generators::path(6);
    let draw_all = |consume_extra: bool| -> Vec<u64> {
        let mut ledger = RoundLedger::new();
        let mut engine = Engine::new(&g, 42, |_| 0u64);
        engine.step(
            &mut ledger,
            "draw",
            |_, _, out: &mut Outbox<()>| out.broadcast(()),
            |ctx, s, _| {
                if consume_extra && ctx.id == NodeId(0) {
                    let _ = ctx.random_below(10);
                }
                *s = ctx.random_below(1_000_000);
            },
        );
        engine.into_states()
    };
    let a = draw_all(false);
    let b = draw_all(true);
    assert_ne!(a[0], b[0], "node 0 consumed extra randomness");
    assert_eq!(a[1..], b[1..], "other nodes' streams were perturbed");
}
