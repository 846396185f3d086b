//! The sharded engine must be seed-bit-identical to the single-arena
//! engine.
//!
//! [`ShardedEngine`] partitions the graph, computes shards in parallel,
//! and serializes all cross-shard traffic through batched boundary
//! blocks — none of which may be observable: states, inbox contents,
//! [`MessageStats`], ledger bits, and fault transcripts must be exactly
//! the single engine's, for every shard count, both [`ExecMode`]s, and
//! broadcast-only / directed-only / mixed programs alike. The proptests
//! here pit the two engines against each other on random graphs and
//! random multi-round message patterns, and additionally check the
//! boundary-block envelope against an independent wire-size reference
//! (size honesty: every metered bit is accounted for by the documented
//! layout).

use delta_graphs::{Graph, NodeId, ShardPlan};
use local_model::wire::gamma_bits;
use local_model::{
    BoundaryStats, Engine, ExecMode, FaultPlan, FaultyDriver, Outbox, RoundDriver, RoundLedger,
    ShardedEngine,
};
use proptest::prelude::*;

/// One round's traffic: per node an optional broadcast payload and a
/// list of (neighbor-selector, payload) directed messages, with the
/// selector reduced modulo the degree so every target is a real
/// neighbor. `kind` masks the pattern into broadcast-only (0),
/// directed-only (1), or mixed (2) form.
#[derive(Debug, Clone)]
struct Pattern {
    broadcast: Vec<Option<u64>>,
    directed: Vec<Vec<(usize, u64)>>,
}

impl Pattern {
    fn masked(mut self, kind: u8) -> Pattern {
        match kind {
            0 => self.directed.iter_mut().for_each(Vec::clear),
            1 => self.broadcast.iter_mut().for_each(|b| *b = None),
            _ => {}
        }
        self
    }
}

fn arb_case() -> impl Strategy<Value = (Graph, Vec<Pattern>)> {
    (2usize..48, 0u8..3).prop_flat_map(|(n, kind)| {
        let graph = proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n).prop_map(
            move |pairs| {
                let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|&(a, b)| a != b).collect();
                Graph::from_edges(n, &edges).expect("valid")
            },
        );
        // `n..n` is the stand-in's fixed-length form (empty range ⇒ start).
        let pattern = (
            proptest::collection::vec((proptest::bool::ANY, 0u64..1 << 40), n..n),
            proptest::collection::vec(
                proptest::collection::vec((0usize..16, 0u64..1 << 40), 0..4),
                n..n,
            ),
        )
            .prop_map(move |(broadcast, directed): (Vec<(bool, u64)>, _)| {
                Pattern {
                    broadcast: broadcast
                        .into_iter()
                        .map(|(some, m)| some.then_some(m))
                        .collect(),
                    directed,
                }
                .masked(kind)
            });
        (graph, proptest::collection::vec(pattern, 2..4))
    })
}

fn resolved_directed(g: &Graph, p: &Pattern, v: NodeId) -> Vec<(NodeId, u64)> {
    let nbrs = g.neighbors(v);
    p.directed[v.index()]
        .iter()
        .filter(|_| !nbrs.is_empty())
        .map(|&(sel, m)| (nbrs[sel % nbrs.len()], m))
        .collect()
}

/// Runs the rounds of `patterns` on any driver, recording every node's
/// inbox per round, and returns (inbox transcripts, ledger).
fn run_patterns<D: RoundDriver<Vec<Vec<(NodeId, u64)>>>>(
    driver: &mut D,
    g: &Graph,
    patterns: &[Pattern],
) -> RoundLedger {
    let mut ledger = RoundLedger::new();
    for p in patterns {
        driver.round_step(
            &mut ledger,
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
    ledger
}

/// Independent reference for the boundary-block envelope: replays the
/// documented wire layout (`γ(count)` sections, `γ`-coded sender / arc
/// offsets, 64-bit payloads) over the pattern and sums blocks, bits,
/// and entries per ordered shard pair per round.
fn reference_boundary(g: &Graph, plan: &ShardPlan, patterns: &[Pattern]) -> BoundaryStats {
    let s_count = plan.num_shards();
    let arc_lo = |t: usize| {
        let start = plan.range(t).start;
        if start < g.n() {
            g.arc_range(NodeId::from_index(start)).start
        } else {
            g.num_arcs()
        }
    };
    let mut out = BoundaryStats::default();
    for p in patterns {
        for s in 0..s_count {
            for t in 0..s_count {
                if t == s {
                    continue;
                }
                let mut bits = 0u64;
                let mut nb = 0u64;
                let mut nd = 0u64;
                for vi in plan.range(s) {
                    let v = NodeId::from_index(vi);
                    if p.broadcast[vi].is_some()
                        && g.neighbors(v).iter().any(|w| plan.home_of(w.0) == t)
                    {
                        nb += 1;
                        bits += gamma_bits((vi - plan.range(s).start) as u64) + 64;
                    }
                    for (to, _) in resolved_directed(g, p, v) {
                        if plan.home_of(to.0) == t {
                            nd += 1;
                            let dest_arc = g.arc_range(to).start
                                + g.neighbor_position(to, v).expect("v is a neighbor of to");
                            bits += gamma_bits((dest_arc - arc_lo(t)) as u64) + 64;
                        }
                    }
                }
                if nb + nd > 0 {
                    out.blocks += 1;
                    out.messages += nb + nd;
                    out.block_bits += bits + gamma_bits(nb) + gamma_bits(nd);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_engine_is_bit_identical_to_single_arena(case in arb_case()) {
        let (g, patterns) = case;
        let mut single = Engine::new(&g, 7, |_| Vec::new());
        let ledger = run_patterns(&mut single, &g, &patterns);
        let expect_states = single.states().to_vec();
        let expect_stats = single.message_stats();
        for shards in [1usize, 2, 3, 8] {
            for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                let mut sharded =
                    ShardedEngine::contiguous(&g, shards, 7, |_| Vec::new()).with_mode(mode);
                let sl = run_patterns(&mut sharded, &g, &patterns);
                prop_assert_eq!(
                    sharded.states(), &expect_states[..],
                    "inboxes diverged (S={}, {:?})", shards, mode
                );
                prop_assert_eq!(
                    sharded.message_stats(), expect_stats,
                    "stats diverged (S={}, {:?})", shards, mode
                );
                prop_assert_eq!(sl.bits_sent(), ledger.bits_sent());
                prop_assert_eq!(sl.max_edge_bits(), ledger.max_edge_bits());
                prop_assert_eq!(sl.total(), ledger.total());
            }
        }
        // A non-contiguous-width plan must agree too.
        let plan = ShardPlan::degree_balanced(&g, 3);
        let mut balanced = Engine::sharded(&g, plan, 7, |_| Vec::new());
        run_patterns(&mut balanced, &g, &patterns);
        prop_assert_eq!(balanced.states(), &expect_states[..]);
        prop_assert_eq!(balanced.message_stats(), expect_stats);
    }

    #[test]
    fn boundary_blocks_match_the_wire_size_reference(case in arb_case()) {
        let (g, patterns) = case;
        for shards in [1usize, 2, 3, 8] {
            let plan = ShardPlan::contiguous(g.n(), shards);
            let expected = reference_boundary(&g, &plan, &patterns);
            for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                let mut sharded =
                    Engine::sharded(&g, plan.clone(), 7, |_| Vec::new()).with_mode(mode);
                run_patterns(&mut sharded, &g, &patterns);
                prop_assert_eq!(
                    sharded.boundary_stats(), expected,
                    "boundary envelope diverged (S={}, {:?})", shards, mode
                );
            }
        }
    }
}

/// Runs `rounds` of a fault-sensitive mixed program (min-flood
/// broadcast plus a directed echo to the first neighbor) through a
/// [`FaultyDriver`].
fn run_faulty<D: RoundDriver<u32>>(
    driver: &mut FaultyDriver<D>,
    g: &Graph,
    rounds: usize,
) -> (Vec<u32>, RoundLedger) {
    let mut ledger = RoundLedger::new();
    for _ in 0..rounds {
        driver.round_step(
            &mut ledger,
            "faulty",
            |ctx, &mut s, out: &mut Outbox<u32>| {
                out.broadcast(s);
                if ctx.degree > 0 {
                    let first = g.neighbors(ctx.id)[0];
                    out.send_to(first, s ^ 0x5a5a);
                }
            },
            |_, s, inbox| {
                for &(_, m) in inbox {
                    *s = (*s).min(m);
                }
            },
        );
    }
    (driver.node_states().to_vec(), ledger)
}

#[test]
fn fault_transcripts_are_identical_on_the_sharded_engine() {
    let g = delta_graphs::generators::random_regular(96, 4, 13);
    let plan = || {
        FaultPlan::new(77)
            .with_drops(150_000)
            .with_duplicates(90_000)
            .with_corruption(50_000)
            .with_crashes(20_000, 2)
    };
    let mut reference = FaultyDriver::new(Engine::new(&g, 5, |v| v.0), plan());
    let (ref_states, ref_ledger) = run_faulty(&mut reference, &g, 7);
    for shards in [2usize, 3, 8] {
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let engine = ShardedEngine::contiguous(&g, shards, 5, |v| v.0).with_mode(mode);
            let mut faulty = FaultyDriver::new(engine, plan());
            let (states, ledger) = run_faulty(&mut faulty, &g, 7);
            assert_eq!(
                states, ref_states,
                "post-fault states (S={shards}, {mode:?})"
            );
            assert_eq!(
                faulty.transcript(),
                reference.transcript(),
                "fault transcripts (S={shards}, {mode:?})"
            );
            assert_eq!(ledger.faults(), ref_ledger.faults());
            assert_eq!(ledger.bits_sent(), ref_ledger.bits_sent());
            assert_eq!(ledger.total(), ref_ledger.total());
        }
    }
}
