//! The CONGEST compilation layer must be observably transparent.
//!
//! [`CongestEngine`] fragments every oversized logical message into
//! budget-sized chunks and pipelines them over honest wire rounds —
//! none of which may change what the program sees: node states and
//! inbox contents must be exactly the unfragmented LOCAL run's, for
//! every budget, both [`ExecMode`]s, and every substrate the layer
//! composes with — the flat [`Engine`] on `G`, the [`OverlayEngine`] on
//! `G^k`, and the [`ShardedEngine`] at S ∈ {1, 2, 8}. What the wire
//! rounds cost is on the ledger alone, which must show the budget
//! kept. The proptests here pit the compiled engines against plain
//! references on random graphs and random multi-round message
//! patterns; the deterministic tests pin the chunk frame's wire honesty
//! and the chunk-level fault semantics (one dropped chunk kills the
//! whole message, never a prefix of it).

use delta_graphs::{generators, Graph, NodeId};
use local_model::wire::gamma_bits;
use local_model::{
    congest_budget, enforce_congest, force_exec_mode, run_ball_phase, BitReader, BitWriter,
    CongestChunk, CongestEngine, Engine, ExecMode, FaultPlan, FaultyDriver, Fragmenter, Outbox,
    OverlayEngine, PowerOverlay, Reassembler, RoundDriver, RoundLedger, ShardedEngine, WireCodec,
    MIN_CONGEST_BITS,
};
use proptest::prelude::*;

/// One round's traffic: per node an optional broadcast payload and a
/// list of (neighbor-selector, payload) directed messages, with the
/// selector reduced modulo the degree so every target is a real
/// neighbor.
#[derive(Debug, Clone)]
struct Pattern {
    broadcast: Vec<Option<u64>>,
    directed: Vec<Vec<(usize, u64)>>,
}

fn arb_case() -> impl Strategy<Value = (Graph, Vec<Pattern>)> {
    (2usize..40).prop_flat_map(|n| {
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
                proptest::collection::vec((0usize..16, 0u64..1 << 40), 0..3),
                n..n,
            ),
        )
            .prop_map(
                move |(broadcast, directed): (Vec<(bool, u64)>, _)| Pattern {
                    broadcast: broadcast
                        .into_iter()
                        .map(|(some, m)| some.then_some(m))
                        .collect(),
                    directed,
                },
            );
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

/// Runs the rounds of `patterns` on any driver whose per-node state is
/// the node's inbox transcript, and returns the ledger.
fn run_patterns<D: RoundDriver<Vec<Vec<(NodeId, u64)>>>>(
    driver: &mut D,
    g: &Graph,
    patterns: &[Pattern],
    directed: bool,
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
                if directed {
                    for (to, m) in resolved_directed(g, p, ctx.id) {
                        out.send_to(to, m);
                    }
                }
            },
            |_, inboxes, inbox| inboxes.push(inbox.to_vec()),
        );
    }
    ledger
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flat `G`: fragmented-and-pipelined == unfragmented LOCAL, for
    /// tight and comfortable budgets, under both schedules.
    #[test]
    fn congest_engine_is_bit_identical_to_local_on_g(case in arb_case()) {
        let (g, patterns) = case;
        let mut reference = Engine::new(&g, 7, |_| Vec::new());
        let ledger = run_patterns(&mut reference, &g, &patterns, true);
        let expect_states = reference.node_states().to_vec();
        for budget in [MIN_CONGEST_BITS, 48, 1 << 12] {
            for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                let _m = force_exec_mode(mode);
                let mut compiled =
                    CongestEngine::enforced(Engine::new(&g, 7, |_| Vec::new()), budget);
                let wire = run_patterns(&mut compiled, &g, &patterns, true);
                prop_assert_eq!(
                    compiled.node_states(), &expect_states[..],
                    "inboxes diverged (budget={}, {:?})", budget, mode
                );
                // Honesty of the wire side: every wire round respects
                // the budget, the ledger was charged at least the LOCAL
                // round count, and nothing was force-drained.
                prop_assert_eq!(wire.congest_violations(), 0u64);
                prop_assert!(wire.max_edge_bits() <= budget);
                prop_assert!(wire.total() >= ledger.total());
                prop_assert_eq!(compiled.force_drained(), 0u64);
            }
        }
    }

    /// `G^k` overlays (broadcast-only: directed traffic is rejected by
    /// power overlays by design): the compiled overlay must reproduce
    /// the plain overlay's transcripts.
    #[test]
    fn congest_engine_is_bit_identical_on_power_overlays(case in arb_case()) {
        let (g, patterns) = case;
        for k in [2usize, 3] {
            let mut reference = OverlayEngine::new(&g, PowerOverlay { k }, 7, |_| Vec::new());
            run_patterns(&mut reference, &g, &patterns, false);
            let expect_states = reference.node_states().to_vec();
            for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                let _m = force_exec_mode(mode);
                let mut compiled = CongestEngine::enforced(
                    OverlayEngine::new(&g, PowerOverlay { k }, 7, |_| Vec::new()),
                    64,
                );
                let wire = run_patterns(&mut compiled, &g, &patterns, false);
                prop_assert_eq!(
                    compiled.node_states(), &expect_states[..],
                    "inboxes diverged (k={}, {:?})", k, mode
                );
                prop_assert_eq!(wire.congest_violations(), 0u64);
                prop_assert_eq!(compiled.force_drained(), 0u64);
            }
        }
    }

    /// Sharded substrate: compiled sharded == plain single-arena, for
    /// S ∈ {1, 2, 8} under both schedules.
    #[test]
    fn congest_engine_is_bit_identical_on_sharded_engines(case in arb_case()) {
        let (g, patterns) = case;
        let mut reference = Engine::new(&g, 7, |_| Vec::new());
        run_patterns(&mut reference, &g, &patterns, true);
        let expect_states = reference.node_states().to_vec();
        for shards in [1usize, 2, 8] {
            for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                let _m = force_exec_mode(mode);
                let mut compiled = CongestEngine::enforced(
                    ShardedEngine::contiguous(&g, shards, 7, |_| Vec::new()),
                    48,
                );
                let wire = run_patterns(&mut compiled, &g, &patterns, true);
                prop_assert_eq!(
                    compiled.node_states(), &expect_states[..],
                    "inboxes diverged (S={}, {:?})", shards, mode
                );
                prop_assert_eq!(wire.congest_violations(), 0u64);
                prop_assert!(wire.max_edge_bits() <= 48);
                prop_assert_eq!(compiled.force_drained(), 0u64);
            }
        }
    }

    /// Chunk framing: every produced chunk fits the budget, encodes to
    /// exactly its claimed `encoded_bits`, survives a decode
    /// round-trip, and the chunk set reassembles to the original
    /// message.
    #[test]
    fn chunk_frames_are_honest_and_roundtrip(
        stream in 0u64..500,
        value in 0u64..1 << 56,
        budget in MIN_CONGEST_BITS..256,
    ) {
        let frag = Fragmenter::new(budget);
        let chunks = frag.fragment(stream, &value);
        prop_assert!(!chunks.is_empty());
        prop_assert!(chunks.last().unwrap().is_last());
        let mut asm = Reassembler::default();
        for (i, c) in chunks.iter().enumerate() {
            prop_assert_eq!(c.stream(), stream);
            prop_assert_eq!(c.index(), i as u64);
            prop_assert!(c.encoded_bits() <= budget, "chunk over budget");
            // Size honesty: the encoder emits exactly `encoded_bits`.
            let mut w = BitWriter::new();
            c.encode(&mut w);
            let (bytes, bits) = w.finish();
            prop_assert_eq!(bits, c.encoded_bits());
            // Round-trip through the wire form.
            let mut r = BitReader::new(&bytes, bits);
            let back = CongestChunk::decode(&mut r).expect("decodes");
            prop_assert_eq!(&back, c);
            prop_assert!(r.read_bool().is_none(), "trailing bits");
            asm.stash(NodeId(3), &back);
        }
        let delivered: Vec<(NodeId, u64)> = asm.take_round();
        prop_assert_eq!(delivered, vec![(NodeId(3), value)]);
    }
}

/// Chunk-level faults: a [`FaultyDriver`] wrapped *inside* the congest
/// layer drops wire chunks, and losing any one chunk must lose the
/// whole logical message — the reassembler never delivers a prefix.
#[test]
fn a_dropped_chunk_loses_the_whole_message() {
    let g = generators::path(2);
    let budget = MIN_CONGEST_BITS;
    let payload: u64 = (1 << 56) - 3; // ~115 gamma bits -> several chunks
    let chunk_count = Fragmenter::new(budget).fragment(1, &payload).len() as u64;
    assert!(chunk_count >= 3, "payload must fragment for this test");
    let run = |plan: FaultPlan| {
        let mut eng = CongestEngine::enforced(
            FaultyDriver::new(Engine::new(&g, 5, |_| Vec::<(NodeId, u64)>::new()), plan),
            budget,
        );
        let mut ledger = RoundLedger::new();
        eng.round_step(
            &mut ledger,
            "chunk-faults",
            |ctx, _, out: &mut Outbox<u64>| {
                if ctx.id == NodeId(0) {
                    out.send_to(NodeId(1), payload);
                }
            },
            |_, inbox, msgs| inbox.extend_from_slice(msgs),
        );
        let dropped = ledger.faults().dropped;
        (eng.into_node_states().swap_remove(1), dropped)
    };
    // Fault-free control: the fragmented message arrives intact.
    let (inbox, dropped) = run(FaultPlan::new(11));
    assert_eq!(dropped, 0);
    assert_eq!(inbox, vec![(NodeId(0), payload)]);
    // Sweep seeds for a *partial* drop — some but not all chunks lost —
    // which is exactly the case where a naive reassembler would hand
    // the program a truncated payload.
    let mut partial_seen = false;
    for seed in 0..200u64 {
        let (inbox, dropped) = run(FaultPlan::new(seed).with_drops(300_000));
        if dropped > 0 {
            assert!(
                inbox.is_empty(),
                "seed {seed}: delivered despite {dropped} dropped chunks"
            );
        } else {
            assert_eq!(inbox, vec![(NodeId(0), payload)], "seed {seed}");
        }
        partial_seen |= dropped > 0 && dropped < chunk_count;
    }
    assert!(partial_seen, "no seed produced a partial chunk drop");
}

/// At dilation 1 a virtual edge is a host edge, so a masked overlay's
/// relay envelopes are budgeted like any host traffic: an envelope adds
/// 2 bits around a broadcast chunk and 4 around a directed one, and an
/// edge it pushes over the budget must count as a violation, not only
/// as `max_edge_bits`.
#[test]
fn masked_relays_count_their_congest_excess() {
    let g = generators::random_regular(4096, 4, 5);
    let members: Vec<bool> = g.nodes().map(|v| v.0 % 7 != 0).collect();
    let budget = congest_budget(4096);
    let mut ledger = RoundLedger::new();
    {
        let _guard = enforce_congest(budget);
        let sizes = run_ball_phase(
            &g,
            Some(&members),
            0,
            2,
            |_| (),
            |_, view| view.members.len(),
            &mut ledger,
            "masked-ball",
        );
        assert_eq!(sizes.len(), members.iter().filter(|&&m| m).count());
    }
    assert_eq!(
        ledger.max_edge_bits() > budget,
        ledger.congest_violations() > 0,
        "heaviest edge {} bits on a {budget}-bit budget, {} violations",
        ledger.max_edge_bits(),
        ledger.congest_violations()
    );
}

/// Duplicated chunks are harmless: the reassembler ignores replays of
/// already-consumed indices, so duplication faults at the chunk level
/// never corrupt or double-deliver a logical message.
#[test]
fn duplicated_chunks_never_double_deliver() {
    let g = generators::path(2);
    let payload: u64 = (1 << 56) - 3;
    for seed in 0..40u64 {
        let plan = FaultPlan::new(seed).with_duplicates(400_000);
        let mut eng = CongestEngine::enforced(
            FaultyDriver::new(Engine::new(&g, 5, |_| Vec::<(NodeId, u64)>::new()), plan),
            MIN_CONGEST_BITS,
        );
        let mut ledger = RoundLedger::new();
        eng.round_step(
            &mut ledger,
            "chunk-dups",
            |ctx, _, out: &mut Outbox<u64>| {
                if ctx.id == NodeId(0) {
                    out.send_to(NodeId(1), payload);
                }
            },
            |_, inbox, msgs| inbox.extend_from_slice(msgs),
        );
        assert_eq!(
            eng.node_states()[1],
            vec![(NodeId(0), payload)],
            "seed {seed}"
        );
    }
}

/// The frame constants the honesty proptest relies on, pinned once so
/// a framing change is a conscious edit here too: γ(stream) +
/// γ(index) + 1 final bit + γ(len) + len payload bits.
#[test]
fn frame_overhead_is_the_documented_gamma_sum() {
    let frag = Fragmenter::new(64);
    for (stream, value) in [(0u64, 5u64), (7, u64::MAX / 3), (300, 1 << 41)] {
        for c in frag.fragment(stream, &value) {
            assert_eq!(
                c.encoded_bits(),
                gamma_bits(c.stream())
                    + gamma_bits(c.index())
                    + 1
                    + gamma_bits(c.payload_bits())
                    + c.payload_bits()
            );
        }
    }
}
