//! Engine-collected ball views must be isomorphic — id-preservingly
//! identical — to the central [`Graph::ball`] oracle.
//!
//! For random graphs and radii `r ∈ 1..=3`, every node's
//! [`BallView`] assembled by the distributed certificate flood
//! ([`local_model::run_ball_phase`]) is compared member-for-member,
//! distance-for-distance, and edge-for-edge against the truncated-BFS
//! oracle, under **both** execution schedules (the [`force_exec_mode`]
//! guard drives the whole phase down each). The same treatment covers
//! the streaming reach flood (against oracle distances) and the
//! single-center collection, plus ledger fingerprints: rounds, bits,
//! and per-edge maxima must be bit-identical across schedules. The ball
//! and reach floods' bits and per-edge maxima must also equal the charge
//! of the flood computed centrally from BFS distances, and both floods
//! under a member mask must equal a run on the materialized subgraph.

use delta_graphs::{bfs, Graph, NodeId};
use local_model::ball::BallItem;
use local_model::{
    collect_ball_centered, force_exec_mode, run_ball_phase, run_reach_phase, BallMsg, BallView,
    ExecMode, ReachMsg, RoundLedger, WireCodec,
};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..48).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n).prop_map(move |pairs| {
            let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|&(a, b)| a != b).collect();
            Graph::from_edges(n, &edges).expect("valid")
        })
    })
}

fn arb_graph_with_mask() -> impl Strategy<Value = (Graph, Vec<bool>)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.n();
        proptest::collection::vec(proptest::bool::ANY, n..n).prop_map(move |m| (g.clone(), m))
    })
}

/// A radius-`r` flood's charge, computed centrally: in round `t`, every
/// node `v` with neighbors broadcasts the relay of the sources at
/// distance `t − 1` (when there are any), and each of its `deg(v)` edges
/// carries it; `relay_bits` sizes that relay. Returns `(bits_sent,
/// max_edge_bits)`.
fn central_flood_charge(
    g: &Graph,
    r: usize,
    is_source: impl Fn(NodeId) -> bool,
    relay_bits: impl Fn(&[NodeId]) -> u64,
) -> (u64, u64) {
    let (mut bits_sent, mut max_edge_bits) = (0, 0);
    for v in g.nodes().filter(|&v| g.degree(v) > 0) {
        let d = bfs::distances(g, v);
        for t in 1..=r as u32 {
            let sources: Vec<NodeId> = g
                .nodes()
                .filter(|&w| is_source(w) && d[w.index()] == t - 1)
                .collect();
            if !sources.is_empty() {
                let bits = relay_bits(&sources);
                bits_sent += g.degree(v) as u64 * bits;
                max_edge_bits = max_edge_bits.max(bits);
            }
        }
    }
    (bits_sent, max_edge_bits)
}

/// The certificate flood's relay: the [`BallMsg`] of the sources.
fn ball_relay_bits(g: &Graph, sources: &[NodeId], payload_of: impl Fn(u32) -> u32) -> u64 {
    let items: Vec<BallItem<u32>> = sources
        .iter()
        .map(|&w| BallItem {
            id: w.0,
            adj: g.neighbors(w).iter().map(|x| x.0).collect(),
            payload: payload_of(w.0),
        })
        .collect();
    BallMsg(items).encoded_bits()
}

/// The reach flood with every `stride`-th node (in the flood's id
/// space) a source: each node's absorbed `(source, dist)` pairs.
fn reach_heard(
    g: &Graph,
    members: Option<&[bool]>,
    r: usize,
    stride: u32,
    ledger: &mut RoundLedger,
) -> Vec<Vec<(u32, u32)>> {
    run_reach_phase(
        g,
        members,
        0,
        r,
        |v| (v.0 % stride == 0).then_some(()),
        |_| Vec::new(),
        |acc: &mut Vec<(u32, u32)>, id, dist, _| acc.push((id, dist)),
        |_, acc| acc.clone(),
        ledger,
        "reach",
    )
}

fn ledger_fingerprint(l: &RoundLedger) -> (u64, u64, u64, u64) {
    (
        l.total(),
        l.bits_sent(),
        l.max_edge_bits(),
        l.congest_violations(),
    )
}

/// Asserts one node's engine view equals the central oracle.
fn assert_view_matches(g: &Graph, r: usize, view: &BallView<u32>) {
    let oracle = g.ball(view.center, r);
    let want_members: Vec<u32> = oracle.globals.iter().map(|w| w.0).collect();
    assert_eq!(view.members, want_members, "members of {}", view.center);
    // Oracle globals are sorted, so the distance arrays align.
    assert_eq!(view.dist, oracle.dist, "distances of {}", view.center);
    // Payloads travel intact with their nodes.
    for (i, &m) in view.members.iter().enumerate() {
        assert_eq!(view.payloads[i], m.wrapping_mul(7), "payload of {m}");
    }
    // The reconstructed induced subgraph is the oracle's, id-for-id.
    let ball = view.to_ball();
    assert_eq!(ball.graph, oracle.graph, "induced edges of {}", view.center);
    assert_eq!(ball.center, oracle.center);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_views_match_oracle_under_both_modes(g in arb_graph(), r in 1usize..4) {
        let run = |mode: ExecMode| {
            let _guard = force_exec_mode(mode);
            let mut ledger = RoundLedger::new();
            let views = run_ball_phase(
                &g,
                None,
                0,
                r,
                |v| v.0.wrapping_mul(7),
                |_, view| view.clone(),
                &mut ledger,
                "ball",
            );
            (views, ledger_fingerprint(&ledger))
        };
        let (seq, seq_fp) = run(ExecMode::Sequential);
        let (par, par_fp) = run(ExecMode::Parallel);
        prop_assert_eq!(&seq, &par, "schedules diverged");
        prop_assert_eq!(seq_fp, par_fp, "ledger fingerprints diverged");
        prop_assert_eq!(seq_fp.0, r as u64, "a radius-r collection costs r rounds");
        let (bits_sent, max_edge_bits) = central_flood_charge(&g, r, |_| true, |ws| {
            ball_relay_bits(&g, ws, |v| v.wrapping_mul(7))
        });
        prop_assert_eq!(seq_fp.1, bits_sent, "bits sent vs the central charge");
        prop_assert_eq!(seq_fp.2, max_edge_bits, "max edge bits vs the central charge");
        for view in &seq {
            assert_view_matches(&g, r, view);
        }
    }

    #[test]
    fn induced_views_match_materialized_subgraph(gm in arb_graph_with_mask(), r in 0usize..4) {
        // run_ball_phase on G[S] ≡ run_ball_phase on the materialized
        // g.induced(S), id for id, in the member-rank space.
        let (g, mask) = gm;
        let members: Vec<NodeId> = g.nodes().filter(|v| mask[v.index()]).collect();
        let (sub, _map) = g.induced(&members);
        let payload_of = |v: NodeId| v.0.wrapping_mul(7);
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let _guard = force_exec_mode(mode);
            let mut ledger = RoundLedger::new();
            let within = run_ball_phase(
                &g,
                Some(&mask),
                0,
                r,
                payload_of,
                |_, view| view.clone(),
                &mut ledger,
                "ball",
            );
            let mut sub_ledger = RoundLedger::new();
            let materialized = run_ball_phase(
                &sub,
                None,
                0,
                r,
                payload_of,
                |_, view| view.clone(),
                &mut sub_ledger,
                "ball",
            );
            prop_assert_eq!(&within, &materialized, "views diverged under {:?}", mode);
            prop_assert_eq!(ledger.total(), sub_ledger.total(), "dilation 1: same rounds");
        }
    }

    #[test]
    fn reach_floods_match_oracle_distances(
        g in arb_graph(),
        r in 1usize..4,
        stride in 1u32..5,
        keep in proptest::collection::vec(proptest::bool::ANY, 48..49),
    ) {
        // Every stride-th node is a source; each node must absorb
        // exactly the sources within distance r, at the right distance.
        let run = |mode: ExecMode| {
            let _guard = force_exec_mode(mode);
            let mut ledger = RoundLedger::new();
            let heard = reach_heard(&g, None, r, stride, &mut ledger);
            (heard, ledger_fingerprint(&ledger))
        };
        let (seq, seq_fp) = run(ExecMode::Sequential);
        let (par, par_fp) = run(ExecMode::Parallel);
        prop_assert_eq!(&seq, &par, "schedules diverged");
        prop_assert_eq!(seq_fp, par_fp);
        for (i, got) in seq.iter().enumerate() {
            let v = NodeId::from_index(i);
            let d = bfs::distances(&g, v);
            let mut want: Vec<(u32, u32)> = (0..g.n() as u32)
                .filter(|&s| s % stride == 0)
                .filter(|&s| d[s as usize] != bfs::UNREACHABLE && d[s as usize] as usize <= r)
                .map(|s| (s, d[s as usize]))
                .collect();
            want.sort_by_key(|&(s, dd)| (dd, s));
            prop_assert_eq!(got, &want, "node {} radius {}", v, r);
        }
        let (bits_sent, max_edge_bits) = central_flood_charge(
            &g,
            r,
            |w| w.0 % stride == 0,
            |ws| ReachMsg(ws.iter().map(|w| (w.0, ())).collect()).encoded_bits(),
        );
        prop_assert_eq!(seq_fp.1, bits_sent, "bits sent vs the central charge");
        prop_assert_eq!(seq_fp.2, max_edge_bits, "max edge bits vs the central charge");
        // Under a member mask the flood runs on G[S]: decisions and
        // rounds equal a run on the materialized g.induced(S), in the
        // member-rank space.
        let mask = &keep[..g.n()];
        let members: Vec<NodeId> = g.nodes().filter(|v| mask[v.index()]).collect();
        let (sub, _map) = g.induced(&members);
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let _guard = force_exec_mode(mode);
            let mut ledger = RoundLedger::new();
            let within = reach_heard(&g, Some(mask), r, stride, &mut ledger);
            let mut sub_ledger = RoundLedger::new();
            let materialized = reach_heard(&sub, None, r, stride, &mut sub_ledger);
            prop_assert_eq!(&within, &materialized, "decisions diverged under {:?}", mode);
            prop_assert_eq!(ledger.total(), sub_ledger.total(), "dilation 1: same rounds");
        }
    }

    #[test]
    fn centered_collection_matches_oracle(g in arb_graph(), sel in 0usize..48, r in 1usize..4) {
        let center = NodeId((sel % g.n()) as u32);
        let run = |mode: ExecMode| {
            let _guard = force_exec_mode(mode);
            let mut ledger = RoundLedger::new();
            let ball = collect_ball_centered(&g, center, r, &mut ledger, "probe");
            (ball, ledger_fingerprint(&ledger))
        };
        let (seq, seq_fp) = run(ExecMode::Sequential);
        let (par, par_fp) = run(ExecMode::Parallel);
        prop_assert_eq!(seq_fp, par_fp, "ledger fingerprints diverged");
        prop_assert_eq!(&seq.globals, &par.globals);
        prop_assert_eq!(&seq.graph, &par.graph);
        let oracle = g.ball(center, r);
        prop_assert_eq!(&seq.globals, &oracle.globals);
        prop_assert_eq!(&seq.dist, &oracle.dist);
        prop_assert_eq!(&seq.graph, &oracle.graph, "induced subgraph mismatch");
        prop_assert_eq!(seq.center, oracle.center);
        prop_assert_eq!(seq_fp.0, 2 * r as u64, "out-and-back costs 2r rounds");
    }
}
