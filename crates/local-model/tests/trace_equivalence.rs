//! The trace is a view of the ledger, never a second source of truth.
//!
//! Every record stream a [`Tracer`] emits is derived from the traced
//! [`RoundLedger`]'s own charge calls, so summing the stream must
//! reproduce the ledger's round/bit/fault totals exactly — on the plain
//! engine, both overlay families (`G^k`, `G[S]`), the sharded engine at
//! S ∈ {1, 2, 8}, under CONGEST enforcement, and under fault injection,
//! in both [`ExecMode`]s.
//! The JSONL encoding must round-trip through the reader with the same
//! totals and a consistent trailer, and the reader's fold of it must
//! equal what the tracer itself reports.

use delta_graphs::{bfs, generators, Graph, NodeId, ShardPlan};
use local_model::{
    force_exec_mode, run_reach_phase, CongestEngine, Engine, ExecMode, FaultPlan, FaultyDriver,
    InducedOverlay, JsonlSink, Outbox, OverlayEngine, PowerOverlay, RoundDriver, RoundLedger,
    RoundMeta, RunManifest, TraceLine, TraceSink, TraceSummary, Tracer, VirtualRecord,
    CONGEST_LEVEL, MIN_CONGEST_BITS,
};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Drives `rounds` broadcast rounds of a mixing program on any driver.
fn drive<D: RoundDriver<u64>>(drv: &mut D, ledger: &mut RoundLedger, rounds: usize) {
    for _ in 0..rounds {
        drv.round_step(
            ledger,
            "trace-eq",
            |ctx, s: &mut u64, out: &mut Outbox<u64>| {
                *s = s
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(ctx.id.0 as u64);
                out.broadcast(*s);
            },
            |_, s, inbox| {
                for &(w, m) in inbox {
                    *s = s.wrapping_add(m ^ w.0 as u64);
                }
            },
        );
    }
}

/// The equivalence at the heart of the layer: trace totals ≡ ledger.
fn assert_trace_matches(tr: &Tracer, ledger: &RoundLedger) {
    let t = tr.totals();
    assert_eq!(t.rounds, ledger.total(), "rounds");
    assert_eq!(t.bits, ledger.bits_sent(), "bits");
    assert_eq!(t.max_edge_bits, ledger.max_edge_bits(), "max_edge_bits");
    assert_eq!(t.violations, ledger.congest_violations(), "violations");
    assert_eq!(t.faults, ledger.faults(), "faults");
}

/// A sink keeping every event it is handed; clone it before moving it
/// into a [`Tracer`] to keep a read handle.
#[derive(Clone, Default)]
struct Lines(Arc<Mutex<Vec<TraceLine>>>);

impl TraceSink for Lines {
    fn on_line(&mut self, line: &TraceLine) {
        self.0.lock().unwrap().push(line.clone());
    }
}

impl Lines {
    /// An enabled tracer streaming into this collector.
    fn tracer(&self) -> Tracer {
        Tracer::with_sinks(vec![Box::new(self.clone())])
    }

    /// The reader's fold of everything collected so far.
    fn summary(&self) -> TraceSummary {
        TraceSummary::from_lines(self.0.lock().unwrap().clone())
    }

    /// The engine enrichment of every round record.
    fn metas(&self) -> Vec<RoundMeta> {
        let lines = self.0.lock().unwrap();
        lines
            .iter()
            .filter_map(|l| match l {
                TraceLine::Round(r) => r.meta.clone(),
                _ => None,
            })
            .collect()
    }

    /// Every virtual-round record, in stream order.
    fn virtuals(&self) -> Vec<VirtualRecord> {
        let lines = self.0.lock().unwrap();
        lines
            .iter()
            .filter_map(|l| match l {
                TraceLine::Virtual(r) => Some(r.clone()),
                _ => None,
            })
            .collect()
    }

    /// Every value observed under `name`, in stream order.
    fn observed(&self, name: &str) -> Vec<u64> {
        let lines = self.0.lock().unwrap();
        lines
            .iter()
            .filter_map(|l| match l {
                TraceLine::Observe { name: n, value } if n == name => Some(*value),
                _ => None,
            })
            .collect()
    }
}

fn host() -> Graph {
    generators::random_regular(96, 4, 31)
}

/// `(node, source)` pairs at distance `1..=r`, by BFS: the sum of a
/// radius-`r` flood's per-round frontier sizes.
fn pairs_within(g: &Graph, r: u32, is_source: impl Fn(NodeId) -> bool) -> u64 {
    g.nodes()
        .map(|v| {
            let d = bfs::distances(g, v);
            g.nodes()
                .filter(|&w| is_source(w) && (1..=r).contains(&d[w.index()]))
                .count() as u64
        })
        .sum()
}

#[test]
fn engine_trace_totals_match_ledger_in_both_modes() {
    for mode in [ExecMode::Sequential, ExecMode::Parallel] {
        let lines = Lines::default();
        let tr = lines.tracer();
        let mut ledger = tr.ledger();
        let g = host();
        let mut engine = Engine::new(&g, 7, |v| v.0 as u64).with_mode(mode);
        drive(&mut engine, &mut ledger, 9);
        assert_trace_matches(&tr, &ledger);
        // The sink saw the same stream: one record per round.
        let summary = lines.summary();
        assert_eq!(summary.totals, tr.totals());
        assert_eq!(summary.totals.records, 9);
        // Engine enrichment flowed through: per-round deliveries sum to
        // the engine's cumulative stats.
        let metas = lines.metas();
        assert_eq!(metas.len(), 9);
        let stats = engine.message_stats();
        assert_eq!(
            metas.iter().map(|m| m.deliveries).sum::<u64>(),
            stats.deliveries
        );
        assert_eq!(
            metas.iter().map(|m| m.broadcasts).sum::<u64>(),
            stats.broadcasts
        );
        assert!(metas.iter().map(|m| m.max_inbox).max() >= Some(4));
    }
}

#[test]
fn overlay_trace_totals_match_ledger_in_both_modes() {
    let g = host();
    let members: Vec<bool> = (0..g.n()).map(|v| v % 3 != 0).collect();
    for mode in [ExecMode::Sequential, ExecMode::Parallel] {
        // G^k: the k host relay rounds emit the round records; the
        // virtual rounds ride along level-tagged.
        let lines = Lines::default();
        let tr = lines.tracer();
        let mut ledger = tr.ledger();
        let mut power =
            OverlayEngine::new(&g, PowerOverlay { k: 3 }, 5, |v| v.0 as u64).with_mode(mode);
        drive(&mut power, &mut ledger, 4);
        assert_trace_matches(&tr, &ledger);
        assert_eq!(ledger.total(), 12, "4 virtual rounds dilate to 12");
        assert_eq!(lines.summary().virtual_rounds, 4);
        // One frontier observation per relay round; each virtual round
        // (every node broadcasts) reaches every pair at distance 1..=3.
        let frontier = lines.observed("flood_frontier");
        assert_eq!(frontier.len(), 12, "one observation per relay round");
        assert_eq!(
            frontier.iter().sum::<u64>(),
            4 * pairs_within(&g, 3, |_| true)
        );

        // G[S]: dilation 1, directed envelopes.
        let lines = Lines::default();
        let tr = lines.tracer();
        let mut ledger = tr.ledger();
        let mut induced =
            OverlayEngine::new(&g, InducedOverlay { members: &members }, 5, |v| v.0 as u64)
                .with_mode(mode);
        drive(&mut induced, &mut ledger, 5);
        assert_trace_matches(&tr, &ledger);
        assert_eq!(lines.summary().virtual_rounds, 5);
    }
}

/// An enforced CONGEST engine emits one `congest` record per logical
/// round, numbered from 0, whose `host_rounds` are the wire rounds that
/// round was charged: they sum to the ledger's total.
#[test]
fn congest_records_carry_each_logical_rounds_dilation() {
    let g = host();
    for mode in [ExecMode::Sequential, ExecMode::Parallel] {
        let lines = Lines::default();
        let tr = lines.tracer();
        let mut ledger = tr.ledger();
        let engine = Engine::new(&g, 7, |v| v.0 as u64).with_mode(mode);
        let mut drv = CongestEngine::enforced(engine, MIN_CONGEST_BITS);
        drive(&mut drv, &mut ledger, 4);
        assert_trace_matches(&tr, &ledger);
        let records = lines.virtuals();
        assert!(records.iter().all(|r| r.level == CONGEST_LEVEL));
        let vrounds: Vec<u64> = records.iter().map(|r| r.vround).collect();
        assert_eq!(vrounds, [0, 1, 2, 3], "one record per logical round");
        let wire: Vec<u64> = records.iter().map(|r| r.host_rounds).collect();
        assert_eq!(wire.iter().sum::<u64>(), ledger.total());
        assert!(
            wire.iter().any(|&w| w > 1),
            "u64 broadcasts fragment at {MIN_CONGEST_BITS} bits: {wire:?}"
        );
    }
}

#[test]
fn reach_flood_observes_its_frontier_in_both_modes() {
    let g = host();
    let is_source = |v: NodeId| v.0.is_multiple_of(5);
    for mode in [ExecMode::Sequential, ExecMode::Parallel] {
        let _guard = force_exec_mode(mode);
        let lines = Lines::default();
        let tr = lines.tracer();
        let mut ledger = tr.ledger();
        let heard = run_reach_phase(
            &g,
            None,
            0,
            3,
            |v| is_source(v).then_some(()),
            |_| 0u64,
            |acc: &mut u64, _, _, _| *acc += 1,
            |_, &acc| acc,
            &mut ledger,
            "reach",
        );
        assert_trace_matches(&tr, &ledger);
        let frontier = lines.observed("flood_frontier");
        assert_eq!(frontier.len(), 3, "one observation per relay round");
        let pairs: u64 = frontier.iter().sum();
        assert_eq!(pairs, pairs_within(&g, 3, is_source));
        // The frontier pairs plus each source's own entry are exactly
        // what the nodes absorbed.
        let sources = g.nodes().filter(|&v| is_source(v)).count() as u64;
        assert_eq!(heard.iter().sum::<u64>(), pairs + sources);
    }
}

#[test]
fn sharded_trace_totals_match_ledger_for_s_1_2_8() {
    let g = host();
    for mode in [ExecMode::Sequential, ExecMode::Parallel] {
        for shards in [1usize, 2, 8] {
            let lines = Lines::default();
            let tr = lines.tracer();
            let mut ledger = tr.ledger();
            let plan = ShardPlan::contiguous(g.n(), shards);
            let mut engine = Engine::sharded(&g, plan, 7, |v| v.0 as u64).with_mode(mode);
            drive(&mut engine, &mut ledger, 6);
            assert_trace_matches(&tr, &ledger);
            // Per-shard boundary enrichment sums to the engine's own
            // boundary meter.
            let metas = lines.metas();
            let boundary = metas.iter().flat_map(|m| m.boundary.iter());
            let blocks: u64 = boundary.clone().map(|&(blocks, _)| blocks).sum();
            let bits: u64 = boundary.map(|&(_, bits)| bits).sum();
            let b = engine.boundary_stats();
            assert_eq!(blocks, b.blocks, "S={shards}");
            assert_eq!(bits, b.block_bits, "S={shards}");
            assert!(metas.iter().map(|m| m.max_inbox).max() >= Some(4));
            if shards == 1 {
                assert_eq!(b.blocks, 0, "S=1 has no cross-shard traffic");
            } else {
                assert!(b.blocks > 0, "S={shards} crossed shard boundaries");
            }
        }
    }
}

#[test]
fn faulted_trace_totals_match_ledger_in_both_modes() {
    let g = host();
    let plan = FaultPlan::new(2024)
        .with_drops(150_000)
        .with_duplicates(90_000)
        .with_corruption(70_000)
        .with_crash_window(5, 1, 4);
    for mode in [ExecMode::Sequential, ExecMode::Parallel] {
        let lines = Lines::default();
        let tr = lines.tracer();
        let mut ledger = tr.ledger();
        let engine = Engine::new(&g, 11, |v| v.0 as u64).with_mode(mode);
        let mut drv = FaultyDriver::new(engine, plan.clone());
        drive(&mut drv, &mut ledger, 8);
        assert_trace_matches(&tr, &ledger);
        let f = ledger.faults();
        assert!(
            f.dropped > 0 && f.duplicated > 0,
            "plan actually injected faults"
        );
        // The streamed fault deltas sum to all four ledger counters.
        assert_eq!(lines.summary().totals.faults, f);
    }
}

#[test]
fn central_charges_count_too() {
    // Charges that never pass through an engine (central simulations)
    // land in the stream next to engine rounds.
    let tr = Tracer::collecting();
    let mut ledger = tr.ledger();
    ledger.charge("central-bfs", 17);
    ledger.charge_round("probe", 1000, 128, 2, None);
    ledger.charge("central-probe", 3);
    tr.finish();
    assert_trace_matches(&tr, &ledger);
}

/// A cloneable in-memory writer so the test can read back what the
/// moved-in sink wrote.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn jsonl_round_trips_through_the_reader() {
    let g = host();
    let buf = SharedBuf::default();
    let tr = Tracer::with_sinks(vec![Box::new(JsonlSink::new(Box::new(buf.clone())))]);

    let mut manifest = RunManifest::new("trace-eq");
    manifest.seed = 7;
    manifest.nodes = g.n() as u64;
    manifest.edges = g.m() as u64;
    manifest.exec_mode = "sequential".to_string();
    tr.manifest(&manifest);

    let mut ledger = tr.ledger();
    {
        let _span = tr.span("engine");
        let mut engine = Engine::new(&g, 7, |v| v.0 as u64).with_mode(ExecMode::Sequential);
        drive(&mut engine, &mut ledger, 5);
    }
    {
        let _span = tr.span("overlay");
        let mut power = OverlayEngine::new(&g, PowerOverlay { k: 2 }, 3, |v| v.0 as u64)
            .with_mode(ExecMode::Sequential);
        drive(&mut power, &mut ledger, 2);
    }
    {
        let _span = tr.span("faulty");
        let engine = Engine::new(&g, 9, |v| v.0 as u64).with_mode(ExecMode::Sequential);
        let mut drv = FaultyDriver::new(engine, FaultPlan::new(3).with_drops(200_000));
        drive(&mut drv, &mut ledger, 4);
    }
    tr.finish();

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("valid utf-8");
    let lines: Vec<TraceLine> = text
        .lines()
        .map(|l| local_model::parse_trace_line(l).expect("every line parses"))
        .collect();
    assert!(
        matches!(lines.first(), Some(TraceLine::Manifest(_))),
        "manifest leads the stream"
    );

    let summary = TraceSummary::from_lines(lines);
    summary.check_consistent().expect("trailer matches stream");
    assert_eq!(summary.totals.rounds, ledger.total());
    assert_eq!(summary.totals.bits, ledger.bits_sent());
    assert_eq!(summary.totals.max_edge_bits, ledger.max_edge_bits());
    assert_eq!(summary.totals.faults, ledger.faults());
    // Writer and reader run one fold: the reader's summary of the JSONL
    // is what the tracer itself reports.
    assert_eq!(summary.totals, tr.totals());
    assert_eq!(tr.span_totals(), summary.span_tree());
    let m = summary.manifest.as_ref().expect("manifest parsed");
    assert_eq!(m, &manifest);
    assert_eq!(summary.virtual_rounds, 2, "two G^2 virtual rounds");
    // All three spans closed, with the engine span holding its rounds.
    let tree = summary.span_tree();
    assert_eq!(tree.len(), 3);
    let engine_span = tree.iter().find(|(p, _)| p == "engine").unwrap();
    assert_eq!(engine_span.1.rounds, 5);
    // Phase aggregation covers everything that was charged.
    let phase_sum: u64 = summary.phases().iter().map(|(_, a)| a.rounds).sum();
    assert_eq!(phase_sum, ledger.total());
}
