//! Criterion round-throughput benchmarks of the LOCAL engine itself.
//!
//! Everything the repository simulates — Luby MIS, Linial, the
//! list-coloring and reduction phases of the Δ-coloring pipeline — runs
//! through `Engine::step`, so this benchmark isolates the delivery
//! substrate from the algorithms: trivial node programs whose cost is
//! dominated by message routing, across the three traffic shapes
//! (broadcast-only, directed-only, mixed), three graph families
//! (cycle, random 4-regular, torus), sizes n ∈ {2^10, 2^14, 2^17}, and
//! both schedules. The reported mean is the wall-clock of
//! `ROUNDS_PER_ITER` engine rounds; divide for rounds/sec.
//!
//! The closures are intentionally cheap (`u64` payloads, a couple of
//! ALU ops) so that regressions in the mailbox path — per-round
//! allocation, per-message edge lookups, clone overhead — dominate the
//! measurement instead of being hidden behind algorithm compute.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use delta_graphs::{generators, Graph};
use local_model::{run_ball_phase, Engine, ExecMode, Outbox, RoundLedger};
use std::hint::black_box;

/// Rounds executed per measured iteration.
const ROUNDS_PER_ITER: u64 = 4;

/// Traffic shapes exercised per graph.
#[derive(Clone, Copy)]
enum Workload {
    /// Every node broadcasts one `u64` per round.
    Broadcast,
    /// Every node sends one directed `u64` to each neighbor per round.
    Directed,
    /// Broadcast plus one directed message to the smallest neighbor.
    Mixed,
}

impl Workload {
    fn label(self) -> &'static str {
        match self {
            Workload::Broadcast => "broadcast",
            Workload::Directed => "directed",
            Workload::Mixed => "mixed",
        }
    }
}

fn mode_label(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Sequential => "seq",
        ExecMode::Parallel => "par",
        ExecMode::Auto => "auto",
    }
}

/// Runs `ROUNDS_PER_ITER` rounds of `workload` on a persistent engine.
/// `g` is the same graph the engine runs on (a second shared borrow).
fn run_rounds(
    engine: &mut Engine<'_, u64>,
    g: &Graph,
    ledger: &mut RoundLedger,
    workload: Workload,
) {
    for _ in 0..ROUNDS_PER_ITER {
        match workload {
            Workload::Broadcast => engine.step(
                ledger,
                "bench",
                |_, s: &mut u64, out: &mut Outbox<u64>| out.broadcast(*s),
                |_, s, inbox| {
                    for &(w, m) in inbox {
                        *s = s.wrapping_add(m ^ w.0 as u64);
                    }
                },
            ),
            Workload::Directed => engine.step(
                ledger,
                "bench",
                |ctx, s: &mut u64, out: &mut Outbox<u64>| {
                    for &w in g.neighbors(ctx.id) {
                        out.send_to(w, *s ^ w.0 as u64);
                    }
                },
                |_, s, inbox| {
                    for &(w, m) in inbox {
                        *s = s.wrapping_add(m ^ w.0 as u64);
                    }
                },
            ),
            Workload::Mixed => engine.step(
                ledger,
                "bench",
                |ctx, s: &mut u64, out: &mut Outbox<u64>| {
                    out.broadcast(*s);
                    if let Some(&w) = g.neighbors(ctx.id).first() {
                        out.send_to(w, !*s);
                    }
                },
                |_, s, inbox| {
                    for &(w, m) in inbox {
                        *s = s.wrapping_mul(31).wrapping_add(m ^ w.0 as u64);
                    }
                },
            ),
        }
    }
}

fn graph_for(family: &str, n: usize) -> Graph {
    match family {
        "cycle" => generators::cycle(n),
        "rr4" => generators::random_regular(n, 4, 12),
        "torus" => {
            let side = (n as f64).sqrt().round() as usize;
            generators::torus(side, side)
        }
        other => panic!("unknown family {other}"),
    }
}

fn bench_engine_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-rounds");
    group.sample_size(12);
    for &n in &[1usize << 10, 1 << 14, 1 << 17] {
        for family in ["cycle", "rr4", "torus"] {
            let g = graph_for(family, n);
            for workload in [Workload::Broadcast, Workload::Directed, Workload::Mixed] {
                for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                    // Label with the realized node count: the torus
                    // rounds n to a square (131_044 at 2^17), and a
                    // mislabeled size would skew cross-family and
                    // cross-revision comparisons.
                    let id = BenchmarkId::new(
                        format!("{family}/{}/{}", workload.label(), mode_label(mode)),
                        g.n(),
                    );
                    group.bench_with_input(id, &n, |b, _| {
                        let mut ledger = RoundLedger::new();
                        let mut engine = Engine::new(&g, 42, |v| v.0 as u64).with_mode(mode);
                        // Warm-up round outside criterion's own warm-up
                        // so arena growth is excluded from the samples.
                        run_rounds(&mut engine, &g, &mut ledger, workload);
                        b.iter(|| {
                            run_rounds(&mut engine, &g, &mut ledger, workload);
                            black_box(engine.states()[0])
                        });
                    });
                }
            }
        }
    }
    group.finish();
}

/// The routing pass in isolation: directed-heavy traffic (one `u64`
/// per arc per round, so resolution and arena fill dominate over the
/// node closures) on a random 4-regular graph, sequential vs parallel
/// schedule, across sizes straddling [`local_model::PARALLEL_THRESHOLD`]
/// (4096). The sequential schedule runs every round as one part, the
/// parallel one as one part per worker thread (at least two) at every
/// size, so the seq/par pair tracks what the multi-part split and its
/// fan-out cost or win at each size.
fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-rounds");
    group.sample_size(12);
    for &n in &[1usize << 10, 1 << 12, 1 << 14, 1 << 17] {
        let g = graph_for("rr4", n);
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let id = BenchmarkId::new(format!("routing/{}", mode_label(mode)), g.n());
            group.bench_with_input(id, &n, |b, _| {
                let mut ledger = RoundLedger::new();
                let mut engine = Engine::new(&g, 42, |v| v.0 as u64).with_mode(mode);
                run_rounds(&mut engine, &g, &mut ledger, Workload::Directed);
                b.iter(|| {
                    run_rounds(&mut engine, &g, &mut ledger, Workload::Directed);
                    black_box(engine.states()[0])
                });
            });
        }
    }
    group.finish();
}

/// Ball-collection throughput: the certificate-flood relay overhead of
/// `local_model::ball` across radii 1..=3 and the three graph families.
/// One measured iteration is a full all-nodes collection (every node
/// assembles its radius-r view and reduces it to a count), so the
/// number tracks the subsystem's end-to-end relay cost — the quantity
/// the ruling/marking/DCC migrations ride on — in the perf trajectory.
fn bench_ball_collection(c: &mut Criterion) {
    let mut group = c.benchmark_group("ball-collection");
    group.sample_size(10);
    let n = 1usize << 10;
    for family in ["cycle", "rr4", "torus"] {
        let g = graph_for(family, n);
        for radius in 1usize..=3 {
            let id = BenchmarkId::new(format!("{family}/r{radius}"), g.n());
            group.bench_with_input(id, &radius, |b, &r| {
                b.iter(|| {
                    let mut ledger = RoundLedger::new();
                    let sizes = run_ball_phase::<(), _, _, _>(
                        &g,
                        None,
                        0,
                        r,
                        |_| (),
                        |_, view| view.len() + view.edges.len(),
                        &mut ledger,
                        "bench",
                    );
                    black_box((sizes[0], ledger.bits_sent()))
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_rounds,
    bench_routing,
    bench_ball_collection
);
criterion_main!(benches);
