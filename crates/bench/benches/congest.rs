//! Criterion round-throughput benchmarks of the CONGEST compilation
//! layer.
//!
//! The congest layer buys honest `O(log n)`-bit wires at the price of
//! fragmenting every oversized payload into framed chunks and running
//! the extra wire rounds that pipelines them. This group measures
//! where that trade lands: the same mixed workload (one oversized
//! broadcast + one oversized directed message per node per logical
//! round) on the plain single-arena engine (`local/...` — the
//! overhead floor, one wire round per logical round) versus
//! [`CongestEngine`] at budgets b ∈ {32, 64, 128} bits
//! (`congest{b}/...` — tighter budgets mean more chunks and more wire
//! rounds per logical round). The reported mean is `ROUNDS_PER_ITER`
//! *logical* rounds of wall-clock; divide for logical rounds/sec, and
//! note the enforced variants execute `blowup` × as many wire rounds
//! inside that span.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use delta_graphs::{io, Graph};
use local_model::{CongestEngine, Engine, Outbox, RoundDriver, RoundLedger};
use std::hint::black_box;

/// Logical rounds executed per measured iteration.
const ROUNDS_PER_ITER: u64 = 4;

/// ~115 gamma-coded bits: several chunks at every benchmarked budget.
const PAYLOAD: u64 = (1 << 56) - 3;

/// `ROUNDS_PER_ITER` logical rounds of the oversized mixed workload on
/// any driver (the plain engine or a compiled one).
fn run_rounds<D: RoundDriver<u64>>(driver: &mut D, g: &Graph, ledger: &mut RoundLedger) {
    for _ in 0..ROUNDS_PER_ITER {
        driver.round_step(
            ledger,
            "bench",
            |ctx, s: &mut u64, out: &mut Outbox<u64>| {
                out.broadcast(PAYLOAD ^ *s);
                if let Some(&w) = g.neighbors(ctx.id).first() {
                    out.send_to(w, PAYLOAD.wrapping_add(*s));
                }
            },
            |_, s, inbox| {
                for &(w, m) in inbox {
                    *s = s.wrapping_mul(31).wrapping_add(m ^ w.0 as u64);
                }
            },
        );
    }
}

fn bench_congest_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("congest");
    group.sample_size(12);
    for &n in &[1usize << 14, 1 << 17] {
        let g = io::stream_circulant4(n);
        let mut engine = Engine::new(&g, 7, |v| v.0 as u64);
        let mut ledger = RoundLedger::new();
        group.bench_with_input(
            BenchmarkId::new("rounds", format!("local/n={n}")),
            &ROUNDS_PER_ITER,
            |b, _| {
                b.iter(|| {
                    run_rounds(&mut engine, &g, &mut ledger);
                    black_box(ledger.total())
                })
            },
        );
        for budget in [32u64, 64, 128] {
            let mut engine = CongestEngine::enforced(Engine::new(&g, 7, |v| v.0 as u64), budget);
            let mut ledger = RoundLedger::new();
            group.bench_with_input(
                BenchmarkId::new("rounds", format!("congest{budget}/n={n}")),
                &ROUNDS_PER_ITER,
                |b, _| {
                    b.iter(|| {
                        run_rounds(&mut engine, &g, &mut ledger);
                        black_box(ledger.total())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_congest_rounds);
criterion_main!(benches);
