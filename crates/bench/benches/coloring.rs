//! Criterion wall-clock benchmarks of the simulator-level algorithms.
//!
//! These measure *simulation* wall-clock, a secondary metric (the
//! primary metric everywhere else is LOCAL rounds). Useful for catching
//! performance regressions in the substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use delta_coloring::baseline;
use delta_coloring::brooks;
use delta_coloring::delta::{delta_color_det, delta_color_rand, DetConfig, RandConfig};
use delta_coloring::gallai;
use delta_coloring::linial::linial_coloring;
use delta_coloring::list_coloring::{self, ListColorMethod};
use delta_coloring::marking::{marking_process, MarkingParams};
use delta_coloring::mis::luby_mis;
use delta_coloring::palette::{Lists, PartialColoring};
use delta_coloring::ruling;
use delta_graphs::{bfs, generators, NodeId};
use local_model::RoundLedger;
use std::hint::black_box;

fn bench_substrates(c: &mut Criterion) {
    let g = generators::random_regular(2000, 4, 1);
    c.bench_function("linial/rr4-2000", |b| {
        b.iter(|| {
            let mut ledger = RoundLedger::new();
            black_box(linial_coloring(&g, &mut ledger, "linial"))
        })
    });
    c.bench_function("luby-mis/rr4-2000", |b| {
        b.iter(|| {
            let mut ledger = RoundLedger::new();
            black_box(luby_mis(&g, 7, &mut ledger, "mis"))
        })
    });
    c.bench_function("ruling-set-det/rr4-2000", |b| {
        b.iter(|| {
            let mut ledger = RoundLedger::new();
            black_box(ruling::ruling_set_deterministic(&g, &mut ledger, "rs"))
        })
    });
    c.bench_function("marking/rr4-2000", |b| {
        b.iter(|| {
            let mut coloring = PartialColoring::new(g.n());
            let mut ledger = RoundLedger::new();
            black_box(marking_process(
                &g,
                None,
                MarkingParams { p: 0.005, b: 6 },
                3,
                &mut coloring,
                &mut ledger,
                "m",
            ))
        })
    });
    c.bench_function("blocks+dcc-detect/rr4-2000", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for i in 0..100u32 {
                let v = NodeId((i * 17) % 2000);
                found += gallai::find_dcc_for_node(&g, v, 2, 4, 64).is_some() as usize;
            }
            black_box(found)
        })
    });
    c.bench_function("ball-radius-4/rr4-2000", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for i in 0..100u32 {
                total += bfs::ball(&g, NodeId((i * 13) % 2000), 4).len();
            }
            black_box(total)
        })
    });
}

fn bench_list_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("list-coloring");
    for &n in &[1024usize, 4096] {
        let g = generators::random_regular(n, 4, 2);
        let lists = Lists::uniform(g.n(), 5);
        group.bench_with_input(BenchmarkId::new("randomized", n), &g, |b, g| {
            b.iter(|| {
                let mut ledger = RoundLedger::new();
                black_box(
                    list_coloring::list_color(
                        g,
                        &lists,
                        PartialColoring::new(g.n()),
                        ListColorMethod::Randomized,
                        1,
                        &mut ledger,
                        "lc",
                    )
                    .unwrap(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("deterministic", n), &g, |b, g| {
            b.iter(|| {
                let mut ledger = RoundLedger::new();
                black_box(
                    list_coloring::list_color(
                        g,
                        &lists,
                        PartialColoring::new(g.n()),
                        ListColorMethod::Deterministic,
                        1,
                        &mut ledger,
                        "lc",
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_brooks_repair(c: &mut Criterion) {
    let g = generators::random_regular(4096, 4, 5);
    let base = brooks::brooks_color(&g, 4).unwrap();
    c.bench_function("brooks-repair/rr4-4096", |b| {
        b.iter(|| {
            let mut coloring = base.clone();
            coloring.unset(NodeId(17));
            let mut ledger = RoundLedger::new();
            black_box(
                brooks::repair_single_uncolored(&g, &mut coloring, NodeId(17), 4, &mut ledger, "r")
                    .unwrap(),
            )
        })
    });
    c.bench_function("brooks-sequential/rr4-4096", |b| {
        b.iter(|| black_box(brooks::brooks_color(&g, 4).unwrap()))
    });
}

fn bench_delta_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta-coloring");
    group.sample_size(10);
    for &n in &[1024usize, 4096] {
        let g = generators::random_regular(n, 4, 3);
        group.bench_with_input(BenchmarkId::new("rand-large", n), &g, |b, g| {
            b.iter(|| {
                let cfg = RandConfig::large_delta(g, 1);
                let mut ledger = RoundLedger::new();
                black_box(delta_color_rand(g, cfg, &mut ledger).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("det", n), &g, |b, g| {
            b.iter(|| {
                let mut ledger = RoundLedger::new();
                black_box(delta_color_det(g, DetConfig::default(), &mut ledger).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("ps-baseline", n), &g, |b, g| {
            b.iter(|| {
                let mut ledger = RoundLedger::new();
                black_box(baseline::ps_style_delta(g, 2, &mut ledger).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("delta+1-baseline", n), &g, |b, g| {
            b.iter(|| {
                let mut ledger = RoundLedger::new();
                black_box(baseline::randomized_delta_plus_one(g, 3, &mut ledger).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    c.bench_function("random-regular/rr4-8192", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(generators::random_regular(8192, 4, seed))
        })
    });
}

criterion_group!(
    benches,
    bench_substrates,
    bench_list_coloring,
    bench_brooks_repair,
    bench_delta_coloring,
    bench_generators
);
criterion_main!(benches);
