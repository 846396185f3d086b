//! Experiment harness CLI.
//!
//! ```text
//! experiments [--quick] [--check-baseline] [--congest-bits N] [--out DIR] [ids...]
//! ```
//!
//! With no ids, runs every experiment (T1–T6, F1–F9, listed in
//! `delta_coloring_bench::experiments::ALL`),
//! fanning the experiments out across worker threads. Prints aligned
//! tables to stdout (in canonical order), writes one CSV per experiment
//! into `--out DIR` (default `results/`), and emits a
//! `BENCH_delta.json` summary with per-experiment wall-clock, simulated
//! LOCAL rounds, and the heaviest per-edge-per-round load
//! (`max_edge_bits`) the engine's CONGEST-style accounting observed —
//! so bandwidth regressions diff exactly like wall-clock ones.
//!
//! After the tables, a **bandwidth table** lists each experiment's
//! measured heaviest per-edge load against the `O(log n)` CONGEST
//! budget, with the fragmentation factor that load would cost on
//! CONGEST wires; `trace-summary` splits the same figure by phase (its
//! `max-edge` column). `--congest-bits N` overrides
//! the enforced wire budget the `f9` experiment runs under (default
//! `congest_budget(n)`); the chosen budget lands in `BENCH_delta.json`
//! as f9's `congest_bits` metric.
//!
//! Before anything is written, the fresh numbers are **diffed against
//! the committed baseline** (`BENCH_delta.json` in the working
//! directory, if present): a per-experiment wall-clock delta table goes
//! to stdout, so every revision sees its performance trajectory at a
//! glance. Comparisons are only apples-to-apples when the `quick` flags
//! match — the table says so when they don't.
//!
//! The summary always lands in the output directory; a run covering the
//! **full** experiment set additionally refreshes `BENCH_delta.json` in
//! the working directory — the committed performance-trajectory
//! baseline — so partial smoke runs never clobber it. Wall-clock values
//! are measured while experiments share cores (`timing: "concurrent"`);
//! `simulated_rounds` is the contention-free metric for cross-revision
//! comparison.
//!
//! `--check-baseline` turns the diff into a gate (the CI
//! bench-regression smoke step): after the sweep, the run's summed
//! `total_simulated_rounds` and every experiment's `max_edge_bits`
//! must equal the committed baseline's exactly — both are
//! deterministic simulation outputs, so any drift is a behavioral
//! change — while wall-clock stays advisory. Drift exits nonzero, and
//! check mode never refreshes the committed baseline file.

use delta_coloring_bench::bench_json::{summary_json, Baseline};
use delta_coloring_bench::experiments::{run, Scale, ALL};
use delta_coloring_bench::Table;
use local_model::{
    congest_budget, JsonlSink, ProgressSink, RoundLedger, RunManifest, TraceSink, Tracer,
};
use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Peak-tracking wrapper around the system allocator: the binary
/// measures the resident-heap high-water mark of the materialized-`G^7`
/// ruling path against the overlay path and records both in
/// `BENCH_delta.json` (the overlay's headline memory claim, kept
/// honest across revisions).
struct PeakAlloc;

static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counters are
// advisory and never influence allocation behavior.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let now = CURRENT_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed)
                + layout.size() as u64;
            PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Peak heap (bytes above the pre-measurement baseline) of the two
/// `(8, 7)`-ruling-set paths: materialized `power_graph(g, 7)` + Luby
/// vs Luby on the `G^7` overlay. Runs before the experiment sweep with
/// the sequential schedule forced (full-mode `n` reaches the parallel
/// threshold, and rayon pool setup + fan-out allocations would pollute
/// the counters asymmetrically), so the peaks see only the measured
/// path.
fn measure_g7_ruling_peaks(quick: bool) -> (u64, u64) {
    let _seq = local_model::force_exec_mode(local_model::ExecMode::Sequential);
    let n = if quick { 1 << 11 } else { 1 << 12 };
    let g = delta_graphs::generators::random_regular(n, 4, 7);
    let reset = || {
        let now = CURRENT_BYTES.load(Ordering::Relaxed);
        PEAK_BYTES.store(now, Ordering::Relaxed);
        now
    };
    let base = reset();
    let materialized = {
        let gk = delta_graphs::power::power_graph(&g, 7);
        let mut ledger = RoundLedger::new();
        let mask = delta_coloring::mis::luby_mis(&gk, 9, &mut ledger, "g7");
        std::hint::black_box(mask.len());
        PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(base)
    };
    let base = reset();
    let overlay = {
        let mut ledger = RoundLedger::new();
        let set = delta_coloring::ruling::ruling_set_randomized(&g, 8, 9, &mut ledger, "g7");
        std::hint::black_box(set.len());
        PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(base)
    };
    (materialized, overlay)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut check_baseline = false;
    let mut congest_bits: Option<u64> = None;
    let mut out_dir = PathBuf::from("results");
    let mut trace_dir: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check-baseline" => check_baseline = true,
            "--congest-bits" => {
                let arg = it.next().unwrap_or_else(|| {
                    eprintln!("--congest-bits requires a bit-count argument");
                    std::process::exit(2);
                });
                match arg.parse::<u64>() {
                    Ok(b) if b >= local_model::MIN_CONGEST_BITS => congest_bits = Some(b),
                    Ok(b) => {
                        eprintln!(
                            "--congest-bits {b} is below the minimum framable budget ({})",
                            local_model::MIN_CONGEST_BITS
                        );
                        std::process::exit(2);
                    }
                    Err(e) => {
                        eprintln!("--congest-bits: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => {
                out_dir = PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                }));
            }
            "--trace-dir" => {
                trace_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--trace-dir requires a directory argument");
                    std::process::exit(2);
                })));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--quick] [--check-baseline] [--congest-bits N] \
                     [--out DIR] [--trace-dir DIR] [ids...]"
                );
                eprintln!("ids: {}", ALL.join(" "));
                return;
            }
            other => ids.push(other.to_lowercase()),
        }
    }
    if ids.is_empty() {
        ids = ALL.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        if !ALL.contains(&id.as_str()) {
            eprintln!("unknown experiment id: {id} (known: {})", ALL.join(" "));
            std::process::exit(2);
        }
    }
    let scale = Scale {
        quick,
        congest_bits,
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    // Memory probe first, single-threaded, so the allocator counters
    // see only the measured path.
    let (g7_materialized_peak, g7_overlay_peak) = measure_g7_ruling_peaks(quick);
    println!(
        "g7 ruling-set peak heap: materialized {:.1} MiB vs overlay {:.1} MiB ({:+.1}%)\n",
        g7_materialized_peak as f64 / (1 << 20) as f64,
        g7_overlay_peak as f64 / (1 << 20) as f64,
        100.0 * (g7_overlay_peak as f64 - g7_materialized_peak as f64)
            / g7_materialized_peak.max(1) as f64,
    );

    // The experiments are independent; sweep them on worker threads and
    // report in canonical order afterwards. Each gets its own tracer:
    // a progress narrator (prints only when a run outlives its 10s
    // interval) plus, under `--trace-dir`, a JSONL stream `{id}.jsonl`
    // whose totals mirror the experiment's own round/bits meters.
    let wall_start = Instant::now();
    let results: Vec<(String, Table, f64)> = ids
        .par_iter()
        .map(|id| {
            let start = Instant::now();
            let mut sinks: Vec<Box<dyn TraceSink>> = vec![Box::new(ProgressSink::new(
                id,
                std::time::Duration::from_secs(10),
            ))];
            if let Some(dir) = &trace_dir {
                let path = dir.join(format!("{id}.jsonl"));
                match JsonlSink::create(&path) {
                    Ok(sink) => sinks.push(Box::new(sink)),
                    Err(e) => {
                        eprintln!("cannot create {}: {e}", path.display());
                        std::process::exit(1);
                    }
                }
            }
            let tr = Tracer::with_sinks(sinks);
            let mut manifest = RunManifest::new(id);
            manifest.quick = quick;
            manifest.exec_mode = "auto".to_string();
            tr.manifest(&manifest);
            let table = run(id, scale, &tr).expect("ids validated above");
            tr.finish();
            (id.clone(), table, start.elapsed().as_secs_f64())
        })
        .collect();
    let total_wall = wall_start.elapsed().as_secs_f64();

    for (id, table, secs) in &results {
        println!("{}", table.render());
        let path = out_dir.join(format!("{id}.csv"));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("cannot write {}: {e}", path.display());
        }
        println!(
            "[{id}] done in {secs:.1}s ({} simulated rounds, max {} bits/edge/round) -> {}\n",
            table.sim_rounds(),
            table.max_edge_bits(),
            path.display()
        );
    }

    print_bandwidth_table(quick, &results);

    let baseline_path = PathBuf::from("BENCH_delta.json");
    let baseline = std::fs::read_to_string(&baseline_path)
        .ok()
        .and_then(|text| Baseline::parse(&text));
    if let Some(baseline) = &baseline {
        print_baseline_diff(
            baseline,
            &results,
            quick,
            total_wall,
            (g7_materialized_peak, g7_overlay_peak),
        );
    }

    let summary = summary_json(
        &results,
        quick,
        total_wall,
        (g7_materialized_peak, g7_overlay_peak),
    );
    let mut json_paths = vec![out_dir.join("BENCH_delta.json")];
    if results.len() == ALL.len() && !check_baseline {
        // Full sweep: refresh the trajectory baseline in the CWD too
        // (never in check mode — the committed file is the reference).
        json_paths.push(PathBuf::from("BENCH_delta.json"));
    }
    for json_path in json_paths {
        match std::fs::write(&json_path, &summary) {
            Ok(()) => println!("wrote {}", json_path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", json_path.display()),
        }
    }

    if check_baseline {
        match &baseline {
            Some(baseline) => run_baseline_check(baseline, &results, quick, total_wall),
            None => {
                eprintln!(
                    "baseline check: no parseable {} in the working directory",
                    baseline_path.display()
                );
                std::process::exit(1);
            }
        }
    }
}

/// The `--check-baseline` gate: the simulation-level invariants of the
/// committed baseline — summed simulated LOCAL rounds and every
/// experiment's `max_edge_bits` — must match this run exactly; both
/// are schedule- and load-independent, so any drift is a real
/// behavioral change, not noise. Wall-clock is advisory only (CI
/// machines differ; the committed trajectory is refreshed by dev
/// runs). Exits nonzero on drift.
fn run_baseline_check(
    baseline: &Baseline,
    results: &[(String, Table, f64)],
    quick: bool,
    total_wall: f64,
) {
    let mut drift: Vec<String> = Vec::new();
    if baseline.quick.is_some_and(|q| q != quick) {
        drift.push(format!(
            "scale mismatch: baseline quick={}, this run quick={quick}",
            baseline.quick.unwrap_or_default()
        ));
    }
    let now_rounds: u64 = results.iter().map(|(_, t, _)| t.sim_rounds()).sum();
    match baseline.total_simulated_rounds {
        Some(base_rounds) if base_rounds != now_rounds => drift.push(format!(
            "total_simulated_rounds drifted: baseline {base_rounds}, now {now_rounds}"
        )),
        Some(_) => {}
        None => drift.push("baseline has no total_simulated_rounds".into()),
    }
    for (id, table, _) in results {
        let base = baseline.experiments.iter().find(|b| &b.id == id);
        match base.and_then(|b| b.max_edge_bits) {
            Some(base_bits) if base_bits != table.max_edge_bits() => drift.push(format!(
                "{id} max_edge_bits drifted: baseline {base_bits}, now {}",
                table.max_edge_bits()
            )),
            Some(_) => {}
            None => drift.push(format!("baseline has no max_edge_bits for {id}")),
        }
        // Every named metric in the committed baseline must still be
        // reported: a key disappearing means an experiment quietly
        // stopped measuring something. Values stay advisory (diffed in
        // the table above) — some metrics are throughput-like.
        for (name, _) in base.map(|b| b.metrics.as_slice()).unwrap_or(&[]) {
            if !table.metrics().iter().any(|(n, _)| n == name) {
                drift.push(format!("{id} no longer reports baseline metric '{name}'"));
            }
        }
    }
    if let Some(base_wall) = baseline.total_wall_clock_s {
        println!(
            "baseline check: wall-clock {base_wall:.3}s -> {total_wall:.3}s ({:+.1}%, advisory)",
            100.0 * (total_wall - base_wall) / base_wall.max(f64::EPSILON)
        );
    }
    if drift.is_empty() {
        println!(
            "baseline check passed: {now_rounds} simulated rounds, \
             {} per-experiment max_edge_bits values unchanged",
            results.len()
        );
    } else {
        eprintln!("baseline check FAILED:");
        for d in &drift {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}

/// Prints each experiment's measured heaviest per-edge load (engine
/// accounted, any directed edge in any round) against the CONGEST
/// budget at a size representative of the run scale.
fn print_bandwidth_table(quick: bool, results: &[(String, Table, f64)]) {
    let n: u64 = if quick { 1 << 12 } else { 1 << 16 };
    let budget = congest_budget(n);
    println!(
        "== measured per-experiment loads vs the CONGEST budget ({budget} bits at n = {n}) =="
    );
    for (id, table, _) in results {
        let m = table.max_edge_bits();
        let verdict = if m == 0 {
            "no engine rounds".into()
        } else if m <= budget {
            "within budget".into()
        } else {
            format!(
                "over budget -> x{} fragmentation under enforcement",
                m.div_ceil(budget)
            )
        };
        println!("  {id:<6} {m:>10} bits  {verdict}");
    }
    println!();
}

/// Prints the per-experiment wall-clock delta table against the
/// committed baseline.
fn print_baseline_diff(
    baseline: &Baseline,
    results: &[(String, Table, f64)],
    quick: bool,
    total_wall: f64,
    g7_peaks: (u64, u64),
) {
    println!("performance vs committed BENCH_delta.json baseline:");
    if baseline.quick.is_some_and(|q| q != quick) {
        println!(
            "  (scale mismatch: baseline quick={}, this run quick={quick} — deltas are not apples-to-apples)",
            baseline.quick.unwrap_or_default(),
        );
    }
    println!(
        "  {:<8} {:>12} {:>12} {:>10} {:>8} {:>12} {:>10} {:>10}",
        "id", "baseline_s", "now_s", "delta_s", "ratio", "base_bits/e", "now_bits/e", "delta_bits"
    );
    let fmt_bits = |b: Option<u64>| b.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
    let row =
        |id: &str, base: Option<f64>, now: f64, base_bits: Option<u64>, now_bits: Option<u64>| {
            let bits_delta = match (base_bits, now_bits) {
                (Some(b), Some(n)) => format!("{:+}", n as i64 - b as i64),
                _ => "-".into(),
            };
            match base {
                Some(b) if b > 0.0 => println!(
                    "  {id:<8} {b:>12.3} {now:>12.3} {:>+10.3} {:>7.2}x {:>12} {:>10} {:>10}",
                    now - b,
                    now / b,
                    fmt_bits(base_bits),
                    fmt_bits(now_bits),
                    bits_delta
                ),
                Some(b) => println!(
                    "  {id:<8} {b:>12.3} {now:>12.3} {:>+10.3} {:>8} {:>12} {:>10} {:>10}",
                    now - b,
                    "-",
                    fmt_bits(base_bits),
                    fmt_bits(now_bits),
                    bits_delta
                ),
                None => println!(
                    "  {id:<8} {:>12} {now:>12.3} {:>10} {:>8} {:>12} {:>10} {:>10}",
                    "-",
                    "-",
                    "-",
                    fmt_bits(base_bits),
                    fmt_bits(now_bits),
                    bits_delta
                ),
            }
        };
    for (id, table, secs) in results {
        let base = baseline.experiments.iter().find(|b| &b.id == id);
        row(
            id,
            base.map(|b| b.wall_clock_s),
            *secs,
            base.and_then(|b| b.max_edge_bits),
            Some(table.max_edge_bits()),
        );
    }
    // The baseline total covers the full sweep; comparing a partial
    // run's total against it would only mislead.
    if results.len() == ALL.len() {
        let base_max = baseline
            .experiments
            .iter()
            .filter_map(|b| b.max_edge_bits)
            .max();
        let now_max = results.iter().map(|(_, t, _)| t.max_edge_bits()).max();
        row(
            "TOTAL",
            baseline.total_wall_clock_s,
            total_wall,
            base_max,
            now_max,
        );
    }
    // Named domain metrics (the fault sweep's recovery counters, the
    // sharded sweep's throughput cells, ...) diff by name rather than
    // being silently dropped; keys present on only one side say so.
    for (id, table, _) in results {
        let base_metrics = baseline
            .experiments
            .iter()
            .find(|b| &b.id == id)
            .map(|b| b.metrics.as_slice())
            .unwrap_or(&[]);
        if base_metrics.is_empty() && table.metrics().is_empty() {
            continue;
        }
        let mut cells: Vec<String> = Vec::new();
        for (name, base_v) in base_metrics {
            match table.metrics().iter().find(|(n, _)| n == name) {
                Some(&(_, now_v)) => cells.push(format!(
                    "{name} {base_v} -> {now_v} ({:+})",
                    now_v as i64 - *base_v as i64
                )),
                None => cells.push(format!("{name} {base_v} -> MISSING")),
            }
        }
        for (name, now_v) in table.metrics() {
            if !base_metrics.iter().any(|(n, _)| n == name) {
                cells.push(format!("{name} (new) {now_v}"));
            }
        }
        println!("  {id} metrics: {}", cells.join(", "));
    }
    // The headline memory claim, diffed like the wall-clock rows: the
    // G^7 ruling path's peak heap, overlay vs materialized, against the
    // committed baseline.
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    let (now_mat, now_ovl) = g7_peaks;
    match baseline.g7_peaks {
        Some((base_mat, base_ovl)) => {
            println!(
                "  g7 peak heap (MiB): materialized {:.1} -> {:.1} ({:+.1}%), overlay {:.1} -> {:.1} ({:+.1}%)",
                mib(base_mat),
                mib(now_mat),
                100.0 * (now_mat as f64 - base_mat as f64) / base_mat.max(1) as f64,
                mib(base_ovl),
                mib(now_ovl),
                100.0 * (now_ovl as f64 - base_ovl as f64) / base_ovl.max(1) as f64,
            );
            println!(
                "  g7 overlay vs baseline materialized ({:.1} MiB): {:+.1}%",
                mib(base_mat),
                100.0 * (now_ovl as f64 - base_mat as f64) / base_mat.max(1) as f64,
            );
        }
        None => println!(
            "  g7 peak heap (MiB): materialized {:.1}, overlay {:.1} (no peak data in baseline)",
            mib(now_mat),
            mib(now_ovl),
        ),
    }
    println!();
}
