//! Experiment harness CLI.
//!
//! ```text
//! experiments [--quick] [--congest-bits N] [--out DIR] [--trace-dir DIR] [ids...]
//! ```
//!
//! With no ids, runs every experiment (T1–T6, F1–F9, listed in
//! `delta_coloring_bench::experiments::ALL`),
//! fanning the experiments out across worker threads. Prints aligned
//! tables to stdout (in canonical order), writes one CSV per experiment
//! into `--out DIR` (default `results/`), and emits a
//! `BENCH_delta.json` summary with per-experiment simulated LOCAL
//! rounds, the heaviest per-edge-per-round load (`max_edge_bits`) the
//! engine's CONGEST-style accounting observed, row counts and each
//! experiment's exact named counters.
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
//! The summary always lands in the output directory; a run covering the
//! **full** experiment set also rewrites `BENCH_delta.json` in the
//! working directory, so partial smoke runs never clobber it. The
//! summary holds no clock reading: a rerun of the same revision writes
//! the same bytes, so the committed file is the baseline and `git diff
//! -- BENCH_delta.json` after a full `--quick` sweep is the regression
//! gate. Wall time goes to stdout only (it is measured while the
//! experiments share cores); perfbench times serially.

use delta_coloring_bench::bench_json::summary_json;
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
    let mut congest_bits: Option<u64> = None;
    let mut out_dir = PathBuf::from("results");
    let mut trace_dir: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
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
                    "usage: experiments [--quick] [--congest-bits N] \
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

    let tables: Vec<(&str, &Table)> = results.iter().map(|(id, t, _)| (id.as_str(), t)).collect();
    let summary = summary_json(&tables, quick, (g7_materialized_peak, g7_overlay_peak));
    let mut json_paths = vec![out_dir.join("BENCH_delta.json")];
    if results.len() == ALL.len() {
        // Full sweep: rewrite the committed summary in the CWD too.
        json_paths.push(PathBuf::from("BENCH_delta.json"));
    }
    for json_path in json_paths {
        match std::fs::write(&json_path, &summary) {
            Ok(()) => println!("wrote {}", json_path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", json_path.display()),
        }
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
