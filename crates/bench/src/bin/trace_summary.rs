//! Trace-file reporter for the JSONL streams the `experiments` binary
//! writes under `--trace-dir`.
//!
//! ```text
//! trace-summary [--folded] [--check BENCH.json] PATH...
//! ```
//!
//! Each `PATH` is a `.jsonl` trace file or a directory of them. Every
//! file is parsed through the strict `trace-v2` reader (an unknown
//! record type or schema tag is a hard error — schema drift fails the
//! build, not the reader) and self-checked against its own trailer,
//! then rendered as a per-phase table plus the span tree. A phase's
//! `engine` column counts the rounds an engine ran (records with round
//! meta); `rounds - engine` is what the phase charged by estimate.
//! `max-edge` is the heaviest per-edge load among the phase's records.
//!
//! `--folded` additionally emits folded-stack lines (`path self-µs`,
//! one per span path, `;`-separated frames) — the flamegraph-compatible
//! format: pipe the output into `flamegraph.pl` or inferno.
//!
//! `--check BENCH.json` cross-checks each trace against the
//! `delta-bench-v1` summary: the trace named `{id}.jsonl` must report
//! exactly the `simulated_rounds` and `max_edge_bits` the summary
//! recorded for experiment `id`, and must book every bit to a named
//! phase: a trace with a `local_model::FLUSH_PHASE` row fails. Any
//! mismatch — or any file that fails to parse or self-check — exits
//! nonzero. This is the CI gate proving the trace stream and the bench
//! meters never disagree.

use delta_coloring_bench::bench_json::{Baseline, BaselineExp};
use local_model::{SpanAgg, TraceSummary, FLUSH_PHASE};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut folded = false;
    let mut check: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--folded" => folded = true,
            "--check" => {
                check = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--check requires a BENCH json argument");
                    std::process::exit(2);
                })));
            }
            "--help" | "-h" => {
                eprintln!("usage: trace-summary [--folded] [--check BENCH.json] PATH...");
                return ExitCode::from(2);
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        eprintln!("usage: trace-summary [--folded] [--check BENCH.json] PATH...");
        return ExitCode::from(2);
    }

    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        if p.is_dir() {
            let mut entries: Vec<PathBuf> = match std::fs::read_dir(&p) {
                Ok(rd) => rd
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|f| f.extension().is_some_and(|x| x == "jsonl"))
                    .collect(),
                Err(e) => {
                    eprintln!("cannot read {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
            };
            entries.sort();
            if entries.is_empty() {
                eprintln!("{}: no .jsonl trace files", p.display());
                return ExitCode::FAILURE;
            }
            files.extend(entries);
        } else {
            files.push(p);
        }
    }

    let bench = match &check {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some(Baseline::parse(&text).map_or_else(Vec::new, |b| b.experiments)),
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut failures = 0usize;
    for file in &files {
        match report(file, folded, bench.as_deref()) {
            Ok(()) => {}
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "trace-summary: {failures} of {} file(s) failed",
            files.len()
        );
        return ExitCode::FAILURE;
    }
    if bench.is_some() {
        println!(
            "trace-summary: {} file(s) consistent with the bench summary",
            files.len()
        );
    }
    ExitCode::SUCCESS
}

/// Parses, self-checks, renders, and (optionally) cross-checks one
/// trace file.
fn report(file: &Path, folded: bool, bench: Option<&[BaselineExp]>) -> Result<(), String> {
    let s = TraceSummary::read_path(file)?;
    s.check_consistent()
        .map_err(|e| format!("{}: {e}", file.display()))?;

    let label = s
        .manifest
        .as_ref()
        .map(|m| m.label.clone())
        .unwrap_or_else(|| file.display().to_string());
    println!("== trace {label} ({}) ==", file.display());
    let t = &s.totals;
    println!(
        "totals: {} rounds, {} bits, max {} bits/edge/round, {} violations, {} records, {} virtual rounds",
        t.rounds, t.bits, t.max_edge_bits, t.violations, t.records, s.virtual_rounds
    );
    if t.faults != Default::default() {
        println!(
            "faults: {} dropped, {} duplicated, {} corrupted, {} crashed node-rounds",
            t.faults.dropped, t.faults.duplicated, t.faults.corrupted, t.faults.crashed_rounds
        );
    }
    let total_wall: u64 = s.phases().iter().map(|(_, a)| a.wall_ns).sum();
    println!(
        "{:<32} {:>10} {:>10} {:>16} {:>10} {:>12} {:>7}",
        "phase", "rounds", "engine", "bits", "max-edge", "wall-ms", "wall-%"
    );
    for (name, agg) in s.phases() {
        println!(
            "{:<32} {:>10} {:>10} {:>16} {:>10} {:>12.3} {:>6.1}%",
            name,
            agg.rounds,
            agg.engine_rounds,
            agg.bits,
            agg.max_edge_bits,
            agg.wall_ns as f64 / 1e6,
            100.0 * agg.wall_ns as f64 / total_wall.max(1) as f64,
        );
    }
    let tree = s.span_tree();
    if !tree.is_empty() {
        println!(
            "{:<32} {:>6} {:>10} {:>16} {:>12}",
            "span", "count", "rounds", "bits", "wall-ms"
        );
        for (path, agg) in tree {
            println!(
                "{:<32} {:>6} {:>10} {:>16} {:>12.3}",
                path,
                agg.count,
                agg.rounds,
                agg.bits,
                agg.wall_ns as f64 / 1e6
            );
        }
    }
    if folded {
        println!("-- folded stacks ({label}; self-µs) --");
        for line in folded_stacks(tree) {
            println!("{line}");
        }
    }
    println!();

    if let Some(bench) = bench {
        if let Some((_, agg)) = s.phases().iter().find(|(p, _)| p == FLUSH_PHASE) {
            return Err(format!(
                "{}: {} bits in the {FLUSH_PHASE} row belong to no named phase",
                file.display(),
                agg.bits
            ));
        }
        let id = file
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let (rounds, max_edge_bits) = bench
            .iter()
            .find(|b| b.id == id)
            .and_then(|b| Some((b.simulated_rounds?, b.max_edge_bits?)))
            .ok_or_else(|| format!("{}: bench summary has no experiment '{id}'", file.display()))?;
        if t.rounds != rounds {
            return Err(format!(
                "{}: trace rounds {} != bench simulated_rounds {rounds} for '{id}'",
                file.display(),
                t.rounds,
            ));
        }
        if t.max_edge_bits != max_edge_bits {
            return Err(format!(
                "{}: trace max_edge_bits {} != bench max_edge_bits {max_edge_bits} for '{id}'",
                file.display(),
                t.max_edge_bits,
            ));
        }
    }
    Ok(())
}

/// Folded-stack lines: one per span path, charged its *self* wall time
/// (inclusive minus direct children), in microseconds — the format
/// flamegraph tooling consumes.
fn folded_stacks(tree: &[(String, SpanAgg)]) -> Vec<String> {
    tree.iter()
        .map(|(path, agg)| {
            let children_wall: u64 = tree
                .iter()
                .filter(|(p, _)| {
                    p.len() > path.len()
                        && p.starts_with(path.as_str())
                        && p[path.len()..].starts_with(';')
                        && !p[path.len() + 1..].contains(';')
                })
                .map(|(_, a)| a.wall_ns)
                .sum();
            format!(
                "{path} {}",
                agg.wall_ns.saturating_sub(children_wall) / 1000
            )
        })
        .collect()
}
