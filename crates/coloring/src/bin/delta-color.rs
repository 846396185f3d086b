//! `delta-color` — Δ-color a graph file from the command line.
//!
//! ```text
//! delta-color [--strategy auto|rand-large|rand-small|det|netdecomp|ps]
//!             [--seed N] [--dot OUT.dot] [--quiet] GRAPH
//! ```
//!
//! `GRAPH` is a DIMACS `.col` file or a whitespace edge list (see
//! `delta_graphs::io`). Prints one `node color` pair per line plus a
//! round-ledger summary on stderr; `--dot` additionally writes a
//! Graphviz rendering.

use delta_coloring::delta::{delta_color, Strategy};
use delta_graphs::io as gio;
use local_model::RoundLedger;
use std::path::PathBuf;

fn main() {
    let mut strategy = Strategy::Auto;
    let mut seed = 0u64;
    let mut dot: Option<PathBuf> = None;
    let mut quiet = false;
    let mut input: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--strategy" => {
                let v = args.next().unwrap_or_default();
                strategy = Strategy::parse(&v).unwrap_or_else(|| {
                    eprintln!(
                        "unknown strategy {v:?}; known: {}",
                        Strategy::NAMES.join(", ")
                    );
                    std::process::exit(2);
                });
            }
            "--seed" => {
                seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed requires an integer");
                    std::process::exit(2);
                });
            }
            "--dot" => {
                dot = Some(args.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("--dot requires an output path");
                    std::process::exit(2);
                }));
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: delta-color [--strategy {}] [--seed N] [--dot OUT.dot] [--quiet] GRAPH",
                    Strategy::NAMES.join("|")
                );
                return;
            }
            other => input = Some(PathBuf::from(other)),
        }
    }
    let Some(path) = input else {
        eprintln!("missing input graph (use --help)");
        std::process::exit(2);
    };
    let g = match gio::load(&path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot load {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    eprintln!("loaded {g:?} from {}", path.display());
    let mut ledger = RoundLedger::new();
    let coloring = match delta_color(&g, strategy, seed, &mut ledger) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot delta-color: {e}");
            std::process::exit(1);
        }
    };
    let colors: Vec<u32> = g
        .nodes()
        .map(|v| coloring.get(v).expect("total coloring").0)
        .collect();
    if !quiet {
        for v in g.nodes() {
            println!("{} {}", v.0, colors[v.index()]);
        }
    }
    eprintln!(
        "valid {}-coloring ({} distinct colors) in {} simulated LOCAL rounds",
        g.max_degree(),
        delta_coloring::verify::colors_used(&coloring),
        ledger.total()
    );
    for (phase, rounds) in ledger.by_phase() {
        eprintln!("  {phase:<28} {rounds}");
    }
    if let Some(out) = dot {
        if let Err(e) = std::fs::write(&out, gio::to_dot(&g, Some(&colors))) {
            eprintln!("cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", out.display());
    }
}
