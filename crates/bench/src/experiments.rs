//! The experiment implementations: T1–T6 and F1–F9, listed in [`ALL`];
//! each function's docs name what it checks and the expected shape.
//!
//! Every experiment returns a [`Table`]; the `experiments` binary prints
//! them and writes CSVs. Absolute round counts depend on our substrate
//! substitutions (README.md, "Substitutions for the paper's
//! constructions"); the *shapes* are what the tables compare against
//! the paper's bounds.

use crate::table::Table;
use delta_coloring::baseline;
use delta_coloring::brooks;
use delta_coloring::delta::{
    delta_color_det, delta_color_netdecomp, delta_color_rand, delta_color_slocal, shattering_probe,
    slocal_locality_bound, DetConfig, RandConfig,
};
use delta_coloring::gallai;
use delta_coloring::list_coloring::{self, ListColorMethod};
use delta_coloring::marking::MarkingParams;
use delta_coloring::palette::{Color, Lists, PartialColoring};
use delta_coloring::repair::repair_region;
use delta_coloring::verify;
use delta_graphs::{generators, props, Graph, NodeId};
use local_model::{
    Engine, FaultPlan, FaultyDriver, InducedOverlay, Outbox, OverlayEngine, PowerOverlay,
    RoundDriver, RoundLedger, ShardedEngine, Tracer,
};
use rand::Rng;

/// Experiment scale: `quick` shrinks sizes for smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Reduced sizes when true.
    pub quick: bool,
    /// Override for the CONGEST wire budget (bits/edge/round) used by
    /// `f9`; `None` uses the default [`local_model::congest_budget`]
    /// per graph size. Set from the binary's `--congest-bits` flag.
    pub congest_bits: Option<u64>,
}

impl Scale {
    /// A scale with the default CONGEST budget.
    pub fn new(quick: bool) -> Self {
        Scale {
            quick,
            congest_bits: None,
        }
    }

    fn n_sweep(&self, full: &[usize], quick: &[usize]) -> Vec<usize> {
        if self.quick {
            quick.to_vec()
        } else {
            full.to_vec()
        }
    }

    fn seeds(&self) -> u64 {
        if self.quick {
            2
        } else {
            4
        }
    }
}

fn fmt_f(x: f64) -> String {
    format!("{x:.3}")
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn log2(x: f64) -> f64 {
    x.ln() / 2f64.ln()
}

/// T1 — Theorem 1 / Corollary 2: randomized Δ-coloring rounds vs `n`
/// at constant Δ (expected shape: `O((log log n)²)`, i.e. near-flat).
pub fn t1(scale: Scale, tr: &Tracer) -> Table {
    let mut t = Table::new(
        "T1: randomized delta-coloring, rounds vs n (Thm 1 / Cor 2; expect ~(log log n)^2 growth)",
        &[
            "delta",
            "n",
            "rounds(mean)",
            "rounds(max)",
            "attempts",
            "fellback",
            "(loglog n)^2",
        ],
    );
    let ns = scale.n_sweep(
        &[
            1 << 10,
            1 << 11,
            1 << 12,
            1 << 13,
            1 << 14,
            1 << 15,
            1 << 16,
        ],
        &[1 << 10, 1 << 12, 1 << 14],
    );
    let configs: Vec<(usize, usize)> = [3usize, 4, 5]
        .iter()
        .flat_map(|&d| ns.iter().map(move |&n| (d, n)))
        .collect();
    // Cells run in order, so the trace's lines come out in a fixed
    // order; each cell's engine rounds still run under `Auto`.
    let cells: Vec<(Vec<String>, u64, u64)> = configs
        .into_iter()
        .map(|(delta, n)| {
            let mut rounds = Vec::new();
            let mut attempts = 0u64;
            let mut fellback = 0u64;
            let mut meter = 0u64;
            let mut edge_bits = 0u64;
            for seed in 0..scale.seeds() {
                let g = generators::random_regular(n, delta, seed * 101 + delta as u64);
                let cfg = if delta == 3 {
                    RandConfig::small_delta(&g, seed)
                } else {
                    RandConfig::large_delta(&g, seed)
                };
                let mut ledger = tr.ledger();
                let (c, stats) = delta_color_rand(&g, cfg, &mut ledger).expect("colorable");
                verify::check_delta_coloring(&g, &c).expect("valid");
                rounds.push(ledger.total() as f64);
                attempts += stats.attempts as u64;
                fellback += stats.fell_back as u64;
                meter += ledger.total();
                edge_bits = edge_bits.max(ledger.max_edge_bits());
            }
            let ll = log2(log2(n as f64));
            let row = vec![
                delta.to_string(),
                n.to_string(),
                fmt_f(mean(&rounds)),
                fmt_f(rounds.iter().cloned().fold(0.0, f64::max)),
                attempts.to_string(),
                fellback.to_string(),
                fmt_f(ll * ll),
            ];
            (row, meter, edge_bits)
        })
        .collect();
    for (row, meter, edge_bits) in cells {
        t.row(row);
        t.add_sim_rounds(meter);
        t.add_max_edge_bits(edge_bits);
    }
    t
}

/// T2 — Theorem 3: randomized Δ-coloring rounds vs Δ at fixed `n`
/// (expected shape: dominated by the list-coloring Δ-dependence; the
/// theorem's own term is `O(log Δ)`).
pub fn t2(scale: Scale, tr: &Tracer) -> Table {
    let mut t = Table::new(
        "T2: randomized delta-coloring, rounds vs delta at fixed n (Thm 3; expect slow growth ~ log delta)",
        &["n", "delta", "rounds(mean)", "attempts", "fellback", "log2(delta)"],
    );
    let n = if scale.quick { 1 << 12 } else { 1 << 13 };
    for &delta in &[4usize, 6, 8, 12, 16] {
        let mut rounds = Vec::new();
        let mut attempts = 0u64;
        let mut fellback = 0u64;
        for seed in 0..scale.seeds() {
            let g = generators::random_regular(n, delta, seed * 31 + delta as u64);
            let cfg = RandConfig::large_delta(&g, seed);
            let mut ledger = tr.ledger();
            let (c, stats) = delta_color_rand(&g, cfg, &mut ledger).expect("colorable");
            verify::check_delta_coloring(&g, &c).expect("valid");
            rounds.push(ledger.total() as f64);
            attempts += stats.attempts as u64;
            fellback += stats.fell_back as u64;
            t.meter_ledger(&ledger);
        }
        t.row(vec![
            n.to_string(),
            delta.to_string(),
            fmt_f(mean(&rounds)),
            attempts.to_string(),
            fellback.to_string(),
            fmt_f(log2(delta as f64)),
        ]);
    }
    t
}

/// T3 — Theorem 4: deterministic Δ-coloring rounds vs `n` (expected
/// shape: `O(log² n)`).
pub fn t3(scale: Scale, tr: &Tracer) -> Table {
    let mut t = Table::new(
        "T3: deterministic delta-coloring, rounds vs n (Thm 4; expect ~log^2 n growth)",
        &[
            "delta",
            "n",
            "rounds",
            "layers",
            "base",
            "log2(n)^2",
            "rounds/log2(n)^2",
        ],
    );
    let ns = scale.n_sweep(
        &[1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 13],
        &[1 << 8, 1 << 10, 1 << 12],
    );
    let configs: Vec<(usize, usize)> = [4usize, 8]
        .iter()
        .flat_map(|&d| ns.iter().map(move |&n| (d, n)))
        .collect();
    let cells: Vec<(Vec<String>, u64, u64)> = configs
        .into_iter()
        .map(|(delta, n)| {
            let g = generators::random_regular(n, delta, 7 + delta as u64);
            let mut ledger = tr.ledger();
            let (c, stats) =
                delta_color_det(&g, DetConfig::default(), &mut ledger).expect("colorable");
            verify::check_delta_coloring(&g, &c).expect("valid");
            let l2 = log2(n as f64);
            let row = vec![
                delta.to_string(),
                n.to_string(),
                ledger.total().to_string(),
                stats.layers.to_string(),
                stats.base_size.to_string(),
                fmt_f(l2 * l2),
                fmt_f(ledger.total() as f64 / (l2 * l2)),
            ];
            (row, ledger.total(), ledger.max_edge_bits())
        })
        .collect();
    for (row, meter, edge_bits) in cells {
        t.row(row);
        t.add_sim_rounds(meter);
        t.add_max_edge_bits(edge_bits);
    }
    t
}

/// T4 — algorithm × family comparison at a fixed size: who wins.
///
/// Each algorithm column runs under a trace span (`t4:<alg>`), and the
/// table reports advisory `wall_permille_<alg>` metrics — each
/// algorithm's share of the experiment's algorithm wall time, sourced
/// from the span tree (all zero when no trace is attached).
pub fn t4(scale: Scale, tr: &Tracer) -> Table {
    let mut t = Table::new(
        "T4: algorithms x graph families (rounds; all colorings verified)",
        &[
            "family",
            "n",
            "delta",
            "rand",
            "det",
            "netdecomp(Thm21)",
            "ps-baseline",
            "greedy(D+1)",
        ],
    );
    let n = if scale.quick { 1 << 11 } else { 1 << 12 };
    let side = (n as f64).sqrt() as usize;
    let families: Vec<(&str, Graph)> = vec![
        ("random-regular-4", generators::random_regular(n, 4, 3)),
        ("random-regular-3", generators::random_regular(n, 3, 4)),
        ("torus", generators::torus(side, side)),
        (
            "hypercube",
            generators::hypercube((n as f64).log2() as usize),
        ),
        ("tree+chords", generators::tree_with_chords(n, n / 10, 5)),
        (
            "perturbed-regular",
            generators::perturbed_regular(n, 4, 0.03, 6),
        ),
    ];
    for (name, g) in families {
        if verify::assert_nice(&g).is_err() {
            continue;
        }
        let delta = g.max_degree();
        let rand_rounds = {
            let _span = tr.span("t4:rand");
            let cfg = RandConfig::large_delta(&g, 1);
            let mut ledger = tr.ledger();
            let (c, _) = delta_color_rand(&g, cfg, &mut ledger).expect("colorable");
            verify::check_delta_coloring(&g, &c).expect("valid");
            t.meter_ledger(&ledger);
            ledger.total()
        };
        let det_rounds = {
            let _span = tr.span("t4:det");
            let mut ledger = tr.ledger();
            let (c, _) = delta_color_det(&g, DetConfig::default(), &mut ledger).expect("colorable");
            verify::check_delta_coloring(&g, &c).expect("valid");
            t.meter_ledger(&ledger);
            ledger.total()
        };
        let nd_rounds = {
            let _span = tr.span("t4:netdecomp");
            let mut ledger = tr.ledger();
            let (c, _) = delta_color_netdecomp(&g, ListColorMethod::Randomized, 4, &mut ledger)
                .expect("colorable");
            verify::check_delta_coloring(&g, &c).expect("valid");
            t.meter_ledger(&ledger);
            ledger.total()
        };
        let ps_rounds = {
            let _span = tr.span("t4:ps");
            let mut ledger = tr.ledger();
            let (c, _) = baseline::ps_style_delta(&g, 2, &mut ledger).expect("colorable");
            verify::check_delta_coloring(&g, &c).expect("valid");
            t.meter_ledger(&ledger);
            ledger.total()
        };
        let dp1_rounds = {
            let _span = tr.span("t4:greedy");
            let mut ledger = tr.ledger();
            let c = baseline::randomized_delta_plus_one(&g, 3, &mut ledger).expect("colorable");
            delta_coloring::palette::check_k_coloring(&g, &c, delta + 1).expect("valid");
            t.meter_ledger(&ledger);
            ledger.total()
        };
        t.row(vec![
            name.to_string(),
            g.n().to_string(),
            delta.to_string(),
            rand_rounds.to_string(),
            det_rounds.to_string(),
            nd_rounds.to_string(),
            ps_rounds.to_string(),
            dp1_rounds.to_string(),
        ]);
    }
    add_wall_share_metrics(
        &mut t,
        tr,
        "t4",
        &["rand", "det", "netdecomp", "ps", "greedy"],
    );
    t
}

/// Folds the spans `{prefix}:{name}` into advisory
/// `wall_permille_{name}` metrics: each span's share (‰) of the group's
/// summed wall time. The keys are always emitted — a disabled tracer
/// reports zeros, so the baseline vanished-key gate holds regardless.
fn add_wall_share_metrics(t: &mut Table, tr: &Tracer, prefix: &str, names: &[&str]) {
    let spans = tr.span_totals();
    let wall = |name: &str| {
        let path = format!("{prefix}:{name}");
        spans
            .iter()
            .find(|(p, _)| p == &path)
            .map_or(0, |(_, a)| a.wall_ns)
    };
    let total: u64 = names.iter().map(|n| wall(n)).sum();
    for name in names {
        let share = (wall(name) * 1000).checked_div(total).unwrap_or(0);
        t.add_metric(&format!("wall_permille_{name}"), share);
    }
}

/// T5 — ablations on the randomized algorithm: backoff distance `b`,
/// selection probability scale, and disabling the DCC-removal phase.
pub fn t5(scale: Scale, tr: &Tracer) -> Table {
    let mut t = Table::new(
        "T5: ablations (random 4-regular; backoff b, selection p, DCC removal on/off)",
        &[
            "variant", "rounds", "attempts", "t-nodes", "happy", "comps", "maxcomp",
        ],
    );
    let n = if scale.quick { 1 << 11 } else { 1 << 12 };
    let g = generators::random_regular(n, 4, 11);
    let base_cfg = RandConfig::large_delta(&g, 5);
    let variants: Vec<(String, RandConfig)> = vec![
        ("default(b=6)".into(), base_cfg),
        (
            "b=2".into(),
            RandConfig {
                marking: MarkingParams {
                    p: 1.0 / 9.0f64.min(n as f64),
                    b: 2,
                },
                ..base_cfg
            },
        ),
        (
            "b=12".into(),
            RandConfig {
                marking: MarkingParams {
                    p: 1.0 / (3f64.powi(12)).min(n as f64),
                    b: 12,
                },
                ..base_cfg
            },
        ),
        (
            "p*4".into(),
            RandConfig {
                marking: MarkingParams {
                    p: (base_cfg.marking.p * 4.0).min(1.0),
                    b: 6,
                },
                ..base_cfg
            },
        ),
        (
            "p/4".into(),
            RandConfig {
                marking: MarkingParams {
                    p: base_cfg.marking.p / 4.0,
                    b: 6,
                },
                ..base_cfg
            },
        ),
        (
            "no-dcc-removal".into(),
            RandConfig {
                r_detect: 0,
                ..base_cfg
            },
        ),
        (
            "netdecomp-components".into(),
            RandConfig {
                r_detect: 0,
                component_ruling: delta_coloring::delta::rand::ComponentRuling::NetDecomp,
                ..base_cfg
            },
        ),
    ];
    for (name, cfg) in variants {
        let mut ledger = tr.ledger();
        let result = delta_color_rand(&g, cfg, &mut ledger);
        t.meter_ledger(&ledger);
        let probe = shattering_probe(&g, &cfg, 99);
        match result {
            Ok((c, stats)) => {
                verify::check_delta_coloring(&g, &c).expect("valid");
                t.row(vec![
                    name,
                    ledger.total().to_string(),
                    stats.attempts.to_string(),
                    probe.t_nodes.to_string(),
                    fmt_f(probe.happy_fraction),
                    probe.components.to_string(),
                    probe.max_component.to_string(),
                ]);
            }
            Err(e) => {
                t.row(vec![
                    name,
                    format!("FAILED: {e}"),
                    "-".into(),
                    probe.t_nodes.to_string(),
                    fmt_f(probe.happy_fraction),
                    probe.components.to_string(),
                    probe.max_component.to_string(),
                ]);
            }
        }
    }
    t
}

/// F1 — Theorem 5: distributed-Brooks repair radius vs `n`, against the
/// `2·log_{Δ-1} n` bound.
pub fn f1(scale: Scale, tr: &Tracer) -> Table {
    let mut t = Table::new(
        "F1: distributed Brooks repair radius (Thm 5): greedy completion in random order; stuck nodes repaired",
        &["delta", "n", "repairs", "radius(max)", "radius(mean)", "bound", "dcc-used"],
    );
    let ns = scale.n_sweep(
        &[1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 15],
        &[1 << 8, 1 << 10, 1 << 12],
    );
    let configs: Vec<(usize, usize)> = [3usize, 4]
        .iter()
        .flat_map(|&d| ns.iter().map(move |&n| (d, n)))
        .collect();
    let cells: Vec<(Vec<String>, u64, u64)> = configs
        .into_iter()
        .map(|(delta, n)| {
            let g = generators::random_regular(n, delta, 13 + delta as u64);
            // Greedy Δ-coloring in a pseudo-random order; every dead end
            // is an adversarial single-uncolored-node instance that
            // Theorem 5 must repair locally.
            let mut order: Vec<NodeId> = g.nodes().collect();
            let mut state = 0x9e3779b97f4a7c15u64 ^ (n as u64) ^ ((delta as u64) << 32);
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, ((state >> 33) % (i as u64 + 1)) as usize);
            }
            let mut coloring = PartialColoring::new(g.n());
            let mut radii = Vec::new();
            let mut dcc_used = 0usize;
            let mut meter = 0u64;
            let mut edge_bits = 0u64;
            for &v in &order {
                if let Some(&c) = coloring.free_colors(&g, v, delta).first() {
                    coloring.set(v, c);
                    continue;
                }
                let mut ledger = tr.ledger();
                let out =
                    brooks::repair_single_uncolored(&g, &mut coloring, v, delta, &mut ledger, "r")
                        .expect("repairable");
                radii.push(out.radius as f64);
                dcc_used += out.used_dcc as usize;
                meter += ledger.total();
                edge_bits = edge_bits.max(ledger.max_edge_bits());
            }
            verify::check_delta_coloring(&g, &coloring).expect("valid");
            let bound = brooks::theorem5_radius(n, delta);
            let max_radius = radii.iter().cloned().fold(0.0, f64::max);
            assert!(max_radius as usize <= bound, "Theorem 5 bound violated");
            let row = vec![
                delta.to_string(),
                n.to_string(),
                radii.len().to_string(),
                fmt_f(max_radius),
                fmt_f(mean(&radii)),
                bound.to_string(),
                dcc_used.to_string(),
            ];
            (row, meter, edge_bits)
        })
        .collect();
    for (row, meter, edge_bits) in cells {
        t.row(row);
        t.add_sim_rounds(meter);
        t.add_max_edge_bits(edge_bits);
    }
    t
}

/// F2 — Lemma 15: BFS-level growth `|B_r(v)| >= (Δ-1)^{r/2}` around
/// nodes whose `r`-ball is DCC-free and Δ-regular. A deterministic
/// inequality: the violations column must be zero. Runs on random
/// regular graphs and on the projective-plane incidence graphs
/// `PG(2, q)` (deterministic girth-6 family: every radius-2 ball is a
/// tree, so 100% of balls qualify at r = 2).
pub fn f2(scale: Scale, _tr: &Tracer) -> Table {
    let mut t = Table::new(
        "F2: expansion without DCCs (Lemma 15; |B_r| >= (delta-1)^{r/2}, violations must be 0)",
        &[
            "family",
            "delta",
            "n",
            "r",
            "qualifying",
            "minB_r",
            "bound",
            "violations",
        ],
    );
    let n = if scale.quick { 1 << 12 } else { 1 << 14 };
    let mut families: Vec<(String, Graph)> = vec![];
    for &delta in &[3usize, 4, 5] {
        families.push((
            format!("random-regular-{delta}"),
            generators::random_regular(n, delta, 17 + delta as u64),
        ));
    }
    for &q in if scale.quick {
        &[13u32, 31][..]
    } else {
        &[13u32, 31, 61][..]
    } {
        families.push((
            format!("pg2-{q}"),
            generators::projective_plane_incidence(q),
        ));
    }
    for (family, g) in families {
        let delta = g.max_degree();
        let n = g.n();
        // Girth-6 incidence graphs: radius >= 3 balls always contain a
        // C6, so the lemma is vacuous (and the check expensive) there.
        let radii: &[usize] = if family.starts_with("pg2") {
            &[2]
        } else {
            &[2, 4, 6]
        };
        {
            for &r in radii {
                let sample = if scale.quick { 300 } else { 1500 };
                let mut qualifying = 0usize;
                let mut min_level = usize::MAX;
                let mut violations = 0usize;
                let bound = ((delta - 1) as f64).powf(r as f64 / 2.0).ceil() as usize;
                for i in 0..sample {
                    let v = NodeId(((i as u64 * 2_654_435_761) % n as u64) as u32);
                    if !gallai::ball_is_dcc_free(&delta_graphs::bfs::ball(&g, v, r)) {
                        continue;
                    }
                    // Δ-regular graph: degree condition holds automatically.
                    qualifying += 1;
                    let levels = props::level_sizes(&g, v);
                    let b_r = levels.get(r).copied().unwrap_or(0);
                    min_level = min_level.min(b_r);
                    if b_r < bound {
                        violations += 1;
                    }
                }
                t.row(vec![
                    family.clone(),
                    delta.to_string(),
                    n.to_string(),
                    r.to_string(),
                    qualifying.to_string(),
                    if qualifying == 0 {
                        "-".into()
                    } else {
                        min_level.to_string()
                    },
                    bound.to_string(),
                    violations.to_string(),
                ]);
            }
        }
    }
    t
}

/// F3 — Lemmas 12/14: post-marking expansion. After the marking process
/// removes marked nodes, `|B_r(v)|` in `H` stays at least
/// `(Δ-2)^{r/2}` (Δ >= 4, b = 6) resp. `4^{r/6}` (Δ = 3, b = 12) around
/// qualifying nodes. Violations must be zero.
///
/// The two per-config phases — the distributed ruling-set probe and the
/// host-side expansion check — run under trace spans (`f3:ruling-probe`
/// / `f3:expansion-check`), reported as advisory `wall_permille_*`
/// metrics (zeros without a trace).
pub fn f3(scale: Scale, tr: &Tracer) -> Table {
    let mut t = Table::new(
        "F3: expansion after marking (Lemmas 12/14; violations must be 0; planted maximal marking)",
        &[
            "delta",
            "b",
            "n",
            "r",
            "t-nodes",
            "marked",
            "qualifying",
            "minB_r",
            "bound",
            "violations",
        ],
    );
    let n = if scale.quick { 1 << 12 } else { 1 << 14 };
    for &(delta, b, r) in &[(4usize, 6usize, 4usize), (4, 6, 6), (3, 12, 6), (5, 6, 4)] {
        let g = generators::random_regular(n, delta, 23 + delta as u64);
        // The lemmas are deterministic statements about any marking
        // pattern whose selected nodes are pairwise farther than b; the
        // random process rarely produces marks at feasible n (see F4),
        // so plant the densest valid pattern: a (b+1, b) ruling set as
        // the selected nodes, each marking two non-adjacent neighbors.
        let mut ledger = tr.ledger();
        let selected = {
            let _span = tr.span("f3:ruling-probe");
            delta_coloring::ruling::ruling_set_randomized(&g, b + 1, 7, &mut ledger, "probe")
        };
        t.meter_ledger(&ledger);
        let mut marked = vec![false; g.n()];
        let mut t_nodes = 0usize;
        for &v in &selected {
            let nbrs: Vec<NodeId> = g.neighbors(v).to_vec();
            let mut found = None;
            'outer: for (i, &a) in nbrs.iter().enumerate() {
                for &b2 in &nbrs[i + 1..] {
                    if !g.has_edge(a, b2) {
                        found = Some((a, b2));
                        break 'outer;
                    }
                }
            }
            if let Some((a, b2)) = found {
                marked[a.index()] = true;
                marked[b2.index()] = true;
                t_nodes += 1;
            }
        }
        let keep: Vec<NodeId> = g.nodes().filter(|v| !marked[v.index()]).collect();
        let (h, _) = g.induced(&keep);
        let bound = if delta >= 4 {
            ((delta - 2) as f64).powf(r as f64 / 2.0).ceil() as usize
        } else {
            4f64.powf(r as f64 / 6.0).ceil() as usize
        };
        let sample = if scale.quick { 200 } else { 800 };
        let mut qualifying = 0usize;
        let mut min_level = usize::MAX;
        let mut violations = 0usize;
        let _span = tr.span("f3:expansion-check");
        for i in 0..sample {
            let lv = NodeId(((i as u64 * 2_654_435_761) % h.n() as u64) as u32);
            // Lemma preconditions: ball DCC-free and degrees in
            // [Δ-1, Δ] within N_r(v) in H.
            let ball = delta_graphs::bfs::ball(&h, lv, r);
            if !gallai::ball_is_dcc_free(&ball) {
                continue;
            }
            if ball
                .globals
                .iter()
                .any(|&u| h.degree(u) + 1 < delta || h.degree(u) > delta)
            {
                continue;
            }
            qualifying += 1;
            let levels = props::level_sizes(&h, lv);
            let b_r = levels.get(r).copied().unwrap_or(0);
            min_level = min_level.min(b_r);
            if b_r < bound {
                violations += 1;
            }
        }
        t.row(vec![
            delta.to_string(),
            b.to_string(),
            n.to_string(),
            r.to_string(),
            t_nodes.to_string(),
            marked.iter().filter(|&&m| m).count().to_string(),
            qualifying.to_string(),
            if qualifying == 0 {
                "-".into()
            } else {
                min_level.to_string()
            },
            bound.to_string(),
            violations.to_string(),
        ]);
    }
    add_wall_share_metrics(&mut t, tr, "f3", &["ruling-probe", "expansion-check"]);
    t
}

/// F4 — Lemmas 22/23/31: shattering quality of phases (4)–(5): happy
/// fraction and leftover component sizes (components should stay
/// `O(log n)`-ish when T-nodes exist).
pub fn f4(scale: Scale, _tr: &Tracer) -> Table {
    let mut t = Table::new(
        "F4: shattering probe (Lemmas 22/23/31): happy fraction, leftover components",
        &[
            "delta", "n", "t-nodes", "marked", "happy", "comps", "maxcomp", "log2(n)",
        ],
    );
    let ns = scale.n_sweep(&[1 << 12, 1 << 13, 1 << 14, 1 << 15], &[1 << 12, 1 << 13]);
    for &delta in &[4usize, 5, 6] {
        for &n in &ns {
            let g = generators::random_regular(n, delta, 29 + delta as u64);
            let cfg = RandConfig::large_delta(&g, 3);
            let probe = shattering_probe(&g, &cfg, 77);
            t.row(vec![
                delta.to_string(),
                n.to_string(),
                probe.t_nodes.to_string(),
                probe.marked.to_string(),
                fmt_f(probe.happy_fraction),
                probe.components.to_string(),
                probe.max_component.to_string(),
                fmt_f(log2(n as f64)),
            ]);
        }
    }
    t
}

/// F5 — Theorems 18/19 stand-ins: list-coloring round counts, randomized
/// vs deterministic, across `n` and Δ.
pub fn f5(scale: Scale, tr: &Tracer) -> Table {
    let mut t = Table::new(
        "F5: (deg+1)-list coloring rounds (randomized ~log n w.h.p.; deterministic ~delta^2 + log* n)",
        &["delta", "n", "randomized", "deterministic", "log2(n)"],
    );
    let ns = scale.n_sweep(&[1 << 10, 1 << 12, 1 << 14], &[1 << 10, 1 << 12]);
    let run = |delta: usize, n: usize, t: &mut Table| {
        let g = generators::random_regular(n, delta, 31 + delta as u64);
        let lists = Lists::uniform(g.n(), delta + 1);
        let mut l1 = tr.ledger();
        let c1 = list_coloring::list_color(
            &g,
            &lists,
            PartialColoring::new(g.n()),
            ListColorMethod::Randomized,
            9,
            &mut l1,
            "lc",
        )
        .expect("solvable");
        delta_coloring::palette::check_list_coloring(&g, &c1, &lists).expect("valid");
        let mut l2 = tr.ledger();
        let c2 = list_coloring::list_color(
            &g,
            &lists,
            PartialColoring::new(g.n()),
            ListColorMethod::Deterministic,
            9,
            &mut l2,
            "lc",
        )
        .expect("solvable");
        delta_coloring::palette::check_list_coloring(&g, &c2, &lists).expect("valid");
        t.meter_ledger(&l1);
        t.meter_ledger(&l2);
        t.row(vec![
            delta.to_string(),
            n.to_string(),
            l1.total().to_string(),
            l2.total().to_string(),
            fmt_f(log2(n as f64)),
        ]);
    };
    for &n in &ns {
        run(4, n, &mut t);
    }
    for &delta in &[3usize, 8, 12] {
        run(delta, if scale.quick { 1 << 11 } else { 1 << 12 }, &mut t);
    }
    t
}

/// F6 — Lemma 13: in graphs without radius-1 DCCs, every neighborhood
/// `G[N(v)]` decomposes into disjoint cliques. Reported consistency must
/// be `true` on every row.
pub fn f6(_scale: Scale, _tr: &Tracer) -> Table {
    let mut t = Table::new(
        "F6: neighborhood clique decomposition (Lemma 13; consistent must be true)",
        &[
            "family",
            "n",
            "has-radius1-dcc",
            "clique-unions",
            "consistent",
        ],
    );
    let wheel = {
        let mut b = delta_graphs::GraphBuilder::new(6);
        for i in 0..5u32 {
            b.add_edge(i, (i + 1) % 5);
            b.add_edge(i, 5);
        }
        b.build()
    };
    let families: Vec<(&str, Graph)> = vec![
        ("random-tree", generators::random_tree(500, 2)),
        ("gallai-tree", generators::random_gallai_tree(30, 4, 3)),
        ("cycle", generators::cycle(100)),
        ("random-regular-3", generators::random_regular(500, 3, 7)),
        ("complete-6", generators::complete(6)),
        ("torus", generators::torus(8, 8)),
        ("wheel-5", wheel),
        ("hypercube-4", generators::hypercube(4)),
    ];
    for (name, g) in families {
        let has_dcc = g
            .nodes()
            .any(|v| gallai::find_dcc_for_node(&g, v, 1, 2, usize::MAX).is_some());
        let unions = gallai::neighborhoods_are_clique_unions(&g);
        // Lemma 13: no radius-1 DCC implies clique unions.
        let consistent = has_dcc || unions;
        t.row(vec![
            name.to_string(),
            g.n().to_string(),
            has_dcc.to_string(),
            unions.to_string(),
            consistent.to_string(),
        ]);
    }
    t
}

/// T6 — Remark 17: SLOCAL Δ-coloring locality against the
/// `O(log_Δ n)` bound, plus how often greedy dead-ends (repairs).
pub fn t6(scale: Scale, _tr: &Tracer) -> Table {
    let mut t = Table::new(
        "T6: SLOCAL delta-coloring locality (Remark 17; locality must stay below the bound)",
        &[
            "delta",
            "n",
            "max-locality",
            "bound",
            "repairs",
            "dcc-repairs",
        ],
    );
    let ns = scale.n_sweep(&[1 << 10, 1 << 12, 1 << 14], &[1 << 10, 1 << 12]);
    for &delta in &[3usize, 4, 8] {
        for &n in &ns {
            let g = generators::random_regular(n, delta, 41 + delta as u64);
            let (c, stats) = delta_color_slocal(&g).expect("colorable");
            verify::check_delta_coloring(&g, &c).expect("valid");
            let bound = slocal_locality_bound(n, delta);
            assert!(stats.max_locality <= bound, "Remark 17 violated");
            t.row(vec![
                delta.to_string(),
                n.to_string(),
                stats.max_locality.to_string(),
                bound.to_string(),
                stats.repairs.to_string(),
                stats.dcc_repairs.to_string(),
            ]);
        }
    }
    t
}

/// A greedy `(Δ+1)`-coloring — the fallback palette for fault-sweep
/// substrates whose graphs need not be nice (induced and power graphs).
fn greedy_coloring(g: &Graph) -> PartialColoring {
    let mut c = PartialColoring::new(g.n());
    for v in g.nodes() {
        let used = c.neighbor_colors(g, v);
        let free = (0..)
            .map(Color)
            .find(|x| !used.contains(x))
            .expect("palette");
        c.set(v, free);
    }
    c
}

/// Runs `palette` rounds of the color-maintenance program through a
/// fault wrapper and returns the final per-node colors. Each round
/// every node broadcasts its color; the duty class (`color ≡ round mod
/// palette`) re-picks the smallest color it did not hear. Fault-free,
/// a duty class is a color class — an independent set — so re-picks
/// never collide and the coloring stays proper; faults make nodes act
/// on an incomplete or corrupted view, which is exactly the damage the
/// repair driver must heal.
fn maintain_colors<D: RoundDriver<u32>>(
    drv: &mut FaultyDriver<D>,
    palette: u32,
    ledger: &mut RoundLedger,
) -> Vec<u32> {
    for round in 0..palette {
        drv.round_step(
            ledger,
            "maintain",
            |_, &mut s, out: &mut Outbox<u32>| out.broadcast(s),
            move |_, s, inbox| {
                if *s % palette == round {
                    let heard: Vec<u32> = inbox.iter().map(|&(_, m)| m).collect();
                    *s = (0..).find(|c| !heard.contains(c)).expect("free color");
                }
            },
        );
    }
    drv.node_states().to_vec()
}

/// One fault-sweep cell: run maintenance under the spec's plan, detect
/// the damage, heal it, and record the recovery metrics. `spec` is
/// `(fault kind, rate in ppm, plan)`.
fn fault_sweep_cell<D: RoundDriver<u32>>(
    t: &mut Table,
    tr: &Tracer,
    substrate: &str,
    graph: &Graph,
    palette: usize,
    spec: &(&str, u32, FaultPlan),
    make_driver: impl FnOnce() -> D,
) {
    let (kind, rate_ppm, plan) = spec;
    let mut drv = FaultyDriver::new(make_driver(), plan.clone());
    let mut ledger = tr.ledger();
    let states = maintain_colors(&mut drv, palette as u32, &mut ledger);
    let c = ledger.faults();
    let injected = c.dropped + c.duplicated + c.corrupted + c.crashed_rounds;
    let mut coloring = PartialColoring::new(graph.n());
    for (i, &s) in states.iter().enumerate() {
        coloring.set(NodeId::from_index(i), Color(s));
    }
    let damage = verify::violations(graph, &coloring, palette);
    if plan.is_zero() {
        assert!(
            damage.is_clean(),
            "fault-free maintenance damaged the coloring on {substrate}"
        );
    }
    let report = repair_region(graph, &mut coloring, palette, &mut ledger, "repair")
        .expect("repairable damage");
    assert!(
        verify::violations(graph, &coloring, palette).is_clean(),
        "repair left damage on {substrate}"
    );
    t.meter_ledger(&ledger);
    t.add_metric("faults_injected", injected);
    t.add_metric("violations", damage.total() as u64);
    t.add_metric("repairs", report.repairs as u64);
    t.add_metric("recover_rounds", report.rounds_to_recover);
    t.add_metric("colors_changed", report.colors_changed as u64);
    t.row(vec![
        substrate.to_string(),
        kind.to_string(),
        rate_ppm.to_string(),
        injected.to_string(),
        damage.conflicting_edges.len().to_string(),
        (damage.uncolored.len() + damage.out_of_range.len()).to_string(),
        report.repairs.to_string(),
        report.rounds_to_recover.to_string(),
        report.colors_changed.to_string(),
    ]);
}

/// F7 — fault sweep: the color-maintenance program under injected
/// faults (kind × rate) on three substrates — the host graph `G`, the
/// induced subgraph `G[S]` through the overlay, and the power graph
/// `G^2` through the overlay — with detection + self-healing metrics
/// (rounds-to-recover, colors-changed) per cell. The `none` rows are
/// the control arm: zero faults must mean zero violations, keeping the
/// sweep inside the drift-free baseline gate.
pub fn f7(scale: Scale, tr: &Tracer) -> Table {
    let mut t = Table::new(
        "F7: fault sweep — maintenance under drop/duplicate/corrupt/crash, then region repair",
        &[
            "substrate",
            "fault",
            "rate-ppm",
            "injected",
            "conflict-edges",
            "bad-nodes",
            "repairs",
            "recover-rounds",
            "colors-changed",
        ],
    );
    let n = if scale.quick { 192 } else { 768 };
    let g = generators::random_regular(n, 4, 23);
    let rates: &[u32] = if scale.quick {
        &[300_000]
    } else {
        &[100_000, 300_000]
    };
    // (kind, rate) cells; `none` is the fault-free control.
    let mut specs: Vec<(&str, u32, FaultPlan)> = vec![("none", 0, FaultPlan::none())];
    for &r in rates {
        specs.push(("drop", r, FaultPlan::new(61).with_drops(r)));
        specs.push(("duplicate", r, FaultPlan::new(62).with_duplicates(r)));
        specs.push(("corrupt", r, FaultPlan::new(63).with_corruption(r)));
        specs.push(("crash", r / 2, FaultPlan::new(64).with_crashes(r / 2, 2)));
    }
    // Substrate 1: the host graph, Brooks Δ-colored.
    let base = brooks::brooks_color(&g, 4).expect("nice 4-regular host");
    for spec in &specs {
        fault_sweep_cell(&mut t, tr, "G", &g, 4, spec, || {
            Engine::new(&g, 0, |v| base.get(v).expect("total").0)
        });
    }
    // Substrate 2: an induced subgraph G[S] run through the overlay
    // (members = host ids not divisible by 29; overlay rank i is node i
    // of the materialized induced graph, which verification runs on).
    let mask: Vec<bool> = g.nodes().map(|v| v.0 % 29 != 0).collect();
    let members: Vec<NodeId> = g.nodes().filter(|v| mask[v.index()]).collect();
    let (sub, _globals) = g.induced(&members);
    let sub_palette = sub.max_degree() + 1;
    let sub_base = greedy_coloring(&sub);
    for spec in &specs {
        fault_sweep_cell(&mut t, tr, "G[S]", &sub, sub_palette, spec, || {
            OverlayEngine::new(&g, InducedOverlay { members: &mask }, 0, |r| {
                sub_base.get(r).expect("total").0
            })
        });
    }
    // Substrate 3: the power graph G^2 run through the overlay
    // (verification runs on the materialized power graph; overlay rank
    // = host id since every node is a member).
    let gp = delta_graphs::power::power_graph(&g, 2);
    let gp_palette = gp.max_degree() + 1;
    let gp_base = greedy_coloring(&gp);
    for spec in &specs {
        fault_sweep_cell(&mut t, tr, "G^2", &gp, gp_palette, spec, || {
            OverlayEngine::new(&g, PowerOverlay { k: 2 }, 0, |r| {
                gp_base.get(r).expect("total").0
            })
        });
    }
    t
}

/// Conflicting edges of a coloring, counted host-side (no rounds).
fn count_conflicts(g: &Graph, colors: &[u8]) -> u64 {
    let mut c = 0u64;
    for v in g.nodes() {
        for &w in g.neighbors(v) {
            if w.0 > v.0 && colors[v.index()] == colors[w.index()] {
                c += 1;
            }
        }
    }
    c
}

/// F8 — sharded-engine throughput: randomized 5-palette
/// conflict-resolution recoloring (each conflicted node flips a coin
/// and re-picks uniformly among palette colors no neighbor holds) on a
/// torus and a 4-regular circulant ("rr4"), swept over shard counts
/// S ∈ {1, 2, 4, 8}. Full scale runs `2^27` nodes — the graphs come
/// from the streaming generators, never materializing an edge list —
/// which is the headline demonstrating the sharded engine at a size
/// the experiments previously could not touch. Conflict columns are
/// deterministic (and equal across S rows — the bit-identity guarantee
/// made visible); the throughput metrics recorded per graph × S in
/// `BENCH_delta.json` are wall-clock-derived and therefore advisory in
/// the baseline gate, which only insists the keys keep being reported.
pub fn f8(scale: Scale, tr: &Tracer) -> Table {
    let mut t = Table::new(
        "F8: sharded engine — 5-palette conflict resolution, throughput vs shard count",
        &[
            "graph",
            "n",
            "shards",
            "rounds",
            "wall-s",
            "knode-rounds/s",
            "per-shard-kn-r/s",
            "boundary-blocks",
            "boundary-kbits",
            "conflicts-start",
            "conflicts-end",
        ],
    );
    let (rows, cols, n_rr, rounds) = if scale.quick {
        (1usize << 6, 1usize << 6, 1usize << 12, 6u32)
    } else {
        (1usize << 13, 1usize << 14, 1usize << 27, 4u32)
    };
    let cases = [
        ("torus", delta_graphs::io::stream_torus(rows, cols)),
        ("rr4", delta_graphs::io::stream_circulant4(n_rr)),
    ];
    // Progress-sink hints: total engine rounds the sweep will charge
    // (2 graphs x 4 shard counts) and, per graph, the node count — the
    // long-running full-scale sweep narrates rounds/s and an ETA.
    tr.observe(
        "progress_total_rounds",
        cases.len() as u64 * 4 * rounds as u64,
    );
    // Scrambled initial colors so the palette starts in heavy conflict.
    let init = |v: NodeId| (v.0.wrapping_mul(2_654_435_761) >> 16) as u8 % 5;
    for (name, g) in &cases {
        tr.observe("progress_nodes", g.n() as u64);
        let start: Vec<u8> = g.nodes().map(init).collect();
        let conflicts_start = count_conflicts(g, &start);
        drop(start);
        for shards in [1usize, 2, 4, 8] {
            let mut ledger = tr.ledger();
            let mut eng = ShardedEngine::contiguous(g, shards, 0xF8, init);
            let wall = std::time::Instant::now();
            for _ in 0..rounds {
                eng.step(
                    &mut ledger,
                    "f8-recolor",
                    |_, &mut s, out: &mut Outbox<u8>| out.broadcast(s),
                    |ctx, s, inbox| {
                        let mut used = [false; 5];
                        let mut conflicted = false;
                        for &(_, m) in inbox {
                            used[m as usize] = true;
                            conflicted |= m == *s;
                        }
                        if conflicted && ctx.rng.random_bool(0.5) {
                            let free = used.iter().filter(|&&u| !u).count();
                            if free > 0 {
                                let pick = ctx.rng.random_range(0..free);
                                *s = used
                                    .iter()
                                    .enumerate()
                                    .filter(|(_, &u)| !u)
                                    .nth(pick)
                                    .expect("pick < free")
                                    .0 as u8;
                            }
                        }
                    },
                );
            }
            let secs = wall.elapsed().as_secs_f64();
            let bs = eng.boundary_stats();
            let conflicts_end = count_conflicts(g, eng.states());
            let knode_rounds = (g.n() as u64 * rounds as u64) as f64 / secs / 1e3;
            t.meter_ledger(&ledger);
            t.add_metric(
                &format!("{name}_s{shards}_knode_rounds_per_s"),
                knode_rounds as u64,
            );
            t.add_metric(
                &format!("{name}_s{shards}_boundary_kbits"),
                bs.block_bits / 1000,
            );
            t.row(vec![
                name.to_string(),
                g.n().to_string(),
                shards.to_string(),
                rounds.to_string(),
                fmt_f(secs),
                fmt_f(knode_rounds),
                fmt_f(knode_rounds / shards as f64),
                bs.blocks.to_string(),
                (bs.block_bits / 1000).to_string(),
                conflicts_start.to_string(),
                conflicts_end.to_string(),
            ]);
        }
        t.add_metric(&format!("{name}_conflicts_start"), conflicts_start);
    }
    t
}

#[cfg(test)]
mod f8_tests {
    use super::*;

    #[test]
    fn quick_f8_resolves_conflicts_identically_across_shard_counts() {
        let t = f8(Scale::new(true), &Tracer::disabled());
        assert_eq!(t.len(), 8, "2 graphs x 4 shard counts");
        let csv = t.to_csv();
        for graph in ["torus", "rr4"] {
            let rows: Vec<&str> = csv
                .lines()
                .skip(1)
                .filter(|l| l.starts_with(&format!("{graph},")))
                .collect();
            assert_eq!(rows.len(), 4);
            let cell = |row: &str, i: usize| row.split(',').nth(i).unwrap().to_string();
            let start: u64 = cell(rows[0], 9).parse().unwrap();
            let end: u64 = cell(rows[0], 10).parse().unwrap();
            assert!(start > 0, "{graph}: scrambled start has no conflicts");
            assert!(end < start, "{graph}: recoloring resolved nothing");
            // Bit-identity made visible: every shard count lands on the
            // same final conflict count.
            for r in &rows[1..] {
                assert_eq!(cell(r, 10), end.to_string(), "divergent row: {r}");
            }
            // One shard never crosses a boundary; several shards do.
            assert_eq!(cell(rows[0], 7), "0");
            assert_ne!(cell(rows[3], 7), "0");
        }
        assert!(t.sim_rounds() > 0);
    }
}

/// F9 — true-CONGEST enforcement: the headline randomized Δ-coloring
/// compiled onto `O(log n)`-bit wires by the fragmentation/pipelining
/// layer (`local_model::congest`). Each size runs twice from the same
/// seed — plain LOCAL, then under [`local_model::enforce_congest`] —
/// and the enforced run must (a) finish with **zero** CONGEST
/// violations, (b) reproduce the bit-identical coloring, and (c)
/// report the honest wire-round blow-up it paid for that.
pub fn f9(scale: Scale, tr: &Tracer) -> Table {
    let mut t = Table::new(
        "F9: true-CONGEST enforcement - headline delta-coloring fragmented onto O(log n)-bit wires (zero violations, bit-identical colors)",
        &[
            "n",
            "delta",
            "budget-bits",
            "local-rounds",
            "wire-rounds",
            "blowup",
            "local-max-edge-bits",
            "wire-max-edge-bits",
            "violations",
            "colors-equal",
        ],
    );
    let ns = scale.n_sweep(&[1 << 10, 1 << 12, 1 << 14], &[1 << 10]);
    let delta = 4usize;
    let mut budget_bits = 0u64;
    let mut logical_total = 0u64;
    let mut wire_total = 0u64;
    let mut worst_blowup = 0u64;
    let mut violations_total = 0u64;
    for n in ns {
        let seed = 7u64;
        let g = generators::random_regular(n, delta, seed * 13 + 5);
        let budget = scale
            .congest_bits
            .unwrap_or_else(|| local_model::congest_budget(n as u64));
        // Reference run: plain LOCAL, broadcast-everything wires.
        let mut local_ledger = tr.ledger();
        let (local_colors, _) =
            delta_color_rand(&g, RandConfig::large_delta(&g, seed), &mut local_ledger)
                .expect("colorable");
        verify::check_delta_coloring(&g, &local_colors).expect("valid LOCAL coloring");
        // Enforced run: same graph + seed, but every engine the driver
        // builds is compiled through the congest layer, so oversized
        // payloads fragment and each logical round is charged as the
        // wire rounds it dilated into.
        let mut wire_ledger = tr.ledger();
        let wire_colors = {
            let _guard = local_model::enforce_congest(budget);
            let (c, _) = delta_color_rand(&g, RandConfig::large_delta(&g, seed), &mut wire_ledger)
                .expect("colorable under CONGEST");
            c
        };
        verify::check_delta_coloring(&g, &wire_colors).expect("valid CONGEST coloring");
        let colors_equal = wire_colors == local_colors;
        assert!(colors_equal, "fragmentation changed the n={n} coloring");
        assert_eq!(
            wire_ledger.congest_violations(),
            0,
            "n={n}: enforced run violated the {budget}-bit budget"
        );
        assert!(
            wire_ledger.max_edge_bits() <= budget,
            "n={n}: wire round carried {} > {budget} bits",
            wire_ledger.max_edge_bits()
        );
        let blowup = wire_ledger.blowup_permille(local_ledger.total());
        t.meter_ledger(&local_ledger);
        t.meter_ledger(&wire_ledger);
        budget_bits = budget_bits.max(budget);
        logical_total += local_ledger.total();
        wire_total += wire_ledger.total();
        worst_blowup = worst_blowup.max(blowup);
        violations_total += wire_ledger.congest_violations();
        t.row(vec![
            n.to_string(),
            delta.to_string(),
            budget.to_string(),
            local_ledger.total().to_string(),
            wire_ledger.total().to_string(),
            format!("{:.3}", blowup as f64 / 1000.0),
            local_ledger.max_edge_bits().to_string(),
            wire_ledger.max_edge_bits().to_string(),
            wire_ledger.congest_violations().to_string(),
            colors_equal.to_string(),
        ]);
    }
    t.add_metric("congest_bits", budget_bits);
    t.add_metric("congest_logical_rounds", logical_total);
    t.add_metric("congest_wire_rounds", wire_total);
    t.add_metric("congest_blowup_permille", worst_blowup);
    t.add_metric("congest_violations", violations_total);
    t
}

#[cfg(test)]
mod f9_tests {
    use super::*;

    #[test]
    fn quick_f9_enforced_run_is_violation_free_and_bit_identical() {
        // The assertions inside f9 are the test; here we pin the shape
        // and that dilation was real (wire rounds strictly exceed
        // logical rounds, so enforcement wasn't a no-op).
        let t = f9(Scale::new(true), &Tracer::disabled());
        assert_eq!(t.len(), 1);
        let metric = |name: &str| {
            t.metrics()
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        assert_eq!(metric("congest_violations"), 0);
        assert!(metric("congest_bits") >= local_model::MIN_CONGEST_BITS);
        assert!(
            metric("congest_wire_rounds") > metric("congest_logical_rounds"),
            "no dilation: fragmentation never engaged"
        );
        assert!(metric("congest_blowup_permille") > 1000);
        let csv = t.to_csv();
        assert!(csv.lines().nth(1).unwrap().ends_with("0,true"));
    }

    #[test]
    fn quick_f9_honours_a_budget_override() {
        let wide = Scale {
            quick: true,
            congest_bits: Some(1 << 20),
        };
        let t = f9(wide, &Tracer::disabled());
        let metric = |name: &str| {
            t.metrics()
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        assert_eq!(metric("congest_bits"), 1 << 20);
        // A budget wider than any message means zero fragmentation:
        // wire rounds collapse back onto logical rounds.
        assert_eq!(
            metric("congest_wire_rounds"),
            metric("congest_logical_rounds")
        );
        assert_eq!(metric("congest_blowup_permille"), 1000);
    }
}

/// Runs an experiment by id, attaching `tr` to every metered ledger —
/// the per-experiment trace totals therefore mirror the table's
/// simulated-rounds / max-edge-bits meters exactly. Pass
/// [`Tracer::disabled`] for an untraced run.
pub fn run(id: &str, scale: Scale, tr: &Tracer) -> Option<Table> {
    Some(match id {
        "t1" => t1(scale, tr),
        "t2" => t2(scale, tr),
        "t3" => t3(scale, tr),
        "t4" => t4(scale, tr),
        "t5" => t5(scale, tr),
        "t6" => t6(scale, tr),
        "f1" => f1(scale, tr),
        "f2" => f2(scale, tr),
        "f3" => f3(scale, tr),
        "f4" => f4(scale, tr),
        "f5" => f5(scale, tr),
        "f6" => f6(scale, tr),
        "f7" => f7(scale, tr),
        "f8" => f8(scale, tr),
        "f9" => f9(scale, tr),
        _ => return None,
    })
}

/// All experiment ids in canonical order.
pub const ALL: &[&str] = &[
    "t1", "t2", "t3", "t4", "t5", "t6", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_f6_is_consistent() {
        let t = f6(Scale::new(true), &Tracer::disabled());
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            assert!(line.ends_with("true"), "inconsistent row: {line}");
        }
    }

    #[test]
    fn run_dispatches() {
        let tr = Tracer::disabled();
        assert!(run("f6", Scale::new(true), &tr).is_some());
        assert!(run("nope", Scale::new(true), &tr).is_none());
    }

    /// The trace layer's headline invariant at the experiment level: a
    /// collecting tracer attached to a quick f7 run reports exactly the
    /// rounds and max-edge-bits the table metered — the trace is a view
    /// of the ledgers, never a second count.
    #[test]
    fn quick_f7_trace_totals_mirror_the_table_meter() {
        let tr = Tracer::collecting();
        let t = f7(Scale::new(true), &tr);
        tr.finish();
        let totals = tr.totals();
        assert_eq!(totals.rounds, t.sim_rounds());
        assert_eq!(totals.max_edge_bits, t.max_edge_bits());
        assert!(totals.faults.dropped > 0, "fault records flowed through");
    }

    #[test]
    fn quick_f7_injects_and_recovers_on_every_substrate() {
        let t = f7(Scale::new(true), &Tracer::disabled());
        // 3 substrates × (1 control + 4 fault kinds at 1 rate).
        assert_eq!(t.len(), 15);
        let metric = |name: &str| {
            t.metrics()
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        // The sweep injected faults and healed the damage it caused
        // (every cell asserts post-repair cleanliness internally).
        assert!(metric("faults_injected") > 0, "no faults injected");
        assert!(metric("violations") > 0, "faults caused no damage");
        assert!(metric("repairs") > 0, "no repairs ran");
        assert!(metric("recover_rounds") > 0);
        // Control rows are fault-free: the sweep stays deterministic
        // and the baseline gate keeps passing.
        let csv = t.to_csv();
        for line in csv.lines().skip(1).filter(|l| l.contains(",none,")) {
            let injected: u64 = line.split(',').nth(3).unwrap().parse().unwrap();
            assert_eq!(injected, 0, "control row injected faults: {line}");
        }
    }
}
