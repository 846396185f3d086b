//! Determinism regression: for a fixed seed, the parallel engine
//! schedule must produce output bit-identical to the sequential
//! schedule — on raw engine programs and through the full coloring
//! algorithms — on cycles, random regular graphs, and Gallai trees.
//!
//! The engine guarantees this by keeping delivery synchronous and
//! randomness node-private; these tests are the tripwire for any future
//! change that breaks the schedule-independence.

use delta_coloring::delta::{delta_color_rand, RandConfig};
use delta_coloring::list_coloring::list_color_randomized;
use delta_coloring::marking::{marking_process, MarkingParams};
use delta_coloring::mis::luby_mis;
use delta_coloring::palette::{Lists, PartialColoring};
use delta_graphs::{generators, Graph, NodeId};
use local_model::{force_exec_mode, Engine, ExecMode, Outbox, RoundLedger};

/// Runs `f` once under each forced schedule and returns both results.
/// The [`force_exec_mode`] guard holds a process-wide lock, so these
/// tests serialize against each other (and anyone else forcing a mode)
/// automatically — no external mutex needed.
fn under_both_modes<T>(f: impl Fn() -> T) -> (T, T) {
    let seq = {
        let _mode = force_exec_mode(ExecMode::Sequential);
        f()
    };
    let par = {
        let _mode = force_exec_mode(ExecMode::Parallel);
        f()
    };
    (seq, par)
}

/// The schedule-independent fingerprint of a ledger: rounds plus the
/// full bandwidth section (bits, heaviest edge, violations) — all of
/// which must be bit-identical across execution modes.
fn ledger_fingerprint(ledger: &RoundLedger) -> (u64, u64, u64, u64) {
    (
        ledger.total(),
        ledger.bits_sent(),
        ledger.max_edge_bits(),
        ledger.congest_violations(),
    )
}

fn families(seed: u64) -> Vec<(String, Graph)> {
    vec![
        ("cycle".into(), generators::cycle(257)),
        (
            "random-regular".into(),
            generators::random_regular(600, 4, seed),
        ),
        (
            "gallai-tree".into(),
            generators::random_gallai_tree(60, 5, seed),
        ),
    ]
}

#[test]
fn raw_engine_program_is_schedule_independent() {
    for (name, g) in families(1) {
        let (seq, par) = under_both_modes(|| {
            let mut ledger = RoundLedger::new();
            let mut engine = Engine::new(&g, 7, |v| v.0 as u64);
            for _ in 0..6 {
                engine.step(
                    &mut ledger,
                    "mix",
                    |ctx, s, out: &mut Outbox<u64>| {
                        *s = s.wrapping_add(ctx.random_below(1 << 24));
                        out.broadcast(*s);
                    },
                    |ctx, s, inbox| {
                        for &(w, m) in inbox {
                            *s ^= m.rotate_left(w.0 % 63);
                        }
                        *s ^= ctx.random_below(1 << 16);
                    },
                );
            }
            (engine.into_states(), ledger_fingerprint(&ledger))
        });
        assert_eq!(seq, par, "{name}: engine schedules diverged");
    }
}

#[test]
fn luby_mis_is_schedule_independent() {
    for seed in [3u64, 11] {
        for (name, g) in families(seed) {
            let (seq, par) = under_both_modes(|| {
                let mut ledger = RoundLedger::new();
                let mis = luby_mis(&g, seed, &mut ledger, "mis");
                (mis, ledger_fingerprint(&ledger))
            });
            assert_eq!(seq, par, "{name}/seed {seed}: MIS diverged");
        }
    }
}

#[test]
fn list_coloring_is_schedule_independent() {
    for (name, g) in families(5) {
        let lists = Lists::new(
            g.nodes()
                .map(|v| delta_coloring::palette::palette(g.degree(v) + 1))
                .collect(),
        );
        let (seq, par) = under_both_modes(|| {
            let mut ledger = RoundLedger::new();
            let c = list_color_randomized(
                &g,
                None,
                &lists,
                PartialColoring::new(g.n()),
                9,
                &mut ledger,
                "lc",
            )
            .expect("deg+1 instances are solvable");
            (c, ledger_fingerprint(&ledger))
        });
        assert_eq!(seq.1, par.1, "{name}: round counts diverged");
        assert!(seq.0 == par.0, "{name}: colorings diverged");
    }
}

#[test]
fn ruling_sets_are_schedule_independent_and_measured() {
    // The bit-halving ruling sets now execute through the engine (one
    // reach flood per bit level): their transcripts — the set, the
    // rounds, and every bandwidth counter — must be bit-identical
    // across schedules, and the floods must show up as measured bits.
    for (name, g) in families(7) {
        for alpha in [2usize, 4] {
            let (seq, par) = under_both_modes(|| {
                let mut ledger = RoundLedger::new();
                let set = delta_coloring::ruling::ruling_set_deterministic_alpha(
                    &g,
                    alpha,
                    &mut ledger,
                    "rs",
                );
                (set, ledger_fingerprint(&ledger))
            });
            assert_eq!(seq, par, "{name}/alpha {alpha}: ruling sets diverged");
            assert!(seq.1 .1 > 0, "{name}/alpha {alpha}: no bits measured");
        }
    }
}

#[test]
fn overlay_ruling_sets_are_schedule_independent_and_measured() {
    // The randomized (Luby) ruling sets now execute on the G^{α-1}
    // overlay — α-1 relay rounds of the host graph per virtual round.
    // Their transcripts (set, rounds, every bandwidth counter) must be
    // bit-identical across schedules, with nonzero measured relay bits.
    for (name, g) in families(9) {
        for alpha in [3usize, 4] {
            let (seq, par) = under_both_modes(|| {
                let mut ledger = RoundLedger::new();
                let set =
                    delta_coloring::ruling::ruling_set_randomized(&g, alpha, 5, &mut ledger, "rs");
                (set, ledger_fingerprint(&ledger))
            });
            assert_eq!(seq, par, "{name}/alpha {alpha}: overlay ruling diverged");
            assert!(seq.1 .1 > 0, "{name}/alpha {alpha}: relays not measured");
        }
    }
}

#[test]
fn overlay_marking_within_is_schedule_independent() {
    // The remainder-graph marking now runs through the InducedOverlay:
    // non-members silent, every round a measured host round. Transcript
    // must be schedule-independent and equal to the materialized
    // subgraph execution.
    let g = generators::random_regular(600, 4, 3);
    let mask: Vec<bool> = g.nodes().map(|v| v.0 % 5 != 0).collect();
    let member_count = mask.iter().filter(|&&m| m).count();
    let (seq, par) = under_both_modes(|| {
        let mut coloring = PartialColoring::new(member_count);
        let mut ledger = RoundLedger::new();
        let out = marking_process(
            &g,
            Some(&mask),
            MarkingParams { p: 0.02, b: 6 },
            13,
            &mut coloring,
            &mut ledger,
            "mark",
        );
        (out.t_nodes, out.marked, ledger_fingerprint(&ledger))
    });
    assert_eq!(seq, par, "overlay marking diverged");
    assert!(seq.2 .1 > 0, "overlay marking bits must be measured");
    // Materialized-subgraph execution places the same marks (the
    // overlay id space is exactly the induced compaction).
    let members: Vec<delta_graphs::NodeId> = g.nodes().filter(|v| mask[v.index()]).collect();
    let (sub, _map) = g.induced(&members);
    let mat = {
        let mut coloring = PartialColoring::new(sub.n());
        let mut ledger = RoundLedger::new();
        marking_process(
            &sub,
            None,
            MarkingParams { p: 0.02, b: 6 },
            13,
            &mut coloring,
            &mut ledger,
            "mark",
        )
    };
    assert_eq!(seq.0, mat.t_nodes, "T-nodes diverged from materialized run");
    assert_eq!(seq.1, mat.marked, "marks diverged from materialized run");
}

#[test]
fn masked_trial_coloring_matches_materialized_run() {
    // The randomized driver colors every layer of phases (6)–(9)
    // through the induced overlay. On random graphs and masks, the
    // masked trial coloring must return the colors, and charge the
    // rounds, of a run on the materialized G[S], under both schedules.
    // Lists are the Δ palette minus colored host neighbors, as
    // `color_one_layer` builds them; as in a layer step, every member
    // has an uncolored neighbor below it, so the instance is deg+1.
    use rand::{Rng, SeedableRng};
    for seed in 0..16u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 48 + 16 * (seed as usize % 4);
        let g = generators::random_regular(n, 3 + seed as usize % 3, seed);
        let delta = g.max_degree();
        let below: Vec<bool> = g.nodes().map(|_| rng.random_bool(0.3)).collect();
        let mask: Vec<bool> = g
            .nodes()
            .map(|v| {
                !below[v.index()]
                    && g.neighbors(v).iter().any(|w| below[w.index()])
                    && rng.random_bool(0.7)
            })
            .collect();
        // Greedy Δ-palette precoloring of the nodes above the layer
        // (a node with no free color stays uncolored).
        let mut coloring = PartialColoring::new(g.n());
        for v in g.nodes() {
            if !below[v.index()] && !mask[v.index()] {
                if let Some(&c) = coloring.free_colors(&g, v, delta).first() {
                    coloring.set(v, c);
                }
            }
        }
        let members: Vec<NodeId> = g.nodes().filter(|v| mask[v.index()]).collect();
        let lists = Lists::new(
            members
                .iter()
                .map(|&v| {
                    let used = coloring.neighbor_colors(&g, v);
                    delta_coloring::palette::palette(delta)
                        .into_iter()
                        .filter(|c| used.binary_search(c).is_err())
                        .collect()
                })
                .collect(),
        );
        let (sub, _map) = g.induced(&members);
        let run = |host: &Graph, mask: Option<&[bool]>| {
            let mut ledger = RoundLedger::new();
            let c = list_color_randomized(
                host,
                mask,
                &lists,
                PartialColoring::new(members.len()),
                seed,
                &mut ledger,
                "lc",
            )
            .expect("deg+1 instances are solvable");
            (c, ledger.total())
        };
        let (seq, par) = under_both_modes(|| (run(&g, Some(&mask)), run(&sub, None)));
        assert!(seq == par, "seed {seed}: schedules diverged");
        let ((masked, masked_rounds), (materialized, materialized_rounds)) = seq;
        assert!(
            masked == materialized,
            "seed {seed}: colors diverged from materialized run"
        );
        assert_eq!(
            masked_rounds, materialized_rounds,
            "seed {seed}: rounds diverged from materialized run"
        );
        assert!(materialized.is_total() && materialized.validate_proper(&sub).is_ok());
    }
}

#[test]
fn dcc_detection_is_schedule_independent_and_measured() {
    // Collective DCC detection (the ball-collection subsystem) must be
    // transcript-identical across schedules, with measured relay bits.
    let g = generators::torus(8, 8);
    let (seq, par) = under_both_modes(|| {
        let mut ledger = RoundLedger::new();
        let dccs = delta_coloring::gallai::find_dccs_all(&g, 2, 4, 64, &mut ledger, "dcc");
        let found: Vec<Option<Vec<delta_graphs::NodeId>>> =
            dccs.into_iter().map(|f| f.map(|f| f.nodes)).collect();
        (found, ledger_fingerprint(&ledger))
    });
    assert_eq!(seq, par, "DCC detection diverged");
    assert!(seq.1 .1 > 0, "certificate floods must be measured");
}

#[test]
fn marking_is_schedule_independent() {
    let g = generators::random_regular(800, 4, 2);
    let (seq, par) = under_both_modes(|| {
        let mut coloring = PartialColoring::new(g.n());
        let mut ledger = RoundLedger::new();
        let out = marking_process(
            &g,
            None,
            MarkingParams { p: 0.02, b: 6 },
            13,
            &mut coloring,
            &mut ledger,
            "mark",
        );
        (out.t_nodes, out.marked, ledger_fingerprint(&ledger))
    });
    assert_eq!(seq, par, "marking diverged");
    assert!(
        seq.2 .1 > 0,
        "the marking flood executes on the engine: bits must be measured"
    );
}

#[test]
fn full_randomized_delta_coloring_is_schedule_independent() {
    let g = generators::random_regular(500, 4, 21);
    let (seq, par) = under_both_modes(|| {
        let cfg = RandConfig::large_delta(&g, 4);
        let mut ledger = RoundLedger::new();
        let (c, stats) = delta_color_rand(&g, cfg, &mut ledger).expect("colorable");
        (c, stats.attempts, ledger_fingerprint(&ledger))
    });
    assert_eq!(seq.1, par.1, "attempt counts diverged");
    assert_eq!(seq.2, par.2, "round counts diverged");
    assert!(seq.0 == par.0, "colorings diverged");
}
