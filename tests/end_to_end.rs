//! End-to-end integration tests: every Δ-coloring algorithm against
//! every generator family, with full verification.

use delta_coloring::baseline;
use delta_coloring::delta::{
    delta_color_det, delta_color_rand, ComponentRuling, DetConfig, RandConfig,
};
use delta_coloring::gallai;
use delta_coloring::list_coloring::ListColorMethod;
use delta_coloring::verify::{assert_nice, check_delta_coloring};
use delta_graphs::{generators, Graph};
use local_model::trace::PhaseAgg;
use local_model::{
    RoundLedger, RoundRecord, TraceLine, TraceSink, TraceSummary, Tracer, FLUSH_PHASE,
};
use std::sync::{Arc, Mutex};

fn nice_families() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = vec![
        (
            "random-regular-3".into(),
            generators::random_regular(400, 3, 1),
        ),
        (
            "random-regular-4".into(),
            generators::random_regular(400, 4, 2),
        ),
        (
            "random-regular-6".into(),
            generators::random_regular(300, 6, 3),
        ),
        ("torus".into(), generators::torus(14, 15)),
        ("hypercube-6".into(), generators::hypercube(6)),
        ("petersen".into(), generators::petersen_like()),
        ("star".into(), generators::star(7)),
        (
            "complete-bipartite".into(),
            generators::complete_bipartite(4, 7),
        ),
        ("circulant".into(), generators::circulant(100, 4)),
    ];
    for seed in 0..3u64 {
        let g = generators::tree_with_chords(300, 40, seed);
        if assert_nice(&g).is_ok() {
            out.push((format!("tree+chords-{seed}"), g));
        }
        let p = generators::perturbed_regular(300, 4, 0.05, seed);
        if assert_nice(&p).is_ok() {
            out.push((format!("perturbed-{seed}"), p));
        }
        let t = generators::random_tree(200, seed);
        if assert_nice(&t).is_ok() {
            out.push((format!("tree-{seed}"), t));
        }
    }
    out
}

#[test]
fn randomized_algorithm_on_all_families() {
    for (name, g) in nice_families() {
        assert_nice(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        let cfg = RandConfig::large_delta(&g, 11);
        let mut ledger = RoundLedger::new();
        let (c, _) =
            delta_color_rand(&g, cfg, &mut ledger).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_delta_coloring(&g, &c).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(ledger.total() > 0, "{name}: zero rounds charged");
    }
}

#[test]
fn small_delta_variant_on_cubic_families() {
    for seed in 0..2u64 {
        let g = generators::random_regular(500, 3, 77 + seed);
        let cfg = RandConfig::small_delta(&g, seed);
        let mut ledger = RoundLedger::new();
        let (c, _) = delta_color_rand(&g, cfg, &mut ledger).unwrap();
        check_delta_coloring(&g, &c).unwrap();
    }
}

#[test]
fn deterministic_algorithm_on_all_families() {
    for (name, g) in nice_families() {
        let mut ledger = RoundLedger::new();
        let (c, stats) = delta_color_det(&g, DetConfig::default(), &mut ledger)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        check_delta_coloring(&g, &c).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(stats.base_size >= 1, "{name}");
    }
}

#[test]
fn deterministic_algorithm_with_randomized_layers() {
    let g = generators::random_regular(300, 4, 5);
    let cfg = DetConfig {
        method: ListColorMethod::Randomized,
        seed: 3,
    };
    let mut ledger = RoundLedger::new();
    let (c, _) = delta_color_det(&g, cfg, &mut ledger).unwrap();
    check_delta_coloring(&g, &c).unwrap();
}

#[test]
fn ps_baseline_on_all_families() {
    for (name, g) in nice_families() {
        let mut ledger = RoundLedger::new();
        let (c, _) =
            baseline::ps_style_delta(&g, 7, &mut ledger).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_delta_coloring(&g, &c).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn all_algorithms_reject_brooks_exceptions() {
    let clique = generators::complete(5);
    let odd_cycle = generators::cycle(9);
    let path = generators::path(12);
    for g in [&clique, &odd_cycle, &path] {
        let cfg = RandConfig::large_delta(g, 0);
        assert!(delta_color_rand(g, cfg, &mut RoundLedger::new()).is_err());
        assert!(delta_color_det(g, DetConfig::default(), &mut RoundLedger::new()).is_err());
    }
}

#[test]
fn rand_beats_ps_baseline_on_regular_graphs() {
    // The paper's headline: the new algorithms are (much) faster than
    // the Panconesi–Srinivasan-style baseline. Verify the round counts
    // reflect that on a mid-size instance.
    let g = generators::random_regular(2000, 4, 9);
    let cfg = RandConfig::large_delta(&g, 1);
    let mut rand_ledger = RoundLedger::new();
    let (c1, _) = delta_color_rand(&g, cfg, &mut rand_ledger).unwrap();
    check_delta_coloring(&g, &c1).unwrap();
    let mut ps_ledger = RoundLedger::new();
    let (c2, _) = baseline::ps_style_delta(&g, 1, &mut ps_ledger).unwrap();
    check_delta_coloring(&g, &c2).unwrap();
    assert!(
        rand_ledger.total() < ps_ledger.total(),
        "rand {} >= ps {}",
        rand_ledger.total(),
        ps_ledger.total()
    );
}

#[test]
fn round_ledgers_have_named_phases() {
    let g = generators::random_regular(400, 4, 21);
    let cfg = RandConfig::large_delta(&g, 2);
    let mut ledger = RoundLedger::new();
    delta_color_rand(&g, cfg, &mut ledger).unwrap();
    let phases = ledger.by_phase();
    assert!(!phases.is_empty());
    assert!(phases.iter().any(|(p, _)| p.starts_with("phase1")));
    let sum: u64 = phases.iter().map(|&(_, r)| r).sum();
    assert_eq!(sum, ledger.total());
}

#[test]
fn disconnected_graphs_are_rejected_cleanly() {
    let g = generators::random_regular(100, 3, 1)
        .disjoint_union(&generators::random_regular(100, 3, 2));
    let cfg = RandConfig::large_delta(&g, 0);
    assert!(delta_color_rand(&g, cfg, &mut RoundLedger::new()).is_err());
}

/// A trace sink that keeps every round record.
#[derive(Clone, Default)]
struct RoundRecords(Arc<Mutex<Vec<RoundRecord>>>);

impl TraceSink for RoundRecords {
    fn on_line(&mut self, line: &TraceLine) {
        if let TraceLine::Round(record) = line {
            self.0.lock().unwrap().push(record.clone());
        }
    }
}

/// Runs `delta_color_rand` on a traced ledger, checks that every bit
/// rides on an engine round record of a named phase and that the trace
/// adds up to the ledger, and returns the per-phase aggregates.
fn traced_rand_run(g: &Graph, cfg: RandConfig) -> Vec<(String, PhaseAgg)> {
    let records = RoundRecords::default();
    let tr = Tracer::with_sinks(vec![Box::new(records.clone())]);
    let mut ledger = tr.ledger();
    let (coloring, _) = delta_color_rand(g, cfg, &mut ledger).unwrap();
    check_delta_coloring(g, &coloring).unwrap();
    tr.finish();
    let records = records.0.lock().unwrap().clone();
    for r in &records {
        assert!(
            r.bits == 0 || r.meta.is_some(),
            "{} bits in {} without an engine round",
            r.bits,
            r.phase
        );
        assert_ne!(r.phase, FLUSH_PHASE, "{} bits belong to no phase", r.bits);
    }
    let t = tr.totals();
    assert_eq!(t.rounds, ledger.total());
    assert_eq!(t.bits, ledger.bits_sent());
    assert_eq!(t.max_edge_bits, ledger.max_edge_bits());
    assert_eq!(t.violations, ledger.congest_violations());
    TraceSummary::from_lines(records.into_iter().map(TraceLine::Round))
        .phases()
        .to_vec()
}

fn phase_agg(phases: &[(String, PhaseAgg)], name: &str) -> PhaseAgg {
    phases
        .iter()
        .find(|(p, _)| p == name)
        .map(|&(_, a)| a)
        .unwrap_or_else(|| panic!("no {name} records"))
}

#[test]
fn rand_driver_bits_ride_on_engine_records() {
    // A 3-regular graph with a DCC within small_delta's detection
    // radius, so phase (2) rules a non-empty DCC graph.
    let dcc_graph = (1..=16)
        .map(|seed| generators::random_regular(600, 3, seed))
        .find(|g| {
            let r = RandConfig::small_delta(g, 1).r_detect;
            let cap = gallai::dcc_size_cap(g.max_degree());
            gallai::find_dccs_all(g, r, 2 * r, cap, &mut RoundLedger::new(), "dcc")
                .iter()
                .any(Option::is_some)
        })
        .expect("a 3-regular graph with a DCC");
    let cfg = RandConfig::small_delta(&dcc_graph, 1);
    let r = cfg.r_detect as u64;
    let ruling = phase_agg(&traced_rand_run(&dcc_graph, cfg), "phase2-ruling");
    assert!(ruling.engine_rounds > 0);
    assert_eq!(ruling.rounds, (2 * r + 1) * ruling.engine_rounds);

    // No DCC removal, and happiness radius 1, so phase (6) colors a
    // leftover component (at the default radius of 8, the one T-node
    // this graph gets makes every node happy).
    let g = generators::random_regular(500, 4, 13);
    for component_ruling in [ComponentRuling::Mis, ComponentRuling::NetDecomp] {
        let mut cfg = RandConfig::large_delta(&g, 3);
        cfg.r_detect = 0;
        cfg.r_happy = 1;
        cfg.component_ruling = component_ruling;
        let ruling = phase_agg(&traced_rand_run(&g, cfg), "phase6-ruling");
        if component_ruling == ComponentRuling::Mis {
            assert!(ruling.engine_rounds > 0);
        }
    }
}
