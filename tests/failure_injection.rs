//! Failure injection: malformed inputs, adversarial partial colorings,
//! and Brooks-exception instances must produce clean errors (never
//! panics, never silently-invalid colorings).

use delta_coloring::brooks;
use delta_coloring::delta::{
    delta_color_det, delta_color_netdecomp, delta_color_rand, delta_color_slocal, DetConfig,
    RandConfig,
};
use delta_coloring::gallai;
use delta_coloring::list_coloring::{self, ListColorMethod};
use delta_coloring::marking::MarkingParams;
use delta_coloring::palette::{Color, ColoringError, Lists, PartialColoring};
use delta_graphs::{generators, Graph, NodeId};
use local_model::RoundLedger;

fn non_nice_zoo() -> Vec<(&'static str, Graph)> {
    vec![
        ("clique", generators::complete(6)),
        ("odd-cycle", generators::cycle(11)),
        ("even-cycle", generators::cycle(12)),
        ("path", generators::path(9)),
        ("single-edge", generators::path(2)),
        (
            "disconnected",
            generators::cycle(5).disjoint_union(&generators::complete(4)),
        ),
        ("empty", Graph::empty(0)),
        ("edgeless", Graph::empty(7)),
    ]
}

#[test]
fn every_entry_point_rejects_non_nice_inputs() {
    for (name, g) in non_nice_zoo() {
        let cfg = RandConfig::large_delta(&g, 0);
        assert!(
            delta_color_rand(&g, cfg, &mut RoundLedger::new()).is_err(),
            "rand accepted {name}"
        );
        assert!(
            delta_color_det(&g, DetConfig::default(), &mut RoundLedger::new()).is_err(),
            "det accepted {name}"
        );
        assert!(
            delta_color_netdecomp(&g, ListColorMethod::Randomized, 0, &mut RoundLedger::new())
                .is_err(),
            "netdecomp accepted {name}"
        );
        assert!(delta_color_slocal(&g).is_err(), "slocal accepted {name}");
    }
}

#[test]
fn error_messages_name_the_problem() {
    let e = delta_color_rand(
        &generators::complete(5),
        RandConfig::large_delta(&generators::complete(5), 0),
        &mut RoundLedger::new(),
    )
    .unwrap_err();
    assert!(e.to_string().contains("complete"), "unhelpful error: {e}");
    let e2 = delta_color_det(
        &generators::cycle(9),
        DetConfig::default(),
        &mut RoundLedger::new(),
    )
    .unwrap_err();
    assert!(e2.to_string().contains("cycle"), "unhelpful error: {e2}");
}

#[test]
fn repair_fails_cleanly_on_brooks_exceptions() {
    // A clique minus nothing: Δ-coloring doesn't exist, so repair must
    // report Unsolvable instead of looping or panicking.
    let g = generators::complete(5);
    let mut c = PartialColoring::new(5);
    for i in 1..5u32 {
        c.set(NodeId(i), Color(i - 1));
    }
    // Node 0 uncolored; its 4 neighbors block all 4 colors; K5 has no
    // degree-<Δ node and no DCC.
    let err =
        brooks::repair_single_uncolored(&g, &mut c, NodeId(0), 4, &mut RoundLedger::new(), "r");
    assert!(matches!(err, Err(ColoringError::Unsolvable { .. })));
}

#[test]
fn repair_on_odd_cycle_reports_unsolvable() {
    let g = generators::cycle(9);
    let mut c = PartialColoring::new(9);
    for i in 1..9u32 {
        c.set(NodeId(i), Color(i % 2));
    }
    let err =
        brooks::repair_single_uncolored(&g, &mut c, NodeId(0), 2, &mut RoundLedger::new(), "r");
    assert!(err.is_err());
}

#[test]
fn unsolvable_list_instances_error_not_panic() {
    // Identical singleton lists on a clique.
    let g = generators::complete(4);
    let lists = Lists::new(vec![vec![Color(0)]; 4]);
    for method in [ListColorMethod::Randomized, ListColorMethod::Deterministic] {
        let r = list_coloring::list_color(
            &g,
            &lists,
            PartialColoring::new(4),
            method,
            1,
            &mut RoundLedger::new(),
            "lc",
        );
        assert!(matches!(r, Err(ColoringError::Unsolvable { .. })));
    }
}

#[test]
fn degree_list_solver_rejects_gallai_blocks_with_canonical_lists() {
    for (g, _) in [
        (generators::complete(5), "K5"),
        (generators::cycle(7), "C7"),
        (generators::cycle(3), "K3"),
    ] {
        let lists = gallai::tight_identical_lists(&g);
        assert!(gallai::solve_degree_list(&g, &lists, &PartialColoring::new(g.n())).is_err());
    }
}

#[test]
fn adversarial_precoloring_respected_or_rejected() {
    // Fix colors that force the solver into a corner: C6 with alternate
    // nodes pinned to the same color is still completable; pinning two
    // adjacent nodes to one color must be detected by validation.
    let g = generators::cycle(6);
    let mut fixed = PartialColoring::new(6);
    fixed.set(NodeId(0), Color(0));
    fixed.set(NodeId(2), Color(0));
    fixed.set(NodeId(4), Color(0));
    let lists = Lists::uniform(6, 2);
    let solved = gallai::solve_degree_list(&g, &lists, &fixed).unwrap();
    solved.validate_proper(&g).unwrap();
    assert_eq!(solved.get(NodeId(0)), Some(Color(0)));

    let mut bad = PartialColoring::new(6);
    bad.set(NodeId(0), Color(1));
    bad.set(NodeId(1), Color(1));
    assert!(bad.validate_proper(&g).is_err());
}

#[test]
fn marking_with_extreme_parameters_stays_sound() {
    let g = generators::random_regular(300, 4, 5);
    for (p, b) in [(0.0, 6), (1.0, 0), (1.0, 50), (0.5, 1)] {
        let mut coloring = PartialColoring::new(g.n());
        let mut ledger = RoundLedger::new();
        let out = delta_coloring::marking::marking_process(
            &g,
            None,
            MarkingParams { p, b },
            3,
            &mut coloring,
            &mut ledger,
            "m",
        );
        assert!(delta_coloring::marking::check_marking(&g, &out, b));
        coloring.validate_proper(&g).unwrap();
    }
}

#[test]
fn rand_config_with_zero_detect_radius_still_colors() {
    // Disabling DCC removal entirely must still converge (shattering or
    // fallback paths take over).
    let g = generators::random_regular(400, 4, 8);
    let mut cfg = RandConfig::large_delta(&g, 2);
    cfg.r_detect = 0;
    let mut ledger = RoundLedger::new();
    let (c, _) = delta_color_rand(&g, cfg, &mut ledger).unwrap();
    delta_coloring::verify::check_delta_coloring(&g, &c).unwrap();
}

#[test]
fn rand_with_hostile_marking_parameters_still_colors() {
    let g = generators::random_regular(400, 4, 9);
    for (p, b) in [(0.9, 6), (1e-9, 6), (0.3, 1)] {
        let mut cfg = RandConfig::large_delta(&g, 4);
        cfg.marking = MarkingParams { p, b };
        let mut ledger = RoundLedger::new();
        let (c, _) =
            delta_color_rand(&g, cfg, &mut ledger).unwrap_or_else(|e| panic!("p={p} b={b}: {e}"));
        delta_coloring::verify::check_delta_coloring(&g, &c).unwrap();
    }
}

#[test]
fn verifier_catches_planted_violations() {
    let g = generators::torus(6, 6);
    let cfg = RandConfig::large_delta(&g, 1);
    let mut ledger = RoundLedger::new();
    let (mut c, _) = delta_color_rand(&g, cfg, &mut ledger).unwrap();
    // Plant a palette violation.
    c.set(NodeId(0), Color(99));
    assert!(delta_coloring::verify::check_delta_coloring(&g, &c).is_err());
    // Plant a monochromatic edge.
    let (u, v) = g.edges().next().unwrap();
    let cu = c.get(u);
    c.set(NodeId(0), Color(0));
    c.set(v, cu.unwrap_or(Color(0)));
    c.set(u, cu.unwrap_or(Color(0)));
    assert!(delta_coloring::verify::check_delta_coloring(&g, &c).is_err());
    // Plant an uncolored node.
    c.unset(NodeId(5));
    assert!(delta_coloring::verify::check_delta_coloring(&g, &c).is_err());
}
