//! Self-healing under injected faults: after any single-round fault
//! burst, [`repair_region`] restores a valid Δ-coloring, and it does so
//! *deterministically* — identical damage yields identical post-repair
//! colorings and reports under both [`ExecMode`]s (the repair's ball
//! probes run engine-backed, so this pins the whole detection + healing
//! path, not just the arithmetic).

use delta_coloring::brooks::brooks_color;
use delta_coloring::palette::{Color, PartialColoring};
use delta_coloring::repair::{repair_region, RepairReport};
use delta_coloring::verify::{check_delta_coloring, violations};
use delta_graphs::{generators, Graph, NodeId};
use local_model::{
    force_exec_mode, Engine, ExecMode, FaultPlan, FaultyDriver, Outbox, RoundDriver, RoundLedger,
};
use proptest::prelude::*;

/// Applies a seeded single-round fault burst to a valid Δ-coloring:
/// each damage site either loses its color (a crashed node rebooting),
/// gets an out-of-palette color (a corrupted payload written back), or
/// copies a neighbor's color (a stale update applied after a drop).
fn damage(g: &Graph, c: &mut PartialColoring, sites: &[(u32, u8)]) {
    for &(raw, action) in sites {
        let v = NodeId(raw % g.n() as u32);
        match action % 3 {
            0 => c.unset(v),
            1 => c.set(v, Color(g.max_degree() as u32 + 1 + raw % 7)),
            _ => {
                if let Some(cw) = g.neighbors(v).first().and_then(|&w| c.get(w)) {
                    c.set(v, cw);
                }
            }
        }
    }
}

fn repair_under(
    mode: ExecMode,
    g: &Graph,
    base: &PartialColoring,
    sites: &[(u32, u8)],
) -> (PartialColoring, RepairReport, u64) {
    let _guard = force_exec_mode(mode);
    let mut c = base.clone();
    damage(g, &mut c, sites);
    let mut ledger = RoundLedger::new();
    let report = repair_region(g, &mut c, g.max_degree(), &mut ledger, "repair")
        .expect("nice graph: repair cannot fail");
    (c, report, ledger.total())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn repair_restores_validity_deterministically(
        graph_seed in 0u64..10,
        sites in proptest::collection::vec((0u32..1 << 16, 0u8..255), 1..8),
    ) {
        let g = generators::random_regular(72, 4, graph_seed);
        let base = brooks_color(&g, 4).expect("nice 4-regular graph");
        let seq = repair_under(ExecMode::Sequential, &g, &base, &sites);
        let par = repair_under(ExecMode::Parallel, &g, &base, &sites);
        prop_assert!(check_delta_coloring(&g, &seq.0).is_ok(), "repair left damage");
        prop_assert_eq!(&seq, &par, "repair diverged across exec modes");
        let report = seq.1;
        prop_assert_eq!(seq.2, report.rounds_to_recover);
        prop_assert!(
            report.colors_changed == 0 || report.repairs > 0,
            "colors changed without any repair running"
        );
    }
}

#[test]
fn faulty_maintenance_round_is_detected_and_healed() {
    // End-to-end: a real engine program runs one maintenance round
    // under heavy message drops, nodes re-pick colors based on an
    // incomplete view, and the damaged coloring is healed in place.
    //
    // The program: every node broadcasts its color; a node on duty this
    // round (color ≡ round mod palette) re-picks the smallest color it
    // did not hear. Fault-free, a duty class is an independent set, so
    // re-picks never collide; under drops a node can re-pick a color an
    // unheard neighbor holds.
    let g = generators::random_regular(96, 4, 11);
    let delta = 4;
    let base = brooks_color(&g, delta).expect("nice 4-regular graph");
    let plan = FaultPlan::new(77).with_drops(400_000);
    let mut drv = FaultyDriver::new(Engine::new(&g, 0, |v| base.get(v).unwrap().0), plan);
    let mut ledger = RoundLedger::new();
    for round in 0..delta as u32 {
        drv.round_step(
            &mut ledger,
            "maintain",
            |_, &mut s, out: &mut Outbox<u32>| out.broadcast(s),
            move |_, s, inbox| {
                if *s % delta as u32 == round {
                    let heard: Vec<u32> = inbox.iter().map(|&(_, m)| m).collect();
                    *s = (0..).find(|c| !heard.contains(c)).unwrap();
                }
            },
        );
    }
    assert!(ledger.faults().dropped > 0, "plan injected nothing");
    let mut after = PartialColoring::new(g.n());
    for (i, &s) in drv.node_states().iter().enumerate() {
        after.set(NodeId::from_index(i), Color(s));
    }
    let damage_report = violations(&g, &after, delta);
    assert!(
        !damage_report.is_clean(),
        "40 % drops over {} rounds caused no damage — pick another seed",
        delta
    );
    let report = repair_region(&g, &mut after, delta, &mut ledger, "repair").unwrap();
    assert!(check_delta_coloring(&g, &after).is_ok());
    assert!(report.repairs > 0);
    assert!(report.rounds_to_recover >= 1);
}

#[test]
fn fault_free_maintenance_never_needs_repair() {
    // The control arm of the test above: with a zero plan the duty-class
    // schedule keeps the coloring proper, so detection finds nothing.
    let g = generators::random_regular(96, 4, 11);
    let delta = 4;
    let base = brooks_color(&g, delta).expect("nice 4-regular graph");
    let mut drv = FaultyDriver::new(
        Engine::new(&g, 0, |v| base.get(v).unwrap().0),
        FaultPlan::none(),
    );
    let mut ledger = RoundLedger::new();
    for round in 0..delta as u32 {
        drv.round_step(
            &mut ledger,
            "maintain",
            |_, &mut s, out: &mut Outbox<u32>| out.broadcast(s),
            move |_, s, inbox| {
                if *s % delta as u32 == round {
                    let heard: Vec<u32> = inbox.iter().map(|&(_, m)| m).collect();
                    *s = (0..).find(|c| !heard.contains(c)).unwrap();
                }
            },
        );
    }
    let mut after = PartialColoring::new(g.n());
    for (i, &s) in drv.node_states().iter().enumerate() {
        after.set(NodeId::from_index(i), Color(s));
    }
    assert!(violations(&g, &after, delta).is_clean());
}
