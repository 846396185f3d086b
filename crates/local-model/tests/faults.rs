//! Behavioral and determinism guarantees of the fault-injection layer.
//!
//! * An all-zero [`FaultPlan`] is a perfect pass-through: states, stats,
//!   and the ledger are bit-identical to an unwrapped run.
//! * A nonzero plan replays bit-identically across [`ExecMode`]s: same
//!   fault transcript, same ledger fault totals, same post-fault states
//!   — on the host engine and on a `G^k` overlay alike (the
//!   chunk-ordered routing argument extended to injected faults).
//! * Each fault kind does what the model says: drop-all silences the
//!   network, duplicate-all doubles every delivery without charging
//!   bits, crash windows freeze state, and [`Engine::try_step`] reports
//!   invalid directed sends as a typed [`EngineError`] instead of a
//!   debug panic.

use delta_graphs::{generators, NodeId};
use local_model::{
    Engine, EngineError, ExecMode, FaultKind, FaultPlan, FaultyDriver, Outbox, OverlayEngine,
    PowerOverlay, RoundDriver, RoundLedger, PPM,
};

/// Runs `rounds` of min-id flooding through `driver`, returning the
/// final states and the ledger.
fn flood_min<D: RoundDriver<u32>>(driver: &mut D, rounds: usize) -> (Vec<u32>, RoundLedger) {
    let mut ledger = RoundLedger::new();
    for _ in 0..rounds {
        driver.round_step(
            &mut ledger,
            "flood",
            |_, &mut s, out: &mut Outbox<u32>| out.broadcast(s),
            |_, s, inbox| {
                for &(_, m) in inbox {
                    *s = (*s).min(m);
                }
            },
        );
    }
    (driver.node_states().to_vec(), ledger.clone())
}

#[test]
fn zero_plan_is_a_perfect_pass_through() {
    let g = generators::torus(8, 8);
    let mut plain = Engine::new(&g, 42, |v| v.0);
    let (states_plain, ledger_plain) = flood_min(&mut plain, 6);
    let mut wrapped = FaultyDriver::new(Engine::new(&g, 42, |v| v.0), FaultPlan::none());
    let (states_wrapped, ledger_wrapped) = flood_min(&mut wrapped, 6);
    assert_eq!(states_plain, states_wrapped);
    assert_eq!(plain.message_stats(), wrapped.inner().message_stats());
    assert_eq!(ledger_plain.total(), ledger_wrapped.total());
    assert_eq!(ledger_plain.bits_sent(), ledger_wrapped.bits_sent());
    assert_eq!(ledger_wrapped.faults(), Default::default());
    assert!(wrapped.transcript().is_empty());
}

fn mixed_plan() -> FaultPlan {
    FaultPlan::new(2024)
        .with_drops(120_000)
        .with_duplicates(80_000)
        .with_corruption(60_000)
        .with_crashes(15_000, 2)
        .with_crash_window(5, 1, 3)
}

#[test]
fn fault_transcripts_are_bit_identical_across_exec_modes() {
    let g = generators::random_regular(120, 4, 7);
    let mut runs = Vec::new();
    for mode in [ExecMode::Sequential, ExecMode::Parallel] {
        let engine = Engine::new(&g, 9, |v| v.0).with_mode(mode);
        let mut drv = FaultyDriver::new(engine, mixed_plan());
        let (states, ledger) = flood_min(&mut drv, 8);
        runs.push((
            states,
            drv.transcript().to_vec(),
            ledger.faults(),
            ledger.total(),
            ledger.bits_sent(),
        ));
    }
    assert_eq!(runs[0], runs[1], "sequential vs parallel diverged");
    let (_, transcript, counters, ..) = &runs[0];
    assert!(!transcript.is_empty(), "plan injected nothing");
    // The transcript is canonically ordered and consistent with the
    // ledger's fault totals.
    assert!(transcript.windows(2).all(|w| w[0] <= w[1]));
    let of = |k: FaultKind| transcript.iter().filter(|e| e.kind == k).count() as u64;
    assert_eq!(of(FaultKind::Drop), counters.dropped);
    assert_eq!(of(FaultKind::Duplicate), counters.duplicated);
    assert_eq!(
        of(FaultKind::Corrupt) + of(FaultKind::CorruptLost),
        counters.corrupted
    );
    assert_eq!(of(FaultKind::Crash), counters.crashed_rounds);
}

#[test]
fn overlay_faults_are_bit_identical_across_exec_modes() {
    // Faults on G^2 are decided at the virtual level: one virtual
    // delivery is one fault unit regardless of relay hops.
    let g = generators::torus(6, 6);
    let mut runs = Vec::new();
    for mode in [ExecMode::Sequential, ExecMode::Parallel] {
        let overlay = OverlayEngine::new(&g, PowerOverlay { k: 2 }, 3, |v| v.0).with_mode(mode);
        let mut drv = FaultyDriver::new(overlay, mixed_plan());
        let (states, ledger) = flood_min(&mut drv, 4);
        runs.push((
            states,
            drv.transcript().to_vec(),
            ledger.faults(),
            ledger.total(),
        ));
    }
    assert_eq!(runs[0], runs[1], "overlay sequential vs parallel diverged");
    assert!(
        !runs[0].1.is_empty(),
        "plan injected nothing on the overlay"
    );
}

#[test]
fn drop_everything_silences_the_network() {
    let g = generators::cycle(16);
    let plan = FaultPlan::new(1).with_drops(PPM);
    let mut drv = FaultyDriver::new(Engine::new(&g, 0, |v| v.0), plan);
    let (states, ledger) = flood_min(&mut drv, 3);
    assert!(
        states.iter().enumerate().all(|(i, &s)| s == i as u32),
        "a delivery got through"
    );
    // 16 nodes × 2 neighbors × 3 rounds, all dropped — and the sender's
    // bits are still charged (the loss happens after transmission).
    assert_eq!(ledger.faults().dropped, 96);
    assert!(ledger.bits_sent() > 0);
}

#[test]
fn duplicates_double_deliveries_without_charging_bits() {
    let g = generators::cycle(10);
    let plan = FaultPlan::new(4).with_duplicates(PPM);
    let mut drv = FaultyDriver::new(Engine::new(&g, 0, |_| 0u64), plan);
    let mut ledger = RoundLedger::new();
    drv.round_step(
        &mut ledger,
        "count",
        |_, _, out: &mut Outbox<u32>| out.broadcast(1),
        |_, s, inbox| *s = inbox.len() as u64,
    );
    assert!(
        drv.node_states().iter().all(|&c| c == 4),
        "each node should see its 2 deliveries twice"
    );
    assert_eq!(ledger.faults().duplicated, 20);
    // Bits match a fault-free broadcast round: duplicates are spurious
    // receives, not second transmissions.
    let mut clean = Engine::new(&g, 0, |_| 0u64);
    let mut clean_ledger = RoundLedger::new();
    clean.step(
        &mut clean_ledger,
        "count",
        |_, _, out: &mut Outbox<u32>| out.broadcast(1),
        |_, s, inbox| *s = inbox.len() as u64,
    );
    assert_eq!(ledger.bits_sent(), clean_ledger.bits_sent());
}

#[test]
fn crash_window_freezes_state_and_resumes() {
    let g = generators::cycle(8);
    // Node 3 is down for rounds 0 and 1 of a 3-round flood.
    let plan = FaultPlan::new(0).with_crash_window(3, 0, 2);
    let mut drv = FaultyDriver::new(Engine::new(&g, 0, |v| v.0 + 100), plan);
    let mut states_per_round = Vec::new();
    let mut ledger = RoundLedger::new();
    for _ in 0..3 {
        drv.round_step(
            &mut ledger,
            "flood",
            |_, &mut s, out: &mut Outbox<u32>| out.broadcast(s),
            |_, s, inbox| {
                for &(_, m) in inbox {
                    *s = (*s).min(m);
                }
            },
        );
        states_per_round.push(drv.node_states().to_vec());
    }
    // While down, node 3 kept its initial state; after recovery it
    // caught up from its neighbors.
    assert_eq!(states_per_round[0][3], 103);
    assert_eq!(states_per_round[1][3], 103);
    assert!(states_per_round[2][3] < 103, "node 3 never recovered");
    assert_eq!(ledger.faults().crashed_rounds, 2);
}

#[test]
fn try_step_reports_invalid_directed_target() {
    let g = generators::path(4); // 0-1-2-3: nodes 0 and 3 not adjacent
    let mut engine = Engine::new(&g, 0, |_| ());
    let mut ledger = RoundLedger::new();
    let err = engine
        .try_step(
            &mut ledger,
            "bad",
            |ctx, _, out: &mut Outbox<u32>| {
                if ctx.id == NodeId(0) {
                    out.send_to(NodeId(3), 7);
                }
            },
            |_, _, _| {},
        )
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::InvalidDirectedTarget {
            from: NodeId(0),
            to: NodeId(3),
        }
    );
    // The round itself still completed: the bad message was discarded,
    // everything else ran.
    assert_eq!(engine.rounds_run(), 1);
    assert_eq!(ledger.total(), 1);
    // A clean round on the same engine succeeds.
    assert!(engine
        .try_step(
            &mut ledger,
            "good",
            |_, _, out: &mut Outbox<u32>| out.broadcast(1),
            |_, _, _| {},
        )
        .is_ok());
}
