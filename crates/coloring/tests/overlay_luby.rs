//! Luby MIS on the virtual-topology overlay must be decision-for-
//! decision equal to the materialized power-graph run it replaced.
//!
//! `luby_mis_on_power` executes on the `G^k` overlay (k measured relay
//! rounds per virtual round, nothing materialized); `power_graph` is
//! kept exactly for this comparison: same seed ⇒ same membership mask,
//! `k ×` the round charge, under **both** execution schedules.

use delta_coloring::mis::{is_mis, luby_mis, luby_mis_on_power};
use delta_graphs::power::power_graph;
use delta_graphs::Graph;
use local_model::{force_exec_mode, ExecMode, RoundLedger};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..48).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n).prop_map(move |pairs| {
            let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|&(a, b)| a != b).collect();
            Graph::from_edges(n, &edges).expect("valid")
        })
    })
}

fn under_both_modes<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
    let seq = {
        let _g = force_exec_mode(ExecMode::Sequential);
        f()
    };
    let par = {
        let _g = force_exec_mode(ExecMode::Parallel);
        f()
    };
    assert_eq!(seq, par, "schedules diverged");
    seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn overlay_luby_equals_materialized_power_graph_luby(
        g in arb_graph(),
        k in 2usize..5,
        seed in 0u64..1000,
    ) {
        let (overlay_mask, overlay_rounds, overlay_bits) = under_both_modes(|| {
            let mut ledger = RoundLedger::new();
            let mask = luby_mis_on_power(&g, k, seed, &mut ledger, "mis");
            (mask, ledger.total(), ledger.bits_sent())
        });
        let (mat_mask, mat_rounds) = under_both_modes(|| {
            let gk = power_graph(&g, k);
            let mut ledger = RoundLedger::new();
            let mask = luby_mis(&gk, seed, &mut ledger, "mis");
            (mask, ledger.total())
        });
        prop_assert_eq!(&overlay_mask, &mat_mask, "MIS decisions diverged");
        prop_assert_eq!(overlay_rounds, mat_rounds * k as u64, "dilation charge");
        prop_assert!(is_mis(&power_graph(&g, k), &overlay_mask));
        if power_graph(&g, k).m() > 0 {
            prop_assert!(overlay_bits > 0, "relay rounds must be measured");
        }
    }
}
