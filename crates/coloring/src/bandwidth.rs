//! CONGEST-feasibility classification of every protocol substrate,
//! plus how each substrate *executes* — through the engine (rounds and
//! per-edge bits measured) or as a charged central simulation.
//!
//! The paper's algorithms are stated in the LOCAL model (unbounded
//! messages); the interesting scalability question is which substrates
//! already fit the CONGEST regime of `O(log n)` bits per edge per
//! round (the KMW lower-bound setting). Every message a substrate
//! sends implements [`WireCodec`]; this module evaluates each such
//! type's [`WireCodec::max_bits`] bound against the operational budget
//! [`local_model::congest_budget`] (`16·⌈log₂ n⌉` bits) and labels the
//! substrate (the headline drivers send nothing of their own and
//! inherit the verdict of their unbounded phases):
//!
//! * [`BandwidthClass::Congest`] — every message fits the budget: the
//!   substrate would run unchanged under CONGEST;
//! * [`BandwidthClass::LocalOnly`] — some message family is unbounded
//!   (ball relays, floods) or over budget: a CONGEST port would need
//!   message splitting over extra rounds.
//!
//! Orthogonally, [`Measurement`] records whether the substrate's
//! rounds actually run through [`local_model::Engine::step`] — in
//! which case its bandwidth numbers in the experiment tables are
//! **measured** wire-exact loads, not static estimates. Since the
//! ball-collection subsystem landed ([`local_model::ball`]), the
//! ruling-set, marking, and DCC-detection phases execute
//! engine-backed; only the centrally simulated remainders (power-graph
//! Luby, layer BFS waves, MPX decomposition, the Brooks token walk and
//! its deep probes) still charge estimated rounds.
//!
//! [`Execution`] answers the CONGEST question operationally, now that
//! [`local_model::congest`] exists: every engine-backed substrate
//! constructs its driver through [`local_model::compile`], so under an
//! [`local_model::enforce_congest`] guard its rounds run **enforced** —
//! oversized payloads fragmented into budget-sized chunks over honest
//! dilated wire rounds ([`Execution::CongestEnforced`]); substrates
//! whose wire format already fits the budget run under the same guard
//! without dilation ([`Execution::CongestFeasible`]); only the
//! overlay/shard materialization layers themselves — whose envelopes
//! *are* the relay mechanism — stay LOCAL-level accounting
//! ([`Execution::Local`]).
//!
//! Each row also says what the substrate emits into an attached trace
//! ([`local_model::Tracer`]): engine-backed rounds produce enriched
//! round records (wall time, delivery counts, inbox peaks); central
//! simulations produce bare charged records; the overlay substrates
//! additionally emit **level-tagged virtual-round records** (`G^k` /
//! `G[S]`) distinguishing a virtual round from the host relay rounds it
//! compiles to, and the sharded boundary adds per-shard block/bit
//! columns to every round record.
//!
//! The experiments binary prints this table next to the *measured*
//! per-edge loads the engine accounts at run time
//! ([`local_model::MessageStats`]).

use crate::decomp::DecompMsg;
use crate::gallai::GallaiMsg;
use crate::layering::LayerMsg;
use crate::linial::LinialMsg;
use crate::list_coloring::LcMsg;
use crate::mis::MisMsg;
use crate::reduce::ReduceMsg;
use crate::ruling::RulingMsg;
use local_model::{
    congest_budget, BallMsg, CenterMsg, OverlayEnvelope, OverlayRelay, ReachMsg, RelayItem,
    WireCodec, WireParams,
};

/// Which bandwidth regime a substrate's wire format fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandwidthClass {
    /// Every message fits the `O(log n)` per-edge-per-round budget.
    Congest,
    /// Unbounded (or over-budget) messages: LOCAL-model only.
    LocalOnly,
}

impl std::fmt::Display for BandwidthClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BandwidthClass::Congest => write!(f, "CONGEST(O(log n))"),
            BandwidthClass::LocalOnly => write!(f, "LOCAL-only"),
        }
    }
}

/// How a substrate's round/bit numbers are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measurement {
    /// Every round runs through [`local_model::Engine::step`]: round
    /// counts and per-edge bit loads are measured, wire-exact.
    Engine,
    /// Some phases run engine-backed (measured), the rest are charged
    /// central simulations.
    Mixed,
    /// Centrally simulated with explicit round charges; bandwidth
    /// numbers are declared bounds, not measurements.
    Central,
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Measurement::Engine => write!(f, "engine (measured)"),
            Measurement::Mixed => write!(f, "mixed"),
            Measurement::Central => write!(f, "central (charged)"),
        }
    }
}

/// How a substrate behaves under a [`local_model::enforce_congest`]
/// guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// The substrate *is* a LOCAL-level materialization mechanism
    /// (overlay relay envelopes, sharded boundary blocks): its traffic
    /// is the compiled form of some virtual round, accounted at its
    /// own level, not budget-enforced itself.
    Local,
    /// Engine-backed rounds constructed through
    /// [`local_model::compile`] with an over-budget wire format: under
    /// enforcement, payloads fragment into budget-sized chunks over
    /// dilated honest wire rounds, and the run completes with zero
    /// `congest_violations`.
    CongestEnforced,
    /// Wire format already fits [`congest_budget`]: the substrate runs
    /// under enforcement unchanged (dilation factor 1).
    CongestFeasible,
}

impl std::fmt::Display for Execution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Execution::Local => write!(f, "local"),
            Execution::CongestEnforced => write!(f, "congest-enforced"),
            Execution::CongestFeasible => write!(f, "congest-feasible"),
        }
    }
}

/// One substrate's classification at concrete graph parameters.
#[derive(Debug, Clone)]
pub struct SubstrateBandwidth {
    /// Substrate (module) name.
    pub name: &'static str,
    /// Message type name.
    pub message: &'static str,
    /// `max_bits` at the given parameters; `None` = unbounded.
    pub max_bits: Option<u64>,
    /// The verdict against [`congest_budget`].
    pub class: BandwidthClass,
    /// How the substrate's rounds are measured (engine vs charged).
    pub measurement: Measurement,
    /// How the substrate behaves under CONGEST enforcement.
    pub execution: Execution,
    /// What the substrate emits into an attached trace
    /// ([`local_model::Tracer`]): derived from [`Measurement`] by
    /// default; the overlay substrates override it with their
    /// level-tagged virtual-round streams and the sharded boundary
    /// with its per-shard round columns.
    pub trace: &'static str,
    /// Why (one line).
    pub note: &'static str,
}

/// The default trace emission for a measurement style: engine rounds
/// produce enriched round records, central simulations bare charges.
fn default_trace(measurement: Measurement) -> &'static str {
    match measurement {
        Measurement::Engine => "rounds",
        Measurement::Mixed => "rounds+charges",
        Measurement::Central => "charges",
    }
}

/// Overrides the trace column for substrates whose streams carry more
/// than the measurement default (level tags, per-shard columns).
fn with_trace(mut r: SubstrateBandwidth, trace: &'static str) -> SubstrateBandwidth {
    r.trace = trace;
    r
}

/// Overrides the execution column for the materialization-layer rows
/// (relay envelopes, boundary blocks) that are never budget-enforced
/// themselves.
fn local_level(mut r: SubstrateBandwidth) -> SubstrateBandwidth {
    r.execution = Execution::Local;
    r
}

fn row<M: WireCodec>(
    name: &'static str,
    message: &'static str,
    p: &WireParams,
    measurement: Measurement,
    note: &'static str,
) -> SubstrateBandwidth {
    let max_bits = M::max_bits(p);
    let class = match max_bits {
        Some(b) if b <= congest_budget(p.n) => BandwidthClass::Congest,
        _ => BandwidthClass::LocalOnly,
    };
    // Every protocol substrate builds its drivers through
    // `local_model::compile`, so a within-budget format runs under
    // enforcement unchanged and an over-budget one runs fragmented;
    // only the materialization layers override this to `Local`.
    let execution = match class {
        BandwidthClass::Congest => Execution::CongestFeasible,
        BandwidthClass::LocalOnly => Execution::CongestEnforced,
    };
    SubstrateBandwidth {
        name,
        message,
        max_bits,
        class,
        measurement,
        execution,
        trace: default_trace(measurement),
        note,
    }
}

/// A headline driver's row. A driver sends no message type of its own:
/// it runs the substrates above, some of them unbounded, so it is
/// LOCAL-only, mixed, and runs fragmented under enforcement.
fn driver_row(name: &'static str, note: &'static str) -> SubstrateBandwidth {
    SubstrateBandwidth {
        name,
        message: "(phases above)",
        max_bits: None,
        class: BandwidthClass::LocalOnly,
        measurement: Measurement::Mixed,
        execution: Execution::CongestEnforced,
        trace: default_trace(Measurement::Mixed),
        note,
    }
}

/// Classifies every protocol substrate at the given graph parameters.
/// Rows are ordered roughly bottom-up: the ball-collection subsystem
/// and the primitives first, the headline drivers last.
pub fn classify(p: &WireParams) -> Vec<SubstrateBandwidth> {
    // Color-class reduction consumes Linial's O(Δ²) coloring, so its
    // palette is the Linial bound, not Δ+1.
    let reduce_params =
        p.with_palette(crate::linial::linial_color_bound(p.max_degree as usize) as u64);
    vec![
        row::<BallMsg<()>>(
            "ball/collect",
            "BallMsg",
            p,
            Measurement::Engine,
            "radius-r certificate flood: Theta(Delta^r) adjacency lists",
        ),
        row::<ReachMsg<()>>(
            "ball/reach",
            "ReachMsg",
            p,
            Measurement::Engine,
            "membership flood: batches every source crossing an edge",
        ),
        row::<RelayItem<()>>(
            "overlay/relay-item",
            "RelayItem",
            p,
            Measurement::Engine,
            "per relayed source: origin id + hop TTL + payload",
        ),
        local_level(with_trace(
            row::<OverlayRelay<()>>(
                "overlay/relay",
                "OverlayRelay",
                p,
                Measurement::Engine,
                "G^k round compiled to k relay rounds: batches Theta(Delta^(k-1)) items",
            ),
            "rounds+vrounds(G^k)",
        )),
        local_level(with_trace(
            row::<OverlayEnvelope<()>>(
                "overlay/induced",
                "OverlayEnvelope",
                p,
                Measurement::Engine,
                "G[S] round on the host edge: bcast + unbounded directed list",
            ),
            "rounds+vrounds(G[S])",
        )),
        // The sharded engine's boundary block is not a per-edge message
        // but the batched shard-pair envelope (gamma section counts,
        // gamma-coded sender/arc offsets, payloads), so it has no
        // per-message bound; its realized wire bits are metered per
        // block by `BoundaryStats`.
        SubstrateBandwidth {
            name: "shard/boundary",
            message: "BoundaryBlock",
            max_bits: None,
            class: BandwidthClass::LocalOnly,
            measurement: Measurement::Engine,
            execution: Execution::Local,
            trace: "rounds+shard-cols",
            note: "batched block per shard pair per round: all cross-shard traffic, wire-exact",
        },
        row::<LinialMsg>(
            "linial",
            "LinialMsg",
            p,
            Measurement::Engine,
            "one gamma-coded color < max(n, q0^2)",
        ),
        row::<ReduceMsg>(
            "reduce",
            "ReduceMsg",
            &reduce_params,
            Measurement::Engine,
            "one gamma-coded color < Linial bound",
        ),
        row::<MisMsg>(
            "mis",
            "MisMsg",
            p,
            Measurement::Engine,
            "n^3-domain draw + id tiebreak",
        ),
        row::<LcMsg>(
            "list_coloring",
            "LcMsg",
            p,
            Measurement::Engine,
            "tag + gamma-coded color",
        ),
        row::<ReachMsg<()>>(
            "marking",
            "ReachMsg + MkMsg",
            p,
            Measurement::Engine,
            "backoff reach-flood of Theta(Delta^b) ids; picks via 2-balls",
        ),
        row::<RulingMsg>(
            "ruling",
            "RulingMsg",
            p,
            Measurement::Engine,
            "bit-halving reach-floods + Luby on the G^k overlay, both measured",
        ),
        row::<GallaiMsg>(
            "gallai",
            "GallaiMsg",
            p,
            Measurement::Engine,
            "DCC detection collects radius-r balls: Theta(Delta^r) edges",
        ),
        row::<CenterMsg>(
            "brooks",
            "CenterMsg",
            p,
            Measurement::Mixed,
            "first probe is an engine 2-ball; deep probes + walk central",
        ),
        row::<CenterMsg>(
            "repair",
            "Color + CenterMsg",
            p,
            Measurement::Mixed,
            "detection exchanges colors; healing inherits the Brooks ball probes",
        ),
        row::<LayerMsg>(
            "layering",
            "LayerMsg",
            p,
            Measurement::Mixed,
            "todo-subgraph coloring on the induced overlay; BFS waves central",
        ),
        row::<DecompMsg>(
            "decomp",
            "DecompMsg",
            p,
            Measurement::Central,
            "fixed-point key + gamma-coded center",
        ),
        driver_row("delta/rand", "inherits DCC detection + marking flood"),
        driver_row("delta/det", "inherits power-graph ruling + repairs"),
        driver_row("delta/netdecomp", "inherits separation blocking + repairs"),
        driver_row("delta/slocal", "repairs rewrite whole balls"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marking::MkMsg;

    fn classes_at(n: u64, delta: u64) -> Vec<(&'static str, BandwidthClass)> {
        let p = WireParams {
            n,
            max_degree: delta,
            palette: delta + 1,
        };
        classify(&p)
            .into_iter()
            .map(|r| (r.name, r.class))
            .collect()
    }

    #[test]
    fn substrates_split_as_documented() {
        for (n, delta) in [(1 << 10, 4), (1 << 14, 4), (1 << 20, 8), (1 << 14, 16)] {
            let classes = classes_at(n, delta);
            let class_of = |name: &str| {
                classes
                    .iter()
                    .find(|(r, _)| *r == name)
                    .map(|&(_, c)| c)
                    .expect("registered substrate")
            };
            // CONGEST-feasible primitives (the overlay relay's per-item
            // envelope is bounded; its batched relays are not).
            for name in [
                "linial",
                "reduce",
                "mis",
                "list_coloring",
                "layering",
                "decomp",
                "overlay/relay-item",
            ] {
                assert_eq!(
                    class_of(name),
                    BandwidthClass::Congest,
                    "{name} at n={n}, delta={delta}"
                );
            }
            // Unbounded wire formats: the ball-collection relays and
            // everything built on them.
            for name in [
                "ball/collect",
                "ball/reach",
                "overlay/relay",
                "overlay/induced",
                "marking",
                "ruling",
                "gallai",
                "brooks",
                "repair",
                "delta/rand",
                "delta/det",
                "delta/netdecomp",
                "delta/slocal",
            ] {
                assert_eq!(
                    class_of(name),
                    BandwidthClass::LocalOnly,
                    "{name} at n={n}, delta={delta}"
                );
            }
        }
    }

    #[test]
    fn registry_covers_all_twenty_one_substrates() {
        let p = WireParams {
            n: 1 << 12,
            max_degree: 4,
            palette: 5,
        };
        let rows = classify(&p);
        assert_eq!(rows.len(), 21);
        // Bounded rows really are within budget; unbounded rows say so.
        for r in &rows {
            match r.max_bits {
                Some(b) => assert!(
                    (r.class == BandwidthClass::Congest) == (b <= congest_budget(p.n)),
                    "{}: bound {b} vs budget {}",
                    r.name,
                    congest_budget(p.n)
                ),
                None => assert_eq!(r.class, BandwidthClass::LocalOnly, "{}", r.name),
            }
        }
    }

    #[test]
    fn engine_backed_substrates_are_labeled_measured() {
        let p = WireParams {
            n: 1 << 12,
            max_degree: 4,
            palette: 5,
        };
        let exec_of = |name: &str| {
            classify(&p)
                .into_iter()
                .find(|r| r.name == name)
                .map(|r| r.measurement)
                .expect("registered substrate")
        };
        // The ball subsystem and the virtual-topology overlay made
        // these phases real message-passing programs: their loads in
        // the experiment tables are measured. Since the overlay landed,
        // ruling (Luby on the G^k overlay) is fully engine-executed.
        for name in [
            "ball/collect",
            "ball/reach",
            "overlay/relay-item",
            "overlay/relay",
            "overlay/induced",
            "linial",
            "reduce",
            "mis",
            "list_coloring",
            "marking",
            "ruling",
            "gallai",
        ] {
            assert_eq!(exec_of(name), Measurement::Engine, "{name}");
        }
        // Layering's todo subgraphs now color through the induced
        // overlay, but its BFS layer waves stay charged central
        // simulations — mixed, like the drivers that inherit them.
        for name in ["layering", "brooks", "repair", "delta/rand", "delta/det"] {
            assert_eq!(exec_of(name), Measurement::Mixed, "{name}");
        }
        assert_eq!(exec_of("decomp"), Measurement::Central, "decomp");
    }

    #[test]
    fn execution_column_is_three_state_and_matches_enforcement() {
        let p = WireParams {
            n: 1 << 12,
            max_degree: 4,
            palette: 5,
        };
        let rows = classify(&p);
        let execution_of = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .map(|r| r.execution)
                .expect("registered substrate")
        };
        // Over-budget wire formats built through `local_model::compile`
        // run fragmented under an `enforce_congest` guard — including
        // the marking/ruling/gallai substrates and every headline
        // driver, which is what lets the Δ-coloring experiment finish
        // with zero congest_violations.
        for name in [
            "ball/collect",
            "ball/reach",
            "marking",
            "ruling",
            "gallai",
            "brooks",
            "repair",
            "delta/rand",
            "delta/det",
            "delta/netdecomp",
            "delta/slocal",
        ] {
            assert_eq!(execution_of(name), Execution::CongestEnforced, "{name}");
        }
        // Within-budget formats need no fragmentation: under the same
        // guard they run with dilation factor 1.
        for name in [
            "overlay/relay-item",
            "linial",
            "reduce",
            "mis",
            "list_coloring",
            "layering",
            "decomp",
        ] {
            assert_eq!(execution_of(name), Execution::CongestFeasible, "{name}");
        }
        // The materialization layers are the relay mechanism itself,
        // never budget-enforced.
        for name in ["overlay/relay", "overlay/induced", "shard/boundary"] {
            assert_eq!(execution_of(name), Execution::Local, "{name}");
        }
        // Every row carries some execution verdict (three-state, no
        // fourth option smuggled in through literals).
        assert_eq!(
            rows.len(),
            11 + 7 + 3,
            "execution partition covers the registry"
        );
    }

    #[test]
    fn trace_column_tags_the_level_emitters() {
        let p = WireParams {
            n: 1 << 12,
            max_degree: 4,
            palette: 5,
        };
        let trace_of = |name: &str| {
            classify(&p)
                .into_iter()
                .find(|r| r.name == name)
                .map(|r| r.trace)
                .expect("registered substrate")
        };
        // The overlay substrates emit level-tagged virtual-round
        // records; the sharded boundary adds per-shard columns; plain
        // engine substrates emit enriched round records; central
        // simulations only charged records.
        assert_eq!(trace_of("overlay/relay"), "rounds+vrounds(G^k)");
        assert_eq!(trace_of("overlay/induced"), "rounds+vrounds(G[S])");
        assert_eq!(trace_of("shard/boundary"), "rounds+shard-cols");
        assert_eq!(trace_of("linial"), "rounds");
        assert_eq!(trace_of("brooks"), "rounds+charges");
        assert_eq!(trace_of("decomp"), "charges");
    }

    #[test]
    fn bit_halving_ruling_case_is_congest_feasible() {
        // The alpha = 2 carve-out: candidate announcements alone fit.
        let p = WireParams {
            n: 1 << 16,
            max_degree: 4,
            palette: 5,
        };
        assert!(RulingMsg::candidate_max_bits(&p) <= congest_budget(p.n));
    }

    #[test]
    fn marking_control_messages_are_bounded() {
        // The propose/claim/accept placement rounds individually fit
        // CONGEST; the substrate is LOCAL-only because of the flood.
        let p = WireParams {
            n: 1 << 16,
            max_degree: 4,
            palette: 5,
        };
        assert!(MkMsg::max_bits(&p).unwrap() <= congest_budget(p.n));
    }
}
