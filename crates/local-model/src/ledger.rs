//! Round accounting for LOCAL-model executions.

use crate::faults::FaultCounters;
use crate::trace::{PhaseSpan, RoundMeta, RoundRecord, TraceHandle, TraceLine, VirtualRecord};
use std::collections::HashMap;
use std::fmt;

/// Accumulates the number of LOCAL rounds an execution costs, broken
/// down by named phase.
///
/// Primitives charge the rounds a real distributed execution would take:
/// one synchronous message exchange costs 1 round, collecting a
/// radius-`r` ball costs `r` rounds, one round on the power graph `G^k`
/// costs `k` rounds, and so on.
///
/// # Example
///
/// ```
/// use local_model::RoundLedger;
/// let mut ledger = RoundLedger::new();
/// ledger.charge("linial", 3);
/// ledger.charge("list-coloring", 7);
/// ledger.charge("linial", 1);
/// assert_eq!(ledger.total(), 11);
/// assert_eq!(ledger.phase_total("linial"), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundLedger {
    /// Per-phase totals in first-seen order, with `phase_idx` mapping
    /// phase name → index: `phase_total` / `by_phase` in O(1) / O(P).
    phase_totals: Vec<(String, u64)>,
    phase_idx: HashMap<String, usize>,
    total: u64,
    /// Total bits transmitted across all directed edges (CONGEST-style
    /// accounting; charged by the engine per round).
    bits_sent: u64,
    /// Maximum bits any single directed edge carried in one round.
    max_edge_bits: u64,
    /// Number of (edge, round) pairs that exceeded the engine's
    /// [`crate::BandwidthPolicy::Congest`] budget (0 under `Local`).
    congest_violations: u64,
    /// Faults injected while executions were charged here (filled by
    /// [`crate::FaultyDriver`]; all zero for fault-free runs).
    faults: FaultCounters,
    /// Trace attachment ([`crate::Tracer::attach`]): when set, every
    /// charge is mirrored into the trace event stream. `None` (the
    /// default) costs one branch per charge and never allocates.
    pub(crate) trace: Option<TraceHandle>,
}

impl RoundLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `rounds` LOCAL rounds to `phase`.
    pub fn charge(&mut self, phase: &str, rounds: u64) {
        if rounds == 0 {
            return;
        }
        self.count(phase, rounds);
        if let Some(t) = &self.trace {
            t.on_round(RoundRecord {
                phase: phase.to_string(),
                rounds,
                ..RoundRecord::default()
            });
        }
    }

    /// Charges one engine round to `phase` with its bandwidth: total
    /// bits transmitted, the heaviest per-edge load, and any
    /// CONGEST-budget violations. With a trace attached, the engine's
    /// `meta` rides on the round's record; engines build it only when
    /// [`RoundLedger::tracing`] and pass `None` otherwise, so the
    /// untraced path allocates nothing.
    pub fn charge_round(
        &mut self,
        phase: &str,
        bits: u64,
        max_edge_bits: u64,
        violations: u64,
        meta: Option<RoundMeta>,
    ) {
        self.count(phase, 1);
        self.bits_sent += bits;
        self.max_edge_bits = self.max_edge_bits.max(max_edge_bits);
        self.congest_violations += violations;
        if let Some(t) = &self.trace {
            t.on_round(RoundRecord {
                phase: phase.to_string(),
                rounds: 1,
                bits,
                max_edge_bits,
                violations,
                meta,
            });
        }
    }

    /// Adds `rounds` to the total and to `phase`'s total.
    fn count(&mut self, phase: &str, rounds: u64) {
        self.total += rounds;
        *ordered_slot(&mut self.phase_idx, &mut self.phase_totals, phase) += rounds;
    }

    /// Charges injected faults: deliveries dropped, spurious duplicate
    /// deliveries, corrupted payloads, and (node, round) pairs spent
    /// crashed. [`crate::FaultyDriver`] calls this once per faulty
    /// round; fault-free executions never touch it.
    pub fn charge_faults(&mut self, dropped: u64, duplicated: u64, corrupted: u64, crashed: u64) {
        self.faults.dropped += dropped;
        self.faults.duplicated += duplicated;
        self.faults.corrupted += corrupted;
        self.faults.crashed_rounds += crashed;
        if let Some(t) = &self.trace {
            if dropped | duplicated | corrupted | crashed != 0 {
                t.emit(TraceLine::Faults(FaultCounters {
                    dropped,
                    duplicated,
                    corrupted,
                    crashed_rounds: crashed,
                }));
            }
        }
    }

    /// Whether a trace is attached ([`crate::Tracer::attach`]). Engines
    /// check this once per round to skip all record construction on the
    /// untraced path.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Emits an overlay virtual-round record. No-op without a trace.
    pub fn trace_virtual(&self, rec: VirtualRecord) {
        if let Some(t) = &self.trace {
            t.emit(TraceLine::Virtual(rec));
        }
    }

    /// Records a named scalar observation. No-op without a trace.
    pub fn trace_observe(&self, name: &str, value: u64) {
        if let Some(t) = &self.trace {
            t.emit(TraceLine::Observe {
                name: name.to_string(),
                value,
            });
        }
    }

    /// Opens a phase span on this ledger's trace (inert without one).
    pub fn trace_span(&self, label: &str) -> PhaseSpan {
        match &self.trace {
            Some(t) => t.span(label),
            None => PhaseSpan::disabled(),
        }
    }

    /// Totals of the faults injected while charging to this ledger.
    pub fn faults(&self) -> FaultCounters {
        self.faults
    }

    /// Total rounds charged so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Total bits transmitted across all directed edges.
    pub fn bits_sent(&self) -> u64 {
        self.bits_sent
    }

    /// Maximum bits any single directed edge carried in one round.
    pub fn max_edge_bits(&self) -> u64 {
        self.max_edge_bits
    }

    /// (edge, round) pairs that exceeded the CONGEST budget.
    pub fn congest_violations(&self) -> u64 {
        self.congest_violations
    }

    /// Measured round blow-up in permille relative to `logical` rounds:
    /// `1000 * total() / logical` (1000 = no dilation). Under
    /// [`crate::congest`] enforcement every logical round is charged as
    /// the honest wire rounds it dilated into, so with the algorithm's
    /// own logical round count this reads off the end-to-end CONGEST
    /// dilation factor.
    pub fn blowup_permille(&self, logical: u64) -> u64 {
        (self.total * 1000).checked_div(logical).unwrap_or(1000)
    }

    /// Total rounds charged to phases with the given name. O(1): reads
    /// the keyed accumulator maintained by [`RoundLedger::charge`].
    pub fn phase_total(&self, phase: &str) -> u64 {
        self.phase_idx
            .get(phase)
            .map_or(0, |&i| self.phase_totals[i].1)
    }

    /// Per-phase totals, in first-seen order. O(P): clones the keyed
    /// accumulator maintained by [`RoundLedger::charge`].
    pub fn by_phase(&self) -> Vec<(String, u64)> {
        self.phase_totals.clone()
    }
}

/// The value for `key` in an insertion-ordered `(key, value)` list
/// indexed by `idx`, appended as `T::default()` on first sight: the
/// ledger's per-phase totals and a trace summary's phase and span
/// aggregates.
pub(crate) fn ordered_slot<'a, T: Default>(
    idx: &mut HashMap<String, usize>,
    vals: &'a mut Vec<(String, T)>,
    key: &str,
) -> &'a mut T {
    let i = match idx.get(key) {
        Some(&i) => i,
        None => {
            idx.insert(key.to_string(), vals.len());
            vals.push((key.to_string(), T::default()));
            vals.len() - 1
        }
    };
    &mut vals[i].1
}

impl fmt::Display for RoundLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total rounds: {}", self.total)?;
        for (p, r) in self.by_phase() {
            writeln!(f, "  {p:<32} {r:>8}")?;
        }
        if self.bits_sent > 0 {
            writeln!(
                f,
                "bandwidth: {} bits sent, max {} bits/edge/round, {} congest violations",
                self.bits_sent, self.max_edge_bits, self.congest_violations
            )?;
        }
        if self.faults != FaultCounters::default() {
            writeln!(
                f,
                "faults: {} dropped, {} duplicated, {} corrupted, {} crashed node-rounds",
                self.faults.dropped,
                self.faults.duplicated,
                self.faults.corrupted,
                self.faults.crashed_rounds
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut l = RoundLedger::new();
        l.charge("a", 2);
        l.charge("a", 3);
        l.charge("b", 1);
        l.charge("a", 1);
        assert_eq!(l.total(), 7);
        assert_eq!(l.phase_total("a"), 6);
        assert_eq!(l.phase_total("b"), 1);
        assert_eq!(l.phase_total("c"), 0);
    }

    #[test]
    fn zero_charge_is_noop() {
        let mut l = RoundLedger::new();
        l.charge("x", 0);
        assert_eq!(l.total(), 0);
        assert!(l.by_phase().is_empty());
    }

    #[test]
    fn by_phase_collapses() {
        let mut l = RoundLedger::new();
        l.charge("a", 1);
        l.charge("b", 2);
        l.charge("a", 3);
        assert_eq!(l.by_phase(), vec![("a".into(), 4), ("b".into(), 2)]);
    }

    #[test]
    fn bandwidth_accumulates_and_absorbs() {
        let mut a = RoundLedger::new();
        a.charge_round("r", 100, 10, 0, None);
        a.charge_round("r", 50, 25, 2, None);
        assert_eq!(a.total(), 2);
        assert_eq!(a.bits_sent(), 150);
        assert_eq!(a.max_edge_bits(), 25);
        assert_eq!(a.congest_violations(), 2);
        let s = a.to_string();
        assert!(s.contains("150 bits sent"));
    }

    #[test]
    fn fault_counters_accumulate_and_absorb() {
        let mut a = RoundLedger::new();
        a.charge_faults(3, 1, 0, 2);
        a.charge_faults(1, 0, 4, 0);
        assert_eq!(a.faults().dropped, 4);
        assert_eq!(a.faults().duplicated, 1);
        assert_eq!(a.faults().corrupted, 4);
        assert_eq!(a.faults().crashed_rounds, 2);
        let s = a.to_string();
        assert!(s.contains("4 dropped"));
        // Fault-free ledgers keep the historical rendering.
        let clean = RoundLedger::new();
        assert!(!clean.to_string().contains("dropped"));
    }

    #[test]
    fn display_lists_phases() {
        let mut l = RoundLedger::new();
        l.charge("phase-1", 4);
        let s = l.to_string();
        assert!(s.contains("total rounds: 4"));
        assert!(s.contains("phase-1"));
    }
}
