//! Round-trace observability: phase spans, per-round records, sinks.
//!
//! The ledger answers "how much did this run cost in aggregate"; this
//! module answers "when, where, and inside which phase". A [`Tracer`]
//! owns a set of [`TraceSink`]s and hands out [`RoundLedger`]s wired to
//! them: every `charge` / `charge_bandwidth` / `charge_faults` on a
//! traced ledger is folded into a structured event stream, so the trace
//! is *derived from* the ledger's own charge calls — a view, never a
//! second source of truth. Summing the emitted [`RoundRecord`]s
//! reproduces the ledger's round/bit/fault totals exactly, on every
//! substrate and in every [`crate::ExecMode`]
//! (`tests/trace_equivalence.rs` pins this).
//!
//! # Event model
//!
//! Every event is one [`TraceLine`], the value the JSONL reader parses
//! back, and every sink receives it through [`TraceSink::on_line`]:
//!
//! * [`RoundRecord`] — one per ledger round charge. The engines
//!   ([`crate::Engine`], [`crate::ShardedEngine`]) enrich the record
//!   with a [`RoundMeta`]: round index, wall time, message-volume
//!   deltas, the largest inbox, and (sharded) per-shard boundary
//!   blocks/bits. Central simulations that charge the ledger directly
//!   emit bare records (no meta) — their rounds and bits still count.
//! * [`VirtualRecord`] — one per [`crate::OverlayEngine`] virtual
//!   round, tagged with the overlay level (`G^k`, `G[S]`), and one per
//!   enforced [`crate::CongestEngine`] logical round. A virtual record
//!   carries its dilation and wall time and never contributes to the
//!   round/bit totals (the host rounds behind it already emitted their
//!   own [`RoundRecord`]s).
//! * [`SpanRecord`] — closed by the [`PhaseSpan`] RAII guard. Spans
//!   nest per thread (driver → phase → overlay level); each closed span
//!   reports the rounds and bits charged while it was the innermost
//!   open span on its thread, plus wall time. Child totals fold into
//!   the parent at close, so parent spans are inclusive.
//! * Observations ([`Tracer::observe`]) — named scalar samples
//!   (flood-frontier sizes, queue depths), streamed to the sinks as
//!   they are; no total counts them.
//! * Fault deltas, the [`RunManifest`] header, and the `finish` trailer
//!   with the [`TraceTotals`].
//!
//! # One fold
//!
//! [`TraceSummary::add`] is the only aggregation of the stream. The
//! tracer folds every event it emits with it — that summary answers
//! [`Tracer::totals`] and [`Tracer::span_totals`] and supplies the
//! trailer — and [`TraceSummary::from_lines`] runs the same fold over a
//! parsed stream, so writer and reader agree on what a trace adds up to.
//!
//! # Zero cost when disabled
//!
//! A ledger with no tracer attached (the default) takes one
//! `Option::is_some` branch per hook and allocates nothing —
//! `tests/alloc_audit.rs` proves the warm engine path stays
//! zero-allocation with the trace layer compiled in. All `Instant`
//! reads and record construction happen only behind an enabled check.
//!
//! # Schema
//!
//! The JSONL stream ([`JsonlSink`]) is versioned by [`TRACE_SCHEMA`] in
//! its [`RunManifest`] header line; [`parse_trace_line`] rejects
//! unknown record types, so schema drift is a hard error for consumers
//! (the `trace-summary` bin turns that into a CI failure).

use crate::faults::FaultCounters;
use crate::ledger::{ordered_slot, RoundLedger};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Version tag of the JSONL trace schema, written in every manifest.
pub const TRACE_SCHEMA: &str = "trace-v2";

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Engine-side enrichment of one round record: set via
/// [`RoundLedger::trace_meta`] immediately before the round's
/// `charge_bandwidth` + `charge` pair, and folded into the
/// [`RoundRecord`] those calls produce.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundMeta {
    /// Driver-local round index (the engine's `rounds_run` before the
    /// round was charged).
    pub round: u64,
    /// Wall-clock duration of the round, in nanoseconds.
    pub wall_ns: u64,
    /// Broadcast messages queued this round.
    pub broadcasts: u64,
    /// Directed messages queued this round.
    pub directed: u64,
    /// Point-to-point deliveries performed this round.
    pub deliveries: u64,
    /// Largest single inbox delivered this round.
    pub max_inbox: u64,
    /// Per-shard boundary traffic `(blocks, block_bits)` in shard
    /// order; empty on unsharded drivers.
    pub boundary: Vec<(u64, u64)>,
}

/// One ledger round charge, enriched with [`RoundMeta`] when an engine
/// produced it. Summing `rounds` / `bits` over all round records of a
/// trace reproduces `RoundLedger::total()` / `bits_sent()` exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundRecord {
    /// Phase label the rounds were charged to.
    pub phase: String,
    /// Rounds charged (1 for engine rounds; central simulations may
    /// charge several at once).
    pub rounds: u64,
    /// Bits charged via `charge_bandwidth` since the previous record on
    /// this thread.
    pub bits: u64,
    /// Heaviest per-edge load among those bandwidth charges.
    pub max_edge_bits: u64,
    /// CONGEST-budget violations among those bandwidth charges.
    pub violations: u64,
    /// Engine enrichment; `None` for bare central charges.
    pub meta: Option<RoundMeta>,
}

/// Level label on the [`VirtualRecord`]s a
/// [`crate::congest::CongestEngine`] emits: one record per logical
/// round, with `host_rounds` carrying the measured wire-round dilation.
pub const CONGEST_LEVEL: &str = "congest";

/// Phase label of the zero-round record a trace's finish emits for bits
/// charged after the last round charge on a thread. A trace that books
/// every bit to a named phase has no record with this label, and
/// `trace-summary --check` fails one that does.
pub const FLUSH_PHASE: &str = "(bandwidth)";

/// One overlay virtual round: level-tagged, with the host rounds it
/// dilated into. Informational only — the host relay rounds behind it
/// already emitted their own [`RoundRecord`]s, which carry its bits, so
/// virtual records are excluded from the round/bit totals.
/// CONGEST-enforced engines reuse the same shape for their
/// per-logical-round dilation records (level [`CONGEST_LEVEL`],
/// `host_rounds` = honest wire rounds).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VirtualRecord {
    /// Overlay level label: `G`, `G^k` or `G[S]` — or
    /// [`CONGEST_LEVEL`] for fragmentation dilation records.
    pub level: String,
    /// Virtual round index on the overlay engine (the logical round
    /// index on a CONGEST engine).
    pub vround: u64,
    /// Host rounds this virtual round dilated into (`k`, or the wire
    /// rounds of a CONGEST logical round).
    pub host_rounds: u64,
    /// Wall-clock duration of the virtual round, in nanoseconds.
    pub wall_ns: u64,
}

/// A closed phase span: the `;`-joined path from the outermost open
/// span on its thread, with inclusive rounds/bits/wall totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// `;`-joined span labels from the root (folded-stack compatible).
    pub path: String,
    /// This span's own label (the last path segment).
    pub label: String,
    /// Nesting depth (0 = outermost).
    pub depth: u64,
    /// Rounds charged while this span (or a child) was innermost.
    pub rounds: u64,
    /// Bits charged while this span (or a child) was innermost.
    pub bits: u64,
    /// Wall-clock duration between open and close, in nanoseconds.
    pub wall_ns: u64,
}

/// Aggregated totals for one span path (several [`SpanRecord`]s with
/// the same path merged).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Number of spans merged into this path.
    pub count: u64,
    /// Summed inclusive rounds.
    pub rounds: u64,
    /// Summed inclusive bits.
    pub bits: u64,
    /// Summed wall time, nanoseconds.
    pub wall_ns: u64,
}

/// Run-level header describing what produced a trace: written as the
/// first JSONL line, consumed by readers and the progress sink.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunManifest {
    /// Experiment / run label (e.g. `t4`).
    pub label: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Host graph nodes (0 if the run spans several graphs).
    pub nodes: u64,
    /// Host graph edges (0 if unknown / several graphs).
    pub edges: u64,
    /// Execution mode the run requested (`sequential` / `parallel` /
    /// `auto`).
    pub exec_mode: String,
    /// Shard count (0 = unsharded).
    pub shards: u64,
    /// Human-readable fault-plan description (empty = fault-free).
    pub fault_plan: String,
    /// Whether the run used quick-mode scales.
    pub quick: bool,
    /// `local-model` crate version that wrote the trace.
    pub crate_version: String,
}

impl RunManifest {
    /// A manifest with the crate version filled in and the given label.
    pub fn new(label: &str) -> Self {
        Self {
            label: label.to_string(),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            ..Self::default()
        }
    }
}

/// Running totals of a trace, also written as the JSONL trailer. These
/// are accumulated from the same charge calls that feed the ledger, so
/// for a single traced ledger they match it field for field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceTotals {
    /// Summed rounds over all round records.
    pub rounds: u64,
    /// Summed bits over all round records.
    pub bits: u64,
    /// Maximum per-edge load seen.
    pub max_edge_bits: u64,
    /// Summed CONGEST violations.
    pub violations: u64,
    /// Summed fault counters.
    pub faults: FaultCounters,
    /// Number of round records emitted.
    pub records: u64,
}

// ---------------------------------------------------------------------------
// Sink trait
// ---------------------------------------------------------------------------

/// Receiver of trace events. Sinks are driven under the tracer's lock:
/// implementations should be quick and must not call back into the
/// tracer.
pub trait TraceSink: Send {
    /// One event, in stream order: the manifest (at most once, before
    /// any other event), records, spans, observations and fault deltas,
    /// then the `Finish` trailer with the totals — flush there.
    fn on_line(&mut self, line: &TraceLine);
}

// ---------------------------------------------------------------------------
// Trace state + handle
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ThreadCtx {
    pending_meta: Option<RoundMeta>,
    pending_bits: u64,
    pending_max: u64,
    pending_viol: u64,
    has_bandwidth: bool,
    stack: Vec<Frame>,
}

impl ThreadCtx {
    /// Closes the pending bandwidth and engine meta into one record.
    fn take_record(&mut self, phase: &str, rounds: u64) -> RoundRecord {
        self.has_bandwidth = false;
        RoundRecord {
            phase: phase.to_string(),
            rounds,
            bits: std::mem::take(&mut self.pending_bits),
            max_edge_bits: std::mem::take(&mut self.pending_max),
            violations: std::mem::take(&mut self.pending_viol),
            meta: self.pending_meta.take(),
        }
    }
}

struct Frame {
    label: String,
    path: String,
    opened: Instant,
    rounds: u64,
    bits: u64,
}

pub(crate) struct TraceState {
    sinks: Vec<Box<dyn TraceSink>>,
    threads: HashMap<ThreadId, ThreadCtx>,
    /// Everything emitted so far, folded as a reader would fold it.
    summary: TraceSummary,
    finished: bool,
}

impl TraceState {
    fn new(sinks: Vec<Box<dyn TraceSink>>) -> Self {
        Self {
            sinks,
            threads: HashMap::new(),
            summary: TraceSummary::default(),
            finished: false,
        }
    }

    fn ctx(&mut self) -> &mut ThreadCtx {
        self.threads.entry(std::thread::current().id()).or_default()
    }

    /// Streams one event to every sink and folds it into the summary.
    fn emit(&mut self, line: TraceLine) {
        for s in &mut self.sinks {
            s.on_line(&line);
        }
        self.summary.add(&line);
    }

    fn on_meta(&mut self, meta: RoundMeta) {
        self.ctx().pending_meta = Some(meta);
    }

    fn on_bandwidth(&mut self, bits: u64, max_edge_bits: u64, violations: u64) {
        let ctx = self.ctx();
        ctx.pending_bits += bits;
        ctx.pending_max = ctx.pending_max.max(max_edge_bits);
        ctx.pending_viol += violations;
        ctx.has_bandwidth = true;
    }

    fn on_charge(&mut self, phase: &str, rounds: u64) {
        let ctx = self.ctx();
        let rec = ctx.take_record(phase, rounds);
        if let Some(top) = ctx.stack.last_mut() {
            top.rounds += rounds;
            top.bits += rec.bits;
        }
        self.emit(TraceLine::Round(rec));
    }

    fn push_span(&mut self, label: &str) {
        let ctx = self.ctx();
        let path = match ctx.stack.last() {
            Some(top) => format!("{};{label}", top.path),
            None => label.to_string(),
        };
        ctx.stack.push(Frame {
            label: label.to_string(),
            path,
            opened: Instant::now(),
            rounds: 0,
            bits: 0,
        });
    }

    fn pop_span(&mut self) {
        let ctx = self.ctx();
        let Some(frame) = ctx.stack.pop() else {
            return;
        };
        let depth = ctx.stack.len() as u64;
        // Inclusive parents: fold the closed child into the new top.
        if let Some(top) = ctx.stack.last_mut() {
            top.rounds += frame.rounds;
            top.bits += frame.bits;
        }
        self.emit(TraceLine::Span(SpanRecord {
            path: frame.path,
            label: frame.label,
            depth,
            rounds: frame.rounds,
            bits: frame.bits,
            wall_ns: frame.opened.elapsed().as_nanos() as u64,
        }));
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        // Flush bandwidth charged after the last round charge (central
        // estimates with no paired `charge`): a zero-round record keeps
        // the bit totals exact.
        let dangling: Vec<RoundRecord> = self
            .threads
            .values_mut()
            .filter(|c| c.has_bandwidth || c.pending_meta.is_some())
            .map(|c| c.take_record(FLUSH_PHASE, 0))
            .collect();
        for rec in dangling {
            self.emit(TraceLine::Round(rec));
        }
        self.emit(TraceLine::Finish(self.summary.totals));
    }
}

impl Drop for TraceState {
    fn drop(&mut self) {
        // Safety net: a dropped-without-finish tracer still flushes its
        // sinks (JSONL trailers, final progress line).
        self.finish();
    }
}

/// Shared, cloneable reference to one trace's state. Internal: lives
/// inside traced [`RoundLedger`]s and [`Tracer`]s.
#[derive(Clone)]
pub struct TraceHandle(Arc<Mutex<TraceState>>);

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceHandle")
    }
}

impl TraceHandle {
    fn lock(&self) -> std::sync::MutexGuard<'_, TraceState> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn on_charge(&self, phase: &str, rounds: u64) {
        self.lock().on_charge(phase, rounds);
    }

    pub(crate) fn on_bandwidth(&self, bits: u64, max_edge_bits: u64, violations: u64) {
        self.lock().on_bandwidth(bits, max_edge_bits, violations);
    }

    pub(crate) fn on_meta(&self, meta: RoundMeta) {
        self.lock().on_meta(meta);
    }

    /// Emits an event that needs no per-thread context (virtual
    /// records, observations, fault deltas, the manifest).
    pub(crate) fn emit(&self, line: TraceLine) {
        self.lock().emit(line);
    }

    pub(crate) fn span(&self, label: &str) -> PhaseSpan {
        self.lock().push_span(label);
        PhaseSpan {
            handle: Some(self.clone()),
        }
    }
}

// ---------------------------------------------------------------------------
// PhaseSpan + Tracer
// ---------------------------------------------------------------------------

/// RAII phase-span guard: opened by [`Tracer::span`] or
/// [`RoundLedger::trace_span`], closed (and emitted) on drop. Spans
/// nest per thread; rounds and bits charged on the same thread while
/// the span is innermost are attributed to it, and fold into the parent
/// when it closes. On a disabled tracer the guard is inert and
/// allocation-free.
#[must_use = "a span measures the scope it is alive for"]
pub struct PhaseSpan {
    handle: Option<TraceHandle>,
}

impl PhaseSpan {
    /// An inert span (what disabled tracers hand out).
    pub fn disabled() -> Self {
        Self { handle: None }
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.lock().pop_span();
        }
    }
}

/// Front door of the trace layer: owns the sinks, hands out traced
/// ledgers, opens spans, and carries run-scoped observations. Cloning a
/// `Tracer` shares the same trace. The default tracer is disabled and
/// free.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    handle: Option<TraceHandle>,
}

impl Tracer {
    /// A disabled tracer: every operation is a no-op, ledgers it hands
    /// out are untraced.
    pub fn disabled() -> Self {
        Self { handle: None }
    }

    /// An enabled tracer with no sinks: events are still folded into
    /// the trace's summary (for [`Tracer::totals`] /
    /// [`Tracer::span_totals`]), nothing is streamed anywhere.
    pub fn collecting() -> Self {
        Self::with_sinks(Vec::new())
    }

    /// An enabled tracer streaming to the given sinks.
    pub fn with_sinks(sinks: Vec<Box<dyn TraceSink>>) -> Self {
        Self {
            handle: Some(TraceHandle(Arc::new(Mutex::new(TraceState::new(sinks))))),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.handle.is_some()
    }

    /// A fresh ledger wired to this trace (untraced if disabled).
    pub fn ledger(&self) -> RoundLedger {
        let mut l = RoundLedger::new();
        self.attach(&mut l);
        l
    }

    /// Wires an existing ledger to this trace.
    pub fn attach(&self, ledger: &mut RoundLedger) {
        ledger.trace = self.handle.clone();
    }

    /// Emits the run manifest (call once, before the run).
    pub fn manifest(&self, m: &RunManifest) {
        if let Some(h) = &self.handle {
            h.emit(TraceLine::Manifest(m.clone()));
        }
    }

    /// Opens a phase span on the current thread.
    pub fn span(&self, label: &str) -> PhaseSpan {
        match &self.handle {
            Some(h) => h.span(label),
            None => PhaseSpan::disabled(),
        }
    }

    /// Records a named scalar observation.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(h) = &self.handle {
            h.emit(TraceLine::Observe {
                name: name.to_string(),
                value,
            });
        }
    }

    /// Snapshot of the running totals.
    pub fn totals(&self) -> TraceTotals {
        match &self.handle {
            Some(h) => h.lock().summary.totals,
            None => TraceTotals::default(),
        }
    }

    /// Aggregated span tree: one entry per distinct span path, in
    /// first-close order ([`TraceSummary::span_tree`] of the stream).
    pub fn span_totals(&self) -> Vec<(String, SpanAgg)> {
        match &self.handle {
            Some(h) => h.lock().summary.span_tree().to_vec(),
            None => Vec::new(),
        }
    }

    /// Ends the trace: flushes dangling bandwidth, then delivers the
    /// `Finish` trailer to every sink. Idempotent; also runs
    /// automatically when the last handle is dropped.
    pub fn finish(&self) {
        if let Some(h) = &self.handle {
            h.lock().finish();
        }
    }
}

// ---------------------------------------------------------------------------
// JSONL sink + reader
// ---------------------------------------------------------------------------

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Streaming JSONL sink: one manifest header line, one line per event,
/// a `finish` trailer with the totals. The writer is buffered
/// internally; the trailer flushes.
pub struct JsonlSink {
    w: Box<dyn Write + Send>,
    line: String,
}

impl JsonlSink {
    /// Streams to an arbitrary writer (tests pass shared buffers).
    pub fn new(w: Box<dyn Write + Send>) -> Self {
        Self {
            w,
            line: String::new(),
        }
    }

    /// Creates/truncates `path` and streams to it through a buffer.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(f))))
    }

    fn push_str_field(&mut self, key: &str, val: &str) {
        let _ = write!(self.line, ",\"{key}\":\"");
        let mut s = std::mem::take(&mut self.line);
        json_escape(&mut s, val);
        self.line = s;
        self.line.push('"');
    }

    fn push_u64_field(&mut self, key: &str, val: u64) {
        let _ = write!(self.line, ",\"{key}\":{val}");
    }
}

impl TraceSink for JsonlSink {
    fn on_line(&mut self, line: &TraceLine) {
        self.line.clear();
        match line {
            TraceLine::Manifest(m) => {
                self.line.push_str("{\"type\":\"manifest\"");
                self.push_str_field("schema", TRACE_SCHEMA);
                self.push_str_field("label", &m.label);
                self.push_str_field("crate_version", &m.crate_version);
                self.push_u64_field("seed", m.seed);
                self.push_u64_field("nodes", m.nodes);
                self.push_u64_field("edges", m.edges);
                self.push_str_field("exec_mode", &m.exec_mode);
                self.push_u64_field("shards", m.shards);
                self.push_str_field("fault_plan", &m.fault_plan);
                self.push_u64_field("quick", m.quick as u64);
            }
            TraceLine::Round(r) => {
                self.line.push_str("{\"type\":\"round\"");
                self.push_str_field("phase", &r.phase);
                self.push_u64_field("rounds", r.rounds);
                self.push_u64_field("bits", r.bits);
                self.push_u64_field("max_edge_bits", r.max_edge_bits);
                self.push_u64_field("violations", r.violations);
                if let Some(m) = &r.meta {
                    self.push_u64_field("round", m.round);
                    self.push_u64_field("wall_ns", m.wall_ns);
                    self.push_u64_field("broadcasts", m.broadcasts);
                    self.push_u64_field("directed", m.directed);
                    self.push_u64_field("deliveries", m.deliveries);
                    self.push_u64_field("max_inbox", m.max_inbox);
                    if !m.boundary.is_empty() {
                        self.line.push_str(",\"boundary\":[");
                        for (i, (blocks, bits)) in m.boundary.iter().enumerate() {
                            if i > 0 {
                                self.line.push(',');
                            }
                            let _ = write!(self.line, "[{blocks},{bits}]");
                        }
                        self.line.push(']');
                    }
                }
            }
            TraceLine::Virtual(r) => {
                self.line.push_str("{\"type\":\"vround\"");
                self.push_str_field("level", &r.level);
                self.push_u64_field("vround", r.vround);
                self.push_u64_field("host_rounds", r.host_rounds);
                self.push_u64_field("wall_ns", r.wall_ns);
            }
            TraceLine::Span(s) => {
                self.line.push_str("{\"type\":\"span\"");
                self.push_str_field("path", &s.path);
                self.push_str_field("label", &s.label);
                self.push_u64_field("depth", s.depth);
                self.push_u64_field("rounds", s.rounds);
                self.push_u64_field("bits", s.bits);
                self.push_u64_field("wall_ns", s.wall_ns);
            }
            TraceLine::Observe { name, value } => {
                self.line.push_str("{\"type\":\"observe\"");
                self.push_str_field("name", name);
                self.push_u64_field("value", *value);
            }
            TraceLine::Faults(d) => {
                self.line.push_str("{\"type\":\"faults\"");
                self.push_u64_field("dropped", d.dropped);
                self.push_u64_field("duplicated", d.duplicated);
                self.push_u64_field("corrupted", d.corrupted);
                self.push_u64_field("crashed_rounds", d.crashed_rounds);
            }
            TraceLine::Finish(t) => {
                self.line.push_str("{\"type\":\"finish\"");
                self.push_u64_field("rounds", t.rounds);
                self.push_u64_field("bits", t.bits);
                self.push_u64_field("max_edge_bits", t.max_edge_bits);
                self.push_u64_field("violations", t.violations);
                self.push_u64_field("dropped", t.faults.dropped);
                self.push_u64_field("duplicated", t.faults.duplicated);
                self.push_u64_field("corrupted", t.faults.corrupted);
                self.push_u64_field("crashed_rounds", t.faults.crashed_rounds);
                self.push_u64_field("records", t.records);
            }
        }
        self.line.push_str("}\n");
        // A failed trace write must not abort the simulation; the
        // reader's consistency check will flag the truncated file.
        let _ = self.w.write_all(self.line.as_bytes());
        if matches!(line, TraceLine::Finish(_)) {
            let _ = self.w.flush();
        }
    }
}

// --- flat-JSON field extraction (writer-matched; no serde) -----------------

fn find_key(line: &str, key: &str) -> Option<usize> {
    // Keys never appear inside our string values except via escaping,
    // and the writer emits them unescaped, so a literal search on the
    // quoted key is exact for this schema.
    let pat = format!("\"{key}\":");
    line.find(&pat).map(|i| i + pat.len())
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    let start = find_key(line, key)?;
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_str(line: &str, key: &str) -> Option<String> {
    let start = find_key(line, key)?;
    let rest = line[start..].strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let v = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(v)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
    None
}

fn json_pairs_array(line: &str, key: &str) -> Vec<(u64, u64)> {
    let Some(start) = find_key(line, key) else {
        return Vec::new();
    };
    let rest = &line[start..];
    let Some(end) = rest.find(']').and_then(|_| {
        // Find the matching close of the outer array.
        let mut depth = 0usize;
        for (i, c) in rest.char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
        None
    }) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for pair in rest[1..end].split("],") {
        let nums: Vec<u64> = pair
            .trim_matches(|c| c == '[' || c == ']')
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect();
        if nums.len() == 2 {
            out.push((nums[0], nums[1]));
        }
    }
    out
}

/// One parsed JSONL trace line.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceLine {
    /// The run manifest header.
    Manifest(RunManifest),
    /// A round record.
    Round(RoundRecord),
    /// An overlay virtual-round record.
    Virtual(VirtualRecord),
    /// A closed span.
    Span(SpanRecord),
    /// A named observation.
    Observe {
        /// Observation name.
        name: String,
        /// Observed value.
        value: u64,
    },
    /// A fault-injection delta.
    Faults(FaultCounters),
    /// The trailer with trace totals.
    Finish(TraceTotals),
}

/// Parses one line of a `trace-v2` JSONL stream. Unknown record types
/// and malformed lines are errors — consumers treat schema drift as a
/// failure, not noise.
pub fn parse_trace_line(line: &str) -> Result<TraceLine, String> {
    let ty = json_str(line, "type").ok_or_else(|| format!("no \"type\" field: {line}"))?;
    let need_u64 =
        |key: &str| json_u64(line, key).ok_or_else(|| format!("missing \"{key}\" in {ty} line"));
    let need_str =
        |key: &str| json_str(line, key).ok_or_else(|| format!("missing \"{key}\" in {ty} line"));
    match ty.as_str() {
        "manifest" => {
            let schema = need_str("schema")?;
            if schema != TRACE_SCHEMA {
                return Err(format!(
                    "trace schema mismatch: file says {schema:?}, reader speaks {TRACE_SCHEMA:?}"
                ));
            }
            Ok(TraceLine::Manifest(RunManifest {
                label: need_str("label")?,
                seed: need_u64("seed")?,
                nodes: need_u64("nodes")?,
                edges: need_u64("edges")?,
                exec_mode: need_str("exec_mode")?,
                shards: need_u64("shards")?,
                fault_plan: need_str("fault_plan")?,
                quick: need_u64("quick")? != 0,
                crate_version: need_str("crate_version")?,
            }))
        }
        "round" => {
            let meta = if json_u64(line, "round").is_some() {
                Some(RoundMeta {
                    round: need_u64("round")?,
                    wall_ns: need_u64("wall_ns")?,
                    broadcasts: need_u64("broadcasts")?,
                    directed: need_u64("directed")?,
                    deliveries: need_u64("deliveries")?,
                    max_inbox: need_u64("max_inbox")?,
                    boundary: json_pairs_array(line, "boundary"),
                })
            } else {
                None
            };
            Ok(TraceLine::Round(RoundRecord {
                phase: need_str("phase")?,
                rounds: need_u64("rounds")?,
                bits: need_u64("bits")?,
                max_edge_bits: need_u64("max_edge_bits")?,
                violations: need_u64("violations")?,
                meta,
            }))
        }
        "vround" => Ok(TraceLine::Virtual(VirtualRecord {
            level: need_str("level")?,
            vround: need_u64("vround")?,
            host_rounds: need_u64("host_rounds")?,
            wall_ns: need_u64("wall_ns")?,
        })),
        "span" => Ok(TraceLine::Span(SpanRecord {
            path: need_str("path")?,
            label: need_str("label")?,
            depth: need_u64("depth")?,
            rounds: need_u64("rounds")?,
            bits: need_u64("bits")?,
            wall_ns: need_u64("wall_ns")?,
        })),
        "observe" => Ok(TraceLine::Observe {
            name: need_str("name")?,
            value: need_u64("value")?,
        }),
        "faults" => Ok(TraceLine::Faults(FaultCounters {
            dropped: need_u64("dropped")?,
            duplicated: need_u64("duplicated")?,
            corrupted: need_u64("corrupted")?,
            crashed_rounds: need_u64("crashed_rounds")?,
        })),
        "finish" => Ok(TraceLine::Finish(TraceTotals {
            rounds: need_u64("rounds")?,
            bits: need_u64("bits")?,
            max_edge_bits: need_u64("max_edge_bits")?,
            violations: need_u64("violations")?,
            faults: FaultCounters {
                dropped: need_u64("dropped")?,
                duplicated: need_u64("duplicated")?,
                corrupted: need_u64("corrupted")?,
                crashed_rounds: need_u64("crashed_rounds")?,
            },
            records: need_u64("records")?,
        })),
        other => Err(format!(
            "unknown trace record type {other:?} (schema drift?)"
        )),
    }
}

/// Per-phase aggregate accumulated by [`TraceSummary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Rounds charged to the phase.
    pub rounds: u64,
    /// Rounds of the phase's records that carry a [`RoundMeta`]: the
    /// rounds an engine ran. `rounds - engine_rounds` is what the phase
    /// charged by estimate (central simulations, dilation remainders).
    pub engine_rounds: u64,
    /// Bits attributed to the phase's records.
    pub bits: u64,
    /// Heaviest per-edge load among the phase's records.
    pub max_edge_bits: u64,
    /// Wall time of the phase's engine rounds, nanoseconds.
    pub wall_ns: u64,
    /// Number of records.
    pub records: u64,
}

/// Aggregated view of one trace stream: totals, per-phase breakdown,
/// span tree, and the trailer (when present) for consistency checking.
/// Built one event at a time by [`TraceSummary::add`], on the writer's
/// side as events are emitted and on the reader's over a parsed stream.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// The manifest header, if the stream carried one.
    pub manifest: Option<RunManifest>,
    /// Running totals over the round and fault records.
    pub totals: TraceTotals,
    /// Number of virtual-round records.
    pub virtual_rounds: u64,
    /// The `finish` trailer, if the stream carried one.
    pub trailer: Option<TraceTotals>,
    phases: Vec<(String, PhaseAgg)>,
    phase_idx: HashMap<String, usize>,
    spans: Vec<(String, SpanAgg)>,
    span_idx: HashMap<String, usize>,
}

impl TraceSummary {
    /// Folds one event into the summary.
    pub fn add(&mut self, line: &TraceLine) {
        match line {
            TraceLine::Manifest(m) => self.manifest = Some(m.clone()),
            TraceLine::Round(r) => {
                let t = &mut self.totals;
                t.rounds += r.rounds;
                t.bits += r.bits;
                t.max_edge_bits = t.max_edge_bits.max(r.max_edge_bits);
                t.violations += r.violations;
                t.records += 1;
                let agg = ordered_slot(&mut self.phase_idx, &mut self.phases, &r.phase);
                agg.rounds += r.rounds;
                agg.bits += r.bits;
                agg.max_edge_bits = agg.max_edge_bits.max(r.max_edge_bits);
                agg.records += 1;
                if let Some(m) = &r.meta {
                    agg.engine_rounds += r.rounds;
                    agg.wall_ns += m.wall_ns;
                }
            }
            TraceLine::Virtual(_) => self.virtual_rounds += 1,
            TraceLine::Span(sp) => {
                let agg = ordered_slot(&mut self.span_idx, &mut self.spans, &sp.path);
                agg.count += 1;
                agg.rounds += sp.rounds;
                agg.bits += sp.bits;
                agg.wall_ns += sp.wall_ns;
            }
            TraceLine::Observe { .. } => {}
            TraceLine::Faults(d) => {
                let f = &mut self.totals.faults;
                f.dropped += d.dropped;
                f.duplicated += d.duplicated;
                f.corrupted += d.corrupted;
                f.crashed_rounds += d.crashed_rounds;
            }
            TraceLine::Finish(t) => self.trailer = Some(*t),
        }
    }

    /// Folds a sequence of parsed lines.
    pub fn from_lines<I: IntoIterator<Item = TraceLine>>(lines: I) -> Self {
        let mut s = TraceSummary::default();
        for line in lines {
            s.add(&line);
        }
        s
    }

    /// Reads and folds a JSONL trace file. The first unreadable or
    /// unparsable line aborts.
    pub fn read_path(path: &std::path::Path) -> Result<Self, String> {
        let in_file = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
        let f = std::fs::File::open(path).map_err(|e| in_file(&e))?;
        let mut s = TraceSummary::default();
        for line in std::io::BufReader::new(f).lines() {
            let line = line.map_err(|e| in_file(&e))?;
            if line.trim().is_empty() {
                continue;
            }
            s.add(&parse_trace_line(&line).map_err(|e| in_file(&e))?);
        }
        Ok(s)
    }

    /// Per-phase aggregates in first-seen order.
    pub fn phases(&self) -> &[(String, PhaseAgg)] {
        &self.phases
    }

    /// Aggregated span tree: one entry per distinct path, in
    /// first-close order.
    pub fn span_tree(&self) -> &[(String, SpanAgg)] {
        &self.spans
    }

    /// Checks the stream against its own trailer: summed records must
    /// reproduce the totals the writer recorded. Catches truncated
    /// files and any writer/reader disagreement.
    pub fn check_consistent(&self) -> Result<(), String> {
        match &self.trailer {
            None => Err("trace has no finish trailer (truncated?)".to_string()),
            Some(t) if *t == self.totals => Ok(()),
            Some(t) => Err(format!(
                "trace inconsistent: summed {:?}, trailer says {t:?}",
                self.totals
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Progress sink
// ---------------------------------------------------------------------------

/// Periodic progress reporter: prints rounds/s, node-rounds/s, and (when
/// a total is known) an ETA to stderr, at most once per `every`. Long
/// experiments narrate themselves instead of running silent; runs that
/// finish before the first interval print nothing.
///
/// Observations it understands: `progress_total_rounds` sets the ETA
/// denominator, `progress_nodes` sets the node-rounds multiplier
/// (defaults to the manifest's node count).
pub struct ProgressSink {
    label: String,
    every: Duration,
    started: Instant,
    last_print: Instant,
    rounds: u64,
    node_rounds: u64,
    nodes: u64,
    total_hint: Option<u64>,
}

impl ProgressSink {
    /// A reporter for `label` printing at most every `every`.
    pub fn new(label: &str, every: Duration) -> Self {
        let now = Instant::now();
        Self {
            label: label.to_string(),
            every,
            started: now,
            last_print: now,
            rounds: 0,
            node_rounds: 0,
            nodes: 0,
            total_hint: None,
        }
    }

    fn maybe_print(&mut self) {
        if self.last_print.elapsed() < self.every {
            return;
        }
        self.last_print = Instant::now();
        let secs = self.started.elapsed().as_secs_f64().max(1e-9);
        let rps = self.rounds as f64 / secs;
        let eta = match self.total_hint {
            Some(total) if total > self.rounds && rps > 0.0 => {
                format!(", ETA {:.0}s", (total - self.rounds) as f64 / rps)
            }
            Some(_) => ", ETA 0s".to_string(),
            None => String::new(),
        };
        let progress = match self.total_hint {
            Some(total) => format!("{}/{total}", self.rounds),
            None => format!("{}", self.rounds),
        };
        eprintln!(
            "[trace:{}] {progress} rounds, {rps:.1} rounds/s, {:.0} node-rounds/s{eta}",
            self.label,
            self.node_rounds as f64 / secs,
        );
    }
}

impl TraceSink for ProgressSink {
    fn on_line(&mut self, line: &TraceLine) {
        match line {
            TraceLine::Manifest(m) if self.nodes == 0 => self.nodes = m.nodes,
            TraceLine::Round(r) => {
                self.rounds += r.rounds;
                self.node_rounds += r.rounds * self.nodes;
                self.maybe_print();
            }
            TraceLine::Observe { name, value } => match name.as_str() {
                "progress_total_rounds" => self.total_hint = Some(*value),
                "progress_nodes" => self.nodes = *value,
                _ => {}
            },
            // Only narrate runs that were long enough to have printed.
            TraceLine::Finish(t) if self.started.elapsed() >= self.every => {
                let secs = self.started.elapsed().as_secs_f64().max(1e-9);
                eprintln!(
                    "[trace:{}] done: {} rounds in {secs:.1}s ({:.1} rounds/s)",
                    self.label,
                    t.rounds,
                    t.rounds as f64 / secs,
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let tr = Tracer::disabled();
        assert!(!tr.is_enabled());
        let mut l = tr.ledger();
        l.charge("x", 3);
        let _sp = tr.span("nothing");
        tr.observe("n", 1);
        assert_eq!(tr.totals(), TraceTotals::default());
        assert!(tr.span_totals().is_empty());
        tr.finish();
    }

    #[test]
    fn totals_mirror_ledger_charges() {
        let tr = Tracer::collecting();
        let mut l = tr.ledger();
        l.charge_bandwidth(100, 40, 1);
        l.charge("a", 2);
        l.charge_bandwidth(50, 60, 0);
        l.charge("b", 1);
        l.charge_faults(3, 1, 0, 2);
        let t = tr.totals();
        assert_eq!(t.rounds, l.total());
        assert_eq!(t.bits, l.bits_sent());
        assert_eq!(t.max_edge_bits, l.max_edge_bits());
        assert_eq!(t.violations, l.congest_violations());
        assert_eq!(t.faults, l.faults());
        assert_eq!(t.records, 2);
    }

    #[test]
    fn dangling_bandwidth_flushes_at_finish() {
        let tr = Tracer::collecting();
        let mut l = tr.ledger();
        l.charge_bandwidth(77, 7, 0);
        tr.finish();
        let t = tr.totals();
        assert_eq!(t.bits, 77);
        assert_eq!(t.rounds, 0);
        assert_eq!(t.records, 1, "flushed as a zero-round record");
    }

    #[test]
    fn spans_nest_and_fold_into_parents() {
        let tr = Tracer::collecting();
        let mut l = tr.ledger();
        {
            let _outer = tr.span("driver");
            l.charge("setup", 1);
            {
                let _inner = tr.span("phase");
                l.charge_bandwidth(10, 10, 0);
                l.charge("work", 4);
            }
            l.charge("teardown", 2);
        }
        let spans = tr.span_totals();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|(p, _)| p == "driver;phase").unwrap();
        assert_eq!(inner.1.rounds, 4);
        assert_eq!(inner.1.bits, 10);
        let outer = spans.iter().find(|(p, _)| p == "driver").unwrap();
        assert_eq!(outer.1.rounds, 7, "parent is inclusive");
        assert_eq!(outer.1.bits, 10);
    }

    #[test]
    fn parse_rejects_unknown_type_and_wrong_schema() {
        assert!(parse_trace_line("{\"type\":\"mystery\"}").is_err());
        assert!(parse_trace_line(
            "{\"type\":\"manifest\",\"schema\":\"trace-v999\",\"label\":\"x\"}"
        )
        .is_err());
        assert!(parse_trace_line("{}").is_err());
    }

    #[test]
    fn escaped_strings_round_trip() {
        let mut s = String::new();
        json_escape(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "a\\\"b\\\\c\\nd");
        let line = format!("{{\"type\":\"observe\",\"name\":\"{s}\",\"value\":1}}");
        match parse_trace_line(&line).unwrap() {
            TraceLine::Observe { name, .. } => assert_eq!(name, "a\"b\\c\nd"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
