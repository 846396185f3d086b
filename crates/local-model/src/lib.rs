//! Synchronous LOCAL-model execution substrate.
//!
//! The LOCAL model (Linial; Peleg): the network is the graph itself,
//! nodes compute in synchronous rounds, and per round every node may send
//! one unbounded message to each neighbor. The complexity of an algorithm
//! is the number of rounds. Equivalently, an `r`-round algorithm is a
//! function from the radius-`r` neighborhood of a node to its output.
//!
//! This crate provides the standard simulation devices:
//!
//! * [`Engine`] — explicit synchronous message rounds given as a
//!   send/recv closure pair ([`Engine::step`]), with per-node state,
//!   broadcast **and** per-neighbor directed messages, and deterministic
//!   per-node randomness. Every round runs on a partition of the nodes
//!   into contiguous parts: one part on the sequential schedule, one
//!   per worker thread on the parallel one (see [`ExecMode`]), each
//!   staging its senders' traffic into one stream per part and merging
//!   its inbound streams in source-part order, so LOCAL semantics and
//!   per-seed determinism hold for every partition. Delivery runs
//!   through a flat CSR-indexed mailbox arena reused across rounds —
//!   zero steady-state heap allocation for `Copy` payloads, inboxes
//!   borrowed as arena slices (see the [`engine`] module docs for the
//!   architecture and its determinism invariants);
//! * **engine-backed ball collection** ([`ball`]) — the "collect your
//!   radius-`r` neighborhood, then decide locally" compilation of LOCAL
//!   algorithms as a real message-passing program: one flood kernel
//!   (source ids relayed against an interned payload table,
//!   deduplicated by a two-segment window) runs [`run_reach_phase`],
//!   [`run_ball_phase`] — which relays certificate ids and assembles
//!   full [`BallView`]s from the phase's certificate table — and the
//!   `G^k` overlay relay, while [`collect_ball_centered`] serves
//!   single-center repair probes — all with measured rounds and
//!   wire-exact bandwidth;
//! * **virtual-topology overlays** ([`overlay`]) — run node programs
//!   on `G^k` and on induced subgraphs `G[S]` *through the host
//!   engine*: one virtual round compiles to `k` measured relay rounds
//!   ([`OverlayEngine`]), id-for-id equal to a run on the
//!   materialized virtual graph (`tests/overlay_equivalence.rs`) while
//!   charging the ledger the true dilated host cost. The shared
//!   [`RoundDriver`] trait lets one program (Luby MIS, the ball/reach
//!   floods, list coloring) run on every topology;
//! * **deterministic fault injection** ([`faults`]) — a seeded
//!   [`FaultPlan`] (per-delivery drops, duplications, bit-flip codec
//!   corruption, and node crash/recover windows) applied by a
//!   [`FaultyDriver`] wrapper around any [`RoundDriver`], so every
//!   program runs under faults with zero call-site changes on `G`,
//!   `G^k`, and `G[S]` alike; fault decisions are pure hashes of
//!   (seed, round, arc, slot), so transcripts, counters, and post-fault
//!   states stay bit-identical across [`ExecMode`]s;
//! * **sharded execution** ([`shard`]) — the same engine over a
//!   [`delta_graphs::ShardPlan`] ([`Engine::sharded`], alias
//!   [`ShardedEngine`]): the parts are the plan's single-owner shards,
//!   and every stream between two shards travels as one batched
//!   [`WireCodec`]-encoded boundary block per ordered shard pair per
//!   round — seed-bit-identical to the unsharded engine
//!   (`tests/sharded_equivalence.rs`), with the blocks' own wire cost
//!   metered by [`BoundaryStats`];
//! * **round-trace observability** ([`trace`]) — a [`Tracer`] wires
//!   [`TraceSink`]s (JSONL streaming with a [`RunManifest`] header,
//!   periodic progress reporting) into any [`RoundLedger`]: per-round
//!   records, level-tagged overlay records, and RAII [`PhaseSpan`]s
//!   derived from the ledger's own charge calls, each one
//!   [`TraceLine`] that the tracer folds with the reader's own
//!   [`TraceSummary::add`] — zero-allocation when no tracer is attached
//!   (`tests/alloc_audit.rs`) and total-exact against the ledger on
//!   every substrate (`tests/trace_equivalence.rs`);
//! * **true-CONGEST execution** ([`congest`]) — a [`CongestEngine`]
//!   wrapper fragments every oversized [`WireCodec`] payload into
//!   budget-sized gamma-framed chunks ([`Fragmenter`]), pipelines them
//!   over consecutive honest wire rounds ([`PipelineScheduler`]), and
//!   delivers each message only on the round its last chunk lands
//!   ([`Reassembler`]) — so one logical round dilates into the wire
//!   rounds the budget demands, charged to the ledger, while final
//!   states and inboxes stay seed-bit-identical to the unfragmented run
//!   (`tests/congest_equivalence.rs`); a thread-local
//!   [`enforce_congest`] guard flips every [`compile`]d engine
//!   construction in the coloring crate onto this mode at once.
//!
//! Every algorithm in the `delta-coloring` crate charges the rounds a
//! real LOCAL execution would take to a [`RoundLedger`], broken down by
//! phase, which is what the experiments report. Every message the
//! engine carries implements [`WireCodec`] — a bit-exact wire format
//! with its exact size — and the engine charges each transmission's
//! wire size during routing, extending [`MessageStats`] and the ledger
//! with CONGEST-style bandwidth accounting (bits sent, heaviest
//! per-edge-per-round load, and budget violations under
//! [`BandwidthPolicy::Congest`]). Whether a substrate fits `O(log n)`
//! bits is read off those measured loads, never declared per type.

pub mod ball;
pub mod congest;
pub mod engine;
pub mod faults;
pub mod ledger;
pub mod overlay;
pub mod shard;
pub mod trace;
pub mod wire;

pub use ball::{
    collect_ball_centered, run_ball_phase, run_reach_phase, BallMsg, BallView, CenterMsg, ReachMsg,
};
pub use congest::{
    compile, enforce_congest, enforced_budget, CongestChunk, CongestEngine, CongestGuard,
    Fragmenter, PipelineScheduler, Reassembler, MIN_CONGEST_BITS,
};
pub use engine::{
    force_exec_mode, BandwidthPolicy, Engine, EngineError, ExecMode, ExecModeGuard, MessageStats,
    NodeCtx, Outbox, RoundDriver, PARALLEL_THRESHOLD,
};
pub use faults::{CrashWindow, FaultCounters, FaultEvent, FaultKind, FaultPlan, FaultyDriver, PPM};
pub use ledger::RoundLedger;
pub use overlay::{
    InducedOverlay, OverlayEngine, OverlayEnvelope, OverlayRelay, PowerOverlay, RelayItem,
    VirtualTopology,
};
pub use shard::{BoundaryStats, ShardedEngine};
pub use trace::{
    parse_trace_line, JsonlSink, PhaseSpan, ProgressSink, RoundMeta, RoundRecord, RunManifest,
    SpanAgg, SpanRecord, TraceLine, TraceSink, TraceSummary, TraceTotals, Tracer, VirtualRecord,
    CONGEST_LEVEL, FLUSH_PHASE, TRACE_SCHEMA,
};
pub use wire::{congest_budget, BitReader, BitWriter, WireCodec};
