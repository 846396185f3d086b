//! The synchronous LOCAL-round execution engine.
//!
//! [`Engine`] drives a node program over a graph in explicit
//! synchronous rounds. Each round has two phases:
//!
//! 1. **send** — every node reads (and may update) its own state and
//!    fills an [`Outbox`]: one optional broadcast to all neighbors plus
//!    any number of per-neighbor directed messages;
//! 2. **recv** — messages are delivered simultaneously and every node
//!    updates its state from its inbox.
//!
//! The two-phase structure enforces LOCAL-model synchrony: a node
//! cannot observe a neighbor's round-`t` message before round `t + 1`.
//!
//! # One partitioned round
//!
//! Every round runs on a partition of the nodes into contiguous,
//! ascending *parts*. A node's home part is the only one that steps its
//! program, advances its RNG stream, or writes its inbox, so parts need
//! no locks. A round is:
//!
//! 1. **send + stage** (per part): run the part's send closures, then
//!    walk its senders in ascending id order. Each directed message
//!    `w → v` is resolved to its destination *arc* (the graph's
//!    directed half-edges, [`Graph::arc_range`]) with one `O(log Δ)`
//!    [`Graph::neighbor_position`] lookup — which doubles as the
//!    non-neighbor check: the message is discarded and the first
//!    offender surfaces as a typed [`EngineError`], a panic via
//!    [`Engine::step`] or a value via [`Engine::try_step`] — plus the
//!    graph's cached [`Graph::reverse_arcs`] table, and is appended to
//!    the stream for `v`'s home part: the intra stream, or one stream
//!    per other part.
//! 2. **exchange** (the only barrier): part `s`'s stream for part `t`
//!    is handed to `t`.
//! 3. **merge + deliver + recv** (per part): concatenate the inbound
//!    streams in source-part order, group them by recipient with a
//!    stable counting sort, sweep the per-edge bandwidth, then build the
//!    inboxes in a strictly forward sweep of a flat `Vec<(NodeId, M)>`
//!    arena — node `v`'s inbox is the contiguous slice written while
//!    walking `v`'s arcs in order, each neighbor contributing its
//!    broadcast before its directed messages — and hand every node its
//!    inbox as a **borrowed slice** of the arena. Recipients are
//!    processed in blocks of roughly [`ARENA_BLOCK`] messages, each
//!    block filled and consumed before the arena is reused, so delivery
//!    memory is bounded by the block rather than the round's traffic.
//!
//! # Where parts come from
//!
//! * **The execution mode** ([`Engine::new`]): one part for
//!   [`ExecMode::Sequential`] and for [`ExecMode::Auto`] below
//!   [`PARALLEL_THRESHOLD`] nodes; otherwise `max(2, worker threads)`
//!   parts, each phase fanned out over them on worker threads. Streams
//!   change hands in memory and a neighbor's broadcast is read in place
//!   from its sender's outbox: nothing is encoded.
//! * **A [`ShardPlan`]** ([`Engine::sharded`], [`Engine::contiguous`]):
//!   the distributed-memory rehearsal. The parts are the plan's shards,
//!   and every stream between two shards travels as one
//!   [`WireCodec`]-encoded boundary block per ordered shard pair per
//!   round (see [`crate::shard`]), metered in [`BoundaryStats`].
//!
//! # Determinism: source-part order is sender order
//!
//! Parts own contiguous, ascending node ranges and stage their senders
//! in ascending order, so concatenating a part's inbound streams in
//! source-part order reproduces the global send order restricted to its
//! recipients. Adjacency is sorted, so a recipient's arcs ascend with
//! the sender id, and the stable counting sort leaves every recipient's
//! bucket grouped by arc with ties in send order — the exact buckets of
//! a one-part round. Every inbox slot therefore holds the same
//! `(sender, payload)` pair for every partition and transport (which is
//! also why fault injection, a pure hash of round/arc/slot coordinates,
//! produces identical transcripts), per-node RNG streams make the
//! thread schedule irrelevant, and all accounting reduces with integer
//! sums and maxima. `tests/delivery_equivalence.rs` pins the round
//! against a naive reference, and the determinism and
//! `sharded_equivalence` suites pin it across modes and plans.
//!
//! # Allocation
//!
//! The per-message-type delivery scratch (`M` differs per
//! [`Engine::step`] call) lives in a small type-keyed map inside the
//! engine; every buffer keeps its capacity across rounds, so after
//! warm-up a one-part round allocates nothing for `Copy` payloads
//! (`tests/alloc_audit.rs`). A multi-part round adds the vendored rayon
//! stand-in's allocations for its two fan-outs, and the wire transport
//! allocates its boundary blocks.
//!
//! # Accounting
//!
//! Every round is charged to a named phase on a
//! [`crate::RoundLedger`], and the engine keeps [`MessageStats`]:
//! broadcast/directed message counts, deliveries, and — because every
//! message type implements [`WireCodec`] — exact CONGEST-style bit
//! accounting. The engine charges each message's
//! [`WireCodec::encoded_bits`] (no serialization happens on the
//! in-memory path; the wire bytes exist only in boundary blocks and the
//! codec test suites), tracks the heaviest per-edge-per-round load, and,
//! under [`BandwidthPolicy::Congest`], counts every (edge, round) pair
//! whose load exceeds the budget. The same numbers are charged to the
//! round's [`crate::RoundLedger`], so whole algorithms surface their
//! bandwidth footprint end to end.

use crate::ledger::RoundLedger;
use crate::shard::{decode_block, encode_block, part_arc_bounds, BoundaryBlock, BoundaryStats};
use crate::wire::WireCodec;
use delta_graphs::{Graph, NodeId, ShardPlan};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rayon::prelude::*;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Per-node execution context handed to node programs: the node's
/// identity, degree, and a deterministic private random generator.
pub struct NodeCtx<'a> {
    /// The node this context belongs to.
    pub id: NodeId,
    /// Degree of the node in the communication graph.
    pub degree: usize,
    /// The node's private randomness (deterministic per seed/node).
    pub rng: &'a mut StdRng,
}

impl NodeCtx<'_> {
    /// Draws a uniform `f64` in `[0, 1)`.
    pub fn random_f64(&mut self) -> f64 {
        self.rng.random()
    }

    /// Draws a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn random_below(&mut self, bound: u64) -> u64 {
        self.rng.random_range(0..bound)
    }
}

/// A node's outgoing messages for one round: at most one broadcast to
/// all neighbors, plus directed messages to individual neighbors.
#[derive(Debug)]
pub struct Outbox<M> {
    broadcast: Option<M>,
    directed: Vec<(NodeId, M)>,
}

impl<M> Outbox<M> {
    pub(crate) fn new() -> Self {
        Outbox {
            broadcast: None,
            directed: Vec::new(),
        }
    }

    /// Empties the outbox for the next round, retaining the directed
    /// buffer's capacity.
    pub(crate) fn reset(&mut self) {
        self.broadcast = None;
        self.directed.clear();
    }

    /// The queued broadcast and directed messages (overlay compilation
    /// reads outboxes to build relay envelopes).
    pub(crate) fn parts(&self) -> (Option<&M>, &[(NodeId, M)]) {
        (self.broadcast.as_ref(), &self.directed)
    }

    /// Drops queued directed messages that fail `keep` (the overlay's
    /// eager validity check, mirroring the engine's staging drop).
    pub(crate) fn retain_directed(&mut self, keep: impl FnMut(&(NodeId, M)) -> bool) {
        self.directed.retain(keep);
    }

    /// Sends `msg` to every neighbor. At most one broadcast per round;
    /// a second call replaces the first.
    pub fn broadcast(&mut self, msg: M) {
        self.broadcast = Some(msg);
    }

    /// Sends `msg` to the single neighbor `to`. Messages to the same
    /// neighbor arrive in send order, after any broadcast.
    pub fn send_to(&mut self, to: NodeId, msg: M) {
        self.directed.push((to, msg));
    }

    /// Whether nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.broadcast.is_none() && self.directed.is_empty()
    }
}

/// How the engine schedules the per-node compute within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Single-threaded reference schedule.
    Sequential,
    /// Worker threads for both phases of every round.
    Parallel,
    /// Parallel for graphs with at least [`PARALLEL_THRESHOLD`] nodes,
    /// sequential below (thread fan-out costs more than it saves on
    /// small graphs).
    Auto,
}

/// Node count at which [`ExecMode::Auto`] switches to worker threads.
pub const PARALLEL_THRESHOLD: usize = 4096;

/// Process-wide override of every engine's execution mode: 0 = none,
/// 1 = force sequential, 2 = force parallel. Used by the determinism
/// regression tests to drive whole algorithms down both schedules.
static FORCE_MODE: AtomicU8 = AtomicU8::new(0);

/// Serializes [`ExecModeGuard`] holders: at most one override is live
/// at a time, so concurrently running tests queue up instead of
/// stomping each other's mode.
static FORCE_MODE_LOCK: Mutex<()> = Mutex::new(());

/// Scoped override of every engine's execution mode (RAII).
///
/// While the guard lives, every [`Engine`] in the process runs the
/// forced schedule; dropping it restores per-engine modes. Guards
/// acquire a process-wide lock, so two threads forcing modes
/// concurrently serialize instead of racing — `cargo test`'s parallel
/// test threads cannot corrupt each other's forced schedule.
#[must_use = "the override ends when the guard is dropped"]
pub struct ExecModeGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ExecModeGuard {
    fn drop(&mut self) {
        FORCE_MODE.store(0, Ordering::SeqCst);
    }
}

/// Forces the execution mode of every engine in the process for the
/// lifetime of the returned guard. Intended for tests that compare the
/// sequential and parallel schedules.
///
/// Blocks until any other live guard is dropped.
pub fn force_exec_mode(mode: ExecMode) -> ExecModeGuard {
    let lock = FORCE_MODE_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let v = match mode {
        ExecMode::Auto => 0,
        ExecMode::Sequential => 1,
        ExecMode::Parallel => 2,
    };
    FORCE_MODE.store(v, Ordering::SeqCst);
    ExecModeGuard { _lock: lock }
}

/// A typed failure of one engine round — the conditions that used to
/// be hot-path `expect`/`debug_assert!` panics. [`Engine::try_step`]
/// surfaces them as values so fault and robustness tests can assert on
/// the failure mode; [`Engine::step`] still panics on them (they are
/// program bugs, not runtime conditions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A node addressed a directed message to a non-neighbor. In the
    /// LOCAL model there is no route for it; the round still completes
    /// with the message discarded, and the first offender is reported.
    InvalidDirectedTarget {
        /// The sending node.
        from: NodeId,
        /// The addressed non-neighbor.
        to: NodeId,
    },
    /// The type-keyed delivery scratch resolved to a mailbox of a
    /// different message type (unreachable unless `TypeId` lies).
    ScratchTypeConflict,
    /// A staged boundary-block message's destination arc fell outside
    /// the destination shard's arc range — a violation of the
    /// single-owner discipline (only a node's home part may fill its
    /// inbox), caught by the `arc_range` check at the boundary-block
    /// encode site. Unreachable through the public API: staging derives
    /// every destination arc from the recipient's own adjacency, and the
    /// block's target shard is the recipient's home.
    CrossShardArc {
        /// The sending node.
        from: NodeId,
        /// The staged destination arc.
        arc: u32,
        /// The shard whose boundary block the message was staged into.
        shard: u32,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidDirectedTarget { from, to } => write!(
                f,
                "node {from} sent a directed message to non-neighbor {to}"
            ),
            EngineError::ScratchTypeConflict => {
                f.write_str("delivery scratch resolved to a mismatched message type")
            }
            EngineError::CrossShardArc { from, arc, shard } => write!(
                f,
                "node {from} staged destination arc {arc} outside shard {shard}'s arc range"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Per-edge-per-round bandwidth regime the engine accounts against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BandwidthPolicy {
    /// The LOCAL model: unbounded messages, no violations.
    #[default]
    Local,
    /// The CONGEST model: every directed edge may carry at most `bits`
    /// bits per round; heavier (edge, round) pairs are counted in
    /// [`MessageStats::congest_violations`] (accounting only — delivery
    /// is never truncated, so results are unaffected).
    Congest {
        /// Per-edge-per-round bit budget.
        bits: u64,
    },
}

impl BandwidthPolicy {
    /// The `O(log n)` CONGEST policy for an `n`-node graph
    /// (budget [`crate::wire::congest_budget`]).
    pub fn congest_for(n: usize) -> Self {
        BandwidthPolicy::Congest {
            bits: crate::wire::congest_budget(n as u64),
        }
    }

    /// The per-edge-per-round budget (`u64::MAX` under `Local`).
    fn budget(self) -> u64 {
        match self {
            BandwidthPolicy::Local => u64::MAX,
            BandwidthPolicy::Congest { bits } => bits,
        }
    }
}

/// Message-volume and bandwidth counters, accumulated across rounds.
/// One broadcast counts once in `broadcasts` and `degree(sender)` times
/// in `deliveries`; a directed message counts once in each. Bits are
/// per-transmission: a broadcast's [`WireCodec::encoded_bits`] is
/// charged once per incident edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Broadcast messages queued.
    pub broadcasts: u64,
    /// Directed (per-neighbor) messages queued.
    pub directed: u64,
    /// Point-to-point deliveries performed.
    pub deliveries: u64,
    /// Total bits transmitted, summed over every directed edge each
    /// message (or broadcast copy) traversed.
    pub bits_sent: u64,
    /// Maximum bits carried by a single directed edge in one round.
    pub max_edge_bits: u64,
    /// (edge, round) pairs whose load exceeded the
    /// [`BandwidthPolicy::Congest`] budget (always 0 under `Local`).
    pub congest_violations: u64,
}

/// Directed traffic from one part to another (or to itself): staged
/// messages as `(destination arc, payload)` in send order, with each
/// message's recipient (global node id) alongside.
pub(crate) struct Stream<M> {
    pub(crate) items: Vec<(u32, M)>,
    pub(crate) to: Vec<u32>,
}

impl<M> Stream<M> {
    pub(crate) fn new() -> Self {
        Stream {
            items: Vec::new(),
            to: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, arc: u32, to: u32, msg: M) {
        self.items.push((arc, msg));
        self.to.push(to);
    }

    fn clear(&mut self) {
        self.items.clear();
        self.to.clear();
    }

    /// Moves all of `other`'s traffic onto the end of this stream.
    fn append(&mut self, other: &mut Stream<M>) {
        self.items.append(&mut other.items);
        self.to.append(&mut other.to);
    }
}

/// One part's phase-1 counters for the current round.
#[derive(Default)]
struct Tally {
    broadcasts: u64,
    directed: u64,
    deliveries: u64,
    /// First directed message to a non-neighbor in this part's send
    /// order.
    invalid: Option<(NodeId, NodeId)>,
    boundary: BoundaryStats,
    /// A cross-shard arc caught at the encode site (aborts the round).
    error: Option<EngineError>,
}

/// Bandwidth totals of one round (per part, then folded).
#[derive(Debug, Clone, Copy, Default)]
struct Bandwidth {
    /// Bits transmitted (per-edge-traversal accounting).
    bits: u64,
    /// Heaviest per-directed-edge load.
    max_edge_bits: u64,
    /// Edges over the CONGEST budget.
    violations: u64,
}

impl Bandwidth {
    fn fold(&mut self, other: Bandwidth) {
        self.bits += other.bits;
        self.max_edge_bits = self.max_edge_bits.max(other.max_edge_bits);
        self.violations += other.violations;
    }

    /// Charges one directed edge carrying `load` bits.
    fn edge(&mut self, load: u64, budget: u64) {
        self.max_edge_bits = self.max_edge_bits.max(load);
        if load > budget {
            self.violations += 1;
        }
    }
}

/// One part's per-message-type scratch: its staging streams, delivery
/// buffers and per-round results. Every buffer retains its capacity
/// across rounds.
struct Part<M> {
    index: usize,
    /// Owned node range `[lo, hi)`.
    lo: usize,
    hi: usize,
    /// Owned arc range (the arcs leaving the part's nodes).
    arc_lo: usize,
    arc_hi: usize,
    /// One stream per part. During staging, slot `t` collects the
    /// traffic for part `t`; the exchange transposes the parts' stream
    /// matrices, after which slot `s` holds the traffic from part `s`.
    streams: Vec<Stream<M>>,
    /// Encoded boundary blocks (wire transport), indexed like
    /// `streams`: by target part before the exchange, by source part
    /// after it.
    blocks: Vec<Option<BoundaryBlock>>,
    /// Wire transport: per target part, the local indices of own
    /// broadcasters with a neighbor there, ascending.
    bcast_to: Vec<Vec<u32>>,
    /// Wire transport: decoded remote broadcasters `(sender, wire bits,
    /// payload)`, ascending by sender.
    remote: Vec<(u32, u64, M)>,
    /// Local indices of own nodes that broadcast this round.
    bcast_senders: Vec<u32>,
    /// Per own node, the number of distinct arcs that carried at least
    /// one of its directed messages this round: the broadcaster's other
    /// edges carried *only* the broadcast. Reset through `dir_senders`,
    /// so cleanup stays O(traffic).
    dir_arc_count: Vec<u32>,
    /// Own nodes with a nonzero `dir_arc_count`.
    dir_senders: Vec<u32>,
    /// Epoch-stamped marks over the part's own source arcs:
    /// `src_mark[a - arc_lo] == src_epoch` iff arc `a` already carried a
    /// directed message this round. Sized on first directed use, so
    /// broadcast-only programs never pay for it.
    src_mark: Vec<u32>,
    src_epoch: u32,
    /// Counting-sort cursors/bounds over local recipients (`len + 1`
    /// entries): after the sort, local recipient `v`'s bucket is
    /// `dir_idx[bucket_bounds(dir_start, v)]`.
    dir_start: Vec<u32>,
    /// Indices into the merged stream, bucketed by recipient.
    dir_idx: Vec<u32>,
    /// The inbox arena, filled one recipient block at a time: while
    /// block `[i0, i1)` is being delivered, local node `i`'s inbox is
    /// `arena[inbox_start[i] .. inbox_start[i + 1]]`.
    arena: Vec<(NodeId, M)>,
    inbox_start: Vec<u32>,
    tally: Tally,
    bandwidth: Bandwidth,
    max_inbox: usize,
}

impl<M> Part<M> {
    fn new(graph: &Graph, plan: &ShardPlan, index: usize) -> Self {
        let range = plan.range(index);
        let (arc_lo, arc_hi) = part_arc_bounds(graph, plan, index);
        let parts = plan.num_shards();
        Part {
            index,
            lo: range.start,
            hi: range.end,
            arc_lo,
            arc_hi,
            streams: (0..parts).map(|_| Stream::new()).collect(),
            blocks: (0..parts).map(|_| None).collect(),
            bcast_to: vec![Vec::new(); parts],
            remote: Vec::new(),
            bcast_senders: Vec::new(),
            dir_arc_count: vec![0; range.len()],
            dir_senders: Vec::new(),
            src_mark: Vec::new(),
            src_epoch: 0,
            dir_start: vec![0; range.len() + 1],
            dir_idx: Vec::new(),
            arena: Vec::new(),
            inbox_start: vec![0; range.len() + 1],
            tally: Tally::default(),
            bandwidth: Bandwidth::default(),
            max_inbox: 0,
        }
    }
}

/// Reusable per-message-type delivery scratch: the persistent outboxes
/// and broadcast sizes (one per node, written by the home part during
/// staging and read by every part during delivery) plus one [`Part`]
/// per part of the current partition.
struct Scratch<M> {
    outboxes: Vec<Outbox<M>>,
    /// Each node's broadcast size in bits this round (0 without one).
    bcast_bits: Vec<u64>,
    parts: Vec<Part<M>>,
}

impl<M> Scratch<M> {
    fn new() -> Self {
        Scratch {
            outboxes: Vec::new(),
            bcast_bits: Vec::new(),
            parts: Vec::new(),
        }
    }

    /// Sizes the buffers for `graph` and `plan` (no-op after warm-up,
    /// until the partition changes).
    fn ensure_shape(&mut self, graph: &Graph, plan: &ShardPlan) {
        if self.outboxes.len() != graph.n() {
            self.outboxes.resize_with(graph.n(), Outbox::new);
            self.bcast_bits.resize(graph.n(), 0);
        }
        let stale = self.parts.len() != plan.num_shards()
            || self
                .parts
                .iter()
                .any(|p| (p.lo..p.hi) != plan.range(p.index));
        if stale {
            self.parts = (0..plan.num_shards())
                .map(|i| Part::new(graph, plan, i))
                .collect();
        }
    }
}

/// What every part reads during a round.
struct Layout<'a> {
    graph: &'a Graph,
    plan: &'a ShardPlan,
    /// Cross-part streams travel as encoded boundary blocks.
    wire: bool,
    /// Per-edge-per-round bit budget.
    budget: u64,
}

/// Synchronous message-passing executor over a graph.
///
/// `S` is the per-node state. Each [`Engine::step`] call is exactly one
/// LOCAL round and is charged to the ledger.
///
/// # Example
///
/// Flood the minimum id for 3 rounds:
///
/// ```
/// use delta_graphs::generators;
/// use local_model::{Engine, RoundLedger};
///
/// let g = generators::cycle(8);
/// let mut ledger = RoundLedger::new();
/// let mut engine = Engine::new(&g, 42, |v| v.0);
/// for _ in 0..3 {
///     engine.step(
///         &mut ledger,
///         "flood-min",
///         |_, &mut s, out| out.broadcast(s),
///         |_, s, inbox| {
///             for &(_, m) in inbox {
///                 *s = (*s).min(m);
///             }
///         },
///     );
/// }
/// assert_eq!(ledger.total(), 3);
/// assert!(engine.states().iter().filter(|&&s| s == 0).count() >= 7);
/// ```
pub struct Engine<'g, S> {
    graph: &'g Graph,
    states: Vec<S>,
    rngs: Vec<StdRng>,
    mode: ExecMode,
    policy: BandwidthPolicy,
    /// The partition rounds run on: fixed when `wire`, otherwise
    /// re-derived from the execution mode before each round.
    plan: ShardPlan,
    /// Whether `plan` came from the constructor, making cross-part
    /// streams travel as encoded boundary blocks.
    wire: bool,
    rounds_run: u64,
    stats: MessageStats,
    boundary: BoundaryStats,
    /// Per-message-type [`Scratch`], keyed by `TypeId::of::<M>()`.
    /// Buffers are created on the first `step::<M>` call and reused for
    /// the engine's lifetime, making steady-state rounds allocation-free.
    scratch: HashMap<TypeId, Box<dyn Any + Send>>,
}

/// The deterministic per-node RNG streams an engine seeded with `seed`
/// hands out: node `i` gets the `i`-th stream. Shared with the ball
/// subsystem so that 0-round phases draw from the same streams an
/// engine execution would.
pub(crate) fn node_rngs(seed: u64, n: usize) -> Vec<StdRng> {
    let mut master = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| StdRng::seed_from_u64(master.next_u64()))
        .collect()
}

impl<'g, S: Send> Engine<'g, S> {
    /// Creates an engine with per-node state from `init` and
    /// deterministic per-node RNG streams derived from `seed`. Its
    /// partition follows the execution mode (see the module docs).
    pub fn new(graph: &'g Graph, seed: u64, init: impl Fn(NodeId) -> S) -> Self {
        let rngs = node_rngs(seed, graph.n());
        Self::with_rngs(graph, rngs, init, None)
    }

    /// Engine whose nodes all share clones of **one** RNG stream — for
    /// the overlay's internal relay programs, which are deterministic
    /// and never draw randomness: cloning a state is much cheaper than
    /// `n` independent ChaCha seedings, and relay engines are built
    /// once per virtual round.
    pub(crate) fn new_relay(graph: &'g Graph, init: impl Fn(NodeId) -> S) -> Self {
        let base = StdRng::seed_from_u64(0);
        let rngs = vec![base; graph.n()];
        Self::with_rngs(graph, rngs, init, None)
    }

    /// Creates an engine whose parts are the shards of `plan`, with the
    /// same states and RNG streams [`Engine::new`] would hand out: every
    /// stream between two shards travels as an encoded boundary block
    /// (see [`crate::shard`]). Results are bit-identical to
    /// [`Engine::new`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not partition exactly `graph.n()` nodes.
    pub fn sharded(
        graph: &'g Graph,
        plan: ShardPlan,
        seed: u64,
        init: impl Fn(NodeId) -> S,
    ) -> Self {
        assert_eq!(plan.n(), graph.n(), "plan must partition the graph");
        Self::with_rngs(graph, node_rngs(seed, graph.n()), init, Some(plan))
    }

    /// [`Engine::sharded`] over an equal-count contiguous partition into
    /// `shards` shards.
    pub fn contiguous(
        graph: &'g Graph,
        shards: usize,
        seed: u64,
        init: impl Fn(NodeId) -> S,
    ) -> Self {
        Self::sharded(graph, ShardPlan::contiguous(graph.n(), shards), seed, init)
    }

    fn with_rngs(
        graph: &'g Graph,
        rngs: Vec<StdRng>,
        init: impl Fn(NodeId) -> S,
        plan: Option<ShardPlan>,
    ) -> Self {
        let states = graph.nodes().map(init).collect();
        Engine {
            graph,
            states,
            rngs,
            mode: ExecMode::Auto,
            policy: BandwidthPolicy::Local,
            wire: plan.is_some(),
            plan: plan.unwrap_or_else(|| ShardPlan::contiguous(graph.n(), 1)),
            rounds_run: 0,
            stats: MessageStats::default(),
            boundary: BoundaryStats::default(),
            scratch: HashMap::new(),
        }
    }

    /// Sets the execution mode (builder style). With a shard plan,
    /// `Sequential` runs the shards one after another and `Parallel`
    /// fans them out to worker threads; results are bit-identical
    /// either way.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the bandwidth policy (builder style). The policy only
    /// changes the accounting ([`MessageStats::congest_violations`]);
    /// delivery is never truncated.
    pub fn with_bandwidth(mut self, policy: BandwidthPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The bandwidth policy accounting runs under.
    pub fn bandwidth_policy(&self) -> BandwidthPolicy {
        self.policy
    }

    /// The communication graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Immutable view of all node states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable view of all node states (for out-of-band initialization,
    /// not for communication — use [`Engine::step`] for that).
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// Consumes the engine, returning the final states.
    pub fn into_states(self) -> Vec<S> {
        self.states
    }

    /// Number of rounds executed so far.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Message-volume counters accumulated so far — identical for
    /// every partition and transport.
    pub fn message_stats(&self) -> MessageStats {
        self.stats
    }

    /// Boundary-block wire counters: the shard plan's own cost (always
    /// zero without one).
    pub fn boundary_stats(&self) -> BoundaryStats {
        self.boundary
    }

    /// Executes one synchronous round given as a closure pair: `send`
    /// fills each node's outbox, `recv` consumes each node's inbox.
    ///
    /// Both closures must be `Sync`: they run concurrently across nodes
    /// in parallel mode. All per-node mutability flows through the
    /// `&mut` state and the node-private RNG in the context.
    ///
    /// # Panics
    ///
    /// Panics on an [`EngineError`] (e.g. a directed message to a
    /// non-neighbor — a program bug). Use [`Engine::try_step`] to
    /// observe the failure as a value instead.
    pub fn step<M, SEND, RECV>(
        &mut self,
        ledger: &mut RoundLedger,
        phase: &str,
        send: SEND,
        recv: RECV,
    ) where
        M: Clone + Send + Sync + WireCodec + 'static,
        SEND: Fn(&mut NodeCtx<'_>, &mut S, &mut Outbox<M>) + Sync,
        RECV: Fn(&mut NodeCtx<'_>, &mut S, &[(NodeId, M)]) + Sync,
    {
        if let Err(e) = self.try_step(ledger, phase, send, recv) {
            panic!("engine round failed: {e}");
        }
    }

    /// [`Engine::step`] with typed errors instead of panics: the round
    /// executes identically (an invalid directed message is discarded
    /// during staging, everything else is delivered and charged), and
    /// any [`EngineError`] observed is returned after the round
    /// completes — so callers can assert on failure modes without
    /// unwinding, and a fault harness can keep driving the engine past
    /// a misbehaving program.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidDirectedTarget`] reports the first (in
    /// global send order) directed message addressed to a non-neighbor.
    /// [`EngineError::CrossShardArc`] aborts the round at the exchange
    /// barrier, before any delivery (an internal invariant of the wire
    /// transport, unreachable through the public API), and
    /// [`EngineError::ScratchTypeConflict`] reports a corrupted
    /// delivery-scratch map (never constructible through the public
    /// API).
    pub fn try_step<M, SEND, RECV>(
        &mut self,
        ledger: &mut RoundLedger,
        phase: &str,
        send: SEND,
        recv: RECV,
    ) -> Result<(), EngineError>
    where
        M: Clone + Send + Sync + WireCodec + 'static,
        SEND: Fn(&mut NodeCtx<'_>, &mut S, &mut Outbox<M>) + Sync,
        RECV: Fn(&mut NodeCtx<'_>, &mut S, &[(NodeId, M)]) + Sync,
    {
        let graph = self.graph;
        let n = graph.n();
        let parallel = resolve_parallel(self.mode, n);
        if !self.wire {
            // At least two parts whenever the round runs on worker
            // threads, so the multi-part merge runs (and stays exact)
            // even on a single-core host.
            let parts = if parallel {
                rayon::current_num_threads().max(2)
            } else {
                1
            };
            if self.plan.num_shards() != parts.clamp(1, n.max(1)) {
                self.plan = ShardPlan::contiguous(n, parts);
            }
        }
        // Trace enrichment starts the round clock and snapshots the
        // cumulative stats (for per-round deltas) only when a sink is
        // attached — the untraced path pays one branch, no clock read.
        let trace_start = if ledger.tracing() {
            Some((std::time::Instant::now(), self.stats))
        } else {
            None
        };
        let scratch: &mut Scratch<M> = self
            .scratch
            .entry(TypeId::of::<M>())
            .or_insert_with(|| Box::new(Scratch::<M>::new()))
            .downcast_mut()
            .ok_or(EngineError::ScratchTypeConflict)?;
        let plan = &self.plan;
        scratch.ensure_shape(graph, plan);
        let Scratch {
            outboxes,
            bcast_bits,
            parts,
        } = scratch;
        let at = Layout {
            graph,
            plan,
            wire: self.wire,
            budget: self.policy.budget(),
        };
        let fan_out = parallel && parts.len() > 1;

        // Phase 1: send + stage, per part.
        let tasks = parts
            .iter_mut()
            .zip(split_by(&mut self.states, plan))
            .zip(split_by(&mut self.rngs, plan))
            .zip(split_by(outboxes, plan).zip(split_by(bcast_bits, plan)));
        for_each_part(fan_out, tasks, |(((part, states), rngs), (outs, bits))| {
            part.stage(&at, states, rngs, outs, bits, &send)
        });

        // A cross-shard arc (single-owner violation) aborts the round
        // before any delivery or accounting.
        if let Some(e) = parts.iter().find_map(|p| p.tally.error) {
            return Err(e);
        }
        // Merge the staging tallies in part order — which is global send
        // order, so the first invalid target found is the first sent.
        let mut invalid: Option<(NodeId, NodeId)> = None;
        let mut trace_boundary: Vec<(u64, u64)> = Vec::new();
        for part in parts.iter() {
            let t = &part.tally;
            invalid = invalid.or(t.invalid);
            self.stats.broadcasts += t.broadcasts;
            self.stats.directed += t.directed;
            self.stats.deliveries += t.deliveries;
            self.boundary.add(t.boundary);
            if self.wire && trace_start.is_some() {
                trace_boundary.push((t.boundary.blocks, t.boundary.block_bits));
            }
        }
        exchange(parts);

        // Phase 2: merge + deliver + recv, per part.
        let (outboxes, bcast_bits) = (&*outboxes, &*bcast_bits);
        let tasks = parts
            .iter_mut()
            .zip(split_by(&mut self.states, plan))
            .zip(split_by(&mut self.rngs, plan));
        for_each_part(fan_out, tasks, |((part, states), rngs)| {
            part.deliver(&at, states, rngs, outboxes, bcast_bits, &recv)
        });

        let mut bw = Bandwidth::default();
        let mut max_inbox = 0;
        for part in parts.iter() {
            bw.fold(part.bandwidth);
            max_inbox = max_inbox.max(part.max_inbox);
        }
        self.stats.bits_sent += bw.bits;
        self.stats.max_edge_bits = self.stats.max_edge_bits.max(bw.max_edge_bits);
        self.stats.congest_violations += bw.violations;
        let meta = trace_start.map(|(t0, pre)| crate::trace::RoundMeta {
            round: self.rounds_run,
            wall_ns: t0.elapsed().as_nanos() as u64,
            broadcasts: self.stats.broadcasts - pre.broadcasts,
            directed: self.stats.directed - pre.directed,
            deliveries: self.stats.deliveries - pre.deliveries,
            max_inbox: max_inbox as u64,
            boundary: trace_boundary,
        });
        self.rounds_run += 1;
        ledger.charge_round(phase, bw.bits, bw.max_edge_bits, bw.violations, meta);
        match invalid {
            Some((from, to)) => Err(EngineError::InvalidDirectedTarget { from, to }),
            None => Ok(()),
        }
    }
}

/// Resolves the effective schedule for a round over `n` compute units,
/// honoring any live [`force_exec_mode`] override. Shared by [`Engine`]
/// and the overlay engine so both follow the same forced schedule in
/// the determinism suites.
pub(crate) fn resolve_parallel(mode: ExecMode, n: usize) -> bool {
    match FORCE_MODE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => match mode {
            ExecMode::Sequential => false,
            ExecMode::Parallel => true,
            ExecMode::Auto => n >= PARALLEL_THRESHOLD,
        },
    }
}

/// The round-execution surface shared by [`Engine`] (host graph) and
/// [`crate::overlay::OverlayEngine`] (virtual topology compiled onto
/// the host graph): one synchronous round per [`RoundDriver::round_step`]
/// call, with node states indexable `0..node_count`.
///
/// Algorithms written against this trait — Luby MIS, the reach/ball
/// floods, list coloring — run unchanged on the host graph, on `G^k`,
/// and on induced subgraphs; only the driver construction differs. Node
/// ids seen by the closures are the driver's *virtual* ids (host ids
/// for `Engine`, compacted member ranks for an overlay — exactly the id
/// space a materialized virtual graph would present).
pub trait RoundDriver<S: Send> {
    /// Number of (virtual) nodes the driver executes.
    fn node_count(&self) -> usize;

    /// Executes one synchronous round; rounds and measured bandwidth
    /// are charged to `phase` on the ledger (an overlay charges its
    /// full dilation: `k` host rounds per virtual round).
    fn round_step<M, SEND, RECV>(
        &mut self,
        ledger: &mut RoundLedger,
        phase: &str,
        send: SEND,
        recv: RECV,
    ) where
        M: Clone + Send + Sync + WireCodec + 'static,
        SEND: Fn(&mut NodeCtx<'_>, &mut S, &mut Outbox<M>) + Sync,
        RECV: Fn(&mut NodeCtx<'_>, &mut S, &[(NodeId, M)]) + Sync;

    /// Immutable view of all node states (indexed by virtual id).
    fn node_states(&self) -> &[S];

    /// Replaces the policy the driver's accounting runs under (for an
    /// overlay: the policy of its dilation-1 relay rounds; accounting
    /// only — delivery is never truncated).
    /// [`crate::congest::CongestEngine`] uses it to switch the driver it
    /// wraps onto the CONGEST regime.
    fn set_bandwidth_policy(&mut self, policy: BandwidthPolicy);

    /// Consumes the driver, returning the final states.
    fn into_node_states(self) -> Vec<S>
    where
        Self: Sized;
}

impl<S: Send> RoundDriver<S> for Engine<'_, S> {
    fn node_count(&self) -> usize {
        self.graph.n()
    }

    fn round_step<M, SEND, RECV>(
        &mut self,
        ledger: &mut RoundLedger,
        phase: &str,
        send: SEND,
        recv: RECV,
    ) where
        M: Clone + Send + Sync + WireCodec + 'static,
        SEND: Fn(&mut NodeCtx<'_>, &mut S, &mut Outbox<M>) + Sync,
        RECV: Fn(&mut NodeCtx<'_>, &mut S, &[(NodeId, M)]) + Sync,
    {
        self.step(ledger, phase, send, recv);
    }

    fn node_states(&self) -> &[S] {
        self.states()
    }

    fn set_bandwidth_policy(&mut self, policy: BandwidthPolicy) {
        self.policy = policy;
    }

    fn into_node_states(self) -> Vec<S> {
        self.into_states()
    }
}

/// Soft cap on arena entries per delivery block. One block handles the
/// whole round for every sparse graph in the experiment sweep; dense
/// power graphs split into blocks that keep the arena within cache
/// instead of materializing hundreds of megabytes of inboxes at once.
/// A single recipient may exceed the cap (its inbox must be one
/// contiguous slice), so this bounds memory at
/// `max(ARENA_BLOCK, largest single inbox)` entries per part.
pub const ARENA_BLOCK: usize = 1 << 18;

/// Bucket of directed-message indices for local recipient `v` inside
/// `dir_idx` (see [`Part::dir_start`]'s cursor-shift layout).
fn bucket_bounds(dir_start: &[u32], v: usize) -> std::ops::Range<usize> {
    let start = if v == 0 { 0 } else { dir_start[v - 1] as usize };
    start..dir_start[v] as usize
}

/// Splits `xs` (one entry per node) into the plan's consecutive part
/// slices.
fn split_by<'a, T>(
    mut xs: &'a mut [T],
    plan: &'a ShardPlan,
) -> impl Iterator<Item = &'a mut [T]> + 'a {
    (0..plan.num_shards()).map(move |p| {
        let (part, rest) = std::mem::take(&mut xs).split_at_mut(plan.range(p).len());
        xs = rest;
        part
    })
}

/// Runs `f` on every part's task: on worker threads when `fan_out`,
/// otherwise in part order (allocation-free).
fn for_each_part<T: Send>(fan_out: bool, tasks: impl Iterator<Item = T>, f: impl Fn(T) + Sync) {
    if fan_out {
        tasks.collect::<Vec<T>>().into_par_iter().for_each(f);
    } else {
        tasks.for_each(f);
    }
}

/// The exchange barrier: transposes the parts' stream and block
/// matrices, handing part `s`'s traffic for part `t` to `t` (intra
/// streams stay in place). Buffers move, payloads do not.
fn exchange<M>(parts: &mut [Part<M>]) {
    for t in 1..parts.len() {
        let (lower, upper) = parts.split_at_mut(t);
        let target = &mut upper[0];
        for (s, source) in lower.iter_mut().enumerate() {
            std::mem::swap(&mut source.streams[t], &mut target.streams[s]);
            std::mem::swap(&mut source.blocks[t], &mut target.blocks[s]);
        }
    }
}

impl<M: Clone + WireCodec> Part<M> {
    /// Phase 1: runs the part's sends (each node with its global id,
    /// host degree and own RNG stream), then stages the traffic in
    /// ascending sender order — each directed message into the stream
    /// for its recipient's home part — and, on the wire transport,
    /// encodes every cross-part stream into a boundary block.
    fn stage<S>(
        &mut self,
        at: &Layout<'_>,
        states: &mut [S],
        rngs: &mut [StdRng],
        outboxes: &mut [Outbox<M>],
        bits: &mut [u64],
        send: &impl Fn(&mut NodeCtx<'_>, &mut S, &mut Outbox<M>),
    ) {
        let graph = at.graph;
        let lo = self.lo;
        for (j, ((state, rng), out)) in states
            .iter_mut()
            .zip(rngs)
            .zip(outboxes.iter_mut())
            .enumerate()
        {
            let v = NodeId::from_index(lo + j);
            let mut ctx = NodeCtx {
                id: v,
                degree: graph.degree(v),
                rng,
            };
            out.reset();
            send(&mut ctx, state, out);
        }

        self.tally = Tally::default();
        self.bcast_senders.clear();
        for &j in &self.dir_senders {
            self.dir_arc_count[j as usize] = 0;
        }
        self.dir_senders.clear();
        for (stream, bcasts) in self.streams.iter_mut().zip(&mut self.bcast_to) {
            stream.clear();
            bcasts.clear();
        }
        // New epoch: every mark from earlier rounds goes stale in O(1);
        // a full clear is needed only when the counter wraps.
        self.src_epoch = self.src_epoch.wrapping_add(1);
        if self.src_epoch == 0 {
            self.src_mark.fill(0);
            self.src_epoch = 1;
        }
        let mut rev: Option<&[u32]> = None;
        for (j, out) in outboxes.iter().enumerate() {
            let v = NodeId::from_index(lo + j);
            bits[j] = match &out.broadcast {
                Some(m) => {
                    self.tally.broadcasts += 1;
                    self.tally.deliveries += graph.degree(v) as u64;
                    self.bcast_senders.push(j as u32);
                    if at.wire {
                        self.register_broadcast(at, v);
                    }
                    m.encoded_bits()
                }
                None => 0,
            };
            self.tally.directed += out.directed.len() as u64;
            for (to, m) in &out.directed {
                // A directed message only reaches an actual neighbor; in
                // the LOCAL model addressing anyone else is a program
                // bug, reported after the round.
                let Some(p) = graph.neighbor_position(v, *to) else {
                    self.tally.invalid = self.tally.invalid.or(Some((v, *to)));
                    continue;
                };
                let src = graph.arc_range(v).start + p;
                // Broadcast-only rounds never force the table.
                let rev = *rev.get_or_insert_with(|| graph.reverse_arcs());
                self.streams[at.plan.home_of(to.0)].push(rev[src], to.0, m.clone());
                self.tally.deliveries += 1;
                if self.src_mark.is_empty() {
                    self.src_mark.resize(self.arc_hi - self.arc_lo, 0);
                }
                let mark = &mut self.src_mark[src - self.arc_lo];
                if *mark != self.src_epoch {
                    *mark = self.src_epoch;
                    if self.dir_arc_count[j] == 0 {
                        self.dir_senders.push(j as u32);
                    }
                    self.dir_arc_count[j] += 1;
                }
            }
        }
        if at.wire {
            self.encode_blocks(at, outboxes);
        }
    }

    /// Wire transport: registers own node `v`'s broadcast with every
    /// other part that hosts one of its neighbors. Parts are contiguous
    /// and adjacency is sorted, so each part's neighbors form one run.
    fn register_broadcast(&mut self, at: &Layout<'_>, v: NodeId) {
        let nbrs = at.graph.neighbors(v);
        let mut k = 0;
        while k < nbrs.len() {
            let t = at.plan.home_of(nbrs[k].0);
            if t != self.index {
                self.bcast_to[t].push((v.index() - self.lo) as u32);
            }
            let hi_t = at.plan.range(t).end as u32;
            k += nbrs[k..].partition_point(|w| w.0 < hi_t);
        }
    }

    /// Wire transport: encodes the broadcast registrations and stream
    /// for every other part into one boundary block apiece; from here
    /// on, that traffic exists only as bits.
    fn encode_blocks(&mut self, at: &Layout<'_>, outboxes: &[Outbox<M>]) {
        for t in 0..self.streams.len() {
            self.blocks[t] = None;
            if t == self.index || self.tally.error.is_some() {
                continue;
            }
            let bounds = part_arc_bounds(at.graph, at.plan, t);
            let stream = &mut self.streams[t];
            match encode_block(at.graph, &self.bcast_to[t], stream, outboxes, bounds, t) {
                Ok(Some(block)) => {
                    let b = &mut self.tally.boundary;
                    b.blocks += 1;
                    b.block_bits += block.bits;
                    b.messages += (self.bcast_to[t].len() + stream.items.len()) as u64;
                    self.blocks[t] = Some(block);
                }
                Ok(None) => {}
                Err(e) => self.tally.error = Some(e),
            }
            stream.clear();
        }
    }

    /// Phase 2: decodes inbound boundary blocks (wire transport),
    /// merges the inbound streams in source-part order, counting-sorts
    /// them by recipient, sweeps the per-edge bandwidth, then fills the
    /// inbox arena block by block and runs the recv closures.
    fn deliver<S>(
        &mut self,
        at: &Layout<'_>,
        states: &mut [S],
        rngs: &mut [StdRng],
        outboxes: &[Outbox<M>],
        bits: &[u64],
        recv: &impl Fn(&mut NodeCtx<'_>, &mut S, &[(NodeId, M)]),
    ) {
        let graph = at.graph;
        let (lo, hi) = (self.lo, self.hi);
        let len = hi - lo;
        self.remote.clear();
        for (s, (slot, stream)) in self.blocks.iter_mut().zip(&mut self.streams).enumerate() {
            if let Some(block) = slot.take() {
                let recipients = (lo, hi, self.arc_lo);
                let lo_s = at.plan.range(s).start;
                decode_block(graph, &block, lo_s, recipients, &mut self.remote, stream);
            }
        }
        let (merged, rest) = self
            .streams
            .split_first_mut()
            .expect("a part has one stream per part");
        for stream in rest {
            merged.append(stream);
        }
        let merged = &*merged;

        // Bucket the merged stream by recipient: prefix-sum the counts,
        // then scatter indices with the per-recipient cursors (shifting
        // each cursor to its bucket's end). The merged stream is in
        // global send order, so every bucket comes out grouped by arc in
        // send order — no comparison sort anywhere.
        let dir_start = &mut self.dir_start;
        dir_start.fill(0);
        for &to in &merged.to {
            dir_start[to as usize - lo + 1] += 1;
        }
        for i in 1..=len {
            dir_start[i] += dir_start[i - 1];
        }
        self.dir_idx.resize(merged.items.len(), 0);
        for (k, &to) in merged.to.iter().enumerate() {
            let cursor = &mut dir_start[to as usize - lo];
            self.dir_idx[*cursor as usize] = k as u32;
            *cursor += 1;
        }
        let dir_start = &*dir_start;
        let dir_idx = &self.dir_idx;

        // A neighbor's broadcast and its wire size are read in place at
        // the sender, or — on the wire transport, for a sender in another
        // part — from the decoded boundary blocks.
        let in_place = |w: NodeId| !at.wire || (lo..hi).contains(&w.index());
        let remote = &self.remote;
        let decoded = |w: NodeId| {
            let k = remote.binary_search_by_key(&w.0, |e| e.0).ok()?;
            Some(&remote[k])
        };
        let bcast = |w: NodeId| {
            if in_place(w) {
                outboxes[w.index()].broadcast.as_ref()
            } else {
                decoded(w).map(|e| &e.2)
            }
        };
        let bcast_bits = |w: NodeId| {
            if in_place(w) {
                bits[w.index()]
            } else {
                decoded(w).map_or(0, |e| e.1)
            }
        };

        // Bandwidth. The directed edge `w → v` (identified by `v`'s arc
        // toward `w`) carries `w`'s broadcast plus every directed message
        // `w → v`. Each bucket is arc-sorted, so consecutive runs of one
        // arc give the edge's directed load in one linear sweep.
        let mut bw = Bandwidth::default();
        for v in 0..len {
            let bucket = bucket_bounds(dir_start, v);
            let mut i = bucket.start;
            while i < bucket.end {
                let arc = merged.items[dir_idx[i] as usize].0;
                let mut dir_load = 0u64;
                while i < bucket.end {
                    let (a, ref m) = merged.items[dir_idx[i] as usize];
                    if a != arc {
                        break;
                    }
                    dir_load += m.encoded_bits();
                    i += 1;
                }
                let sender = graph.arc_head(arc as usize);
                bw.bits += dir_load;
                bw.edge(dir_load + bcast_bits(sender), at.budget);
            }
        }
        // Sender side: each own broadcaster's bits on every incident
        // edge, plus max/violations on the edges that carried only the
        // broadcast (the others were charged in the sweep above).
        for &j in &self.bcast_senders {
            let deg = graph.degree(NodeId::from_index(lo + j as usize)) as u64;
            let b = bits[lo + j as usize];
            bw.bits += b * deg;
            let uncovered = deg - self.dir_arc_count[j as usize] as u64;
            if uncovered > 0 {
                bw.max_edge_bits = bw.max_edge_bits.max(b);
                if b > at.budget {
                    bw.violations += uncovered;
                }
            }
        }
        self.bandwidth = bw;

        // Blocked fill + recv: the forward arena sweep walks each
        // recipient's arcs in order, taking the neighbor's broadcast and
        // then its directed messages from the arc-sorted bucket with one
        // monotone cursor.
        let arena = &mut self.arena;
        let inbox_start = &mut self.inbox_start;
        let mut max_inbox = 0;
        let mut block_start = 0;
        let mut cursor = 0;
        while block_start < len {
            // Upper-bound a recipient's arena demand by its degree
            // (possible broadcasts) plus its directed bucket.
            let mut block_end = block_start;
            let mut load = 0;
            while block_end < len {
                let node_load = graph.degree(NodeId::from_index(lo + block_end))
                    + bucket_bounds(dir_start, block_end).len();
                if block_end > block_start && load + node_load > ARENA_BLOCK {
                    break;
                }
                load += node_load;
                block_end += 1;
            }
            arena.clear();
            for i in block_start..block_end {
                inbox_start[i] = arena.len() as u32;
                let bucket_end = dir_start[i] as usize;
                for a in graph.arc_range(NodeId::from_index(lo + i)) {
                    let w = graph.arc_head(a);
                    if let Some(m) = bcast(w) {
                        arena.push((w, m.clone()));
                    }
                    while cursor < bucket_end {
                        let (dest, ref m) = merged.items[dir_idx[cursor] as usize];
                        if dest as usize != a {
                            break;
                        }
                        arena.push((w, m.clone()));
                        cursor += 1;
                    }
                }
                debug_assert_eq!(cursor, bucket_end, "recipient bucket fully drained");
            }
            inbox_start[block_end] = arena.len() as u32;
            for i in block_start..block_end {
                let inbox = &arena[inbox_start[i] as usize..inbox_start[i + 1] as usize];
                max_inbox = max_inbox.max(inbox.len());
                let v = NodeId::from_index(lo + i);
                let mut ctx = NodeCtx {
                    id: v,
                    degree: graph.degree(v),
                    rng: &mut rngs[i],
                };
                recv(&mut ctx, &mut states[i], inbox);
            }
            block_start = block_end;
        }
        self.max_inbox = max_inbox;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_graphs::generators;

    fn run_modes<S, F>(f: F) -> (Vec<S>, Vec<S>)
    where
        S: Send,
        F: Fn(ExecMode) -> Vec<S>,
    {
        (f(ExecMode::Sequential), f(ExecMode::Parallel))
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::torus(4, 4);
        let run = |seed: u64| {
            let mut ledger = RoundLedger::new();
            let mut engine = Engine::new(&g, seed, |_| 0u64);
            for _ in 0..4 {
                engine.step(
                    &mut ledger,
                    "t",
                    |ctx, _, out: &mut Outbox<u64>| out.broadcast(ctx.random_below(1000)),
                    |_, s, inbox| {
                        *s = inbox.iter().map(|&(_, m)| m).sum();
                    },
                );
            }
            engine.into_states()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn synchrony_one_hop_per_round() {
        // Node 0 injects a token; after r rounds exactly nodes within
        // distance r have seen it.
        let g = generators::path(10);
        let mut ledger = RoundLedger::new();
        let mut engine = Engine::new(&g, 0, |v| v.0 == 0);
        for r in 1..=3u32 {
            engine.step(
                &mut ledger,
                "spread",
                |_, &mut has, out: &mut Outbox<()>| {
                    if has {
                        out.broadcast(());
                    }
                },
                |_, has, inbox| {
                    if !inbox.is_empty() {
                        *has = true;
                    }
                },
            );
            let reach = engine.states().iter().filter(|&&h| h).count();
            assert_eq!(reach, (r + 1) as usize);
        }
        assert_eq!(ledger.total(), 3);
    }

    #[test]
    fn inbox_is_sorted_by_sender() {
        let g = generators::star(4);
        let mut ledger = RoundLedger::new();
        let mut engine = Engine::new(&g, 0, |v| v.0);
        engine.step(
            &mut ledger,
            "t",
            |_, &mut s, out: &mut Outbox<u32>| out.broadcast(s),
            |ctx, _, inbox| {
                if ctx.id == NodeId(0) {
                    let senders: Vec<u32> = inbox.iter().map(|&(w, _)| w.0).collect();
                    assert_eq!(senders, vec![1, 2, 3, 4]);
                }
            },
        );
    }

    #[test]
    fn directed_messages_reach_only_their_target() {
        // Every node sends its id to its smallest neighbor only.
        let g = generators::cycle(6);
        let mut ledger = RoundLedger::new();
        let mut engine = Engine::new(&g, 0, |_| Vec::<u32>::new());
        engine.step(
            &mut ledger,
            "t",
            |ctx, _, out: &mut Outbox<u32>| {
                let smallest = *g.neighbors(ctx.id).iter().min().unwrap();
                out.send_to(smallest, ctx.id.0);
            },
            |_, s, inbox| {
                s.extend(inbox.iter().map(|&(w, _)| w.0));
            },
        );
        // Node v's smallest neighbor on the 6-cycle receives v's id;
        // node 0 is smallest neighbor of both 1 and 5.
        assert_eq!(engine.states()[0], vec![1, 5]);
        // Node 5's neighbors are 0 and 4; both prefer their other side.
        assert!(engine.states()[5].is_empty());
        let stats = engine.message_stats();
        assert_eq!(stats.directed, 6);
        assert_eq!(stats.broadcasts, 0);
        assert_eq!(stats.deliveries, 6);
    }

    #[test]
    fn broadcast_and_directed_share_a_round() {
        // Broadcast from one node combined with a directed reply path;
        // per-sender inbox order is broadcast first.
        const B: u8 = 0;
        const D1: u8 = 1;
        const D2: u8 = 2;
        let g = generators::path(3);
        let mut ledger = RoundLedger::new();
        let mut engine = Engine::new(&g, 0, |_| Vec::<(u32, u8)>::new());
        engine.step(
            &mut ledger,
            "t",
            |ctx, _, out: &mut Outbox<u8>| {
                if ctx.id == NodeId(1) {
                    out.broadcast(B);
                    out.send_to(NodeId(0), D1);
                    out.send_to(NodeId(0), D2);
                }
            },
            |_, s, inbox| {
                s.extend(inbox.iter().map(|&(w, m)| (w.0, m)));
            },
        );
        assert_eq!(engine.states()[0], vec![(1, B), (1, D1), (1, D2)]);
        assert_eq!(engine.states()[2], vec![(1, B)]);
        // Bandwidth: node 1's broadcast (8 bits) crosses both its edges;
        // the two directed u8s (8 bits each) ride the 1→0 edge, making
        // that edge's load 24 bits — the round's per-edge maximum.
        let stats = engine.message_stats();
        assert_eq!(stats.bits_sent, 8 * 2 + 8 * 2);
        assert_eq!(stats.max_edge_bits, 24);
        assert_eq!(stats.congest_violations, 0);
        assert_eq!(ledger.bits_sent(), stats.bits_sent);
        assert_eq!(ledger.max_edge_bits(), 24);
    }

    #[test]
    fn congest_policy_counts_violations() {
        // Star center broadcasts a u64 (64 bits) to 4 leaves under an
        // 8-bit budget: 4 violating edges. Leaves send nothing.
        let g = generators::star(4);
        let mut ledger = RoundLedger::new();
        let mut engine =
            Engine::new(&g, 0, |_| 0u64).with_bandwidth(BandwidthPolicy::Congest { bits: 8 });
        engine.step(
            &mut ledger,
            "t",
            |ctx, _, out: &mut Outbox<u64>| {
                if ctx.id == NodeId(0) {
                    out.broadcast(42);
                }
            },
            |_, s, inbox| *s += inbox.len() as u64,
        );
        let stats = engine.message_stats();
        assert_eq!(stats.bits_sent, 64 * 4);
        assert_eq!(stats.max_edge_bits, 64);
        assert_eq!(stats.congest_violations, 4);
        assert_eq!(ledger.congest_violations(), 4);
        // A directed-over-budget edge also counts, once per edge.
        engine.step(
            &mut ledger,
            "t",
            |ctx, _, out: &mut Outbox<u64>| {
                if ctx.id == NodeId(1) {
                    out.send_to(NodeId(0), 7);
                    out.send_to(NodeId(0), 9);
                }
            },
            |_, _, _| {},
        );
        let stats = engine.message_stats();
        assert_eq!(stats.congest_violations, 5);
        assert_eq!(stats.max_edge_bits, 128);
    }

    #[test]
    fn default_congest_policy_admits_log_sized_messages() {
        // The O(log n) policy from `congest_for` admits NodeId-sized
        // gossip: no violations, and the heaviest edge carries exactly
        // the largest id twice.
        let g = generators::cycle(64);
        let policy = BandwidthPolicy::congest_for(g.n());
        assert_eq!(
            policy,
            BandwidthPolicy::Congest {
                bits: crate::wire::congest_budget(64)
            }
        );
        let mut ledger = RoundLedger::new();
        let mut engine = Engine::new(&g, 0, |v| v).with_bandwidth(policy);
        engine.step(
            &mut ledger,
            "gossip",
            |ctx, s, out: &mut Outbox<NodeId>| {
                out.broadcast(*s);
                out.send_to(*g.neighbors(ctx.id).first().unwrap(), *s);
            },
            |_, _, _| {},
        );
        let stats = engine.message_stats();
        assert_eq!(stats.congest_violations, 0);
        // Heaviest edge: 63 -> 0 carries 63's broadcast and its directed
        // copy (0 is 63's first neighbor).
        assert_eq!(stats.max_edge_bits, 2 * NodeId(63).encoded_bits());
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let g = generators::random_regular(600, 4, 3);
        let (seq, par) = run_modes(|mode| {
            let mut ledger = RoundLedger::new();
            let mut engine = Engine::new(&g, 11, |v| v.0 as u64).with_mode(mode);
            for _ in 0..8 {
                engine.step(
                    &mut ledger,
                    "mix",
                    |ctx, s, out: &mut Outbox<u64>| {
                        *s ^= ctx.random_below(1 << 30);
                        out.broadcast(*s);
                    },
                    |ctx, s, inbox| {
                        for &(w, m) in inbox {
                            *s = s.wrapping_mul(31).wrapping_add(m ^ w.0 as u64);
                        }
                        *s ^= ctx.random_below(1 << 20);
                    },
                );
            }
            engine.into_states()
        });
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_routing_matches_sequential_above_threshold() {
        // On the parallel schedule every round runs on several parts;
        // states, stats, and ledger (congest accounting included) must
        // stay bit-identical to the one-part sequential schedule under
        // mixed broadcast + directed traffic.
        let n = PARALLEL_THRESHOLD + 904;
        let g = generators::random_regular(n, 6, 11);
        let g = &g;
        let run = |mode: ExecMode| {
            let mut ledger = RoundLedger::new();
            let mut engine = Engine::new(g, 7, |v| v.0 as u64)
                .with_mode(mode)
                .with_bandwidth(BandwidthPolicy::Congest { bits: 48 });
            for _ in 0..6 {
                engine.step(
                    &mut ledger,
                    "t",
                    |ctx, s, out: &mut Outbox<(u64, u32)>| {
                        *s ^= ctx.random_below(1 << 24);
                        if ctx.id.0 % 3 != 0 {
                            out.broadcast((*s, ctx.id.0));
                        }
                        for (j, &w) in g.neighbors(ctx.id).iter().take(2).enumerate() {
                            out.send_to(w, (*s ^ j as u64, ctx.id.0));
                        }
                    },
                    |ctx, s, inbox| {
                        for &(w, (m, echo)) in inbox {
                            assert_eq!(w.0, echo, "payload travels with its sender id");
                            *s = s.rotate_left(5) ^ m;
                        }
                        *s ^= ctx.random_below(1 << 10);
                    },
                );
            }
            let stats = engine.message_stats();
            (
                engine.into_states(),
                stats,
                (
                    ledger.bits_sent(),
                    ledger.max_edge_bits(),
                    ledger.congest_violations(),
                ),
            )
        };
        assert_eq!(run(ExecMode::Sequential), run(ExecMode::Parallel));
    }

    #[test]
    fn rng_is_node_private_and_stable() {
        // A node consuming extra randomness must not perturb other
        // nodes' streams.
        let g = generators::path(6);
        let draw_all = |consume_extra: bool| -> Vec<u64> {
            let mut ledger = RoundLedger::new();
            let mut engine = Engine::new(&g, 42, |_| 0u64);
            engine.step(
                &mut ledger,
                "draw",
                |_, _, out: &mut Outbox<()>| out.broadcast(()),
                |ctx, s, _| {
                    if consume_extra && ctx.id == NodeId(0) {
                        let _ = ctx.random_below(10);
                    }
                    *s = ctx.random_below(1_000_000);
                },
            );
            engine.into_states()
        };
        let a = draw_all(false);
        let b = draw_all(true);
        assert_ne!(a[0], b[0], "node 0 consumed extra randomness");
        assert_eq!(a[1..], b[1..], "other nodes' streams were perturbed");
    }
}
