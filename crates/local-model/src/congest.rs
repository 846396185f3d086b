//! True-CONGEST execution: fragmentation + pipelining of arbitrary
//! [`WireCodec`] message streams onto a per-edge-per-round bit budget.
//!
//! The LOCAL-model engines deliver whole messages per round and merely
//! *account* CONGEST violations ([`BandwidthPolicy::Congest`] never
//! truncates). This module makes the budget real: a
//! [`CongestEngine`] wraps any [`RoundDriver`] and compiles each
//! logical round onto as many honest wire rounds as the budget demands,
//! the way gossip protocols spread a big rumor through small messages —
//! split, pipeline, reassemble.
//!
//! * [`Fragmenter`] — splits each encoded payload into chunks of at
//!   most `budget` bits, framed as gamma-coded stream id, chunk index,
//!   final flag, gamma-coded payload length, and the raw payload bits
//!   (exact [`WireCodec::encoded_bits`] accounting; see
//!   [`CongestChunk`]).
//! * [`PipelineScheduler`] — per-sender chunk queues drained over
//!   consecutive wire rounds in deterministic (stream id, chunk index)
//!   order: the broadcast stream first (its chunks ride the inner
//!   driver's broadcast), then one chunk per destination queue per
//!   round — so no directed edge ever carries more than one chunk per
//!   wire round, and the enforced budget is provably respected.
//! * [`Reassembler`] — receive-side partial streams in a `Vec` sorted
//!   by (sender, stream id); a message reaches the node program only on
//!   the wire round its last chunk lands. A one-chunk stream keeps its
//!   chunk — a refcount on the sender's encoded buffer — and is decoded
//!   in place; only multi-chunk streams copy their payload bits into a
//!   buffer of their own. Incomplete or gapped streams (chunk faults)
//!   lose the whole message, mirroring message-level fault semantics.
//!
//! One logical round therefore dilates into
//! `max_v (B_v + max_d Q_{v,d})` wire rounds — the broadcast chunk
//! count plus the deepest per-destination queue, each term
//! `ceil(message bits / chunk payload capacity)` — all charged to the
//! ledger under the algorithm's own phase name, exactly like the
//! overlay charges `k` host rounds per virtual round. Delivery of the
//! logical round happens on the wire round the *global* chunk backlog
//! empties: every driver completes all sends before any recv, so a
//! shared outstanding-chunk counter read in the recv phase is a
//! race-free "last chunk landed" signal, deterministic across
//! [`crate::ExecMode`]s.
//!
//! # Composition
//!
//! `CongestEngine` composes with every driver: [`crate::Engine`] (the
//! budget binds per host edge), [`crate::OverlayEngine`] (per *virtual*
//! edge — CONGEST on the overlay topology), [`crate::ShardedEngine`], and
//! [`crate::FaultyDriver`] *inside* the wrapper — drops, duplicates,
//! and corruption then strike individual chunks, and a single lost
//! chunk loses the whole reassembled message.
//!
//! On an overlay the budget binds the host edges only where a virtual
//! edge is one. At dilation 1 (`G[S]`) it is: the relay round runs
//! under the overlay's policy, so a host edge that a chunk plus its
//! [`crate::OverlayEnvelope`] (2 more bits around a broadcast chunk, 4
//! around a directed one) pushes over the budget counts as a violation.
//! The `k` host relay rounds of a `G^k` overlay stay unbudgeted: their
//! bits are measured on the ledger but held to no budget. On
//! `random_regular(1024, 4, 9)` a `G^2` Luby relay carries 465 bits on
//! a 160-bit budget and counts no violation
//! (`congest_engine_is_bit_identical_on_power_overlays` pins the zero).
//!
//! # Enforcement scope
//!
//! [`enforce_congest`] arms a **thread-local** budget;
//! [`compile`] — called at every internal engine construction site in
//! the coloring crate — reads it and wraps the driver in an enforcing
//! `CongestEngine` (switching the inner driver's accounting to
//! [`BandwidthPolicy::Congest`], which the chunked traffic then
//! satisfies with zero violations) or a transparent pass-through that
//! is bit-identical to the unwrapped driver. Thread-locality keeps
//! concurrent tests and parallel experiment cells from leaking
//! enforcement into each other.
//!
//! # Determinism
//!
//! Program sends run once per logical round (wire round 1) with the
//! node's own RNG stream; relay wire rounds never touch node state or
//! randomness; reassembled inboxes are sorted by (sender, stream id),
//! reproducing the engine's sender-sorted, broadcast-first inbox
//! invariant. Final states, inboxes and per-node RNG positions are
//! therefore seed-bit-identical to the unfragmented LOCAL run
//! (`tests/congest_equivalence.rs`). What the run cost is on the ledger
//! alone: the wire rounds and the chunk bits, with one
//! [`CONGEST_LEVEL`](crate::trace::CONGEST_LEVEL) trace record per
//! logical round carrying its dilation.

use crate::engine::{BandwidthPolicy, NodeCtx, Outbox, RoundDriver};
use crate::ledger::RoundLedger;
use crate::trace::VirtualRecord;
use crate::wire::{gamma_bits, BitReader, BitWriter, WireCodec};
use delta_graphs::NodeId;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Smallest enforceable per-edge budget: room for the chunk frame plus
/// a useful payload slice at realistic stream counts.
pub const MIN_CONGEST_BITS: u64 = 32;

/// Wire rounds without any backlog progress (every queue owner crashed)
/// before the engine force-drains stuck queues. A backstop for
/// permanent-crash fault plans, far above any legitimate stall.
const STALL_LIMIT: u32 = 256;

thread_local! {
    /// The thread's armed enforcement budget (see [`enforce_congest`]).
    static ENFORCED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Scoped CONGEST enforcement (RAII): while the guard lives, every
/// [`compile`] call *on this thread* wraps its driver in an enforcing
/// [`CongestEngine`]. Dropping restores the previous setting, so guards
/// nest.
#[must_use = "enforcement ends when the guard is dropped"]
pub struct CongestGuard {
    prev: Option<u64>,
}

impl Drop for CongestGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        ENFORCED.with(|c| c.set(prev));
    }
}

/// Arms thread-local CONGEST enforcement at `bits` per edge per wire
/// round for the guard's lifetime.
///
/// # Panics
///
/// Panics if `bits < MIN_CONGEST_BITS` — narrower budgets cannot carry
/// a chunk frame plus payload.
pub fn enforce_congest(bits: u64) -> CongestGuard {
    assert!(
        bits >= MIN_CONGEST_BITS,
        "congest budget {bits} below the {MIN_CONGEST_BITS}-bit chunk-frame minimum"
    );
    let prev = ENFORCED.with(|c| c.replace(Some(bits)));
    CongestGuard { prev }
}

/// The budget armed on this thread, if any.
pub fn enforced_budget() -> Option<u64> {
    ENFORCED.with(Cell::get)
}

/// Compiles a driver for the thread's current enforcement setting:
/// an enforcing [`CongestEngine`] under a live [`enforce_congest`]
/// guard, a bit-identical transparent pass-through otherwise. The
/// coloring substrates call this at every internal engine construction
/// site, which is what lets one guard flip a whole algorithm onto
/// honest CONGEST wire rounds with zero call-site changes.
pub fn compile<S: Send, D: RoundDriver<S>>(inner: D) -> CongestEngine<D> {
    match enforced_budget() {
        Some(bits) => CongestEngine::enforced(inner, bits),
        None => CongestEngine::transparent(inner),
    }
}

/// One fragment of an encoded message on the wire.
///
/// Frame: gamma(stream id) + gamma(chunk index) + final flag +
/// gamma(payload bit length) + the raw payload bits. The payload is a
/// borrowed slice (`off..off+len` bits) of a shared buffer holding the
/// full encoded message, so fragmenting is one encode plus refcount
/// bumps. Its size bound is the *run-time* budget the [`Fragmenter`] was
/// built with: every produced chunk satisfies `encoded_bits() <= budget`.
#[derive(Debug, Clone)]
pub struct CongestChunk {
    stream: u64,
    index: u64,
    last: bool,
    /// Payload slice length in bits.
    len: u64,
    /// Bit offset of the payload slice within `data`: 0 for a stream's
    /// first chunk, which starts its message.
    off: u64,
    /// Shared buffer: the full encoded message on the sender side, the
    /// extracted payload (offset 0) after decode.
    data: Arc<Vec<u8>>,
}

impl CongestChunk {
    /// The stream this chunk belongs to (0 = the round's broadcast;
    /// directed messages get 1.. in send order).
    pub fn stream(&self) -> u64 {
        self.stream
    }

    /// Position within the stream.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Whether this is the stream's final chunk.
    pub fn is_last(&self) -> bool {
        self.last
    }

    /// Payload length in bits.
    pub fn payload_bits(&self) -> u64 {
        self.len
    }

    /// The payload bits copied to offset 0 (zero-padded last byte).
    fn payload_bytes(&self) -> Vec<u8> {
        let mut w = BitWriter::with_capacity(self.len);
        w.write_raw(&self.data, self.off, self.len);
        w.finish().0
    }

    /// Decodes one `M` from the payload bits where they lie, in the
    /// shared buffer: no copy. Only a stream's first chunk is decoded
    /// this way, and its payload starts at bit 0 of its buffer.
    fn decode_in_place<M: WireCodec>(&self) -> Option<M> {
        debug_assert_eq!(self.off, 0, "a stream's first chunk starts its buffer");
        M::decode(&mut BitReader::new(&self.data, self.len))
    }
}

impl PartialEq for CongestChunk {
    fn eq(&self, other: &Self) -> bool {
        self.stream == other.stream
            && self.index == other.index
            && self.last == other.last
            && self.len == other.len
            && self.payload_bytes() == other.payload_bytes()
    }
}

impl Eq for CongestChunk {}

impl WireCodec for CongestChunk {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.stream);
        w.write_gamma(self.index);
        w.write_bool(self.last);
        w.write_gamma(self.len);
        w.write_raw(&self.data, self.off, self.len);
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        let stream = r.read_gamma()?;
        let index = r.read_gamma()?;
        let last = r.read_bool()?;
        let len = r.read_gamma()?;
        let bytes = r.read_raw(len)?;
        Some(CongestChunk {
            stream,
            index,
            last,
            len,
            off: 0,
            data: Arc::new(bytes),
        })
    }

    fn encoded_bits(&self) -> u64 {
        gamma_bits(self.stream) + gamma_bits(self.index) + 1 + gamma_bits(self.len) + self.len
    }
}

/// Splits encoded payloads into budget-sized [`CongestChunk`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragmenter {
    budget: u64,
}

impl Fragmenter {
    /// A fragmenter for a `budget`-bit per-edge-per-round regime.
    ///
    /// # Panics
    ///
    /// Panics below [`MIN_CONGEST_BITS`].
    pub fn new(budget: u64) -> Self {
        assert!(
            budget >= MIN_CONGEST_BITS,
            "congest budget {budget} below the {MIN_CONGEST_BITS}-bit chunk-frame minimum"
        );
        Fragmenter { budget }
    }

    /// The per-edge-per-round bit budget chunks are sized for.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Largest payload length a (stream, index) chunk can carry:
    /// max `L` with `frame(stream, index, L) + L <= budget`.
    fn capacity(&self, stream: u64, index: u64) -> u64 {
        let fixed = gamma_bits(stream) + gamma_bits(index) + 1;
        let Some(room) = self.budget.checked_sub(fixed) else {
            return 0;
        };
        // gamma_bits is monotone, so start at the guaranteed-feasible
        // room - gamma_bits(room) and walk up to the boundary.
        let mut l = room.saturating_sub(gamma_bits(room));
        while l < room && gamma_bits(l + 1) + (l + 1) <= room {
            l += 1;
        }
        l
    }

    /// Fragments `msg` into the chunks of stream `stream`. Every chunk
    /// satisfies `encoded_bits() <= budget`; a 0-bit message still
    /// produces one (empty, final) chunk so the receiver learns it
    /// exists.
    ///
    /// # Panics
    ///
    /// Panics if the frame of some required (stream, index) pair
    /// already exhausts the budget — a sign the budget is far too small
    /// for the traffic (astronomical stream counts).
    pub fn fragment<M: WireCodec>(&self, stream: u64, msg: &M) -> Vec<CongestChunk> {
        let size = msg.encoded_bits();
        let mut w = BitWriter::with_capacity(size);
        msg.encode(&mut w);
        let (bytes, bits) = w.finish();
        debug_assert_eq!(bits, size, "codec size honesty");
        let data = Arc::new(bytes);
        let first_cap = self.capacity(stream, 0).max(1);
        let mut chunks = Vec::with_capacity(bits.div_ceil(first_cap).max(1) as usize);
        let mut off = 0u64;
        let mut index = 0u64;
        loop {
            let cap = self.capacity(stream, index);
            assert!(
                cap > 0 || bits == 0,
                "budget {} cannot frame chunk ({stream}, {index})",
                self.budget
            );
            let take = cap.min(bits - off);
            let last = off + take == bits;
            chunks.push(CongestChunk {
                stream,
                index,
                last,
                len: take,
                off,
                data: Arc::clone(&data),
            });
            off += take;
            index += 1;
            if last {
                return chunks;
            }
        }
    }
}

/// A sender's outgoing chunk backlog, drained one wire round at a time
/// in deterministic (stream id, chunk index) order: the broadcast
/// stream's chunks ride the inner driver's broadcast and fully precede
/// the directed queues (so an edge never carries a broadcast chunk and
/// a directed chunk in the same round); then every destination queue
/// advances by one chunk per round.
#[derive(Debug, Default)]
pub struct PipelineScheduler {
    bcast: VecDeque<CongestChunk>,
    /// Per-destination queues in first-send order; a destination's
    /// chunks are enqueued stream-ascending, index-ascending.
    dirq: Vec<(NodeId, VecDeque<CongestChunk>)>,
}

impl PipelineScheduler {
    /// Queues the broadcast stream's chunks. Returns how many.
    pub fn enqueue_broadcast(&mut self, chunks: Vec<CongestChunk>) -> u64 {
        let n = chunks.len() as u64;
        self.bcast.extend(chunks);
        n
    }

    /// Queues a directed stream's chunks for `dest`. Returns how many.
    pub fn enqueue_directed(&mut self, dest: NodeId, chunks: Vec<CongestChunk>) -> u64 {
        let n = chunks.len() as u64;
        let q = match self.dirq.iter_mut().find(|(d, _)| *d == dest) {
            Some((_, q)) => q,
            None => {
                self.dirq.push((dest, VecDeque::new()));
                &mut self.dirq.last_mut().expect("just pushed").1
            }
        };
        q.extend(chunks);
        n
    }

    /// Emits one wire round's worth of chunks into `out`; returns how
    /// many chunks left the backlog.
    pub fn pop_round(&mut self, out: &mut Outbox<CongestChunk>) -> u64 {
        if let Some(c) = self.bcast.pop_front() {
            out.broadcast(c);
            return 1;
        }
        let mut popped = 0u64;
        for (dest, q) in &mut self.dirq {
            if let Some(c) = q.pop_front() {
                out.send_to(*dest, c);
                popped += 1;
            }
        }
        self.dirq.retain(|(_, q)| !q.is_empty());
        popped
    }

    /// Drops the whole backlog; returns how many chunks were discarded.
    pub fn drain(&mut self) -> u64 {
        let n =
            self.bcast.len() as u64 + self.dirq.iter().map(|(_, q)| q.len() as u64).sum::<u64>();
        self.bcast.clear();
        self.dirq.clear();
        n
    }

    /// Whether no chunk is queued.
    pub fn is_empty(&self) -> bool {
        self.bcast.is_empty() && self.dirq.is_empty()
    }
}

/// What a stream has received so far.
#[derive(Debug)]
enum Received {
    /// Only chunk 0: kept as delivered (a refcount on the sender's
    /// buffer) and decoded in place if it is also the final chunk.
    One(CongestChunk),
    /// Several chunks: their payloads copied into one buffer.
    Many(BitWriter),
    /// A gap or a chunk after the final one was seen (chunk faults):
    /// the whole message is lost.
    Dead,
}

/// One partially reassembled stream.
#[derive(Debug)]
struct RecvStream {
    from: u32,
    stream: u64,
    next_index: u64,
    finished: bool,
    got: Received,
}

/// A receiver's partial streams, kept sorted by (sender, stream id).
/// Chunks accumulate across wire rounds; [`Reassembler::take_round`]
/// decodes every finished stream in that order — reproducing the
/// engine's sender-sorted, broadcast-first inbox invariant — and drops
/// incomplete or gapped ones (a dropped chunk loses the message). A
/// one-chunk stream is decoded straight from the sender's shared
/// buffer; only multi-chunk streams copy their payload.
#[derive(Debug, Default)]
pub struct Reassembler {
    streams: Vec<RecvStream>,
}

impl Reassembler {
    /// Folds one delivered chunk in. Out-of-order or duplicate chunks
    /// from fault injection are handled conservatively: an index below
    /// the expected one is a duplicate (ignored); anything else
    /// off-schedule kills the stream.
    pub fn stash(&mut self, from: NodeId, chunk: &CongestChunk) {
        let key = (from.0, chunk.stream);
        let s = match self
            .streams
            .binary_search_by_key(&key, |s| (s.from, s.stream))
        {
            Ok(i) => &mut self.streams[i],
            Err(i) => {
                // A stream's first sighting must be its chunk 0.
                let first = chunk.index == 0;
                let got = match first {
                    true => Received::One(chunk.clone()),
                    false => Received::Dead,
                };
                let stream = RecvStream {
                    from: from.0,
                    stream: chunk.stream,
                    next_index: u64::from(first),
                    finished: first && chunk.last,
                    got,
                };
                self.streams.insert(i, stream);
                return;
            }
        };
        if matches!(s.got, Received::Dead) || chunk.index < s.next_index {
            return; // dead stream, or a re-delivered duplicate
        }
        if s.finished || chunk.index > s.next_index {
            s.got = Received::Dead; // chunk after the final one, or a gap
            return;
        }
        s.got = match std::mem::replace(&mut s.got, Received::Dead) {
            Received::One(first) => {
                let mut buf = BitWriter::with_capacity(first.len + chunk.len);
                buf.write_raw(&first.data, first.off, first.len);
                buf.write_raw(&chunk.data, chunk.off, chunk.len);
                Received::Many(buf)
            }
            Received::Many(mut buf) => {
                buf.write_raw(&chunk.data, chunk.off, chunk.len);
                Received::Many(buf)
            }
            Received::Dead => unreachable!("dead streams returned above"),
        };
        s.next_index += 1;
        s.finished = chunk.last;
    }

    /// Number of streams currently tracked (finished or partial).
    pub fn pending(&self) -> usize {
        self.streams.len()
    }

    /// Clears stale streams (a crashed receiver that missed its
    /// delivery round must not mix rounds).
    pub fn reset(&mut self) {
        self.streams.clear();
    }

    /// Decodes every finished stream into `(sender, message)` pairs in
    /// (sender, stream id) order and clears the reassembler. Incomplete,
    /// dead, or undecodable streams are dropped (fault semantics: the
    /// decoded value of a bit-flipped stream may also simply differ,
    /// mirroring message-level corruption).
    pub fn take_round<M: WireCodec>(&mut self) -> Vec<(NodeId, M)> {
        let mut out = Vec::with_capacity(self.streams.len());
        for s in self.streams.drain(..) {
            if !s.finished {
                continue;
            }
            let m = match s.got {
                Received::One(chunk) => chunk.decode_in_place(),
                Received::Many(buf) => {
                    let (bytes, bits) = buf.finish();
                    M::decode(&mut BitReader::new(&bytes, bits))
                }
                Received::Dead => None,
            };
            if let Some(m) = m {
                out.push((NodeId(s.from), m));
            }
        }
        out
    }
}

/// Per-node chunk machinery: outgoing scheduler + incoming reassembler,
/// behind one mutex (each node's lane is touched only by that node's
/// send/recv closure within a phase, so the lock is uncontended — it
/// exists to make the closures `Sync`).
#[derive(Debug, Default)]
struct Lane {
    sched: PipelineScheduler,
    asm: Reassembler,
}

/// A [`RoundDriver`] adapter that executes every logical round as a
/// budget-honest sequence of chunked wire rounds on the inner driver
/// (see the module docs). Transparent instances delegate verbatim and
/// are bit-identical to the unwrapped driver.
#[derive(Debug)]
pub struct CongestEngine<D> {
    inner: D,
    /// `Some` = enforcing at the fragmenter's budget.
    frag: Option<Fragmenter>,
    lanes: Vec<Mutex<Lane>>,
    /// Outstanding chunks across all lanes: staged at enqueue, released
    /// at pop. Zero during a recv phase means the backlog emptied and
    /// this wire round is the logical round's delivery round.
    outstanding: AtomicU64,
    /// Index of the next enforced logical round, numbering the trace
    /// records.
    vround: u64,
    force_drained: u64,
}

impl<D> CongestEngine<D> {
    /// A pass-through wrapper: every call delegates to `inner`
    /// untouched (bit-identical rounds and ledger charges).
    pub fn transparent(inner: D) -> Self {
        CongestEngine {
            inner,
            frag: None,
            lanes: Vec::new(),
            outstanding: AtomicU64::new(0),
            vround: 0,
            force_drained: 0,
        }
    }

    /// Whether rounds are being fragmented and budget-enforced.
    pub fn is_enforced(&self) -> bool {
        self.frag.is_some()
    }

    /// The enforced budget, if enforcing.
    pub fn budget(&self) -> Option<u64> {
        self.frag.map(|f| f.budget())
    }

    /// Chunks discarded by the stalled-backlog backstop (nonzero only
    /// under permanent-crash fault plans).
    pub fn force_drained(&self) -> u64 {
        self.force_drained
    }

    /// The wrapped driver.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// An enforcing wrapper at `bits` per edge per wire round. The
    /// inner driver's accounting policy is switched to
    /// [`BandwidthPolicy::Congest`] at the same budget, so the ledger
    /// *proves* compliance: chunked traffic accounts zero violations.
    pub fn enforced<S: Send>(mut inner: D, bits: u64) -> Self
    where
        D: RoundDriver<S>,
    {
        inner.set_bandwidth_policy(BandwidthPolicy::Congest { bits });
        let mut e = CongestEngine::transparent(inner);
        e.frag = Some(Fragmenter::new(bits));
        e
    }
}

fn lock_lane(lane: &Mutex<Lane>) -> std::sync::MutexGuard<'_, Lane> {
    lane.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fragments one node's logical outbox into the lane's scheduler: the
/// broadcast as stream 0, the `i`-th directed message as stream
/// `1 + i`. Returns the number of chunks staged.
fn stage_outbox<M: WireCodec>(lane: &mut Lane, frag: &Fragmenter, out: &Outbox<M>) -> u64 {
    let (bcast, directed) = out.parts();
    let mut staged = 0u64;
    if let Some(m) = bcast {
        staged += lane.sched.enqueue_broadcast(frag.fragment(0, m));
    }
    for (i, (dest, m)) in directed.iter().enumerate() {
        staged += lane
            .sched
            .enqueue_directed(*dest, frag.fragment(1 + i as u64, m));
    }
    staged
}

impl<S: Send, D: RoundDriver<S>> RoundDriver<S> for CongestEngine<D> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
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
        let Some(frag) = self.frag else {
            self.inner.round_step(ledger, phase, send, recv);
            return;
        };
        let n = self.inner.node_count();
        if self.lanes.len() != n {
            self.lanes = (0..n).map(|_| Mutex::new(Lane::default())).collect();
        }
        // Chunks staged this logical round, for the trace.
        let fragments = AtomicU64::new(0);
        let t0 = ledger.tracing().then(Instant::now);
        let lanes = &self.lanes;
        let outstanding = &self.outstanding;
        // Shared recv-phase logic for every wire round: stash this
        // round's chunks; if the global backlog is empty, every chunk
        // of the logical round has landed — decode and deliver.
        let recv_ref = &recv;
        let deliver =
            move |ctx: &mut NodeCtx<'_>, state: &mut S, inbox: &[(NodeId, CongestChunk)]| {
                let mut lane = lock_lane(&lanes[ctx.id.index()]);
                for (from, chunk) in inbox {
                    lane.asm.stash(*from, chunk);
                }
                if outstanding.load(Ordering::SeqCst) == 0 {
                    let logical: Vec<(NodeId, M)> = lane.asm.take_round();
                    drop(lane);
                    recv_ref(ctx, state, &logical);
                }
            };
        // Wire round 1: run the program's send once (same RNG stream
        // position as the plain run), fragment, and emit each lane's
        // first chunks.
        let send_ref = &send;
        let fragments_ref = &fragments;
        self.inner.round_step::<CongestChunk, _, _>(
            ledger,
            phase,
            move |ctx, state, out| {
                let mut logical: Outbox<M> = Outbox::new();
                send_ref(ctx, state, &mut logical);
                let mut lane = lock_lane(&lanes[ctx.id.index()]);
                // A crashed receiver may have missed a delivery round;
                // its stale partial streams must not mix into this one.
                lane.asm.reset();
                let staged = stage_outbox(&mut lane, &frag, &logical);
                fragments_ref.fetch_add(staged, Ordering::SeqCst);
                outstanding.fetch_add(staged, Ordering::SeqCst);
                let popped = lane.sched.pop_round(out);
                outstanding.fetch_sub(popped, Ordering::SeqCst);
            },
            &deliver,
        );
        let mut wire = 1u64;
        // Relay wire rounds: drain the backlog one chunk per queue per
        // round; the round that empties it also fires the delivery.
        let mut prev = self.outstanding.load(Ordering::SeqCst);
        let mut stalled = 0u32;
        while prev > 0 {
            if stalled >= STALL_LIMIT {
                // Every remaining queue's owner is (permanently)
                // crashed: discard the stuck chunks so delivery of what
                // did land can fire.
                let mut dropped = 0u64;
                for lane in &self.lanes {
                    dropped += lock_lane(lane).sched.drain();
                }
                self.outstanding.fetch_sub(dropped, Ordering::SeqCst);
                self.force_drained += dropped;
                ledger.trace_observe("congest.force_drained", dropped);
            }
            self.inner.round_step::<CongestChunk, _, _>(
                ledger,
                phase,
                move |ctx, _state, out| {
                    let mut lane = lock_lane(&lanes[ctx.id.index()]);
                    let popped = lane.sched.pop_round(out);
                    outstanding.fetch_sub(popped, Ordering::SeqCst);
                },
                &deliver,
            );
            wire += 1;
            let now = self.outstanding.load(Ordering::SeqCst);
            stalled = if now < prev { 0 } else { stalled + 1 };
            prev = now;
        }
        let vround = self.vround;
        self.vround += 1;
        if let Some(t0) = t0 {
            ledger.trace_virtual(VirtualRecord {
                level: crate::trace::CONGEST_LEVEL.to_string(),
                vround,
                host_rounds: wire,
                wall_ns: t0.elapsed().as_nanos() as u64,
            });
            ledger.trace_observe("congest.fragments", fragments.into_inner());
            ledger.trace_observe("congest.wire_rounds", wire);
        }
    }

    fn node_states(&self) -> &[S] {
        self.inner.node_states()
    }

    fn set_bandwidth_policy(&mut self, policy: BandwidthPolicy) {
        self.inner.set_bandwidth_policy(policy);
    }

    fn into_node_states(self) -> Vec<S> {
        self.inner.into_node_states()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::wire::encode_to_bytes;
    use delta_graphs::generators;

    #[test]
    fn chunk_codec_roundtrip_and_size_honesty() {
        let frag = Fragmenter::new(64);
        let msg: Vec<u32> = (0..200).map(|i| i * 7919).collect();
        let chunks = frag.fragment(3, &msg);
        assert!(chunks.len() > 1, "200 ids must not fit one 64-bit chunk");
        for c in &chunks {
            assert!(c.encoded_bits() <= 64, "chunk over budget");
            let (bytes, bits) = encode_to_bytes(c);
            assert_eq!(bits, c.encoded_bits(), "size honesty");
            let back: CongestChunk =
                crate::wire::decode_from_bytes(&bytes, bits).expect("roundtrip");
            assert_eq!(&back, c);
        }
        assert!(chunks.last().expect("nonempty").is_last());
        assert_eq!(
            chunks.iter().filter(|c| c.is_last()).count(),
            1,
            "exactly one final chunk"
        );
    }

    #[test]
    fn fragment_reassemble_identity() {
        let frag = Fragmenter::new(48);
        let msg: Vec<u32> = (0..500).rev().collect();
        let mut asm = Reassembler::default();
        for c in frag.fragment(1, &msg) {
            asm.stash(NodeId(9), &c);
        }
        let out: Vec<(NodeId, Vec<u32>)> = asm.take_round();
        assert_eq!(out, vec![(NodeId(9), msg)]);
    }

    #[test]
    fn zero_bit_messages_still_arrive() {
        let frag = Fragmenter::new(MIN_CONGEST_BITS);
        let chunks = frag.fragment(0, &());
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].payload_bits(), 0);
        assert!(chunks[0].is_last());
        let mut asm = Reassembler::default();
        asm.stash(NodeId(2), &chunks[0]);
        assert_eq!(asm.take_round::<()>(), vec![(NodeId(2), ())]);
    }

    #[test]
    fn capacity_is_maximal_within_budget() {
        for budget in [32u64, 48, 64, 160, 352, 1000] {
            let frag = Fragmenter::new(budget);
            for stream in [0u64, 1, 5, 100] {
                for index in [0u64, 1, 9, 257] {
                    let fixed = gamma_bits(stream) + gamma_bits(index) + 1;
                    let l = frag.capacity(stream, index);
                    assert!(fixed + gamma_bits(l) + l <= budget, "capacity over budget");
                    assert!(
                        fixed + gamma_bits(l + 1) + (l + 1) > budget,
                        "capacity {l} not maximal for budget {budget}, frame ({stream}, {index})"
                    );
                }
            }
        }
    }

    #[test]
    fn gapped_stream_loses_the_message() {
        let frag = Fragmenter::new(40);
        let msg: Vec<u32> = (0..100).collect();
        let chunks = frag.fragment(1, &msg);
        assert!(chunks.len() > 2);
        let mut asm = Reassembler::default();
        for (i, c) in chunks.iter().enumerate() {
            if i != 1 {
                asm.stash(NodeId(0), c); // chunk 1 dropped on the wire
            }
        }
        assert!(asm.take_round::<Vec<u32>>().is_empty(), "gap must kill it");
        // Duplicates, by contrast, are harmless.
        let mut asm = Reassembler::default();
        for c in &chunks {
            asm.stash(NodeId(0), c);
            asm.stash(NodeId(0), c);
        }
        assert_eq!(asm.take_round::<Vec<u32>>(), vec![(NodeId(0), msg)]);
    }

    #[test]
    fn one_chunk_stream_decodes_in_place() {
        let frag = Fragmenter::new(240);
        let msg: Vec<u32> = vec![3, 1, 4, 1, 5];
        let chunks = frag.fragment(0, &msg);
        assert_eq!(chunks.len(), 1, "a short message is one chunk");
        let mut asm = Reassembler::default();
        asm.stash(NodeId(4), &chunks[0]);
        match &asm.streams[0].got {
            Received::One(kept) => assert!(
                Arc::ptr_eq(&kept.data, &chunks[0].data),
                "kept on the sender's buffer, not copied"
            ),
            other => panic!("one-chunk stream stored as {other:?}"),
        }
        assert_eq!(asm.take_round::<Vec<u32>>(), vec![(NodeId(4), msg)]);
        assert_eq!(asm.pending(), 0, "take_round clears");
    }

    #[test]
    fn multi_chunk_stream_copies_its_payload() {
        let frag = Fragmenter::new(40);
        let msg: Vec<u32> = (0..60).map(|i| i * 31).collect();
        let chunks = frag.fragment(2, &msg);
        assert!(chunks.len() > 2);
        let mut asm = Reassembler::default();
        for (i, c) in chunks.iter().enumerate() {
            asm.stash(NodeId(1), c);
            let got = &asm.streams[0].got;
            match i {
                0 => assert!(matches!(got, Received::One(_)), "chunk 0 kept as is"),
                _ => assert!(matches!(got, Received::Many(_)), "copied from chunk 1"),
            }
        }
        assert_eq!(asm.take_round::<Vec<u32>>(), vec![(NodeId(1), msg)]);
    }

    #[test]
    fn shuffled_senders_come_out_in_sender_stream_order() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let frag = Fragmenter::new(48);
        // Five senders, each with a broadcast and two directed streams
        // of different lengths (1 to several chunks).
        let mut streams: Vec<(NodeId, u64, Vec<u32>, Vec<CongestChunk>)> = Vec::new();
        for from in [9u32, 2, 7, 0, 5] {
            for stream in 0..3u64 {
                let msg: Vec<u32> = (0..(from as u64 * 3 + stream * 7) as u32).collect();
                let chunks = frag.fragment(stream, &msg);
                streams.push((NodeId(from), stream, msg, chunks));
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut asm = Reassembler::default();
        // Wire round t delivers chunk t of every stream, senders and
        // streams in shuffled order.
        let rounds = streams.iter().map(|s| s.3.len()).max().unwrap();
        for t in 0..rounds {
            let mut landing: Vec<(NodeId, &CongestChunk)> = streams
                .iter()
                .filter_map(|(from, _, _, chunks)| chunks.get(t).map(|c| (*from, c)))
                .collect();
            landing.shuffle(&mut rng);
            for (from, c) in landing {
                asm.stash(from, c);
            }
        }
        assert_eq!(asm.pending(), streams.len());
        streams.sort_by_key(|s| (s.0, s.1));
        let want: Vec<(NodeId, Vec<u32>)> = streams.into_iter().map(|s| (s.0, s.2)).collect();
        assert_eq!(asm.take_round::<Vec<u32>>(), want);
    }

    #[test]
    fn duplicates_gaps_late_chunks_and_reset() {
        let frag = Fragmenter::new(40);
        let msg: Vec<u32> = (0..40).collect();
        let chunks = frag.fragment(1, &msg);
        assert!(chunks.len() >= 3);
        let short = frag.fragment(0, &7u8);
        assert_eq!(short.len(), 1);
        // A duplicate of an earlier chunk is ignored.
        let mut asm = Reassembler::default();
        asm.stash(NodeId(3), &chunks[0]);
        asm.stash(NodeId(3), &chunks[1]);
        asm.stash(NodeId(3), &chunks[0]);
        for c in &chunks[2..] {
            asm.stash(NodeId(3), c);
        }
        assert_eq!(asm.take_round::<Vec<u32>>(), vec![(NodeId(3), msg.clone())]);
        // A stream first seen past chunk 0 is a gap: lost.
        let mut asm = Reassembler::default();
        for c in &chunks[1..] {
            asm.stash(NodeId(3), c);
        }
        assert_eq!(asm.pending(), 1, "the gapped stream is tracked");
        assert!(asm.take_round::<Vec<u32>>().is_empty());
        // A chunk after the final one kills the stream, also a one-chunk
        // stream; other senders' streams are unaffected.
        let mut asm = Reassembler::default();
        asm.stash(NodeId(1), &short[0]);
        asm.stash(NodeId(8), &short[0]);
        let mut late = short[0].clone();
        late.index = 1;
        asm.stash(NodeId(1), &late);
        assert_eq!(asm.take_round::<u8>(), vec![(NodeId(8), 7)]);
        // An unfinished stream is dropped at take_round.
        let mut asm = Reassembler::default();
        asm.stash(NodeId(3), &chunks[0]);
        assert!(asm.take_round::<Vec<u32>>().is_empty());
        // reset forgets partial streams, so a later round starts clean.
        let mut asm = Reassembler::default();
        asm.stash(NodeId(3), &chunks[0]);
        asm.stash(NodeId(3), &chunks[1]);
        asm.reset();
        assert_eq!(asm.pending(), 0);
        for c in &chunks {
            asm.stash(NodeId(3), c);
        }
        assert_eq!(asm.take_round::<Vec<u32>>(), vec![(NodeId(3), msg)]);
    }

    #[test]
    fn enforcement_guard_is_scoped_and_nests() {
        assert_eq!(enforced_budget(), None);
        {
            let _g = enforce_congest(100);
            assert_eq!(enforced_budget(), Some(100));
            {
                let _h = enforce_congest(64);
                assert_eq!(enforced_budget(), Some(64));
            }
            assert_eq!(enforced_budget(), Some(100));
        }
        assert_eq!(enforced_budget(), None);
    }

    /// Floods neighbor-id lists for `rounds` rounds and returns the
    /// final states; the payload (every neighbor's accumulated set)
    /// quickly outgrows any fixed budget.
    fn flood_sets<D: RoundDriver<Vec<u32>>>(
        mut drv: D,
        ledger: &mut RoundLedger,
        rounds: usize,
    ) -> Vec<Vec<u32>> {
        for _ in 0..rounds {
            drv.round_step(
                ledger,
                "flood-sets",
                |_, s: &mut Vec<u32>, out: &mut Outbox<Vec<u32>>| out.broadcast(s.clone()),
                |_, s, inbox| {
                    for (_, m) in inbox {
                        for &v in m {
                            if !s.contains(&v) {
                                s.push(v);
                            }
                        }
                    }
                    s.sort_unstable();
                },
            );
        }
        drv.into_node_states()
    }

    #[test]
    fn enforced_run_matches_local_run_and_dilates() {
        let g = generators::cycle(16);
        let mut plain_ledger = RoundLedger::new();
        let plain_states = flood_sets(Engine::new(&g, 7, |v| vec![v.0]), &mut plain_ledger, 4);
        let budget = 48;
        let mut cong_ledger = RoundLedger::new();
        let mut drv = CongestEngine::enforced(Engine::new(&g, 7, |v| vec![v.0]), budget);
        for _ in 0..4 {
            drv.round_step(
                &mut cong_ledger,
                "flood-sets",
                |_, s: &mut Vec<u32>, out: &mut Outbox<Vec<u32>>| out.broadcast(s.clone()),
                |_, s, inbox| {
                    for (_, m) in inbox {
                        for &v in m {
                            if !s.contains(&v) {
                                s.push(v);
                            }
                        }
                    }
                    s.sort_unstable();
                },
            );
        }
        assert!(
            cong_ledger.total() > plain_ledger.total(),
            "oversized payloads must dilate ({} wire rounds)",
            cong_ledger.total()
        );
        assert_eq!(cong_ledger.congest_violations(), 0, "chunks fit the budget");
        assert!(cong_ledger.max_edge_bits() <= budget, "no edge over budget");
        let states = drv.into_node_states();
        assert_eq!(states, plain_states, "states bit-identical");
        assert!(plain_ledger.max_edge_bits() > budget, "plain run violates");
    }

    #[test]
    fn transparent_wrapper_is_bit_identical() {
        let g = generators::complete(6);
        let mut a_ledger = RoundLedger::new();
        let a_states = flood_sets(Engine::new(&g, 3, |v| vec![v.0]), &mut a_ledger, 3);
        let mut b_ledger = RoundLedger::new();
        let b_states = flood_sets(
            CongestEngine::transparent(Engine::new(&g, 3, |v| vec![v.0])),
            &mut b_ledger,
            3,
        );
        assert_eq!(a_states, b_states);
        assert_eq!(a_ledger.total(), b_ledger.total());
        assert_eq!(a_ledger.bits_sent(), b_ledger.bits_sent());
    }

    #[test]
    fn compile_reads_the_thread_local_guard() {
        let g = generators::cycle(4);
        let off = compile(Engine::new(&g, 1, |_| ()));
        assert!(!off.is_enforced());
        let _guard = enforce_congest(64);
        let on = compile(Engine::new(&g, 1, |_| ()));
        assert_eq!(on.budget(), Some(64));
        assert_eq!(
            on.inner().bandwidth_policy(),
            BandwidthPolicy::Congest { bits: 64 }
        );
    }
}
