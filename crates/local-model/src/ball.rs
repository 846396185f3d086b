//! Engine-backed ball collection: the standard "collect your radius-`r`
//! neighborhood, then decide locally" compilation of LOCAL algorithms,
//! executed as a real message-passing program.
//!
//! An `r`-round LOCAL algorithm is exactly a function from a node's
//! radius-`r` ball to its output (the KMW locality framing). This module
//! makes that compilation *operational* on the [`crate::Engine`]: nodes
//! flood wire-encoded per-node payloads outward for exactly `r` engine
//! rounds, with per-node dedup, and every transmission is charged its
//! exact wire size through the engine's bandwidth accounting — so phases
//! that used to be centrally simulated produce a real round ledger,
//! measured per-edge bit loads, and determinism coverage.
//!
//! Three drivers, by how much of the neighborhood the local rule needs:
//!
//! * [`run_reach_phase`] — *source* nodes' ids (plus a payload) travel
//!   `r` hops and each node folds every distinct source it hears into a
//!   streaming accumulator. Nothing else is retained per node — the
//!   right primitive for ruling sets on power graphs, where the radius
//!   is `Θ(log n)` and a full view would not fit.
//! * [`run_ball_phase`] — the full compilation: every node is a source
//!   whose payload is its *certificate* (its sorted adjacency list plus
//!   the application payload), each node accumulates the `(id, dist)`
//!   pairs it hears, and its last round assembles a [`BallView`] (member
//!   ids, member payloads, and the induced edges among members,
//!   reconstructed from the certificates) on which a local rule
//!   `Fn(&mut NodeCtx, &BallView<M>) -> D` decides. Memory is 8 bytes per
//!   collected member plus one certificate table per phase (`Θ(n·Δ)`);
//!   the views exist one at a time, inside the rule's call. This is the
//!   tool for the small constant radii of DCC detection and marking
//!   picks.
//! * [`collect_ball_centered`] — single-center collection for repair
//!   procedures: a TTL probe wave expands from the center while
//!   certificates of probed nodes flood back, confining traffic to the
//!   ball and costing `2r` rounds (out and back), the usual LOCAL
//!   charge for an adaptive single-node inspection.
//!
//! Given a membership mask, [`run_reach_phase`] and [`run_ball_phase`]
//! run on the induced subgraph `G[members]` through the
//! [`InducedOverlay`]: non-members relay nothing, every distance is
//! measured inside the subgraph, and ids live in the member-rank space
//! of [`Graph::induced`].
//!
//! # One flood kernel
//!
//! The reach flood, the ball flood and the `G^k` relay of
//! [`crate::overlay`] run on one relay-once kernel. A relay is a batch of
//! source ids into a flood-wide interned payload table (`Arc`s, built
//! once per flood), so relaying and delivering it never clones
//! application data and its charged size is precomputed. On the wire
//! every id is followed by a round-uniform *hop header* and the payload:
//! the header is empty for the reach and ball floods (the batch encodes
//! exactly like [`ReachMsg`]) and is the remaining TTL for `G^k` (exactly
//! like [`crate::OverlayRelay`]). Each node folds what it hears into an
//! accumulator — the caller's for reach floods, `(id, dist)` pairs for
//! ball views, the heard origin ranks for a `G^k` inbox.
//!
//! # Dedup without per-node seen-sets
//!
//! In a synchronous new-items-only flood, a node first hears about a
//! source at round `d = dist(v, c)`, and every duplicate arrives at
//! round `d + 1` or `d + 2` (a neighbor `u` relays `c` exactly once, at
//! round `dist(u, c) + 1`, and `dist(u, c) ∈ {d-1, d, d+1}`). So exact
//! dedup needs only the two most recent "first heard" rounds plus
//! within-round dedup. The kernel keeps that window as a *segmented
//! origin-id filter*: the source ids heard in the two newest rounds, one
//! sorted segment per round. The two segments are the complete duplicate
//! filter, the newest one doubles as the next forwarding frontier, and a
//! source's own id seeds the first segment (blocking its round-2
//! self-echo) — `O(traffic)` total work, `O(ring)` retained ids per node,
//! no retained payload batches. A segment is absorbed into the
//! accumulator when it leaves the window; the last round absorbs the two
//! segments still inside and frees the window, so the accumulator never
//! duplicates it. Absorption is therefore ordered by distance, then
//! ascending id.
//!
//! All decisions are computed inside the engine's recv phase from
//! node-local state only, so they are bit-identical across
//! [`crate::ExecMode`]s (covered by the repository determinism suite and
//! the `ball_equivalence` proptests).

use crate::engine::{node_rngs, Engine, NodeCtx, Outbox, RoundDriver};
use crate::ledger::RoundLedger;
use crate::overlay::{InducedOverlay, OverlayEngine};
use crate::wire::{
    gamma_bits, gamma_u32s_bits, read_gamma_u32s, write_gamma_u32s, BitReader, BitWriter, WireCodec,
};
use delta_graphs::bfs::Ball;
use delta_graphs::{Graph, GraphBuilder, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One node's contribution to a ball flood: its identity, its full
/// (sorted) adjacency list — the *certificate* from which receivers
/// reconstruct induced edges — and an application payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallItem<M> {
    /// Global id of the described node.
    pub id: u32,
    /// The node's sorted adjacency list (global ids).
    pub adj: Vec<u32>,
    /// Application payload shared with every node that collects `id`.
    pub payload: M,
}

impl<M: WireCodec> WireCodec for BallItem<M> {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.id as u64);
        write_gamma_u32s(w, &self.adj);
        self.payload.encode(w);
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        let id = r.read_gamma_u32()?;
        let adj = read_gamma_u32s(r)?;
        let payload = M::decode(r)?;
        Some(BallItem { id, adj, payload })
    }
    fn encoded_bits(&self) -> u64 {
        gamma_bits(self.id as u64) + gamma_u32s_bits(&self.adj) + self.payload.encoded_bits()
    }
}

/// Ball-collection relay: the items the sender first learned last
/// round. A single relay can carry `Θ(Δ^r)` certificates, which is
/// exactly why ball-collection phases dilate on `O(log n)`-bit wires.
/// The flood itself sends the interned equivalent (a batch of
/// certificate ids), which encodes exactly like this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallMsg<M>(pub Vec<BallItem<M>>);

impl<M: WireCodec> WireCodec for BallMsg<M> {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.0.len() as u64);
        for item in &self.0 {
            item.encode(w);
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        let len = r.read_gamma()?;
        let mut items = Vec::with_capacity(r.capacity_hint(len));
        for _ in 0..len {
            items.push(BallItem::decode(r)?);
        }
        Some(BallMsg(items))
    }
    fn encoded_bits(&self) -> u64 {
        gamma_bits(self.0.len() as u64) + self.0.iter().map(WireCodec::encoded_bits).sum::<u64>()
    }
}

/// Reach-flood relay: `(source id, payload)` pairs first learned last
/// round. One relay batches every source crossing the edge this round,
/// so its size has no `O(log n)` bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachMsg<M>(pub Vec<(u32, M)>);

impl<M: WireCodec> WireCodec for ReachMsg<M> {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.0.len() as u64);
        for (id, m) in &self.0 {
            w.write_gamma(*id as u64);
            m.encode(w);
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        let len = r.read_gamma()?;
        let mut items = Vec::with_capacity(r.capacity_hint(len));
        for _ in 0..len {
            let id = r.read_gamma_u32()?;
            items.push((id, M::decode(r)?));
        }
        Some(ReachMsg(items))
    }
    fn encoded_bits(&self) -> u64 {
        gamma_bits(self.0.len() as u64)
            + self
                .0
                .iter()
                .map(|(id, m)| gamma_bits(*id as u64) + m.encoded_bits())
                .sum::<u64>()
    }
}

/// A ball-flood source payload: a node's sorted adjacency list (in the
/// flood's id space) and its application payload. Encodes as
/// `gamma_u32s(adj)` then the payload, so a `ReachBatch<Cert<M>>` is
/// bit-for-bit the [`BallMsg`] over the same ids.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cert<M> {
    adj: Vec<u32>,
    payload: M,
}

impl<M: WireCodec> WireCodec for Cert<M> {
    fn encode(&self, w: &mut BitWriter) {
        write_gamma_u32s(w, &self.adj);
        self.payload.encode(w);
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        let adj = read_gamma_u32s(r)?;
        let payload = M::decode(r)?;
        Some(Cert { adj, payload })
    }
    fn encoded_bits(&self) -> u64 {
        gamma_u32s_bits(&self.adj) + self.payload.encoded_bits()
    }
}

/// A flood's interned payload table: one entry per id of the flood's id
/// space, `Some` exactly for the sources that flood. Built once per
/// flood, so relaying and delivering a batch never clones application
/// data.
pub(crate) type PayloadTable<M> = Arc<Vec<Option<Arc<M>>>>;

/// Wire size of every table entry (0 for ids that do not flood), so a
/// batch's charged size is a sum of lookups.
pub(crate) fn payload_bits<M: WireCodec>(table: &[Option<Arc<M>>]) -> Vec<u64> {
    table
        .iter()
        .map(|p| p.as_ref().map_or(0, |m| m.encoded_bits()))
        .collect()
}

/// The payloads behind a relay batch's ids. A batch built by a sender
/// shares the flood's [`PayloadTable`], indexed by id. A batch decoded
/// off the wire cannot recover that table — and the CONGEST reassembler
/// decodes every relay — so it keeps its decoded payloads parallel to
/// its ids: O(items) memory whatever ids the stream names.
enum BatchPayloads<M> {
    Shared(PayloadTable<M>),
    Decoded(Vec<M>),
}

impl<M> BatchPayloads<M> {
    /// The payload of the batch's `i`-th id, `id`.
    fn get(&self, i: usize, id: u32) -> &M {
        match self {
            BatchPayloads::Shared(table) => table[id as usize]
                .as_deref()
                .expect("a forwarded id has a payload"),
            BatchPayloads::Decoded(items) => &items[i],
        }
    }
}

/// The per-item hop header of a relay batch, written after every id:
/// `()` for the reach and ball floods, the remaining TTL for `G^k`
/// relays. Uniform within a relay round, so a batch stores it once.
pub(crate) trait HopHeader:
    WireCodec + Copy + PartialEq + Default + Send + Sync + 'static
{
}

impl<H: WireCodec + Copy + PartialEq + Default + Send + Sync + 'static> HopHeader for H {}

/// The kernel's relay with interned payloads: the source ids a node
/// forwards this round, the round's hop header, and a handle to the
/// flood's shared payload table. Equivalent on the wire — bit-for-bit,
/// including `encoded_bits` — to the [`ReachMsg`] carrying `(id,
/// payloads[id])` pairs when `H = ()`, and to the
/// [`crate::OverlayRelay`] carrying `(id, ttl, payloads[id])` items for a
/// TTL header; but a per-edge copy is one refcount bump and the charged
/// size is precomputed (pinned by `reach_batch_encodes_like_reach_msg`
/// and, for the TTL header, `flood_batch_encodes_like_overlay_relay`).
pub(crate) struct ReachBatch<M, H>(Arc<ReachRelay<M, H>>);

/// The contents of a [`ReachBatch`], shared by all its copies.
struct ReachRelay<M, H> {
    /// Forwarded source ids (sorted; the sender's newest segment).
    ids: Vec<u32>,
    /// The hop header every item carries.
    hop: H,
    /// The payloads of `ids`.
    payloads: BatchPayloads<M>,
    /// Exact wire size, precomputed at construction.
    wire_bits: u64,
}

impl<M, H> Clone for ReachBatch<M, H> {
    fn clone(&self) -> Self {
        ReachBatch(Arc::clone(&self.0))
    }
}

impl<M: WireCodec, H: HopHeader> ReachBatch<M, H> {
    pub(crate) fn new(ids: Vec<u32>, hop: H, payloads: &PayloadTable<M>, bits_of: &[u64]) -> Self {
        let hop_bits = hop.encoded_bits();
        let wire_bits = gamma_bits(ids.len() as u64)
            + ids
                .iter()
                .map(|&id| gamma_bits(id as u64) + hop_bits + bits_of[id as usize])
                .sum::<u64>();
        ReachBatch(Arc::new(ReachRelay {
            ids,
            hop,
            payloads: BatchPayloads::Shared(Arc::clone(payloads)),
            wire_bits,
        }))
    }

    /// The batch's ids, hop header and payloads, for codec tests
    /// outside this module.
    #[cfg(test)]
    pub(crate) fn contents(&self) -> (&[u32], H, Vec<&M>) {
        let b = &*self.0;
        let payloads = b
            .ids
            .iter()
            .enumerate()
            .map(|(i, &id)| b.payloads.get(i, id));
        (&b.ids, b.hop, payloads.collect())
    }
}

impl<M: WireCodec, H: HopHeader> WireCodec for ReachBatch<M, H> {
    fn encode(&self, w: &mut BitWriter) {
        let b = &*self.0;
        w.write_gamma(b.ids.len() as u64);
        for (i, &id) in b.ids.iter().enumerate() {
            w.write_gamma(id as u64);
            b.hop.encode(w);
            b.payloads.get(i, id).encode(w);
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        // The CONGEST reassembler decodes every relay; the payloads
        // stay parallel to the ids (`BatchPayloads::Decoded`).
        let len = r.read_gamma()?;
        let cap = r.capacity_hint(len);
        let (mut ids, mut decoded) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        let mut hop: Option<H> = None;
        let mut wire_bits = gamma_bits(len);
        for _ in 0..len {
            let id = r.read_gamma_u32()?;
            let h = H::decode(r)?;
            if hop.is_some_and(|first| first != h) {
                return None; // a relay's header is round-uniform
            }
            hop = Some(h);
            let m = M::decode(r)?;
            wire_bits += gamma_bits(id as u64) + h.encoded_bits() + m.encoded_bits();
            ids.push(id);
            decoded.push(m);
        }
        Some(ReachBatch(Arc::new(ReachRelay {
            ids,
            hop: hop.unwrap_or_default(),
            payloads: BatchPayloads::Decoded(decoded),
            wire_bits,
        })))
    }
    fn encoded_bits(&self) -> u64 {
        self.0.wire_bits
    }
}

/// The radius-`r` neighborhood a node assembled from the flood: the
/// induced subgraph on every node within distance `r`, as member ids,
/// payloads, and the edges among members.
///
/// Member arrays are parallel and sorted by global id; the engine's
/// deterministic delivery makes the whole view bit-identical across
/// execution modes. [`BallView::to_ball`] converts into the
/// [`delta_graphs::bfs::Ball`] shape (a materialized local [`Graph`]),
/// which is what the structure-inspection helpers consume; the
/// `ball_equivalence` proptests pin it to the [`Graph::ball`] oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallView<M> {
    /// Global id of the collecting node.
    pub center: NodeId,
    /// The radius the view was collected with.
    pub radius: usize,
    /// Sorted global ids of every node within distance `radius`.
    pub members: Vec<u32>,
    /// Distance from the center, parallel to `members`.
    pub dist: Vec<u32>,
    /// Payloads, parallel to `members`.
    pub payloads: Vec<M>,
    /// Induced edges among members as `(u, v)` with `u < v`, sorted.
    pub edges: Vec<(u32, u32)>,
}

impl<M> BallView<M> {
    /// Number of members (including the center).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view contains only its center.
    pub fn is_empty(&self) -> bool {
        self.members.len() <= 1
    }

    /// Index of a global id within the member arrays.
    pub fn position(&self, id: NodeId) -> Option<usize> {
        self.members.binary_search(&id.0).ok()
    }

    /// The payload of a member, if present.
    pub fn payload_of(&self, id: NodeId) -> Option<&M> {
        self.position(id).map(|i| &self.payloads[i])
    }

    /// Materializes the view as a [`Ball`] (local induced [`Graph`] plus
    /// the local/global mapping) for the structure helpers that consume
    /// that shape.
    pub fn to_ball(&self) -> Ball {
        let mut b = GraphBuilder::new(self.members.len());
        for &(u, v) in &self.edges {
            let lu = self
                .members
                .binary_search(&u)
                .expect("edge endpoint is a member");
            let lv = self
                .members
                .binary_search(&v)
                .expect("edge endpoint is a member");
            b.add_edge(lu as u32, lv as u32);
        }
        let center = NodeId::from_index(
            self.members
                .binary_search(&self.center.0)
                .expect("center is a member"),
        );
        Ball {
            graph: b.build(),
            globals: self.members.iter().map(|&g| NodeId(g)).collect(),
            center,
            dist: self.dist.clone(),
            radius: self.radius,
        }
    }
}

/// Assembles a node's [`BallView`] from the `(id, dist)` pairs it
/// absorbed and the phase's certificate table.
fn assemble_view<M: Clone>(
    center: NodeId,
    radius: usize,
    mut by_id: Vec<(u32, u32)>,
    certs: &[Option<Arc<Cert<M>>>],
) -> BallView<M> {
    // Absorption is ordered by distance, then id; the view is by id.
    by_id.sort_unstable();
    let members: Vec<u32> = by_id.iter().map(|&(id, _)| id).collect();
    let dist: Vec<u32> = by_id.iter().map(|&(_, d)| d).collect();
    let cert = |id: u32| certs[id as usize].as_deref().expect("every node floods");
    let payloads: Vec<M> = members.iter().map(|&id| cert(id).payload.clone()).collect();
    let mut edges = Vec::new();
    for &u in &members {
        for &w in &cert(u).adj {
            if u < w && members.binary_search(&w).is_ok() {
                edges.push((u, w));
            }
        }
    }
    edges.sort_unstable();
    BallView {
        center,
        radius,
        members,
        dist,
        payloads,
        edges,
    }
}

/// Runs one radius-`r` ball-collection phase for **every node
/// simultaneously** (the batch semantics of LOCAL ball collection:
/// everyone floods at once, `r` rounds total) and applies `rule` to each
/// node's assembled [`BallView`] — with access to the node's private,
/// seed-deterministic randomness — returning the per-node decisions.
///
/// With `members`, the phase runs on the **induced subgraph**
/// `G[members]` through the [`InducedOverlay`]: non-members relay
/// nothing and receive nothing, certificates carry the subgraph's
/// adjacency, and the views are id-for-id the views a materialized
/// `g.induced(members)` run would produce. Every id — handed to
/// `payload_of`/`rule`, or indexing the returned vector — then lives in
/// the member-rank space (ranks in host-id order, exactly
/// [`Graph::induced`]'s compaction).
///
/// Costs exactly `radius` rounds (dilation 1 under a mask), charged
/// (rounds *and* measured bits) to `phase` on the ledger. `radius == 0`
/// costs nothing and the views contain only the centers.
///
/// # Example
///
/// Count the triangles through each node — 1-hop topology:
///
/// ```
/// use delta_graphs::generators;
/// use local_model::{ball::run_ball_phase, RoundLedger};
///
/// let g = generators::complete(4);
/// let mut ledger = RoundLedger::new();
/// let tri = run_ball_phase(
///     &g,
///     None,
///     0,
///     1,
///     |_| (),
///     |_, view| view.edges.iter().filter(|&&(u, v)| {
///         u != view.center.0 && v != view.center.0
///     }).count(),
///     &mut ledger,
///     "triangles",
/// );
/// assert!(tri.iter().all(|&t| t == 3)); // K4: every node in 3 triangles
/// assert_eq!(ledger.total(), 1);
/// assert!(ledger.bits_sent() > 0);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn run_ball_phase<M, D, P, R>(
    graph: &Graph,
    members: Option<&[bool]>,
    seed: u64,
    radius: usize,
    payload_of: P,
    rule: R,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Vec<D>
where
    M: Clone + Send + Sync + WireCodec + 'static,
    D: Send,
    P: Fn(NodeId) -> M + Sync,
    R: Fn(&mut NodeCtx<'_>, &BallView<M>) -> D + Sync,
{
    let induced = members.map(|mask| Induced::new(graph, mask));
    // Certificates carry the adjacency of the graph the flood runs on:
    // the host, or G[members] in rank space.
    let space = induced.as_ref().map_or(graph, |i| &i.sub);
    let certs = intern_sources(space.n(), &|v| {
        Some(Cert {
            adj: space.neighbors(v).iter().map(|w| w.0).collect(),
            payload: payload_of(v),
        })
    });
    let table = Arc::clone(&certs);
    reach_flood(
        graph,
        induced,
        seed,
        radius,
        certs,
        |_| Vec::new(),
        |heard: &mut Vec<(u32, u32)>, seg, dist| heard.extend(seg.iter().map(|&id| (id, dist))),
        |ctx, heard| {
            let view = assemble_view(ctx.id, radius, std::mem::take(heard), &table);
            rule(ctx, &view)
        },
        ledger,
        phase,
    )
}

/// Per-node state of the flood kernel: the segmented origin-id window
/// (module docs) plus the caller's accumulator. Segment
/// `[last_start..]` holds sources first heard last round (sorted ids —
/// dist `t-1` at round `t`, the forwarding frontier), segment
/// `[..last_start]` the round before; a source's own id seeds the first
/// segment. A segment is absorbed into `acc` when it leaves the window.
/// Payloads are never retained here — they live in the flood's shared
/// table.
pub(crate) struct ReachState<A, D> {
    acc: A,
    /// Source ids of the window's two rounds (each segment sorted).
    heard: Vec<u32>,
    /// Start of the newest segment (= the frontier).
    last_start: u32,
    decision: Option<D>,
}

impl<A, D> ReachState<A, D> {
    /// Node `v`'s round-0 state: its accumulator and, if `v` is a source
    /// (has a payload), its own id seeding the window (distance 0, the
    /// first forwarding frontier).
    pub(crate) fn new<M>(v: NodeId, acc: A, payloads: &[Option<Arc<M>>]) -> Self {
        ReachState {
            acc,
            heard: if payloads[v.index()].is_some() {
                vec![v.0]
            } else {
                Vec::new()
            },
            last_start: 0,
            decision: None,
        }
    }

    /// After round `t`: absorbs the window's two segments (distances
    /// `t - 1` and `t`) and frees it.
    fn settle(&mut self, t: u32, absorb: &impl Fn(&mut A, &[u32], u32)) {
        let (older, newest) = self.heard.split_at(self.last_start as usize);
        if !older.is_empty() {
            absorb(&mut self.acc, older, t - 1);
        }
        absorb(&mut self.acc, newest, t);
        self.heard = Vec::new();
    }
}

/// Runs one radius-`r` **reach flood**: every node for which `source`
/// returns a payload floods its id (plus the payload) `r` hops; every
/// node absorbs each distinct source it hears — including itself, at
/// distance 0 — into a streaming accumulator via `absorb(acc, source_id,
/// dist, payload)` (by distance, then ascending id), and `finish` turns
/// the accumulator into the node's decision with access to its private
/// randomness.
///
/// Nothing is retained beyond the caller's accumulator and an `O(ring)`
/// dedup window (see the module docs), so it scales to the
/// `Θ(log n)`-radius floods of power-graph ruling sets. With `members`,
/// the flood runs on the induced subgraph `G[members]` exactly as
/// [`run_ball_phase`] does: distances are measured inside the subgraph
/// and ids live in the member-rank space. Costs exactly `radius` rounds
/// charged to `phase`.
#[allow(clippy::too_many_arguments)]
pub fn run_reach_phase<M, A, D, SRC, INIT, ABS, FIN>(
    graph: &Graph,
    members: Option<&[bool]>,
    seed: u64,
    radius: usize,
    source: SRC,
    init: INIT,
    absorb: ABS,
    finish: FIN,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Vec<D>
where
    M: Clone + Send + Sync + WireCodec + 'static,
    A: Send,
    D: Send,
    SRC: Fn(NodeId) -> Option<M> + Sync,
    INIT: Fn(NodeId) -> A + Sync,
    ABS: Fn(&mut A, u32, u32, &M) + Sync,
    FIN: Fn(&mut NodeCtx<'_>, &A) -> D + Sync,
{
    let induced = members.map(|mask| Induced::new(graph, mask));
    let n = induced.as_ref().map_or(graph.n(), |i| i.sub.n());
    let payloads = intern_sources(n, &source);
    let table = Arc::clone(&payloads);
    reach_flood(
        graph,
        induced,
        seed,
        radius,
        payloads,
        init,
        |acc: &mut A, seg: &[u32], dist| {
            for &id in seg {
                let m = table[id as usize].as_deref();
                absorb(acc, id, dist, m.expect("heard source has a payload"));
            }
        },
        |ctx, acc| finish(ctx, acc),
        ledger,
        phase,
    )
}

/// Interns every source's payload once into the flood-wide shared
/// table; ids are in the flood's id space (host ids or member ranks).
fn intern_sources<M>(n: usize, source: &impl Fn(NodeId) -> Option<M>) -> PayloadTable<M> {
    Arc::new(
        (0..n)
            .map(|i| source(NodeId::from_index(i)).map(Arc::new))
            .collect(),
    )
}

/// A masked flood's `G[members]`, built once and shared by the
/// certificates and the relay.
struct Induced<'m> {
    mask: &'m [bool],
    /// `G[members]` in member-rank space ([`Graph::induced`]).
    sub: Graph,
    /// Sorted host ids of the members: rank `r` is `members[r]`.
    members: Vec<NodeId>,
}

impl<'m> Induced<'m> {
    fn new(host: &Graph, mask: &'m [bool]) -> Self {
        let members: Vec<NodeId> = host.nodes().filter(|v| mask[v.index()]).collect();
        let (sub, members) = host.induced(&members);
        Induced { mask, sub, members }
    }
}

/// Runs the reach or ball flood of the interned `payloads` — in the
/// flood's id space: host ids on the host [`Engine`], or member ranks
/// through the [`InducedOverlay`] when `induced` is given. At radius 0
/// no round runs: each node absorbs only itself and finishes with the
/// randomness a driver with this seed would give it.
#[allow(clippy::too_many_arguments)]
fn reach_flood<M, A, D, INIT, ABS, FIN>(
    graph: &Graph,
    induced: Option<Induced<'_>>,
    seed: u64,
    radius: usize,
    payloads: PayloadTable<M>,
    init: INIT,
    absorb: ABS,
    finish: FIN,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Vec<D>
where
    M: Clone + Send + Sync + WireCodec + 'static,
    A: Send,
    D: Send,
    INIT: Fn(NodeId) -> A + Sync,
    ABS: Fn(&mut A, &[u32], u32) + Sync,
    FIN: Fn(&mut NodeCtx<'_>, &mut A) -> D + Sync,
{
    let state = |v: NodeId| ReachState::new(v, init(v), &payloads);
    if radius == 0 {
        let space = induced.as_ref().map_or(graph, |i| &i.sub);
        let mut rngs = node_rngs(seed, space.n());
        return rngs
            .iter_mut()
            .enumerate()
            .map(|(i, rng)| {
                let v = NodeId::from_index(i);
                let mut s: ReachState<A, D> = state(v);
                s.settle(0, &absorb);
                let mut ctx = NodeCtx {
                    id: v,
                    degree: space.degree(v),
                    rng,
                };
                finish(&mut ctx, &mut s.acc)
            })
            .collect();
    }
    let bits_of = payload_bits(&payloads);
    match induced {
        None => reach_phase_core(
            crate::congest::compile(Engine::new(graph, seed, state)),
            radius,
            &payloads,
            &bits_of,
            |_| (),
            absorb,
            finish,
            ledger,
            phase,
        ),
        Some(Induced { mask, sub, members }) => reach_phase_core(
            crate::congest::compile(OverlayEngine::assemble(
                graph,
                InducedOverlay { members: mask },
                members,
                Some(sub),
                seed,
                state,
            )),
            radius,
            &payloads,
            &bits_of,
            |_| (),
            absorb,
            finish,
            ledger,
            phase,
        ),
    }
}

thread_local! {
    /// Per-thread arrivals buffer for the kernel's recv phase: collected
    /// ids are gathered, sorted, and filtered here, so the steady-state
    /// per-node recv cost allocates nothing and nothing is retained per
    /// node. Safe because no user code runs while the borrow is held.
    static FRESH_SCRATCH: std::cell::RefCell<Vec<u32>> =
        const { std::cell::RefCell::new(Vec::new()) };

    /// Per-thread epoch-stamped id table for the kernel's dedup: one
    /// `u32` per id in the flood's id space, shared by every node the
    /// thread processes (a fresh epoch per recv makes it per-node-fresh
    /// in O(1)). This is what makes the duplicate filter O(1) per
    /// arrival — the flood's hot loop — without any per-node seen-set.
    static DEDUP_STAMP: std::cell::RefCell<(Vec<u32>, u32)> =
        const { std::cell::RefCell::new((Vec::new(), 0)) };
}

/// Runs `f` on the thread's shared arrivals scratch (cleared first).
/// Callers must not invoke user program code while inside `f` — a
/// nested flood on this thread would re-borrow the scratch.
fn with_fresh_scratch<R>(f: impl FnOnce(&mut Vec<u32>) -> R) -> R {
    FRESH_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        f(&mut buf)
    })
}

/// Runs `f` with an epoch-fresh stamp table covering ids `0..n`:
/// `stamp[id] == epoch` means "seen during this call" — `f` marks the
/// node's dedup window first, then probes/marks arrivals in O(1) each.
/// Like [`with_fresh_scratch`], `f` must not run user program code.
fn with_dedup_stamp<R>(n: usize, f: impl FnOnce(&mut [u32], u32) -> R) -> R {
    DEDUP_STAMP.with(|cell| {
        let (stamp, epoch) = &mut *cell.borrow_mut();
        if stamp.len() < n {
            stamp.resize(n, 0);
        }
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            stamp.fill(0);
            *epoch = 1;
        }
        f(stamp, *epoch)
    })
}

/// The flood kernel (module docs), generic over the round driver: the
/// host [`Engine`] for reach and ball floods, [`OverlayEngine`] for
/// induced ones, and the overlay's host relay engine for `G^k`. Every
/// node starts from its [`ReachState::new`] seed. Round `t`
/// (`1..=radius`, `radius >= 1`) forwards each newest segment as one
/// batch whose items carry `hop(t)`, absorbs the segment that leaves the
/// window (distance `t - 2`) through `absorb(acc, segment, dist)`,
/// filters the arrivals and rotates the window. The last round absorbs
/// what is left, frees the window and hands the accumulator to
/// `finish`, which may move it out. When tracing, the size of the new
/// frontier is observed as `flood_frontier` after every round.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reach_phase_core<M, H, A, D, HOP, ABS, FIN, DR>(
    mut driver: DR,
    radius: usize,
    payloads: &PayloadTable<M>,
    bits_of: &[u64],
    hop: HOP,
    absorb: ABS,
    finish: FIN,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Vec<D>
where
    M: Clone + Send + Sync + WireCodec + 'static,
    H: HopHeader,
    A: Send,
    D: Send,
    HOP: Fn(u32) -> H,
    ABS: Fn(&mut A, &[u32], u32) + Sync,
    FIN: Fn(&mut NodeCtx<'_>, &mut A) -> D + Sync,
    DR: RoundDriver<ReachState<A, D>>,
{
    let tracing = ledger.tracing();
    let frontier = AtomicU64::new(0);
    for t in 1..=radius as u32 {
        let last = t as usize == radius;
        let header = hop(t);
        driver.round_step(
            ledger,
            phase,
            |_, s: &mut ReachState<A, D>, out: &mut Outbox<ReachBatch<M, H>>| {
                // Forward the newest segment: the sources first heard
                // at round t-1, payloads looked up from the table.
                let seg = &s.heard[s.last_start as usize..];
                if !seg.is_empty() {
                    out.broadcast(ReachBatch::new(seg.to_vec(), header, payloads, bits_of));
                }
            },
            |ctx, s, inbox| {
                // The older segment (first heard at round t-2) can see
                // no more duplicates: absorb it now, outside the scratch
                // borrow — absorb/finish are caller code and may start
                // a nested flood on this thread.
                let older = s.last_start as usize;
                if older > 0 {
                    absorb(&mut s.acc, &s.heard[..older], t - 2);
                }
                // Gather this round's arrival ids, dedup within the
                // round, then drop everything already in the window's
                // two segments — exact dedup, see the module docs.
                with_fresh_scratch(|fresh| {
                    with_dedup_stamp(payloads.len(), |stamp, epoch| {
                        // Mark the window, then filter arrivals in O(1)
                        // each; marking accepted ids inline also settles
                        // cross-batch duplicates.
                        for &id in &s.heard {
                            stamp[id as usize] = epoch;
                        }
                        for (_, b) in inbox {
                            for &id in &b.0.ids {
                                let m = &mut stamp[id as usize];
                                if *m != epoch {
                                    *m = epoch;
                                    fresh.push(id);
                                }
                            }
                        }
                    });
                    // Arrival order is per-batch; the window segment
                    // invariant wants ascending ids.
                    fresh.sort_unstable();
                    // Rotate the window: the absorbed older segment
                    // goes, and this round's segment is appended.
                    s.heard.drain(..older);
                    s.last_start = s.heard.len() as u32;
                    s.heard.extend_from_slice(fresh);
                });
                if tracing {
                    let fresh = s.heard.len() - s.last_start as usize;
                    frontier.fetch_add(fresh as u64, Ordering::Relaxed);
                }
                if last {
                    s.settle(t, &absorb);
                    s.decision = Some(finish(ctx, &mut s.acc));
                }
            },
        );
        if tracing {
            // (node, source) pairs first heard this round — the next
            // round's forwarding frontier.
            ledger.trace_observe("flood_frontier", frontier.swap(0, Ordering::Relaxed));
        }
    }
    driver
        .into_node_states()
        .into_iter()
        .map(|s| s.decision.expect("final round decided every node"))
        .collect()
}

/// One step of the single-center collection: an optional probe relay
/// (TTL of the wave front) plus the certificates first learned last
/// round. Like every ball relay, one message can carry many
/// certificates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CenterMsg {
    /// Probe relay: the remaining TTL for receivers.
    pub probe_ttl: Option<u32>,
    /// Certificates flooding back toward the center.
    pub items: Vec<CenterItem>,
}

/// A certificate traveling back to the collecting center: the described
/// node's id, its distance from the center (stamped when probed), and
/// its sorted adjacency list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CenterItem {
    /// Global id of the described node.
    pub id: u32,
    /// Distance from the collection center.
    pub dist: u32,
    /// The node's sorted adjacency list (global ids).
    pub adj: Vec<u32>,
}

impl WireCodec for CenterItem {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.id as u64);
        w.write_gamma(self.dist as u64);
        write_gamma_u32s(w, &self.adj);
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        Some(CenterItem {
            id: r.read_gamma_u32()?,
            dist: r.read_gamma_u32()?,
            adj: read_gamma_u32s(r)?,
        })
    }
    fn encoded_bits(&self) -> u64 {
        gamma_bits(self.id as u64) + gamma_bits(self.dist as u64) + gamma_u32s_bits(&self.adj)
    }
}

impl WireCodec for CenterMsg {
    fn encode(&self, w: &mut BitWriter) {
        self.probe_ttl.encode(w);
        w.write_gamma(self.items.len() as u64);
        for item in &self.items {
            item.encode(w);
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        let probe_ttl = Option::<u32>::decode(r)?;
        let len = r.read_gamma()?;
        let mut items = Vec::with_capacity(r.capacity_hint(len));
        for _ in 0..len {
            items.push(CenterItem::decode(r)?);
        }
        Some(CenterMsg { probe_ttl, items })
    }
    fn encoded_bits(&self) -> u64 {
        self.probe_ttl.encoded_bits()
            + gamma_bits(self.items.len() as u64)
            + self.items.iter().map(WireCodec::encoded_bits).sum::<u64>()
    }
}

struct CenterState {
    /// Round this node was probed (center: 0), and the remaining TTL.
    probed: Option<(u32, u32)>,
    /// Whether the probe was already relayed.
    probe_sent: bool,
    /// Sorted ids of certificates seen (dedup).
    seen: Vec<u32>,
    /// Collected certificates (only consumed at the center).
    items: Vec<CenterItem>,
    /// Certificates first learned last round, relayed next round.
    frontier: Vec<CenterItem>,
}

/// Collects the radius-`r` ball of a **single** node through the engine:
/// a TTL-`r` probe wave expands from `center` (so only nodes inside the
/// ball ever transmit) while the probed nodes' adjacency certificates
/// flood back along the wave; after `2r` rounds — out and back, the
/// standard LOCAL charge for an adaptive single-center inspection — the
/// center has assembled its exact radius-`r` [`Ball`].
///
/// Engine rounds and measured bits are charged to `phase`. `radius == 0`
/// charges nothing.
pub fn collect_ball_centered(
    graph: &Graph,
    center: NodeId,
    radius: usize,
    ledger: &mut RoundLedger,
    phase: &str,
) -> Ball {
    if radius == 0 || graph.n() <= 1 {
        return graph.ball(center, radius);
    }
    let own_item = |v: NodeId, dist: u32| CenterItem {
        id: v.0,
        dist,
        adj: graph.neighbors(v).iter().map(|w| w.0).collect(),
    };
    let mut engine = crate::congest::compile(Engine::new(graph, 0, |v| {
        if v == center {
            let item = own_item(v, 0);
            CenterState {
                probed: Some((0, radius as u32)),
                probe_sent: false,
                seen: vec![v.0],
                items: vec![item.clone()],
                frontier: vec![item],
            }
        } else {
            CenterState {
                probed: None,
                probe_sent: false,
                seen: Vec::new(),
                items: Vec::new(),
                frontier: Vec::new(),
            }
        }
    }));
    for t in 1..=(2 * radius) as u32 {
        engine.round_step(
            ledger,
            phase,
            |_, s: &mut CenterState, out: &mut Outbox<CenterMsg>| {
                let Some((_, ttl)) = s.probed else {
                    return;
                };
                let probe_ttl = if !s.probe_sent && ttl > 0 {
                    s.probe_sent = true;
                    Some(ttl - 1)
                } else {
                    None
                };
                let items = std::mem::take(&mut s.frontier);
                if probe_ttl.is_some() || !items.is_empty() {
                    out.broadcast(CenterMsg { probe_ttl, items });
                }
            },
            |ctx, s, inbox| {
                for (_, msg) in inbox {
                    if let Some(ttl) = msg.probe_ttl {
                        if s.probed.is_none() {
                            // All probes arriving this round carry the
                            // same TTL (radius - t): the wave front is
                            // synchronous.
                            s.probed = Some((t, ttl));
                            let item = own_item(ctx.id, t);
                            s.seen.push(ctx.id.0);
                            s.seen.sort_unstable();
                            s.items.push(item.clone());
                            s.frontier.push(item);
                        }
                    }
                    if s.probed.is_some() {
                        for item in &msg.items {
                            if let Err(at) = s.seen.binary_search(&item.id) {
                                s.seen.insert(at, item.id);
                                s.items.push(item.clone());
                                s.frontier.push(item.clone());
                            }
                        }
                    }
                }
            },
        );
    }
    let state = &engine.node_states()[center.index()];
    let mut order: Vec<usize> = (0..state.items.len()).collect();
    order.sort_unstable_by_key(|&i| state.items[i].id);
    let members: Vec<u32> = order.iter().map(|&i| state.items[i].id).collect();
    let dist: Vec<u32> = order.iter().map(|&i| state.items[i].dist).collect();
    let mut b = GraphBuilder::new(members.len());
    for &i in &order {
        let item = &state.items[i];
        let lu = members.binary_search(&item.id).expect("own id is a member");
        for &w in &item.adj {
            if item.id < w {
                if let Ok(lw) = members.binary_search(&w) {
                    b.add_edge(lu as u32, lw as u32);
                }
            }
        }
    }
    let center_local = NodeId::from_index(
        members
            .binary_search(&center.0)
            .expect("center collects itself"),
    );
    Ball {
        graph: b.build(),
        globals: members.iter().map(|&g| NodeId(g)).collect(),
        center: center_local,
        dist,
        radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_graphs::{bfs, generators};

    fn views_match_oracle<M: Clone + PartialEq + std::fmt::Debug>(
        g: &Graph,
        r: usize,
        views: &[BallView<M>],
    ) {
        for (i, view) in views.iter().enumerate() {
            let v = NodeId::from_index(i);
            let oracle = g.ball(v, r);
            assert_eq!(view.center, v);
            let want: Vec<u32> = oracle.globals.iter().map(|w| w.0).collect();
            assert_eq!(view.members, want, "members of {v}");
            // Oracle globals are sorted, so dists align index-wise.
            assert_eq!(view.dist, oracle.dist, "dist of {v}");
            let ball = view.to_ball();
            assert_eq!(ball.graph, oracle.graph, "induced edges of {v}");
            assert_eq!(ball.center, oracle.center);
        }
    }

    #[test]
    fn full_views_match_central_oracle() {
        for g in [
            generators::cycle(12),
            generators::torus(4, 5),
            generators::random_regular(60, 4, 3),
            generators::star(5),
            Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap(), // disconnected
        ] {
            for r in 0..=3 {
                let mut ledger = RoundLedger::new();
                let views = run_ball_phase::<(), _, _, _>(
                    &g,
                    None,
                    0,
                    r,
                    |_| (),
                    |_, v| v.clone(),
                    &mut ledger,
                    "b",
                );
                assert_eq!(ledger.total(), r as u64);
                views_match_oracle(&g, r, &views);
                if r > 0 && g.m() > 0 {
                    assert!(ledger.bits_sent() > 0, "flood must be measured");
                }
            }
        }
    }

    #[test]
    fn payloads_travel_with_items() {
        let g = generators::cycle(8);
        let mut ledger = RoundLedger::new();
        let views = run_ball_phase(
            &g,
            None,
            0,
            2,
            |v| v.0 * 10,
            |_, v| v.clone(),
            &mut ledger,
            "b",
        );
        for view in &views {
            for (i, &m) in view.members.iter().enumerate() {
                assert_eq!(view.payloads[i], m * 10);
            }
        }
    }

    #[test]
    fn rule_sees_rng_and_runs_once_per_node() {
        let g = generators::path(6);
        let mut ledger = RoundLedger::new();
        let run = |seed| {
            run_ball_phase(
                &g,
                None,
                seed,
                1,
                |_| (),
                |ctx, view| (view.len() as u64) * 1000 + ctx.random_below(1000),
                &mut RoundLedger::new(),
                "b",
            )
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same decisions");
        assert_ne!(a, run(8));
        let d = run_ball_phase(&g, None, 0, 1, |_| (), |_, v| v.len(), &mut ledger, "b");
        assert_eq!(d, vec![2, 3, 3, 3, 3, 2]);
    }

    #[test]
    fn relay_batch_decoders_never_panic() {
        use crate::overlay::Ttl;
        use crate::wire::encode_to_bytes;
        use rand::{Rng, SeedableRng};
        /// `None` or a value from arbitrary bits, never a panic.
        fn decodes_or_rejects<M: WireCodec>(bytes: &[u8], len_bits: u64) {
            let mut r = BitReader::new(bytes, len_bits);
            if M::decode(&mut r).is_some() {
                assert!(r.consumed() <= len_bits);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0ba7_c4ed);
        let certs: PayloadTable<Cert<u8>> = Arc::new(
            (0..6u32)
                .map(|v| {
                    Some(Arc::new(Cert {
                        adj: vec![(v + 1) % 6, (v + 5) % 6],
                        payload: 3,
                    }))
                })
                .collect(),
        );
        let cert_bits = payload_bits(&certs);
        let samples = [
            encode_to_bytes(&ReachBatch::new(vec![0, 2, 5], (), &certs, &cert_bits)),
            encode_to_bytes(&ReachBatch::new(vec![1, 4], Ttl(6), &certs, &cert_bits)),
        ];
        for _ in 0..4000 {
            let zero_heavy = rng.random_bool(0.5);
            let len = rng.random_range(0usize..48);
            let bytes: Vec<u8> = (0..len)
                .map(|_| match zero_heavy && rng.random_bool(0.9) {
                    true => 0,
                    false => rng.random::<u64>() as u8,
                })
                .collect();
            let bits = rng.random_range(0..=bytes.len() as u64 * 8);
            decodes_or_rejects::<ReachBatch<u32, ()>>(&bytes, bits);
            decodes_or_rejects::<ReachBatch<Cert<u8>, ()>>(&bytes, bits);
            decodes_or_rejects::<ReachBatch<Option<u16>, Ttl>>(&bytes, bits);
            // Real relays with a flipped bit, cut short.
            for (bytes, bits) in &samples {
                let mut bytes = bytes.clone();
                let at = rng.random_range(0..*bits);
                bytes[(at / 8) as usize] ^= 1 << (at % 8);
                let cut = rng.random_range(0..=*bits);
                decodes_or_rejects::<ReachBatch<Cert<u8>, ()>>(&bytes, cut);
                decodes_or_rejects::<ReachBatch<Cert<u8>, Ttl>>(&bytes, cut);
            }
        }
    }

    #[test]
    fn reach_batch_encodes_like_reach_msg() {
        use crate::wire::{decode_from_bytes, encode_to_bytes};
        /// Asserts `batch` encodes exactly like `reference` and
        /// round-trips through the decode path to `want` payloads.
        fn check<M, H, W>(batch: &ReachBatch<M, H>, reference: &W, want: &[M])
        where
            M: WireCodec + PartialEq + std::fmt::Debug,
            H: HopHeader + std::fmt::Debug,
            W: WireCodec,
        {
            let (batch_bytes, batch_bits) = encode_to_bytes(batch);
            let (ref_bytes, ref_bits) = encode_to_bytes(reference);
            assert_eq!(batch_bytes, ref_bytes, "bit-identical stream");
            assert_eq!(batch_bits, ref_bits, "identical charged size");
            assert_eq!(batch.encoded_bits(), batch_bits, "precomputed size honesty");
            assert_eq!(reference.encoded_bits(), batch_bits, "reference size");
            let back: ReachBatch<M, H> =
                decode_from_bytes(&batch_bytes, batch_bits).expect("decodes");
            assert_eq!(back.0.ids, batch.0.ids);
            if !back.0.ids.is_empty() {
                assert_eq!(back.0.hop, batch.0.hop, "hop header survives");
            }
            for (i, &id) in back.0.ids.iter().enumerate() {
                assert_eq!(back.0.payloads.get(i, id), &want[i]);
            }
            assert_eq!(back.encoded_bits(), batch_bits, "decoded size honesty");
            assert_eq!(
                encode_to_bytes(&back),
                (batch_bytes, batch_bits),
                "re-encode"
            );
        }
        // Table over ids 0..5; ids 1 and 3 are not sources.
        let raw: Vec<Option<u32>> = vec![Some(4000), None, Some(0), None, Some(31)];
        let payloads: PayloadTable<u32> = Arc::new(raw.iter().map(|p| p.map(Arc::new)).collect());
        let bits_of = payload_bits(&payloads);
        // Certificates of the 4-cycle 0-1-2-3 with a flag payload.
        let certs: PayloadTable<Cert<bool>> = Arc::new(
            (0..4u32)
                .map(|v| {
                    let mut adj = vec![(v + 1) % 4, (v + 3) % 4];
                    adj.sort_unstable();
                    Some(Arc::new(Cert {
                        adj,
                        payload: v % 2 == 0,
                    }))
                })
                .collect(),
        );
        let cert_bits = payload_bits(&certs);
        for ids in [vec![0u32, 2, 4], vec![2], Vec::new()] {
            let batch = ReachBatch::new(ids.clone(), (), &payloads, &bits_of);
            let want: Vec<u32> = ids.iter().map(|&id| raw[id as usize].unwrap()).collect();
            let msg = ReachMsg(ids.iter().copied().zip(want.iter().copied()).collect());
            check(&batch, &msg, &want);
            // The ball flood's relay: certificates by id, on the wire
            // exactly the BallMsg over the same ids.
            let ids: Vec<u32> = ids.into_iter().filter(|&id| id < 4).collect();
            let batch = ReachBatch::new(ids.clone(), (), &certs, &cert_bits);
            let want: Vec<Cert<bool>> = ids
                .iter()
                .map(|&id| Cert::clone(certs[id as usize].as_ref().unwrap()))
                .collect();
            let msg = BallMsg(
                ids.iter()
                    .zip(&want)
                    .map(|(&id, c)| BallItem {
                        id,
                        adj: c.adj.clone(),
                        payload: c.payload,
                    })
                    .collect(),
            );
            check(&batch, &msg, &want);
        }
        // A source id near u32::MAX: decode keeps its payload beside the
        // id (no table sized by the id), and re-encoding reproduces the
        // stream.
        let far = ReachMsg(vec![(u32::MAX - 1, 9u32)]);
        let (bytes, bits) = encode_to_bytes(&far);
        let back: ReachBatch<u32, ()> = decode_from_bytes(&bytes, bits).expect("decodes");
        assert_eq!(back.0.ids, vec![u32::MAX - 1]);
        assert_eq!(*back.0.payloads.get(0, u32::MAX - 1), 9);
        assert_eq!(back.encoded_bits(), bits, "decoded size honesty");
        assert_eq!(encode_to_bytes(&back), (bytes, bits), "re-encode");
        // A 68-bit stream naming source 2^32 + 5 fits no u32 id: every
        // decoder rejects it instead of truncating it to source 5.
        let mut w = BitWriter::new();
        w.write_gamma(1);
        w.write_gamma((1 << 32) + 5);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 68);
        assert!(decode_from_bytes::<ReachMsg<()>>(&bytes, bits).is_none());
        assert!(decode_from_bytes::<ReachBatch<(), ()>>(&bytes, bits).is_none());
    }

    #[test]
    fn reach_phase_finds_exactly_the_sources_within_radius() {
        let g = generators::cycle(16);
        let sources = [0u32, 5];
        for r in 1..=4usize {
            let mut ledger = RoundLedger::new();
            let heard: Vec<Vec<(u32, u32)>> = run_reach_phase(
                &g,
                None,
                0,
                r,
                |v| sources.contains(&v.0).then_some(()),
                |_| Vec::new(),
                |acc: &mut Vec<(u32, u32)>, id, dist, _| acc.push((id, dist)),
                |_, acc| acc.clone(),
                &mut ledger,
                "reach",
            );
            assert_eq!(ledger.total(), r as u64);
            assert!(ledger.bits_sent() > 0);
            for (i, got) in heard.iter().enumerate() {
                let v = NodeId::from_index(i);
                let d = bfs::distances(&g, v);
                let mut want: Vec<(u32, u32)> = sources
                    .iter()
                    .filter(|&&s| d[s as usize] as usize <= r)
                    .map(|&s| (s, d[s as usize]))
                    .collect();
                // Absorption is in (dist, id-within-round) order.
                want.sort_by_key(|&(s, dd)| (dd, s));
                assert_eq!(got, &want, "node {v} radius {r}");
            }
        }
    }

    #[test]
    fn reach_dedup_window_is_exact_on_dense_graphs() {
        // Dense graphs maximize duplicate arrivals; every source must be
        // absorbed exactly once.
        for g in [
            generators::complete(7),
            generators::torus(4, 4),
            generators::random_regular(40, 6, 1),
        ] {
            let counts: Vec<usize> = run_reach_phase(
                &g,
                None,
                0,
                3,
                |_| Some(()),
                |_| std::collections::HashMap::new(),
                |acc: &mut std::collections::HashMap<u32, usize>, id, _, _| {
                    *acc.entry(id).or_default() += 1;
                },
                |_, acc| {
                    assert!(acc.values().all(|&c| c == 1), "double absorption");
                    acc.len()
                },
                &mut RoundLedger::new(),
                "reach",
            );
            for (i, &c) in counts.iter().enumerate() {
                let v = NodeId::from_index(i);
                let within = bfs::distances(&g, v)
                    .iter()
                    .filter(|&&d| d != bfs::UNREACHABLE && d <= 3)
                    .count();
                assert_eq!(c, within, "node {v}");
            }
        }
    }

    #[test]
    fn centered_collection_matches_oracle_and_confines_traffic() {
        let g = generators::torus(6, 6);
        for r in 0..=3usize {
            let mut ledger = RoundLedger::new();
            let ball = collect_ball_centered(&g, NodeId(7), r, &mut ledger, "probe");
            let oracle = g.ball(NodeId(7), r);
            assert_eq!(ball.globals, oracle.globals, "radius {r}");
            assert_eq!(ball.graph, oracle.graph, "radius {r}");
            assert_eq!(ball.dist, oracle.dist, "radius {r}");
            assert_eq!(ball.center, oracle.center);
            assert_eq!(ledger.total(), 2 * r as u64);
            if r > 0 {
                // Traffic is confined to the ball: far fewer deliveries
                // than an all-nodes flood would cost.
                assert!(ledger.bits_sent() > 0);
            }
        }
    }

    #[test]
    fn centered_collection_on_path_endpoints() {
        let g = generators::path(9);
        for (v, r) in [(NodeId(0), 3), (NodeId(8), 2), (NodeId(4), 5)] {
            let mut ledger = RoundLedger::new();
            let ball = collect_ball_centered(&g, v, r, &mut ledger, "probe");
            let oracle = g.ball(v, r);
            assert_eq!(ball.globals, oracle.globals);
            assert_eq!(ball.graph, oracle.graph);
        }
    }

    #[test]
    fn ball_codecs_roundtrip() {
        use crate::wire::{decode_from_bytes, encode_to_bytes};
        fn rt<T: WireCodec + PartialEq + std::fmt::Debug>(m: T) {
            let (bytes, bits) = encode_to_bytes(&m);
            assert_eq!(bits, m.encoded_bits(), "size honesty for {m:?}");
            assert_eq!(decode_from_bytes::<T>(&bytes, bits).as_ref(), Some(&m));
        }
        rt(BallMsg(vec![
            BallItem {
                id: 3,
                adj: vec![1, 2, 9],
                payload: true,
            },
            BallItem {
                id: 0,
                adj: vec![],
                payload: false,
            },
        ]));
        rt(BallMsg::<u32>(Vec::new()));
        rt(ReachMsg(vec![(7u32, NodeId(7)), (900, NodeId(900))]));
        rt(ReachMsg::<()>(vec![(1, ()), (2, ())]));
        rt(CenterMsg {
            probe_ttl: Some(4),
            items: vec![CenterItem {
                id: 11,
                dist: 2,
                adj: vec![10, 12],
            }],
        });
        rt(CenterMsg {
            probe_ttl: None,
            items: Vec::new(),
        });
    }
}
