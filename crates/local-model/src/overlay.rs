//! Virtual-topology overlays: run node programs on `G^k` and on induced
//! subgraphs **through the host engine**, without materializing the
//! virtual graph.
//!
//! The paper's algorithm constantly recurses on derived topologies —
//! the remainder graph `H`, leftover components `L`, and ruling sets on
//! `G^{α-1}`. Classically each such phase compiles back onto the host
//! network: one round of `G^k` is `k` relay rounds of `G` (every
//! message floods `k` hops), and one round of an induced subgraph
//! `G[S]` is one host round in which non-members relay nothing and
//! receive nothing — so it runs on `G[S]` itself, built once per
//! overlay, and costs work in `|S|`, not in the host's `n`. This module
//! makes that compilation operational:
//!
//! * [`VirtualTopology`] — the abstraction: a membership predicate plus
//!   a dilation `k` (host rounds per virtual round);
//! * [`InducedOverlay`] — `G[S]` via a membership mask, dilation 1;
//! * [`PowerOverlay`] — `G^k`, every node a member, dilation `k`;
//! * [`OverlayEngine`] — the executor. Its [`OverlayEngine::step`] is
//!   the overlay counterpart of [`Engine::step`]: one **virtual**
//!   round, executed as `k` real host-engine rounds whose relay traffic
//!   is wire-encoded through the [`WireCodec`] envelopes below and
//!   charged to the ledger at its true dilated round and per-edge bit
//!   cost.
//!
//! # The compacted id space
//!
//! An overlay presents its programs exactly the node universe a
//! *materialized* virtual graph would: virtual ids are member **ranks**
//! `0..m` in host-id order — the same compaction [`Graph::induced`]
//! performs. Node programs, their RNG streams (rank `i` draws from the
//! same stream node `i` of a materialized engine would), message
//! contents and inbox ordering (senders sorted, a sender's broadcast
//! before its directed messages) are therefore **id-for-id identical**
//! to an [`Engine`] run on `power_graph(g, k)` / `g.induced(members)` —
//! the overlay-equivalence proptests pin this in both [`ExecMode`]s.
//!
//! # Cost model
//!
//! There is one tally, the host [`crate::RoundLedger`] passed to
//! [`OverlayEngine::step`]. It is charged what the **host network**
//! really pays: `k` rounds per virtual round, and the measured per-edge
//! bits of the relay envelopes (source id + hop TTL + payload for
//! floods; one [`OverlayEnvelope`] per `G[S]` edge at dilation 1, which
//! a broadcast-only member relays as one engine broadcast). This is
//! what the experiment tables report. An attached tracer also receives
//! one level-tagged [`crate::trace::VirtualRecord`] per virtual round,
//! which carries the dilation and adds nothing to the totals.
//!
//! # Dilation-`k` relay
//!
//! A virtual broadcast on `G^k` is compiled to a `k`-round relay-once
//! flood on the host graph, run by the one flood kernel of
//! [`crate::ball`] — the kernel behind the reach and ball floods. Every
//! broadcasting rank is a source: its payload is deep-cloned once per
//! virtual round into the flood's interned table, and a relay carries
//! the forwarded origin ids. The kernel's hop header is the remaining
//! TTL, uniform within a relay round (`clamp − (t − 1)` at round `t`,
//! with `clamp = min(k − 1, n − 1)`), so each relay encodes exactly like
//! the [`OverlayRelay`] of its `(origin, ttl, payload)` items and its
//! `encoded_bits` is precomputed, making the host engine's per-edge
//! charge O(1) instead of O(batch).
//!
//! Dedup is the kernel's two-segment origin window: duplicates of an
//! origin first heard at relay round `d` arrive only at rounds `d + 1`
//! and `d + 2`, so the two newest segments are the whole filter. A rank
//! appends each segment to its list of heard origins as the segment
//! leaves the window, and the last round appends the two left inside
//! and frees the window, so the list never duplicates it. Sorted, that
//! list is the virtual inbox's sender list. The one deep clone per
//! delivery happens when a payload lands in a receiver's virtual inbox —
//! matching the materialized engine's cost — and inboxes are
//! materialized one rank at a time, so peak delivery memory is one
//! inbox, not all of them. Directed virtual messages require routing
//! tables and are only supported at dilation 1 (the induced overlay);
//! [`OverlayEngine::step`] panics otherwise.
//!
//! Memory: the flood retains `O(heard origins)` id state per virtual
//! round (4 bytes per `G^k`-neighbor, shrinking as algorithms quiesce —
//! e.g. only *undecided* Luby nodes flood), instead of the `O(n·Δ^k)`
//! adjacency a materialized `G^k` pins for the whole execution.
//! `power_graph` is demoted to the equivalence-test oracle; the
//! `overlay_dedup_equivalence` proptests pin the filter against it and
//! against a transcript-level re-execution of the two-ring reference.

use crate::ball::{payload_bits, reach_phase_core, PayloadTable, ReachState};
use crate::engine::{node_rngs, resolve_parallel, Engine, NodeCtx, Outbox, RoundDriver};
use crate::ledger::RoundLedger;
use crate::wire::{gamma_bits, BitReader, BitWriter, WireCodec};
use crate::{BandwidthPolicy, ExecMode};
use delta_graphs::bfs::bfs_tree;
use delta_graphs::power::PowerNeighborhoods;
use delta_graphs::{Graph, NodeId};
use rand::rngs::StdRng;
use rayon::prelude::*;
use std::sync::Arc;

/// A virtual topology over a host graph: which host nodes take part,
/// and how many host rounds one virtual round costs (the dilation `k`
/// of the classic LOCAL simulation). Either every host node takes part
/// (virtual neighbors are the nodes within distance `k`) or the
/// dilation is 1 (virtual neighbors are the member host neighbors);
/// [`OverlayEngine::new`] rejects a masked topology of dilation `k >= 2`.
pub trait VirtualTopology: Sync {
    /// Whether host node `v` is a node of the virtual graph.
    fn is_member(&self, v: NodeId) -> bool;

    /// Host rounds per virtual round (`k`).
    fn dilation(&self) -> usize;

    /// The membership mask, if the overlay restricts membership
    /// (`None` = every host node participates).
    fn member_mask(&self) -> Option<&[bool]>;

    /// Level label for trace records (`G`, `G^k`, `G[S]`): the tag
    /// attached to every virtual-round record this overlay emits into
    /// an attached [`crate::Tracer`].
    fn trace_label(&self) -> String {
        match (self.member_mask().is_some(), self.dilation()) {
            (true, _) => "G[S]".to_string(),
            (false, 1) => "G".to_string(),
            (false, k) => format!("G^{k}"),
        }
    }
}

/// The power graph `G^k`: every host node is a member; one virtual
/// round is `k` relay rounds.
#[derive(Debug, Clone, Copy)]
pub struct PowerOverlay {
    /// The power `k >= 1`.
    pub k: usize,
}

impl VirtualTopology for PowerOverlay {
    fn is_member(&self, _v: NodeId) -> bool {
        true
    }
    fn dilation(&self) -> usize {
        self.k
    }
    fn member_mask(&self) -> Option<&[bool]> {
        None
    }
}

/// The induced subgraph `G[S]`: members given by a mask, dilation 1 —
/// non-members send nothing and receive nothing. [`OverlayEngine::new`]
/// builds `G[S]` once, and every virtual round relays on it.
#[derive(Debug, Clone, Copy)]
pub struct InducedOverlay<'a> {
    /// `members[v]` says whether host node `v` participates.
    pub members: &'a [bool],
}

impl VirtualTopology for InducedOverlay<'_> {
    fn is_member(&self, v: NodeId) -> bool {
        self.members[v.index()]
    }
    fn dilation(&self) -> usize {
        1
    }
    fn member_mask(&self) -> Option<&[bool]> {
        Some(self.members)
    }
}

/// Dilation-1 relay envelope: what one member puts on one host edge in
/// one round — its virtual broadcast (if any) plus the directed
/// payloads addressed to that edge's head. The directed list mirrors the
/// virtual program's own outbox, which the LOCAL model does not bound;
/// around one payload the envelope adds 2 bits (a broadcast) or 4 bits
/// (a directed message), and the host edge is charged all of them.
///
/// The broadcast payload is behind an [`Arc`]: one sender's broadcast
/// rides `deg` envelopes (plus their delivery clones), and ball-phase
/// certificates make it the bulk of the traffic — sharing keeps the
/// per-edge copies refcount bumps; the single deep clone happens when
/// the payload lands in a receiver's virtual inbox, matching the
/// materialized engine's one-clone-per-delivery cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayEnvelope<M> {
    /// The sender's virtual broadcast, delivered before the directed
    /// messages (preserving the engine's inbox ordering invariant);
    /// shared across the sender's per-edge envelopes.
    pub bcast: Option<Arc<M>>,
    /// Directed payloads addressed to the receiving member, in send
    /// order.
    pub directed: Vec<M>,
}

impl<M: WireCodec> WireCodec for OverlayEnvelope<M> {
    fn encode(&self, w: &mut BitWriter) {
        match &self.bcast {
            Some(m) => {
                w.write_bool(true);
                m.encode(w);
            }
            None => w.write_bool(false),
        }
        w.write_gamma(self.directed.len() as u64);
        for m in &self.directed {
            m.encode(w);
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        let bcast = match r.read_bool()? {
            true => Some(Arc::new(M::decode(r)?)),
            false => None,
        };
        let len = r.read_gamma()?;
        let mut directed = Vec::with_capacity(r.capacity_hint(len));
        for _ in 0..len {
            directed.push(M::decode(r)?);
        }
        Some(OverlayEnvelope { bcast, directed })
    }
    fn encoded_bits(&self) -> u64 {
        1 + self.bcast.as_ref().map_or(0, |m| m.encoded_bits())
            + gamma_bits(self.directed.len() as u64)
            + self
                .directed
                .iter()
                .map(WireCodec::encoded_bits)
                .sum::<u64>()
    }
}

/// One relayed flood entry of the dilation-`k` compilation: the
/// origin's (virtual) id, the remaining hop TTL, and the payload: two
/// gamma codes plus the payload's bits. The *relay* that batches items
/// has no such per-message size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayItem<M> {
    /// Virtual id of the broadcasting origin.
    pub origin: u32,
    /// Hops the item may still travel after this transmission.
    pub ttl: u32,
    /// The origin's broadcast payload.
    pub payload: M,
}

impl<M: WireCodec> WireCodec for RelayItem<M> {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.origin as u64);
        w.write_gamma(self.ttl as u64);
        self.payload.encode(w);
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        Some(RelayItem {
            origin: r.read_gamma_u32()?,
            ttl: r.read_gamma_u32()?,
            payload: M::decode(r)?,
        })
    }
    fn encoded_bits(&self) -> u64 {
        gamma_bits(self.origin as u64) + gamma_bits(self.ttl as u64) + self.payload.encoded_bits()
    }
}

/// Dilation-`k` relay: the [`RelayItem`]s a node first heard last round
/// and forwards this round. One relay batches every origin crossing the
/// edge this round — `Θ(Δ^(k-1))` of them in the worst case, which is
/// exactly why power-graph relays are not budgeted on host edges (see
/// [`crate::congest`]).
///
/// The item batch is behind an [`Arc`]: the engine clones every
/// broadcast once per incident edge, and on dense floods the batch can
/// hold thousands of payloads — sharing makes the per-edge clone a
/// refcount bump instead of a deep copy, cutting the flood's peak
/// delivery memory by a `Δ` factor without changing what is *charged*
/// (bit accounting reads the full batch either way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayRelay<M> {
    /// Items first learned last round, forwarded once (shared across
    /// the per-edge delivery clones).
    pub items: Arc<Vec<RelayItem<M>>>,
}

impl<M: WireCodec> WireCodec for OverlayRelay<M> {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.items.len() as u64);
        for item in self.items.iter() {
            item.encode(w);
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        let len = r.read_gamma()?;
        let mut items = Vec::with_capacity(r.capacity_hint(len));
        for _ in 0..len {
            items.push(RelayItem::decode(r)?);
        }
        Some(OverlayRelay {
            items: Arc::new(items),
        })
    }
    fn encoded_bits(&self) -> u64 {
        gamma_bits(self.items.len() as u64)
            + self.items.iter().map(WireCodec::encoded_bits).sum::<u64>()
    }
}

/// The hop header of a `G^k` relay: the hops every forwarded item may
/// still travel after this transmission, gamma-coded after each origin
/// id exactly as in [`RelayItem`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Ttl(pub(crate) u32);

impl WireCodec for Ttl {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.0 as u64);
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        r.read_gamma_u32().map(Ttl)
    }
    fn encoded_bits(&self) -> u64 {
        gamma_bits(self.0 as u64)
    }
}

/// Executes node programs on a virtual topology through the host
/// engine. The overlay counterpart of [`Engine`]: per-rank state and
/// deterministic per-rank randomness, and [`OverlayEngine::step`] for
/// one virtual round (`k` charged host rounds).
///
/// # Example
///
/// Flood the minimum virtual id for one `G^2` round on a cycle — every
/// node reaches its four `G^2`-neighbors in 2 charged host rounds:
///
/// ```
/// use delta_graphs::generators;
/// use local_model::overlay::{OverlayEngine, PowerOverlay};
/// use local_model::RoundLedger;
///
/// let g = generators::cycle(8);
/// let mut ledger = RoundLedger::new();
/// let mut engine = OverlayEngine::new(&g, PowerOverlay { k: 2 }, 0, |v| v.0);
/// engine.step(
///     &mut ledger,
///     "flood-min",
///     |_, &mut s, out| out.broadcast(s),
///     |_, s, inbox| {
///         assert_eq!(inbox.len(), 4); // G^2 degree on the cycle
///         for &(_, m) in inbox {
///             *s = (*s).min(m);
///         }
///     },
/// );
/// assert_eq!(ledger.total(), 2); // one virtual round = k host rounds
/// assert!(ledger.bits_sent() > 0); // relay envelopes are measured
/// ```
pub struct OverlayEngine<'g, S, T: VirtualTopology> {
    host: &'g Graph,
    topo: T,
    /// `G[S]` in rank space, built once for a masked topology; the
    /// dilation-1 relay runs on it (on the host when unmasked).
    sub: Option<Graph>,
    /// Sorted host ids of the members; rank `r` ↔ `members[r]`.
    members: Vec<NodeId>,
    /// Virtual degree per rank: the degree in `G[S]` at dilation 1,
    /// else the `G^k` degree from one batched frontier-reusing sweep.
    vdeg: Vec<u32>,
    states: Vec<S>,
    rngs: Vec<StdRng>,
    mode: ExecMode,
    policy: BandwidthPolicy,
    /// Index of the next virtual round, numbering the trace records.
    virtual_rounds: u64,
}

impl<'g, S: Send, T: VirtualTopology> OverlayEngine<'g, S, T> {
    /// Creates an overlay engine over `host`. `init` receives the
    /// **virtual** id (member rank in host-id order) — the same ids a
    /// materialized virtual graph would hand to [`Engine::new`], so the
    /// per-rank RNG streams line up with a materialized run seeded the
    /// same way.
    pub fn new(host: &'g Graph, topo: T, seed: u64, init: impl Fn(NodeId) -> S) -> Self {
        let members: Vec<NodeId> = host.nodes().filter(|&v| topo.is_member(v)).collect();
        let sub = topo.member_mask().map(|_| host.induced(&members).0);
        Self::assemble(host, topo, members, sub, seed, init)
    }

    /// [`OverlayEngine::new`] from the sorted member host ids and, for
    /// a masked topology, `G[S]` in rank space, both already built (as
    /// [`Graph::induced`] returns them).
    pub(crate) fn assemble(
        host: &'g Graph,
        topo: T,
        members: Vec<NodeId>,
        sub: Option<Graph>,
        seed: u64,
        init: impl Fn(NodeId) -> S,
    ) -> Self {
        assert!(topo.dilation() >= 1, "dilation must be >= 1");
        assert!(
            topo.dilation() == 1 || topo.member_mask().is_none(),
            "an overlay of dilation >= 2 has every host node as a member"
        );
        debug_assert_eq!(sub.is_some(), topo.member_mask().is_some());
        let vdeg = match &sub {
            Some(sub) => sub.nodes().map(|r| sub.degree(r) as u32).collect(),
            None => virtual_degrees(host, topo.dilation()),
        };
        let states: Vec<S> = (0..members.len())
            .map(|r| init(NodeId::from_index(r)))
            .collect();
        let rngs = node_rngs(seed, members.len());
        OverlayEngine {
            host,
            topo,
            sub,
            members,
            vdeg,
            states,
            rngs,
            mode: ExecMode::Auto,
            policy: BandwidthPolicy::Local,
            virtual_rounds: 0,
        }
    }

    /// Sets the execution mode (builder style); the inner host relay
    /// rounds inherit it.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the bandwidth policy (builder style). It matters only at
    /// dilation 1, where a virtual edge is a host edge: the relay
    /// round's ledger accounting runs under it, envelope bits included.
    /// The `G^k` relay rounds of a power overlay stay unbudgeted on host
    /// edges.
    pub fn with_bandwidth(mut self, policy: BandwidthPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The bandwidth policy the dilation-1 relay rounds run under.
    pub fn bandwidth_policy(&self) -> BandwidthPolicy {
        self.policy
    }

    /// The host graph the overlay compiles onto.
    pub fn host(&self) -> &Graph {
        self.host
    }

    /// Sorted host ids of the members; index = virtual id (rank).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Virtual id of a host node, if it is a member.
    pub fn rank_of(&self, host: NodeId) -> Option<NodeId> {
        let rank = self.members.binary_search(&host).ok()?;
        Some(NodeId::from_index(rank))
    }

    /// Immutable view of all per-rank states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable view of all per-rank states (out-of-band initialization
    /// only).
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// Consumes the engine, returning the final per-rank states.
    pub fn into_states(self) -> Vec<S> {
        self.states
    }

    /// The sorted virtual-id adjacency of one virtual node (its `G[S]`
    /// neighbors at dilation 1, the nodes within distance `k` on
    /// `G^k`). `O(n)` per call on `G^k` — a local inspection device for
    /// rare fallback paths, not a hot-path API.
    pub fn virtual_neighbors(&self, rank: NodeId) -> Vec<NodeId> {
        match self.topo.dilation() {
            1 => self.dilation1_graph().neighbors(rank).to_vec(),
            // Every host node is a member of G^k: host ids are ranks.
            k => {
                let mut out = bfs_tree(self.host, rank, Some(k)).levels[1..].concat();
                out.sort_unstable();
                out
            }
        }
    }

    /// The dilation-1 virtual graph in rank space: `G[S]` when masked,
    /// else the host itself (whose ids are the ranks).
    fn dilation1_graph(&self) -> &Graph {
        self.sub.as_ref().unwrap_or(self.host)
    }

    /// Executes one **virtual** round: the overlay's counterpart of
    /// [`Engine::step`].
    ///
    /// The virtual send phase runs over the members (rank ids, rank
    /// RNG streams); the queued messages are compiled to `dilation`
    /// host-engine rounds of [`WireCodec`]-measured relay envelopes
    /// charged to `phase` on `ledger`; the virtual recv phase then
    /// consumes inboxes that are id-for-id what a materialized run
    /// would deliver (senders sorted, broadcast before directed).
    ///
    /// # Panics
    ///
    /// Panics if a directed virtual message is queued at dilation ≥ 2
    /// (per-neighbor routing on `G^k` needs routing tables; the
    /// algorithms this repository compiles onto power overlays are
    /// broadcast-only).
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
        let m = self.members.len();
        let parallel = resolve_parallel(self.mode, m);
        // The virtual-round clock runs only when a sink is attached.
        let t0 = ledger.tracing().then(std::time::Instant::now);

        // Virtual send phase: per-rank states and RNG streams, exactly
        // like the engine's send phase on a materialized virtual graph.
        let mut outboxes: Vec<Outbox<M>> = (0..m).map(|_| Outbox::new()).collect();
        {
            let vdeg = &self.vdeg;
            let run_one = |r: usize, state: &mut S, rng: &mut StdRng, out: &mut Outbox<M>| {
                let mut ctx = NodeCtx {
                    id: NodeId::from_index(r),
                    degree: vdeg[r] as usize,
                    rng,
                };
                out.reset();
                send(&mut ctx, state, out);
            };
            if parallel {
                self.states
                    .par_iter_mut()
                    .zip(self.rngs.par_iter_mut())
                    .zip(outboxes.par_iter_mut())
                    .enumerate()
                    .for_each(|(r, ((state, rng), out))| run_one(r, state, rng, out));
            } else {
                self.states
                    .iter_mut()
                    .zip(self.rngs.iter_mut())
                    .zip(outboxes.iter_mut())
                    .enumerate()
                    .for_each(|(r, ((state, rng), out))| run_one(r, state, rng, out));
            }
        }

        // Validate directed targets eagerly: the engine drops messages
        // to non-neighbors during routing, and the overlay mirrors that
        // at the virtual level.
        let k = self.topo.dilation();
        let g1 = self.dilation1_graph();
        for (r, out) in outboxes.iter_mut().enumerate() {
            if out.parts().1.is_empty() {
                continue;
            }
            assert!(
                k == 1,
                "directed virtual messages require a dilation-1 overlay \
                 (per-neighbor routing on G^k needs routing tables)"
            );
            out.retain_directed(|(to, _)| {
                let valid = to.index() < g1.n() && g1.has_edge(NodeId::from_index(r), *to);
                debug_assert!(
                    valid,
                    "virtual node {r} sent a directed message to non-neighbor {to}"
                );
                valid
            });
        }

        // Host relay: one engine round at dilation 1, a k-round flood
        // on the kernel otherwise. Both charge the ledger their real
        // host rounds and measured envelope bits.
        if k == 1 {
            let inboxes = self.relay_dilation1(&outboxes, ledger, phase);

            // Virtual recv phase.
            let vdeg = &self.vdeg;
            let run_one = |r: usize, state: &mut S, rng: &mut StdRng| {
                let mut ctx = NodeCtx {
                    id: NodeId::from_index(r),
                    degree: vdeg[r] as usize,
                    rng,
                };
                recv(&mut ctx, state, &inboxes[r]);
            };
            if parallel {
                self.states
                    .par_iter_mut()
                    .zip(self.rngs.par_iter_mut())
                    .enumerate()
                    .for_each(|(r, (state, rng))| run_one(r, state, rng));
            } else {
                self.states
                    .iter_mut()
                    .zip(self.rngs.iter_mut())
                    .enumerate()
                    .for_each(|(r, (state, rng))| run_one(r, state, rng));
            }
        } else {
            // Intern every origin's broadcast once; all relay copies
            // from here on are refcount bumps.
            let payloads: PayloadTable<M> = Arc::new(
                outboxes
                    .iter()
                    .map(|out| out.parts().0.map(|m| Arc::new(m.clone())))
                    .collect(),
            );
            let bits_of = payload_bits(&payloads);
            let origins = self.relay_flood(&payloads, &bits_of, k, ledger, phase);

            // Virtual recv phase, streaming: materialize one rank's
            // inbox at a time from the origin list + payload table (the
            // same one-deep-clone-per-delivery a materialized engine
            // pays), so peak delivery memory is a single inbox. The
            // sequential schedule reuses one buffer; the parallel one
            // builds per-rank buffers thread-locally — contents are
            // identical either way.
            let vdeg = &self.vdeg;
            let origins = &origins;
            let payloads = &payloads;
            let fill = |r: usize, buf: &mut Vec<(NodeId, M)>| {
                buf.clear();
                buf.extend(origins[r].iter().map(|&o| {
                    let m = payloads[o as usize]
                        .as_ref()
                        .expect("every heard origin has a broadcast");
                    (NodeId(o), M::clone(m))
                }));
            };
            let run_one =
                |r: usize, state: &mut S, rng: &mut StdRng, buf: &mut Vec<(NodeId, M)>| {
                    fill(r, buf);
                    let mut ctx = NodeCtx {
                        id: NodeId::from_index(r),
                        degree: vdeg[r] as usize,
                        rng,
                    };
                    recv(&mut ctx, state, buf);
                };
            if parallel {
                self.states
                    .par_iter_mut()
                    .zip(self.rngs.par_iter_mut())
                    .enumerate()
                    .for_each(|(r, (state, rng))| run_one(r, state, rng, &mut Vec::new()));
            } else {
                let mut buf: Vec<(NodeId, M)> = Vec::new();
                self.states
                    .iter_mut()
                    .zip(self.rngs.iter_mut())
                    .enumerate()
                    .for_each(|(r, (state, rng))| run_one(r, state, rng, &mut buf));
            }
        }
        if let Some(t0) = t0 {
            // Level-tagged virtual record: the k host relay rounds have
            // already emitted their own round records through the same
            // ledger, so this carries the dilation and wall time only.
            ledger.trace_virtual(crate::trace::VirtualRecord {
                level: self.topo.trace_label(),
                vround: self.virtual_rounds,
                host_rounds: k as u64,
                wall_ns: t0.elapsed().as_nanos() as u64,
            });
        }
        self.virtual_rounds += 1;
    }

    /// Dilation-1 compilation: one round of a relay engine on `G[S]`
    /// (built once, in rank space; the host when unmasked), so its cost
    /// follows the members, not the host. A member with directed
    /// messages sends each neighbor one [`OverlayEnvelope`] — its
    /// broadcast plus the directed payloads addressed there; a
    /// broadcast-only member relays one engine broadcast of its
    /// envelope, which charges every edge the same bits. A virtual edge
    /// is a host edge here, so the relay runs under the overlay's policy:
    /// an envelope over the budget is a violation on the ledger.
    fn relay_dilation1<M>(
        &self,
        outboxes: &[Outbox<M>],
        ledger: &mut RoundLedger,
        phase: &str,
    ) -> Vec<Vec<(NodeId, M)>>
    where
        M: Clone + Send + Sync + WireCodec + 'static,
    {
        let g1 = self.dilation1_graph();
        let mut relay: Engine<'_, Vec<(NodeId, M)>> = Engine::new_relay(g1, |_| Vec::new())
            .with_mode(self.mode)
            .with_bandwidth(self.policy);
        relay.step(
            ledger,
            phase,
            |ctx, _s, out: &mut Outbox<OverlayEnvelope<M>>| {
                let (bcast, directed) = outboxes[ctx.id.index()].parts();
                // One deep clone of the broadcast per sender; per-edge
                // envelopes share it through the Arc.
                let bcast = bcast.map(|m| Arc::new(m.clone()));
                if directed.is_empty() {
                    if bcast.is_some() {
                        out.broadcast(OverlayEnvelope {
                            bcast,
                            directed: Vec::new(),
                        });
                    }
                    return;
                }
                for &w in g1.neighbors(ctx.id) {
                    let env = OverlayEnvelope {
                        bcast: bcast.clone(),
                        directed: directed
                            .iter()
                            .filter(|(to, _)| *to == w)
                            .map(|(_, m)| m.clone())
                            .collect(),
                    };
                    if env.bcast.is_some() || !env.directed.is_empty() {
                        out.send_to(w, env);
                    }
                }
            },
            |_, s, inbox| {
                for (w, env) in inbox {
                    if let Some(b) = &env.bcast {
                        s.push((*w, M::clone(b)));
                    }
                    for m in &env.directed {
                        s.push((*w, m.clone()));
                    }
                }
            },
        );
        relay.into_states()
    }

    /// Dilation-`k` compilation (power overlays): a `k`-round flood of
    /// the interned broadcasts on the flood kernel, with the remaining
    /// TTL as hop header (module docs). Every host node is a member, so
    /// host ids are ranks; returns each rank's heard origins, ascending
    /// — its virtual inbox's sender list.
    fn relay_flood<M>(
        &self,
        payloads: &PayloadTable<M>,
        bits_of: &[u64],
        k: usize,
        ledger: &mut RoundLedger,
        phase: &str,
    ) -> Vec<Vec<u32>>
    where
        M: Clone + Send + Sync + WireCodec + 'static,
    {
        // Clamped at n - 1: no node is farther, so a dilation larger
        // than the graph charges no TTL bits it cannot use. An item
        // forwarded at round t was first heard at round t - 1 (sources
        // at "round 0").
        let clamp = (k - 1).min(self.host.n().saturating_sub(1)) as u32;
        let relay = Engine::new_relay(self.host, |v| ReachState::new(v, Vec::new(), payloads))
            .with_mode(self.mode);
        reach_phase_core(
            relay,
            k,
            payloads,
            bits_of,
            |t| Ttl(clamp.saturating_sub(t - 1)),
            // The self-seed (distance 0) is not a virtual sender.
            |heard: &mut Vec<u32>, seg, dist| {
                if dist > 0 {
                    heard.extend_from_slice(seg);
                }
            },
            |_, heard| {
                heard.sort_unstable();
                std::mem::take(heard)
            },
            ledger,
            phase,
        )
    }
}

impl<S: Send, T: VirtualTopology> RoundDriver<S> for OverlayEngine<'_, S, T> {
    fn node_count(&self) -> usize {
        self.members.len()
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

    /// Replaces the policy, with the scope of
    /// [`OverlayEngine::with_bandwidth`].
    fn set_bandwidth_policy(&mut self, policy: BandwidthPolicy) {
        self.policy = policy;
    }

    fn into_node_states(self) -> Vec<S> {
        self.into_states()
    }
}

/// Precomputes every node's `G^k` degree with one batched
/// frontier-reusing sweep ([`PowerNeighborhoods`]) — `O(Σ|ball|)`
/// time, `O(n)` scratch, nothing materialized.
fn virtual_degrees(host: &Graph, k: usize) -> Vec<u32> {
    let mut sweep = PowerNeighborhoods::new(host, k);
    let mut vdeg = Vec::with_capacity(host.n());
    while let Some((_, nbrs)) = sweep.next() {
        vdeg.push(nbrs.len() as u32);
    }
    vdeg
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_graphs::generators;
    use delta_graphs::power::power_neighbors;

    #[test]
    fn power_overlay_round_delivers_exactly_the_power_neighbors() {
        for (g, k) in [
            (generators::cycle(12), 2),
            (generators::torus(4, 5), 3),
            (generators::random_regular(40, 4, 7), 2),
            (generators::star(5), 2),
        ] {
            let mut ledger = RoundLedger::new();
            let mut engine = OverlayEngine::new(&g, PowerOverlay { k }, 0, |_| Vec::new());
            engine.step(
                &mut ledger,
                "t",
                |ctx, _, out: &mut Outbox<NodeId>| out.broadcast(ctx.id),
                |_, s: &mut Vec<NodeId>, inbox| {
                    s.extend(inbox.iter().map(|&(w, m)| {
                        assert_eq!(w, m, "payload travels with its origin");
                        w
                    }));
                },
            );
            assert_eq!(
                ledger.total(),
                k as u64,
                "one virtual round = k host rounds"
            );
            for (i, heard) in engine.states().iter().enumerate() {
                let v = NodeId::from_index(i);
                let mut want = power_neighbors(&g, v, k);
                want.sort_unstable();
                assert_eq!(heard, &want, "node {v} at k {k}");
            }
        }
    }

    #[test]
    fn induced_overlay_silences_non_members() {
        let g = generators::cycle(8);
        // Members: even nodes plus 1 — 1's member neighbors: 0 and 2.
        let mask: Vec<bool> = g.nodes().map(|v| v.0 % 2 == 0 || v.0 == 1).collect();
        let topo = InducedOverlay { members: &mask };
        let mut ledger = RoundLedger::new();
        let mut engine = OverlayEngine::new(&g, topo, 0, |_| Vec::new());
        assert_eq!(engine.members().len(), 5);
        engine.step(
            &mut ledger,
            "t",
            |ctx, _, out: &mut Outbox<NodeId>| out.broadcast(ctx.id),
            |_, s: &mut Vec<NodeId>, inbox| s.extend(inbox.iter().map(|&(w, _)| w)),
        );
        assert_eq!(ledger.total(), 1);
        // Rank space: members are hosts [0, 1, 2, 4, 6]; host 1 (rank 1)
        // hears ranks 0 and 2 (hosts 0 and 2); host 4 (rank 3) hears
        // nobody (its host neighbors 3, 5 are non-members).
        assert_eq!(engine.states()[1], vec![NodeId(0), NodeId(2)]);
        assert!(engine.states()[3].is_empty());
        assert_eq!(engine.rank_of(NodeId(4)), Some(NodeId(3)));
        assert_eq!(engine.rank_of(NodeId(3)), None);
        assert_eq!(engine.virtual_neighbors(NodeId(1)), [NodeId(0), NodeId(2)]);
    }

    #[test]
    fn directed_messages_work_at_dilation_one() {
        let g = generators::cycle(6);
        let mask = vec![true; 6];
        let mut ledger = RoundLedger::new();
        let mut engine = OverlayEngine::new(&g, InducedOverlay { members: &mask }, 0, |_| {
            Vec::<(NodeId, u32)>::new()
        });
        engine.step(
            &mut ledger,
            "t",
            |ctx, _, out: &mut Outbox<u32>| {
                // Send my id to my successor (a member neighbor), after
                // a broadcast — inbox order must be bcast-then-directed.
                out.broadcast(100 + ctx.id.0);
                out.send_to(NodeId((ctx.id.0 + 1) % 6), ctx.id.0);
            },
            |_, s, inbox| s.extend(inbox.iter().map(|&(w, m)| (w, m))),
        );
        // Node 1 hears: rank 0's broadcast + directed, rank 2's broadcast.
        assert_eq!(
            engine.states()[1],
            vec![(NodeId(0), 100), (NodeId(0), 0), (NodeId(2), 102)]
        );
    }

    #[test]
    #[should_panic(expected = "dilation-1")]
    fn directed_messages_panic_on_power_overlays() {
        let g = generators::cycle(6);
        let mut ledger = RoundLedger::new();
        let mut engine = OverlayEngine::new(&g, PowerOverlay { k: 2 }, 0, |_| ());
        engine.step(
            &mut ledger,
            "t",
            |ctx, _, out: &mut Outbox<u32>| out.send_to(NodeId((ctx.id.0 + 1) % 6), 1),
            |_, _, _| {},
        );
    }

    #[test]
    fn relay_codecs_roundtrip() {
        use crate::wire::{decode_from_bytes, encode_to_bytes};
        fn rt<T: WireCodec + PartialEq + std::fmt::Debug>(m: T) {
            let (bytes, bits) = encode_to_bytes(&m);
            assert_eq!(bits, m.encoded_bits(), "size honesty for {m:?}");
            assert_eq!(decode_from_bytes::<T>(&bytes, bits).as_ref(), Some(&m));
        }
        rt(OverlayEnvelope {
            bcast: Some(std::sync::Arc::new(NodeId(7))),
            directed: vec![NodeId(1), NodeId(900)],
        });
        rt(OverlayEnvelope::<u32> {
            bcast: None,
            directed: Vec::new(),
        });
        rt(OverlayRelay {
            items: std::sync::Arc::new(vec![
                RelayItem {
                    origin: 3,
                    ttl: 2,
                    payload: true,
                },
                RelayItem {
                    origin: 0,
                    ttl: 0,
                    payload: false,
                },
            ]),
        });
        rt(OverlayRelay::<()> {
            items: std::sync::Arc::new(Vec::new()),
        });
        // One item costs its origin and TTL gamma codes plus the payload.
        let item = RelayItem {
            origin: (1 << 12) - 1,
            ttl: 11,
            payload: NodeId((1 << 12) - 1),
        };
        assert_eq!(
            item.encoded_bits(),
            2 * gamma_bits((1 << 12) - 1) + gamma_bits(11)
        );
    }

    #[test]
    fn flood_batch_encodes_like_overlay_relay() {
        use crate::ball::ReachBatch;
        use crate::wire::{decode_from_bytes, encode_to_bytes};
        // Table over ranks 0..5; ranks 1 and 3 stay silent.
        let raw: Vec<Option<u32>> = vec![Some(900), None, Some(0), None, Some(77)];
        let payloads: PayloadTable<u32> = Arc::new(raw.iter().map(|p| p.map(Arc::new)).collect());
        let bits_of = payload_bits(&payloads);
        for (origins, ttl) in [(vec![0u32, 2, 4], 3u32), (vec![4], 0), (Vec::new(), 11)] {
            let batch = ReachBatch::new(origins.clone(), Ttl(ttl), &payloads, &bits_of);
            let want: Vec<u32> = origins.iter().map(|&o| raw[o as usize].unwrap()).collect();
            let relay = OverlayRelay {
                items: Arc::new(
                    origins
                        .iter()
                        .zip(&want)
                        .map(|(&origin, &payload)| RelayItem {
                            origin,
                            ttl,
                            payload,
                        })
                        .collect::<Vec<_>>(),
                ),
            };
            let (batch_bytes, batch_bits) = encode_to_bytes(&batch);
            let (relay_bytes, relay_bits) = encode_to_bytes(&relay);
            assert_eq!(batch_bytes, relay_bytes, "bit-identical stream");
            assert_eq!(batch_bits, relay_bits, "identical charged size");
            assert_eq!(batch.encoded_bits(), batch_bits, "precomputed size honesty");
            // Roundtrip through the decode path.
            let back: ReachBatch<u32, Ttl> =
                decode_from_bytes(&batch_bytes, batch_bits).expect("decodes");
            let (ids, hop, got) = back.contents();
            assert_eq!(ids, origins);
            if !ids.is_empty() {
                assert_eq!(hop, Ttl(ttl), "TTL header survives");
            }
            assert_eq!(got, want.iter().collect::<Vec<_>>());
            assert_eq!(back.encoded_bits(), batch_bits, "decoded size honesty");
            assert_eq!(
                encode_to_bytes(&back),
                (batch_bytes, batch_bits),
                "re-encode"
            );
        }
        // An origin id near u32::MAX: decode keeps its payload beside the
        // id (no table sized by the id), and re-encoding reproduces the
        // stream.
        let far = OverlayRelay {
            items: Arc::new(vec![RelayItem {
                origin: u32::MAX - 1,
                ttl: 2,
                payload: 5u32,
            }]),
        };
        let (bytes, bits) = encode_to_bytes(&far);
        let back: ReachBatch<u32, Ttl> = decode_from_bytes(&bytes, bits).expect("decodes");
        assert_eq!(back.contents(), (&[u32::MAX - 1][..], Ttl(2), vec![&5]));
        assert_eq!(back.encoded_bits(), bits, "decoded size honesty");
        assert_eq!(encode_to_bytes(&back), (bytes, bits), "re-encode");
        // A TTL header must be round-uniform: mixed TTLs are no relay.
        let mixed = OverlayRelay {
            items: Arc::new(vec![
                RelayItem {
                    origin: 0,
                    ttl: 2,
                    payload: 5u32,
                },
                RelayItem {
                    origin: 2,
                    ttl: 1,
                    payload: 5u32,
                },
            ]),
        };
        let (bytes, bits) = encode_to_bytes(&mixed);
        assert!(decode_from_bytes::<ReachBatch<u32, Ttl>>(&bytes, bits).is_none());
    }
}
