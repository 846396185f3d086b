//! The wire transport between shards: batched boundary blocks.
//!
//! An [`Engine`] built over a [`ShardPlan`] ([`Engine::sharded`],
//! [`Engine::contiguous`]) is the distributed-memory rehearsal of the
//! round core: its parts are the plan's shards, and everything shard `s`
//! sends shard `t` in one round travels as one *boundary block* of
//! actual [`WireCodec`] bits — encoded by `s` right after staging,
//! decoded by `t` right after the exchange. [`BoundaryStats`] meters the
//! blocks beside [`MessageStats`](crate::MessageStats), which stays
//! bit-identical to every other partition (`tests/sharded_equivalence.rs`).
//! Without a plan, the engine's parts hand their streams over in memory
//! and nothing here runs.
//!
//! # Single-owner discipline
//!
//! Every node has exactly one *home shard* — the shard whose contiguous
//! range contains it — and only the home shard ever steps the node's
//! program, writes its inbox, or advances its RNG stream, so cross-shard
//! influence flows solely through the boundary blocks exchanged at the
//! round barrier. The discipline is enforced at the encode site: a
//! staged destination arc outside the target shard's arc range surfaces
//! as a typed [`EngineError::CrossShardArc`], not a panic.
//!
//! # Block layout
//!
//! `γ(broadcast count)`, then per broadcaster with at least one
//! neighbor in the target shard, ascending, `γ(sender − lo_s)` + payload;
//! `γ(directed count)`, then per message in send order
//! `γ(dest_arc − arc_lo_t)` + payload. The receiver resolves each
//! directed message's recipient from its destination arc, and each
//! remote broadcast by sender, with binary searches.

use crate::engine::{Engine, EngineError, Outbox, Stream};
use crate::wire::{BitReader, BitWriter, WireCodec};
use delta_graphs::{Graph, NodeId, ShardPlan};

/// Wire-level counters for the boundary-block exchange, accumulated
/// across rounds. These sit *beside* [`crate::MessageStats`] (which
/// stays bit-identical to an unsharded run): they meter the sharding
/// overlay itself — how many blocks crossed shard boundaries and how
/// many wire bits they carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryStats {
    /// Non-empty boundary blocks encoded (one per ordered shard pair
    /// per round with any cross-shard traffic).
    pub blocks: u64,
    /// Total wire bits across all boundary blocks (envelope included).
    pub block_bits: u64,
    /// Cross-shard entries carried (broadcast-section entries plus
    /// directed-section entries).
    pub messages: u64,
}

impl BoundaryStats {
    pub(crate) fn add(&mut self, other: BoundaryStats) {
        self.blocks += other.blocks;
        self.block_bits += other.block_bits;
        self.messages += other.messages;
    }
}

/// One encoded boundary block: the batched wire bits shard `s` sends
/// shard `t` for one round and one message type.
#[derive(Debug)]
pub(crate) struct BoundaryBlock {
    bytes: Vec<u8>,
    pub(crate) bits: u64,
}

/// The arc bounds of part `t` under `plan` (empty parts get an empty
/// range).
pub(crate) fn part_arc_bounds(graph: &Graph, plan: &ShardPlan, t: usize) -> (usize, usize) {
    let r = plan.range(t);
    let at = |v: usize| {
        if v < graph.n() {
            graph.arc_range(NodeId::from_index(v)).start
        } else {
            graph.num_arcs()
        }
    };
    (at(r.start), at(r.end))
}

/// Encodes the boundary block `s → t` — the broadcasters of shard `s`
/// (local indices into its `outboxes`) with a neighbor in `t`, and the
/// directed `stream` for `t` — or `None` if nothing crosses.
///
/// # Errors
///
/// [`EngineError::CrossShardArc`] if a staged destination arc falls
/// outside the target shard's arc range `arc_bounds_t` — the
/// `arc_range` check that enforces the single-owner discipline at the
/// encode site.
pub(crate) fn encode_block<M: WireCodec>(
    graph: &Graph,
    bcast_senders: &[u32],
    stream: &Stream<M>,
    outboxes: &[Outbox<M>],
    arc_bounds_t: (usize, usize),
    t: usize,
) -> Result<Option<BoundaryBlock>, EngineError> {
    if bcast_senders.is_empty() && stream.items.is_empty() {
        return Ok(None);
    }
    let (arc_lo, arc_hi) = arc_bounds_t;
    let mut w = BitWriter::new();
    w.write_gamma(bcast_senders.len() as u64);
    for &j in bcast_senders {
        w.write_gamma(j as u64);
        let (bcast, _) = outboxes[j as usize].parts();
        bcast
            .expect("staged broadcaster queued a broadcast")
            .encode(&mut w);
    }
    w.write_gamma(stream.items.len() as u64);
    for (arc, m) in &stream.items {
        let a = *arc as usize;
        if a < arc_lo || a >= arc_hi {
            return Err(EngineError::CrossShardArc {
                // A destination arc points back at its sender.
                from: graph.arc_head(a),
                arc: *arc,
                shard: t as u32,
            });
        }
        w.write_gamma((a - arc_lo) as u64);
        m.encode(&mut w);
    }
    let (bytes, bits) = w.finish();
    Ok(Some(BoundaryBlock { bytes, bits }))
}

/// Decodes the boundary block `s → t` on the receiving shard
/// `(lo_t, hi_t, arc_lo_t)`, appending remote broadcasters (with their
/// recomputed wire size — equal to the sender-side size, payload decode
/// being exact) and directed messages, each recipient resolved from its
/// destination arc by binary search over the shard's node range.
pub(crate) fn decode_block<M: WireCodec>(
    graph: &Graph,
    block: &BoundaryBlock,
    lo_s: usize,
    shard_t: (usize, usize, usize),
    remote_bcasts: &mut Vec<(u32, u64, M)>,
    stream: &mut Stream<M>,
) {
    let (lo_t, hi_t, arc_lo_t) = shard_t;
    let mut r = BitReader::new(&block.bytes, block.bits);
    let err = "boundary-block decode: counts and payloads written by the encode site";
    let nb = r.read_gamma().expect(err);
    for _ in 0..nb {
        let sender = lo_s as u64 + r.read_gamma().expect(err);
        let m = M::decode(&mut r).expect(err);
        remote_bcasts.push((sender as u32, m.encoded_bits(), m));
    }
    let nd = r.read_gamma().expect(err);
    for _ in 0..nd {
        let arc = arc_lo_t + r.read_gamma().expect(err) as usize;
        let m = M::decode(&mut r).expect(err);
        // Owner of the destination arc: the unique node in [lo_t, hi_t)
        // whose arc range contains it.
        let mut a = lo_t;
        let mut b = hi_t;
        while b - a > 1 {
            let mid = (a + b) / 2;
            if graph.arc_range(NodeId::from_index(mid)).start <= arc {
                a = mid;
            } else {
                b = mid;
            }
        }
        stream.push(arc as u32, a as u32, m);
    }
    debug_assert!(r.is_exhausted(), "boundary block fully consumed");
}

/// The sharded engine: an [`Engine`] constructed over a [`ShardPlan`]
/// ([`Engine::sharded`], [`Engine::contiguous`]), whose cross-shard
/// traffic travels as encoded boundary blocks. Seed-bit-identical to
/// [`Engine::new`] for every plan.
///
/// # Example
///
/// ```
/// use delta_graphs::generators;
/// use local_model::{RoundLedger, ShardedEngine};
///
/// let g = generators::cycle(12);
/// let mut ledger = RoundLedger::new();
/// let mut engine = ShardedEngine::contiguous(&g, 3, 42, |v| v.0);
/// engine.step(
///     &mut ledger,
///     "flood-min",
///     |_, &mut s, out| out.broadcast(s),
///     |_, s, inbox| {
///         for &(_, m) in inbox {
///             *s = (*s).min(m);
///         }
///     },
/// );
/// assert_eq!(ledger.total(), 1);
/// assert_eq!(engine.boundary_stats().blocks, 6);
/// ```
pub type ShardedEngine<'g, S> = Engine<'g, S>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MessageStats;
    use crate::ledger::RoundLedger;
    use delta_graphs::generators;
    use rand::Rng;

    /// Runs `rounds` rounds of a broadcast + RNG program on an engine,
    /// returning (states, stats, ledger bits, ledger rounds).
    fn run_mixed(mut engine: Engine<'_, u64>, rounds: usize) -> (Vec<u64>, MessageStats, u64, u64) {
        let mut ledger = RoundLedger::new();
        for _ in 0..rounds {
            engine.step(
                &mut ledger,
                "mixed",
                |ctx, s, out: &mut Outbox<u64>| {
                    let draw: u64 = ctx.rng.random_range(0..1 << 20);
                    out.broadcast(*s ^ draw);
                    *s = s.rotate_left(1);
                },
                |_, s, inbox| {
                    for (w, m) in inbox {
                        *s = s.wrapping_add(m.wrapping_mul(w.0 as u64 | 1));
                    }
                },
            );
        }
        let stats = engine.message_stats();
        let states = engine.into_states();
        (states, stats, ledger.bits_sent(), ledger.total())
    }

    /// Mixed program with real directed traffic (needs graph access, so
    /// it is generated per-engine with the same logic).
    fn run_mixed_directed(
        graph: &Graph,
        mut engine: Engine<'_, u64>,
        rounds: usize,
    ) -> (Vec<u64>, MessageStats, u64) {
        let mut ledger = RoundLedger::new();
        for _ in 0..rounds {
            engine.step(
                &mut ledger,
                "mixed-directed",
                |ctx, s, out: &mut Outbox<u64>| {
                    let draw: u64 = ctx.rng.random_range(0..1 << 20);
                    if draw.is_multiple_of(2) {
                        out.broadcast(*s ^ draw);
                    }
                    if ctx.degree > 0 {
                        let nbrs = graph.neighbors(ctx.id);
                        let w = nbrs[(draw as usize) % nbrs.len()];
                        out.send_to(w, draw);
                        out.send_to(nbrs[0], *s & 0xffff);
                    }
                    *s = s.rotate_left(3) ^ draw;
                },
                |_, s, inbox| {
                    for (w, m) in inbox {
                        *s = s.wrapping_add(m.wrapping_mul(w.0 as u64 | 1));
                    }
                },
            );
        }
        let stats = engine.message_stats();
        let states = engine.into_states();
        (states, stats, ledger.bits_sent())
    }

    #[test]
    fn matches_engine_on_broadcast_program() {
        let g = generators::torus(6, 8);
        let (se, ss, sb, st) = run_mixed(Engine::new(&g, 11, |v| v.0 as u64), 5);
        for shards in [1, 2, 3, 7] {
            let sharded = ShardedEngine::contiguous(&g, shards, 11, |v| v.0 as u64);
            let (pe, ps, pb, pt) = run_mixed(sharded, 5);
            assert_eq!(se, pe, "states diverge at S={shards}");
            assert_eq!(ss, ps, "stats diverge at S={shards}");
            assert_eq!(sb, pb, "ledger bits diverge at S={shards}");
            assert_eq!(st, pt, "ledger rounds diverge at S={shards}");
        }
    }

    #[test]
    fn matches_engine_on_mixed_directed_program() {
        let g = generators::circulant(40, 6);
        let (se, ss, sb) = run_mixed_directed(&g, Engine::new(&g, 5, |v| v.0 as u64), 6);
        for shards in [2, 4, 8] {
            let sharded = ShardedEngine::contiguous(&g, shards, 5, |v| v.0 as u64);
            let (pe, ps, pb) = run_mixed_directed(&g, sharded, 6);
            assert_eq!(se, pe, "states diverge at S={shards}");
            assert_eq!(ss, ps, "stats diverge at S={shards}");
            assert_eq!(sb, pb, "ledger bits diverge at S={shards}");
        }
    }

    #[test]
    fn degree_balanced_plan_matches_too() {
        let g = generators::torus(5, 9);
        let (se, ss, _, _) = run_mixed(Engine::new(&g, 23, |v| v.0 as u64), 4);
        let plan = ShardPlan::degree_balanced(&g, 4);
        let sharded = Engine::sharded(&g, plan, 23, |v| v.0 as u64);
        let (pe, ps, _, _) = run_mixed(sharded, 4);
        assert_eq!(se, pe);
        assert_eq!(ss, ps);
    }

    #[test]
    fn boundary_stats_count_cross_shard_traffic_only() {
        let g = generators::cycle(16);
        // One shard: nothing ever crosses a boundary.
        let mut ledger = RoundLedger::new();
        let mut one = ShardedEngine::contiguous(&g, 1, 3, |v| v.0);
        one.step(
            &mut ledger,
            "t",
            |_, s, out: &mut Outbox<u32>| out.broadcast(*s),
            |_, _, _| {},
        );
        assert_eq!(one.boundary_stats(), BoundaryStats::default());
        // Four shards on a cycle: each shard's two edge nodes reach one
        // neighbor shard each, so 8 blocks with one broadcaster apiece.
        let mut four = ShardedEngine::contiguous(&g, 4, 3, |v| v.0);
        four.step(
            &mut ledger,
            "t",
            |_, s, out: &mut Outbox<u32>| out.broadcast(*s),
            |_, _, _| {},
        );
        let bs = four.boundary_stats();
        assert_eq!(bs.blocks, 8);
        assert_eq!(bs.messages, 8);
        assert!(bs.block_bits > 0);
        // The official stats still match the unsharded engine.
        let mut single = Engine::new(&g, 3, |v| v.0);
        single.step(
            &mut ledger,
            "t",
            |_, s, out: &mut Outbox<u32>| out.broadcast(*s),
            |_, _, _| {},
        );
        assert_eq!(four.message_stats(), single.message_stats());
        assert_eq!(single.boundary_stats(), BoundaryStats::default());
    }

    #[test]
    fn boundary_block_roundtrip_and_size_honesty() {
        // Hand-build a source shard [0, 3) of a cycle(9) sending into
        // shard [3, 6): node 2 broadcasts and sends directed to 3.
        let g = generators::cycle(9);
        let plan = ShardPlan::contiguous(9, 3);
        let mut outboxes: Vec<Outbox<u64>> = (0..3).map(|_| Outbox::new()).collect();
        outboxes[2].broadcast(0xdead_beef);
        let dest_arc = {
            // Node 3's arc toward node 2.
            let p = g.neighbor_position(NodeId(3), NodeId(2)).unwrap();
            (g.arc_range(NodeId(3)).start + p) as u32
        };
        let mut stream = Stream::new();
        stream.push(dest_arc, 3, 77u64);
        let bounds = part_arc_bounds(&g, &plan, 1);
        let block = encode_block(&g, &[2], &stream, &outboxes, bounds, 1)
            .unwrap()
            .expect("non-empty stage encodes to a block");
        // Size honesty: the declared bit length is exactly the bits the
        // writer produced, and the envelope is gamma-coded.
        assert_eq!(block.bits.div_ceil(8), block.bytes.len() as u64);
        let mut remote = Vec::new();
        let mut decoded = Stream::new();
        decode_block(&g, &block, 0, (3, 6, bounds.0), &mut remote, &mut decoded);
        assert_eq!(remote, vec![(2u32, 64u64, 0xdead_beef_u64)]);
        assert_eq!(decoded.items, vec![(dest_arc, 77u64)]);
        assert_eq!(decoded.to, vec![3u32]); // resolved from the arc alone
    }

    #[test]
    fn cross_shard_arc_is_a_typed_error_not_a_panic() {
        let g = generators::cycle(9);
        let plan = ShardPlan::contiguous(9, 3);
        let outboxes: Vec<Outbox<u64>> = (0..3).map(|_| Outbox::new()).collect();
        // Destination arc 0 (node 0's arc toward node 1) belongs to
        // shard 0, not shard 1.
        let mut stream = Stream::new();
        stream.push(0, 0, 5u64);
        let bounds = part_arc_bounds(&g, &plan, 1);
        let err = encode_block(&g, &[], &stream, &outboxes, bounds, 1).unwrap_err();
        assert_eq!(
            err,
            EngineError::CrossShardArc {
                from: NodeId(1),
                arc: 0,
                shard: 1
            }
        );
    }

    #[test]
    fn single_node_and_empty_graph_round_trip() {
        for n in [0usize, 1] {
            let g = Graph::from_edges(n, [(0u32, 0u32); 0]).unwrap();
            let mut ledger = RoundLedger::new();
            let mut eng = ShardedEngine::contiguous(&g, 4, 9, |_| 0u32);
            eng.step(
                &mut ledger,
                "t",
                |_, _, out: &mut Outbox<u32>| out.broadcast(1),
                |_, s, inbox| *s += inbox.len() as u32,
            );
            assert_eq!(eng.rounds_run(), 1);
            assert!(eng.states().iter().all(|&s| s == 0));
        }
    }
}
