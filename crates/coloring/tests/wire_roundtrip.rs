//! Property tests for every protocol [`WireCodec`]: exact roundtrips
//! (`decode(encode(m)) == m`, consuming every bit), size honesty
//! (`encode` writes exactly `encoded_bits(m)` bits), and a decode fuzz:
//! arbitrary bits decode to `None` or a value, never a panic. Which
//! substrates fit the `O(log n)` CONGEST budget is measured, not
//! declared: `substrates_split_as_documented` runs them with and without
//! enforcement.

use delta_coloring::gallai::{self, GallaiMsg};
use delta_coloring::linial::{linial_coloring, LinialMsg};
use delta_coloring::list_coloring::{list_color, LcMsg, ListColorMethod};
use delta_coloring::marking::MkMsg;
use delta_coloring::mis::{draw_domain, luby_mis, MisMsg};
use delta_coloring::palette::{Color, Lists, PartialColoring};
use delta_coloring::reduce::{deterministic_delta_plus_one, ReduceMsg};
use delta_coloring::ruling::RulingMsg;
use delta_graphs::generators;
use local_model::wire::{decode_from_bytes, encode_to_bytes};
use local_model::{
    congest_budget, enforce_congest, run_ball_phase, BitReader, BitWriter, RoundLedger, WireCodec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn roundtrip<M: WireCodec + PartialEq + std::fmt::Debug>(m: &M) {
    let (bytes, bits) = encode_to_bytes(m);
    assert_eq!(bits, m.encoded_bits(), "size honesty for {m:?}");
    let back: M = decode_from_bytes(&bytes, bits).unwrap_or_else(|| panic!("roundtrip of {m:?}"));
    assert_eq!(&back, m);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mis_messages(n in 4u64..1 << 24, sel in 0u64..u64::MAX, id in 0u64..1 << 24) {
        let m = MisMsg::Draw { value: sel % draw_domain(n), tiebreak: (id % n) as u32 };
        roundtrip(&m);
        roundtrip(&MisMsg::Joined);
    }

    #[test]
    fn linial_messages(n in 4u64..1 << 24, sel in 0u64..u64::MAX) {
        // Legal colors: below the initial id space (later rounds only
        // shrink the domain).
        roundtrip(&LinialMsg::Color(sel % n));
    }

    #[test]
    fn reduce_and_list_messages(palette in 2u64..1 << 16, sel in 0u64..u64::MAX, colored in proptest::bool::ANY) {
        roundtrip(&ReduceMsg::Color((sel % palette) as u32));
        let c = Color((sel % palette) as u32);
        let lm = if colored { LcMsg::Colored(c) } else { LcMsg::Propose(c) };
        roundtrip(&lm);
    }

    #[test]
    fn marking_placement_messages(n in 4u64..1 << 24, sel in 0u64..u64::MAX) {
        // The propose/claim/accept rounds are small control traffic
        // (the marking flood itself travels as local_model::ReachMsg).
        for m in [MkMsg::Propose, MkMsg::Claim((sel % n) as u32), MkMsg::Accept] {
            roundtrip(&m);
        }
    }

    #[test]
    fn ball_subsystem_relays_roundtrip(ids in proptest::collection::vec(0u32..1 << 24, 0..24), flag in proptest::bool::ANY) {
        use local_model::ball::BallItem;
        use local_model::{BallMsg, CenterMsg, ReachMsg};
        let items: Vec<BallItem<bool>> = ids
            .iter()
            .map(|&id| BallItem { id, adj: ids.clone(), payload: flag })
            .collect();
        roundtrip(&BallMsg(items));
        roundtrip(&ReachMsg(ids.iter().map(|&id| (id, ())).collect()));
        roundtrip(&CenterMsg {
            probe_ttl: flag.then_some(ids.len() as u32),
            items: vec![],
        });
    }

    #[test]
    fn unbounded_families_roundtrip(ids in proptest::collection::vec(0u32..1 << 24, 0..40), color in 0u32..1 << 12) {
        // Ruling candidate/relay.
        roundtrip(&RulingMsg::Candidate(color));
        roundtrip(&RulingMsg::Relay(ids.clone()));
        // Ball relays.
        let edges: Vec<(u32, u32)> = ids.iter().map(|&a| (a, a.wrapping_add(1))).collect();
        roundtrip(&GallaiMsg::BallEdges(edges));
    }
}

/// Decodes `M` from `len_bits` of arbitrary bits: `None` or a value,
/// never a panic, never past the end.
fn decodes_or_rejects<M: WireCodec>(bytes: &[u8], len_bits: u64) {
    let mut r = BitReader::new(bytes, len_bits);
    if M::decode(&mut r).is_some() {
        assert!(r.consumed() <= len_bits);
    }
}

/// Every coloring message type over the same arbitrary bits.
fn all_decode_or_reject(bytes: &[u8], len_bits: u64) {
    decodes_or_rejects::<MisMsg>(bytes, len_bits);
    decodes_or_rejects::<LinialMsg>(bytes, len_bits);
    decodes_or_rejects::<ReduceMsg>(bytes, len_bits);
    decodes_or_rejects::<LcMsg>(bytes, len_bits);
    decodes_or_rejects::<Color>(bytes, len_bits);
    decodes_or_rejects::<MkMsg>(bytes, len_bits);
    decodes_or_rejects::<RulingMsg>(bytes, len_bits);
    decodes_or_rejects::<GallaiMsg>(bytes, len_bits);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn coloring_decoders_never_panic(seed in 0u64..u64::MAX, len in 0usize..48) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Dense or zero-heavy random bytes, at every valid bit length.
        let zero_heavy = rng.random_bool(0.5);
        let bytes: Vec<u8> = (0..len)
            .map(|_| match zero_heavy && rng.random_bool(0.9) {
                true => 0,
                false => rng.random::<u64>() as u8,
            })
            .collect();
        let bits = rng.random_range(0..=bytes.len() as u64 * 8);
        all_decode_or_reject(&bytes, bits);
        // Real messages with a flipped bit, cut short: corrupt input
        // that reaches the decoders' later fields.
        let samples = [
            encode_to_bytes(&MisMsg::Draw { value: 1 << 40, tiebreak: 77 }),
            encode_to_bytes(&RulingMsg::Relay(vec![3, 1 << 20, 0])),
            encode_to_bytes(&GallaiMsg::BallEdges(vec![(1, 2), (2, 900)])),
            encode_to_bytes(&LcMsg::Colored(Color(6))),
        ];
        for (mut bytes, bits) in samples {
            let at = rng.random_range(0..bits);
            bytes[(at / 8) as usize] ^= 1 << (at % 8);
            let cut = rng.random_range(0..=bits);
            all_decode_or_reject(&bytes, cut);
        }
    }
}

/// Checks a decoder's `u32` field: the stream `write(w, x)` decodes to
/// `small` for `x = 5` and to `None` for `x = 2^32 + 5`, which a
/// truncating decoder would wrap to 5.
fn rejects_u32_overflow<M: WireCodec + PartialEq + std::fmt::Debug>(
    write: impl Fn(&mut BitWriter, u64),
    small: M,
) {
    let stream = |x: u64| {
        let mut w = BitWriter::new();
        write(&mut w, x);
        w.finish()
    };
    let (bytes, bits) = stream((1 << 32) + 5);
    assert_eq!(decode_from_bytes::<M>(&bytes, bits), None, "{small:?}");
    let (bytes, bits) = stream(5);
    assert_eq!(decode_from_bytes::<M>(&bytes, bits), Some(small));
}

#[test]
fn u32_fields_reject_values_of_two_to_the_32_and_above() {
    rejects_u32_overflow(|w, x| w.write_gamma(x), ReduceMsg::Color(5));
    rejects_u32_overflow(|w, x| w.write_gamma(x), Color(5));
    rejects_u32_overflow(
        |w, x| {
            w.write_bool(false);
            w.write_gamma(x);
        },
        RulingMsg::Candidate(5),
    );
    rejects_u32_overflow(
        |w, x| {
            w.write_bits(1, 2);
            w.write_gamma(x);
        },
        MkMsg::Claim(5),
    );
    rejects_u32_overflow(
        |w, x| {
            w.write_bool(false);
            w.write_gamma(9);
            w.write_gamma(x);
        },
        MisMsg::Draw {
            value: 9,
            tiebreak: 5,
        },
    );
    // Both endpoints of a relayed edge.
    rejects_u32_overflow(
        |w, x| {
            w.write_gamma(1);
            w.write_gamma(x);
            w.write_gamma(3);
        },
        GallaiMsg::BallEdges(vec![(5, 3)]),
    );
    rejects_u32_overflow(
        |w, x| {
            w.write_gamma(1);
            w.write_gamma(3);
            w.write_gamma(x);
        },
        GallaiMsg::BallEdges(vec![(3, 5)]),
    );
}

/// A named substrate run that charges the ledger it is given.
type Substrate<'a> = (&'a str, &'a dyn Fn(&mut RoundLedger));

/// `run` on a fresh ledger, once plain and once under
/// `enforce_congest(congest_budget(n))`: the (LOCAL, wire) ledgers.
fn plain_and_enforced(n: usize, run: &dyn Fn(&mut RoundLedger)) -> (RoundLedger, RoundLedger) {
    let mut local = RoundLedger::new();
    run(&mut local);
    let mut wire = RoundLedger::new();
    let _guard = enforce_congest(congest_budget(n as u64));
    run(&mut wire);
    (local, wire)
}

/// The split of the crate docs' "Bandwidth" column, by measurement.
/// CONGEST-feasible substrates run under an `O(log n)` budget on
/// exactly their LOCAL rounds, with no violation and no edge over the
/// budget. Ball collection does not fit: radius 2 dilates from 2 LOCAL
/// rounds to 4 wire rounds.
#[test]
fn substrates_split_as_documented() {
    for (n, delta) in [(1 << 10, 4), (1 << 12, 16)] {
        let g = generators::random_regular(n, delta, 9);
        let budget = congest_budget(n as u64);
        let lists = Lists::uniform(n, delta + 1);
        let list = |l: &mut RoundLedger, method| {
            list_color(&g, &lists, PartialColoring::new(n), method, 9, l, "list")
                .expect("deg+1 lists are colorable");
        };
        let fits: [Substrate; 5] = [
            ("linial_coloring", &|l| {
                linial_coloring(&g, l, "linial");
            }),
            ("deterministic_delta_plus_one", &|l| {
                deterministic_delta_plus_one(&g, l, "reduce");
            }),
            ("luby_mis", &|l| {
                luby_mis(&g, 9, l, "mis");
            }),
            ("list_color randomized", &|l| {
                list(l, ListColorMethod::Randomized)
            }),
            ("list_color deterministic", &|l| {
                list(l, ListColorMethod::Deterministic)
            }),
        ];
        for (name, run) in fits {
            let (local, wire) = plain_and_enforced(n, run);
            let at = format!("{name} at n={n}, delta={delta}");
            assert_eq!(wire.total(), local.total(), "{at}: rounds dilated");
            assert_eq!(wire.congest_violations(), 0, "{at}");
            assert!(
                wire.max_edge_bits() <= budget,
                "{at}: {} bits",
                wire.max_edge_bits()
            );
        }
    }
    for n in [1 << 10, 1 << 12] {
        let g = generators::random_regular(n, 4, 9);
        let dilates: [Substrate; 2] = [
            ("run_ball_phase", &|l| {
                run_ball_phase(&g, None, 9, 2, |_| (), |_, v| v.members.len(), l, "ball");
            }),
            ("find_dccs_all", &|l| {
                gallai::find_dccs_all(&g, 2, 2, 28, l, "dcc");
            }),
        ];
        for (name, run) in dilates {
            let (local, wire) = plain_and_enforced(n, run);
            assert_eq!((local.total(), wire.total()), (2, 4), "{name} at n={n}");
        }
    }
}

/// Counts the bytes each thread allocates, so a test can bound what
/// one decode reserves while the proptests run on their own threads.
struct ThreadCountingAlloc;

thread_local! {
    static ALLOCATED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may still free and allocate
    // after its locals are gone.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every operation is forwarded unchanged to `System`; the
// counter is a const-initialized thread-local `Cell`, which neither
// allocates nor reenters the allocator.
unsafe impl std::alloc::GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc` contract, passed on as is.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's `realloc` contract, passed on as is.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

#[test]
fn corrupt_gallai_length_prefix_reserves_at_most_the_bits_left() {
    // A gamma length of 2^20 edges and no edge after it (41 bits): a
    // bit flip's view of a short relay.
    let mut w = BitWriter::new();
    w.write_gamma(1 << 20);
    let (bytes, bits) = w.finish();
    assert_eq!(bits, 41);
    let before = ALLOCATED.with(std::cell::Cell::get);
    assert!(decode_from_bytes::<GallaiMsg>(&bytes, bits).is_none());
    let reserved = ALLOCATED.with(std::cell::Cell::get) - before;
    assert!(reserved <= 1024, "GallaiMsg reserved {reserved} bytes");
}
