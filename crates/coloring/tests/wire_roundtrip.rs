//! Property tests for every protocol [`WireCodec`]: exact roundtrips
//! (`decode(encode(m)) == m`, consuming every bit), size honesty
//! (`encode` writes exactly `encoded_bits(m)` bits), bound soundness
//! (`encoded_bits(m) <= max_bits(p)` for every message the protocol can
//! legally send at parameters `p`), and a decode fuzz: arbitrary bits
//! decode to `None` or a value, never a panic.

use delta_coloring::decomp::DecompMsg;
use delta_coloring::gallai::GallaiMsg;
use delta_coloring::layering::LayerMsg;
use delta_coloring::linial::LinialMsg;
use delta_coloring::list_coloring::LcMsg;
use delta_coloring::marking::MkMsg;
use delta_coloring::mis::{draw_domain, MisMsg};
use delta_coloring::palette::Color;
use delta_coloring::reduce::ReduceMsg;
use delta_coloring::ruling::RulingMsg;
use local_model::wire::{decode_from_bytes, encode_to_bytes};
use local_model::{BitReader, BitWriter, WireCodec, WireParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn roundtrip<M: WireCodec + PartialEq + std::fmt::Debug>(m: &M) {
    let (bytes, bits) = encode_to_bytes(m);
    assert_eq!(bits, m.encoded_bits(), "size honesty for {m:?}");
    let back: M = decode_from_bytes(&bytes, bits).unwrap_or_else(|| panic!("roundtrip of {m:?}"));
    assert_eq!(&back, m);
}

/// Checks `encoded_bits <= max_bits` for a message legal at `p`.
fn bounded<M: WireCodec + std::fmt::Debug>(m: &M, p: &WireParams) {
    let bound = M::max_bits(p).expect("bounded message family");
    assert!(
        m.encoded_bits() <= bound,
        "{m:?}: {} bits exceeds max_bits {bound}",
        m.encoded_bits()
    );
}

fn params(n: u64, delta: u64) -> WireParams {
    WireParams {
        n,
        max_degree: delta,
        palette: delta + 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mis_messages(n in 4u64..1 << 24, sel in 0u64..u64::MAX, id in 0u64..1 << 24) {
        let p = params(n, 4);
        let m = MisMsg::Draw { value: sel % draw_domain(n), tiebreak: (id % n) as u32 };
        roundtrip(&m);
        bounded(&m, &p);
        roundtrip(&MisMsg::Joined);
        bounded(&MisMsg::Joined, &p);
    }

    #[test]
    fn linial_messages(n in 4u64..1 << 24, delta in 3u64..16, sel in 0u64..u64::MAX) {
        let p = params(n, delta);
        // Legal colors: below the initial id space (later rounds only
        // shrink the domain).
        let m = LinialMsg::Color(sel % n);
        roundtrip(&m);
        bounded(&m, &p);
    }

    #[test]
    fn reduce_and_list_messages(palette in 2u64..1 << 16, sel in 0u64..u64::MAX, colored in proptest::bool::ANY) {
        let p = params(1 << 14, 4).with_palette(palette);
        let rm = ReduceMsg::Color((sel % palette) as u32);
        roundtrip(&rm);
        bounded(&rm, &p);
        let c = Color((sel % palette) as u32);
        let lm = if colored { LcMsg::Colored(c) } else { LcMsg::Propose(c) };
        roundtrip(&lm);
        bounded(&lm, &p);
    }

    #[test]
    fn layer_and_decomp_messages(n in 4u64..1 << 24, sel in 0u64..u64::MAX, key in 0u64..u64::MAX) {
        let p = params(n, 4);
        let lm = LayerMsg::Layer((sel % n) as u32);
        roundtrip(&lm);
        bounded(&lm, &p);
        let dm = DecompMsg::Offer { key, center: (sel % n) as u32 };
        roundtrip(&dm);
        bounded(&dm, &p);
    }

    #[test]
    fn marking_placement_messages(n in 4u64..1 << 24, sel in 0u64..u64::MAX) {
        // The propose/claim/accept rounds are bounded control traffic
        // (the marking flood itself travels as local_model::ReachMsg).
        let p = params(n, 4);
        for m in [MkMsg::Propose, MkMsg::Claim((sel % n) as u32), MkMsg::Accept] {
            roundtrip(&m);
            bounded(&m, &p);
        }
    }

    #[test]
    fn ball_subsystem_relays_roundtrip(ids in proptest::collection::vec(0u32..1 << 24, 0..24), flag in proptest::bool::ANY) {
        use local_model::ball::BallItem;
        use local_model::{BallMsg, CenterMsg, ReachMsg};
        let p = params(1 << 14, 4);
        let items: Vec<BallItem<bool>> = ids
            .iter()
            .map(|&id| BallItem { id, adj: ids.clone(), payload: flag })
            .collect();
        roundtrip(&BallMsg(items));
        prop_assert!(BallMsg::<bool>::max_bits(&p).is_none());
        let reach = ReachMsg(ids.iter().map(|&id| (id, ())).collect());
        roundtrip(&reach);
        prop_assert!(ReachMsg::<()>::max_bits(&p).is_none());
        let probe = CenterMsg {
            probe_ttl: flag.then_some(ids.len() as u32),
            items: vec![],
        };
        roundtrip(&probe);
        prop_assert!(CenterMsg::max_bits(&p).is_none());
    }

    #[test]
    fn unbounded_families_roundtrip(ids in proptest::collection::vec(0u32..1 << 24, 0..40), color in 0u32..1 << 12) {
        let p = params(1 << 14, 4);
        // Ruling candidate/relay.
        roundtrip(&RulingMsg::Candidate(color));
        roundtrip(&RulingMsg::Relay(ids.clone()));
        prop_assert!(RulingMsg::max_bits(&p).is_none());
        // Ball relays.
        let edges: Vec<(u32, u32)> = ids.iter().map(|&a| (a, a.wrapping_add(1))).collect();
        let gm = GallaiMsg::BallEdges(edges);
        roundtrip(&gm);
        prop_assert!(GallaiMsg::max_bits(&p).is_none());
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
    decodes_or_rejects::<LayerMsg>(bytes, len_bits);
    decodes_or_rejects::<DecompMsg>(bytes, len_bits);
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
            encode_to_bytes(&DecompMsg::Offer { key: u64::MAX, center: 12 }),
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
    rejects_u32_overflow(
        |w, x| {
            w.write_bits(7, 64);
            w.write_gamma(x);
        },
        DecompMsg::Offer { key: 7, center: 5 },
    );
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
    rejects_u32_overflow(|w, x| w.write_gamma(x), LayerMsg::Layer(5));
}

/// Whether every message of type `M` fits the CONGEST budget at `p`.
fn fits_congest<M: WireCodec>(p: &WireParams) -> bool {
    M::max_bits(p).is_some_and(|b| b <= local_model::congest_budget(p.n))
}

#[test]
fn substrates_split_as_documented() {
    use local_model::{BallMsg, CenterMsg, OverlayEnvelope, OverlayRelay, ReachMsg, RelayItem};
    for (n, delta) in [(1 << 10, 4), (1 << 14, 4), (1 << 20, 8), (1 << 14, 16)] {
        let p = params(n, delta);
        // Color-class reduction consumes Linial's O(delta^2) coloring,
        // so its palette is the Linial bound, not delta + 1.
        let reduce_p =
            p.with_palette(delta_coloring::linial::linial_color_bound(delta as usize) as u64);
        // CONGEST-feasible formats (the overlay relay's per-item
        // envelope is bounded; its batched relays are not).
        for (name, fits) in [
            ("LinialMsg", fits_congest::<LinialMsg>(&p)),
            ("ReduceMsg", fits_congest::<ReduceMsg>(&reduce_p)),
            ("MisMsg", fits_congest::<MisMsg>(&p)),
            ("LcMsg", fits_congest::<LcMsg>(&p)),
            ("LayerMsg", fits_congest::<LayerMsg>(&p)),
            ("DecompMsg", fits_congest::<DecompMsg>(&p)),
            ("RelayItem", fits_congest::<RelayItem<()>>(&p)),
        ] {
            assert!(fits, "{name} at n={n}, delta={delta}");
        }
        // Unbounded formats: the ball-collection relays and everything
        // built on them.
        for (name, fits) in [
            ("BallMsg", fits_congest::<BallMsg<()>>(&p)),
            ("ReachMsg", fits_congest::<ReachMsg<()>>(&p)),
            ("OverlayRelay", fits_congest::<OverlayRelay<()>>(&p)),
            ("OverlayEnvelope", fits_congest::<OverlayEnvelope<()>>(&p)),
            ("RulingMsg", fits_congest::<RulingMsg>(&p)),
            ("GallaiMsg", fits_congest::<GallaiMsg>(&p)),
            ("CenterMsg", fits_congest::<CenterMsg>(&p)),
        ] {
            assert!(!fits, "{name} at n={n}, delta={delta}");
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
