//! Property tests for the generic [`WireCodec`] implementations: exact
//! roundtrips (`decode(encode(m)) == m`, consuming every bit) and size
//! honesty (`encode` writes exactly `encoded_bits(m)` bits).
//!
//! The word-level [`BitWriter`]/[`BitReader`] kernel is pinned against
//! [`reference`], the bit-at-a-time codec it replaced: random write
//! sequences give byte-identical output, and random reads agree value
//! for value and `None` for `None`. The decode fuzz feeds every wire
//! type the engines send arbitrary bits: decoding returns `None` or a
//! value and never panics.

use delta_graphs::NodeId;
use local_model::wire::{decode_from_bytes, encode_to_bytes, gamma_bits};
use local_model::{
    BallMsg, BitReader, BitWriter, CenterMsg, CongestChunk, Fragmenter, OverlayEnvelope,
    OverlayRelay, ReachMsg, WireCodec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The bit-at-a-time codec the word-level kernel replaced, kept as the
/// test oracle: one loop iteration per bit, nothing clever.
mod reference {
    #[derive(Default)]
    pub struct Writer {
        pub bytes: Vec<u8>,
        pub bits: u64,
    }

    impl Writer {
        pub fn write_bits(&mut self, value: u64, width: u32) {
            for i in 0..width {
                let bit = (value >> i) & 1;
                let pos = (self.bits % 8) as u32;
                if pos == 0 {
                    self.bytes.push(0);
                }
                *self.bytes.last_mut().expect("pushed above") |= (bit as u8) << pos;
                self.bits += 1;
            }
        }

        pub fn write_gamma(&mut self, v: u64) {
            let w = v + 1;
            let k = 64 - w.leading_zeros();
            self.write_bits(0, k - 1);
            for i in (0..k).rev() {
                self.write_bits((w >> i) & 1, 1);
            }
        }

        pub fn write_raw(&mut self, bytes: &[u8], start_bit: u64, len_bits: u64) {
            for at in start_bit..start_bit + len_bits {
                let bit = (bytes[(at / 8) as usize] >> (at % 8)) & 1;
                self.write_bits(u64::from(bit), 1);
            }
        }
    }

    pub struct Reader<'a> {
        pub bytes: &'a [u8],
        pub len_bits: u64,
        pub cursor: u64,
    }

    impl Reader<'_> {
        pub fn read_bits(&mut self, width: u32) -> Option<u64> {
            if width as u64 > self.len_bits - self.cursor {
                return None;
            }
            let mut out = 0u64;
            for i in 0..width {
                let at = self.cursor + i as u64;
                let bit = (self.bytes[(at / 8) as usize] >> (at % 8)) & 1;
                out |= (bit as u64) << i;
            }
            self.cursor += width as u64;
            Some(out)
        }

        pub fn read_raw(&mut self, len_bits: u64) -> Option<Vec<u8>> {
            if len_bits > self.len_bits - self.cursor {
                return None;
            }
            let mut w = Writer::default();
            for _ in 0..len_bits {
                w.write_bits(self.read_bits(1)?, 1);
            }
            Some(w.bytes)
        }

        pub fn read_gamma(&mut self) -> Option<u64> {
            let mut zeros = 0u32;
            while self.read_bits(1)? == 0 {
                zeros += 1;
                if zeros >= 64 {
                    return None;
                }
            }
            let mut w = 1u64;
            for _ in 0..zeros {
                w = (w << 1) | self.read_bits(1)?;
            }
            Some(w - 1)
        }
    }
}

/// A uniformly random value of `width` bits.
fn value_of_width(rng: &mut StdRng, width: u32) -> u64 {
    match width {
        0 => 0,
        w => rng.random::<u64>() >> (64 - w),
    }
}

/// A gamma-codable value whose bit length is uniform in 1..=64, so
/// codes of every length (up to `u64::MAX - 1`) are equally likely.
fn gamma_value(rng: &mut StdRng) -> u64 {
    let len = rng.random_range(1u32..=64);
    let v = (1u64 << (len - 1)) | value_of_width(rng, len - 1);
    v.min(u64::MAX - 1)
}

/// Random bytes, dense or zero-heavy (long zero runs reach the gamma
/// decoder's 64-zero and `u32` overflow cases).
fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let zero_heavy = rng.random_bool(0.5);
    (0..len)
        .map(|_| match zero_heavy && rng.random_bool(0.9) {
            true => 0,
            false => rng.random::<u64>() as u8,
        })
        .collect()
}

/// Writes one random op to both writers.
fn write_random_op(rng: &mut StdRng, new: &mut BitWriter, old: &mut reference::Writer) {
    match rng.random_range(0u32..4) {
        0 => {
            let width = rng.random_range(0u32..=64);
            let v = value_of_width(rng, width);
            new.write_bits(v, width);
            old.write_bits(v, width);
        }
        1 => {
            let b = rng.random_bool(0.5);
            new.write_bool(b);
            old.write_bits(u64::from(b), 1);
        }
        2 => {
            let v = gamma_value(rng);
            new.write_gamma(v);
            old.write_gamma(v);
        }
        _ => {
            // Odd source offsets and lengths; the destination offset is
            // wherever the earlier ops left it.
            let len = rng.random_range(0usize..40);
            let src = random_bytes(rng, len);
            let total = src.len() as u64 * 8;
            let start = rng.random_range(0..=total);
            let len = rng.random_range(0..=total - start);
            new.write_raw(&src, start, len);
            old.write_raw(&src, start, len);
        }
    }
}

/// One random read on both readers; `false` once either returns `None`
/// (decoders stop there, so the cursor after a `None` is unspecified).
fn read_random_op(
    rng: &mut StdRng,
    new: &mut BitReader<'_>,
    old: &mut reference::Reader<'_>,
) -> bool {
    let (a, b) = match rng.random_range(0u32..5) {
        0 => {
            let width = rng.random_range(0u32..=64);
            (new.read_bits(width), old.read_bits(width))
        }
        1 => (new.read_bool().map(u64::from), old.read_bits(1)),
        2 => (new.read_gamma(), old.read_gamma()),
        3 => (
            new.read_gamma_u32().map(u64::from),
            old.read_gamma()
                .and_then(|v| u32::try_from(v).ok())
                .map(u64::from),
        ),
        _ => {
            let len = rng.random_range(0u64..200);
            let (a, b) = (new.read_raw(len), old.read_raw(len));
            assert_eq!(a, b, "read_raw({len})");
            (a.map(|_| 0), b.map(|_| 0))
        }
    };
    assert_eq!(a, b, "word reader and reference disagree");
    if a.is_some() {
        assert_eq!(new.consumed(), old.cursor, "cursor after a successful read");
    }
    a.is_some()
}

/// Random reads over `len_bits` of `bytes` on both readers.
fn reads_agree(rng: &mut StdRng, bytes: &[u8], len_bits: u64) {
    let mut new = BitReader::new(bytes, len_bits);
    let mut old = reference::Reader {
        bytes,
        len_bits,
        cursor: 0,
    };
    while read_random_op(rng, &mut new, &mut old) {}
}

/// Decodes `M` from `len_bits` of arbitrary bits: `None` or a value,
/// never a panic, never past the end.
fn decodes_or_rejects<M: WireCodec>(bytes: &[u8], len_bits: u64) {
    let mut r = BitReader::new(bytes, len_bits);
    if M::decode(&mut r).is_some() {
        assert!(r.consumed() <= len_bits);
    }
}

/// [`decodes_or_rejects`] on `m`'s encoding with `flips` random bit
/// flips, cut to a random length: corrupt input that still reaches the
/// decoder's deeper fields.
fn mangled<M: WireCodec>(rng: &mut StdRng, m: &M, flips: u32) {
    let (mut bytes, bits) = encode_to_bytes(m);
    for _ in 0..flips.min(bits as u32) {
        let at = rng.random_range(0..bits);
        bytes[(at / 8) as usize] ^= 1 << (at % 8);
    }
    let cut = rng.random_range(0..=bits);
    decodes_or_rejects::<M>(&bytes, cut);
}

fn roundtrip<M: WireCodec + PartialEq + std::fmt::Debug>(m: &M) {
    let (bytes, bits) = encode_to_bytes(m);
    assert_eq!(bits, m.encoded_bits(), "size honesty for {m:?}");
    let back: M = decode_from_bytes(&bytes, bits).unwrap_or_else(|| panic!("roundtrip of {m:?}"));
    assert_eq!(&back, m);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn u64_and_u32_roundtrip(v in 0u64..u64::MAX, w in 0u32..u32::MAX) {
        roundtrip(&v);
        roundtrip(&w);
        roundtrip(&(v, w));
    }

    #[test]
    fn node_ids_roundtrip_and_respect_bounds(n in 2u64..1 << 32, sel in 0u64..1 << 32) {
        let id = NodeId((sel % n) as u32);
        roundtrip(&id);
        prop_assert_eq!(id.encoded_bits(), gamma_bits(id.0 as u64));
    }

    #[test]
    fn options_and_vecs_roundtrip(items in proptest::collection::vec(0u64..1 << 48, 0..30), some in proptest::bool::ANY) {
        let opt = some.then(|| items.first().copied().unwrap_or(7));
        roundtrip(&opt);
        roundtrip(&items);
        let ids: Vec<NodeId> = items.iter().map(|&v| NodeId(v as u32)).collect();
        roundtrip(&ids);
        // Nested containers compose.
        roundtrip(&vec![items.clone(), Vec::new()]);
    }

    #[test]
    fn tuples_sum_their_parts(a in 0u64..1 << 60, b in 0u32..1 << 30, c in proptest::bool::ANY) {
        let m = (a, b, c);
        roundtrip(&m);
        prop_assert_eq!(m.encoded_bits(), a.encoded_bits() + b.encoded_bits() + 1);
        prop_assert_eq!(m.encoded_bits(), 64 + 32 + 1);
    }

    #[test]
    fn truncation_never_panics(items in proptest::collection::vec(0u64..1 << 20, 1..10), cut in 1u64..64) {
        let (bytes, bits) = encode_to_bytes(&items);
        let cut = cut.min(bits);
        prop_assert!(decode_from_bytes::<Vec<u64>>(&bytes, bits - cut).is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn word_writer_matches_the_bit_oracle(seed in 0u64..u64::MAX, ops in 1usize..48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut new = BitWriter::new();
        let mut old = reference::Writer::default();
        for _ in 0..ops {
            write_random_op(&mut rng, &mut new, &mut old);
            prop_assert_eq!(new.bits(), old.bits);
        }
        let (bytes, bits) = new.finish();
        prop_assert_eq!(bits, old.bits);
        prop_assert_eq!(bytes, old.bytes, "byte-identical finish()");
    }

    #[test]
    fn word_reader_matches_the_bit_oracle(seed in 0u64..u64::MAX, len in 0usize..48) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random buffers at every valid bit length, truncated ones
        // included.
        let bytes = random_bytes(&mut rng, len);
        let len_bits = rng.random_range(0..=bytes.len() as u64 * 8);
        reads_agree(&mut rng, &bytes, len_bits);
        // A written buffer read back field by field, then cut short.
        let mut w = BitWriter::new();
        let mut old = reference::Writer::default();
        let ops = rng.random_range(1usize..24);
        for _ in 0..ops {
            write_random_op(&mut rng, &mut w, &mut old);
        }
        let (bytes, bits) = w.finish();
        reads_agree(&mut rng, &bytes, bits);
        let cut = rng.random_range(0..=bits);
        reads_agree(&mut rng, &bytes, cut);
    }

    #[test]
    fn fields_read_back_as_written(seed in 0u64..u64::MAX, ops in 1usize..32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = BitWriter::new();
        let mut fields = Vec::new();
        for _ in 0..ops {
            let field = match rng.random_range(0u32..3) {
                0 => {
                    let width = rng.random_range(0u32..=64);
                    let v = value_of_width(&mut rng, width);
                    w.write_bits(v, width);
                    (0, v, width)
                }
                1 => {
                    let v = gamma_value(&mut rng);
                    w.write_gamma(v);
                    (1, v, 0)
                }
                _ => {
                    let b = rng.random_bool(0.5);
                    w.write_bool(b);
                    (2, u64::from(b), 1)
                }
            };
            fields.push(field);
        }
        let (bytes, bits) = w.finish();
        let mut r = BitReader::new(&bytes, bits);
        for (kind, v, width) in fields {
            let got = match kind {
                0 => r.read_bits(width),
                1 => r.read_gamma(),
                _ => r.read_bool().map(u64::from),
            };
            prop_assert_eq!(got, Some(v));
        }
        prop_assert!(r.is_exhausted());
    }

    #[test]
    fn generic_decoders_never_panic(seed in 0u64..u64::MAX, len in 0usize..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = random_bytes(&mut rng, len);
        let bits = rng.random_range(0..=bytes.len() as u64 * 8);
        decodes_or_rejects::<bool>(&bytes, bits);
        decodes_or_rejects::<u8>(&bytes, bits);
        decodes_or_rejects::<u16>(&bytes, bits);
        decodes_or_rejects::<u32>(&bytes, bits);
        decodes_or_rejects::<u64>(&bytes, bits);
        decodes_or_rejects::<NodeId>(&bytes, bits);
        decodes_or_rejects::<(u32, NodeId)>(&bytes, bits);
        decodes_or_rejects::<(u8, u16, NodeId)>(&bytes, bits);
        decodes_or_rejects::<Option<NodeId>>(&bytes, bits);
        decodes_or_rejects::<Vec<NodeId>>(&bytes, bits);
        decodes_or_rejects::<Vec<Vec<u32>>>(&bytes, bits);
        decodes_or_rejects::<Arc<Vec<u64>>>(&bytes, bits);
        mangled(&mut rng, &vec![vec![1u32, 2], vec![], vec![u32::MAX]], 2);
        mangled(&mut rng, &(Some(NodeId(7)), vec![NodeId(3)], 9u8), 1);
    }

    #[test]
    fn engine_wire_types_never_panic(seed in 0u64..u64::MAX, len in 0usize..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = random_bytes(&mut rng, len);
        let bits = rng.random_range(0..=bytes.len() as u64 * 8);
        decodes_or_rejects::<CongestChunk>(&bytes, bits);
        decodes_or_rejects::<OverlayEnvelope<u32>>(&bytes, bits);
        decodes_or_rejects::<OverlayEnvelope<Vec<NodeId>>>(&bytes, bits);
        decodes_or_rejects::<OverlayRelay<u8>>(&bytes, bits);
        decodes_or_rejects::<CenterMsg>(&bytes, bits);
        decodes_or_rejects::<BallMsg<u16>>(&bytes, bits);
        decodes_or_rejects::<ReachMsg<Option<u32>>>(&bytes, bits);
        // Corrupted real messages get past the first fields.
        let stream = rng.random_range(0u64..9);
        let chunks = Fragmenter::new(48).fragment(stream, &vec![5u32; 12]);
        for c in &chunks {
            mangled(&mut rng, c, 2);
        }
        let env = OverlayEnvelope {
            bcast: Some(Arc::new(vec![NodeId(1), NodeId(40)])),
            directed: vec![vec![NodeId(2)], Vec::new()],
        };
        mangled(&mut rng, &env, 2);
        let center = CenterMsg {
            probe_ttl: Some(3),
            items: vec![local_model::ball::CenterItem { id: 4, dist: 1, adj: vec![0, 9, 77] }],
        };
        mangled(&mut rng, &center, 2);
    }
}

#[test]
fn gamma_edge_cases_match_the_oracle() {
    // A run of 64 or more zeros, at every alignment; a gamma above
    // u32::MAX; the largest codable value.
    let mut w = BitWriter::new();
    w.write_bits(0b101, 3);
    w.write_gamma(u64::MAX - 1);
    w.write_gamma(u64::from(u32::MAX) + 1);
    w.write_gamma(u64::from(u32::MAX));
    let (bytes, bits) = w.finish();
    let mut r = BitReader::new(&bytes, bits);
    assert_eq!(r.read_bits(3), Some(0b101));
    assert_eq!(r.read_gamma(), Some(u64::MAX - 1));
    assert_eq!(r.read_gamma_u32(), None, "above u32::MAX");
    let mut r = BitReader::new(&bytes, bits);
    r.read_bits(3);
    r.read_gamma();
    assert_eq!(r.read_gamma(), Some(u64::from(u32::MAX) + 1));
    assert_eq!(r.read_gamma_u32(), Some(u32::MAX));
    assert!(r.is_exhausted());
    for lead in 0..8u32 {
        for run in [63u64, 64, 65, 100] {
            let mut w = BitWriter::new();
            w.write_bits(0, lead);
            w.write_raw(&[0u8; 16], 0, run);
            w.write_bool(true);
            w.write_bits(u64::MAX, 64);
            let (bytes, bits) = w.finish();
            let mut new = BitReader::new(&bytes, bits);
            new.read_bits(lead);
            let mut old = reference::Reader {
                bytes: &bytes,
                len_bits: bits,
                cursor: u64::from(lead),
            };
            let want = old.read_gamma();
            assert_eq!(new.read_gamma(), want, "lead {lead}, {run} zeros");
            if run >= 64 {
                assert_eq!(want, None, "64 zeros end no gamma code");
            }
        }
    }
}
