//! Wire-codec cost per bit: `WireCodec::encode`/`decode` through
//! `BitWriter`/`BitReader` over a corpus shaped like one workload's
//! messages. Every corpus is checked first: the round trip must give the
//! corpus back and the writer must hold exactly the bits `encoded_bits`
//! promised.

use crate::mix;
use delta_coloring::gallai::GallaiMsg;
use delta_coloring::ruling::RulingMsg;
use local_model::{BitReader, BitWriter, CongestChunk, Fragmenter, WireCodec};
use std::hint::black_box;
use std::time::Instant;

/// Messages per corpus.
const CORPUS_LEN: usize = 2048;
/// Minimum time spent timing each direction.
const MIN_TIMING_S: f64 = 0.25;

pub struct CodecCost {
    pub encode_ns_per_bit: f64,
    pub decode_ns_per_bit: f64,
}

/// The F8 recolor broadcasts.
pub fn u8_corpus(seed: u64) -> Vec<u8> {
    (0..CORPUS_LEN as u64 * 16)
        .map(|i| (mix(seed, i) % 5) as u8)
        .collect()
}

/// `RulingMsg::Relay` id vectors of the G^k flood: up to 512 ids below `n`.
pub fn relay_corpus(seed: u64, n: u64) -> Vec<RulingMsg> {
    (0..CORPUS_LEN as u64)
        .map(|i| {
            let len = 1 + mix(seed, i) % 512;
            RulingMsg::Relay((0..len).map(|j| (mix(seed ^ i, j) % n) as u32).collect())
        })
        .collect()
}

/// DCC-detection certificate floods: up to 32 edges between ids below `n`.
pub fn gallai_corpus(seed: u64, n: u64) -> Vec<GallaiMsg> {
    (0..CORPUS_LEN as u64)
        .map(|i| {
            let len = 1 + mix(seed, i) % 32;
            GallaiMsg::BallEdges(
                (0..len)
                    .map(|j| {
                        let a = (mix(seed ^ i, 2 * j) % n) as u32;
                        let b = (mix(seed ^ i, 2 * j + 1) % n) as u32;
                        (a.min(b), a.max(b))
                    })
                    .collect(),
            )
        })
        .collect()
}

/// The chunks the congest layer puts on `budget`-bit wires for the
/// certificate corpus.
pub fn chunk_corpus(seed: u64, n: u64, budget: u64) -> Vec<CongestChunk> {
    let frag = Fragmenter::new(budget);
    gallai_corpus(seed, n)
        .iter()
        .enumerate()
        .flat_map(|(i, m)| frag.fragment(i as u64 % 8, m))
        .collect()
}

fn encode_all<M: WireCodec>(corpus: &[M]) -> (Vec<u8>, u64) {
    let mut w = BitWriter::new();
    for m in corpus {
        m.encode(&mut w);
    }
    w.finish()
}

fn decode_all<M: WireCodec>(bytes: &[u8], bits: u64, count: usize) -> Option<Vec<M>> {
    let mut r = BitReader::new(bytes, bits);
    let out = (0..count)
        .map(|_| M::decode(&mut r))
        .collect::<Option<Vec<M>>>()?;
    r.is_exhausted().then_some(out)
}

/// Median nanoseconds of `f` over repetitions filling `MIN_TIMING_S`.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < MIN_TIMING_S {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    crate::median(&mut samples)
}

/// Checks the corpus round trip, then times both directions.
pub fn measure<M: WireCodec + PartialEq>(corpus: &[M]) -> Result<CodecCost, String> {
    let expect: u64 = corpus.iter().map(WireCodec::encoded_bits).sum();
    let (bytes, bits) = encode_all(corpus);
    if bits != expect {
        return Err(format!(
            "codec wrote {bits} bits, encoded_bits promised {expect}"
        ));
    }
    match decode_all::<M>(&bytes, bits, corpus.len()) {
        Some(back) if back == corpus => {}
        _ => return Err("codec round trip changed the corpus".into()),
    }
    let enc = median_ns(|| {
        black_box(encode_all(black_box(corpus)));
    });
    let dec = median_ns(|| {
        black_box(decode_all::<M>(black_box(&bytes), bits, corpus.len()));
    });
    Ok(CodecCost {
        encode_ns_per_bit: enc / bits as f64,
        decode_ns_per_bit: dec / bits as f64,
    })
}
