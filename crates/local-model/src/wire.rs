//! Wire-format codecs: bit-exact message encodings for CONGEST-style
//! bandwidth accounting.
//!
//! The LOCAL model places no bound on message size; the CONGEST model
//! (and the KMW lower-bound setting) restricts every edge to `O(log n)`
//! bits per round. To tell which of our protocol substrates are already
//! CONGEST-feasible, every message type the engine carries implements
//! [`WireCodec`]: a bit-exact encoding ([`WireCodec::encode`] /
//! [`WireCodec::decode`]), its exact size ([`WireCodec::encoded_bits`],
//! cheap and allocation-free — the engine charges it on the routing hot
//! path without ever serializing), and a static per-message upper bound
//! [`WireCodec::max_bits`] in terms of the graph parameters
//! ([`WireParams`]); `None` means the message family is unbounded
//! (ball/flood payloads), i.e. LOCAL-only.
//!
//! Unbounded-domain integers (identifiers, colors, lengths) use the
//! self-delimiting **Elias gamma** code — `2⌊log₂(v+1)⌋ + 1` bits — so
//! message sizes shrink with the values actually sent and no codec needs
//! side-channel width information to decode. Fixed-domain fields
//! (random 64-bit draws, fixed-point keys) use fixed widths.

use delta_graphs::{Graph, NodeId};

/// Graph parameters a [`WireCodec::max_bits`] bound may depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireParams {
    /// Number of nodes (identifiers are `< n`).
    pub n: u64,
    /// Maximum degree Δ.
    pub max_degree: u64,
    /// Number of colors in play (palette size / current color count).
    pub palette: u64,
}

impl WireParams {
    /// Parameters of `g` with the default Δ+1 palette.
    pub fn of(g: &Graph) -> Self {
        WireParams {
            n: g.n() as u64,
            max_degree: g.max_degree() as u64,
            palette: g.max_degree() as u64 + 1,
        }
    }

    /// Replaces the palette size (builder style).
    pub fn with_palette(mut self, palette: u64) -> Self {
        self.palette = palette;
        self
    }
}

/// Number of bits of the Elias gamma code of `v`.
#[inline]
pub fn gamma_bits(v: u64) -> u64 {
    debug_assert!(v < u64::MAX, "gamma codes values below u64::MAX");
    2 * (64 - (v + 1).leading_zeros() as u64) - 1
}

/// Upper bound on [`gamma_bits`] over all values `< count` (at least 1,
/// so the bound is meaningful even for singleton domains).
#[inline]
pub fn gamma_max_bits(count: u64) -> u64 {
    gamma_bits(count.saturating_sub(1))
}

/// The operational "O(log n)" per-edge-per-round budget against which
/// wire formats and measured per-edge loads count as CONGEST-feasible:
/// `16·⌈log₂ n⌉` bits. The
/// constant is generous enough for a constant number of gamma-coded
/// identifiers/colors plus a poly(n)-domain random draw, and far below
/// the Θ(Δ log n) a broadcast-everything LOCAL round may need.
#[inline]
pub fn congest_budget(n: u64) -> u64 {
    let n = n.max(2);
    16 * (64 - (n - 1).leading_zeros() as u64)
}

/// Bit-level output buffer for [`WireCodec::encode`].
///
/// Bits are appended LSB-first into a byte buffer; [`BitWriter::bits`]
/// reports the exact number written, which codecs' `encoded_bits` must
/// match (enforced by the roundtrip test suites).
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bits: u64,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Appends the low `width` bits of `value`, LSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` has bits above `width`.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} exceeds u64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
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

    /// Appends one bit.
    pub fn write_bool(&mut self, b: bool) {
        self.write_bits(b as u64, 1);
    }

    /// Appends the Elias gamma code of `v` (see [`gamma_bits`]).
    pub fn write_gamma(&mut self, v: u64) {
        let w = v + 1;
        let k = 64 - w.leading_zeros(); // bit length of v + 1
        self.write_bits(0, k - 1); // k-1 zeros
                                   // w's k bits, MSB first (the leading 1 terminates the zero run).
        for i in (0..k).rev() {
            self.write_bits((w >> i) & 1, 1);
        }
    }

    /// Appends `len_bits` bits copied verbatim from `bytes`, starting at
    /// bit offset `start_bit` (LSB-first addressing, matching the
    /// writer's own layout). The bulk path behind chunk fragmentation
    /// and reassembly ([`crate::congest`]): payload bits move between
    /// buffers without a per-field re-encode.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `start_bit + len_bits` bits.
    pub fn write_raw(&mut self, bytes: &[u8], start_bit: u64, len_bits: u64) {
        assert!(
            start_bit + len_bits <= bytes.len() as u64 * 8,
            "raw copy of {len_bits} bits at offset {start_bit} overruns the source"
        );
        let mut done = 0u64;
        while done < len_bits {
            let take = (len_bits - done).min(64) as u32;
            let mut word = 0u64;
            for i in 0..take {
                let at = start_bit + done + u64::from(i);
                let bit = (bytes[(at / 8) as usize] >> (at % 8)) & 1;
                word |= u64::from(bit) << i;
            }
            self.write_bits(word, take);
            done += u64::from(take);
        }
    }

    /// The written bytes (last byte zero-padded) and the exact bit count.
    pub fn finish(self) -> (Vec<u8>, u64) {
        (self.bytes, self.bits)
    }
}

/// Bit-level cursor over an encoded buffer for [`WireCodec::decode`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Total valid bits (excludes the final byte's zero padding).
    len_bits: u64,
    cursor: u64,
}

impl<'a> BitReader<'a> {
    /// A reader over `len_bits` valid bits of `bytes`.
    pub fn new(bytes: &'a [u8], len_bits: u64) -> Self {
        debug_assert!(len_bits <= bytes.len() as u64 * 8);
        BitReader {
            bytes,
            len_bits,
            cursor: 0,
        }
    }

    /// Bits consumed so far.
    pub fn consumed(&self) -> u64 {
        self.cursor
    }

    /// Whether every valid bit has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.cursor == self.len_bits
    }

    /// Reads `width` bits (LSB-first); `None` past the end.
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

    /// Reads one bit.
    pub fn read_bool(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b == 1)
    }

    /// Reads `len_bits` bits verbatim into a fresh buffer (LSB-first
    /// layout, zero-padded final byte); `None` past the end. Inverse of
    /// [`BitWriter::write_raw`] for chunk-payload extraction.
    pub fn read_raw(&mut self, len_bits: u64) -> Option<Vec<u8>> {
        if len_bits > self.len_bits - self.cursor {
            return None;
        }
        let mut w = BitWriter::new();
        let mut done = 0u64;
        while done < len_bits {
            let take = (len_bits - done).min(64) as u32;
            w.write_bits(self.read_bits(take)?, take);
            done += u64::from(take);
        }
        let (bytes, bits) = w.finish();
        debug_assert_eq!(bits, len_bits);
        Some(bytes)
    }

    /// Reads one Elias gamma code.
    pub fn read_gamma(&mut self) -> Option<u64> {
        let mut zeros = 0u32;
        while self.read_bits(1)? == 0 {
            zeros += 1;
            if zeros >= 64 {
                return None; // corrupt: no terminating 1 within range
            }
        }
        // The 1 just consumed is w's MSB; read the remaining `zeros` bits.
        let mut w = 1u64;
        for _ in 0..zeros {
            w = (w << 1) | self.read_bits(1)?;
        }
        Some(w - 1)
    }

    /// Reads one Elias gamma code that must fit a `u32` (ids, TTLs,
    /// distances): `None` above `u32::MAX` instead of truncating.
    pub fn read_gamma_u32(&mut self) -> Option<u32> {
        u32::try_from(self.read_gamma()?).ok()
    }
}

/// A bit-exact wire format for a protocol message.
///
/// Laws (enforced by the proptest suites):
///
/// * roundtrip — `decode(encode(m)) == Some(m)` consuming exactly
///   `encoded_bits(m)` bits;
/// * size honesty — `encode` writes exactly `encoded_bits(m)` bits;
/// * bound soundness — for every message the protocol can legally send
///   on a graph with parameters `p`, `encoded_bits(m) <= max_bits(p)`
///   whenever `max_bits(p)` is `Some`.
///
/// `encoded_bits` must be cheap and **allocation-free**: the engine
/// calls it for every queued message during the routing pass (the wire
/// bytes themselves are never materialized during simulation).
pub trait WireCodec: Sized {
    /// Appends the message's wire representation to `w`.
    fn encode(&self, w: &mut BitWriter);

    /// Decodes one message from `r`; `None` on truncation/corruption.
    fn decode(r: &mut BitReader<'_>) -> Option<Self>;

    /// Exact number of bits [`WireCodec::encode`] writes for `self`.
    fn encoded_bits(&self) -> u64;

    /// Static per-message bound for a graph with parameters `p`, or
    /// `None` when the message family is unbounded (LOCAL-only).
    fn max_bits(p: &WireParams) -> Option<u64>;
}

impl WireCodec for () {
    fn encode(&self, _w: &mut BitWriter) {}
    fn decode(_r: &mut BitReader<'_>) -> Option<Self> {
        Some(())
    }
    fn encoded_bits(&self) -> u64 {
        0
    }
    fn max_bits(_p: &WireParams) -> Option<u64> {
        Some(0)
    }
}

impl WireCodec for bool {
    fn encode(&self, w: &mut BitWriter) {
        w.write_bool(*self);
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        r.read_bool()
    }
    fn encoded_bits(&self) -> u64 {
        1
    }
    fn max_bits(_p: &WireParams) -> Option<u64> {
        Some(1)
    }
}

macro_rules! impl_fixed_width {
    ($($t:ty => $w:expr),*) => {$(
        impl WireCodec for $t {
            fn encode(&self, w: &mut BitWriter) {
                w.write_bits(*self as u64, $w);
            }
            fn decode(r: &mut BitReader<'_>) -> Option<Self> {
                r.read_bits($w).map(|v| v as $t)
            }
            fn encoded_bits(&self) -> u64 {
                $w
            }
            fn max_bits(_p: &WireParams) -> Option<u64> {
                Some($w)
            }
        }
    )*};
}

impl_fixed_width!(u8 => 8, u16 => 16, u32 => 32, u64 => 64);

/// Node identifiers travel gamma-coded: `O(log n)` bits, tighter for
/// small ids.
impl WireCodec for NodeId {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.0 as u64);
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        r.read_gamma_u32().map(NodeId)
    }
    fn encoded_bits(&self) -> u64 {
        gamma_bits(self.0 as u64)
    }
    fn max_bits(p: &WireParams) -> Option<u64> {
        Some(gamma_max_bits(p.n))
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, w: &mut BitWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?))
    }
    fn encoded_bits(&self) -> u64 {
        self.0.encoded_bits() + self.1.encoded_bits()
    }
    fn max_bits(p: &WireParams) -> Option<u64> {
        Some(A::max_bits(p)? + B::max_bits(p)?)
    }
}

impl<A: WireCodec, B: WireCodec, C: WireCodec> WireCodec for (A, B, C) {
    fn encode(&self, w: &mut BitWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
    fn encoded_bits(&self) -> u64 {
        self.0.encoded_bits() + self.1.encoded_bits() + self.2.encoded_bits()
    }
    fn max_bits(p: &WireParams) -> Option<u64> {
        Some(A::max_bits(p)? + B::max_bits(p)? + C::max_bits(p)?)
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            None => w.write_bool(false),
            Some(t) => {
                w.write_bool(true);
                t.encode(w);
            }
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        match r.read_bool()? {
            false => Some(None),
            true => T::decode(r).map(Some),
        }
    }
    fn encoded_bits(&self) -> u64 {
        1 + self.as_ref().map_or(0, WireCodec::encoded_bits)
    }
    fn max_bits(p: &WireParams) -> Option<u64> {
        Some(1 + T::max_bits(p)?)
    }
}

/// Length-prefixed sequence: unbounded, hence LOCAL-only
/// (`max_bits` is `None`).
impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.len() as u64);
        for t in self {
            t.encode(w);
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        let len = r.read_gamma()?;
        // A truncated buffer cannot hold len more items of >= 0 bits
        // each; per-item decode detects the underflow.
        let mut out = Vec::with_capacity(len.min(1 << 20) as usize);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Some(out)
    }
    fn encoded_bits(&self) -> u64 {
        gamma_bits(self.len() as u64) + self.iter().map(WireCodec::encoded_bits).sum::<u64>()
    }
    fn max_bits(_p: &WireParams) -> Option<u64> {
        None
    }
}

/// An `Arc`'d payload is transparent on the wire: sharing is a local
/// memory optimization (the overlay relay interns each origin's payload
/// once and forwards refcount bumps), never a protocol feature, so the
/// encoding — and every charged bit — is exactly the inner value's.
impl<T: WireCodec> WireCodec for std::sync::Arc<T> {
    fn encode(&self, w: &mut BitWriter) {
        (**self).encode(w);
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        T::decode(r).map(std::sync::Arc::new)
    }
    fn encoded_bits(&self) -> u64 {
        (**self).encoded_bits()
    }
    fn max_bits(p: &WireParams) -> Option<u64> {
        T::max_bits(p)
    }
}

/// Writes a gamma-coded `u32` sequence (gamma length prefix + gamma
/// items) — the shared wire shape of id lists (floods, relays, ball
/// edge endpoints).
pub fn write_gamma_u32s(w: &mut BitWriter, items: &[u32]) {
    w.write_gamma(items.len() as u64);
    for &v in items {
        w.write_gamma(v as u64);
    }
}

/// Reads a sequence written by [`write_gamma_u32s`].
pub fn read_gamma_u32s(r: &mut BitReader<'_>) -> Option<Vec<u32>> {
    let len = r.read_gamma()?;
    // A truncated buffer cannot hold `len` more items; the per-item
    // decode detects the underflow, the clamp only bounds the
    // speculative pre-allocation on corrupt input.
    let mut out = Vec::with_capacity(len.min(1 << 20) as usize);
    for _ in 0..len {
        out.push(r.read_gamma_u32()?);
    }
    Some(out)
}

/// Exact bit count of [`write_gamma_u32s`] (allocation-free).
pub fn gamma_u32s_bits(items: &[u32]) -> u64 {
    gamma_bits(items.len() as u64) + items.iter().map(|&v| gamma_bits(v as u64)).sum::<u64>()
}

/// Encodes `m` into its wire bytes (test/tooling helper; the simulation
/// hot path never calls this).
pub fn encode_to_bytes<M: WireCodec>(m: &M) -> (Vec<u8>, u64) {
    let mut w = BitWriter::new();
    m.encode(&mut w);
    w.finish()
}

/// Decodes one `M` from `bytes`/`len_bits`, requiring full consumption.
pub fn decode_from_bytes<M: WireCodec>(bytes: &[u8], len_bits: u64) -> Option<M> {
    let mut r = BitReader::new(bytes, len_bits);
    let m = M::decode(&mut r)?;
    r.is_exhausted().then_some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: WireCodec + PartialEq + std::fmt::Debug>(m: M) {
        let (bytes, bits) = encode_to_bytes(&m);
        assert_eq!(bits, m.encoded_bits(), "size honesty for {m:?}");
        let back: M = decode_from_bytes(&bytes, bits).expect("roundtrip");
        assert_eq!(back, m);
    }

    #[test]
    fn gamma_code_known_values() {
        assert_eq!(gamma_bits(0), 1);
        assert_eq!(gamma_bits(1), 3);
        assert_eq!(gamma_bits(2), 3);
        assert_eq!(gamma_bits(3), 5);
        assert_eq!(gamma_bits(6), 5);
        assert_eq!(gamma_bits(7), 7);
        let mut w = BitWriter::new();
        for v in [0u64, 1, 2, 3, 100, 1 << 40] {
            w.write_gamma(v);
        }
        let (bytes, bits) = w.finish();
        let mut r = BitReader::new(&bytes, bits);
        for v in [0u64, 1, 2, 3, 100, 1 << 40] {
            assert_eq!(r.read_gamma(), Some(v));
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(());
        roundtrip(true);
        roundtrip(false);
        roundtrip(0xabu8);
        roundtrip(0xabcdu16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(NodeId(0));
        roundtrip(NodeId(u32::MAX - 1));
        roundtrip((7u32, NodeId(3)));
        roundtrip((1u8, 2u16, NodeId(9)));
        roundtrip(Some(NodeId(5)));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![NodeId(1), NodeId(999), NodeId(0)]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![vec![1u32, 2], vec![], vec![3]]);
    }

    #[test]
    fn truncated_buffers_fail_cleanly() {
        let (bytes, bits) = encode_to_bytes(&vec![1u64, 2, 3]);
        assert!(decode_from_bytes::<Vec<u64>>(&bytes, bits - 1).is_none());
        assert!(decode_from_bytes::<u64>(&[], 0).is_none());
        // All-zero bits: gamma never terminates.
        assert!(decode_from_bytes::<NodeId>(&[0u8; 16], 128).is_none());
    }

    #[test]
    fn bounds_are_sound_for_ids() {
        let p = WireParams {
            n: 1 << 14,
            max_degree: 4,
            palette: 5,
        };
        let bound = NodeId::max_bits(&p).unwrap();
        for id in [0u32, 1, (1 << 14) - 1] {
            assert!(NodeId(id).encoded_bits() <= bound);
        }
        assert!(Vec::<NodeId>::max_bits(&p).is_none());
        assert_eq!(<()>::max_bits(&p), Some(0));
    }

    #[test]
    fn congest_budget_is_16_log_n() {
        assert_eq!(congest_budget(2), 16);
        assert_eq!(congest_budget(1 << 10), 160);
        assert_eq!(congest_budget((1 << 10) + 1), 176);
        assert_eq!(congest_budget(1 << 20), 320);
        // Degenerate graphs still get a positive budget.
        assert_eq!(congest_budget(0), 16);
        assert_eq!(congest_budget(1), 16);
    }

    #[test]
    fn raw_copy_roundtrips_at_odd_offsets() {
        // Build a source buffer with a known bit pattern, then copy an
        // unaligned slice of it through write_raw/read_raw and check the
        // bits survive verbatim.
        let mut src = BitWriter::new();
        src.write_bits(0b101, 3);
        src.write_gamma(977);
        src.write_bits(0xdead_beef_cafe, 48);
        let (bytes, bits) = src.finish();
        for (start, len) in [(0, bits), (3, bits - 3), (5, 17), (7, 0), (1, 64)] {
            let mut w = BitWriter::new();
            w.write_bits(0b11, 2); // misalign the destination too
            w.write_raw(&bytes, start, len);
            assert_eq!(w.bits(), 2 + len, "size honesty of write_raw");
            let (out, out_bits) = w.finish();
            let mut r = BitReader::new(&out, out_bits);
            assert_eq!(r.read_bits(2), Some(0b11));
            let copied = r.read_raw(len).expect("in range");
            for i in 0..len {
                let want = (bytes[((start + i) / 8) as usize] >> ((start + i) % 8)) & 1;
                let got = (copied[(i / 8) as usize] >> (i % 8)) & 1;
                assert_eq!(got, want, "bit {i} of ({start}, {len})");
            }
            assert!(r.is_exhausted());
        }
        // Overrun is a clean None on the reader side.
        let mut r = BitReader::new(&bytes, bits);
        assert!(r.read_raw(bits + 1).is_none());
    }

    #[test]
    fn writer_reader_mixed_fields() {
        let mut w = BitWriter::new();
        w.write_bool(true);
        w.write_bits(0b1011, 4);
        w.write_gamma(41);
        w.write_bits(u64::MAX, 64);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 1 + 4 + gamma_bits(41) + 64);
        let mut r = BitReader::new(&bytes, bits);
        assert_eq!(r.read_bool(), Some(true));
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_gamma(), Some(41));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert!(r.is_exhausted());
        assert!(r.read_bits(1).is_none());
    }
}
