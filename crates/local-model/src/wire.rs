//! Wire-format codecs: bit-exact message encodings for CONGEST-style
//! bandwidth accounting.
//!
//! The LOCAL model places no bound on message size; the CONGEST model
//! (and the KMW lower-bound setting) restricts every edge to `O(log n)`
//! bits per round. To tell which of our protocol substrates are already
//! CONGEST-feasible, every message type the engine carries implements
//! [`WireCodec`]: a bit-exact encoding ([`WireCodec::encode`] /
//! [`WireCodec::decode`]) and its exact size
//! ([`WireCodec::encoded_bits`], cheap and allocation-free — the engine
//! charges it on the routing hot path without ever serializing). Whether
//! a substrate fits is measured, not declared: the ledger keeps the
//! heaviest per-edge load the engine charged (`max_edge_bits`), and
//! [`crate::congest`] runs a program on budgeted wires.
//!
//! Unbounded-domain integers (identifiers, colors, lengths) use the
//! self-delimiting **Elias gamma** code — `2⌊log₂(v+1)⌋ + 1` bits — so
//! message sizes shrink with the values actually sent and no codec needs
//! side-channel width information to decode. Fixed-domain fields
//! (random 64-bit draws, fixed-point keys) use fixed widths.
//!
//! # Layout and kernel
//!
//! Bits are packed LSB-first: bit `i` of a stream is bit `i % 8` of
//! byte `i / 8`, and the last byte is zero-padded. A field's bits follow
//! the same order, so a `width`-bit value is its low bits in stream
//! order, and a gamma code is `k - 1` zeros followed by `v + 1`'s `k`
//! bits from the most significant down. [`BitWriter`] and [`BitReader`]
//! move whole words over this layout: a write shifts the field into
//! place, ORs it into the partial last byte and appends the rest in one
//! copy; a read loads one little-endian word at the cursor and shifts
//! it; gamma codes are found with `trailing_zeros` and turned around
//! with `reverse_bits`; raw payload copies are byte copies when both
//! sides are byte-aligned, 56-bit words otherwise. The per-bit codec
//! this replaced is kept as the oracle of the `wire_roundtrip` tests,
//! which pin byte-identical output and identical `None` cases.

use delta_graphs::NodeId;

/// Number of bits of the Elias gamma code of `v`.
#[inline]
pub fn gamma_bits(v: u64) -> u64 {
    debug_assert!(v < u64::MAX, "gamma codes values below u64::MAX");
    2 * (64 - (v + 1).leading_zeros() as u64) - 1
}

/// The operational "O(log n)" per-edge-per-round budget against which
/// measured per-edge loads count as CONGEST-feasible:
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
/// Bits are appended LSB-first into a byte buffer whose last byte is
/// zero-padded; [`BitWriter::bits`] reports the exact number written,
/// which codecs' `encoded_bits` must match (enforced by the roundtrip
/// test suites). Writes move whole words: a field is shifted into place,
/// ORed into the partial last byte, and the rest of its bytes are
/// appended in one copy.
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

    /// An empty writer with room for `bits` bits: a caller that knows
    /// the exact size ([`WireCodec::encoded_bits`]) never reallocates.
    pub(crate) fn with_capacity(bits: u64) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bits.div_ceil(8) as usize),
            bits: 0,
        }
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
        self.push(value, width);
    }

    /// [`BitWriter::write_bits`] for a `value` already known to fit.
    #[inline]
    fn push(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64 && (width == 64 || value >> width == 0));
        let pos = (self.bits % 8) as u32;
        let word = (u128::from(value) << pos).to_le_bytes();
        let end = (pos + width).div_ceil(8) as usize;
        if pos == 0 {
            self.bytes.extend_from_slice(&word[..end]);
        } else {
            *self.bytes.last_mut().expect("a partial byte is pending") |= word[0];
            self.bytes.extend_from_slice(&word[1..end]);
        }
        self.bits += u64::from(width);
    }

    /// Appends one bit.
    pub fn write_bool(&mut self, b: bool) {
        self.push(u64::from(b), 1);
    }

    /// Appends the Elias gamma code of `v` (see [`gamma_bits`]).
    ///
    /// # Panics
    ///
    /// Panics if `v == u64::MAX`, which has no 64-bit gamma code.
    pub fn write_gamma(&mut self, v: u64) {
        let w = v.checked_add(1).expect("gamma codes values below u64::MAX");
        // w = v + 1 has k bits; the code is k-1 zeros, then w's k bits
        // MSB first (the leading 1 ends the zero run): LSB-first, that
        // is w bit-reversed after the run.
        let k = 64 - w.leading_zeros();
        let reversed = w.reverse_bits() >> (64 - k);
        if k <= 32 {
            self.push(reversed << (k - 1), 2 * k - 1);
        } else {
            self.push(0, k - 1);
            self.push(reversed, k);
        }
    }

    /// Appends `len_bits` bits copied verbatim from `bytes`, starting at
    /// bit offset `start_bit` (LSB-first addressing, matching the
    /// writer's own layout). The bulk path behind chunk fragmentation
    /// and reassembly ([`crate::congest`]): payload bits move between
    /// buffers without a per-field re-encode — as one byte copy when
    /// source and writer are both byte-aligned, else in 56-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `start_bit + len_bits` bits.
    pub fn write_raw(&mut self, bytes: &[u8], start_bit: u64, len_bits: u64) {
        assert!(
            start_bit + len_bits <= bytes.len() as u64 * 8,
            "raw copy of {len_bits} bits at offset {start_bit} overruns the source"
        );
        // Exactly the bytes this copy ends at, reserved once.
        self.bytes
            .reserve((self.bits + len_bits).div_ceil(8) as usize - self.bytes.len());
        if start_bit.is_multiple_of(8) && self.bits.is_multiple_of(8) {
            let from = (start_bit / 8) as usize;
            let whole = (len_bits / 8) as usize;
            self.bytes.extend_from_slice(&bytes[from..from + whole]);
            self.bits += 8 * whole as u64;
            let tail = (len_bits % 8) as u32;
            if tail > 0 {
                self.push(low_bits(u64::from(bytes[from + whole]), tail), tail);
            }
            return;
        }
        let end = start_bit + len_bits;
        let mut at = start_bit;
        while at < end {
            let take = (end - at).min(56) as u32;
            self.push(load_bits(bytes, at, take), take);
            at += u64::from(take);
        }
    }

    /// The written bytes (last byte zero-padded) and the exact bit count.
    pub fn finish(self) -> (Vec<u8>, u64) {
        (self.bytes, self.bits)
    }
}

/// The low `width` (1..=64) bits of `v`.
#[inline]
fn low_bits(v: u64, width: u32) -> u64 {
    v & (u64::MAX >> (64 - width))
}

/// The little-endian word starting at byte `i`, zero-filled past the
/// end of `bytes`.
#[inline]
fn load_word(bytes: &[u8], i: usize) -> u64 {
    match bytes.get(i..i + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
        None => {
            let tail = bytes.get(i..).unwrap_or_default();
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(word)
        }
    }
}

/// The `width` (0..=64) bits of `bytes` starting at bit `at`, which must
/// lie inside `bytes`.
#[inline]
fn load_bits(bytes: &[u8], at: u64, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let i = (at / 8) as usize;
    let shift = (at % 8) as u32;
    let mut v = load_word(bytes, i) >> shift;
    if shift + width > 64 {
        v |= u64::from(bytes[i + 8]) << (64 - shift);
    }
    low_bits(v, width)
}

/// Bit-level cursor over an encoded buffer for [`WireCodec::decode`].
/// Reads load one little-endian word at the cursor and shift it.
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

    /// Valid bits not yet consumed.
    fn left(&self) -> u64 {
        self.len_bits - self.cursor
    }

    /// How many of `len` items still to be decoded to reserve room for:
    /// `len`, capped at the unread bits. The hint is exact for items of
    /// at least one bit, and a corrupt length prefix cannot reserve more
    /// items than the buffer could still hold.
    pub fn capacity_hint(&self, len: u64) -> usize {
        len.min(self.left()) as usize
    }

    /// Reads `width` bits (LSB-first); `None` past the end.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_bits(&mut self, width: u32) -> Option<u64> {
        assert!(width <= 64, "width {width} exceeds u64");
        if u64::from(width) > self.left() {
            return None;
        }
        let v = load_bits(self.bytes, self.cursor, width);
        self.cursor += u64::from(width);
        Some(v)
    }

    /// Reads one bit.
    pub fn read_bool(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b == 1)
    }

    /// Reads `len_bits` bits verbatim into a fresh buffer (LSB-first
    /// layout, zero-padded final byte); `None` past the end. Inverse of
    /// [`BitWriter::write_raw`] for chunk-payload extraction.
    pub fn read_raw(&mut self, len_bits: u64) -> Option<Vec<u8>> {
        if len_bits > self.left() {
            return None;
        }
        let mut w = BitWriter::with_capacity(len_bits);
        w.write_raw(self.bytes, self.cursor, len_bits);
        self.cursor += len_bits;
        Some(w.bytes)
    }

    /// Reads one Elias gamma code: `None` past the end or on a run of
    /// 64 zeros, which no value below `u64::MAX` produces.
    pub fn read_gamma(&mut self) -> Option<u64> {
        let window = self.left().min(64) as u32;
        let zeros = load_bits(self.bytes, self.cursor, window).trailing_zeros();
        if zeros >= window || 2 * u64::from(zeros) + 1 > self.left() {
            return None; // no terminating 1 in range, or a truncated tail
        }
        // The 1 ends the run and is w's MSB; the next `zeros` bits are
        // the rest of w, MSB first.
        let rest = load_bits(self.bytes, self.cursor + u64::from(zeros) + 1, zeros);
        self.cursor += 2 * u64::from(zeros) + 1;
        let low = match zeros {
            0 => 0,
            z => rest.reverse_bits() >> (64 - z),
        };
        Some(((1u64 << zeros) | low) - 1)
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
/// * size honesty — `encode` writes exactly `encoded_bits(m)` bits.
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
}

impl WireCodec for () {
    fn encode(&self, _w: &mut BitWriter) {}
    fn decode(_r: &mut BitReader<'_>) -> Option<Self> {
        Some(())
    }
    fn encoded_bits(&self) -> u64 {
        0
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
}

/// Length-prefixed sequence: a gamma-coded length, then the items.
impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.len() as u64);
        for t in self {
            t.encode(w);
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        let len = r.read_gamma()?;
        let mut out = Vec::with_capacity(r.capacity_hint(len));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Some(out)
    }
    fn encoded_bits(&self) -> u64 {
        gamma_bits(self.len() as u64) + self.iter().map(WireCodec::encoded_bits).sum::<u64>()
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
    let mut out = Vec::with_capacity(r.capacity_hint(len));
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

    /// Counts the bytes each thread allocates, so a test can bound what
    /// one call reserves while other tests run on their own threads.
    struct ThreadCountingAlloc;

    thread_local! {
        static ALLOCATED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn count(bytes: usize) {
        // `try_with`: a thread being torn down may still free and
        // allocate after its locals are gone.
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

        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            count(new_size);
            // SAFETY: the caller's `realloc` contract, passed on as is.
            unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

    /// `f()` and the bytes this thread allocated while running it.
    fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = ALLOCATED.with(std::cell::Cell::get);
        let out = f();
        (out, ALLOCATED.with(std::cell::Cell::get) - before)
    }

    #[test]
    fn corrupt_length_prefixes_reserve_at_most_the_bits_left() {
        use crate::ball::{BallMsg, CenterMsg, ReachBatch, ReachMsg};
        use crate::overlay::{OverlayEnvelope, OverlayRelay};
        /// Decodes a gamma length of 2^20 items with no item after it
        /// (41 bits), behind a `false` flag bit when `flag`: a bit
        /// flip's view of a short message.
        fn rejects_cheaply<T>(name: &str, flag: bool, decode: fn(&mut BitReader<'_>) -> Option<T>) {
            let mut w = BitWriter::new();
            if flag {
                w.write_bool(false);
            }
            w.write_gamma(1 << 20);
            let (bytes, bits) = w.finish();
            assert_eq!(bits, 41 + u64::from(flag));
            let (rejected, reserved) =
                allocated_by(|| decode(&mut BitReader::new(&bytes, bits)).is_none());
            assert!(rejected, "{name} decoded a truncated sequence");
            assert!(reserved <= 1024, "{name} reserved {reserved} bytes");
        }
        rejects_cheaply("Vec<Vec<u32>>", false, Vec::<Vec<u32>>::decode);
        rejects_cheaply("read_gamma_u32s", false, read_gamma_u32s);
        rejects_cheaply("OverlayEnvelope", true, OverlayEnvelope::<u32>::decode);
        rejects_cheaply("OverlayRelay", false, OverlayRelay::<u32>::decode);
        rejects_cheaply("BallMsg", false, BallMsg::<u32>::decode);
        rejects_cheaply("ReachMsg", false, ReachMsg::<u32>::decode);
        rejects_cheaply("ReachBatch", false, ReachBatch::<u32, ()>::decode);
        rejects_cheaply("CenterMsg", true, CenterMsg::decode);
    }
}
