//! Linial's `O(Δ²)` coloring in `O(log* n)` rounds.
//!
//! The classical color-reduction scheme \[Lin92\]: a proper `m`-coloring
//! is viewed as an assignment of degree-`d` polynomials over a prime
//! field `F_q` with `q^(d+1) >= m` and `q > Δ·d`. In one round, every
//! node learns its neighbors' polynomials and picks an evaluation point
//! `x` where its polynomial differs from all of theirs (two distinct
//! degree-`d` polynomials agree on at most `d` points, and `Δ·d < q`
//! points cannot cover `F_q`). The pair `(x, p(x))` is a proper coloring
//! with `q²` colors. Iterating reaches `O(Δ²)` colors in `O(log* m)`
//! rounds.
//!
//! The paper uses this as the symmetry-breaking preprocessing step for
//! its deterministic list-coloring subroutines (Section 3 and phase
//! structure in Section 4.1).

use delta_graphs::Graph;
use local_model::wire::gamma_bits;
use local_model::{
    compile, BitReader, BitWriter, Engine, Outbox, RoundDriver, RoundLedger, WireCodec,
};

/// Wire format of Linial color reduction: one gamma-coded current
/// color per round. Colors start below `n` and only shrink (to `q²`
/// for the round's field size `q`), so every message fits in
/// `O(log n)` bits — the substrate is CONGEST-feasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinialMsg {
    /// "My current color is `c`."
    Color(u64),
}

impl WireCodec for LinialMsg {
    fn encode(&self, w: &mut BitWriter) {
        let LinialMsg::Color(c) = self;
        w.write_gamma(*c);
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        r.read_gamma().map(LinialMsg::Color)
    }
    fn encoded_bits(&self) -> u64 {
        let LinialMsg::Color(c) = self;
        gamma_bits(*c)
    }
}

/// Smallest prime `>= k` (trial division; `k` is tiny in practice).
pub(crate) fn next_prime(k: u64) -> u64 {
    let mut c = k.max(2);
    'outer: loop {
        let mut d = 2;
        while d * d <= c {
            if c.is_multiple_of(d) {
                c += 1;
                continue 'outer;
            }
            d += 1;
        }
        return c;
    }
}

/// Evaluates the base-`q` digit polynomial of `color` at `x` over `F_q`:
/// `p(x) = sum_i digit_i(color) * x^i mod q`.
fn poly_eval(color: u64, q: u64, x: u64) -> u64 {
    let mut acc = 0u64;
    let mut pow = 1u64;
    let mut c = color;
    while c > 0 {
        let digit = c % q;
        acc = (acc + digit * pow) % q;
        pow = (pow * x) % q;
        c /= q;
    }
    acc
}

/// Degree of the base-`q` digit polynomial of colors `< m` (number of
/// digits minus one).
fn poly_degree(m: u64, q: u64) -> u64 {
    let mut d = 0;
    let mut cap = q;
    while cap < m {
        cap = cap.saturating_mul(q);
        d += 1;
    }
    d
}

/// Chooses the field size for one reduction step from `m` colors at
/// maximum degree `delta`: the smallest prime `q` such that the digit
/// polynomials (degree `d = poly_degree(m, q)`) satisfy `q > Δ·d`.
fn choose_field(m: u64, delta: u64) -> u64 {
    // Try increasing q until the degree constraint holds. q is bounded
    // by next_prime(Δ·log2(m) + 1), so this terminates quickly.
    let mut q = next_prime(delta + 1);
    loop {
        let d = poly_degree(m, q);
        if q > delta * d.max(1) {
            return q;
        }
        q = next_prime(q + 1);
    }
}

/// Computes a proper `O(Δ²)`-coloring of `g` in `O(log* n)` LOCAL rounds
/// (charged to `phase`), starting from the unique node identifiers.
///
/// Returns the per-node colors; the number of distinct colors is at most
/// `q²` for the smallest admissible prime `q = O(Δ)` (about `4Δ²` for
/// prime-dense ranges). Never more than `n` colors.
///
/// # Example
///
/// ```
/// use delta_coloring::linial::linial_coloring;
/// use delta_graphs::generators;
/// use local_model::RoundLedger;
///
/// let g = generators::random_regular(200, 4, 1);
/// let mut ledger = RoundLedger::new();
/// let colors = linial_coloring(&g, &mut ledger, "linial");
/// let bound = linial_color_bound(4);
/// assert!(colors.iter().all(|&c| (c as usize) < bound));
/// # use delta_coloring::linial::linial_color_bound;
/// ```
pub fn linial_coloring(g: &Graph, ledger: &mut RoundLedger, phase: &str) -> Vec<u32> {
    let delta = g.max_degree() as u64;
    if g.n() == 0 {
        return Vec::new();
    }
    if delta == 0 {
        return vec![0; g.n()];
    }
    // One engine round per reduction step: nodes broadcast their current
    // color, then pick an evaluation point differing from every
    // neighbor's polynomial. The algorithm is deterministic; the engine
    // seed is irrelevant.
    let mut engine = compile(Engine::new(g, 0, |v| v.0 as u64));
    let mut m = g.n() as u64;
    loop {
        let q = choose_field(m, delta);
        if q * q >= m {
            break; // fixed point: no further reduction possible
        }
        let d = poly_degree(m, q);
        debug_assert!(q > delta * d.max(1));
        engine.round_step(
            ledger,
            phase,
            |_, color: &mut u64, out: &mut Outbox<LinialMsg>| {
                out.broadcast(LinialMsg::Color(*color))
            },
            move |_, color, inbox| {
                // Find x in F_q where my polynomial differs from every
                // neighbor's evaluation.
                let my = *color;
                let mut chosen = None;
                for x in 0..q {
                    let mine = poly_eval(my, q, x);
                    if inbox
                        .iter()
                        .all(|&(_, LinialMsg::Color(c))| poly_eval(c, q, x) != mine)
                    {
                        chosen = Some((x, mine));
                        break;
                    }
                }
                let (x, px) = chosen.expect("evaluation point exists since q > Δ·d");
                *color = x * q + px;
            },
        );
        m = q * q;
    }
    engine
        .into_node_states()
        .iter()
        .map(|&c| c as u32)
        .collect()
}

/// Upper bound on the number of colors [`linial_coloring`] produces for
/// maximum degree `delta`: `q²` for the largest field the iteration can
/// settle on. Useful for sizing schedule arrays.
pub fn linial_color_bound(delta: usize) -> usize {
    if delta == 0 {
        return 1;
    }
    // The fixed point satisfies q = choose_field(m, Δ) with q² >= m; the
    // worst settled field is bounded by the prime below 2·(2Δ+1)
    // (Bertrand), but we compute it directly by running the recurrence
    // on the color-count alone.
    let delta = delta as u64;
    let mut m = u64::MAX / 4; // effectively "huge n"
    for _ in 0..64 {
        let q = choose_field(m, delta);
        if q * q >= m {
            return m as usize;
        }
        m = q * q;
    }
    m as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::PartialColoring;
    use delta_graphs::generators;

    fn assert_proper(g: &Graph, colors: &[u32]) {
        PartialColoring::from_total(colors)
            .validate_proper(g)
            .unwrap();
    }

    #[test]
    fn next_prime_values() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(4), 5);
        assert_eq!(next_prime(14), 17);
        assert_eq!(next_prime(25), 29);
    }

    #[test]
    fn poly_eval_linear() {
        // color 7 in base 5 = digits [2, 1] -> p(x) = 2 + x.
        assert_eq!(poly_eval(7, 5, 0), 2);
        assert_eq!(poly_eval(7, 5, 1), 3);
        assert_eq!(poly_eval(7, 5, 4), 1);
    }

    #[test]
    fn proper_on_families() {
        for g in [
            generators::cycle(17),
            generators::torus(6, 7),
            generators::random_regular(300, 4, 3),
            generators::random_regular(300, 8, 4),
            generators::random_tree(200, 5),
            generators::complete(9),
        ] {
            let mut ledger = RoundLedger::new();
            let colors = linial_coloring(&g, &mut ledger, "linial");
            assert_proper(&g, &colors);
        }
    }

    #[test]
    fn color_count_is_delta_squared_ish() {
        let g = generators::random_regular(2000, 4, 9);
        let mut ledger = RoundLedger::new();
        let colors = linial_coloring(&g, &mut ledger, "linial");
        assert_proper(&g, &colors);
        let max = *colors.iter().max().unwrap() as usize;
        assert!(max < linial_color_bound(4), "max color {max}");
        assert!(
            linial_color_bound(4) <= 200,
            "bound {}",
            linial_color_bound(4)
        );
    }

    #[test]
    fn round_count_is_log_star_ish() {
        let g = generators::random_regular(4000, 3, 11);
        let mut ledger = RoundLedger::new();
        let _ = linial_coloring(&g, &mut ledger, "linial");
        assert!(ledger.total() <= 8, "rounds {}", ledger.total());
    }

    #[test]
    fn handles_edgeless_graph() {
        let g = Graph::empty(10);
        let mut ledger = RoundLedger::new();
        let colors = linial_coloring(&g, &mut ledger, "linial");
        assert!(colors.iter().all(|&c| c == 0));
        assert_eq!(ledger.total(), 0);
    }

    #[test]
    fn bound_monotone_in_delta() {
        assert!(linial_color_bound(3) <= linial_color_bound(8));
        assert!(linial_color_bound(8) <= linial_color_bound(20));
    }
}
