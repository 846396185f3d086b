//! Iterated color-class reduction: shrink a proper `m`-coloring to a
//! `(Δ+1)`-coloring (or solve list instances) by processing one color
//! class per round.
//!
//! Because every color class is an independent set, all its nodes can
//! simultaneously re-pick a free color in one round. This is the
//! standard `O(m)`-round reduction used as our stand-in for the
//! locally-iterative list-coloring subroutines the paper cites (see
//! README.md, "Substitutions for the paper's constructions").

use crate::palette::PartialColoring;
use delta_graphs::Graph;
use local_model::wire::gamma_bits;
use local_model::{
    compile, BitReader, BitWriter, Engine, Outbox, RoundDriver, RoundLedger, WireCodec,
};

/// Wire format of color-class reduction: each node gamma-codes its
/// current color, which is bounded by the input color count (`O(Δ²)`
/// when fed from Linial), so the substrate is CONGEST-feasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceMsg {
    /// "My current color is `c`."
    Color(u32),
}

impl WireCodec for ReduceMsg {
    fn encode(&self, w: &mut BitWriter) {
        let ReduceMsg::Color(c) = self;
        w.write_gamma(*c as u64);
    }
    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        r.read_gamma_u32().map(ReduceMsg::Color)
    }
    fn encoded_bits(&self) -> u64 {
        let ReduceMsg::Color(c) = self;
        gamma_bits(*c as u64)
    }
}

/// Reduces a proper coloring with colors `>= target` down to colors
/// `< target`, one class per round, charged to `phase`.
///
/// Requires `target >= Δ+1` so that a free color always exists.
///
/// # Panics
///
/// Panics (debug assertions) if the input coloring is improper or
/// `target <= Δ`.
pub fn reduce_colors(
    g: &Graph,
    colors: &mut [u32],
    target: usize,
    ledger: &mut RoundLedger,
    phase: &str,
) {
    debug_assert!(target > g.max_degree(), "target must be at least Δ+1");
    let m = colors.iter().max().map(|&c| c as usize + 1).unwrap_or(0);
    if m <= target {
        return;
    }
    // One engine round per class, top color down: the class is an
    // independent set, so all its nodes re-pick simultaneously from the
    // colors their neighbors broadcast. Deterministic; seed irrelevant.
    let mut engine = compile(Engine::new(g, 0, |v| colors[v.index()]));
    for class in (target..m).rev() {
        engine.round_step(
            ledger,
            phase,
            |_, c: &mut u32, out: &mut Outbox<ReduceMsg>| out.broadcast(ReduceMsg::Color(*c)),
            move |_, c, inbox| {
                if *c as usize != class {
                    return;
                }
                let mut used = vec![false; target];
                for &(_, ReduceMsg::Color(cw)) in inbox {
                    if (cw as usize) < target {
                        used[cw as usize] = true;
                    }
                }
                let free = used
                    .iter()
                    .position(|&u| !u)
                    .expect("free color exists since target > Δ");
                *c = free as u32;
            },
        );
    }
    colors.copy_from_slice(&engine.into_node_states());
}

/// Computes a `(Δ+1)`-coloring deterministically: Linial to `O(Δ²)`
/// colors, then class-by-class reduction. `O(Δ²+ log* n)` rounds.
pub fn deterministic_delta_plus_one(
    g: &Graph,
    ledger: &mut RoundLedger,
    phase: &str,
) -> PartialColoring {
    let mut colors = crate::linial::linial_coloring(g, ledger, phase);
    reduce_colors(g, &mut colors, g.max_degree() + 1, ledger, phase);
    let out = PartialColoring::from_total(&colors);
    debug_assert!(out.validate_proper(g).is_ok());
    out
}

/// Groups nodes by color, producing the round schedule used by the
/// deterministic list-coloring subroutine: class `c` at index `c`.
pub fn color_classes(colors: &[u32]) -> Vec<Vec<delta_graphs::NodeId>> {
    let m = colors.iter().max().map(|&c| c as usize + 1).unwrap_or(0);
    let mut classes = vec![Vec::new(); m];
    for (i, &c) in colors.iter().enumerate() {
        classes[c as usize].push(delta_graphs::NodeId::from_index(i));
    }
    classes
}

/// Checks that `colors` is a proper coloring (test helper, exported for
/// integration tests and benches).
pub fn is_proper(g: &Graph, colors: &[u32]) -> bool {
    g.edges()
        .all(|(u, v)| colors[u.index()] != colors[v.index()])
}

/// Largest color index plus one (0 for empty input).
pub fn color_count(colors: &[u32]) -> usize {
    colors.iter().max().map(|&c| c as usize + 1).unwrap_or(0)
}

/// Extension trait: number of *distinct* colors in use.
pub fn distinct_colors(colors: &[u32]) -> usize {
    let mut sorted: Vec<u32> = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_graphs::generators;
    use local_model::RoundLedger;

    #[test]
    fn reduce_from_ids() {
        let g = generators::torus(5, 5);
        let mut colors: Vec<u32> = (0..g.n() as u32).collect();
        let mut ledger = RoundLedger::new();
        reduce_colors(&g, &mut colors, 5, &mut ledger, "reduce");
        assert!(is_proper(&g, &colors));
        assert!(color_count(&colors) <= 5);
        assert_eq!(ledger.total(), (g.n() - 5) as u64);
    }

    #[test]
    fn reduce_noop_if_already_small() {
        let g = generators::cycle(6);
        let mut colors = vec![0, 1, 0, 1, 0, 1];
        let mut ledger = RoundLedger::new();
        reduce_colors(&g, &mut colors, 3, &mut ledger, "reduce");
        assert_eq!(colors, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(ledger.total(), 0);
    }

    #[test]
    fn deterministic_delta_plus_one_on_families() {
        for g in [
            generators::random_regular(400, 4, 2),
            generators::torus(8, 9),
            generators::random_tree(300, 7),
            generators::hypercube(5),
        ] {
            let mut ledger = RoundLedger::new();
            let c = deterministic_delta_plus_one(&g, &mut ledger, "d1");
            crate::palette::check_k_coloring(&g, &c, g.max_degree() + 1).unwrap();
            // Rounds: O(Δ² + log* n), independent of n.
            let bound = crate::linial::linial_color_bound(g.max_degree()) as u64 + 32;
            assert!(
                ledger.total() < bound,
                "rounds {} vs bound {bound}",
                ledger.total()
            );
        }
    }

    #[test]
    fn classes_partition_nodes() {
        let colors = vec![2, 0, 1, 0];
        let classes = color_classes(&colors);
        assert_eq!(classes.len(), 3);
        let total: usize = classes.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
        assert_eq!(classes[0].len(), 2);
    }

    #[test]
    fn distinct_and_count() {
        let colors = vec![5, 5, 2];
        assert_eq!(color_count(&colors), 6);
        assert_eq!(distinct_colors(&colors), 2);
        assert_eq!(color_count(&[]), 0);
    }
}
