//! Randomized Δ-coloring (Theorems 1 and 3, Section 4).
//!
//! Phase structure, following Section 4.1:
//!
//! * **I — DCC removal** (phases (1)–(3)): every node searches its
//!   radius-`r` ball for a degree-choosable component; a ruling set of
//!   the virtual DCC graph becomes the base layer `B_0`, and distance
//!   layers `B_1..B_s` are peeled off around it. The remainder graph `H`
//!   contains no node that certified a small DCC, so `H` expands
//!   (Lemma 12).
//! * **II — shattering** (phases (4)–(6)): the marking process creates
//!   T-nodes ("slack"); nodes with an uncolored path to a T-node or to
//!   the boundary of `H` within `2r` are *happy* and are peeled into
//!   layers `C_0..C_{2r}`. The unhappy remainder `L` shatters into small
//!   components (Lemma 23), which are colored first via their own
//!   layering `D_0..D_α` rooted at free nodes and in-component DCCs
//!   (Lemmas 26, 27). Everything after the marking process up to the
//!   leftover components is one central pass, `shatter`, which
//!   [`shattering_probe`] runs too, so the F4/T5 probe measures the
//!   driver's own phases.
//! * **III — happy layers** (phase (7)): color `C_{2r}..C_0` in reverse;
//!   `C_0` consists of T-nodes (two same-colored marked neighbors) and
//!   boundary nodes, which always retain a free color.
//! * **IV — DCC layers** (phases (8)–(9)): color `B_s..B_1` in reverse,
//!   then solve each selected component of `B_0` by its
//!   degree-choosability.
//!
//! The implementation is Las Vegas: the (rare) failure paths — e.g. a
//! leftover component with neither free nodes nor DCCs, which the
//! paper's asymptotic constants exclude (Lemma 27) but finite `n` cannot
//! — are detected, and the run retries with fresh randomness; after
//! `max_attempts` it falls back to the deterministic algorithm. Every
//! produced coloring is verified before being returned.
//!
//! # How each phase executes
//!
//! | Phase | Derived topology | Execution |
//! |---|---|---|
//! | (1) DCC detection | `G` | engine ball floods ([`crate::gallai::find_dccs_all`]) |
//! | (2) GDCC ruling | virtual minor (DCCs as nodes) | engine Luby on the materialized GDCC (rounds and bits measured), plus a charged remainder of `2r` rounds per round — set-nodes need leader simulation to compile |
//! | (3) B layers | `G` | central BFS wave, charged |
//! | (4) marking | `H = G[unremoved]` | **InducedOverlay** ([`crate::marking::marking_process`] with the `H` mask): selection, backoff flood, pick balls, placement — all measured host rounds, removed nodes silent |
//! | (5) boundary/C layers | `H` | central BFS waves, charged |
//! | (6) CDCC detection | `G[component]` | **InducedOverlay** ([`local_model::run_ball_phase`] with the component mask and the [`crate::gallai::find_dcc_in_ball`] rule) |
//! | (6) CDCC ruling | virtual minor (free nodes + DCCs) | engine Luby on the materialized CDCC, or central netdecomp (charged); either way plus a charged remainder of `r_c` rounds per round |
//! | (6)–(9) layer coloring | `G[todo]` per layer | **InducedOverlay** ([`crate::layering::color_one_layer`] → [`crate::list_coloring::list_color_randomized`] with the todo mask) |
//!
//! The two virtual minors come from one builder, `set_graph`: two sets
//! are adjacent iff they share a node or an edge of the host joins them.

use crate::gallai::{color_component_respecting, FoundDcc};
use crate::layering::{color_one_layer, color_upper_layers, layers_from_base, Layering};
use crate::list_coloring::ListColorMethod;
use crate::marking::{marking_process, MarkingOutcome, MarkingParams};
use crate::mis::{luby_mis, members};
use crate::palette::{ColoringError, PartialColoring};
use crate::verify::assert_nice;
use delta_graphs::{Graph, GraphBuilder, NodeId};
use local_model::RoundLedger;
use std::collections::HashSet;

/// How phase (6) computes the ruling set `M'` of the virtual CDCC
/// graph inside each leftover component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComponentRuling {
    /// Luby MIS on the CDCC graph (the paper's `Runtime(n, Δ)` path).
    #[default]
    Mis,
    /// Network decomposition of the CDCC graph, then a maximal
    /// independent set built cluster-color-class by cluster-color-class
    /// (the paper's `Runtime(n)` path, Lemma 24 (P3)/(P4), with the MPX
    /// substitution of README.md, "Substitutions for the paper's
    /// constructions").
    NetDecomp,
}

/// Configuration of the randomized algorithm.
#[derive(Debug, Clone, Copy)]
pub struct RandConfig {
    /// DCC-detection radius `r` (phases (1)–(2)); kept small because a
    /// node inspects its whole radius-`r` ball.
    pub r_detect: usize,
    /// Happiness radius `r` (phase (5)): T-nodes/boundary make nodes
    /// within `r` happy; layers extend to `2r`.
    pub r_happy: usize,
    /// Marking-process parameters (phase (4)).
    pub marking: MarkingParams,
    /// List-coloring engine for all layer instances.
    pub method: ListColorMethod,
    /// Base random seed.
    pub seed: u64,
    /// Las Vegas retries before falling back to the deterministic
    /// algorithm.
    pub max_attempts: usize,
    /// Phase (6) ruling-set engine for leftover components.
    pub component_ruling: ComponentRuling,
}

impl RandConfig {
    /// Defaults for the large-Δ version (Theorem 3, `Δ >= 4`):
    /// `r = O(1)`, backoff `b = 6`, calibrated selection probability
    /// (see [`MarkingParams::calibrated`] and README.md, "Substitutions
    /// for the paper's constructions").
    pub fn large_delta(g: &Graph, seed: u64) -> Self {
        let delta = g.max_degree().max(4);
        let b = 6;
        let p = calibrated_p(g.n(), delta, b);
        RandConfig {
            r_detect: if delta <= 8 { 2 } else { 1 },
            r_happy: 8,
            marking: MarkingParams { p, b },
            method: ListColorMethod::Randomized,
            seed,
            max_attempts: 5,
            component_ruling: ComponentRuling::Mis,
        }
    }

    /// Defaults for the small-Δ version (Theorem 1, `3 <= Δ = O(1)`):
    /// `r = Θ(log log n)` (rounded up to a multiple of 6, per Lemma 14),
    /// backoff `b = 12`.
    pub fn small_delta(g: &Graph, seed: u64) -> Self {
        let delta = g.max_degree().max(3);
        let b = 12;
        let p = calibrated_p(g.n(), delta, b);
        let loglog = (g.n().max(16) as f64).ln().ln().ceil() as usize;
        RandConfig {
            r_detect: 2,
            r_happy: 6 * loglog.max(1),
            marking: MarkingParams { p, b },
            method: ListColorMethod::Randomized,
            seed,
            max_attempts: 5,
            component_ruling: ComponentRuling::Mis,
        }
    }
}

/// Calibrated selection probability: `1 / min(n, (Δ-1)^b)`, capped at
/// 0.05 — the inverse expected backoff-ball size, so that a constant
/// fraction of selections survives the backoff at feasible `n` (the
/// paper's `Δ^-b` is asymptotically equivalent up to constants).
fn calibrated_p(n: usize, delta: usize, b: usize) -> f64 {
    let ball = ((delta.max(3) - 1) as f64).powi(b as i32);
    (1.0 / ball.min(n.max(2) as f64)).min(0.05)
}

/// Statistics of a [`delta_color_rand`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandStats {
    /// Attempts used (1 = first try succeeded).
    pub attempts: usize,
    /// Whether the deterministic fallback was used.
    pub fell_back: bool,
    /// Nodes removed in phase I (B layers, including `B_0`).
    pub b_removed: usize,
    /// Number of selected `B_0` DCC components.
    pub b0_components: usize,
    /// Size of the remainder graph `H`.
    pub h_size: usize,
    /// Number of surviving T-nodes.
    pub t_nodes: usize,
    /// Nodes peeled into `C` layers (happy) plus marked nodes, as a
    /// fraction of `|H|` (1.0 when `H` is empty).
    pub happy_fraction: f64,
    /// Number of leftover components `L`.
    pub leftover_components: usize,
    /// Largest leftover component.
    pub max_component_size: usize,
}

/// Runs the randomized Δ-coloring algorithm (Theorems 1/3 depending on
/// the configuration).
///
/// # Errors
///
/// [`ColoringError::Unsolvable`] if the graph is not nice, or if every
/// attempt *and* the deterministic fallback fail (not observed in
/// practice; the fallback is complete for nice graphs).
pub fn delta_color_rand(
    g: &Graph,
    config: RandConfig,
    ledger: &mut RoundLedger,
) -> Result<(PartialColoring, RandStats), ColoringError> {
    assert_nice(g)?;
    let mut last_err = None;
    for attempt in 0..config.max_attempts.max(1) {
        let seed = config
            .seed
            .wrapping_add(attempt as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15 | 1);
        // A failed attempt stays charged: a real execution would detect
        // failure and retry.
        match run_once(g, &config, seed, ledger) {
            Ok((coloring, mut stats)) => {
                crate::verify::check_delta_coloring(g, &coloring)?;
                stats.attempts = attempt + 1;
                return Ok((coloring, stats));
            }
            Err(e) => last_err = Some(e),
        }
    }
    // Deterministic fallback (complete for nice graphs).
    let det_cfg = crate::delta::det::DetConfig {
        method: config.method,
        seed: config.seed,
    };
    let (coloring, _) = crate::delta::det::delta_color_det(g, det_cfg, ledger).map_err(|e| {
        ColoringError::Unsolvable {
            context: format!(
                "all randomized attempts failed (last: {last_err:?}) and fallback failed: {e}"
            ),
        }
    })?;
    Ok((
        coloring,
        RandStats {
            attempts: config.max_attempts,
            fell_back: true,
            b_removed: 0,
            b0_components: 0,
            h_size: g.n(),
            t_nodes: 0,
            happy_fraction: 0.0,
            leftover_components: 0,
            max_component_size: 0,
        },
    ))
}

/// Outcome of the shattering phases (4)–(5) alone, for the Lemma 22/23
/// experiments: run the marking process and the happiness classification
/// on `g` (treated as the remainder graph `H`) and report who survives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShatterProbe {
    /// Surviving T-nodes.
    pub t_nodes: usize,
    /// Marked nodes.
    pub marked: usize,
    /// Fraction of nodes that are happy (marked, or within `2r` of a
    /// T-node/boundary through uncolored paths).
    pub happy_fraction: f64,
    /// Number of leftover (unhappy) components.
    pub components: usize,
    /// Largest leftover component.
    pub max_component: usize,
}

/// Runs phases (4)–(5) in isolation on `g` (as the remainder graph `H`)
/// and measures the shattering quality — the quantity Lemmas 22/23 and
/// 31 bound. After the marking process (on a scratch ledger) it runs
/// the pass that [`delta_color_rand`] runs after its own marking, so
/// the probe counts what the driver would leave on `H` from the same
/// marking. No coloring is produced.
pub fn shattering_probe(g: &Graph, config: &RandConfig, seed: u64) -> ShatterProbe {
    let outcome = marking_process(
        g,
        None,
        config.marking,
        seed,
        &mut PartialColoring::new(g.n()),
        &mut RoundLedger::new(),
        "probe",
    );
    let shattered = shatter(g, g.max_degree(), config.r_happy, outcome);
    ShatterProbe {
        t_nodes: shattered.t_nodes,
        marked: shattered.marked.iter().filter(|&&m| m).count(),
        happy_fraction: shattered.happy_fraction,
        components: shattered.components.len(),
        max_component: shattered.components.iter().map(Vec::len).max().unwrap_or(0),
    }
}

/// What phases (4)–(5) leave on the remainder graph `H` (ids local to
/// `H`) once the marking process has run.
struct Shattering {
    /// `marked[v]`: `v` keeps its mark (the color `Color::FIRST`).
    marked: Vec<bool>,
    /// Number of valid T-nodes: both of their marks survived.
    t_nodes: usize,
    /// Layers `C_0..C_{2r}` through unmarked nodes.
    c_layering: Layering,
    /// Fraction of `H` that is happy, i.e. marked or layered (1.0 when
    /// `H` is empty).
    happy_fraction: f64,
    /// Connected components of the unhappy leftover `L`.
    components: Vec<Vec<NodeId>>,
}

/// Phase (5) and the leftover of phase (6) on the remainder graph `h`,
/// from the marking `outcome` of phase (4): marked nodes within `r` of
/// the boundary (degree in `h` below `delta`) drop their marks, T-nodes
/// whose two marks survive stay valid, and `C_0` (the valid T-nodes and
/// the unmarked boundary nodes) grows layers through unmarked nodes up
/// to `2r`; whatever stays unmarked and unlayered is the leftover.
/// Central BFS waves only: the caller charges the rounds.
fn shatter(h: &Graph, delta: usize, r: usize, outcome: MarkingOutcome) -> Shattering {
    // Boundary of H: degree in H smaller than Δ (covers both deg_G < Δ
    // and adjacency to removed B layers).
    let boundary: Vec<NodeId> = h.nodes().filter(|&v| h.degree(v) < delta).collect();
    // Marked nodes within r of the boundary uncolor themselves.
    let near_boundary = layers_from_base(h, &boundary, Some(r), None);
    let mut marked = outcome.marked;
    for (m, near) in marked.iter_mut().zip(&near_boundary.layer_of) {
        *m &= near.is_none();
    }
    // Valid T-nodes: both marks survived. Together with the unmarked
    // boundary nodes they form C_0.
    let mut c0: Vec<NodeId> = outcome
        .t_nodes
        .iter()
        .filter(|t| marked[t.m1.index()] && marked[t.m2.index()])
        .map(|t| t.node)
        .collect();
    let t_nodes = c0.len();
    c0.extend(boundary.into_iter().filter(|&v| !marked[v.index()]));
    // Layers through uncolored (unmarked) nodes, truncated at 2r.
    let within: Vec<bool> = marked.iter().map(|&m| !m).collect();
    let c_layering = layers_from_base(h, &c0, Some(2 * r), Some(&within));
    let leftover: Vec<NodeId> = h
        .nodes()
        .filter(|&v| !marked[v.index()] && c_layering.layer_of[v.index()].is_none())
        .collect();
    let happy_fraction = if h.n() == 0 {
        1.0
    } else {
        (h.n() - leftover.len()) as f64 / h.n() as f64
    };
    Shattering {
        components: leftover_components(h, &leftover),
        marked,
        t_nodes,
        c_layering,
        happy_fraction,
    }
}

fn run_once(
    g: &Graph,
    config: &RandConfig,
    seed: u64,
    ledger: &mut RoundLedger,
) -> Result<(PartialColoring, RandStats), ColoringError> {
    let delta = g.max_degree();
    let n = g.n();
    let mut coloring = PartialColoring::new(n);

    // ------------------------------------------------------------------
    // Phase I (1)-(3): DCC selection, ruling set on the DCC graph, base
    // layer B_0 and layers B_1..B_s.
    // ------------------------------------------------------------------
    let b0_sets = select_b0_dccs(g, config, seed, ledger);
    // Selected DCCs have in-component radius <= 2r (diameter <= 4r); a
    // node whose own DCC is GDCC-adjacent to a selected one is therefore
    // within 4r + 2 of B_0, so s = 4r + 2 layers remove every node that
    // certified a DCC (the paper's s = β(r+1) with its radius-r DCCs).
    let s = 4 * config.r_detect + 2;
    let b_layering = layers_from_base(g, &b0_sets.concat(), Some(s), None);
    ledger.charge("phase3-b-layers", s as u64);
    let removed: Vec<bool> = b_layering.layer_of.iter().map(Option::is_some).collect();
    let b_removed = b_layering.covered();

    // The remainder graph H. The membership mask drives the engine
    // phases (marking) through the InducedOverlay on the host graph;
    // the materialized induced copy serves only the central BFS
    // helpers (layer waves, component extraction).
    let h_nodes: Vec<NodeId> = g.nodes().filter(|v| !removed[v.index()]).collect();
    let h_mask: Vec<bool> = removed.iter().map(|&r| !r).collect();
    let (h, h_map) = g.induced(&h_nodes);

    let mut stats = RandStats {
        attempts: 1,
        fell_back: false,
        b_removed,
        b0_components: b0_sets.len(),
        h_size: h.n(),
        t_nodes: 0,
        happy_fraction: 1.0,
        leftover_components: 0,
        max_component_size: 0,
    };

    if h.n() > 0 {
        // --------------------------------------------------------------
        // Phase II (4): marking process on H, executed through the
        // InducedOverlay on the host engine — removed nodes stay
        // silent; every flood/placement round is a measured host round.
        // (Member ranks coincide with h-local ids, so the outcome slots
        // straight into the h-indexed bookkeeping below.)
        // --------------------------------------------------------------
        let outcome = marking_process(
            g,
            Some(&h_mask),
            config.marking,
            seed ^ 0xa5a5,
            &mut PartialColoring::new(h.n()),
            ledger,
            "phase4-marking",
        );

        // --------------------------------------------------------------
        // Phase II (5): boundary handling, T-node validation, C layers;
        // the leftover components L of phase (6).
        // --------------------------------------------------------------
        let r = config.r_happy;
        let shattered = shatter(&h, delta, r, outcome);
        ledger.charge("phase5-boundary", r as u64);
        ledger.charge("phase5-c-layers", 2 * r as u64);
        stats.t_nodes = shattered.t_nodes;
        stats.happy_fraction = shattered.happy_fraction;

        // Transfer marks to the global coloring.
        for v in h.nodes() {
            if shattered.marked[v.index()] {
                coloring.set(h_map[v.index()], crate::palette::Color::FIRST);
            }
        }

        // --------------------------------------------------------------
        // Phase II (6): color the leftover components L.
        // --------------------------------------------------------------
        let comps = &shattered.components;
        stats.leftover_components = comps.len();
        stats.max_component_size = comps.iter().map(Vec::len).max().unwrap_or(0);
        for comp_local in comps {
            let comp_global: Vec<NodeId> = comp_local.iter().map(|&v| h_map[v.index()]).collect();
            color_small_component(
                g,
                &comp_global,
                delta,
                config,
                seed ^ 0x5151,
                &mut coloring,
                ledger,
            )?;
        }

        // --------------------------------------------------------------
        // Phase III (7): color C layers in reverse (C_2r .. C_0).
        // --------------------------------------------------------------
        let cl = &shattered.c_layering;
        for i in (0..cl.depth()).rev() {
            let members_global: Vec<NodeId> =
                cl.layers[i].iter().map(|&v| h_map[v.index()]).collect();
            color_one_layer(
                g,
                &members_global,
                &mut coloring,
                delta,
                config.method,
                seed ^ (0xc000 + i as u64),
                ledger,
                "phase7-c-coloring",
            )?;
        }
    }

    // ------------------------------------------------------------------
    // Phase IV (8): color B layers in reverse (B_s .. B_1).
    // ------------------------------------------------------------------
    color_upper_layers(
        g,
        &b_layering,
        &mut coloring,
        delta,
        config.method,
        seed ^ 0xb000,
        ledger,
        "phase8-b-coloring",
    )?;

    // ------------------------------------------------------------------
    // Phase IV (9): brute-force the selected B_0 DCC components.
    // ------------------------------------------------------------------
    for comp in &b0_sets {
        color_component_respecting(g, comp, delta, &mut coloring)?;
    }
    ledger.charge("phase9-b0", config.r_detect as u64 + 1);

    if !coloring.is_total() {
        return Err(ColoringError::Unsolvable {
            context: "phases did not cover every node".into(),
        });
    }
    Ok((coloring, stats))
}

/// Phases (1)-(2): per-node DCC selection, the virtual DCC graph, and a
/// ruling set (MIS) on it. Returns the selected (pairwise non-adjacent)
/// DCC components.
fn select_b0_dccs(
    g: &Graph,
    config: &RandConfig,
    seed: u64,
    ledger: &mut RoundLedger,
) -> Vec<Vec<NodeId>> {
    let r = config.r_detect;
    // Engine-backed collective detection: every node collects its
    // radius-r ball as a real message-passing program (rounds + bits
    // measured by the engine, charged to the phase below).
    let found_all = crate::gallai::find_dccs_all(
        g,
        r,
        2 * r,
        crate::gallai::dcc_size_cap(g.max_degree()),
        ledger,
        "phase1-dcc-detect",
    );
    let dccs = distinct_dccs(found_all);
    if dccs.is_empty() {
        return Vec::new();
    }
    // Virtual graph GDCC: DCCs adjacent if they share a vertex or are
    // joined by an edge of G.
    let gdcc = set_graph(g, &dccs);
    // (2, 1)-ruling set of GDCC via Luby MIS; one GDCC round costs
    // 2r + 1 rounds in G: the measured engine round plus a charged
    // remainder of 2r.
    let before = ledger.total();
    let mis = luby_mis(&gdcc, seed ^ 0xdcc, ledger, "phase2-ruling");
    ledger.charge("phase2-ruling", (ledger.total() - before) * 2 * r as u64);
    members(&mis)
        .into_iter()
        .map(|i| dccs[i.index()].clone())
        .collect()
}

/// Phase (6): color one leftover component `C` (given by global ids)
/// with the small-component layering `D_0..D_α` of Section 4.3.
#[allow(clippy::too_many_arguments)]
fn color_small_component(
    g: &Graph,
    comp: &[NodeId],
    delta: usize,
    config: &RandConfig,
    seed: u64,
    coloring: &mut PartialColoring,
    ledger: &mut RoundLedger,
) -> Result<(), ColoringError> {
    let (sub, map) = g.induced(comp);
    let nn = sub.n();
    // R = 2·log_{Δ-2} N + 1 (the paper's in-component search radius),
    // clamped for usability at small Δ or tiny components.
    let base = (delta.max(4) - 2) as f64;
    let r_c = ((2.0 * (nn.max(2) as f64).ln() / base.ln()).ceil() as usize + 1).max(2);

    // Free nodes: global degree < Δ, or an uncolored neighbor outside
    // the component (such neighbors are colored only in later phases,
    // so they provide slack now).
    let free: Vec<NodeId> = (0..nn)
        .map(NodeId::from_index)
        .filter(|&lv| {
            let gv = map[lv.index()];
            g.degree(gv) < delta
                || g.neighbors(gv)
                    .iter()
                    .any(|&w| !coloring.is_colored(w) && map.binary_search(&w).is_err())
        })
        .collect();

    // In-component DCCs (radius r_c, detection radius capped for cost):
    // the same engine-backed collective detection, executed through the
    // InducedOverlay on the host graph — the component is never handed
    // to the engine as a materialized instance; its certificate floods
    // run on the host network with everyone outside the component
    // silent. Member ranks coincide with `sub`'s local ids.
    let detect_r = r_c.min(config.r_detect.max(2) + 2);
    let comp_mask: Vec<bool> = {
        let mut m = vec![false; g.n()];
        for &v in comp {
            m[v.index()] = true;
        }
        m
    };
    let size_cap = crate::gallai::dcc_size_cap(delta);
    let found_all = local_model::run_ball_phase::<(), _, _, _>(
        g,
        Some(&comp_mask),
        0,
        detect_r,
        |_| (),
        |_, view| crate::gallai::find_dcc_in_view(view, 2 * detect_r, size_cap),
        ledger,
        "phase6-cdcc",
    );
    let dccs = distinct_dccs(found_all);

    // Virtual graph CDCC: singletons for free nodes + DCC nodes.
    if free.is_empty() && dccs.is_empty() {
        return Err(ColoringError::Unsolvable {
            context: format!(
                "leftover component of size {nn} has no free node and no DCC (Lemma 27 margin)"
            ),
        });
    }
    let node_sets: Vec<Vec<NodeId>> = free
        .iter()
        .map(|&v| vec![v])
        .chain(dccs.iter().cloned())
        .collect();
    let cdcc = set_graph(&sub, &node_sets);
    // One CDCC round costs r_c + 1 rounds in G: the rounds below are
    // charged as they run, and a remainder of r_c per round after them.
    let before = ledger.total();
    let mis = match config.component_ruling {
        ComponentRuling::Mis => luby_mis(&cdcc, seed ^ 0xcdcc, ledger, "phase6-ruling"),
        ComponentRuling::NetDecomp => {
            // Lemma 24 (P3)/(P4) path: decompose the virtual graph, then
            // build a maximal independent set one cluster color class at
            // a time (clusters of one class are non-adjacent, so their
            // greedy choices commute; one class costs a cluster-radius
            // exchange).
            let decomp = crate::decomp::mpx_decomposition(
                &cdcc,
                0.3,
                seed ^ 0xdeed,
                ledger,
                "phase6-ruling",
            );
            let mut m = vec![false; cdcc.n()];
            let members_by_cluster = decomp.cluster_members();
            for class in 0..decomp.color_count() as u32 {
                for (ci, cluster) in members_by_cluster.iter().enumerate() {
                    if decomp.cluster_colors[ci] != class {
                        continue;
                    }
                    for &v in cluster {
                        if !cdcc.neighbors(v).iter().any(|w| m[w.index()]) {
                            m[v.index()] = true;
                        }
                    }
                }
                ledger.charge("phase6-ruling", decomp.max_radius() as u64 + 1);
            }
            m
        }
    };
    ledger.charge("phase6-ruling", (ledger.total() - before) * r_c as u64);
    let chosen: Vec<&Vec<NodeId>> = members(&mis)
        .iter()
        .map(|&i| &node_sets[i.index()])
        .collect();

    // D layers: distance (inside the component) to the chosen sets.
    let d0_local: Vec<NodeId> = chosen.iter().flat_map(|s| s.iter().copied()).collect();
    let d_layering = layers_from_base(&sub, &d0_local, None, None);
    debug_assert!(
        d_layering.is_cover(),
        "component layering must cover the component"
    );
    ledger.charge("phase6-d-layers", d_layering.depth() as u64);

    // Color D_α..D_1 in reverse (list instances on the global graph).
    for i in (1..d_layering.depth()).rev() {
        let members_global: Vec<NodeId> = d_layering.layers[i]
            .iter()
            .map(|&v| map[v.index()])
            .collect();
        color_one_layer(
            g,
            &members_global,
            coloring,
            delta,
            config.method,
            seed ^ (0xd000 + i as u64),
            ledger,
            "phase6-d-coloring",
        )?;
    }
    // Color D_0: chosen free nodes (the singletons; a DCC has at least 4
    // nodes) greedily (slack guaranteed), chosen DCCs via
    // degree-choosability. The chosen sets are pairwise non-adjacent
    // (MIS), so order does not matter.
    for set in chosen {
        if let [lv] = set[..] {
            let gv = map[lv.index()];
            if coloring.is_colored(gv) {
                continue;
            }
            let fc = coloring.free_colors(g, gv, delta);
            let Some(&c) = fc.first() else {
                return Err(ColoringError::Unsolvable {
                    context: format!("free node {gv} lost its slack (invariant violation)"),
                });
            };
            coloring.set(gv, c);
        } else {
            let comp_global: Vec<NodeId> = set.iter().map(|&v| map[v.index()]).collect();
            color_component_respecting(g, &comp_global, delta, coloring)?;
        }
    }
    ledger.charge("phase6-d0", r_c as u64);
    Ok(())
}

/// Connected components of the induced subgraph on `keep` (local ids of
/// `h`), returned as lists of `h`-local node ids.
fn leftover_components(h: &Graph, keep: &[NodeId]) -> Vec<Vec<NodeId>> {
    let keep_set: Vec<bool> = {
        let mut m = vec![false; h.n()];
        for &v in keep {
            m[v.index()] = true;
        }
        m
    };
    let mut seen = vec![false; h.n()];
    let mut out = Vec::new();
    for &start in keep {
        if seen[start.index()] {
            continue;
        }
        let mut comp = vec![start];
        seen[start.index()] = true;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &w in h.neighbors(u) {
                if keep_set[w.index()] && !seen[w.index()] {
                    seen[w.index()] = true;
                    comp.push(w);
                    stack.push(w);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

/// The distinct vertex sets among the DCCs found, in the order found.
fn distinct_dccs(found: Vec<Option<FoundDcc>>) -> Vec<Vec<NodeId>> {
    let mut seen = HashSet::new();
    found
        .into_iter()
        .flatten()
        .map(|f| f.nodes)
        .filter(|nodes| seen.insert(nodes.clone()))
        .collect()
}

/// The virtual graph on `sets` of nodes of `g` (the GDCC of phase (2),
/// the CDCC of phase (6)): sets `i != j` are adjacent iff they share a
/// node or an edge of `g` joins them. Each set lists distinct nodes.
fn set_graph(g: &Graph, sets: &[Vec<NodeId>]) -> Graph {
    let mut owners: Vec<Vec<u32>> = vec![Vec::new(); g.n()];
    for (i, set) in sets.iter().enumerate() {
        for &v in set {
            owners[v.index()].push(i as u32);
        }
    }
    // `build` sorts and dedups, so repeated pairs are harmless.
    let mut b = GraphBuilder::new(sets.len());
    for m in &owners {
        for (ai, &x) in m.iter().enumerate() {
            for &y in &m[ai + 1..] {
                b.add_edge(x, y);
            }
        }
    }
    for (u, v) in g.edges() {
        for &x in &owners[u.index()] {
            for &y in &owners[v.index()] {
                if x != y {
                    b.add_edge(x, y);
                }
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_delta_coloring;
    use delta_graphs::generators;

    #[test]
    fn rand_large_on_regular_families() {
        for (i, g) in [
            generators::random_regular(600, 4, 1),
            generators::random_regular(600, 5, 2),
            generators::torus(12, 12),
            generators::hypercube(7),
        ]
        .iter()
        .enumerate()
        {
            let cfg = RandConfig::large_delta(g, i as u64);
            let mut ledger = RoundLedger::new();
            let (c, stats) = delta_color_rand(g, cfg, &mut ledger).unwrap();
            check_delta_coloring(g, &c).unwrap();
            assert!(!stats.fell_back, "family {i} fell back to deterministic");
        }
    }

    #[test]
    fn rand_small_delta_on_cubic_graphs() {
        for seed in 0..3u64 {
            let g = generators::random_regular(500, 3, seed + 7);
            let cfg = RandConfig::small_delta(&g, seed);
            let mut ledger = RoundLedger::new();
            let (c, _) = delta_color_rand(&g, cfg, &mut ledger).unwrap();
            check_delta_coloring(&g, &c).unwrap();
        }
    }

    #[test]
    fn rand_on_irregular_graphs() {
        for seed in 0..3u64 {
            let g = generators::perturbed_regular(400, 4, 0.08, seed);
            if crate::verify::assert_nice(&g).is_err() {
                continue;
            }
            let cfg = RandConfig::large_delta(&g, seed);
            let mut ledger = RoundLedger::new();
            let (c, _) = delta_color_rand(&g, cfg, &mut ledger).unwrap();
            check_delta_coloring(&g, &c).unwrap();
        }
    }

    #[test]
    fn rand_on_tree_with_chords() {
        let g = generators::tree_with_chords(400, 60, 5);
        if crate::verify::assert_nice(&g).is_ok() {
            let cfg = RandConfig::large_delta(&g, 3);
            let mut ledger = RoundLedger::new();
            let (c, _) = delta_color_rand(&g, cfg, &mut ledger).unwrap();
            check_delta_coloring(&g, &c).unwrap();
        }
    }

    #[test]
    fn rand_rejects_non_nice() {
        let g = generators::cycle(12);
        let cfg = RandConfig::large_delta(&g, 0);
        assert!(delta_color_rand(&g, cfg, &mut RoundLedger::new()).is_err());
    }

    #[test]
    fn stats_reflect_structure() {
        // Torus: every node certifies a C4 DCC, so phase I removes a lot.
        let g = generators::torus(10, 10);
        let cfg = RandConfig::large_delta(&g, 9);
        let mut ledger = RoundLedger::new();
        let (_, stats) = delta_color_rand(&g, cfg, &mut ledger).unwrap();
        assert!(stats.b0_components > 0);
        assert!(stats.b_removed > 0);
        // Random regular: phase I removal plus H partition the graph.
        let g2 = generators::random_regular(600, 3, 40);
        let cfg2 = RandConfig::small_delta(&g2, 9);
        let mut ledger2 = RoundLedger::new();
        let (_, stats2) = delta_color_rand(&g2, cfg2, &mut ledger2).unwrap();
        assert_eq!(stats2.b_removed + stats2.h_size, 600);
    }

    #[test]
    fn set_graph_matches_its_definition() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Pairs seen: (share a node only, joined by an edge only, neither).
        let mut kinds = (0, 0, 0);
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n: u32 = rng.random_range(2..40);
            let g = generators::gnp(n as usize, 0.1, seed);
            // Random sets of 1 to 5 nodes (singletons and overlaps), plus
            // the endpoints of an edge as two disjoint singletons.
            let mut sets: Vec<Vec<NodeId>> = (0..rng.random_range(1..12u32))
                .map(|_| {
                    let size = rng.random_range(1..6u32);
                    let mut set: Vec<NodeId> =
                        (0..size).map(|_| NodeId(rng.random_range(0..n))).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect();
            if let Some((u, v)) = g.edges().next() {
                sets.extend([vec![u], vec![v]]);
            }
            let vg = set_graph(&g, &sets);
            assert_eq!(vg.n(), sets.len());
            for (i, a) in sets.iter().enumerate() {
                let vi = NodeId::from_index(i);
                assert!(!vg.has_edge(vi, vi), "seed {seed}: self-loop at set {i}");
                for (j, b) in sets.iter().enumerate().filter(|&(j, _)| j != i) {
                    let share = a.iter().any(|v| b.contains(v));
                    let joined = a.iter().any(|&u| b.iter().any(|&v| g.has_edge(u, v)));
                    assert_eq!(
                        vg.has_edge(vi, NodeId::from_index(j)),
                        share || joined,
                        "seed {seed}: sets {a:?} and {b:?}"
                    );
                    match (share, joined) {
                        (true, false) => kinds.0 += 1,
                        (false, true) => kinds.1 += 1,
                        (false, false) => kinds.2 += 1,
                        (true, true) => {}
                    }
                }
            }
        }
        assert!(kinds.0 > 0 && kinds.1 > 0 && kinds.2 > 0, "{kinds:?}");
    }
}

#[cfg(test)]
mod component_ruling_tests {
    use super::*;
    use crate::verify::check_delta_coloring;
    use delta_graphs::generators;

    #[test]
    fn netdecomp_component_ruling_colors_correctly() {
        // Force the leftover-component path (no DCC removal, happiness
        // radius 1) so phase 6 actually runs, with the
        // network-decomposition ruling engine.
        let g = generators::random_regular(500, 4, 13);
        let mut cfg = RandConfig::large_delta(&g, 3);
        cfg.r_detect = 0;
        cfg.r_happy = 1;
        cfg.component_ruling = ComponentRuling::NetDecomp;
        let mut ledger = RoundLedger::new();
        let (c, stats) = delta_color_rand(&g, cfg, &mut ledger).unwrap();
        check_delta_coloring(&g, &c).unwrap();
        assert!(!stats.fell_back);
        assert!(
            stats.leftover_components >= 1,
            "phase 6 colored no component"
        );
    }

    #[test]
    fn both_engines_agree_on_validity() {
        let g = generators::tree_with_chords(400, 50, 8);
        if crate::verify::assert_nice(&g).is_err() {
            return;
        }
        for ruling in [ComponentRuling::Mis, ComponentRuling::NetDecomp] {
            let mut cfg = RandConfig::large_delta(&g, 5);
            cfg.component_ruling = ruling;
            let mut ledger = RoundLedger::new();
            let (c, _) = delta_color_rand(&g, cfg, &mut ledger).unwrap();
            check_delta_coloring(&g, &c).unwrap();
        }
    }
}
