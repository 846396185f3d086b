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
//!   (Lemmas 26, 27).
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

use crate::gallai::color_component_respecting;
use crate::layering::{color_one_layer, color_upper_layers, layers_from_base, Layering};
use crate::list_coloring::ListColorMethod;
use crate::marking::{marking_process, MarkingParams};
use crate::mis::{luby_mis, members};
use crate::palette::{ColoringError, PartialColoring};
use crate::verify::assert_nice;
use delta_graphs::{Graph, GraphBuilder, NodeId};
use local_model::RoundLedger;

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
    assert_nice(g).map_err(|e| ColoringError::Unsolvable {
        context: e.to_string(),
    })?;
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
/// 31 bound. No coloring is produced.
pub fn shattering_probe(g: &Graph, config: &RandConfig, seed: u64) -> ShatterProbe {
    let delta = g.max_degree();
    let mut scratch = RoundLedger::new();
    let mut h_coloring = PartialColoring::new(g.n());
    let outcome = marking_process(
        g,
        None,
        config.marking,
        seed,
        &mut h_coloring,
        &mut scratch,
        "probe",
    );
    let r = config.r_happy;
    let boundary: Vec<NodeId> = g.nodes().filter(|&v| g.degree(v) < delta).collect();
    let near_boundary = masked_multi_source(g, &boundary, r, None);
    let mut marked = outcome.marked.clone();
    for v in g.nodes() {
        if marked[v.index()] && near_boundary[v.index()] != u32::MAX {
            marked[v.index()] = false;
        }
    }
    let t_nodes: Vec<NodeId> = outcome
        .t_nodes
        .iter()
        .filter(|t| marked[t.m1.index()] && marked[t.m2.index()])
        .map(|t| t.node)
        .collect();
    let mut c0: Vec<NodeId> = t_nodes.clone();
    c0.extend(boundary.iter().copied().filter(|&v| !marked[v.index()]));
    c0.sort_unstable();
    c0.dedup();
    let within: Vec<bool> = g.nodes().map(|v| !marked[v.index()]).collect();
    let c_layering = layers_from_base(g, &c0, Some(2 * r), Some(&within));
    let leftover: Vec<NodeId> = g
        .nodes()
        .filter(|&v| !marked[v.index()] && c_layering.layer_of[v.index()].is_none())
        .collect();
    let comps = leftover_components(g, &leftover);
    let marked_count = marked.iter().filter(|&&m| m).count();
    ShatterProbe {
        t_nodes: t_nodes.len(),
        marked: marked_count,
        happy_fraction: if g.n() == 0 {
            1.0
        } else {
            (g.n() - leftover.len()) as f64 / g.n() as f64
        },
        components: comps.len(),
        max_component: comps.iter().map(Vec::len).max().unwrap_or(0),
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
    let (b0_sets, b0_nodes) = select_b0_dccs(g, config, seed, ledger)?;
    // Selected DCCs have in-component radius <= 2r (diameter <= 4r); a
    // node whose own DCC is GDCC-adjacent to a selected one is therefore
    // within 4r + 2 of B_0, so s = 4r + 2 layers remove every node that
    // certified a DCC (the paper's s = β(r+1) with its radius-r DCCs).
    let s = 4 * config.r_detect + 2;
    let b_layering = layers_from_base(g, &b0_nodes, Some(s), None);
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

    // C layers in h-local coordinates, colored in phase III.
    let mut c_layering_local: Option<Layering> = None;
    let mut marked_local: Vec<bool> = vec![false; h.n()];

    if h.n() > 0 {
        // --------------------------------------------------------------
        // Phase II (4): marking process on H, executed through the
        // InducedOverlay on the host engine — removed nodes stay
        // silent; every flood/placement round is a measured host round.
        // (Member ranks coincide with h-local ids, so the outcome slots
        // straight into the h-indexed bookkeeping below.)
        // --------------------------------------------------------------
        let mut h_coloring = PartialColoring::new(h.n());
        let outcome = marking_process(
            g,
            Some(&h_mask),
            config.marking,
            seed ^ 0xa5a5,
            &mut h_coloring,
            ledger,
            "phase4-marking",
        );

        // --------------------------------------------------------------
        // Phase II (5): boundary handling, T-node validation, C layers.
        // --------------------------------------------------------------
        let r = config.r_happy;
        // Boundary of H: degree in H smaller than Δ (covers both
        // deg_G < Δ and adjacency to removed B layers).
        let boundary: Vec<NodeId> = h.nodes().filter(|&v| h.degree(v) < delta).collect();
        // Marked nodes within r of the boundary uncolor themselves.
        let near_boundary = masked_multi_source(&h, &boundary, r, None);
        let mut marked = outcome.marked.clone();
        for v in h.nodes() {
            if marked[v.index()] && near_boundary[v.index()] != u32::MAX {
                marked[v.index()] = false;
                h_coloring.unset(v);
            }
        }
        // Valid T-nodes: both marks survived.
        let t_nodes: Vec<NodeId> = outcome
            .t_nodes
            .iter()
            .filter(|t| marked[t.m1.index()] && marked[t.m2.index()])
            .map(|t| t.node)
            .collect();
        stats.t_nodes = t_nodes.len();
        ledger.charge("phase5-boundary", r as u64);

        // C_0 = valid T-nodes + boundary nodes (unmarked ones).
        let mut c0: Vec<NodeId> = t_nodes.clone();
        c0.extend(boundary.iter().copied().filter(|&v| !marked[v.index()]));
        c0.sort_unstable();
        c0.dedup();
        // Layers through uncolored (unmarked) nodes, truncated at 2r.
        let within: Vec<bool> = h.nodes().map(|v| !marked[v.index()]).collect();
        let c_layering = layers_from_base(&h, &c0, Some(2 * r), Some(&within));
        ledger.charge("phase5-c-layers", 2 * r as u64);

        // --------------------------------------------------------------
        // Phase II (6): leftover components L.
        // --------------------------------------------------------------
        let leftover: Vec<NodeId> = h
            .nodes()
            .filter(|&v| !marked[v.index()] && c_layering.layer_of[v.index()].is_none())
            .collect();
        let happy = h.n() - leftover.len();
        stats.happy_fraction = if h.n() == 0 {
            1.0
        } else {
            happy as f64 / h.n() as f64
        };

        // Transfer marks to the global coloring.
        for v in h.nodes() {
            if marked[v.index()] {
                coloring.set(h_map[v.index()], crate::palette::Color::FIRST);
                marked_local[v.index()] = true;
            }
        }

        if !leftover.is_empty() {
            let comps = leftover_components(&h, &leftover);
            stats.leftover_components = comps.len();
            stats.max_component_size = comps.iter().map(Vec::len).max().unwrap_or(0);
            for comp_local in &comps {
                let comp_global: Vec<NodeId> =
                    comp_local.iter().map(|&v| h_map[v.index()]).collect();
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
        }
        c_layering_local = Some(c_layering);
    }

    // ------------------------------------------------------------------
    // Phase III (7): color C layers in reverse (C_2r .. C_0).
    // ------------------------------------------------------------------
    if let Some(cl) = &c_layering_local {
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
/// DCC components and the union of their nodes.
fn select_b0_dccs(
    g: &Graph,
    config: &RandConfig,
    seed: u64,
    ledger: &mut RoundLedger,
) -> Result<(Vec<Vec<NodeId>>, Vec<NodeId>), ColoringError> {
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
    // Deduplicate selected DCCs by vertex set.
    let mut seen: std::collections::HashSet<Vec<NodeId>> = std::collections::HashSet::new();
    let mut dccs: Vec<Vec<NodeId>> = Vec::new();
    for found in found_all.into_iter().flatten() {
        if seen.insert(found.nodes.clone()) {
            dccs.push(found.nodes);
        }
    }
    if dccs.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    // Virtual graph GDCC: DCCs adjacent if they share a vertex or are
    // joined by an edge of G.
    let mut b = GraphBuilder::new(dccs.len());
    let mut edge_set: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    let mut add = |b: &mut GraphBuilder, x: usize, y: usize| {
        if x != y && edge_set.insert((x.min(y), x.max(y))) {
            b.add_edge(x as u32, y as u32);
        }
    };
    // Shared vertices.
    let mut members_of_node: Vec<Vec<usize>> = vec![Vec::new(); g.n()];
    for (i, d) in dccs.iter().enumerate() {
        for &v in d {
            members_of_node[v.index()].push(i);
        }
    }
    for v in g.nodes() {
        let m = &members_of_node[v.index()];
        for (ai, &x) in m.iter().enumerate() {
            for &y in &m[ai + 1..] {
                add(&mut b, x, y);
            }
        }
    }
    // Adjacent in G.
    for (u, v) in g.edges() {
        for &x in &members_of_node[u.index()] {
            for &y in &members_of_node[v.index()] {
                add(&mut b, x, y);
            }
        }
    }
    let gdcc = b.build();
    // (2, 1)-ruling set of GDCC via Luby MIS; one GDCC round costs
    // 2r + 1 rounds in G: the measured engine round plus a charged
    // remainder of 2r.
    let before = ledger.total();
    let mis = luby_mis(&gdcc, seed ^ 0xdcc, ledger, "phase2-ruling");
    ledger.charge("phase2-ruling", (ledger.total() - before) * 2 * r as u64);
    let chosen: Vec<Vec<NodeId>> = members(&mis)
        .into_iter()
        .map(|i| dccs[i.index()].clone())
        .collect();
    let mut b0_nodes: Vec<NodeId> = chosen.iter().flatten().copied().collect();
    b0_nodes.sort_unstable();
    b0_nodes.dedup();
    Ok((chosen, b0_nodes))
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
    let mut seen: std::collections::HashSet<Vec<NodeId>> = std::collections::HashSet::new();
    let mut dccs: Vec<Vec<NodeId>> = Vec::new();
    for found in found_all.into_iter().flatten() {
        if seen.insert(found.nodes.clone()) {
            dccs.push(found.nodes);
        }
    }

    // Virtual graph CDCC: singletons for free nodes + DCC nodes.
    let k = free.len() + dccs.len();
    if k == 0 {
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
    let mut b = GraphBuilder::new(k);
    let mut owner: Vec<Vec<usize>> = vec![Vec::new(); nn];
    for (i, set) in node_sets.iter().enumerate() {
        for &v in set {
            owner[v.index()].push(i);
        }
    }
    let mut edge_set = std::collections::HashSet::new();
    for lv in sub.nodes() {
        let m = &owner[lv.index()];
        for (ai, &x) in m.iter().enumerate() {
            for &y in &m[ai + 1..] {
                if edge_set.insert((x.min(y), x.max(y))) {
                    b.add_edge(x as u32, y as u32);
                }
            }
        }
    }
    for (u, v) in sub.edges() {
        for &x in &owner[u.index()] {
            for &y in &owner[v.index()] {
                if x != y && edge_set.insert((x.min(y), x.max(y))) {
                    b.add_edge(x as u32, y as u32);
                }
            }
        }
    }
    let cdcc = b.build();
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
    let d0_local: Vec<NodeId> = {
        let mut v: Vec<NodeId> = chosen.iter().flat_map(|s| s.iter().copied()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
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
    // Color D_0: chosen free nodes greedily (slack guaranteed), chosen
    // DCCs via degree-choosability. The chosen sets are pairwise
    // non-adjacent (MIS), so order does not matter.
    for set in chosen {
        if set.len() == 1 && free.binary_search(&set[0]).is_ok() && !is_dcc_set(&dccs, set) {
            let gv = map[set[0].index()];
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

fn is_dcc_set(dccs: &[Vec<NodeId>], set: &[NodeId]) -> bool {
    dccs.iter().any(|d| d.as_slice() == set)
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

/// Multi-source BFS distances within `h` truncated at `max_d`
/// (`u32::MAX` beyond), optionally restricted to a mask.
fn masked_multi_source(
    h: &Graph,
    sources: &[NodeId],
    max_d: usize,
    within: Option<&[bool]>,
) -> Vec<u32> {
    let lay = layers_from_base(h, sources, Some(max_d), within);
    lay.layer_of.iter().map(|o| o.unwrap_or(u32::MAX)).collect()
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
