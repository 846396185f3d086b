//! The four workloads. Each builds its graphs from the seed (`setup`),
//! runs one pass through the library's public functions and checks every
//! output (`pass`), and in the traced run probes single layers
//! (`probe_layers`).

use crate::codec;
use crate::{mix, Ctx, Layers};
use delta_coloring::delta::{delta_color_rand, RandConfig};
use delta_coloring::gallai;
use delta_coloring::ruling;
use delta_coloring::verify;
use delta_coloring::PartialColoring;
use delta_graphs::{generators, io, Graph, NodeId};
use local_model::{
    enforce_congest, force_exec_mode, Engine, ExecMode, NodeCtx, Outbox, RoundLedger, ShardedEngine,
};
use std::time::Instant;

/// Nodes of each `rand-rr` graph.
const RR_N: usize = 1 << 16;
/// Random 3-regular graphs checked per `rand-rr` run, at most, for one
/// with a DCC (see [`with_dcc`]).
const RR_DCC_TRIES: u64 = 16;
/// Nodes, degree and count of the `flood-ruling` graphs. Luby's round
/// count moves by whole iterations from seed to seed, so a pass sums
/// several graphs; degree 3 keeps the G^7 balls (382 nodes) well below
/// n, so each ruling set has many members and its relay bits vary
/// little between seeds (on 4-regular graphs the balls cover half the
/// graph and the bits of one call vary by a third).
const FLOOD_N: usize = 1 << 13;
const FLOOD_DEGREE: usize = 3;
const FLOOD_GRAPHS: u64 = 3;
/// Separation of the randomized (Luby on G^7) ruling set.
const RULING_RAND_ALPHA: usize = 8;
/// Separation of the deterministic (ball reach flood) ruling set.
const RULING_DET_ALPHA: usize = 7;
/// Side of the large `round-core` torus (2^20 nodes), and of the small
/// one (2^12 nodes, below `PARALLEL_THRESHOLD`).
const CORE_SIDE: usize = 1 << 10;
const CORE_SMALL_SIDE: usize = 1 << 6;
/// Recolor rounds per `round-core` instance and engine.
const CORE_ROUNDS: usize = 8;
/// Shards of the `round-core` sharded engine.
const CORE_SHARDS: usize = 2;
/// Nodes of the `congest-rand` graph.
const CONGEST_N: usize = 1 << 15;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RandRr,
    FloodRuling,
    RoundCore,
    CongestRand,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RandRr,
        Workload::FloodRuling,
        Workload::RoundCore,
        Workload::CongestRand,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RandRr => "rand-rr",
            Workload::FloodRuling => "flood-ruling",
            Workload::RoundCore => "round-core",
            Workload::CongestRand => "congest-rand",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A workload's generated graphs.
pub enum Inputs {
    RandRr {
        g3: Graph,
        g4: Graph,
    },
    FloodRuling {
        graphs: Vec<Graph>,
    },
    RoundCore {
        instances: Vec<(&'static str, Graph)>,
    },
    CongestRand {
        g: Graph,
    },
}

/// Inputs plus what a workload computes once per run before timing: the
/// LOCAL reference coloring and round count of `congest-rand`.
pub struct Prepared {
    pub seed: u64,
    pub inputs: Inputs,
    pub reference: Option<(PartialColoring, u64)>,
}

pub fn setup(w: Workload, seed: u64, ctx: &Ctx) -> Inputs {
    let _root = ctx.span("setup");
    let rr = |n: usize, d: usize, k: u64| {
        let _s = ctx.span("graphs.random_regular");
        generators::random_regular(n, d, mix(seed, k))
    };
    match w {
        Workload::RandRr => Inputs::RandRr {
            g3: rr(RR_N, 3, 3),
            g4: rr(RR_N, 4, 4),
        },
        Workload::FloodRuling => Inputs::FloodRuling {
            graphs: (0..FLOOD_GRAPHS)
                .map(|k| rr(FLOOD_N, FLOOD_DEGREE, 10 + k))
                .collect(),
        },
        Workload::CongestRand => Inputs::CongestRand {
            g: rr(CONGEST_N, 4, 4),
        },
        Workload::RoundCore => {
            let torus = |side: usize| {
                let _s = ctx.span("graphs.stream_torus");
                io::stream_torus(side, side)
            };
            let rr4 = {
                let _s = ctx.span("graphs.stream_circulant4");
                io::stream_circulant4(CORE_SIDE * CORE_SIDE)
            };
            Inputs::RoundCore {
                instances: vec![
                    ("torus-2^20", torus(CORE_SIDE)),
                    ("rr4-2^20", rr4),
                    ("torus-2^12", torus(CORE_SMALL_SIDE)),
                ],
            }
        }
    }
}

/// One-off work after set-up that the timed passes compare against.
pub fn prepare(inputs: Inputs, seed: u64) -> Result<Prepared, String> {
    let inputs = match inputs {
        Inputs::RandRr { g3, g4 } => Inputs::RandRr {
            g3: with_dcc(g3, seed)?,
            g4,
        },
        other => other,
    };
    let reference = match &inputs {
        Inputs::CongestRand { g } => {
            let mut ledger = RoundLedger::new();
            let (colors, _) = delta_color_rand(g, RandConfig::large_delta(g, seed), &mut ledger)
                .map_err(|e| format!("LOCAL reference run: {e}"))?;
            Some((colors, ledger.total()))
        }
        _ => None,
    };
    Ok(Prepared {
        seed,
        inputs,
        reference,
    })
}

/// `g`, or failing that the first of the next 3-regular graphs built from
/// the seed, that has a DCC within `small_delta`'s detection radius.
/// About one random 3-regular graph in thirty has none (its few short
/// cycles are near Poisson in number, whatever n is); `delta_color_rand`
/// then selects no B_0 component and colors the whole graph through
/// phase 6, with 1.7x the rounds, 4.5x the bits and 3.9x the heaviest
/// edge of the common path. Kept, such graphs would make `rand-rr`'s
/// figures jump between seeds, so the workload measures the common path.
fn with_dcc(mut g: Graph, seed: u64) -> Result<Graph, String> {
    let r = RandConfig::small_delta(&g, seed).r_detect;
    let cap = gallai::dcc_size_cap(g.max_degree());
    for k in 1..=RR_DCC_TRIES {
        let found = gallai::find_dccs_all(&g, r, 2 * r, cap, &mut RoundLedger::new(), "dcc");
        if found.iter().any(Option::is_some) {
            return Ok(g);
        }
        println!("3-regular graph {k} has no DCC; building the next");
        g = generators::random_regular(RR_N, 3, mix(seed, 100 + k));
    }
    Err(format!("none of {RR_DCC_TRIES} 3-regular graphs has a DCC"))
}

/// The CONGEST budget of the `congest-rand` graph.
fn budget(g: &Graph) -> u64 {
    local_model::congest_budget(g.n() as u64)
}

/// One pass: every call the workload makes, every output checked.
/// Returns the pass's ledger.
pub fn pass(p: &Prepared, ctx: &Ctx) -> Result<RoundLedger, String> {
    let _root = ctx.span("pass");
    let mut ledger = ctx.ledger();
    let seed = p.seed;
    match &p.inputs {
        Inputs::RandRr { g3, g4 } => {
            for (g, cfg) in rr_calls(g3, g4, seed) {
                color_and_verify(g, cfg, &mut ledger, ctx)?;
            }
        }
        Inputs::FloodRuling { graphs } => {
            for (k, g) in graphs.iter().enumerate() {
                let before = ledger.bits_sent();
                let set = {
                    let _s = ctx.span("overlay.ruling_set_randomized");
                    let luby_seed = mix(seed, k as u64);
                    ruling::ruling_set_randomized(
                        g,
                        RULING_RAND_ALPHA,
                        luby_seed,
                        &mut ledger,
                        "ruling-g7",
                    )
                };
                ctx.note("overlay.relay_bits", (ledger.bits_sent() - before) as f64);
                check_ruling(g, &set, RULING_RAND_ALPHA, RULING_RAND_ALPHA - 1, ctx)?;
                let set = {
                    let _s = ctx.span("ball.ruling_set_deterministic_alpha");
                    ruling::ruling_set_deterministic_alpha(
                        g,
                        RULING_DET_ALPHA,
                        &mut ledger,
                        "ruling-det",
                    )
                };
                // Bit halving over ceil(log2 n) levels, each dominating
                // within alpha - 1 hops.
                let levels = (usize::BITS - (g.n() - 1).leading_zeros()) as usize;
                check_ruling(
                    g,
                    &set,
                    RULING_DET_ALPHA,
                    (RULING_DET_ALPHA - 1) * levels,
                    ctx,
                )?;
            }
        }
        Inputs::RoundCore { instances } => {
            for (name, g) in instances {
                recolor_both_engines(name, g, seed, &mut ledger, ctx)?;
            }
        }
        Inputs::CongestRand { g } => {
            let budget = budget(g);
            let colors = {
                let _guard = enforce_congest(budget);
                color_and_verify(g, RandConfig::large_delta(g, seed), &mut ledger, ctx)?
            };
            if ledger.congest_violations() != 0 {
                return Err(format!(
                    "{} CONGEST violations",
                    ledger.congest_violations()
                ));
            }
            if ledger.max_edge_bits() > budget {
                return Err(format!(
                    "a wire round carried {} > {budget} bits",
                    ledger.max_edge_bits()
                ));
            }
            let (local_colors, _) = p.reference.as_ref().expect("prepared for congest-rand");
            if &colors != local_colors {
                return Err("fragmentation changed the coloring".into());
            }
        }
    }
    Ok(ledger)
}

/// The two `rand-rr` coloring calls: Theorem 1's small-Δ configuration on
/// the 3-regular graph, Theorem 3's large-Δ one on the 4-regular graph.
fn rr_calls<'a>(g3: &'a Graph, g4: &'a Graph, seed: u64) -> [(&'a Graph, RandConfig); 2] {
    [
        (g3, RandConfig::small_delta(g3, seed)),
        (g4, RandConfig::large_delta(g4, seed)),
    ]
}

fn color_and_verify(
    g: &Graph,
    cfg: RandConfig,
    ledger: &mut RoundLedger,
    ctx: &Ctx,
) -> Result<PartialColoring, String> {
    let (colors, _) = {
        let _s = ctx.span("coloring.delta_color_rand");
        delta_color_rand(g, cfg, ledger).map_err(|e| format!("delta_color_rand: {e}"))?
    };
    let _s = ctx.span("coloring.check_delta_coloring");
    verify::check_delta_coloring(g, &colors).map_err(|e| format!("invalid coloring: {e}"))?;
    Ok(colors)
}

fn check_ruling(
    g: &Graph,
    set: &[NodeId],
    alpha: usize,
    beta: usize,
    ctx: &Ctx,
) -> Result<(), String> {
    let _s = ctx.span("ruling.is_ruling_set");
    if ruling::is_ruling_set(g, set, alpha, beta) {
        Ok(())
    } else {
        Err(format!("not an ({alpha}, {beta}) ruling set"))
    }
}

/// Scrambled 5-palette start colors, so the recoloring starts in heavy
/// conflict.
fn start_color(seed: u64) -> impl Fn(NodeId) -> u8 + Copy {
    move |v| (mix(seed, v.0 as u64) % 5) as u8
}

fn recolor_send(_: &mut NodeCtx<'_>, s: &mut u8, out: &mut Outbox<u8>) {
    out.broadcast(*s);
}

/// F8's conflict resolution: a conflicted node flips a coin and re-picks
/// uniformly among the palette colors no neighbor holds.
fn recolor_recv(ctx: &mut NodeCtx<'_>, s: &mut u8, inbox: &[(NodeId, u8)]) {
    let mut used = [false; 5];
    let mut conflicted = false;
    for &(_, m) in inbox {
        used[m as usize] = true;
        conflicted |= m == *s;
    }
    if conflicted && ctx.random_below(2) == 0 {
        let free = used.iter().filter(|&&u| !u).count();
        if free > 0 {
            let pick = ctx.random_below(free as u64) as usize;
            *s = (0..5u8)
                .filter(|&c| !used[c as usize])
                .nth(pick)
                .expect("pick < free");
        }
    }
}

fn conflicts(g: &Graph, colors: &[u8]) -> u64 {
    g.nodes()
        .flat_map(|v| g.neighbors(v).iter().map(move |&w| (v, w)))
        .filter(|&(v, w)| w.0 > v.0 && colors[v.index()] == colors[w.index()])
        .count() as u64
}

/// Runs the recoloring on `Engine` and on `ShardedEngine`; their final
/// states and message counters must be bit-identical.
fn recolor_both_engines(
    name: &str,
    g: &Graph,
    seed: u64,
    ledger: &mut RoundLedger,
    ctx: &Ctx,
) -> Result<(), String> {
    let init = start_color(seed);
    let mut eng = {
        let _s = ctx.span("engine.new");
        Engine::new(g, seed, init)
    };
    for _ in 0..CORE_ROUNDS {
        let _s = ctx.span("engine.step");
        eng.step(ledger, "recolor", recolor_send, recolor_recv);
    }
    let mut sharded = {
        let _s = ctx.span("shard.new");
        ShardedEngine::contiguous(g, CORE_SHARDS, seed, init)
    };
    for _ in 0..CORE_ROUNDS {
        let _s = ctx.span("shard.step");
        sharded.step(ledger, "recolor", recolor_send, recolor_recv);
    }
    if eng.states() != sharded.states() || eng.message_stats() != sharded.message_stats() {
        return Err(format!("{name}: Engine and ShardedEngine diverged"));
    }
    let start: Vec<u8> = g.nodes().map(init).collect();
    if conflicts(g, eng.states()) >= conflicts(g, &start) {
        return Err(format!("{name}: recoloring resolved no conflict"));
    }
    ctx.note("engine.deliveries", eng.message_stats().deliveries as f64);
    ctx.note(
        "shard.boundary_bits",
        sharded.boundary_stats().block_bits as f64,
    );
    Ok(())
}

/// Runs `f` with every engine forced onto `mode` (`Auto`: no override).
fn under_mode<T>(mode: ExecMode, f: impl FnOnce() -> T) -> T {
    let _guard = (mode != ExecMode::Auto).then(|| force_exec_mode(mode));
    f()
}

/// Seconds of `f`, recorded as a span named `name`.
fn timed<T>(ctx: &Ctx, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _s = ctx.span(name);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Exec modes of the attribution runs, with the span name of each.
const CALL_MODES: [(ExecMode, &str); 3] = [
    (ExecMode::Auto, "coloring.delta_color_rand.auto"),
    (ExecMode::Sequential, "coloring.delta_color_rand.seq"),
    (ExecMode::Parallel, "coloring.delta_color_rand.par"),
];
const STEP_MODES: [(ExecMode, &str); 3] = [
    (ExecMode::Auto, "engine.step.auto"),
    (ExecMode::Sequential, "engine.step.seq"),
    (ExecMode::Parallel, "engine.step.par"),
];

/// Layer probes of the traced run: exec-mode attribution, shard counts,
/// DCC detection, LOCAL vs CONGEST and the wire codec. Fills `layers`
/// with per-layer metrics that the traced pass's spans do not give.
pub fn probe_layers(p: &Prepared, ctx: &Ctx, layers: &mut Layers) -> Result<(), String> {
    let _root = ctx.span("probe");
    let seed = p.seed;
    let cost = match &p.inputs {
        Inputs::RandRr { g3, g4 } => {
            // The coloring calls under each exec mode; the counts must not move.
            let mut secs = [[0.0; 3]; 2];
            for (gi, (g, cfg)) in rr_calls(g3, g4, seed).into_iter().enumerate() {
                let mut counts = Vec::new();
                for (mi, (mode, name)) in CALL_MODES.into_iter().enumerate() {
                    let mut ledger = RoundLedger::new();
                    let (res, s) = timed(ctx, name, || {
                        under_mode(mode, || delta_color_rand(g, cfg, &mut ledger))
                    });
                    let (colors, _) = res.map_err(|e| format!("{name}: {e}"))?;
                    counts.push((colors, crate::Counts::of(&ledger, 1000)));
                    secs[gi][mi] = s;
                }
                if counts.iter().any(|c| c != &counts[0]) {
                    return Err("delta_color_rand differs across exec modes".into());
                }
            }
            layers.insert(
                "engine.auto_over_best_permille",
                auto_over_best(secs.iter().map(|s| (s[0], s[1], s[2]))),
            );
            for (g, cfg) in rr_calls(g3, g4, seed) {
                let r = cfg.r_detect;
                let mut ledger = RoundLedger::new();
                let _s = ctx.span("ball.find_dccs_all");
                let found = gallai::find_dccs_all(
                    g,
                    r,
                    2 * r,
                    gallai::dcc_size_cap(g.max_degree()),
                    &mut ledger,
                    "dcc",
                );
                std::hint::black_box(found);
            }
            codec::measure(&codec::gallai_corpus(seed, RR_N as u64))?
        }
        Inputs::FloodRuling { .. } => codec::measure(&codec::relay_corpus(seed, FLOOD_N as u64))?,
        Inputs::RoundCore { instances } => {
            let init = start_color(seed);
            let mut by_instance = Vec::new();
            for (name, g) in instances {
                let mut secs = [0.0; 3];
                let mut finals = Vec::new();
                for (mi, (mode, span)) in STEP_MODES.into_iter().enumerate() {
                    let mut ledger = RoundLedger::new();
                    let mut eng = Engine::new(g, seed, init);
                    under_mode(mode, || {
                        for _ in 0..CORE_ROUNDS {
                            let (_, s) = timed(ctx, span, || {
                                eng.step(&mut ledger, "recolor", recolor_send, recolor_recv)
                            });
                            secs[mi] += s;
                        }
                    });
                    finals.push(eng.into_states());
                }
                let mut ledger = RoundLedger::new();
                let mut one = ShardedEngine::contiguous(g, 1, seed, init);
                for _ in 0..CORE_ROUNDS {
                    let _s = ctx.span("shard.step.s1");
                    one.step(&mut ledger, "recolor", recolor_send, recolor_recv);
                }
                finals.push(one.into_states());
                if finals.iter().any(|f| f != &finals[0]) {
                    return Err(format!("{name}: final states differ across exec modes"));
                }
                by_instance.push((secs[0], secs[1], secs[2]));
            }
            layers.insert(
                "engine.auto_over_best_permille",
                auto_over_best(by_instance.into_iter()),
            );
            codec::measure(&codec::u8_corpus(seed))?
        }
        Inputs::CongestRand { g } => {
            let cfg = RandConfig::large_delta(g, seed);
            let mut local = RoundLedger::new();
            let (res, local_s) = timed(ctx, "coloring.delta_color_rand.local", || {
                delta_color_rand(g, cfg, &mut local)
            });
            res.map_err(|e| format!("LOCAL run: {e}"))?;
            let mut wire = RoundLedger::new();
            let (res, wire_s) = timed(ctx, "coloring.delta_color_rand.congest", || {
                let _guard = enforce_congest(budget(g));
                delta_color_rand(g, cfg, &mut wire)
            });
            res.map_err(|e| format!("CONGEST run: {e}"))?;
            layers.insert("congest.logical_rounds", local.total() as f64);
            layers.insert("congest.wire_rounds", wire.total() as f64);
            layers.insert("congest.extra_s", wire_s - local_s);
            codec::measure(&codec::chunk_corpus(seed, CONGEST_N as u64, budget(g)))?
        }
    };
    layers.insert("wire.encode_ns_per_bit", cost.encode_ns_per_bit);
    layers.insert("wire.decode_ns_per_bit", cost.decode_ns_per_bit);
    Ok(())
}

/// `1000 · Σ auto / Σ min(seq, par)` over (auto, seq, par) seconds.
fn auto_over_best(times: impl Iterator<Item = (f64, f64, f64)>) -> f64 {
    let (auto, best) = times.fold((0.0, 0.0), |(a, b), (auto, seq, par)| {
        (a + auto, b + seq.min(par))
    });
    1000.0 * auto / best
}
