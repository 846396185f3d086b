//! Serial wall-clock benchmark of the Δ-coloring simulator.
//!
//! ```text
//! perfbench --workload <rand-rr|flood-ruling|round-core|congest-rand>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload, one pass at a time; the only threads
//! are the engine's own. Set-up builds the workload's graphs from the
//! seed many times, before the passes and between them (`setup_s` is the
//! median build). With `--trace 0`
//! a warm-up pass is followed by timed passes for `--seconds` seconds and
//! the end-to-end metrics are medians over them. With `--trace 1` timed
//! untraced and traced passes alternate (the traced one with
//! `Tracer::collecting` on its ledger and the benchmark's own spans
//! around each call into a library layer), then the layer probes run, and
//! the per-layer metrics are printed; the spans are written to
//! `perfbench/out/<workload>-seed<seed>.spans.jsonl`.
//!
//! Every pass checks its outputs, and its exact simulated counts must
//! equal the first pass's and, for a recorded seed, the recorded values.
//! A pass that panics or fails a check counts in `failed`. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod alloc;
mod codec;
mod recorded;
mod spans;
mod workloads;

use local_model::{RoundLedger, Tracer};
use spans::{Guard, SpanAgg, Spans};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workloads::{Prepared, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seconds of repeated graph builds before the passes and after each
/// timed pass; `setup_s` is the median build (one build takes
/// milliseconds, so a single short window would sample a single burst of
/// host noise).
const SETUP_SECONDS: f64 = 0.5;
const SETUP_SECONDS_PER_PASS: f64 = 0.2;
/// Timed passes per run, at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: perfbench --workload <rand-rr|flood-ruling|round-core|congest-rand> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Ledger phases of `delta_color_rand`, reported as `coloring.rounds.<phase>`;
/// rounds of any other phase go to `coloring.rounds.other`.
const PHASES: [&str; 14] = [
    "phase1-dcc-detect",
    "phase2-ruling",
    "phase3-b-layers",
    "phase4-marking",
    "phase5-boundary",
    "phase5-c-layers",
    "phase6-cdcc",
    "phase6-ruling",
    "phase6-d-layers",
    "phase6-d0",
    "phase6-d-coloring",
    "phase7-c-coloring",
    "phase8-b-coloring",
    "phase9-b0",
];

/// SplitMix64 of `(seed, i)`: the benchmark's only source of randomness.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// The exact simulated counts of one pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub rounds: u64,
    pub bits: u64,
    pub max_edge_bits: u64,
    pub blowup_permille: u64,
}

impl Counts {
    pub fn of(ledger: &RoundLedger, blowup_permille: u64) -> Self {
        Counts {
            rounds: ledger.total(),
            bits: ledger.bits_sent(),
            max_edge_bits: ledger.max_edge_bits(),
            blowup_permille,
        }
    }
}

/// What a pass can reach: the trace, the span recorder and named
/// per-pass counters. All of it is inert in untraced passes.
pub struct Ctx {
    tracer: Tracer,
    spans: Spans,
    notes: RefCell<BTreeMap<&'static str, f64>>,
}

impl Ctx {
    fn new(traced: bool) -> Self {
        Ctx {
            tracer: if traced {
                Tracer::collecting()
            } else {
                Tracer::disabled()
            },
            spans: Spans::new(traced),
            notes: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn ledger(&self) -> RoundLedger {
        self.tracer.ledger()
    }

    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.spans.enter(name)
    }

    /// Adds `v` to the counter `name` (traced passes only).
    pub fn note(&self, name: &'static str, v: f64) {
        if self.spans.is_on() {
            *self.notes.borrow_mut().entry(name).or_default() += v;
        }
    }

    fn noted(&self, name: &str) -> f64 {
        self.notes.borrow().get(name).copied().unwrap_or(0.0)
    }
}

/// Per-layer metrics the layer probes measure directly.
pub type Layers = BTreeMap<&'static str, f64>;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = recorded::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Attempts and failures of one run, and the counts every pass must
/// reproduce.
struct Tally {
    workload: Workload,
    seed: u64,
    attempted: u64,
    failed: u64,
    first: Option<Counts>,
}

impl Tally {
    fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {} seed {}: {why}", self.workload.name(), self.seed);
    }

    /// Runs `f` as one attempt; a panic or an error is a failure.
    fn attempt<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(&e);
                None
            }
            Err(_) => {
                self.fail("panicked");
                None
            }
        }
    }

    /// One pass: its ledger's counts must match the first pass's and the
    /// recorded ones.
    fn pass(&mut self, p: &Prepared, ctx: &Ctx) -> Option<(Counts, RoundLedger)> {
        let ledger = self.attempt(|| workloads::pass(p, ctx))?;
        let blowup = match &p.reference {
            Some((_, local_rounds)) => ledger.blowup_permille(*local_rounds),
            None => 1000,
        };
        let counts = Counts::of(&ledger, blowup);
        let expect = *self.first.get_or_insert(counts);
        let recorded = recorded::lookup(self.workload.name(), self.seed);
        if counts != expect || recorded.is_some_and(|r| r != counts) {
            self.fail(&format!(
                "counts {counts:?} differ from {:?}",
                recorded.unwrap_or(expect)
            ));
            return None;
        }
        Some((counts, ledger))
    }
}

/// Name, value (`None`: does not apply to this workload) and unit.
type Metric = (String, Option<f64>, &'static str);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} (default seed {}, held-out seed {}), {} s, trace {}",
        args.workload.name(),
        args.seed,
        recorded::DEFAULT_SEED,
        recorded::HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tally = Tally {
        workload: args.workload,
        seed: args.seed,
        attempted: 0,
        failed: 0,
        first: None,
    };
    let metrics = if args.trace {
        traced_run(&args, &mut tally)
    } else {
        untraced_run(&args, &mut tally)
    };
    for (name, value, unit) in &metrics {
        match value {
            Some(v) => println!("{name:<40} {v:>16.6} {unit}"),
            None => println!("{name:<40} {:>16} {unit}", "n/a"),
        }
    }
    println!("{}", to_json(&tally, &metrics));
}

fn to_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Builds the inputs again and again for `secs` seconds (once when `secs`
/// is 0), adding each build time to `times`; returns the last build.
fn timed_setup(args: &Args, ctx: &Ctx, secs: f64, times: &mut Vec<f64>) -> workloads::Inputs {
    let mut inputs = None;
    let start = Instant::now();
    while inputs.is_none() || start.elapsed().as_secs_f64() < secs {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(workloads::setup(args.workload, args.seed, ctx));
        times.push(t.elapsed().as_secs_f64());
    }
    inputs.expect("built at least once")
}

fn untraced_run(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let ctx = Ctx::new(false);
    let mut setups = Vec::new();
    let inputs = timed_setup(args, &ctx, SETUP_SECONDS, &mut setups);
    let Some(p) = tally.attempt(|| workloads::prepare(inputs, args.seed)) else {
        return Vec::new();
    };
    // Warm-up: fills caches and the engines' lazily built scratch.
    tally.pass(&p, &ctx);
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let mut counts = None;
    let start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let base = alloc::reset_peak();
        let t = Instant::now();
        let out = tally.pass(&p, &ctx);
        let wall = t.elapsed().as_secs_f64();
        if let Some((c, _)) = out {
            walls.push(wall);
            peaks.push((alloc::peak() - base) as f64 / (1 << 20) as f64);
            counts = Some(c);
        }
        if tally.failed > 0 && walls.is_empty() && tally.attempted > 4 {
            break;
        }
        // The host's speed drifts over seconds; builds between the passes
        // give `setup_s` the same span of the run as `wall_s`.
        drop(timed_setup(args, &ctx, SETUP_SECONDS_PER_PASS, &mut setups));
    }
    let wall_s = median(&mut walls);
    let setup_s = median(&mut setups);
    let c = counts.unwrap_or(Counts {
        rounds: 0,
        bits: 0,
        max_edge_bits: 0,
        blowup_permille: 0,
    });
    let pass_frac = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    let m = |name: &str, v: f64, unit| (name.to_string(), Some(v), unit);
    vec![
        m("wall_s", wall_s, "s"),
        m("setup_s", setup_s, "s"),
        m("peak_heap_mib", median(&mut peaks), "MiB"),
        m("sim_mbits_per_s", c.bits as f64 / wall_s / 1e6, "Mbit/s"),
        m("sim_rounds", c.rounds as f64, "count"),
        m("sim_bits", c.bits as f64, "bit"),
        m("max_edge_bits", c.max_edge_bits as f64, "bit"),
        m(
            "congest_blowup_permille",
            c.blowup_permille as f64,
            "permille",
        ),
        m("pass_frac", pass_frac, "fraction"),
    ]
}

fn traced_run(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let off = Ctx::new(false);
    let on = Ctx::new(true);
    let inputs = timed_setup(args, &on, 0.0, &mut Vec::new());
    let Some(p) = tally.attempt(|| workloads::prepare(inputs, args.seed)) else {
        return Vec::new();
    };
    tally.pass(&p, &off);
    // Alternate untraced and traced passes on the same inputs.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        if tally.pass(&p, &off).is_some() {
            plain.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        if let Some(out) = tally.pass(&p, &on) {
            traced.push(t.elapsed().as_secs_f64());
            last = Some(out);
        }
        if traced.is_empty() && tally.failed > 4 {
            break;
        }
    }
    let mut layers = Layers::default();
    tally.attempt(|| workloads::probe_layers(&p, &on, &mut layers));

    let agg = on.spans.aggregate();
    print_self_times(&agg);
    write_spans(args, &on.spans);
    let span = |name: &str| agg.get(name).copied().unwrap_or_default();
    let mean = |name: &str| (span(name).count > 0).then(|| span(name).mean_s());
    let layer = |name: &str| layers.get(name).copied();
    let passes = traced.len().max(1) as f64;
    let (counts, phases) = match &last {
        Some((c, l)) => (Some(*c), l.by_phase()),
        None => (None, Vec::new()),
    };

    let mut out: Vec<Metric> = Vec::new();
    let mut m = |name: &str, v: Option<f64>, unit| out.push((name.to_string(), v, unit));
    let us = |v: Option<f64>| v.map(|s| s * 1e6);
    m("engine.round_us", us(mean("engine.step")), "us");
    m(
        "engine.ns_per_msg",
        mean("engine.step")
            .map(|_| span("engine.step").total_ns as f64 / on.noted("engine.deliveries")),
        "ns",
    );
    m("engine.round_us.seq", us(mean("engine.step.seq")), "us");
    m("engine.round_us.par", us(mean("engine.step.par")), "us");
    m(
        "engine.auto_over_best_permille",
        layer("engine.auto_over_best_permille"),
        "permille",
    );
    m("shard.round_us", us(mean("shard.step")), "us");
    m("shard.round_us.s1", us(mean("shard.step.s1")), "us");
    m(
        "shard.boundary_kbits_per_round",
        mean("shard.step")
            .map(|_| on.noted("shard.boundary_bits") / 1e3 / span("shard.step").count as f64),
        "kbit",
    );
    m(
        "overlay.ruling_s",
        mean("overlay.ruling_set_randomized"),
        "s",
    );
    m(
        "overlay.relay_gbits",
        mean("overlay.ruling_set_randomized").map(|_| {
            on.noted("overlay.relay_bits")
                / 1e9
                / span("overlay.ruling_set_randomized").count as f64
        }),
        "Gbit",
    );
    m(
        "ball.reach_s",
        mean("ball.ruling_set_deterministic_alpha"),
        "s",
    );
    m("ball.dcc_detect_s", mean("ball.find_dccs_all"), "s");
    // Without enforcement a logical round is one wire round.
    let rounds = counts.map(|c| c.rounds as f64);
    m(
        "congest.logical_rounds",
        layer("congest.logical_rounds").or(rounds),
        "count",
    );
    m(
        "congest.wire_rounds",
        layer("congest.wire_rounds").or(rounds),
        "count",
    );
    m(
        "congest.extra_s",
        layer("congest.extra_s").or(Some(0.0)),
        "s",
    );
    m(
        "wire.encode_ns_per_bit",
        layer("wire.encode_ns_per_bit"),
        "ns",
    );
    m(
        "wire.decode_ns_per_bit",
        layer("wire.decode_ns_per_bit"),
        "ns",
    );
    let colors = mean("coloring.delta_color_rand");
    m("coloring.rand_s", colors, "s");
    m(
        "coloring.verify_s",
        mean("coloring.check_delta_coloring"),
        "s",
    );
    let phase_rounds = |name: &str| {
        phases
            .iter()
            .find(|(p, _)| p == name)
            .map_or(0, |(_, r)| *r)
    };
    for phase in PHASES {
        let v = colors.map(|_| phase_rounds(phase) as f64);
        m(&format!("coloring.rounds.{phase}"), v, "count");
    }
    let other: u64 = phases
        .iter()
        .filter(|(p, _)| !PHASES.contains(&p.as_str()))
        .map(|(_, r)| r)
        .sum();
    m(
        "coloring.rounds.other",
        colors.map(|_| other as f64),
        "count",
    );
    let gen_ns: u64 = agg
        .iter()
        .filter(|(name, _)| name.starts_with("graphs."))
        .map(|(_, a)| a.total_ns)
        .sum();
    m("graphs.gen_s", Some(gen_ns as f64 / 1e9), "s");
    m(
        "trace.overhead_permille",
        Some(1000.0 * median(&mut traced) / median(&mut plain)),
        "permille",
    );
    m(
        "trace.records",
        Some(on.tracer.totals().records as f64 / passes),
        "count",
    );
    out
}

fn print_self_times(agg: &BTreeMap<&'static str, SpanAgg>) {
    println!(
        "{:<40} {:>8} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, a) in agg {
        println!(
            "{name:<40} {:>8} {:>12.6} {:>12.6}",
            a.count,
            a.total_ns as f64 / 1e9,
            a.self_ns as f64 / 1e9
        );
    }
}

/// Writes the traced run's spans next to the benchmark's sources.
fn write_spans(args: &Args, spans: &Spans) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    let res = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans.to_jsonl()));
    if let Err(e) = res {
        eprintln!("could not write {}: {e}", path.display());
    }
}
