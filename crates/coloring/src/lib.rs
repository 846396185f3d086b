//! # delta-coloring
//!
//! A faithful implementation of **"Improved Distributed Δ-Coloring"**
//! (Ghaffari, Hirvonen, Kuhn, Maus; PODC 2018) on top of the
//! LOCAL-model message-passing engine in the `local-model` crate: the
//! round-structured substrates (Luby MIS, Linial color reduction,
//! randomized list coloring, color-class reduction, the marking
//! process) execute as node programs with broadcast and per-neighbor
//! messages, and every algorithm charges its LOCAL rounds to a
//! [`local_model::RoundLedger`].
//!
//! By Brooks' theorem, every connected graph that is neither a complete
//! graph nor an odd cycle admits a coloring with Δ colors (the maximum
//! degree) — one color fewer than the trivial greedy bound. Computing
//! such a coloring *distributively* is fundamentally harder than
//! `(Δ+1)`-coloring: partial Δ-colorings cannot always be extended
//! without recoloring. This crate implements the paper's algorithms and
//! every substrate they stand on:
//!
//! Every message the engines carry implements
//! [`local_model::WireCodec`] — a bit-exact wire format with its exact
//! size — and the engine charges each transmission's size, so every
//! run reports its CONGEST-style bandwidth footprint alongside its
//! round count. Since the
//! ball-collection subsystem ([`local_model::ball`]) landed, the
//! neighborhood-inspection phases execute as real message-passing
//! programs too: ruling sets flood candidate ids level by level
//! (`local_model::run_reach_phase`), the marking process runs its
//! backoff flood, radius-2 pick probes, and mark placement on the
//! engine, and DCC detection assembles radius-`r` views from relayed
//! adjacency certificates ([`gallai::find_dccs_all`]) — their rounds
//! and per-edge bits in the tables are **measured**, not estimated.
//! Since the virtual-topology overlay ([`local_model::overlay`])
//! landed, phases on **derived topologies** execute through the host
//! engine too: Luby MIS on `G^{α-1}` runs on the `PowerOverlay` (one
//! virtual round = `α-1` measured relay rounds; no power graph is ever
//! materialized), the randomized driver's remainder-graph marking and
//! per-component CDCC detection run on the `InducedOverlay`
//! (non-members silent), and the layering technique colors its todo
//! subgraphs the same way. The table below classifies each module
//! against the `O(log n)` per-edge budget and says both how it executes
//! under CONGEST enforcement (`congest-feasible` messages fit the
//! budget natively; `congest-enforced` ones run fragmented onto it by
//! [`local_model::congest`] while a [`local_model::enforce_congest`]
//! guard is live) and how its numbers are obtained. Verdicts marked
//! [^split] are measured; the others follow from the message types'
//! docs (a headline driver inherits the verdict of its phases). What a
//! run really sent is in its trace, where `trace-summary` gives each
//! phase's engine rounds and heaviest per-edge load:
//!
//! | Module | Contents | Paper reference | Bandwidth | CONGEST execution | Measurement |
//! |---|---|---|---|---|---|
//! | [`palette`] | colors, partial colorings, lists, validity checks | — | — | — | — |
//! | [`linial`] | `O(Δ²)` coloring in `O(log* n)` rounds | \[Lin92\], used for symmetry breaking | CONGEST-feasible[^split] | congest-feasible | engine (measured) |
//! | [`reduce`] | color-class reduction to `Δ+1` | — | CONGEST-feasible[^split] | congest-feasible | engine (measured) |
//! | [`mis`] | Luby's MIS, on the host graph and on the `G^k` overlay | Lemma 20 substrate | CONGEST-feasible (host)[^split]; LOCAL-only on overlays | congest-feasible | engine (measured) |
//! | [`ruling`] | ruling sets and ruling forests | Lemma 20 | LOCAL-only (power-graph relays) | congest-enforced | engine (measured): bit-halving reach-floods + Luby on the `G^k` overlay |
//! | [`list_coloring`] | `(deg+1)`-list coloring, randomized & deterministic | Theorems 18, 19 | CONGEST-feasible[^split] | congest-feasible | engine (measured); randomized also on the induced overlay |
//! | [`gallai`] | degree-choosable components, Gallai trees, the degree-list solver | Definitions 6–9, Theorem 8 | LOCAL-only (ball relays)[^split] | congest-enforced | engine (measured) via [`gallai::find_dccs_all`]; masked runs through [`local_model::run_ball_phase`] on the induced overlay |
//! | [`brooks`] | sequential Brooks & the distributed Brooks repair | Theorem 5, Lemma 16 | LOCAL-only (ball probes) | congest-enforced | mixed: radius-2 probe engine-backed, deepening + walk central |
//! | [`layering`] | the layering technique | Section 3 | CONGEST-feasible (engine rounds are list coloring) | congest-feasible | mixed: todo-subgraph coloring on the induced overlay, BFS waves central |
//! | [`marking`] | the marking process and T-nodes | Section 2.2, phase (4) | LOCAL-only (backoff flood) | congest-enforced | engine (measured), on the induced overlay given a member mask ([`marking::marking_process`]) |
//! | [`decomp`] | MPX network decomposition | \[PS92\]/\[AGLP89\] substitute | — (sends nothing) | — | central (charged) |
//! | [`delta`] | the headline algorithms | Theorems 1, 3, 4 | LOCAL-only (inherit detection/repairs) | congest-enforced | mixed |
//! | [`baseline`] | `(Δ+1)` baseline and a PS-style Δ-coloring baseline | \[PS92, PS95\] | — | — | mixed |
//! | [`verify`] | end-to-end validity checking, full violation reports | — | — | — | — |
//! | [`repair`] | detection + self-healing of damaged colorings | Theorem 5, Lemma 16 | LOCAL-only (ball probes) | congest-enforced | mixed: inherits the Brooks repair |
//!
//! [^split]: Asserted by `substrates_split_as_documented`
//!     (`tests/wire_roundtrip.rs`), which runs each substrate with and
//!     without an `enforce_congest(congest_budget(n))` guard: a
//!     CONGEST-feasible one charges exactly its LOCAL rounds with no
//!     violation and no edge over the budget, and radius-2 ball
//!     collection (`run_ball_phase`, [`gallai::find_dccs_all`]) dilates.
//!
//! Phases that remain genuinely centralized (with charged round
//! estimates): the layering/boundary BFS waves, MPX decomposition, the
//! leader simulation of the virtual minor graphs of phases (2)/(6)
//! (their nodes are *sets* of host nodes, so they are not induced
//! subgraphs: the GDCC/CDCC rulings run Luby on the engine over the
//! materialized minor, and the extra host rounds each of its rounds
//! would cost are charged), and the Brooks repair's deep doubling
//! probes and token walk. Charged phases are untouched by CONGEST
//! enforcement (no wire traffic to fragment); everything
//! engine-backed runs through [`local_model::compile`], so a single
//! `enforce_congest` guard around a headline driver yields a run whose
//! ledger counts honest `O(log n)`-bit wire rounds with **zero**
//! congest violations and the bit-identical coloring.
//!
//! # Quickstart
//!
//! ```
//! use delta_coloring::delta::{delta_color_rand, RandConfig};
//! use delta_coloring::verify::check_delta_coloring;
//! use delta_graphs::generators;
//! use local_model::RoundLedger;
//!
//! // A random 4-regular graph: Δ-colorable with 4 colors by Brooks.
//! let g = generators::random_regular(500, 4, 42);
//! let mut ledger = RoundLedger::new();
//! let config = RandConfig::large_delta(&g, 42);
//! let (coloring, stats) = delta_color_rand(&g, config, &mut ledger).unwrap();
//! check_delta_coloring(&g, &coloring).unwrap();
//! println!("colored in {} simulated LOCAL rounds ({} attempts)", ledger.total(), stats.attempts);
//! ```

pub mod baseline;
pub mod brooks;
pub mod decomp;
pub mod delta;
pub mod gallai;
pub mod layering;
pub mod linial;
pub mod list_coloring;
pub mod marking;
pub mod mis;
pub mod palette;
pub mod reduce;
pub mod repair;
pub mod ruling;
pub mod verify;

pub use palette::{Color, ColoringError, Lists, PartialColoring};
