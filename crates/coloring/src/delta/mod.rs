//! The paper's Δ-coloring algorithms.
//!
//! * [`det`] — Theorem 4: deterministic Δ-coloring via a ruling-forest
//!   base layer, layered `(deg+1)`-list coloring, and Theorem 5 repairs.
//! * [`rand`] — Theorems 1 and 3: randomized Δ-coloring via DCC removal,
//!   the marking process (T-nodes), shattering, and layered completion.

pub mod auto;
pub mod det;
pub mod netdecomp;
pub mod rand;
pub mod slocal;

pub use auto::{delta_color, Strategy};
pub use det::{delta_color_det, DetConfig, DetStats};
pub use netdecomp::{delta_color_netdecomp, NetDecompStats};
pub use rand::{
    delta_color_rand, shattering_probe, ComponentRuling, RandConfig, RandStats, ShatterProbe,
};
pub use slocal::{delta_color_slocal, slocal_locality_bound, SlocalStats};
