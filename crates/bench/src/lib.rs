//! Experiment harness for the Δ-coloring reproduction.
//!
//! The paper is a theory paper with no empirical section; the
//! [`experiments`] module lists the table/figure set this harness
//! regenerates (T1–T6 and F1–F9, in [`experiments::ALL`] order), one
//! experiment per theorem, structural lemma, or engine subsystem. Each
//! experiment here returns structured rows and can print itself as an
//! aligned text table and as CSV.

pub mod bench_json;
pub mod experiments;
pub mod table;

pub use table::Table;
