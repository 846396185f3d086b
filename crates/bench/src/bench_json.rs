//! The `delta-bench-v1` summary (`BENCH_delta.json`): its writer,
//! [`summary_json`], and its one reader, [`Baseline::parse`], which both
//! `experiments --check-baseline` and `trace-summary --check` use.
//!
//! The format is line-oriented: the writer puts each top-level field and
//! each experiment on a line of its own, and the reader finds fields by
//! name on those lines.

use crate::Table;
use std::fmt::Write as _;

/// Renders the summary of an experiment sweep: `(id, table, wall-clock
/// seconds)` per experiment, the sweep's own wall-clock, and the G^7
/// ruling-set peak heaps `(materialized, overlay)` in bytes.
pub fn summary_json(
    results: &[(String, Table, f64)],
    quick: bool,
    total_wall: f64,
    g7_peaks: (u64, u64),
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"delta-bench-v1\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"timing\": \"concurrent\",");
    let _ = writeln!(out, "  \"total_wall_clock_s\": {total_wall:.3},");
    let _ = writeln!(
        out,
        "  \"g7_ruling_peak_bytes\": {{\"materialized\": {}, \"overlay\": {}}},",
        g7_peaks.0, g7_peaks.1
    );
    let total_rounds: u64 = results.iter().map(|(_, t, _)| t.sim_rounds()).sum();
    let _ = writeln!(out, "  \"total_simulated_rounds\": {total_rounds},");
    let max_bits = results
        .iter()
        .map(|(_, t, _)| t.max_edge_bits())
        .max()
        .unwrap_or(0);
    let _ = writeln!(out, "  \"max_edge_bits\": {max_bits},");
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, (id, table, secs)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        // Named metrics (e.g. the fault sweep's recovery counters) are
        // appended after the fixed fields so the line-oriented reader
        // keeps finding them by name.
        let metrics = if table.metrics().is_empty() {
            String::new()
        } else {
            let body = table
                .metrics()
                .iter()
                .map(|(n, v)| format!("\"{n}\": {v}"))
                .collect::<Vec<_>>()
                .join(", ");
            format!(", \"metrics\": {{{body}}}")
        };
        let _ = writeln!(
            out,
            "    {{\"id\": \"{id}\", \"wall_clock_s\": {secs:.3}, \"simulated_rounds\": {}, \"max_edge_bits\": {}, \"rows\": {}{metrics}}}{comma}",
            table.sim_rounds(),
            table.max_edge_bits(),
            table.len(),
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// A parsed summary: the sweep's totals and one entry per experiment.
pub struct Baseline {
    /// Whether the sweep ran at quick-mode scales.
    pub quick: Option<bool>,
    /// The sweep's wall-clock, in seconds.
    pub total_wall_clock_s: Option<f64>,
    /// `g7_ruling_peak_bytes`: `(materialized, overlay)`.
    pub g7_peaks: Option<(u64, u64)>,
    /// The sweep's summed simulated LOCAL rounds.
    pub total_simulated_rounds: Option<u64>,
    /// The experiment lines, in file order.
    pub experiments: Vec<BaselineExp>,
}

/// One experiment line of a summary.
pub struct BaselineExp {
    /// Experiment id (`t1`, `f8`, ...).
    pub id: String,
    /// Wall-clock of the experiment, in seconds.
    pub wall_clock_s: f64,
    /// Simulated LOCAL rounds the experiment charged.
    pub simulated_rounds: Option<u64>,
    /// Heaviest per-edge load any of its rounds carried.
    pub max_edge_bits: Option<u64>,
    /// The named domain metrics (e.g. the fault sweep's recovery
    /// counters), in file order.
    pub metrics: Vec<(String, u64)>,
}

impl Baseline {
    /// Reads a summary [`summary_json`] wrote. Returns `None` when
    /// nothing recognizable is found (foreign or corrupt file) rather
    /// than guessing.
    pub fn parse(text: &str) -> Option<Baseline> {
        /// The value token after `"key":` on `line`, up to the next `,`
        /// or `}`.
        fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
            let rest = line.split_once(&format!("\"{key}\":"))?.1;
            Some(rest.split([',', '}']).next()?.trim())
        }
        fn num<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
            field(line, key)?.parse().ok()
        }
        /// The `"metrics": {...}` object on an experiment line, as
        /// name/value pairs (empty when the line carries none).
        fn metrics_object(line: &str) -> Vec<(String, u64)> {
            let Some(rest) = line.split_once("\"metrics\":") else {
                return Vec::new();
            };
            let Some(body) = rest
                .1
                .split_once('{')
                .and_then(|(_, tail)| tail.split_once('}'))
            else {
                return Vec::new();
            };
            body.0
                .split(',')
                .filter_map(|pair| {
                    let (name, value) = pair.split_once(':')?;
                    Some((
                        name.trim().trim_matches('"').to_string(),
                        value.trim().parse().ok()?,
                    ))
                })
                .collect()
        }
        let mut base = Baseline {
            quick: None,
            total_wall_clock_s: None,
            g7_peaks: None,
            total_simulated_rounds: None,
            experiments: Vec::new(),
        };
        for line in text.lines() {
            if base.g7_peaks.is_none() && line.contains("\"g7_ruling_peak_bytes\"") {
                if let (Some(m), Some(o)) = (num(line, "materialized"), num(line, "overlay")) {
                    base.g7_peaks = Some((m, o));
                }
            }
            if base.quick.is_none() {
                base.quick = field(line, "quick").map(|v| v == "true");
            }
            let id = field(line, "id").and_then(|v| v.strip_prefix('"')?.strip_suffix('"'));
            if id.is_none() {
                base.total_wall_clock_s = base
                    .total_wall_clock_s
                    .or_else(|| num(line, "total_wall_clock_s"));
                base.total_simulated_rounds = base
                    .total_simulated_rounds
                    .or_else(|| num(line, "total_simulated_rounds"));
            }
            if let (Some(id), Some(wall)) = (id, num(line, "wall_clock_s")) {
                base.experiments.push(BaselineExp {
                    id: id.to_string(),
                    wall_clock_s: wall,
                    simulated_rounds: num(line, "simulated_rounds"),
                    max_edge_bits: num(line, "max_edge_bits"),
                    metrics: metrics_object(line),
                });
            }
        }
        if base.experiments.is_empty() && base.total_wall_clock_s.is_none() {
            None
        } else {
            Some(base)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reader_reads_what_the_writer_wrote() {
        let mut a = Table::new("a", &["x"]);
        a.add_sim_rounds(17);
        a.add_max_edge_bits(96);
        a.add_metric("recovered", 4);
        let b = Table::new("b", &["x"]);
        let results = vec![("t1".to_string(), a, 1.5), ("f9".to_string(), b, 0.25)];
        let base = Baseline::parse(&summary_json(&results, true, 2.0, (300, 40))).unwrap();
        assert_eq!(base.quick, Some(true));
        assert_eq!(base.total_wall_clock_s, Some(2.0));
        assert_eq!(base.g7_peaks, Some((300, 40)));
        assert_eq!(base.total_simulated_rounds, Some(17));
        let ids: Vec<&str> = base.experiments.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["t1", "f9"]);
        let t1 = &base.experiments[0];
        assert_eq!(t1.wall_clock_s, 1.5);
        assert_eq!(t1.simulated_rounds, Some(17));
        assert_eq!(t1.max_edge_bits, Some(96));
        assert_eq!(t1.metrics, [("recovered".to_string(), 4)]);
        assert!(base.experiments[1].metrics.is_empty());
        assert!(Baseline::parse("not a summary").is_none());
    }
}
