//! The `delta-bench-v1` summary (`BENCH_delta.json`): its writer,
//! [`summary_json`], and its one reader, [`Baseline::parse`], which
//! `trace-summary --check` uses.
//!
//! The summary holds only values a rerun reproduces: simulated rounds,
//! `max_edge_bits`, row counts, the experiments' exact counters and the
//! G^7 ruling-set peak heaps. A full sweep rewrites the committed file,
//! so `git diff` is the comparison against the previous revision.
//!
//! The format is line-oriented: the writer puts each top-level field and
//! each experiment on a line of its own, and the reader finds fields by
//! name on those lines.

use crate::Table;
use std::fmt::Write as _;

/// Renders the summary of an experiment sweep: `(id, table)` per
/// experiment and the G^7 ruling-set peak heaps `(materialized,
/// overlay)` in bytes.
pub fn summary_json(results: &[(&str, &Table)], quick: bool, g7_peaks: (u64, u64)) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"delta-bench-v1\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(
        out,
        "  \"g7_ruling_peak_bytes\": {{\"materialized\": {}, \"overlay\": {}}},",
        g7_peaks.0, g7_peaks.1
    );
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, (id, table)) in results.iter().enumerate() {
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
            "    {{\"id\": \"{id}\", \"simulated_rounds\": {}, \"max_edge_bits\": {}, \"rows\": {}{metrics}}}{comma}",
            table.sim_rounds(),
            table.max_edge_bits(),
            table.len(),
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// What a summary records for one experiment.
pub struct Baseline {
    /// Experiment id (`t1`, `f8`, ...).
    pub id: String,
    /// Simulated LOCAL rounds the experiment charged.
    pub simulated_rounds: Option<u64>,
    /// Heaviest per-edge load any of its rounds carried.
    pub max_edge_bits: Option<u64>,
}

impl Baseline {
    /// Reads the experiment lines of a summary [`summary_json`] wrote,
    /// in file order: every line with an `id` is one. A foreign or
    /// corrupt file yields none.
    pub fn parse(text: &str) -> Vec<Baseline> {
        /// The value token after `"key":` on `line`, up to the next `,`
        /// or `}`.
        fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
            let rest = line.split_once(&format!("\"{key}\":"))?.1;
            Some(rest.split([',', '}']).next()?.trim())
        }
        fn num(line: &str, key: &str) -> Option<u64> {
            field(line, key)?.parse().ok()
        }
        text.lines()
            .filter_map(|line| {
                let id = field(line, "id")?.strip_prefix('"')?.strip_suffix('"')?;
                Some(Baseline {
                    id: id.to_string(),
                    simulated_rounds: num(line, "simulated_rounds"),
                    max_edge_bits: num(line, "max_edge_bits"),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reader_reads_what_the_writer_wrote() {
        let mut a = Table::new("a", &["x"]);
        let mut ledger = local_model::RoundLedger::new();
        ledger.charge("central", 16);
        ledger.charge_round("engine", 200, 96, 0, None);
        a.meter_ledger(&ledger);
        a.add_metric("recovered", 4);
        let b = Table::new("b", &["x"]);
        let results = [("t1", &a), ("f9", &b)];
        let text = summary_json(&results, true, (300, 40));
        // Only values a rerun reproduces: no clock reading, and the same
        // results write the same bytes.
        assert!(!text.contains("wall") && !text.contains("timing"), "{text}");
        assert_eq!(text, summary_json(&results, true, (300, 40)));
        let base = Baseline::parse(&text);
        let ids: Vec<&str> = base.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["t1", "f9"]);
        assert_eq!(base[0].simulated_rounds, Some(17));
        assert_eq!(base[0].max_edge_bits, Some(96));
        assert_eq!(base[1].simulated_rounds, Some(0));
        assert!(Baseline::parse("not a summary").is_empty());
    }
}
