//! Minimal aligned-table / CSV rendering for experiment output.

use std::fmt::Write as _;

/// A simple column-aligned table that can also serialize itself as CSV,
/// carrying the total simulated LOCAL rounds its experiment charged.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    sim_rounds: u64,
    max_edge_bits: u64,
    metrics: Vec<(String, u64)>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            sim_rounds: 0,
            max_edge_bits: 0,
            metrics: Vec::new(),
        }
    }

    /// Meters a ledger: its simulated rounds add to the table's total,
    /// and its heaviest per-edge-per-round load folds into the table's
    /// maximum across all runs of the experiment.
    pub fn meter_ledger(&mut self, ledger: &local_model::RoundLedger) {
        self.sim_rounds += ledger.total();
        self.max_edge_bits = self.max_edge_bits.max(ledger.max_edge_bits());
    }

    /// Accumulates a named counter (summed across calls, created on
    /// first use). Experiments use these for domain metrics beyond
    /// rounds and bits — e.g. the fault sweep's injected faults,
    /// detected violations, repair rounds, and colors changed — and the
    /// summary JSON emits them per experiment.
    pub fn add_metric(&mut self, name: &str, value: u64) {
        if let Some(m) = self.metrics.iter_mut().find(|(n, _)| n == name) {
            m.1 += value;
        } else {
            self.metrics.push((name.to_string(), value));
        }
    }

    /// The named counters accumulated via [`Table::add_metric`], in
    /// first-seen order.
    pub fn metrics(&self) -> &[(String, u64)] {
        &self.metrics
    }

    /// Total simulated LOCAL rounds charged while producing this table.
    pub fn sim_rounds(&self) -> u64 {
        self.sim_rounds
    }

    /// Heaviest per-edge-per-round load observed while producing this
    /// table (0 when no engine rounds ran).
    pub fn max_edge_bits(&self) -> u64 {
        self.max_edge_bits
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut width: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], width: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &width));
        let total: usize = width.iter().sum::<usize>() + 2 * (width.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &width));
        }
        out
    }

    /// Renders the CSV form (header + rows) through the csv writer —
    /// the single serialization path the binary also uses.
    pub fn to_csv(&self) -> String {
        let mut w = csv::Writer::from_writer(Vec::new());
        w.write_record(&self.header)
            .expect("in-memory write cannot fail");
        for row in &self.rows {
            w.write_record(row).expect("in-memory write cannot fail");
        }
        String::from_utf8(w.into_inner()).expect("csv output is utf8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["n", "rounds"]);
        t.row(vec!["1024".into(), "37".into()]);
        t.row(vec!["8".into(), "5".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("1024"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["h,i".into(), "pla\"in".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"h,i\""));
        assert!(csv.contains("\"pla\"\"in\""));
    }

    #[test]
    fn metrics_accumulate_by_name() {
        let mut t = Table::new("x", &["a"]);
        assert!(t.metrics().is_empty());
        t.add_metric("faults", 3);
        t.add_metric("repairs", 1);
        t.add_metric("faults", 2);
        assert_eq!(
            t.metrics(),
            &[("faults".to_string(), 5), ("repairs".to_string(), 1)]
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
