//! Shared plumbing for the experiment-regeneration binaries and the
//! Criterion benches.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §5 for the index); this library holds the
//! common text-table rendering and the standard evaluation setups so
//! every experiment runs the *same* model configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tdc_core::{CarbonModel, ModelContext};
use tdc_floorplan::PackageModel;

/// A minimal fixed-width text table renderer (no external deps).
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (padded/truncated to the header width).
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let mut row: Vec<String> = row.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let pad = w - cell.chars().count();
                line.push(' ');
                line.push_str(cell);
                line.push_str(&" ".repeat(pad + 1));
                line.push('|');
            }
            line
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The standard model for the DRIVE case study (server/automotive
/// packaging, Taiwan fab, world-average use grid).
#[must_use]
pub fn case_study_model() -> CarbonModel {
    CarbonModel::new(ModelContext::default())
}

/// The model used for the Lakefield validation (mobile packaging).
#[must_use]
pub fn mobile_model() -> CarbonModel {
    CarbonModel::new(
        ModelContext::builder()
            .package(PackageModel::mobile())
            .build(),
    )
}

/// Formats a kg CO₂e value to 3 decimals.
#[must_use]
pub fn kg(value: tdc_units::Co2Mass) -> String {
    format!("{:.3}", value.kg())
}

/// Formats a percentage to 2 decimals.
#[must_use]
pub fn pct(ratio: tdc_units::Ratio) -> String {
    format!("{:.2} %", ratio.percent())
}

/// Formats a `T_c`/`T_r` metric the way the paper's Table 5 does:
/// `∞` for never, `≥0` for immediately favourable, otherwise years.
#[must_use]
pub fn years_metric(t: tdc_units::TimeSpan) -> String {
    if t.is_infinite() {
        "∞".to_owned()
    } else if t.hours() <= 0.0 {
        "≥0".to_owned()
    } else {
        format!("{:.1}", t.years())
    }
}

/// Runs the Fig. 5 sweep (embodied + operational carbon for the
/// original 2D design and every 2-die redesign) for all four DRIVE
/// platforms under the given split strategy, printing one table per
/// platform. Returns the number of invalid (bandwidth-starved)
/// designs, so callers can assert the paper's headline observation.
pub fn fig5_sweep(strategy: tdc_workloads::SplitStrategy) -> usize {
    use tdc_workloads::{av_workload, candidate_designs, DriveSeries};
    let model = case_study_model();
    let mut invalid_count = 0;
    for platform in DriveSeries::ALL {
        let spec = platform.spec();
        let workload = av_workload(spec.required_throughput);
        println!(
            "\n{} ({}, {:.1} B gates, requires {:.0} TOPS, needs {:.1} Tb/s):\n",
            spec.name,
            spec.node,
            spec.gate_count / 1.0e9,
            spec.required_throughput.tops(),
            workload.required_bandwidth().tbps()
        );
        let mut table = TextTable::new(vec![
            "design",
            "embodied (kg)",
            "operational (kg)",
            "total (kg)",
            "achieved BW (Tb/s)",
            "status",
        ]);
        let candidates = candidate_designs(&spec, strategy).expect("valid candidates");
        for (label, design) in candidates {
            match model.lifecycle(&design, &workload) {
                Ok(report) => {
                    let bw = report
                        .operational
                        .achieved_bandwidth
                        .map_or("-".to_owned(), |b| format!("{:.1}", b.tbps()));
                    let status = if report.operational.is_viable() {
                        "valid".to_owned()
                    } else {
                        invalid_count += 1;
                        format!(
                            "INVALID (×{:.2} runtime)",
                            report.operational.runtime_stretch
                        )
                    };
                    table.push_row(vec![
                        label,
                        kg(report.embodied.total()),
                        kg(report.operational.carbon),
                        kg(report.total()),
                        bw,
                        status,
                    ]);
                }
                Err(e) => {
                    table.push_row(vec![
                        label,
                        "-".to_owned(),
                        "-".to_owned(),
                        "-".to_owned(),
                        "-".to_owned(),
                        format!("error: {e}"),
                    ]);
                }
            }
        }
        table.print();
    }
    invalid_count
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_units::{Co2Mass, Ratio, TimeSpan};

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a", "long header"]);
        t.push_row(vec!["1", "2"]);
        t.push_row(vec!["wide cell", "x"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        let w = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == w), "{s}");
    }

    #[test]
    fn row_resizing() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.push_row(vec!["only one"]);
        let s = t.render();
        assert!(s.contains("only one"));
    }

    #[test]
    fn formatters() {
        assert_eq!(kg(Co2Mass::from_kg(1.23456)), "1.235");
        assert_eq!(pct(Ratio::from_percent(23.694)), "23.69 %");
        assert_eq!(years_metric(TimeSpan::INFINITE), "∞");
        assert_eq!(years_metric(TimeSpan::ZERO), "≥0");
        assert_eq!(years_metric(TimeSpan::from_years(21.96)), "22.0");
    }

    #[test]
    fn standard_models_construct() {
        let _ = case_study_model();
        let _ = mobile_model();
    }
}
