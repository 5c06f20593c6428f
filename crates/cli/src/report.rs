//! Report rendering: every CLI command's result in `table`, `json`,
//! or `csv` form.
//!
//! All renderers are pure `&data -> String` functions, so they are
//! trivially testable and — crucially for the sweep path — produce
//! **byte-identical output for identical inputs**: a warm sweep
//! renders exactly the bytes a cold one does, because the ranked
//! entries themselves are identical.

use crate::table::TextTable;
use tdc_core::explore::{ExploreReport, FrontierEntry};
use tdc_core::sensitivity::SensitivityEntry;
use tdc_core::service::EvalResponse;
use tdc_core::sweep::SweepEntry;
use tdc_core::{ChoiceOutcome, ComparisonReport, EmbodiedBreakdown, LifecycleReport};
use tdc_integration::IntegrationTechnology;
use tdc_registry::json::JsonValue;
use tdc_units::TimeSpan;

/// The output format of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable fixed-width tables (the default).
    #[default]
    Table,
    /// Pretty-printed JSON.
    Json,
    /// RFC-4180-style comma-separated values.
    Csv,
}

impl OutputFormat {
    /// Parses a `--format` token.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Self> {
        Some(match token.trim().to_ascii_lowercase().as_str() {
            "table" | "pretty" | "text" => OutputFormat::Table,
            "json" => OutputFormat::Json,
            "csv" => OutputFormat::Csv,
            _ => return None,
        })
    }
}

fn kg(value: tdc_units::Co2Mass) -> String {
    format!("{:.3}", value.kg())
}

fn tech_label(tech: Option<IntegrationTechnology>) -> &'static str {
    tech.map_or("2D", IntegrationTechnology::label)
}

/// CSV-quotes a field when needed (commas, quotes, newlines).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// The full JSON document of an embodied-only `tdc run` — exactly
/// what `--format json` prints (pretty) and a `tdc serve` response
/// embeds (compact).
#[must_use]
pub fn embodied_document(scenario: &str, breakdown: &EmbodiedBreakdown) -> JsonValue {
    JsonValue::Object(vec![
        (
            "scenario".to_owned(),
            JsonValue::String(scenario.to_owned()),
        ),
        (
            "design".to_owned(),
            JsonValue::String(breakdown.design.clone()),
        ),
        ("embodied".to_owned(), embodied_json(breakdown)),
    ])
}

/// The full JSON document of a life-cycle `tdc run` — exactly what
/// `--format json` prints (pretty) and a `tdc serve` response embeds
/// (compact).
#[must_use]
pub fn lifecycle_document(scenario: &str, report: &LifecycleReport) -> JsonValue {
    let op = &report.operational;
    let operational = JsonValue::Object(vec![
        ("power_w".to_owned(), JsonValue::Number(op.power.watts())),
        ("energy_kwh".to_owned(), JsonValue::Number(op.energy.kwh())),
        ("carbon_kg".to_owned(), JsonValue::Number(op.carbon.kg())),
        ("viable".to_owned(), JsonValue::Bool(op.is_viable())),
        (
            "runtime_stretch".to_owned(),
            JsonValue::Number(op.runtime_stretch),
        ),
        (
            "required_bandwidth_tbps".to_owned(),
            JsonValue::Number(op.required_bandwidth.tbps()),
        ),
        (
            "achieved_bandwidth_tbps".to_owned(),
            op.achieved_bandwidth
                .map_or(JsonValue::Null, |b| JsonValue::Number(b.tbps())),
        ),
    ]);
    JsonValue::Object(vec![
        (
            "scenario".to_owned(),
            JsonValue::String(scenario.to_owned()),
        ),
        (
            "design".to_owned(),
            JsonValue::String(report.embodied.design.clone()),
        ),
        ("embodied".to_owned(), embodied_json(&report.embodied)),
        ("operational".to_owned(), operational),
        (
            "total_kg".to_owned(),
            JsonValue::Number(report.total().kg()),
        ),
    ])
}

/// The full JSON document of a `tdc sweep` — exactly what
/// `--format json` prints (pretty) and a `tdc serve` response embeds
/// (compact).
#[must_use]
pub fn sweep_document(scenario: &str, entries: &[SweepEntry]) -> JsonValue {
    let items = entries
        .iter()
        .enumerate()
        .map(|(rank, e)| {
            JsonValue::Object(vec![
                ("rank".to_owned(), JsonValue::Number((rank + 1) as f64)),
                ("label".to_owned(), JsonValue::String(e.label.clone())),
                (
                    "node_nm".to_owned(),
                    JsonValue::Number(f64::from(e.node.nanometers())),
                ),
                (
                    "technology".to_owned(),
                    JsonValue::String(tech_label(e.technology).to_owned()),
                ),
                (
                    "dies".to_owned(),
                    JsonValue::Number(e.design.dies().len() as f64),
                ),
                ("viable".to_owned(), JsonValue::Bool(e.is_viable())),
                (
                    "embodied_kg".to_owned(),
                    JsonValue::Number(e.report.embodied.total().kg()),
                ),
                (
                    "operational_kg".to_owned(),
                    JsonValue::Number(e.report.operational.carbon.kg()),
                ),
                (
                    "total_kg".to_owned(),
                    JsonValue::Number(e.report.total().kg()),
                ),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        (
            "scenario".to_owned(),
            JsonValue::String(scenario.to_owned()),
        ),
        ("entries".to_owned(), JsonValue::Array(items)),
    ])
}

/// The full JSON document of a `tdc sensitivity` — exactly what
/// `--format json` prints (pretty) and a `tdc serve` response embeds
/// (compact).
#[must_use]
pub fn sensitivity_document(scenario: &str, entries: &[SensitivityEntry]) -> JsonValue {
    let items = entries
        .iter()
        .map(|e| {
            JsonValue::Object(vec![
                ("knob".to_owned(), JsonValue::String(e.knob.clone())),
                ("low_kg".to_owned(), JsonValue::Number(e.low.kg())),
                ("base_kg".to_owned(), JsonValue::Number(e.base.kg())),
                ("high_kg".to_owned(), JsonValue::Number(e.high.kg())),
                ("swing_kg".to_owned(), JsonValue::Number(e.swing().kg())),
                (
                    "relative_swing".to_owned(),
                    JsonValue::Number(e.relative_swing()),
                ),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        (
            "scenario".to_owned(),
            JsonValue::String(scenario.to_owned()),
        ),
        ("entries".to_owned(), JsonValue::Array(items)),
    ])
}

fn embodied_json(b: &EmbodiedBreakdown) -> JsonValue {
    let dies = b
        .dies
        .iter()
        .map(|d| {
            JsonValue::Object(vec![
                ("name".to_owned(), JsonValue::String(d.name.clone())),
                ("node".to_owned(), JsonValue::String(d.node.to_string())),
                ("area_mm2".to_owned(), JsonValue::Number(d.area.mm2())),
                (
                    "beol_layers".to_owned(),
                    JsonValue::Number(f64::from(d.beol_layers)),
                ),
                ("fab_yield".to_owned(), JsonValue::Number(d.fab_yield)),
                (
                    "composite_yield".to_owned(),
                    JsonValue::Number(d.composite_yield),
                ),
                ("carbon_kg".to_owned(), JsonValue::Number(d.carbon.kg())),
            ])
        })
        .collect();
    let substrate = b.substrate.as_ref().map_or(JsonValue::Null, |s| {
        JsonValue::Object(vec![
            ("kind".to_owned(), JsonValue::String(s.kind.to_string())),
            ("area_mm2".to_owned(), JsonValue::Number(s.area.mm2())),
            ("fab_yield".to_owned(), JsonValue::Number(s.fab_yield)),
            (
                "composite_yield".to_owned(),
                JsonValue::Number(s.composite_yield),
            ),
            ("carbon_kg".to_owned(), JsonValue::Number(s.carbon.kg())),
        ])
    });
    JsonValue::Object(vec![
        ("dies".to_owned(), JsonValue::Array(dies)),
        (
            "die_carbon_kg".to_owned(),
            JsonValue::Number(b.die_carbon.kg()),
        ),
        (
            "bonding_kg".to_owned(),
            JsonValue::Number(b.bonding_carbon.kg()),
        ),
        ("substrate".to_owned(), substrate),
        (
            "packaging_kg".to_owned(),
            JsonValue::Number(b.packaging_carbon.kg()),
        ),
        (
            "package_area_mm2".to_owned(),
            JsonValue::Number(b.package_area.mm2()),
        ),
        ("total_kg".to_owned(), JsonValue::Number(b.total().kg())),
    ])
}

fn embodied_csv_rows(b: &EmbodiedBreakdown, out: &mut String) {
    for d in &b.dies {
        out.push_str(&format!(
            "embodied,die:{},{}\n",
            csv_field(&d.name),
            kg(d.carbon)
        ));
    }
    out.push_str(&format!("embodied,bonding,{}\n", kg(b.bonding_carbon)));
    if let Some(s) = &b.substrate {
        out.push_str(&format!("embodied,substrate,{}\n", kg(s.carbon)));
    }
    out.push_str(&format!("embodied,packaging,{}\n", kg(b.packaging_carbon)));
    out.push_str(&format!("embodied,total,{}\n", kg(b.total())));
}

/// Renders a `tdc run` result for a design evaluated **without** a
/// workload (embodied carbon only).
#[must_use]
pub fn render_embodied(
    scenario: &str,
    breakdown: &EmbodiedBreakdown,
    format: OutputFormat,
) -> String {
    match format {
        OutputFormat::Table => format!("scenario: {scenario}\n\n{breakdown}\n"),
        OutputFormat::Json => embodied_document(scenario, breakdown).render(),
        OutputFormat::Csv => {
            let mut out = String::from("section,component,kg_co2e\n");
            embodied_csv_rows(breakdown, &mut out);
            out
        }
    }
}

/// Renders a `tdc run` result for a full life-cycle evaluation.
#[must_use]
pub fn render_lifecycle(scenario: &str, report: &LifecycleReport, format: OutputFormat) -> String {
    match format {
        OutputFormat::Table => format!("scenario: {scenario}\n\n{report}\n"),
        OutputFormat::Json => lifecycle_document(scenario, report).render(),
        OutputFormat::Csv => {
            let mut out = String::from("section,component,kg_co2e\n");
            embodied_csv_rows(&report.embodied, &mut out);
            out.push_str(&format!(
                "operational,total,{}\n",
                kg(report.operational.carbon)
            ));
            out.push_str(&format!("lifecycle,total,{}\n", kg(report.total())));
            out
        }
    }
}

/// Renders ranked sweep entries. Identical entries render identical
/// bytes, whatever executor produced them.
#[must_use]
pub fn render_sweep(scenario: &str, entries: &[SweepEntry], format: OutputFormat) -> String {
    match format {
        OutputFormat::Table => {
            let mut table = TextTable::new(vec![
                "rank",
                "label",
                "dies",
                "viable",
                "embodied kg",
                "operational kg",
                "total kg",
            ]);
            for (rank, e) in entries.iter().enumerate() {
                table.push_row(vec![
                    (rank + 1).to_string(),
                    e.label.clone(),
                    e.design.dies().len().to_string(),
                    if e.is_viable() { "yes" } else { "NO" }.to_owned(),
                    kg(e.report.embodied.total()),
                    kg(e.report.operational.carbon),
                    kg(e.report.total()),
                ]);
            }
            format!("scenario: {scenario}\n\n{}", table.render())
        }
        OutputFormat::Json => sweep_document(scenario, entries).render(),
        OutputFormat::Csv => {
            let mut out = String::from(
                "rank,label,node_nm,technology,dies,viable,embodied_kg,operational_kg,total_kg\n",
            );
            for (rank, e) in entries.iter().enumerate() {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{}\n",
                    rank + 1,
                    csv_field(&e.label),
                    e.node.nanometers(),
                    tech_label(e.technology),
                    e.design.dies().len(),
                    e.is_viable(),
                    kg(e.report.embodied.total()),
                    kg(e.report.operational.carbon),
                    kg(e.report.total()),
                ));
            }
            out
        }
    }
}

/// The stable token of an Eq. 2 choice window.
fn outcome_token(outcome: ChoiceOutcome) -> &'static str {
    match outcome {
        ChoiceOutcome::AlwaysBetter => "always-better",
        ChoiceOutcome::BetterUntil(_) => "better-until",
        ChoiceOutcome::BetterAfter(_) => "better-after",
        ChoiceOutcome::NeverBetter => "never-better",
    }
}

/// Years with three decimals; `inf` for unbounded spans (the CSV/table
/// spelling — JSON renders non-finite numbers as `null`).
fn years(span: TimeSpan) -> String {
    if span.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{:.3}", span.years())
    }
}

fn objective_value(v: f64) -> String {
    format!("{v:.3}")
}

/// The full JSON document of a `tdc explore` — exactly what
/// `--format json` prints (pretty) and a `tdc serve` response embeds
/// (compact). Only the deterministic report half is rendered, so the
/// document is byte-identical whether the store was cold or warm.
#[must_use]
pub fn explore_document(scenario: &str, report: &ExploreReport) -> JsonValue {
    let objective_labels: Vec<JsonValue> = report
        .objectives
        .iter()
        .map(|o| JsonValue::String(o.label().to_owned()))
        .collect();
    let objectives_object = |values: &[f64]| {
        JsonValue::Object(
            report
                .objectives
                .iter()
                .zip(values)
                .map(|(o, v)| (o.label().to_owned(), JsonValue::Number(*v)))
                .collect(),
        )
    };
    let frontier = report
        .frontier
        .iter()
        .enumerate()
        .map(|(rank, f)| {
            let e = &f.entry;
            let decision = f.decision.as_ref().map_or(JsonValue::Null, |d| {
                JsonValue::Object(vec![
                    ("baseline".to_owned(), JsonValue::String(d.baseline.clone())),
                    (
                        "outcome".to_owned(),
                        JsonValue::String(outcome_token(d.metrics.outcome).to_owned()),
                    ),
                    (
                        "tc_years".to_owned(),
                        JsonValue::Number(d.metrics.tc.years()),
                    ),
                    (
                        "tr_years".to_owned(),
                        JsonValue::Number(d.metrics.tr.years()),
                    ),
                    (
                        "embodied_delta_kg".to_owned(),
                        JsonValue::Number(d.metrics.embodied_delta.kg()),
                    ),
                    (
                        "power_saving_w".to_owned(),
                        JsonValue::Number(d.metrics.power_saving.watts()),
                    ),
                ])
            });
            JsonValue::Object(vec![
                ("rank".to_owned(), JsonValue::Number((rank + 1) as f64)),
                ("label".to_owned(), JsonValue::String(e.label.clone())),
                (
                    "node_nm".to_owned(),
                    JsonValue::Number(f64::from(e.node.nanometers())),
                ),
                (
                    "technology".to_owned(),
                    JsonValue::String(tech_label(e.technology).to_owned()),
                ),
                (
                    "dies".to_owned(),
                    JsonValue::Number(e.design.dies().len() as f64),
                ),
                ("viable".to_owned(), JsonValue::Bool(e.is_viable())),
                ("objectives".to_owned(), objectives_object(&f.objectives)),
                ("decision".to_owned(), decision),
            ])
        })
        .collect();
    let baseline = report.baseline.as_ref().map_or(JsonValue::Null, |b| {
        JsonValue::Object(vec![
            ("label".to_owned(), JsonValue::String(b.label.clone())),
            ("on_frontier".to_owned(), JsonValue::Bool(b.on_frontier)),
            ("objectives".to_owned(), objectives_object(&b.objectives)),
        ])
    });
    let refine = report.refine.as_ref().map_or(JsonValue::Null, |r| {
        let samples = r
            .samples
            .iter()
            .map(|s| {
                JsonValue::Object(vec![
                    ("value".to_owned(), JsonValue::Number(s.value)),
                    (
                        "winner".to_owned(),
                        s.winner
                            .as_ref()
                            .map_or(JsonValue::Null, |w| JsonValue::String(w.clone())),
                    ),
                ])
            })
            .collect();
        let crossings = r
            .crossings
            .iter()
            .map(|c| {
                let label = |l: &Option<String>| {
                    l.as_ref()
                        .map_or(JsonValue::Null, |w| JsonValue::String(w.clone()))
                };
                JsonValue::Object(vec![
                    ("lower".to_owned(), JsonValue::Number(c.lower)),
                    ("upper".to_owned(), JsonValue::Number(c.upper)),
                    ("below".to_owned(), label(&c.below)),
                    ("above".to_owned(), label(&c.above)),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            (
                "axis".to_owned(),
                JsonValue::String(r.axis.label().to_owned()),
            ),
            ("rounds".to_owned(), JsonValue::Number(r.rounds as f64)),
            (
                "evaluations".to_owned(),
                JsonValue::Number(r.evaluations as f64),
            ),
            ("samples".to_owned(), JsonValue::Array(samples)),
            ("crossings".to_owned(), JsonValue::Array(crossings)),
        ])
    });
    JsonValue::Object(vec![
        (
            "scenario".to_owned(),
            JsonValue::String(scenario.to_owned()),
        ),
        ("objectives".to_owned(), JsonValue::Array(objective_labels)),
        ("baseline".to_owned(), baseline),
        ("frontier".to_owned(), JsonValue::Array(frontier)),
        (
            "dominated".to_owned(),
            JsonValue::Number(report.dominated as f64),
        ),
        (
            "infeasible".to_owned(),
            JsonValue::Number(report.infeasible as f64),
        ),
        ("refine".to_owned(), refine),
    ])
}

fn frontier_decision_cells(f: &FrontierEntry) -> (String, String) {
    f.decision.as_ref().map_or_else(
        || ("baseline".to_owned(), String::new()),
        |d| {
            (
                outcome_token(d.metrics.outcome).to_owned(),
                years(d.metrics.tc),
            )
        },
    )
}

/// Renders a `tdc explore` frontier report. Identical reports render
/// identical bytes, whatever executor produced them.
#[must_use]
pub fn render_explore(scenario: &str, report: &ExploreReport, format: OutputFormat) -> String {
    match format {
        OutputFormat::Table => {
            let mut header: Vec<String> = vec![
                "rank".into(),
                "label".into(),
                "dies".into(),
                "viable".into(),
            ];
            header.extend(report.objectives.iter().map(|o| o.label().to_owned()));
            header.push("vs baseline".into());
            header.push("Tc years".into());
            let mut table = TextTable::new(header);
            for (rank, f) in report.frontier.iter().enumerate() {
                let mut row = vec![
                    (rank + 1).to_string(),
                    f.entry.label.clone(),
                    f.entry.design.dies().len().to_string(),
                    if f.entry.is_viable() { "yes" } else { "NO" }.to_owned(),
                ];
                row.extend(f.objectives.iter().map(|v| objective_value(*v)));
                let (outcome, tc) = frontier_decision_cells(f);
                row.push(outcome);
                row.push(tc);
                table.push_row(row);
            }
            let mut out = format!("scenario: {scenario}\n\n{}", table.render());
            out.push_str(&format!(
                "\nfrontier: {} point(s); dominated: {}; infeasible: {}\n",
                report.frontier.len(),
                report.dominated,
                report.infeasible
            ));
            if let Some(b) = &report.baseline {
                let values: Vec<String> = report
                    .objectives
                    .iter()
                    .zip(&b.objectives)
                    .map(|(o, v)| format!("{} {}", o.label(), objective_value(*v)))
                    .collect();
                out.push_str(&format!(
                    "baseline: {} ({}){}\n",
                    b.label,
                    values.join(", "),
                    if b.on_frontier { " [on frontier]" } else { "" }
                ));
            }
            if let Some(r) = &report.refine {
                out.push_str(&format!(
                    "refinement: {} over [{}, {}] — {} round(s), {} evaluation(s)\n",
                    r.axis.label(),
                    r.samples.first().map_or(0.0, |s| s.value),
                    r.samples.last().map_or(0.0, |s| s.value),
                    r.rounds,
                    r.evaluations
                ));
                let name = |l: &Option<String>| l.clone().unwrap_or_else(|| "(none)".to_owned());
                for c in &r.crossings {
                    out.push_str(&format!(
                        "  crossing in [{:.4}, {:.4}]: {} -> {}\n",
                        c.lower,
                        c.upper,
                        name(&c.below),
                        name(&c.above)
                    ));
                }
            }
            out
        }
        OutputFormat::Json => explore_document(scenario, report).render(),
        OutputFormat::Csv => {
            let mut out = String::from("rank,label,node_nm,technology,dies,viable");
            for o in &report.objectives {
                out.push(',');
                out.push_str(o.label());
            }
            out.push_str(",outcome,tc_years,tr_years\n");
            for (rank, f) in report.frontier.iter().enumerate() {
                let e = &f.entry;
                out.push_str(&format!(
                    "{},{},{},{},{},{}",
                    rank + 1,
                    csv_field(&e.label),
                    e.node.nanometers(),
                    tech_label(e.technology),
                    e.design.dies().len(),
                    e.is_viable(),
                ));
                for v in &f.objectives {
                    out.push(',');
                    out.push_str(&objective_value(*v));
                }
                match &f.decision {
                    None => out.push_str(",baseline,,"),
                    Some(d) => {
                        out.push_str(&format!(
                            ",{},{},{}",
                            outcome_token(d.metrics.outcome),
                            years(d.metrics.tc),
                            years(d.metrics.tr),
                        ));
                    }
                }
                out.push('\n');
            }
            out
        }
    }
}

/// The full JSON document of a `tdc run --baseline` Eq. 2 comparison.
#[must_use]
pub fn decision_document(scenario: &str, baseline: &str, report: &ComparisonReport) -> JsonValue {
    let side = |r: &LifecycleReport| {
        JsonValue::Object(vec![
            (
                "embodied_kg".to_owned(),
                JsonValue::Number(r.embodied.total().kg()),
            ),
            (
                "operational_kg".to_owned(),
                JsonValue::Number(r.operational.carbon.kg()),
            ),
            ("total_kg".to_owned(), JsonValue::Number(r.total().kg())),
            (
                "viable".to_owned(),
                JsonValue::Bool(r.operational.is_viable()),
            ),
        ])
    };
    let m = &report.metrics;
    JsonValue::Object(vec![
        (
            "scenario".to_owned(),
            JsonValue::String(scenario.to_owned()),
        ),
        (
            "baseline".to_owned(),
            JsonValue::String(baseline.to_owned()),
        ),
        ("baseline_report".to_owned(), side(&report.base)),
        ("alternative_report".to_owned(), side(&report.alt)),
        (
            "decision".to_owned(),
            JsonValue::Object(vec![
                (
                    "outcome".to_owned(),
                    JsonValue::String(outcome_token(m.outcome).to_owned()),
                ),
                ("tc_years".to_owned(), JsonValue::Number(m.tc.years())),
                ("tr_years".to_owned(), JsonValue::Number(m.tr.years())),
                (
                    "embodied_delta_kg".to_owned(),
                    JsonValue::Number(m.embodied_delta.kg()),
                ),
                (
                    "power_saving_w".to_owned(),
                    JsonValue::Number(m.power_saving.watts()),
                ),
                (
                    "embodied_save_pct".to_owned(),
                    JsonValue::Number(report.embodied_save.percent()),
                ),
                (
                    "overall_save_pct".to_owned(),
                    JsonValue::Number(report.overall_save.percent()),
                ),
            ]),
        ),
    ])
}

/// Renders a `tdc run --baseline` Eq. 2 comparison: the scenario's
/// design (the alternative) against the baseline scenario's design.
#[must_use]
pub fn render_decision(
    scenario: &str,
    baseline: &str,
    report: &ComparisonReport,
    format: OutputFormat,
) -> String {
    match format {
        OutputFormat::Table => {
            let mut table = TextTable::new(vec![
                "design",
                "embodied kg",
                "operational kg",
                "total kg",
                "viable",
            ]);
            let mut side = |name: &str, r: &LifecycleReport| {
                table.push_row(vec![
                    name.to_owned(),
                    kg(r.embodied.total()),
                    kg(r.operational.carbon),
                    kg(r.total()),
                    if r.operational.is_viable() {
                        "yes"
                    } else {
                        "NO"
                    }
                    .to_owned(),
                ]);
            };
            side(&format!("{baseline} (baseline)"), &report.base);
            side(scenario, &report.alt);
            let m = &report.metrics;
            format!(
                "scenario: {scenario}\n\n{}\ndecision (Eq. 2): {}  Tc={} years  Tr={} years\n\
                 embodied delta: {} kg  power saving: {:.3} W\n\
                 savings vs baseline: embodied {:.2} %, overall {:.2} %\n",
                table.render(),
                outcome_token(m.outcome),
                years(m.tc),
                years(m.tr),
                kg(m.embodied_delta),
                m.power_saving.watts(),
                report.embodied_save.percent(),
                report.overall_save.percent(),
            )
        }
        OutputFormat::Json => decision_document(scenario, baseline, report).render(),
        OutputFormat::Csv => {
            let m = &report.metrics;
            let mut out = String::from("metric,value\n");
            out.push_str(&format!("baseline,{}\n", csv_field(baseline)));
            out.push_str(&format!("baseline_total_kg,{}\n", kg(report.base.total())));
            out.push_str(&format!(
                "alternative_total_kg,{}\n",
                kg(report.alt.total())
            ));
            out.push_str(&format!("outcome,{}\n", outcome_token(m.outcome)));
            out.push_str(&format!("tc_years,{}\n", years(m.tc)));
            out.push_str(&format!("tr_years,{}\n", years(m.tr)));
            out.push_str(&format!("embodied_delta_kg,{}\n", kg(m.embodied_delta)));
            out.push_str(&format!("power_saving_w,{:.3}\n", m.power_saving.watts()));
            out.push_str(&format!(
                "embodied_save_pct,{:.2}\n",
                report.embodied_save.percent()
            ));
            out.push_str(&format!(
                "overall_save_pct,{:.2}\n",
                report.overall_save.percent()
            ));
            out
        }
    }
}

/// Renders a sensitivity (tornado) report.
#[must_use]
pub fn render_sensitivity(
    scenario: &str,
    entries: &[SensitivityEntry],
    format: OutputFormat,
) -> String {
    match format {
        OutputFormat::Table => {
            let mut table = TextTable::new(vec![
                "knob", "low kg", "base kg", "high kg", "swing kg", "swing %",
            ]);
            for e in entries {
                table.push_row(vec![
                    e.knob.clone(),
                    kg(e.low),
                    kg(e.base),
                    kg(e.high),
                    kg(e.swing()),
                    format!("{:.2}", e.relative_swing() * 100.0),
                ]);
            }
            format!("scenario: {scenario}\n\n{}", table.render())
        }
        OutputFormat::Json => sensitivity_document(scenario, entries).render(),
        OutputFormat::Csv => {
            let mut out = String::from("knob,low_kg,base_kg,high_kg,swing_kg,relative_swing\n");
            for e in entries {
                out.push_str(&format!(
                    "{},{},{},{},{},{:.6}\n",
                    csv_field(&e.knob),
                    kg(e.low),
                    kg(e.base),
                    kg(e.high),
                    kg(e.swing()),
                    e.relative_swing(),
                ));
            }
            out
        }
    }
}

/// Renders a session [`EvalResponse`] exactly as the corresponding
/// single-shot command would — `tdc batch` concatenates these, and the
/// byte-identity guarantee against fresh-process `tdc run`/`tdc sweep`
/// output rests on the renderers being shared, not re-implemented.
#[must_use]
pub fn render_response(scenario: &str, response: &EvalResponse, format: OutputFormat) -> String {
    match response {
        EvalResponse::Embodied(b) => render_embodied(scenario, b, format),
        EvalResponse::Lifecycle(r) => render_lifecycle(scenario, r, format),
        EvalResponse::Sweep(r) => render_sweep(scenario, r.entries(), format),
        EvalResponse::Sensitivity(entries) => render_sensitivity(scenario, entries, format),
        EvalResponse::Explore(r) => render_explore(scenario, r.report(), format),
    }
}

/// The JSON document of a session [`EvalResponse`] (what a `tdc
/// serve` response embeds under `"report"`), identical to the
/// `--format json` document of the corresponding command.
#[must_use]
pub fn response_document(scenario: &str, response: &EvalResponse) -> JsonValue {
    match response {
        EvalResponse::Embodied(b) => embodied_document(scenario, b),
        EvalResponse::Lifecycle(r) => lifecycle_document(scenario, r),
        EvalResponse::Sweep(r) => sweep_document(scenario, r.entries()),
        EvalResponse::Sensitivity(entries) => sensitivity_document(scenario, entries),
        EvalResponse::Explore(r) => explore_document(scenario, r.report()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_core::sweep::DesignSweep;
    use tdc_core::{CarbonModel, ChipDesign, DieSpec, ModelContext, Workload};
    use tdc_technode::ProcessNode;
    use tdc_units::{Throughput, TimeSpan};

    fn sample_entries() -> Vec<SweepEntry> {
        let model = CarbonModel::new(ModelContext::default());
        let workload = Workload::fixed(
            "app",
            Throughput::from_tops(100.0),
            TimeSpan::from_hours(10_000.0),
        );
        DesignSweep::new(8.0e9)
            .nodes(vec![ProcessNode::N7])
            .run(&model, &workload)
            .unwrap()
    }

    #[test]
    fn all_formats_render_sweeps() {
        let entries = sample_entries();
        let table = render_sweep("s", &entries, OutputFormat::Table);
        assert!(table.contains("rank") && table.contains("7 nm/2D"));
        let json = render_sweep("s", &entries, OutputFormat::Json);
        let parsed = JsonValue::parse(&json).unwrap();
        assert_eq!(
            parsed.get("entries").unwrap().as_array().unwrap().len(),
            entries.len()
        );
        let csv = render_sweep("s", &entries, OutputFormat::Csv);
        assert_eq!(csv.lines().count(), entries.len() + 1);
        assert!(csv.starts_with("rank,label,"));
    }

    #[test]
    fn lifecycle_formats_agree_on_total() {
        let model = CarbonModel::new(ModelContext::default());
        let design = ChipDesign::monolithic_2d(
            DieSpec::builder("d", ProcessNode::N7)
                .gate_count(5.0e9)
                .build()
                .unwrap(),
        );
        let workload = Workload::fixed(
            "app",
            Throughput::from_tops(100.0),
            TimeSpan::from_hours(10_000.0),
        );
        let report = model.lifecycle(&design, &workload).unwrap();
        let json = render_lifecycle("s", &report, OutputFormat::Json);
        let parsed = JsonValue::parse(&json).unwrap();
        let total = parsed.get("total_kg").unwrap().as_f64().unwrap();
        assert!((total - report.total().kg()).abs() < 1e-9);
        let csv = render_lifecycle("s", &report, OutputFormat::Csv);
        assert!(csv.contains("lifecycle,total,"));
        let table = render_lifecycle("s", &report, OutputFormat::Table);
        assert!(table.contains("LIFECYCLE"));
    }

    #[test]
    fn embodied_only_renders() {
        let model = CarbonModel::new(ModelContext::default());
        let design = ChipDesign::monolithic_2d(
            DieSpec::builder("d", ProcessNode::N7)
                .gate_count(5.0e9)
                .build()
                .unwrap(),
        );
        let b = model.embodied(&design).unwrap();
        for fmt in [OutputFormat::Table, OutputFormat::Json, OutputFormat::Csv] {
            let out = render_embodied("s", &b, fmt);
            assert!(!out.is_empty());
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let entries = sample_entries();
        for fmt in [OutputFormat::Table, OutputFormat::Json, OutputFormat::Csv] {
            assert_eq!(
                render_sweep("s", &entries, fmt),
                render_sweep("s", &entries, fmt)
            );
        }
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
    }

    #[test]
    fn format_tokens() {
        assert_eq!(OutputFormat::from_token("JSON"), Some(OutputFormat::Json));
        assert_eq!(OutputFormat::from_token("table"), Some(OutputFormat::Table));
        assert_eq!(OutputFormat::from_token("csv"), Some(OutputFormat::Csv));
        assert_eq!(OutputFormat::from_token("xml"), None);
    }
}
