//! Scenario files ([`Scenario`]): the declarative input of the `tdc`
//! CLI.
//!
//! A scenario is a JSON document with up to six blocks, all of which
//! are documented with runnable examples in `docs/SCENARIOS.md`:
//!
//! * `packs` — technology-pack files ([`tdc_registry::pack`]) loaded
//!   into the model registry before any name below resolves, so a
//!   scenario can redefine or extend the shipped catalogs as data.
//!   Relative paths are scenario-file-relative. Optional;
//! * `design` — what chip to evaluate: either `{"preset": "..."}`
//!   (resolved through the registry's design-preset grammar) or an
//!   explicit die list plus integration technology;
//! * `workload` — the mission profile: an AV preset or an explicit
//!   fixed-throughput profile. Optional: without it, `tdc run` reports
//!   embodied carbon only;
//! * `context` — overrides of the model configuration (fab/use grid,
//!   wafer, yield model, power model, ablation knobs). Optional;
//! * `sweep` — the design-space axes (`tdc sweep`): gate budget,
//!   nodes, technologies, tier counts. Optional;
//! * `explore` — the exploration layer over the sweep plan
//!   (`tdc explore`): objectives, constraints, Eq. 2 baseline, and
//!   adaptive refinement. Optional; requires a `sweep` block.
//!
//! Structural checks (types, unknown fields, numeric domains) happen
//! at parse time; *names* — presets, technologies, grid regions, yield
//! and power models — resolve at build time through one
//! [`Registry`], after the scenario's packs have loaded. That is what
//! lets a pack-defined technology appear anywhere a built-in one can.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use tdc_core::explore::{Constraint, ExploreSpec, Objective, RefineAxis, RefineSpec};
use tdc_core::service::EvalRequest;
use tdc_core::sweep::DesignSweep;
use tdc_core::{ChipDesign, DieSpec, ModelContext, ModelError, Workload};
use tdc_floorplan::PackageModel;
use tdc_integration::{IntegrationFamily, IntegrationTechnology, StackOrientation};
use tdc_registry::json::{JsonError, JsonValue};
use tdc_registry::{Params, Registry, RegistryError};
use tdc_technode::{ProcessNode, Wafer};
use tdc_traces::TraceReader;
use tdc_units::{Area, Efficiency, Length, ShortFloat, Throughput, TimeSpan};
use tdc_workloads::design_preset_context;
use tdc_yield::StackingFlow;

/// Why a scenario could not be loaded or elaborated.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The file is not valid JSON.
    Json(JsonError),
    /// The JSON is valid but violates the scenario schema; the path
    /// names the offending field (e.g. `design.dies[0].node_nm`).
    Schema {
        /// Dotted path of the offending field.
        path: String,
        /// What is wrong with it.
        message: String,
    },
    /// The scenario is well-formed but the model rejected it.
    Model(ModelError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json(e) => write!(f, "{e}"),
            ScenarioError::Schema { path, message } => {
                write!(f, "scenario field `{path}`: {message}")
            }
            ScenarioError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ModelError> for ScenarioError {
    fn from(e: ModelError) -> Self {
        ScenarioError::Model(e)
    }
}

fn schema_err<T>(path: impl Into<String>, message: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError::Schema {
        path: path.into(),
        message: message.into(),
    })
}

/// Maps a registry failure onto the scenario error taxonomy: model
/// rejections stay [`ScenarioError::Model`] (the design was
/// well-formed), everything else is a schema error at `path`.
fn registry_err(path: impl Into<String>, err: RegistryError) -> ScenarioError {
    match err {
        RegistryError::Model(e) => ScenarioError::Model(e),
        other => ScenarioError::Schema {
            path: path.into(),
            message: other.to_string(),
        },
    }
}

/// Typed field extraction helpers over a JSON object.
struct Fields<'a> {
    value: &'a JsonValue,
    path: String,
}

impl<'a> Fields<'a> {
    fn new(value: &'a JsonValue, path: impl Into<String>) -> Result<Self, ScenarioError> {
        let path = path.into();
        if value.as_object().is_none() {
            return schema_err(
                &path,
                format!("expected an object, got {}", value.type_name()),
            );
        }
        Ok(Self { value, path })
    }

    fn child(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_owned()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn get(&self, key: &str) -> Option<&'a JsonValue> {
        self.value.get(key)
    }

    fn number(&self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.as_f64().map(Some).ok_or(()).or_else(|()| {
                schema_err(
                    self.child(key),
                    format!("expected a number, got {}", v.type_name()),
                )
            }),
        }
    }

    fn required_number(&self, key: &str) -> Result<f64, ScenarioError> {
        self.number(key)?.map_or_else(
            || schema_err(self.child(key), "required field is missing"),
            Ok,
        )
    }

    fn string(&self, key: &str) -> Result<Option<&'a str>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.as_str().map(Some).ok_or(()).or_else(|()| {
                schema_err(
                    self.child(key),
                    format!("expected a string, got {}", v.type_name()),
                )
            }),
        }
    }

    fn boolean(&self, key: &str) -> Result<Option<bool>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.as_bool().map(Some).ok_or(()).or_else(|()| {
                schema_err(
                    self.child(key),
                    format!("expected a boolean, got {}", v.type_name()),
                )
            }),
        }
    }

    fn array(&self, key: &str) -> Result<Option<&'a [JsonValue]>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.as_array().map(Some).ok_or(()).or_else(|()| {
                schema_err(
                    self.child(key),
                    format!("expected an array, got {}", v.type_name()),
                )
            }),
        }
    }

    /// Rejects keys outside `allowed` — typos in optional fields would
    /// otherwise be silently ignored.
    fn deny_unknown(&self, allowed: &[&str]) -> Result<(), ScenarioError> {
        for (key, _) in self.value.as_object().expect("checked in new") {
            if !allowed.contains(&key.as_str()) {
                return schema_err(
                    self.child(key),
                    format!("unknown field (expected one of: {})", allowed.join(", ")),
                );
            }
        }
        Ok(())
    }
}

fn parse_node(nm: f64, path: &str) -> Result<ProcessNode, ScenarioError> {
    if nm.fract() != 0.0 || !(1.0..=1000.0).contains(&nm) {
        return schema_err(
            path,
            format!("expected a node size in nm, got {}", ShortFloat(nm)),
        );
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    ProcessNode::from_nanometers(nm as u32).map_or_else(
        || {
            let known: Vec<String> = ProcessNode::ALL
                .into_iter()
                .map(|n| n.nanometers().to_string())
                .collect();
            schema_err(
                path,
                format!("unknown node {nm} nm (known: {})", known.join(", ")),
            )
        },
        Ok,
    )
}

/// The `design` block. The `technology` token stays raw until build
/// time — it resolves through the scenario's [`Registry`], so a
/// pack-defined technology name works here.
#[derive(Debug, Clone)]
enum DesignSpec {
    Preset(String),
    Explicit {
        technology: Option<String>,
        orientation: Option<StackOrientation>,
        flow: Option<StackingFlow>,
        dies: Vec<DieSpec>,
    },
}

/// The `workload` block.
#[derive(Debug, Clone)]
struct WorkloadSpec {
    preset: Option<String>,
    name: String,
    throughput: Throughput,
    active_hours: Option<f64>,
    bytes_per_op: Option<f64>,
    average_bytes_per_op: Option<f64>,
    average_utilization: Option<f64>,
    calendar_years: Option<f64>,
    trace: Option<TraceSpec>,
}

/// The `workload.trace` sub-block: a utilization (and optionally
/// grid-intensity) time series replacing the scalar duty cycle.
#[derive(Debug, Clone)]
struct TraceSpec {
    /// CSV path, resolved against the scenario file's directory when
    /// relative (see [`Scenario::with_base_dir`]).
    path: String,
}

/// The `context.power_model` sub-block: a registry power-model name
/// plus its numeric parameters.
#[derive(Debug, Clone)]
struct PowerSpec {
    name: String,
    params: Params,
}

/// The `context` block (all fields optional overrides). Region, yield,
/// and power tokens stay raw strings until build time, when they
/// resolve through the scenario's [`Registry`].
#[derive(Debug, Clone, Default)]
struct ContextSpec {
    fab_region: Option<String>,
    use_region: Option<String>,
    wafer_mm: Option<f64>,
    die_yield: Option<String>,
    power_model: Option<PowerSpec>,
    package: Option<PackageModel>,
    beol_adjustment: Option<bool>,
    bandwidth_constraint: Option<bool>,
    beol_carbon_fraction: Option<f64>,
    tsv_keepout: Option<f64>,
    m3d_sequential_fraction: Option<f64>,
}

/// The `sweep` block. `nodes_nm` entries are validated numerically at
/// parse time (node identities are a closed set); the `nodes` name
/// axis and the technology tokens resolve through the registry at
/// build time.
#[derive(Debug, Clone)]
struct SweepSpec {
    gate_count: f64,
    nodes: Option<Vec<ProcessNode>>,
    node_names: Option<Vec<String>>,
    technologies: Option<Vec<String>>,
    tiers: Option<Vec<u32>>,
    efficiency: Option<Efficiency>,
    workers: Option<usize>,
}

/// The `explore` block with its technology allowlist still raw: every
/// other field is validated at parse time, but allowlisted technology
/// names can come from packs, so they resolve at build time.
#[derive(Debug, Clone)]
struct ExploreRaw {
    /// The spec minus any `Constraint::Technologies` entry.
    spec: ExploreSpec,
    /// Raw `constraints.technologies` tokens, if given.
    technologies: Option<Vec<String>>,
}

/// Which evaluating command a scenario elaborates into (the `tdc
/// serve` protocol's `command` field, and `tdc batch`'s per-file
/// inference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Single evaluation: lifecycle, or embodied-only without a
    /// workload.
    Run,
    /// Design-space sweep over the scenario's `sweep` block.
    Sweep,
    /// One-at-a-time sensitivity (tornado) analysis.
    Sensitivity,
    /// Carbon-aware exploration (Pareto frontier + Eq. 2 ranking)
    /// over the scenario's `sweep` plan, driven by the `explore`
    /// block.
    Explore,
}

impl RequestKind {
    /// Parses a protocol `command` token.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Self> {
        Some(match token.trim().to_ascii_lowercase().as_str() {
            "run" => RequestKind::Run,
            "sweep" => RequestKind::Sweep,
            "sensitivity" => RequestKind::Sensitivity,
            "explore" => RequestKind::Explore,
            _ => return None,
        })
    }

    /// The stable command label (also used in stats lines).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RequestKind::Run => "run",
            RequestKind::Sweep => "sweep",
            RequestKind::Sensitivity => "sensitivity",
            RequestKind::Explore => "explore",
        }
    }
}

/// A parsed scenario file, ready to elaborate into model inputs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (defaults to `"scenario"`).
    pub name: String,
    /// Free-text description, if given.
    pub description: Option<String>,
    packs: Vec<String>,
    design: Option<DesignSpec>,
    workload: Option<WorkloadSpec>,
    context: ContextSpec,
    sweep: Option<SweepSpec>,
    explore: Option<ExploreRaw>,
    base_dir: Option<PathBuf>,
    /// The registry every build-time name resolves through, built
    /// lazily (pack files load on first use, after `with_base_dir`).
    registry: OnceLock<Result<Arc<Registry>, ScenarioError>>,
}

impl Scenario {
    /// Parses a scenario document.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Json`] on malformed JSON and
    /// [`ScenarioError::Schema`] on schema violations (unknown fields,
    /// wrong types, unknown tokens).
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let root = JsonValue::parse(text).map_err(ScenarioError::Json)?;
        Self::from_value(&root)
    }

    /// Elaborates an already-parsed JSON tree (the `tdc serve`
    /// protocol embeds scenario documents inside request frames).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Schema`] on schema violations, exactly
    /// as [`parse`](Self::parse) would.
    pub fn from_value(root: &JsonValue) -> Result<Self, ScenarioError> {
        let fields = Fields::new(root, "")?;
        fields.deny_unknown(&[
            "name",
            "description",
            "packs",
            "design",
            "workload",
            "context",
            "sweep",
            "explore",
        ])?;
        let name = fields.string("name")?.unwrap_or("scenario").to_owned();
        let description = fields.string("description")?.map(str::to_owned);
        let packs = match fields.array("packs")? {
            None => Vec::new(),
            Some(items) => {
                let mut packs = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let path = format!("packs[{i}]");
                    let file = item
                        .as_str()
                        .ok_or(())
                        .or_else(|()| schema_err::<&str>(&path, "expected a pack file path"))?;
                    if file.trim().is_empty() {
                        return schema_err(&path, "the path is empty");
                    }
                    packs.push(file.to_owned());
                }
                packs
            }
        };
        let design = match fields.get("design") {
            None => None,
            Some(v) => Some(Self::parse_design(v)?),
        };
        let workload = match fields.get("workload") {
            None => None,
            Some(v) => Some(Self::parse_workload(v)?),
        };
        let context = match fields.get("context") {
            None => ContextSpec::default(),
            Some(v) => Self::parse_context(v)?,
        };
        let sweep = match fields.get("sweep") {
            None => None,
            Some(v) => Some(Self::parse_sweep(v)?),
        };
        let explore = match fields.get("explore") {
            None => None,
            Some(v) => Some(Self::parse_explore(v)?),
        };
        Ok(Self {
            name,
            description,
            packs,
            design,
            workload,
            context,
            sweep,
            explore,
            base_dir: None,
            registry: OnceLock::new(),
        })
    }

    /// Anchors relative `workload.trace.path` and `packs` references
    /// to `dir` — the scenario *file*'s directory, so a scenario next
    /// to its data loads from anywhere. Embedded documents (`tdc
    /// serve` frames) have no file and stay cwd-relative.
    ///
    /// Call this before any `build_*` method: the first build loads
    /// the scenario's packs relative to the base directory and caches
    /// the resulting registry.
    #[must_use]
    pub fn with_base_dir(mut self, dir: Option<&Path>) -> Self {
        self.base_dir = dir.map(Path::to_path_buf);
        self
    }

    /// The model registry this scenario resolves names through: the
    /// process-wide [`Registry::builtins`] when the scenario has no
    /// `packs` block, or else an owned copy of it with every pack file
    /// loaded (on first use, scenario-file-relative). A pack never
    /// reaches the shared base, so it cannot change what another
    /// scenario resolves.
    ///
    /// # Errors
    ///
    /// A pack that fails to load is a schema error whose path names
    /// the `packs[i]` entry; the underlying message carries the pack
    /// file path and, for parse failures, the line/column.
    pub fn registry(&self) -> Result<&Registry, ScenarioError> {
        self.registry
            .get_or_init(|| {
                if self.packs.is_empty() {
                    return Ok(Registry::builtins());
                }
                let mut registry = Registry::with_builtins();
                for (i, file) in self.packs.iter().enumerate() {
                    let resolved = self.resolve_path(file);
                    registry
                        .load_pack(&resolved)
                        .map_err(|e| ScenarioError::Schema {
                            path: format!("packs[{i}]"),
                            message: e.to_string(),
                        })?;
                }
                Ok(Arc::new(registry))
            })
            .as_ref()
            .map(|arc| arc.as_ref())
            .map_err(Clone::clone)
    }

    fn parse_design(value: &JsonValue) -> Result<DesignSpec, ScenarioError> {
        let f = Fields::new(value, "design")?;
        if let Some(preset) = f.string("preset")? {
            f.deny_unknown(&["preset"])?;
            return Ok(DesignSpec::Preset(preset.to_owned()));
        }
        f.deny_unknown(&["integration", "orientation", "flow", "dies"])?;
        let technology = f.string("integration")?.map(str::to_owned);
        let orientation = match f.string("orientation")? {
            None => None,
            Some(token) => Some(match token.trim().to_ascii_lowercase().as_str() {
                "f2f" | "face-to-face" => StackOrientation::FaceToFace,
                "f2b" | "face-to-back" => StackOrientation::FaceToBack,
                other => {
                    return schema_err(
                        f.child("orientation"),
                        format!("expected `f2f` or `f2b`, got `{other}`"),
                    )
                }
            }),
        };
        let flow = match f.string("flow")? {
            None => None,
            Some(token) => Some(match token.trim().to_ascii_lowercase().as_str() {
                "d2w" | "die-to-wafer" => StackingFlow::DieToWafer,
                "w2w" | "wafer-to-wafer" => StackingFlow::WaferToWafer,
                other => {
                    return schema_err(
                        f.child("flow"),
                        format!("expected `d2w` or `w2w`, got `{other}`"),
                    )
                }
            }),
        };
        let Some(die_values) = f.array("dies")? else {
            return schema_err("design.dies", "an explicit design needs a die list");
        };
        if die_values.is_empty() {
            return schema_err("design.dies", "the die list is empty");
        }
        let mut dies = Vec::with_capacity(die_values.len());
        for (i, die_value) in die_values.iter().enumerate() {
            dies.push(Self::parse_die(die_value, i)?);
        }
        Ok(DesignSpec::Explicit {
            technology,
            orientation,
            flow,
            dies,
        })
    }

    fn parse_die(value: &JsonValue, index: usize) -> Result<DieSpec, ScenarioError> {
        let path = format!("design.dies[{index}]");
        let f = Fields::new(value, path.clone())?;
        f.deny_unknown(&[
            "name",
            "node_nm",
            "gate_count",
            "area_mm2",
            "beol_layers",
            "efficiency_tops_per_watt",
            "compute_share",
        ])?;
        let name = f
            .string("name")?
            .map_or_else(|| format!("die{index}"), str::to_owned);
        let node = parse_node(f.required_number("node_nm")?, &f.child("node_nm"))?;
        let mut b = DieSpec::builder(name, node);
        if let Some(g) = f.number("gate_count")? {
            b = b.gate_count(g);
        }
        if let Some(a) = f.number("area_mm2")? {
            b = b.area(Area::from_mm2(a));
        }
        if let Some(l) = f.number("beol_layers")? {
            if l.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&l) {
                return schema_err(
                    f.child("beol_layers"),
                    format!("expected a whole layer count, got {}", ShortFloat(l)),
                );
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                b = b.beol_layers(l as u32);
            }
        }
        if let Some(e) = f.number("efficiency_tops_per_watt")? {
            b = b.efficiency(Efficiency::from_tops_per_watt(e));
        }
        if let Some(s) = f.number("compute_share")? {
            b = b.compute_share(s);
        }
        Ok(b.build()?)
    }

    fn parse_workload(value: &JsonValue) -> Result<WorkloadSpec, ScenarioError> {
        let f = Fields::new(value, "workload")?;
        f.deny_unknown(&[
            "preset",
            "name",
            "throughput_tops",
            "active_hours",
            "bytes_per_op",
            "average_bytes_per_op",
            "average_utilization",
            "calendar_years",
            "trace",
        ])?;
        let preset = f.string("preset")?.map(str::to_owned);
        let tops = f.required_number("throughput_tops")?;
        if !(tops.is_finite() && tops > 0.0) {
            return schema_err(
                "workload.throughput_tops",
                format!("must be positive, got {}", ShortFloat(tops)),
            );
        }
        let throughput = Throughput::from_tops(tops);
        let active_hours = f.number("active_hours")?;
        if preset.is_none() && active_hours.is_none() {
            return schema_err(
                "workload.active_hours",
                "required unless a workload preset is used",
            );
        }
        // A preset fixes the duty cycle; silently discarding a
        // user-written active time or name would defeat the
        // reject-don't-ignore design of this schema. (The remaining
        // optional fields *override* the preset's values.)
        if preset.is_some() {
            for fixed in ["active_hours", "name"] {
                if f.get(fixed).is_some() {
                    return schema_err(
                        f.child(fixed),
                        "a workload preset fixes this; drop `preset` to set it explicitly",
                    );
                }
            }
        }
        let trace = match f.get("trace") {
            None => None,
            Some(v) => {
                let t = Fields::new(v, f.child("trace"))?;
                t.deny_unknown(&["path"])?;
                let Some(path) = t.string("path")? else {
                    return schema_err("workload.trace.path", "required field is missing");
                };
                if path.trim().is_empty() {
                    return schema_err("workload.trace.path", "the path is empty");
                }
                Some(TraceSpec {
                    path: path.to_owned(),
                })
            }
        };
        // A trace *is* the utilization profile; also writing the
        // scalar would leave one of them silently ignored.
        if trace.is_some() && f.get("average_utilization").is_some() {
            return schema_err(
                "workload.average_utilization",
                "a trace defines the utilization profile; drop `trace` to set it as a scalar",
            );
        }
        Ok(WorkloadSpec {
            preset,
            name: f.string("name")?.unwrap_or("mission").to_owned(),
            throughput,
            active_hours,
            bytes_per_op: f.number("bytes_per_op")?,
            average_bytes_per_op: f.number("average_bytes_per_op")?,
            average_utilization: f.number("average_utilization")?,
            calendar_years: f.number("calendar_years")?,
            trace,
        })
    }

    fn parse_context(value: &JsonValue) -> Result<ContextSpec, ScenarioError> {
        let f = Fields::new(value, "context")?;
        f.deny_unknown(&[
            "fab_region",
            "use_region",
            "wafer_mm",
            "die_yield",
            "power_model",
            "package",
            "beol_adjustment",
            "bandwidth_constraint",
            "beol_carbon_fraction",
            "tsv_keepout",
            "m3d_sequential_fraction",
        ])?;
        let power_model = match f.get("power_model") {
            None => None,
            Some(v) => Some(Self::parse_power(v, &f.child("power_model"))?),
        };
        let package = match f.string("package")? {
            None => None,
            Some(token) => Some(match token.trim().to_ascii_lowercase().as_str() {
                "server" => PackageModel::server(),
                "mobile" => PackageModel::mobile(),
                other => {
                    return schema_err(
                        f.child("package"),
                        format!("expected `server` or `mobile`, got `{other}`"),
                    )
                }
            }),
        };
        // The builder would clamp out-of-range knobs; a scenario file
        // rejects them instead — results must match what was written.
        let bounded = |key: &str, lo: f64, hi: f64| -> Result<Option<f64>, ScenarioError> {
            match f.number(key)? {
                None => Ok(None),
                Some(v) if (lo..=hi).contains(&v) => Ok(Some(v)),
                Some(v) => schema_err(
                    f.child(key),
                    format!("must be in [{lo}, {hi}], got {}", ShortFloat(v)),
                ),
            }
        };
        Ok(ContextSpec {
            fab_region: f.string("fab_region")?.map(str::to_owned),
            use_region: f.string("use_region")?.map(str::to_owned),
            wafer_mm: f.number("wafer_mm")?,
            die_yield: f.string("die_yield")?.map(str::to_owned),
            power_model,
            package,
            beol_adjustment: f.boolean("beol_adjustment")?,
            bandwidth_constraint: f.boolean("bandwidth_constraint")?,
            beol_carbon_fraction: bounded("beol_carbon_fraction", 0.0, 1.0)?,
            tsv_keepout: bounded("tsv_keepout", 1.0, 100.0)?,
            m3d_sequential_fraction: bounded("m3d_sequential_fraction", 0.0, 1.0)?,
        })
    }

    /// `context.power_model`: either a bare model name or an object
    /// `{"model": name, ...}` whose remaining fields are the model's
    /// numeric parameters (booleans travel as `0`/`1`).
    fn parse_power(value: &JsonValue, path: &str) -> Result<PowerSpec, ScenarioError> {
        if let Some(name) = value.as_str() {
            return Ok(PowerSpec {
                name: name.to_owned(),
                params: Params::new(),
            });
        }
        let Some(entries) = value.as_object() else {
            return schema_err(
                path,
                format!(
                    "expected a model name or an object with a `model` field, got {}",
                    value.type_name()
                ),
            );
        };
        let mut name = None;
        let mut params = Params::new();
        for (key, v) in entries {
            if key == "model" {
                let Some(n) = v.as_str() else {
                    return schema_err(
                        format!("{path}.model"),
                        format!("expected a string, got {}", v.type_name()),
                    );
                };
                name = Some(n.to_owned());
            } else if let Some(n) = v.as_f64() {
                params.set(key, n);
            } else if let Some(b) = v.as_bool() {
                params.set(key, if b { 1.0 } else { 0.0 });
            } else {
                return schema_err(
                    format!("{path}.{key}"),
                    format!("expected a number or boolean, got {}", v.type_name()),
                );
            }
        }
        name.map_or_else(
            || schema_err(format!("{path}.model"), "required field is missing"),
            |name| Ok(PowerSpec { name, params }),
        )
    }

    fn parse_sweep(value: &JsonValue) -> Result<SweepSpec, ScenarioError> {
        let f = Fields::new(value, "sweep")?;
        f.deny_unknown(&[
            "gate_count",
            "nodes",
            "nodes_nm",
            "technologies",
            "tiers",
            "tier_counts",
            "efficiency_tops_per_watt",
            "workers",
        ])?;
        let gate_count = f.required_number("gate_count")?;
        if !(gate_count.is_finite() && gate_count > 0.0) {
            return schema_err(
                "sweep.gate_count",
                format!("must be positive, got {}", ShortFloat(gate_count)),
            );
        }
        let nodes = match f.array("nodes_nm")? {
            None => None,
            Some(items) => {
                let mut nodes = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let path = format!("sweep.nodes_nm[{i}]");
                    let nm = item
                        .as_f64()
                        .ok_or(())
                        .or_else(|()| schema_err::<f64>(&path, "expected a number"))?;
                    nodes.push(parse_node(nm, &path)?);
                }
                Some(nodes)
            }
        };
        // The node axis answers to a numeric form (`nodes_nm`) and a
        // registry-name form (`nodes`, e.g. `["n7", "n5"]`); writing
        // both would be ambiguous, so it is rejected rather than
        // ignored.
        if f.get("nodes").is_some() && f.get("nodes_nm").is_some() {
            return schema_err(
                "sweep.nodes",
                "duplicates `sweep.nodes_nm`; write the node axis once",
            );
        }
        let node_names = match f.array("nodes")? {
            None => None,
            Some(items) => {
                let mut names = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let path = format!("sweep.nodes[{i}]");
                    let token = item
                        .as_str()
                        .ok_or(())
                        .or_else(|()| schema_err::<&str>(&path, "expected a node name"))?;
                    names.push(token.to_owned());
                }
                Some(names)
            }
        };
        let technologies = match f.array("technologies")? {
            None => None,
            Some(items) => {
                let mut techs = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let path = format!("sweep.technologies[{i}]");
                    let token = item
                        .as_str()
                        .ok_or(())
                        .or_else(|()| schema_err::<&str>(&path, "expected a string"))?;
                    techs.push(token.to_owned());
                }
                Some(techs)
            }
        };
        // The tier-count axis answers to both its `DesignSweep` name
        // (`tier_counts`) and the shorthand `tiers`; writing both would
        // be ambiguous, so it is rejected rather than ignored.
        if f.get("tiers").is_some() && f.get("tier_counts").is_some() {
            return schema_err(
                "sweep.tier_counts",
                "duplicates `sweep.tiers`; write the tier-count axis once",
            );
        }
        let tier_key = if f.get("tier_counts").is_some() {
            "tier_counts"
        } else {
            "tiers"
        };
        let tiers = match f.array(tier_key)? {
            None => None,
            Some(items) => {
                let mut tiers = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let path = format!("sweep.{tier_key}[{i}]");
                    let t = item
                        .as_f64()
                        .ok_or(())
                        .or_else(|()| schema_err::<f64>(&path, "expected a number"))?;
                    if t.fract() != 0.0 || !(2.0..=64.0).contains(&t) {
                        return schema_err(
                            &path,
                            format!("expected a tier count in 2..=64, got {}", ShortFloat(t)),
                        );
                    }
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    tiers.push(t as u32);
                }
                if tiers.is_empty() {
                    return schema_err(f.child(tier_key), "the tier list is empty");
                }
                Some(tiers)
            }
        };
        let workers = match f.number("workers")? {
            None => None,
            Some(w) => {
                if w.fract() != 0.0 || !(0.0..=1024.0).contains(&w) {
                    return schema_err(
                        "sweep.workers",
                        format!("expected a count in 0..=1024, got {}", ShortFloat(w)),
                    );
                }
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Some(w as usize)
            }
        };
        Ok(SweepSpec {
            gate_count,
            nodes,
            node_names,
            technologies,
            tiers,
            efficiency: f
                .number("efficiency_tops_per_watt")?
                .map(Efficiency::from_tops_per_watt),
            workers,
        })
    }

    fn parse_explore(value: &JsonValue) -> Result<ExploreRaw, ScenarioError> {
        let f = Fields::new(value, "explore")?;
        f.deny_unknown(&["objectives", "constraints", "baseline", "refine"])?;
        let Some(objective_values) = f.array("objectives")? else {
            return schema_err("explore.objectives", "required field is missing");
        };
        let mut objectives = Vec::with_capacity(objective_values.len());
        for (i, item) in objective_values.iter().enumerate() {
            let path = format!("explore.objectives[{i}]");
            let token = item
                .as_str()
                .ok_or(())
                .or_else(|()| schema_err::<&str>(&path, "expected a string"))?;
            let objective = Objective::from_token(token).map_or_else(
                || {
                    let known: Vec<&str> =
                        Objective::ALL.into_iter().map(Objective::label).collect();
                    schema_err(
                        &path,
                        format!("unknown objective `{token}` (known: {})", known.join(", ")),
                    )
                },
                Ok,
            )?;
            objectives.push(objective);
        }
        let (constraints, technologies) = match f.get("constraints") {
            None => (Vec::new(), None),
            Some(v) => Self::parse_constraints(v)?,
        };
        let baseline = f.string("baseline")?.map(str::to_owned);
        let refine = match f.get("refine") {
            None => None,
            Some(v) => Some(Self::parse_refine(v)?),
        };
        let spec = ExploreSpec {
            objectives,
            constraints,
            baseline,
            refine,
        };
        // Core validation (objective count, duplicates, refine ranges)
        // is surfaced as a schema error on the block, so every `tdc`
        // surface reports the same path-named message. It does not
        // depend on the technology allowlist, which resolves later.
        spec.validate().map_or_else(
            |m| schema_err("explore", m),
            |()| Ok(ExploreRaw { spec, technologies }),
        )
    }

    /// Parses `explore.constraints`, returning the resolved
    /// constraints plus the raw technology-allowlist tokens (those
    /// need the registry, which is only available at build time).
    #[allow(clippy::type_complexity)]
    fn parse_constraints(
        value: &JsonValue,
    ) -> Result<(Vec<Constraint>, Option<Vec<String>>), ScenarioError> {
        let f = Fields::new(value, "explore.constraints")?;
        f.deny_unknown(&[
            "max_package_area_mm2",
            "max_embodied_kg",
            "require_viable",
            "nodes_nm",
            "technologies",
        ])?;
        let mut constraints = Vec::new();
        let positive = |key: &str| -> Result<Option<f64>, ScenarioError> {
            match f.number(key)? {
                None => Ok(None),
                Some(v) if v.is_finite() && v > 0.0 => Ok(Some(v)),
                Some(v) => schema_err(
                    f.child(key),
                    format!("must be positive, got {}", ShortFloat(v)),
                ),
            }
        };
        if let Some(mm2) = positive("max_package_area_mm2")? {
            constraints.push(Constraint::MaxPackageArea { mm2 });
        }
        if let Some(kg) = positive("max_embodied_kg")? {
            constraints.push(Constraint::MaxEmbodied { kg });
        }
        if f.boolean("require_viable")?.unwrap_or(false) {
            constraints.push(Constraint::RequireViable);
        }
        if let Some(items) = f.array("nodes_nm")? {
            let mut nodes = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let path = format!("explore.constraints.nodes_nm[{i}]");
                let nm = item
                    .as_f64()
                    .ok_or(())
                    .or_else(|()| schema_err::<f64>(&path, "expected a number"))?;
                nodes.push(parse_node(nm, &path)?);
            }
            if nodes.is_empty() {
                return schema_err("explore.constraints.nodes_nm", "the allowlist is empty");
            }
            constraints.push(Constraint::Nodes(nodes));
        }
        let technologies = match f.array("technologies")? {
            None => None,
            Some(items) => {
                let mut techs = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let path = format!("explore.constraints.technologies[{i}]");
                    let token = item
                        .as_str()
                        .ok_or(())
                        .or_else(|()| schema_err::<&str>(&path, "expected a string"))?;
                    techs.push(token.to_owned());
                }
                if techs.is_empty() {
                    return schema_err(
                        "explore.constraints.technologies",
                        "the allowlist is empty",
                    );
                }
                Some(techs)
            }
        };
        Ok((constraints, technologies))
    }

    fn parse_refine(value: &JsonValue) -> Result<RefineSpec, ScenarioError> {
        let f = Fields::new(value, "explore.refine")?;
        f.deny_unknown(&["axis", "min", "max", "samples", "budget", "tolerance"])?;
        let Some(token) = f.string("axis")? else {
            return schema_err("explore.refine.axis", "required field is missing");
        };
        let axis = RefineAxis::from_token(token).map_or_else(
            || {
                let known: Vec<&str> = RefineAxis::ALL.into_iter().map(RefineAxis::label).collect();
                schema_err(
                    "explore.refine.axis",
                    format!("unknown axis `{token}` (known: {})", known.join(", ")),
                )
            },
            Ok,
        )?;
        let min = f.required_number("min")?;
        let max = f.required_number("max")?;
        let mut spec = RefineSpec::new(axis, min, max);
        let whole = |key: &str, hi: f64| -> Result<Option<usize>, ScenarioError> {
            match f.number(key)? {
                None => Ok(None),
                Some(v) if v.fract() == 0.0 && (0.0..=hi).contains(&v) =>
                {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    Ok(Some(v as usize))
                }
                Some(v) => schema_err(
                    f.child(key),
                    format!("expected a whole count in 0..={hi}, got {}", ShortFloat(v)),
                ),
            }
        };
        if let Some(samples) = whole("samples", 65.0)? {
            spec.samples = samples;
        }
        if let Some(budget) = whole("budget", 1024.0)? {
            spec.budget = budget;
        }
        if let Some(tolerance) = f.number("tolerance")? {
            spec.tolerance = tolerance;
        }
        // The range/sampling/tolerance validation lives in core; name
        // the block so the error is path-addressed like the rest.
        spec.validate()
            .map_or_else(|m| schema_err("explore.refine", m), |()| Ok(spec))
    }

    /// The evaluating command `tdc batch` infers for this file: a
    /// scenario with an `explore` block explores, one with only a
    /// `sweep` block sweeps, anything else runs — exactly the command
    /// a user would invoke on the file alone.
    #[must_use]
    pub fn infer_request_kind(&self) -> RequestKind {
        if self.has_explore() {
            RequestKind::Explore
        } else if self.has_sweep() {
            RequestKind::Sweep
        } else {
            RequestKind::Run
        }
    }

    /// Elaborates the scenario into a typed service request for
    /// `kind`: the one elaboration every evaluating `tdc` command,
    /// `tdc batch` file and `tdc serve` frame goes through before a
    /// [`ScenarioSession`](tdc_core::service::ScenarioSession)
    /// evaluates it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `build_*` errors; a missing
    /// `workload` block for `sweep`/`sensitivity` is a schema error
    /// whose path names the block.
    pub fn build_request(&self, kind: RequestKind) -> Result<EvalRequest, ScenarioError> {
        let context = self.build_context()?;
        let required_workload = |command: &str| -> Result<Workload, ScenarioError> {
            self.build_workload()?.map_or_else(
                || {
                    schema_err(
                        "workload",
                        format!("a `{command}` request needs a workload block"),
                    )
                },
                Ok,
            )
        };
        match kind {
            RequestKind::Run => Ok(EvalRequest::Run {
                context,
                design: self.build_design()?,
                workload: self.build_workload()?,
            }),
            RequestKind::Sweep => Ok(EvalRequest::Sweep {
                context,
                plan: self.build_sweep()?.plan()?,
                workload: required_workload("sweep")?,
            }),
            RequestKind::Sensitivity => Ok(EvalRequest::Sensitivity {
                context,
                design: self.build_design()?,
                workload: required_workload("sensitivity")?,
            }),
            RequestKind::Explore => Ok(EvalRequest::Explore {
                context,
                plan: self.build_sweep()?.plan()?,
                workload: required_workload("explore")?,
                spec: self.build_explore()?,
            }),
        }
    }

    /// Whether a `design` block is present.
    #[must_use]
    pub fn has_design(&self) -> bool {
        self.design.is_some()
    }

    /// Whether a `workload` block is present.
    #[must_use]
    pub fn has_workload(&self) -> bool {
        self.workload.is_some()
    }

    /// Whether a `sweep` block is present.
    #[must_use]
    pub fn has_sweep(&self) -> bool {
        self.sweep.is_some()
    }

    /// Whether an `explore` block is present.
    #[must_use]
    pub fn has_explore(&self) -> bool {
        self.explore.is_some()
    }

    /// Elaborates the `explore` block into an [`ExploreSpec`],
    /// resolving any technology allowlist through the registry.
    ///
    /// # Errors
    ///
    /// Fails when the block is missing or an allowlisted technology
    /// name does not resolve.
    pub fn build_explore(&self) -> Result<ExploreSpec, ScenarioError> {
        let Some(raw) = &self.explore else {
            return schema_err("explore", "this command needs an explore block");
        };
        let mut spec = raw.spec.clone();
        if let Some(tokens) = &raw.technologies {
            let registry = self.registry()?;
            let mut techs = Vec::with_capacity(tokens.len());
            for (i, token) in tokens.iter().enumerate() {
                let path = format!("explore.constraints.technologies[{i}]");
                let model = registry
                    .resolve_technology(token)
                    .map_err(|e| registry_err(path, e))?;
                techs.push(model.technology);
            }
            spec.constraints.push(Constraint::Technologies(techs));
        }
        Ok(spec)
    }

    /// The `sweep` block's `workers` field, if any. The field is
    /// still parsed and validated but does nothing: every fill runs on
    /// the calling thread. Kept only because perfbench still reads it.
    #[must_use]
    pub fn sweep_workers(&self) -> Option<usize> {
        self.sweep.as_ref().and_then(|s| s.workers)
    }

    /// Elaborates the `design` block into a [`ChipDesign`]. Preset
    /// names and integration-technology tokens resolve through the
    /// scenario's registry.
    ///
    /// # Errors
    ///
    /// Fails when the block is missing, names an unknown preset or
    /// technology, or describes a design the model rejects.
    pub fn build_design(&self) -> Result<ChipDesign, ScenarioError> {
        let Some(spec) = &self.design else {
            return schema_err("design", "this command needs a design block");
        };
        match spec {
            DesignSpec::Preset(name) => self
                .registry()?
                .create_design(name)
                .map_err(|e| registry_err("design.preset", e)),
            DesignSpec::Explicit {
                technology,
                orientation,
                flow,
                dies,
            } => {
                let technology = match technology {
                    None => None,
                    Some(token) => {
                        self.registry()?
                            .resolve_technology(token)
                            .map_err(|e| registry_err("design.integration", e))?
                            .technology
                    }
                };
                Self::build_explicit(technology, *orientation, *flow, dies)
            }
        }
    }

    fn build_explicit(
        technology: Option<IntegrationTechnology>,
        orientation: Option<StackOrientation>,
        flow: Option<StackingFlow>,
        dies: &[DieSpec],
    ) -> Result<ChipDesign, ScenarioError> {
        // Orientation/flow only mean something for a 3D stack —
        // accepting them elsewhere would silently ignore what the
        // user wrote.
        let reject_stack_fields = |kind: &str| -> Result<(), ScenarioError> {
            if orientation.is_some() {
                return schema_err(
                    "design.orientation",
                    format!("only 3D stacks have an orientation ({kind} design)"),
                );
            }
            if flow.is_some() {
                return schema_err(
                    "design.flow",
                    format!("only 3D stacks have a bonding flow ({kind} design)"),
                );
            }
            Ok(())
        };
        let Some(tech) = technology else {
            reject_stack_fields("2D")?;
            if dies.len() != 1 {
                return schema_err(
                    "design.dies",
                    format!("a 2D design has exactly one die, got {}", dies.len()),
                );
            }
            return Ok(ChipDesign::monolithic_2d(dies[0].clone()));
        };
        match tech.family() {
            IntegrationFamily::ThreeD => {
                let orientation = orientation.unwrap_or(
                    if tech == IntegrationTechnology::Monolithic3d || dies.len() > 2 {
                        StackOrientation::FaceToBack
                    } else {
                        StackOrientation::FaceToFace
                    },
                );
                let flow = if tech == IntegrationTechnology::Monolithic3d {
                    flow // M3D takes no flow; an explicit one errors below.
                } else {
                    flow.or(Some(StackingFlow::DieToWafer))
                };
                Ok(ChipDesign::stack_3d(
                    dies.to_vec(),
                    tech,
                    orientation,
                    flow,
                )?)
            }
            IntegrationFamily::TwoPointFiveD => {
                reject_stack_fields("2.5D")?;
                Ok(ChipDesign::assembly_25d(dies.to_vec(), tech)?)
            }
        }
    }

    /// Elaborates the `workload` block, when present.
    ///
    /// # Errors
    ///
    /// Fails on unknown presets or out-of-domain values.
    pub fn build_workload(&self) -> Result<Option<Workload>, ScenarioError> {
        let Some(spec) = &self.workload else {
            return Ok(None);
        };
        // Base profile: the preset's duty cycle, or an explicit
        // fixed-throughput mission. The optional fields below override
        // the base in both cases.
        let mut w = if let Some(preset) = &spec.preset {
            let params = Params::new().with("throughput_tops", spec.throughput.tops());
            self.registry()?
                .create_workload(preset, &params)
                .map_err(|e| registry_err("workload.preset", e))?
        } else {
            let hours = spec.active_hours.expect("checked at parse time");
            if !(hours.is_finite() && hours > 0.0) {
                return schema_err(
                    "workload.active_hours",
                    format!("must be positive, got {}", ShortFloat(hours)),
                );
            }
            Workload::fixed(
                spec.name.clone(),
                spec.throughput,
                TimeSpan::from_hours(hours),
            )
        };
        if let Some(b) = spec.bytes_per_op {
            if !(b.is_finite() && b >= 0.0) {
                return schema_err(
                    "workload.bytes_per_op",
                    format!("must be non-negative, got {}", ShortFloat(b)),
                );
            }
            w = w.with_bytes_per_op(b);
        }
        if let Some(b) = spec.average_bytes_per_op {
            if !(b.is_finite() && b >= 0.0) {
                return schema_err(
                    "workload.average_bytes_per_op",
                    format!("must be non-negative, got {}", ShortFloat(b)),
                );
            }
            w = w.with_average_bytes_per_op(b);
        }
        if let Some(u) = spec.average_utilization {
            if !(u > 0.0 && u <= 1.0) {
                return schema_err(
                    "workload.average_utilization",
                    format!("must be in (0, 1], got {}", ShortFloat(u)),
                );
            }
            w = w.with_average_utilization(u);
        }
        if let Some(y) = spec.calendar_years {
            if !(y.is_finite() && y > 0.0) {
                return schema_err(
                    "workload.calendar_years",
                    format!("must be positive, got {}", ShortFloat(y)),
                );
            }
            let lifetime = TimeSpan::from_years(y);
            if !lifetime.hours().is_finite() {
                return schema_err(
                    "workload.calendar_years",
                    format!("{} years is not a finite number of hours", ShortFloat(y)),
                );
            }
            w = w.with_calendar_lifetime(lifetime);
        }
        if let Some(trace) = &spec.trace {
            let resolved = self.resolve_path(&trace.path);
            let profile =
                TraceReader::new()
                    .ingest_path(&resolved)
                    .map_err(|e| ScenarioError::Schema {
                        path: "workload.trace.path".to_owned(),
                        message: format!("{}: {e}", resolved.display()),
                    })?;
            w = w.with_trace(Arc::new(profile));
        }
        Ok(Some(w))
    }

    /// Resolves a scenario-written path against the scenario file's
    /// directory (when known and the path is relative).
    fn resolve_path(&self, path: &str) -> PathBuf {
        let p = Path::new(path);
        match &self.base_dir {
            Some(dir) if p.is_relative() => dir.join(p),
            _ => p.to_path_buf(),
        }
    }

    /// Elaborates the model context: the design preset's default
    /// context (e.g. Lakefield's mobile package), with the `context`
    /// block's overrides applied on top — grid regions, the yield
    /// model, and the power model resolved through the registry — and
    /// finally any loaded pack's catalog rewrites.
    ///
    /// # Errors
    ///
    /// Fails on out-of-domain values (e.g. a non-positive wafer
    /// diameter) and on names the registry does not know.
    pub fn build_context(&self) -> Result<ModelContext, ScenarioError> {
        let registry = self.registry()?;
        let base = match &self.design {
            Some(DesignSpec::Preset(name)) => design_preset_context(name),
            _ => ModelContext::default(),
        };
        let c = &self.context;
        let mut b = base.to_builder();
        if let Some(token) = &c.fab_region {
            let r = registry
                .resolve_grid(token)
                .map_err(|e| registry_err("context.fab_region", e))?;
            b = b.fab_region(r);
        }
        if let Some(token) = &c.use_region {
            let r = registry
                .resolve_grid(token)
                .map_err(|e| registry_err("context.use_region", e))?;
            b = b.use_region(r);
        }
        if let Some(mm) = c.wafer_mm {
            if !(mm.is_finite() && mm > 0.0) {
                return schema_err(
                    "context.wafer_mm",
                    format!("must be positive, got {}", ShortFloat(mm)),
                );
            }
            b = b.wafer(Wafer::with_diameter(Length::from_mm(mm)));
        }
        if let Some(token) = &c.die_yield {
            let y = registry
                .resolve_yield(token)
                .map_err(|e| registry_err("context.die_yield", e))?;
            b = b.die_yield(y);
        }
        if let Some(power) = &c.power_model {
            let choice = registry
                .create_power(&power.name, &power.params)
                .map_err(|e| registry_err("context.power_model", e))?;
            b = b.power_model(choice);
        }
        if let Some(p) = c.package {
            b = b.package(p);
        }
        if let Some(on) = c.beol_adjustment {
            b = b.beol_adjustment(on);
        }
        if let Some(on) = c.bandwidth_constraint {
            b = b.bandwidth_constraint(on);
        }
        if let Some(v) = c.beol_carbon_fraction {
            b = b.beol_carbon_fraction(v);
        }
        if let Some(v) = c.tsv_keepout {
            b = b.tsv_keepout(v);
        }
        if let Some(v) = c.m3d_sequential_fraction {
            b = b.m3d_sequential_fraction(v);
        }
        Ok(registry.apply_packs(b.build()))
    }

    /// Elaborates the `sweep` block into a [`DesignSweep`], resolving
    /// the `nodes` name axis and technology tokens through the
    /// registry.
    ///
    /// # Errors
    ///
    /// Fails when the block is missing or an axis entry does not
    /// resolve.
    pub fn build_sweep(&self) -> Result<DesignSweep, ScenarioError> {
        let Some(spec) = &self.sweep else {
            return schema_err("sweep", "this command needs a sweep block");
        };
        let mut sweep = DesignSweep::new(spec.gate_count);
        if let Some(nodes) = &spec.nodes {
            sweep = sweep.nodes(nodes.clone());
        }
        if let Some(names) = &spec.node_names {
            let registry = self.registry()?;
            let mut nodes = Vec::with_capacity(names.len());
            for (i, name) in names.iter().enumerate() {
                let params = registry
                    .resolve_node(name)
                    .map_err(|e| registry_err(format!("sweep.nodes[{i}]"), e))?;
                nodes.push(params.node());
            }
            sweep = sweep.nodes(nodes);
        }
        if let Some(tokens) = &spec.technologies {
            let registry = self.registry()?;
            let mut techs = Vec::with_capacity(tokens.len());
            for (i, token) in tokens.iter().enumerate() {
                let model = registry
                    .resolve_technology(token)
                    .map_err(|e| registry_err(format!("sweep.technologies[{i}]"), e))?;
                techs.push(model.technology);
            }
            sweep = sweep.technologies(techs);
        }
        if let Some(tiers) = &spec.tiers {
            sweep = sweep.tier_counts(tiers.clone());
        }
        if let Some(eff) = spec.efficiency {
            sweep = sweep.efficiency(eff);
        }
        Ok(sweep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_core::DieYieldChoice;
    use tdc_technode::GridRegion;

    #[test]
    fn minimal_preset_scenario_parses() {
        let s = Scenario::parse(r#"{"design": {"preset": "epyc-7452"}}"#).unwrap();
        assert_eq!(s.name, "scenario");
        assert!(s.has_design());
        assert!(!s.has_workload());
        let d = s.build_design().unwrap();
        assert_eq!(d.dies().len(), 5);
        assert!(s.build_workload().unwrap().is_none());
    }

    #[test]
    fn explicit_design_elaborates() {
        let s = Scenario::parse(
            r#"{
              "design": {
                "integration": "hybrid-3d",
                "dies": [
                  {"name": "t0", "node_nm": 7, "gate_count": 8.5e9},
                  {"name": "t1", "node_nm": 7, "gate_count": 8.5e9}
                ]
              }
            }"#,
        )
        .unwrap();
        let d = s.build_design().unwrap();
        assert_eq!(d.technology(), Some(IntegrationTechnology::HybridBonding3d));
        match d {
            ChipDesign::Stack3d {
                orientation, flow, ..
            } => {
                assert_eq!(orientation, StackOrientation::FaceToFace);
                assert_eq!(flow, Some(StackingFlow::DieToWafer));
            }
            other => panic!("expected a stack, got {other:?}"),
        }
    }

    #[test]
    fn workload_and_context_elaborate() {
        let s = Scenario::parse(
            r#"{
              "workload": {
                "throughput_tops": 254,
                "active_hours": 10000,
                "average_utilization": 0.4,
                "calendar_years": 10
              },
              "context": {"fab_region": "renewable", "use_region": "france", "die_yield": "poisson"}
            }"#,
        )
        .unwrap();
        let w = s.build_workload().unwrap().unwrap();
        assert!((w.peak_throughput().tops() - 254.0).abs() < 1e-12);
        assert!((w.average_utilization() - 0.4).abs() < 1e-12);
        let ctx = s.build_context().unwrap();
        assert_eq!(ctx.fab_region(), GridRegion::Renewable);
        assert_eq!(ctx.use_region(), GridRegion::France);
        assert_eq!(ctx.die_yield(), DieYieldChoice::Poisson);
    }

    #[test]
    fn workload_preset_resolves() {
        let s =
            Scenario::parse(r#"{"workload": {"preset": "av-robotaxi", "throughput_tops": 254}}"#)
                .unwrap();
        let w = s.build_workload().unwrap().unwrap();
        assert!(w.calendar_lifetime().is_some());
    }

    #[test]
    fn workload_preset_accepts_overrides_but_not_fixed_fields() {
        // Optional fields override the preset's values...
        let s = Scenario::parse(
            r#"{"workload": {"preset": "av-robotaxi", "throughput_tops": 254,
                 "average_utilization": 0.9, "calendar_years": 3}}"#,
        )
        .unwrap();
        let w = s.build_workload().unwrap().unwrap();
        assert!((w.average_utilization() - 0.9).abs() < 1e-12);
        assert!((w.calendar_lifetime().unwrap().years() - 3.0).abs() < 1e-12);
        // ...but fields the preset computes are rejected, not ignored.
        let err = Scenario::parse(
            r#"{"workload": {"preset": "av-robotaxi", "throughput_tops": 254, "active_hours": 1}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("workload.active_hours"), "{err}");
    }

    #[test]
    fn out_of_range_context_knobs_are_rejected_not_clamped() {
        for (field, value) in [
            ("beol_carbon_fraction", "4.5"),
            ("tsv_keepout", "0.5"),
            ("m3d_sequential_fraction", "-0.1"),
        ] {
            let err =
                Scenario::parse(&format!(r#"{{"context": {{"{field}": {value}}}}}"#)).unwrap_err();
            assert!(err.to_string().contains(field), "{err}");
        }
        // In-range values pass through unclamped.
        let s = Scenario::parse(r#"{"context": {"beol_carbon_fraction": 0.3}}"#).unwrap();
        let ctx = s.build_context().unwrap();
        assert!((ctx.beol_carbon_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn non_positive_throughput_is_rejected() {
        for tops in ["-254", "0"] {
            let err = Scenario::parse(&format!(
                r#"{{"workload": {{"throughput_tops": {tops}, "active_hours": 10}}}}"#
            ))
            .unwrap_err();
            assert!(err.to_string().contains("throughput_tops"), "{err}");
        }
    }

    #[test]
    fn stack_fields_on_non_3d_designs_are_rejected() {
        let dies_25d = r#"[{"node_nm": 7, "gate_count": 1e9}, {"node_nm": 7, "gate_count": 1e9}]"#;
        let s = Scenario::parse(&format!(
            r#"{{"design": {{"integration": "emib", "flow": "w2w", "dies": {dies_25d}}}}}"#
        ))
        .unwrap();
        let err = s.build_design().unwrap_err();
        assert!(err.to_string().contains("design.flow"), "{err}");
        let s = Scenario::parse(&format!(
            r#"{{"design": {{"integration": "emib", "orientation": "f2f", "dies": {dies_25d}}}}}"#
        ))
        .unwrap();
        let err = s.build_design().unwrap_err();
        assert!(err.to_string().contains("design.orientation"), "{err}");
        let s = Scenario::parse(
            r#"{"design": {"orientation": "f2f", "dies": [{"node_nm": 7, "gate_count": 1e9}]}}"#,
        )
        .unwrap();
        assert!(s.build_design().is_err());
    }

    #[test]
    fn sweep_block_elaborates() {
        let s = Scenario::parse(
            r#"{
              "sweep": {
                "gate_count": 17e9,
                "nodes_nm": [7, 5],
                "technologies": ["2d", "hybrid", "emib"],
                "tiers": [2, 4],
                "workers": 8
              }
            }"#,
        )
        .unwrap();
        assert_eq!(s.sweep_workers(), Some(8));
        let plan = s.build_sweep().unwrap().plan().unwrap();
        // Per node: 1×2D + hybrid@{2,4} + emib@{2,4} = 5 points.
        assert_eq!(plan.len(), 10);
    }

    #[test]
    fn tier_counts_axis_matches_tiers_shorthand() {
        let via_alias = Scenario::parse(
            r#"{"sweep": {"gate_count": 17e9, "nodes_nm": [7], "tier_counts": [2, 4]}}"#,
        )
        .unwrap();
        let via_shorthand =
            Scenario::parse(r#"{"sweep": {"gate_count": 17e9, "nodes_nm": [7], "tiers": [2, 4]}}"#)
                .unwrap();
        let a = via_alias.build_sweep().unwrap().plan().unwrap();
        let b = via_shorthand.build_sweep().unwrap().plan().unwrap();
        assert_eq!(a.len(), b.len());
        assert!(a
            .points()
            .iter()
            .zip(b.points())
            .all(|(x, y)| x.label() == y.label()));
    }

    #[test]
    fn tier_counts_schema_errors_name_the_path() {
        // Out-of-domain entry: the path names the element.
        let err =
            Scenario::parse(r#"{"sweep": {"gate_count": 1e9, "tier_counts": [1]}}"#).unwrap_err();
        assert!(err.to_string().contains("sweep.tier_counts[0]"), "{err}");
        // Wrong element type.
        let err = Scenario::parse(r#"{"sweep": {"gate_count": 1e9, "tier_counts": ["two"]}}"#)
            .unwrap_err();
        assert!(err.to_string().contains("sweep.tier_counts[0]"), "{err}");
        // Empty list.
        let err =
            Scenario::parse(r#"{"sweep": {"gate_count": 1e9, "tier_counts": []}}"#).unwrap_err();
        assert!(err.to_string().contains("sweep.tier_counts"), "{err}");
        // Writing the axis under both names is ambiguous — rejected,
        // not silently resolved.
        let err =
            Scenario::parse(r#"{"sweep": {"gate_count": 1e9, "tiers": [2], "tier_counts": [4]}}"#)
                .unwrap_err();
        assert!(err.to_string().contains("sweep.tier_counts"), "{err}");
        assert!(err.to_string().contains("tiers"), "{err}");
    }

    #[test]
    fn unknown_fields_are_rejected_with_paths() {
        let err = Scenario::parse(r#"{"design": {"preset": "orin-2d", "oops": 1}}"#).unwrap_err();
        assert!(err.to_string().contains("design.oops"), "{err}");
        let err = Scenario::parse(
            r#"{"workload": {"throughput_tops": 1, "active_hours": 1, "utilization": 0.5}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("workload.utilization"), "{err}");
    }

    #[test]
    fn bad_tokens_name_the_field() {
        // Registry-resolved names fail at build time (packs could
        // define them), numeric node identities still at parse time.
        let s = Scenario::parse(
            r#"{"design": {"integration": "warp", "dies": [{"node_nm": 7, "gate_count": 1e9}]}}"#,
        )
        .unwrap();
        let err = s.build_design().unwrap_err();
        assert!(err.to_string().contains("design.integration"), "{err}");
        assert!(
            err.to_string().contains("unknown technology `warp`"),
            "{err}"
        );
        let s = Scenario::parse(r#"{"context": {"fab_region": "atlantis"}}"#).unwrap();
        let err = s.build_context().unwrap_err();
        assert!(err.to_string().contains("context.fab_region"), "{err}");
        assert!(
            err.to_string().contains("unknown grid region `atlantis`"),
            "{err}"
        );
        let err =
            Scenario::parse(r#"{"sweep": {"gate_count": 1e9, "nodes_nm": [6]}}"#).unwrap_err();
        assert!(err.to_string().contains("nodes_nm[0]"), "{err}");
    }

    #[test]
    fn unknown_yield_and_power_models_error_at_build_time() {
        let s = Scenario::parse(r#"{"context": {"die_yield": "wishful"}}"#).unwrap();
        let err = s.build_context().unwrap_err();
        assert_eq!(
            err.to_string(),
            "scenario field `context.die_yield`: \
             unknown yield model `wishful` (known: paper, poisson, murphy)"
        );
        let s = Scenario::parse(r#"{"context": {"power_model": "perpetuum"}}"#).unwrap();
        let err = s.build_context().unwrap_err();
        assert!(err.to_string().contains("context.power_model"), "{err}");
        assert!(
            err.to_string().contains("unknown power model `perpetuum`"),
            "{err}"
        );
    }

    #[test]
    fn power_model_accepts_string_and_object_forms() {
        let s = Scenario::parse(r#"{"context": {"power_model": "analytical-cmos"}}"#).unwrap();
        assert!(s.build_context().is_ok());
        let s = Scenario::parse(
            r#"{"context": {"power_model": {"model": "fixed-efficiency", "tops_per_watt": 5}}}"#,
        )
        .unwrap();
        assert!(s.build_context().is_ok());
        // Parameter validation happens in the factory, path-named.
        let s = Scenario::parse(
            r#"{"context": {"power_model": {"model": "fixed-efficiency", "bogus": 1}}}"#,
        )
        .unwrap();
        let err = s.build_context().unwrap_err();
        assert!(err.to_string().contains("context.power_model"), "{err}");
        assert!(err.to_string().contains("bogus"), "{err}");
        // The object form needs a `model` field.
        let err =
            Scenario::parse(r#"{"context": {"power_model": {"tops_per_watt": 5}}}"#).unwrap_err();
        assert!(
            err.to_string().contains("context.power_model.model"),
            "{err}"
        );
    }

    #[test]
    fn sweep_node_name_axis_matches_nodes_nm() {
        let by_name =
            Scenario::parse(r#"{"sweep": {"gate_count": 17e9, "nodes": ["n7", "5nm"]}}"#).unwrap();
        let by_nm =
            Scenario::parse(r#"{"sweep": {"gate_count": 17e9, "nodes_nm": [7, 5]}}"#).unwrap();
        let a = by_name.build_sweep().unwrap().plan().unwrap();
        let b = by_nm.build_sweep().unwrap().plan().unwrap();
        assert_eq!(a.len(), b.len());
        assert!(a
            .points()
            .iter()
            .zip(b.points())
            .all(|(x, y)| x.label() == y.label()));
        // Writing the axis in both forms is ambiguous — rejected.
        let err =
            Scenario::parse(r#"{"sweep": {"gate_count": 1e9, "nodes": ["n7"], "nodes_nm": [7]}}"#)
                .unwrap_err();
        assert!(err.to_string().contains("sweep.nodes"), "{err}");
        // Unknown names carry their element path.
        let s = Scenario::parse(r#"{"sweep": {"gate_count": 1e9, "nodes": ["n6"]}}"#).unwrap();
        let err = s.build_sweep().unwrap_err();
        assert!(err.to_string().contains("sweep.nodes[0]"), "{err}");
        assert!(err.to_string().contains("unknown process node"), "{err}");
    }

    #[test]
    fn packs_block_is_structurally_validated_at_parse_time() {
        let err = Scenario::parse(r#"{"packs": "not-a-list"}"#).unwrap_err();
        assert!(err.to_string().contains("packs"), "{err}");
        let err = Scenario::parse(r#"{"packs": [7]}"#).unwrap_err();
        assert!(err.to_string().contains("packs[0]"), "{err}");
        let err = Scenario::parse(r#"{"packs": ["  "]}"#).unwrap_err();
        assert!(err.to_string().contains("packs[0]"), "{err}");
        // A missing pack file fails at build time, path-named.
        let s = Scenario::parse(r#"{"packs": ["no/such/pack.json"]}"#).unwrap();
        let err = s.build_context().unwrap_err();
        assert!(err.to_string().contains("packs[0]"), "{err}");
        assert!(err.to_string().contains("no/such/pack.json"), "{err}");
    }

    #[test]
    fn pack_less_scenarios_share_one_base_that_packs_never_write() {
        use tdc_registry::{ModelKind, Provenance};
        let n7_provenance = |registry: &Registry| {
            registry
                .list(Some(ModelKind::Node))
                .into_iter()
                .find(|meta| meta.name == "n7")
                .map(|meta| meta.provenance.clone())
        };
        let plain = || Scenario::parse(r#"{"design": {"preset": "epyc-7452"}}"#).unwrap();
        let (a, b) = (plain(), plain());
        assert!(std::ptr::eq(a.registry().unwrap(), b.registry().unwrap()));
        assert!(Arc::ptr_eq(&Registry::builtins(), &Registry::builtins()));

        let scenarios = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let packed = Scenario::parse(r#"{"packs": ["packs/example_node.json"]}"#)
            .unwrap()
            .with_base_dir(Some(&scenarios));
        let packed = packed.registry().unwrap();
        assert!(!std::ptr::eq(packed, a.registry().unwrap()));
        assert_eq!(
            n7_provenance(packed),
            Some(Provenance::Pack("example-node".to_owned()))
        );
        assert_eq!(packed.applications().len(), 1);

        let fresh = plain();
        let fresh = fresh.registry().unwrap();
        assert_eq!(n7_provenance(fresh), Some(Provenance::BuiltIn));
        assert!(fresh.applications().is_empty());
    }

    #[test]
    fn missing_blocks_error_cleanly() {
        let s = Scenario::parse("{}").unwrap();
        assert!(s.build_design().is_err());
        assert!(s.build_sweep().is_err());
        assert!(s.build_workload().unwrap().is_none());
        // Default context still builds.
        assert!(s.build_context().is_ok());
    }

    #[test]
    fn unknown_preset_is_a_schema_error() {
        let s = Scenario::parse(r#"{"design": {"preset": "warp-core"}}"#).unwrap();
        let err = s.build_design().unwrap_err();
        assert!(matches!(err, ScenarioError::Schema { .. }));
        assert!(err.to_string().contains("warp-core"));
    }

    #[test]
    fn preset_context_flows_through() {
        let s = Scenario::parse(r#"{"design": {"preset": "lakefield-d2w"}}"#).unwrap();
        let mobile = s.build_context().unwrap();
        let probe = Area::from_mm2(100.0);
        let default = ModelContext::default();
        assert!(
            mobile.package().package_area(probe) < default.package().package_area(probe),
            "lakefield preset implies the mobile package"
        );
    }
}
