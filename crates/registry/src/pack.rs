//! Loadable *technology packs*: JSON parameter tables plus small
//! derating expressions, so new process nodes and bonding technologies
//! ship as data — no recompile.
//!
//! A pack file looks like:
//!
//! ```json
//! {
//!   "pack": "sample",
//!   "description": "what this pack models",
//!   "nodes": [
//!     {
//!       "name": "n7-lowk",
//!       "base": "n7",
//!       "description": "7 nm with a low-k BEOL stack",
//!       "params": { "max_beol_layers": 16 },
//!       "derive": { "energy_per_area_kwh_per_cm2": "base * 1.05" }
//!     }
//!   ],
//!   "technologies": [
//!     {
//!       "name": "hybrid-fine",
//!       "base": "hybrid",
//!       "derive": { "pitch_um": "base / 2" }
//!     }
//!   ]
//! }
//! ```
//!
//! * `params` sets absolute values; `derive` computes them from the
//!   base model with the [`crate::expr`] grammar (variables: every
//!   base parameter by key name, `base` for the same key, and `nm` for
//!   nodes). A key may appear in `params` or `derive`, not both.
//! * Because the model's node and technology identities are closed
//!   enums, a pack entry always **re-parameterizes its base identity**:
//!   loading the example above changes what *every* design using `n7`
//!   silicon or `hybrid` bonding prices as, and registers the new name
//!   as a resolvable alias. Two loaded entries may not target the same
//!   base identity.
//! * A pack entry whose `name` matches a built-in (e.g. a pack that
//!   redefines `n7` wholesale) *shadows* the built-in in the registry;
//!   colliding with another pack's entry is an error.
//!
//! Errors are path/line-named: JSON syntax problems carry the file
//! path plus line/column, schema problems carry the file path plus the
//! JSON field path, and expression problems add the 1-based column
//! inside the expression string.

use crate::builtins::{
    apply_interface_params, apply_node_params, NODE_PARAM_KEYS, TECHNOLOGY_PARAM_KEYS,
};
use crate::expr::Expression;
use crate::json::JsonValue;
use crate::{
    EntryMeta, ModelInstance, ModelKind, PackApplication, Params, Provenance, Registry,
    RegistryError, TechnologyModel,
};
use std::fmt;
use std::io::Read as _;
use std::path::Path;
use tdc_integration::{InterfaceSpec, IoDensity};
use tdc_technode::NodeParameters;

/// The most bytes a pack file may hold; [`Registry::load_pack`]
/// rejects a longer file without reading past the limit.
pub const MAX_PACK_BYTES: u64 = 1 << 20;

/// Why a pack file could not be loaded or validated. The message
/// always leads with the file path and, where applicable, the JSON
/// line/column or field path and the expression column.
#[derive(Debug, Clone, PartialEq)]
pub struct PackError {
    /// The pack file path, as given.
    pub path: String,
    /// What went wrong (already includes line/field detail).
    pub message: String,
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for PackError {}

/// What a successfully loaded (or validated) pack contained.
#[derive(Debug, Clone, PartialEq)]
pub struct PackSummary {
    /// The pack's declared name.
    pub name: String,
    /// The pack's declared description, if any.
    pub description: Option<String>,
    /// Names of the node entries, in file order.
    pub nodes: Vec<String>,
    /// Names of the technology entries, in file order.
    pub technologies: Vec<String>,
}

struct Loader<'a> {
    path: String,
    registry: &'a mut Registry,
    pack_name: String,
}

impl Loader<'_> {
    fn err(&self, message: impl Into<String>) -> PackError {
        PackError {
            path: self.path.clone(),
            message: message.into(),
        }
    }

    fn field_err(&self, field: &str, message: impl fmt::Display) -> PackError {
        self.err(format!("pack field `{field}`: {message}"))
    }
}

fn string_field<'v>(
    loader: &Loader<'_>,
    value: &'v JsonValue,
    field: &str,
) -> Result<&'v str, PackError> {
    value.as_str().ok_or_else(|| {
        loader.field_err(
            field,
            format_args!("expected a string, got {}", value.type_name()),
        )
    })
}

/// Reads `params` (numbers; booleans fold to 0/1) and `derive`
/// (expression strings) off one entry object, evaluating `derive`
/// against `variables`. Returns the merged parameter overrides.
fn entry_params(
    loader: &Loader<'_>,
    entry: &JsonValue,
    field: &str,
    allowed: &[&str],
    variables: &dyn Fn(&str) -> Option<f64>,
) -> Result<Params, PackError> {
    let mut params = Params::new();
    if let Some(table) = entry.get("params") {
        let pairs = table.as_object().ok_or_else(|| {
            loader.field_err(
                &format!("{field}.params"),
                format_args!("expected an object, got {}", table.type_name()),
            )
        })?;
        for (key, value) in pairs {
            let path = format!("{field}.params.{key}");
            if !allowed.contains(&key.as_str()) {
                return Err(loader.field_err(
                    &path,
                    format_args!("unknown parameter (expected: {})", allowed.join(", ")),
                ));
            }
            let v = match value {
                JsonValue::Bool(b) => f64::from(*b),
                other => other.as_f64().ok_or_else(|| {
                    loader.field_err(
                        &path,
                        format_args!("expected a number, got {}", other.type_name()),
                    )
                })?,
            };
            params.set(key, v);
        }
    }
    if let Some(table) = entry.get("derive") {
        let pairs = table.as_object().ok_or_else(|| {
            loader.field_err(
                &format!("{field}.derive"),
                format_args!("expected an object, got {}", table.type_name()),
            )
        })?;
        for (key, value) in pairs {
            let path = format!("{field}.derive.{key}");
            if !allowed.contains(&key.as_str()) {
                return Err(loader.field_err(
                    &path,
                    format_args!("unknown parameter (expected: {})", allowed.join(", ")),
                ));
            }
            if params.get(key).is_some() {
                return Err(loader.field_err(&path, "key appears in both `params` and `derive`"));
            }
            let source = value.as_str().ok_or_else(|| {
                loader.field_err(
                    &path,
                    format_args!("expected an expression string, got {}", value.type_name()),
                )
            })?;
            let expr = Expression::parse(source).map_err(|e| loader.field_err(&path, e))?;
            let resolved = expr
                .eval(&|name| {
                    if name == "base" {
                        variables(key)
                    } else {
                        variables(name)
                    }
                })
                .map_err(|e| loader.field_err(&path, e))?;
            params.set(key, resolved);
        }
    }
    Ok(params)
}

fn node_variables(base: &NodeParameters) -> impl Fn(&str) -> Option<f64> + '_ {
    |name| {
        Some(match name {
            "nm" => f64::from(base.node().nanometers()),
            "feature_size_nm" => base.feature_size().nm(),
            "beta" => base.beta(),
            "max_beol_layers" => f64::from(base.max_beol_layers()),
            "energy_per_area_kwh_per_cm2" => base.energy_per_area().kwh_per_cm2(),
            "gas_per_area_kg_per_cm2" => base.gas_per_area().kg_per_cm2(),
            "material_per_area_kg_per_cm2" => base.material_per_area().kg_per_cm2(),
            "defect_density_per_cm2" => base.defect_density_per_cm2(),
            "clustering_alpha" => base.clustering_alpha(),
            "tsv_diameter_um" => base.tsv_diameter().um(),
            _ => return None,
        })
    }
}

fn interface_variables(base: InterfaceSpec) -> impl Fn(&str) -> Option<f64> {
    move |name| {
        Some(match name {
            "rate_gbps" => base.data_rate().gbps(),
            "energy_fj_per_bit" => base.energy_per_bit().fj_per_bit(),
            "io_power_counted" => f64::from(base.io_power_counted()),
            "pitch_um" => match base.io_density() {
                IoDensity::AreaArray { pitch } => pitch.um(),
                IoDensity::PerEdge { .. } => return None,
            },
            "io_per_mm_per_layer" => match base.io_density() {
                IoDensity::PerEdge { per_mm_per_layer } => per_mm_per_layer,
                IoDensity::AreaArray { .. } => return None,
            },
            _ => return None,
        })
    }
}

impl Registry {
    /// Loads a technology-pack file (a regular file of at most
    /// [`MAX_PACK_BYTES`]): validates it, registers every entry (pack
    /// entries may shadow built-ins of the same name, but not other
    /// packs'), and records the catalog rewrites
    /// [`Registry::apply_packs`] will perform.
    ///
    /// # Errors
    ///
    /// A [`PackError`] naming the file and the JSON line/column or
    /// field path of the first problem; a JSON syntax error never
    /// quotes the file's bytes. The registry is left unchanged on
    /// error.
    pub fn load_pack(&mut self, path: &Path) -> Result<PackSummary, PackError> {
        let _obs = tdc_obs::span("pack.load");
        if tdc_obs::enabled() {
            tdc_obs::metrics::REGISTRY_PACK_LOADS.inc();
        }
        // Load into a scratch clone-free staging pass first? The
        // registry cannot be cheaply cloned (factories are closures),
        // so instead: validate and build every entry *before* touching
        // the registry, then register.
        let display_path = path.display().to_string();
        let text = read_pack(path).map_err(|message| PackError {
            path: display_path.clone(),
            message,
        })?;
        let doc = JsonValue::parse(&text).map_err(|e| PackError {
            path: display_path.clone(),
            message: e.without_input().to_string(),
        })?;

        let mut loader = Loader {
            path: display_path,
            registry: self,
            pack_name: String::new(),
        };

        let allowed_top = ["pack", "description", "nodes", "technologies"];
        if let Some(pairs) = doc.as_object() {
            for (key, _) in pairs {
                if !allowed_top.contains(&key.as_str()) {
                    return Err(loader.field_err(key, "unknown field"));
                }
            }
        } else {
            return Err(loader.err(format!("expected a JSON object, got {}", doc.type_name())));
        }
        let name = doc
            .get("pack")
            .ok_or_else(|| loader.field_err("pack", "missing (the pack's name)"))?;
        let name = string_field(&loader, name, "pack")?.trim().to_owned();
        if name.is_empty() {
            return Err(loader.field_err("pack", "must not be empty"));
        }
        loader.pack_name = name;
        let description = match doc.get("description") {
            Some(v) => Some(string_field(&loader, v, "description")?.to_owned()),
            None => None,
        };

        // Stage 1: validate + build, touching nothing.
        let mut staged: Vec<(EntryMeta, ModelInstance, PackApplication)> = Vec::new();
        for (block, kind) in [
            ("nodes", ModelKind::Node),
            ("technologies", ModelKind::Technology),
        ] {
            let Some(entries) = doc.get(block) else {
                continue;
            };
            let entries = entries.as_array().ok_or_else(|| {
                loader.field_err(
                    block,
                    format_args!("expected an array, got {}", entries.type_name()),
                )
            })?;
            for (i, entry) in entries.iter().enumerate() {
                let field = format!("{block}[{i}]");
                if entry.as_object().is_none() {
                    return Err(loader.field_err(
                        &field,
                        format_args!("expected an object, got {}", entry.type_name()),
                    ));
                }
                for (key, _) in entry.as_object().unwrap_or(&[]) {
                    if !["name", "base", "description", "params", "derive"].contains(&key.as_str())
                    {
                        return Err(loader.field_err(&format!("{field}.{key}"), "unknown field"));
                    }
                }
                let entry_name = entry
                    .get("name")
                    .ok_or_else(|| loader.field_err(&format!("{field}.name"), "missing"))?;
                let entry_name = string_field(&loader, entry_name, &format!("{field}.name"))?
                    .trim()
                    .to_owned();
                if entry_name.is_empty() {
                    return Err(loader.field_err(&format!("{field}.name"), "must not be empty"));
                }
                let base_token = match entry.get("base") {
                    Some(v) => string_field(&loader, v, &format!("{field}.base"))?.to_owned(),
                    None => entry_name.clone(),
                };
                let entry_description = match entry.get("description") {
                    Some(v) => {
                        string_field(&loader, v, &format!("{field}.description"))?.to_owned()
                    }
                    None => format!("derived from `{base_token}`"),
                };
                let staged_entry = match kind {
                    ModelKind::Node => {
                        let base = loader
                            .registry
                            .resolve_node(&base_token)
                            .map_err(|e| loader.field_err(&format!("{field}.base"), e))?;
                        let params = entry_params(
                            &loader,
                            entry,
                            &field,
                            NODE_PARAM_KEYS,
                            &node_variables(&base),
                        )?;
                        let built = apply_node_params(&entry_name, &base, &params)
                            .map_err(|e| loader.field_err(&field, e))?;
                        (
                            ModelInstance::Node(built.clone()),
                            PackApplication::Node(built),
                        )
                    }
                    _ => {
                        let base = loader
                            .registry
                            .resolve_technology(&base_token)
                            .map_err(|e| loader.field_err(&format!("{field}.base"), e))?;
                        let Some(tech) = base.technology else {
                            return Err(loader.field_err(
                                &format!("{field}.base"),
                                "cannot derive from monolithic `2D`",
                            ));
                        };
                        let base_spec = base.interface.unwrap_or_else(|| {
                            tdc_integration::IntegrationCatalog::shipped_interface(tech)
                        });
                        let params = entry_params(
                            &loader,
                            entry,
                            &field,
                            TECHNOLOGY_PARAM_KEYS,
                            &interface_variables(base_spec),
                        )?;
                        let spec = apply_interface_params(&entry_name, base_spec, &params)
                            .map_err(|e| loader.field_err(&field, e))?;
                        (
                            ModelInstance::Technology(TechnologyModel {
                                technology: Some(tech),
                                interface: Some(spec),
                            }),
                            PackApplication::Interface(tech, spec),
                        )
                    }
                };
                let meta = EntryMeta {
                    kind,
                    name: entry_name,
                    aliases: Vec::new(),
                    description: entry_description,
                    provenance: Provenance::Pack(loader.pack_name.clone()),
                };
                staged.push((meta, staged_entry.0, staged_entry.1));
            }
        }

        // Name collisions are checked up front so a failing pack
        // leaves the registry untouched: shadowing a built-in is fine,
        // colliding with another pack entry (or within this file) is
        // not.
        let mut seen_names: Vec<(ModelKind, String)> = Vec::new();
        for (meta, _, _) in &staged {
            let token = Registry::normalize(&meta.name);
            if seen_names.contains(&(meta.kind, token.clone())) {
                return Err(loader.field_err(
                    &meta.name,
                    format!("duplicate {} in this pack", meta.kind.noun()),
                ));
            }
            if let Some(&i) = loader.registry.index.get(&(meta.kind, token.clone())) {
                let holder = &loader.registry.entries[i].meta.provenance;
                if *holder != Provenance::BuiltIn {
                    return Err(loader.field_err(
                        &meta.name,
                        RegistryError::Duplicate {
                            kind: meta.kind,
                            name: token.clone(),
                            existing: holder.clone(),
                        },
                    ));
                }
            }
            seen_names.push((meta.kind, token));
        }

        // Two loaded entries (same pack or different packs) must not
        // rewrite the same base identity — the rewrite is global, so
        // the result would depend on load order.
        for (idx, (meta, _, application)) in staged.iter().enumerate() {
            let clash_in_file = staged[..idx]
                .iter()
                .any(|(_, _, earlier)| applications_collide(earlier, application));
            let clash_loaded = loader
                .registry
                .applications()
                .iter()
                .any(|earlier| applications_collide(earlier, application));
            if clash_in_file || clash_loaded {
                let target = match application {
                    PackApplication::Node(p) => format!("node {} nm", p.node().nanometers()),
                    PackApplication::Interface(t, _) => format!("technology {}", t.label()),
                };
                return Err(loader.field_err(
                    &meta.name,
                    format!("a loaded pack entry already re-parameterizes {target}"),
                ));
            }
        }

        // Stage 2: commit. Registration can still collide with another
        // pack's *name*; report that with the file context.
        let mut summary = PackSummary {
            name: loader.pack_name.clone(),
            description,
            nodes: Vec::new(),
            technologies: Vec::new(),
        };
        for (meta, instance, application) in staged {
            match meta.kind {
                ModelKind::Node => summary.nodes.push(meta.name.clone()),
                _ => summary.technologies.push(meta.name.clone()),
            }
            let name = meta.name.clone();
            let factory: crate::Factory = match instance {
                ModelInstance::Node(params) => Box::new(move |p: &Params| {
                    apply_node_params(&name, &params, p).map(ModelInstance::Node)
                }),
                ModelInstance::Technology(model) => Box::new(move |p: &Params| {
                    if p.is_empty() {
                        return Ok(ModelInstance::Technology(model.clone()));
                    }
                    let spec = model.interface.ok_or_else(|| RegistryError::Invalid {
                        kind: ModelKind::Technology,
                        name: name.clone(),
                        message: "has no interface to re-parameterize".to_owned(),
                    })?;
                    let spec = apply_interface_params(&name, spec, p)?;
                    Ok(ModelInstance::Technology(TechnologyModel {
                        technology: model.technology,
                        interface: Some(spec),
                    }))
                }),
                _ => unreachable!("packs stage only nodes and technologies"),
            };
            let entry_label = meta.name.clone();
            loader
                .registry
                .register_override(meta, factory)
                .map_err(|e| loader.field_err(&entry_label, e))?;
            loader.registry.record_application(application);
        }
        Ok(summary)
    }

    /// Validates a pack file against the built-in catalogs *without*
    /// touching `self` — the `tdc packs check` path.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::load_pack`].
    pub fn validate_pack(path: &Path) -> Result<PackSummary, PackError> {
        Registry::with_builtins().load_pack(path)
    }
}

/// Reads a pack file's text: a regular file only (a FIFO or a device
/// could block forever or never end, so it is never opened), and at
/// most [`MAX_PACK_BYTES`] of it.
fn read_pack(path: &Path) -> Result<String, String> {
    if !std::fs::metadata(path)
        .map_err(|e| e.to_string())?
        .is_file()
    {
        return Err("not a regular file".to_owned());
    }
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|file| file.take(MAX_PACK_BYTES + 1).read_to_end(&mut bytes))
        .map_err(|e| e.to_string())?;
    if bytes.len() as u64 > MAX_PACK_BYTES {
        return Err(format!("file exceeds the {MAX_PACK_BYTES}-byte pack limit"));
    }
    String::from_utf8(bytes).map_err(|e| e.to_string())
}

fn applications_collide(a: &PackApplication, b: &PackApplication) -> bool {
    match (a, b) {
        (PackApplication::Node(x), PackApplication::Node(y)) => x.node() == y.node(),
        (PackApplication::Interface(x, _), PackApplication::Interface(y, _)) => x == y,
        _ => false,
    }
}
