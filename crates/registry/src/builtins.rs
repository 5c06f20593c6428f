//! The default registrations: every shipped catalog entry, installed
//! once per process into the shared [`Registry::builtins`].
//!
//! These are *the same tables* the enums' `resolve_token` parsers and
//! the preset grammar read — the factories delegate to
//! [`GridRegion::TOKENS`], [`IntegrationTechnology::TOKENS`],
//! [`TechnologyDb::shipped_defaults`], and the `tdc-workloads`
//! resolvers — so resolution through the registry is byte-identical to
//! the pre-registry enum paths (property-tested in
//! `tests/builtin_identity.rs`).

use crate::{
    EntryMeta, ModelInstance, ModelKind, Params, Registry, RegistryError, TechnologyModel,
};
use tdc_core::DieYieldChoice;
use tdc_integration::{IntegrationCatalog, IntegrationTechnology, InterfaceSpec, IoDensity};
use tdc_power::PowerModelChoice;
use tdc_technode::{GridRegion, NodeParameters, ProcessNode, TechnologyDb};
use tdc_units::{Bandwidth, EnergyPerBit, Length, ShortFloat, Throughput};
use tdc_workloads::{
    resolve_design_preset, resolve_workload_preset, DESIGN_PRESET_EXAMPLES, WORKLOAD_PRESETS,
};

/// The parameter keys a process-node factory accepts (absolute
/// overrides of the base node's values; also the variable names a pack
/// `derive` expression may reference, plus `base` and `nm`).
pub const NODE_PARAM_KEYS: &[&str] = &[
    "beta",
    "clustering_alpha",
    "defect_density_per_cm2",
    "energy_per_area_kwh_per_cm2",
    "feature_size_nm",
    "gas_per_area_kg_per_cm2",
    "material_per_area_kg_per_cm2",
    "max_beol_layers",
    "tsv_diameter_um",
];

/// The parameter keys a technology factory accepts (overrides of the
/// base technology's shipped electrical interface).
pub const TECHNOLOGY_PARAM_KEYS: &[&str] = &[
    "energy_fj_per_bit",
    "io_per_mm_per_layer",
    "io_power_counted",
    "pitch_um",
    "rate_gbps",
];

fn invalid(kind: ModelKind, name: &str, message: impl Into<String>) -> RegistryError {
    RegistryError::Invalid {
        kind,
        name: name.to_owned(),
        message: message.into(),
    }
}

fn deny_params(kind: ModelKind, name: &str, params: &Params) -> Result<(), RegistryError> {
    if params.is_empty() {
        Ok(())
    } else {
        Err(invalid(kind, name, "takes no parameters"))
    }
}

fn deny_unknown(
    kind: ModelKind,
    name: &str,
    params: &Params,
    allowed: &[&str],
) -> Result<(), RegistryError> {
    if let Some(key) = params.unknown_key(allowed) {
        return Err(invalid(
            kind,
            name,
            format!(
                "unknown parameter `{key}` (expected: {})",
                allowed.join(", ")
            ),
        ));
    }
    Ok(())
}

fn int_param(
    kind: ModelKind,
    name: &str,
    key: &str,
    value: f64,
    range: std::ops::RangeInclusive<f64>,
) -> Result<i64, RegistryError> {
    if value.fract() != 0.0 || !range.contains(&value) {
        return Err(invalid(
            kind,
            name,
            format!(
                "parameter `{key}` must be an integer in [{}, {}], got {}",
                range.start(),
                range.end(),
                ShortFloat(value)
            ),
        ));
    }
    #[allow(clippy::cast_possible_truncation)]
    Ok(value as i64)
}

fn positive_param(
    kind: ModelKind,
    name: &str,
    key: &str,
    value: f64,
) -> Result<f64, RegistryError> {
    if !value.is_finite() || value <= 0.0 {
        return Err(invalid(
            kind,
            name,
            format!(
                "parameter `{key}` must be positive, got {}",
                ShortFloat(value)
            ),
        ));
    }
    Ok(value)
}

/// Builds `node`'s parameter set with `params` overriding the shipped
/// defaults.
pub(crate) fn node_from_params(
    name: &str,
    node: ProcessNode,
    params: &Params,
) -> Result<NodeParameters, RegistryError> {
    apply_node_params(name, &TechnologyDb::shipped_defaults(node), params)
}

/// Applies `params` as absolute overrides on top of `base` (pack node
/// entries and the built-in node factories share this path).
pub(crate) fn apply_node_params(
    name: &str,
    base: &NodeParameters,
    params: &Params,
) -> Result<NodeParameters, RegistryError> {
    let kind = ModelKind::Node;
    deny_unknown(kind, name, params, NODE_PARAM_KEYS)?;
    let mut builder = base.to_builder();
    if let Some(v) = params.get("feature_size_nm") {
        builder = builder.feature_size(Length::from_nm(positive_param(
            kind,
            name,
            "feature_size_nm",
            v,
        )?));
    }
    if let Some(v) = params.get("beta") {
        builder = builder.beta(v);
    }
    if let Some(v) = params.get("max_beol_layers") {
        let layers = int_param(kind, name, "max_beol_layers", v, 1.0..=1000.0)?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            builder = builder.max_beol_layers(layers as u32);
        }
    }
    if let Some(v) = params.get("energy_per_area_kwh_per_cm2") {
        builder = builder.energy_per_area(tdc_units::EnergyPerArea::from_kwh_per_cm2(v));
    }
    if let Some(v) = params.get("gas_per_area_kg_per_cm2") {
        builder = builder.gas_per_area(tdc_units::CarbonPerArea::from_kg_per_cm2(v));
    }
    if let Some(v) = params.get("material_per_area_kg_per_cm2") {
        builder = builder.material_per_area(tdc_units::CarbonPerArea::from_kg_per_cm2(v));
    }
    if let Some(v) = params.get("defect_density_per_cm2") {
        builder = builder.defect_density_per_cm2(v);
    }
    if let Some(v) = params.get("clustering_alpha") {
        builder = builder.clustering_alpha(v);
    }
    if let Some(v) = params.get("tsv_diameter_um") {
        builder = builder.tsv_diameter(Length::from_um(positive_param(
            kind,
            name,
            "tsv_diameter_um",
            v,
        )?));
    }
    builder
        .build()
        .map_err(|e| invalid(kind, name, e.problems().join("; ")))
}

/// Builds an interface override for `tech` from `params`, starting
/// from the shipped interface.
pub(crate) fn interface_from_params(
    name: &str,
    tech: IntegrationTechnology,
    params: &Params,
) -> Result<InterfaceSpec, RegistryError> {
    apply_interface_params(name, IntegrationCatalog::shipped_interface(tech), params)
}

/// Applies `params` as absolute overrides on top of `base` (pack
/// technology entries and the built-in technology factories share this
/// path).
pub(crate) fn apply_interface_params(
    name: &str,
    base: InterfaceSpec,
    params: &Params,
) -> Result<InterfaceSpec, RegistryError> {
    let kind = ModelKind::Technology;
    deny_unknown(kind, name, params, TECHNOLOGY_PARAM_KEYS)?;
    let data_rate = match params.get("rate_gbps") {
        Some(v) => Bandwidth::from_gbps(positive_param(kind, name, "rate_gbps", v)?),
        None => base.data_rate(),
    };
    let energy = match params.get("energy_fj_per_bit") {
        Some(v) => {
            if !v.is_finite() || v < 0.0 {
                return Err(invalid(
                    kind,
                    name,
                    format!(
                        "parameter `energy_fj_per_bit` must be non-negative, got {}",
                        ShortFloat(v)
                    ),
                ));
            }
            EnergyPerBit::from_fj_per_bit(v)
        }
        None => base.energy_per_bit(),
    };
    let io_density = match (params.get("pitch_um"), params.get("io_per_mm_per_layer")) {
        (Some(_), Some(_)) => {
            return Err(invalid(
                kind,
                name,
                "parameters `pitch_um` and `io_per_mm_per_layer` are mutually exclusive",
            ));
        }
        (Some(p), None) => IoDensity::AreaArray {
            pitch: Length::from_um(positive_param(kind, name, "pitch_um", p)?),
        },
        (None, Some(d)) => IoDensity::PerEdge {
            per_mm_per_layer: positive_param(kind, name, "io_per_mm_per_layer", d)?,
        },
        (None, None) => base.io_density(),
    };
    let io_power_counted = match params.get("io_power_counted") {
        None => base.io_power_counted(),
        Some(v) => {
            if v == 0.0 {
                false
            } else if v == 1.0 {
                true
            } else {
                return Err(invalid(
                    kind,
                    name,
                    format!(
                        "parameter `io_power_counted` must be 0, 1, or a boolean, got {}",
                        ShortFloat(v)
                    ),
                ));
            }
        }
    };
    Ok(InterfaceSpec::new(
        data_rate,
        energy,
        io_density,
        io_power_counted,
    ))
}

pub(crate) fn install(registry: &mut Registry) {
    install_grids(registry);
    install_nodes(registry);
    install_technologies(registry);
    install_yields(registry);
    install_powers(registry);
    install_designs(registry);
    install_workloads(registry);

    // Pinned hints keep the pre-registry error text byte-identical
    // (the serve golden transcript asserts the design message).
    registry.set_unknown_hint(
        ModelKind::Grid,
        "e.g. taiwan, us, france, world, coal, renewable",
    );
    registry.set_unknown_hint(ModelKind::Design, "try `tdc scenarios` for the list");
}

fn install_grids(registry: &mut Registry) {
    for (canonical, aliases, region) in GridRegion::TOKENS {
        let region = *region;
        let meta = EntryMeta::built_in(
            ModelKind::Grid,
            canonical,
            &format!("{region} grid average"),
        )
        .with_aliases(aliases);
        let canonical = (*canonical).to_owned();
        registry
            .register(
                meta,
                Box::new(move |params| {
                    deny_params(ModelKind::Grid, &canonical, params)?;
                    Ok(ModelInstance::Grid(region))
                }),
            )
            .expect("built-in grid names are unique");
    }
}

fn install_nodes(registry: &mut Registry) {
    for node in ProcessNode::ALL {
        let nm = node.nanometers();
        let name = format!("n{nm}");
        let meta = EntryMeta::built_in(
            ModelKind::Node,
            &name,
            &format!("{nm} nm process node (shipped Table 2/3 parameters)"),
        )
        .with_aliases(&[&format!("{nm}"), &format!("{nm}nm")]);
        registry
            .register(
                meta,
                Box::new(move |params| {
                    node_from_params(&format!("n{nm}"), node, params).map(ModelInstance::Node)
                }),
            )
            .expect("built-in node names are unique");
    }
}

fn install_technologies(registry: &mut Registry) {
    let meta = EntryMeta::built_in(
        ModelKind::Technology,
        "2D",
        "monolithic 2D (no die stacking)",
    );
    registry
        .register(
            meta,
            Box::new(|params| {
                deny_params(ModelKind::Technology, "2D", params)?;
                Ok(ModelInstance::Technology(TechnologyModel {
                    technology: None,
                    interface: None,
                }))
            }),
        )
        .expect("2D is unique");

    for (aliases, tech) in IntegrationTechnology::TOKENS {
        let tech = *tech;
        let meta = EntryMeta::built_in(ModelKind::Technology, tech.label(), tech.name())
            .with_aliases(aliases);
        registry
            .register(
                meta,
                Box::new(move |params| {
                    let interface = if params.is_empty() {
                        None
                    } else {
                        Some(interface_from_params(tech.label(), tech, params)?)
                    };
                    Ok(ModelInstance::Technology(TechnologyModel {
                        technology: Some(tech),
                        interface,
                    }))
                }),
            )
            .expect("built-in technology names are unique");
    }
}

fn install_yields(registry: &mut Registry) {
    let yields: [(&str, &[&str], &str, DieYieldChoice); 3] = [
        (
            "paper",
            &["negative-binomial", "neg-bin"],
            "the paper's negative binomial with the node's clustering alpha",
            DieYieldChoice::PaperNegativeBinomial,
        ),
        (
            "poisson",
            &[],
            "Poisson yield (no clustering)",
            DieYieldChoice::Poisson,
        ),
        ("murphy", &[], "Murphy's yield", DieYieldChoice::Murphy),
    ];
    for (name, aliases, description, choice) in yields {
        let meta = EntryMeta::built_in(ModelKind::Yield, name, description).with_aliases(aliases);
        registry
            .register(
                meta,
                Box::new(move |params| {
                    deny_params(ModelKind::Yield, name, params)?;
                    Ok(ModelInstance::Yield(choice))
                }),
            )
            .expect("built-in yield names are unique");
    }
}

fn install_powers(registry: &mut Registry) {
    let meta = EntryMeta::built_in(
        ModelKind::Power,
        "surveyed",
        "surveyed efficiency trendline (optional `year` pin)",
    )
    .with_aliases(&["surveyed-efficiency"]);
    registry
        .register(
            meta,
            Box::new(|params| {
                let kind = ModelKind::Power;
                deny_unknown(kind, "surveyed", params, &["year"])?;
                let year = match params.get("year") {
                    #[allow(clippy::cast_possible_truncation)]
                    Some(y) => {
                        Some(int_param(kind, "surveyed", "year", y, 1990.0..=2100.0)? as i32)
                    }
                    None => None,
                };
                Ok(ModelInstance::Power(PowerModelChoice::Surveyed { year }))
            }),
        )
        .expect("surveyed is unique");

    let meta = EntryMeta::built_in(
        ModelKind::Power,
        "fixed-efficiency",
        "fixed measured device efficiency (`tops_per_watt`, required)",
    )
    .with_aliases(&["fixed"]);
    registry
        .register(
            meta,
            Box::new(|params| {
                let kind = ModelKind::Power;
                deny_unknown(kind, "fixed-efficiency", params, &["tops_per_watt"])?;
                let Some(v) = params.get("tops_per_watt") else {
                    return Err(invalid(
                        kind,
                        "fixed-efficiency",
                        "missing required parameter `tops_per_watt`",
                    ));
                };
                let tops_per_watt = positive_param(kind, "fixed-efficiency", "tops_per_watt", v)?;
                Ok(ModelInstance::Power(PowerModelChoice::FixedEfficiency {
                    tops_per_watt,
                }))
            }),
        )
        .expect("fixed-efficiency is unique");

    let meta = EntryMeta::built_in(
        ModelKind::Power,
        "analytical-cmos",
        "first-principles CMOS dynamic+leakage estimate",
    )
    .with_aliases(&["analytical", "cmos"]);
    registry
        .register(
            meta,
            Box::new(|params| {
                deny_params(ModelKind::Power, "analytical-cmos", params)?;
                Ok(ModelInstance::Power(PowerModelChoice::AnalyticalCmos))
            }),
        )
        .expect("analytical-cmos is unique");
}

fn install_designs(registry: &mut Registry) {
    for name in DESIGN_PRESET_EXAMPLES {
        let meta = EntryMeta::built_in(
            ModelKind::Design,
            name,
            "example of the design-preset grammar (see `tdc scenarios`)",
        );
        let owned = (*name).to_owned();
        registry
            .register(
                meta,
                Box::new(move |params| {
                    deny_params(ModelKind::Design, &owned, params)?;
                    design_by_name(&owned)
                }),
            )
            .expect("built-in design example names are unique");
    }
    // The full grammar (hbm<N>-d2w, <platform>-het-<tech>, ...) is a
    // fallback rule: the examples above are just a listable sample.
    registry.register_rule(
        ModelKind::Design,
        "hbm<N>-<flow> | <platform>-2d | <platform>-homo|het-<tech>",
        |token, params| match resolve_design_preset(token) {
            None => None,
            Some(_) if !params.is_empty() => Some(Err(RegistryError::Invalid {
                kind: ModelKind::Design,
                name: token.to_owned(),
                message: "takes no parameters".to_owned(),
            })),
            Some(result) => Some(
                result
                    .map(ModelInstance::Design)
                    .map_err(RegistryError::Model),
            ),
        },
    );
}

fn design_by_name(name: &str) -> Result<ModelInstance, RegistryError> {
    match resolve_design_preset(name) {
        Some(result) => result
            .map(ModelInstance::Design)
            .map_err(RegistryError::Model),
        None => Err(RegistryError::Invalid {
            kind: ModelKind::Design,
            name: name.to_owned(),
            message: "example preset no longer resolves (grammar drift)".to_owned(),
        }),
    }
}

fn install_workloads(registry: &mut Registry) {
    for name in WORKLOAD_PRESETS {
        let meta = EntryMeta::built_in(
            ModelKind::Workload,
            name,
            "AV mission profile (requires `throughput_tops`)",
        );
        let owned = (*name).to_owned();
        registry
            .register(
                meta,
                Box::new(move |params| {
                    let kind = ModelKind::Workload;
                    deny_unknown(kind, &owned, params, &["throughput_tops"])?;
                    let Some(tops) = params.get("throughput_tops") else {
                        return Err(invalid(
                            kind,
                            &owned,
                            "missing required parameter `throughput_tops`",
                        ));
                    };
                    let tops = positive_param(kind, &owned, "throughput_tops", tops)?;
                    resolve_workload_preset(&owned, Throughput::from_tops(tops))
                        .map(ModelInstance::Workload)
                        .ok_or_else(|| invalid(kind, &owned, "workload preset no longer resolves"))
                }),
            )
            .expect("built-in workload names are unique");
    }
}
