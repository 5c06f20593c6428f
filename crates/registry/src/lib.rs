//! The model registry: every named building block of the carbon model
//! — grid regions, process nodes, integration technologies, yield
//! models, power models, design and workload presets — resolved
//! through one `name -> factory(params)` table ([`Registry`]), with
//! listable metadata ([`EntryMeta`]), provenance (built-in vs. pack
//! file), and a single reject-unknown error shape ([`RegistryError`]).
//!
//! The per-enum token tables (`GridRegion::resolve_token`,
//! `IntegrationTechnology::resolve_token`, the `tdc-workloads` preset
//! grammar) are folded in here: [`Registry::builtins`] is the one
//! process-wide registry of the shipped catalogs, so every scenario
//! that resolved before resolves identically through the registry —
//! and *technology packs* ([`pack`]) extend the same namespace at run
//! time with new nodes and bonding technologies shipped as data, no
//! recompile. A pack loads into an owned copy
//! ([`Registry::with_builtins`]), never into the shared base.
//!
//! ```
//! use tdc_registry::{ModelKind, Registry};
//!
//! let registry = Registry::with_builtins();
//! let node = registry.resolve_node("n7").unwrap();
//! assert_eq!(node.node().nanometers(), 7);
//!
//! // Unknown names are errors that name what they looked for:
//! let err = registry.resolve(ModelKind::Technology, "warp").unwrap_err();
//! assert!(err.to_string().contains("unknown technology `warp`"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expr;
pub mod json;
pub mod pack;

mod builtins;

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

pub use builtins::{NODE_PARAM_KEYS, TECHNOLOGY_PARAM_KEYS};
pub use pack::{PackError, PackSummary};
use tdc_core::{ChipDesign, DieYieldChoice, ModelContext, ModelError, Workload};
use tdc_integration::{IntegrationTechnology, InterfaceSpec};
use tdc_power::PowerModelChoice;
use tdc_technode::{GridRegion, NodeParameters};

/// Which family of model a registry entry instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelKind {
    /// Electrical-grid carbon intensities ([`GridRegion`]).
    Grid,
    /// Process-node parameter sets ([`NodeParameters`]).
    Node,
    /// Integration technologies (bonding/packaging options, plus the
    /// monolithic `2D` pseudo-entry).
    Technology,
    /// Die-yield model choices ([`DieYieldChoice`]).
    Yield,
    /// Operational power plug-ins ([`PowerModelChoice`]).
    Power,
    /// Design presets (the `tdc-workloads` grammar).
    Design,
    /// Workload presets (AV mission profiles).
    Workload,
}

impl ModelKind {
    /// All kinds, in listing order.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::Grid,
        ModelKind::Node,
        ModelKind::Technology,
        ModelKind::Yield,
        ModelKind::Power,
        ModelKind::Design,
        ModelKind::Workload,
    ];

    /// Stable machine-readable label (reports, `tdc packs` tables).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Grid => "grid",
            ModelKind::Node => "node",
            ModelKind::Technology => "technology",
            ModelKind::Yield => "yield",
            ModelKind::Power => "power",
            ModelKind::Design => "design",
            ModelKind::Workload => "workload",
        }
    }

    /// The noun used in error messages ("unknown {noun} `{name}`").
    #[must_use]
    pub fn noun(self) -> &'static str {
        match self {
            ModelKind::Grid => "grid region",
            ModelKind::Node => "process node",
            ModelKind::Technology => "technology",
            ModelKind::Yield => "yield model",
            ModelKind::Power => "power model",
            ModelKind::Design => "preset",
            ModelKind::Workload => "preset",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a registry entry came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// Compiled into the binary (the shipped catalogs).
    BuiltIn,
    /// Loaded from a technology-pack file (the pack's name).
    Pack(String),
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provenance::BuiltIn => f.write_str("built-in"),
            Provenance::Pack(name) => write!(f, "pack `{name}`"),
        }
    }
}

/// Listable metadata for one registered model.
#[derive(Debug, Clone)]
pub struct EntryMeta {
    /// Which family the entry belongs to.
    pub kind: ModelKind,
    /// Canonical display name (also a resolvable token).
    pub name: String,
    /// Additional tokens that resolve to this entry.
    pub aliases: Vec<String>,
    /// One-line human description.
    pub description: String,
    /// Built-in or pack-loaded.
    pub provenance: Provenance,
}

impl EntryMeta {
    /// Convenience constructor for a built-in entry.
    #[must_use]
    pub fn built_in(kind: ModelKind, name: &str, description: &str) -> Self {
        Self {
            kind,
            name: name.to_owned(),
            aliases: Vec::new(),
            description: description.to_owned(),
            provenance: Provenance::BuiltIn,
        }
    }

    /// Adds resolvable alias tokens.
    #[must_use]
    pub fn with_aliases(mut self, aliases: &[&str]) -> Self {
        self.aliases = aliases.iter().map(|a| (*a).to_owned()).collect();
        self
    }
}

/// Named numeric parameters handed to a factory at `create` time.
///
/// Keys are model-specific (each factory rejects keys it does not
/// understand); values are `f64` — booleans travel as `0.0`/`1.0`,
/// integers must have no fractional part.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    values: BTreeMap<String, f64>,
}

impl Params {
    /// An empty parameter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or replaces) one parameter.
    pub fn set(&mut self, key: &str, value: f64) {
        self.values.insert(key.to_owned(), value);
    }

    /// Builder-style [`Params::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: f64) -> Self {
        self.set(key, value);
        self
    }

    /// Reads one parameter.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// `true` when no parameters are set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The first key not in `allowed`, if any — factories use this to
    /// reject unknown parameters by name.
    #[must_use]
    pub fn unknown_key(&self, allowed: &[&str]) -> Option<&str> {
        self.values
            .keys()
            .map(String::as_str)
            .find(|k| !allowed.contains(k))
    }
}

/// An instantiated model, one variant per [`ModelKind`].
#[derive(Debug, Clone)]
pub enum ModelInstance {
    /// A grid region.
    Grid(GridRegion),
    /// A process-node parameter set.
    Node(NodeParameters),
    /// An integration technology (plus an optional interface override).
    Technology(TechnologyModel),
    /// A die-yield model choice.
    Yield(DieYieldChoice),
    /// An operational power plug-in choice.
    Power(PowerModelChoice),
    /// A buildable chip design.
    Design(ChipDesign),
    /// A mission workload.
    Workload(Workload),
}

impl ModelInstance {
    /// The kind this instance belongs to.
    #[must_use]
    pub fn kind(&self) -> ModelKind {
        match self {
            ModelInstance::Grid(_) => ModelKind::Grid,
            ModelInstance::Node(_) => ModelKind::Node,
            ModelInstance::Technology(_) => ModelKind::Technology,
            ModelInstance::Yield(_) => ModelKind::Yield,
            ModelInstance::Power(_) => ModelKind::Power,
            ModelInstance::Design(_) => ModelKind::Design,
            ModelInstance::Workload(_) => ModelKind::Workload,
        }
    }
}

/// A resolved integration-technology entry.
///
/// `technology: None` is the monolithic `2D` pseudo-entry (no
/// stacking). A pack-defined technology carries the
/// [`InterfaceSpec`] its pack derived; built-ins leave `interface`
/// as `None`, meaning "whatever the context's catalog says".
#[derive(Debug, Clone)]
pub struct TechnologyModel {
    /// The underlying technology, or `None` for monolithic 2D.
    pub technology: Option<IntegrationTechnology>,
    /// An electrical-interface override (pack entries only).
    pub interface: Option<InterfaceSpec>,
}

/// Why a registry operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// The name resolves to nothing of this kind.
    Unknown {
        /// The kind searched.
        kind: ModelKind,
        /// The name as given (untrimmed).
        name: String,
        /// A per-kind pointer at what *would* resolve.
        hint: String,
    },
    /// `register` was asked to claim a name that is already taken.
    Duplicate {
        /// The kind being registered.
        kind: ModelKind,
        /// The colliding token.
        name: String,
        /// Who holds the name already.
        existing: Provenance,
    },
    /// The name resolved but its parameters were rejected.
    Invalid {
        /// The kind being created.
        kind: ModelKind,
        /// The entry name.
        name: String,
        /// What was wrong.
        message: String,
    },
    /// The name resolved but the model itself rejected the result
    /// (e.g. a preset design outside its technology envelope).
    Model(ModelError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Unknown { kind, name, hint } => {
                write!(f, "unknown {} `{name}` ({hint})", kind.noun())
            }
            RegistryError::Duplicate {
                kind,
                name,
                existing,
            } => {
                write!(
                    f,
                    "duplicate {} `{name}` (already registered: {existing})",
                    kind.noun()
                )
            }
            RegistryError::Invalid {
                kind,
                name,
                message,
            } => {
                write!(f, "{} `{name}`: {message}", kind.noun())
            }
            RegistryError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<ModelError> for RegistryError {
    fn from(e: ModelError) -> Self {
        RegistryError::Model(e)
    }
}

/// A model factory: parameters in, instance (of the entry's kind) out.
pub type Factory = Box<dyn Fn(&Params) -> Result<ModelInstance, RegistryError> + Send + Sync>;

/// A grammar-rule resolver: `(name, params)` in, `None` when the name
/// is not in the rule's grammar.
pub type RuleResolver =
    Arc<dyn Fn(&str, &Params) -> Option<Result<ModelInstance, RegistryError>> + Send + Sync>;

/// A [`Factory`] as the registry holds it: shared, so a cloned
/// registry copies pointers, never closures.
type SharedFactory = Arc<dyn Fn(&Params) -> Result<ModelInstance, RegistryError> + Send + Sync>;

#[derive(Clone)]
struct Entry {
    meta: EntryMeta,
    factory: SharedFactory,
    shadowed: bool,
}

/// A fallback resolver for grammar-shaped namespaces (e.g. the design
/// presets' `hbm<N>-d2w` / `<platform>-het-<tech>` forms, which are a
/// grammar, not a list). Rules run only when no registered entry
/// matches; the first rule returning `Some` wins.
#[derive(Clone)]
struct GrammarRule {
    kind: ModelKind,
    #[allow(dead_code)]
    description: String,
    resolve: RuleResolver,
}

/// What loading a pack changes about a [`ModelContext`]'s catalogs.
#[derive(Debug, Clone)]
pub enum PackApplication {
    /// Insert/replace a node parameter set in the technology database.
    Node(NodeParameters),
    /// Replace one technology's electrical interface in the catalog.
    Interface(IntegrationTechnology, InterfaceSpec),
}

/// The factory registry. See the [crate docs](crate) for the tour.
///
/// A clone copies the entries' metadata, the name index, the hints and
/// the loaded packs' rewrites, and shares every factory and grammar
/// rule.
#[derive(Clone)]
pub struct Registry {
    entries: Vec<Entry>,
    index: HashMap<(ModelKind, String), usize>,
    rules: Vec<GrammarRule>,
    hints: BTreeMap<ModelKind, String>,
    applications: Vec<PackApplication>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<_> = self
            .entries
            .iter()
            .filter(|e| !e.shadowed)
            .map(|e| format!("{}:{}", e.meta.kind, e.meta.name))
            .collect();
        f.debug_struct("Registry")
            .field("entries", &names)
            .field("rules", &self.rules.len())
            .field("applications", &self.applications.len())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl Registry {
    /// An empty registry (no entries, no grammar rules). Most callers
    /// want [`Registry::with_builtins`].
    #[must_use]
    pub fn empty() -> Self {
        Self {
            entries: Vec::new(),
            index: HashMap::new(),
            rules: Vec::new(),
            hints: BTreeMap::new(),
            applications: Vec::new(),
        }
    }

    /// The process-wide registry of every shipped catalog: all grid
    /// regions, process nodes, integration technologies (plus `2D`),
    /// yield models, power models, design-preset examples (with the
    /// full preset grammar as a fallback rule), and workload presets.
    ///
    /// The catalogs install on the first call; every later call
    /// returns the same registry. Nothing can load a pack into it:
    /// packs load into an owned copy ([`Registry::with_builtins`]).
    #[must_use]
    pub fn builtins() -> Arc<Registry> {
        static BUILTINS: OnceLock<Arc<Registry>> = OnceLock::new();
        Arc::clone(BUILTINS.get_or_init(|| {
            let mut registry = Self::empty();
            builtins::install(&mut registry);
            Arc::new(registry)
        }))
    }

    /// An owned copy of [`Registry::builtins`], for loading packs into
    /// ([`Registry::load_pack`]). The copy shares the built-ins'
    /// factories, so it costs the metadata and the name index only.
    #[must_use]
    pub fn with_builtins() -> Self {
        Self::clone(&Self::builtins())
    }

    /// Canonical token form: trimmed, lowercased, with underscores and
    /// spaces folded to hyphens (the normalization the enums'
    /// `resolve_token` parsers apply).
    #[must_use]
    pub fn normalize(token: &str) -> String {
        token.trim().to_ascii_lowercase().replace(['_', ' '], "-")
    }

    /// Registers a new entry; every token (canonical name + aliases)
    /// must be free.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Duplicate`] naming the first colliding token.
    pub fn register(&mut self, meta: EntryMeta, factory: Factory) -> Result<(), RegistryError> {
        self.insert(meta, Arc::from(factory), false)
    }

    /// Registers an entry that may *shadow* built-ins of the same
    /// kind/name (how packs redefine a shipped model). Colliding with
    /// another pack-loaded entry is still a duplicate error.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Duplicate`] if a non-built-in entry already
    /// holds one of the tokens.
    pub fn register_override(
        &mut self,
        meta: EntryMeta,
        factory: Factory,
    ) -> Result<(), RegistryError> {
        self.insert(meta, Arc::from(factory), true)
    }

    fn insert(
        &mut self,
        meta: EntryMeta,
        factory: SharedFactory,
        allow_shadow: bool,
    ) -> Result<(), RegistryError> {
        let kind = meta.kind;
        let mut tokens = vec![Self::normalize(&meta.name)];
        for alias in &meta.aliases {
            let t = Self::normalize(alias);
            if !tokens.contains(&t) {
                tokens.push(t);
            }
        }
        let mut to_shadow = Vec::new();
        for token in &tokens {
            if let Some(&existing) = self.index.get(&(kind, token.clone())) {
                let holder = &self.entries[existing].meta.provenance;
                if !allow_shadow || *holder != Provenance::BuiltIn {
                    return Err(RegistryError::Duplicate {
                        kind,
                        name: token.clone(),
                        existing: holder.clone(),
                    });
                }
                to_shadow.push(existing);
            }
        }
        // Shadow whole entries, not just the colliding token: when a
        // pack redefines `n7`, the built-in's `7` alias must follow it
        // rather than keep resolving to the replaced entry.
        let new_index = self.entries.len();
        for shadowed in to_shadow {
            self.entries[shadowed].shadowed = true;
            for slot in self.index.values_mut() {
                if *slot == shadowed {
                    *slot = new_index;
                }
            }
        }
        for token in tokens {
            self.index.insert((kind, token), new_index);
        }
        self.entries.push(Entry {
            meta,
            factory,
            shadowed: false,
        });
        Ok(())
    }

    /// Installs a grammar-rule fallback for `kind` (tried, in
    /// registration order, when no entry matches a token).
    pub fn register_rule<F>(&mut self, kind: ModelKind, description: &str, resolve: F)
    where
        F: Fn(&str, &Params) -> Option<Result<ModelInstance, RegistryError>>
            + Send
            + Sync
            + 'static,
    {
        self.rules.push(GrammarRule {
            kind,
            description: description.to_owned(),
            resolve: Arc::new(resolve),
        });
    }

    /// Pins the hint text appended to this kind's unknown-name errors
    /// (defaults to `known: <registered names>`).
    pub fn set_unknown_hint(&mut self, kind: ModelKind, hint: &str) {
        self.hints.insert(kind, hint.to_owned());
    }

    /// The hint appended to unknown-name errors for `kind`.
    #[must_use]
    pub fn hint(&self, kind: ModelKind) -> String {
        if let Some(h) = self.hints.get(&kind) {
            return h.clone();
        }
        let names: Vec<_> = self
            .entries
            .iter()
            .filter(|e| !e.shadowed && e.meta.kind == kind)
            .map(|e| e.meta.name.as_str())
            .collect();
        format!("known: {}", names.join(", "))
    }

    /// Instantiates `name` (of `kind`) with `params`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Unknown`] when nothing matches;
    /// [`RegistryError::Invalid`] / [`RegistryError::Model`] when the
    /// factory rejects the parameters or the model rejects the result.
    pub fn create(
        &self,
        kind: ModelKind,
        name: &str,
        params: &Params,
    ) -> Result<ModelInstance, RegistryError> {
        let token = Self::normalize(name);
        if let Some(&i) = self.index.get(&(kind, token.clone())) {
            return (self.entries[i].factory)(params);
        }
        for rule in self.rules.iter().filter(|r| r.kind == kind) {
            if let Some(result) = (rule.resolve)(&token, params) {
                return result;
            }
        }
        Err(RegistryError::Unknown {
            kind,
            name: name.to_owned(),
            hint: self.hint(kind),
        })
    }

    /// [`Registry::create`] with no parameters — the registry form of
    /// the enums' `resolve_token` parsers.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::create`].
    pub fn resolve(&self, kind: ModelKind, name: &str) -> Result<ModelInstance, RegistryError> {
        self.create(kind, name, &Params::default())
    }

    /// Lists registered entries (optionally one kind), in registration
    /// order, shadowed built-ins excluded.
    #[must_use]
    pub fn list(&self, kind: Option<ModelKind>) -> Vec<&EntryMeta> {
        self.entries
            .iter()
            .filter(|e| !e.shadowed && kind.is_none_or(|k| e.meta.kind == k))
            .map(|e| &e.meta)
            .collect()
    }

    /// The catalog rewrites (node tables, interface overrides) that
    /// loaded packs apply to a context.
    #[must_use]
    pub fn applications(&self) -> &[PackApplication] {
        &self.applications
    }

    pub(crate) fn record_application(&mut self, application: PackApplication) {
        self.applications.push(application);
    }

    /// Applies every loaded pack's catalog rewrites to `context`
    /// (replacing node parameter tables and electrical interfaces by
    /// identity). A registry with no packs returns the context
    /// untouched.
    #[must_use]
    pub fn apply_packs(&self, context: ModelContext) -> ModelContext {
        if self.applications.is_empty() {
            return context;
        }
        let mut tech_db = context.tech_db().clone();
        let mut catalog = context.catalog().clone();
        for application in &self.applications {
            match application {
                PackApplication::Node(params) => {
                    tech_db.insert(params.clone());
                }
                PackApplication::Interface(tech, spec) => {
                    catalog.set_interface(*tech, *spec);
                }
            }
        }
        context
            .to_builder()
            .tech_db(tech_db)
            .catalog(catalog)
            .build()
    }

    // ---- Typed conveniences -------------------------------------------
    //
    // `create`/`resolve` return the type-erased `ModelInstance`; the
    // scenario layer wants concrete types. A kind mismatch can only
    // happen through a buggy factory, so it surfaces as `Invalid`.

    /// Resolves a grid-region token.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::resolve`].
    pub fn resolve_grid(&self, token: &str) -> Result<GridRegion, RegistryError> {
        match self.resolve(ModelKind::Grid, token)? {
            ModelInstance::Grid(region) => Ok(region),
            other => Err(Self::mismatch(ModelKind::Grid, token, &other)),
        }
    }

    /// Resolves a process-node name into its parameter set.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::resolve`].
    pub fn resolve_node(&self, token: &str) -> Result<NodeParameters, RegistryError> {
        match self.resolve(ModelKind::Node, token)? {
            ModelInstance::Node(params) => Ok(params),
            other => Err(Self::mismatch(ModelKind::Node, token, &other)),
        }
    }

    /// Resolves a technology token (`2D` resolves to
    /// `technology: None`).
    ///
    /// # Errors
    ///
    /// Same as [`Registry::resolve`].
    pub fn resolve_technology(&self, token: &str) -> Result<TechnologyModel, RegistryError> {
        match self.resolve(ModelKind::Technology, token)? {
            ModelInstance::Technology(model) => Ok(model),
            other => Err(Self::mismatch(ModelKind::Technology, token, &other)),
        }
    }

    /// Resolves a yield-model token.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::resolve`].
    pub fn resolve_yield(&self, token: &str) -> Result<DieYieldChoice, RegistryError> {
        match self.resolve(ModelKind::Yield, token)? {
            ModelInstance::Yield(choice) => Ok(choice),
            other => Err(Self::mismatch(ModelKind::Yield, token, &other)),
        }
    }

    /// Instantiates a power model with parameters.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::create`].
    pub fn create_power(
        &self,
        name: &str,
        params: &Params,
    ) -> Result<PowerModelChoice, RegistryError> {
        match self.create(ModelKind::Power, name, params)? {
            ModelInstance::Power(choice) => Ok(choice),
            other => Err(Self::mismatch(ModelKind::Power, name, &other)),
        }
    }

    /// Resolves a design-preset name into a buildable design.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::resolve`], plus [`RegistryError::Model`]
    /// when the preset parses but the model rejects the design.
    pub fn create_design(&self, name: &str) -> Result<ChipDesign, RegistryError> {
        match self.resolve(ModelKind::Design, name)? {
            ModelInstance::Design(design) => Ok(design),
            other => Err(Self::mismatch(ModelKind::Design, name, &other)),
        }
    }

    /// Instantiates a workload preset (`throughput_tops` is the one
    /// required parameter).
    ///
    /// # Errors
    ///
    /// Same as [`Registry::create`].
    pub fn create_workload(&self, name: &str, params: &Params) -> Result<Workload, RegistryError> {
        match self.create(ModelKind::Workload, name, params)? {
            ModelInstance::Workload(workload) => Ok(workload),
            other => Err(Self::mismatch(ModelKind::Workload, name, &other)),
        }
    }

    fn mismatch(kind: ModelKind, name: &str, got: &ModelInstance) -> RegistryError {
        RegistryError::Invalid {
            kind,
            name: name.to_owned(),
            message: format!("resolved to a {} model, not a {}", got.kind(), kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_entry(name: &str) -> (EntryMeta, Factory) {
        (
            EntryMeta::built_in(ModelKind::Grid, name, "test"),
            Box::new(|_: &Params| Ok(ModelInstance::Grid(GridRegion::France))),
        )
    }

    #[test]
    fn register_and_resolve_roundtrip() {
        let mut r = Registry::empty();
        let (meta, factory) = grid_entry("atlantis");
        r.register(meta.with_aliases(&["lost-city"]), factory)
            .unwrap();
        assert!(matches!(
            r.resolve(ModelKind::Grid, "Lost_City").unwrap(),
            ModelInstance::Grid(GridRegion::France)
        ));
        assert_eq!(r.list(Some(ModelKind::Grid)).len(), 1);
    }

    #[test]
    fn duplicate_registration_is_an_error() {
        let mut r = Registry::empty();
        let (meta, factory) = grid_entry("atlantis");
        r.register(meta, factory).unwrap();
        let (meta, factory) = grid_entry("Atlantis");
        let err = r.register(meta, factory).unwrap_err();
        assert_eq!(
            err.to_string(),
            "duplicate grid region `atlantis` (already registered: built-in)"
        );
    }

    #[test]
    fn unknown_names_carry_kind_and_hint() {
        let mut r = Registry::empty();
        let (meta, factory) = grid_entry("atlantis");
        r.register(meta, factory).unwrap();
        let err = r.resolve(ModelKind::Grid, "mu").unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown grid region `mu` (known: atlantis)"
        );
        r.set_unknown_hint(ModelKind::Grid, "try atlantis");
        let err = r.resolve(ModelKind::Grid, "mu").unwrap_err();
        assert_eq!(err.to_string(), "unknown grid region `mu` (try atlantis)");
    }

    #[test]
    fn override_shadows_whole_builtin_entry() {
        let mut r = Registry::empty();
        let (meta, factory) = grid_entry("atlantis");
        r.register(meta.with_aliases(&["lost-city"]), factory)
            .unwrap();

        let meta = EntryMeta {
            provenance: Provenance::Pack("p".into()),
            ..EntryMeta::built_in(ModelKind::Grid, "atlantis", "override")
        };
        let factory: Factory = Box::new(|_| Ok(ModelInstance::Grid(GridRegion::Sweden)));
        r.register_override(meta, factory).unwrap();

        // Both the canonical name and the old alias follow the override.
        for token in ["atlantis", "lost-city"] {
            assert!(matches!(
                r.resolve(ModelKind::Grid, token).unwrap(),
                ModelInstance::Grid(GridRegion::Sweden)
            ));
        }
        // The shadowed built-in no longer lists.
        let listed = r.list(Some(ModelKind::Grid));
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].provenance, Provenance::Pack("p".into()));

        // A second pack claiming the same name is a duplicate.
        let meta = EntryMeta {
            provenance: Provenance::Pack("q".into()),
            ..EntryMeta::built_in(ModelKind::Grid, "atlantis", "clash")
        };
        let factory: Factory = Box::new(|_| Ok(ModelInstance::Grid(GridRegion::Japan)));
        let err = r.register_override(meta, factory).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        assert!(err.to_string().contains("pack `p`"), "{err}");
    }

    #[test]
    fn grammar_rules_back_fill_unmatched_tokens() {
        let mut r = Registry::empty();
        r.register_rule(ModelKind::Grid, "echo-<n>", |token, _| {
            token
                .strip_prefix("echo-")
                .map(|_| Ok(ModelInstance::Grid(GridRegion::Taiwan)))
        });
        assert!(r.resolve(ModelKind::Grid, "echo-7").is_ok());
        assert!(r.resolve(ModelKind::Grid, "foxtrot").is_err());
    }

    #[test]
    fn params_reject_unknown_keys_by_name() {
        let p = Params::new().with("year", 2021.0).with("bogus", 1.0);
        assert_eq!(p.unknown_key(&["year"]), Some("bogus"));
        assert_eq!(p.unknown_key(&["year", "bogus"]), None);
    }
}
