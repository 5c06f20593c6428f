//! The `tdc packs` subcommand: inspect the model registry.
//!
//! * `tdc packs` — list every registered model (grid regions, nodes,
//!   technologies, yield/power models, presets) with its aliases,
//!   provenance (built-in vs. pack file), and description;
//! * `tdc packs <pack.json>...` — the same listing after loading the
//!   given technology packs, so pack-defined entries show up with
//!   their pack's name as the source;
//! * `tdc packs check <pack.json>...` — validate pack files (JSON
//!   shape, parameter names, derating expressions, name collisions)
//!   without evaluating anything; errors carry the file path and,
//!   for parse failures, the line/column.

use crate::report::OutputFormat;
use crate::table::TextTable;
use std::fmt::Write as _;
use std::path::Path;
use tdc_registry::json::JsonValue;
use tdc_registry::Registry;

/// CSV-quotes a field when needed (commas, quotes, newlines).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Renders the registry listing (every unshadowed entry, in
/// registration order) in the requested format.
#[must_use]
pub fn render_registry(registry: &Registry, format: OutputFormat) -> String {
    let entries = registry.list(None);
    match format {
        OutputFormat::Table => {
            let mut table =
                TextTable::new(vec!["kind", "name", "aliases", "source", "description"]);
            for meta in &entries {
                table.push_row(vec![
                    meta.kind.label().to_owned(),
                    meta.name.clone(),
                    meta.aliases.join(", "),
                    meta.provenance.to_string(),
                    meta.description.clone(),
                ]);
            }
            format!("{}models: {}\n", table.render(), entries.len())
        }
        OutputFormat::Json => {
            let models: Vec<JsonValue> = entries
                .iter()
                .map(|meta| {
                    JsonValue::Object(vec![
                        (
                            "kind".to_owned(),
                            JsonValue::String(meta.kind.label().to_owned()),
                        ),
                        ("name".to_owned(), JsonValue::String(meta.name.clone())),
                        (
                            "aliases".to_owned(),
                            JsonValue::Array(
                                meta.aliases
                                    .iter()
                                    .map(|a| JsonValue::String(a.clone()))
                                    .collect(),
                            ),
                        ),
                        (
                            "source".to_owned(),
                            JsonValue::String(meta.provenance.to_string()),
                        ),
                        (
                            "description".to_owned(),
                            JsonValue::String(meta.description.clone()),
                        ),
                    ])
                })
                .collect();
            JsonValue::Object(vec![("models".to_owned(), JsonValue::Array(models))]).render()
        }
        OutputFormat::Csv => {
            let mut out = String::from("kind,name,aliases,source,description\n");
            for meta in &entries {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{}",
                    meta.kind.label(),
                    csv_field(&meta.name),
                    csv_field(&meta.aliases.join(" ")),
                    csv_field(&meta.provenance.to_string()),
                    csv_field(&meta.description),
                );
            }
            out
        }
    }
}

/// `tdc packs [files...]`: builds a registry from the built-in
/// catalogs plus the given pack files and renders the listing.
///
/// # Errors
///
/// Fails when a pack does not load; the message names the file.
pub fn list_models(files: &[String], format: OutputFormat) -> Result<String, String> {
    let mut registry = Registry::with_builtins();
    for file in files {
        registry
            .load_pack(Path::new(file))
            .map_err(|e| e.to_string())?;
    }
    Ok(render_registry(&registry, format))
}

/// `tdc packs check <files...>`: validates each pack file against the
/// built-in registry without evaluating anything, reporting one line
/// per file.
///
/// # Errors
///
/// Fails (after checking every file) when any file is invalid.
pub fn check_packs(files: &[String]) -> Result<String, String> {
    if files.is_empty() {
        return Err("`tdc packs check` needs at least one pack file".to_owned());
    }
    let mut out = String::new();
    let mut failures = 0usize;
    for file in files {
        match Registry::validate_pack(Path::new(file)) {
            Ok(summary) => {
                let _ = writeln!(
                    out,
                    "ok {file}: pack `{}` ({} node{}, {} technolog{})",
                    summary.name,
                    summary.nodes.len(),
                    if summary.nodes.len() == 1 { "" } else { "s" },
                    summary.technologies.len(),
                    if summary.technologies.len() == 1 {
                        "y"
                    } else {
                        "ies"
                    },
                );
            }
            Err(e) => {
                failures += 1;
                let _ = writeln!(out, "error {e}");
            }
        }
    }
    if failures == 0 {
        Ok(out)
    } else {
        // The per-file lines still reach stdout via the error path's
        // caller printing them; simplest is to return them as the
        // error message so the exit code is non-zero.
        Err(format!(
            "{out}{failures} of {} pack file{} failed validation",
            files.len(),
            if files.len() == 1 { "" } else { "s" },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_covers_every_kind_and_counts_models() {
        let registry = Registry::with_builtins();
        let out = render_registry(&registry, OutputFormat::Table);
        for fragment in [
            "| grid ",
            "| node ",
            "| technology ",
            "| yield ",
            "| power ",
            "| design ",
            "| workload ",
            "built-in",
        ] {
            assert!(out.contains(fragment), "missing {fragment}:\n{out}");
        }
        let count = registry.list(None).len();
        assert!(out.ends_with(&format!("models: {count}\n")), "{out}");
    }

    #[test]
    fn json_listing_parses_back() {
        let registry = Registry::with_builtins();
        let out = render_registry(&registry, OutputFormat::Json);
        let doc = JsonValue::parse(&out).unwrap();
        let models = doc.get("models").and_then(JsonValue::as_array).unwrap();
        assert_eq!(models.len(), registry.list(None).len());
        assert!(models.iter().all(|m| m.get("kind").is_some()
            && m.get("name").is_some()
            && m.get("source").is_some()));
    }

    #[test]
    fn csv_listing_has_header_and_rows() {
        let out = render_registry(&Registry::with_builtins(), OutputFormat::Csv);
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some("kind,name,aliases,source,description"));
        assert!(lines.next().is_some());
    }

    #[test]
    fn check_requires_files_and_reports_missing_ones() {
        assert!(check_packs(&[]).is_err());
        let err = check_packs(&["/no/such/pack.json".to_owned()]).unwrap_err();
        assert!(err.contains("/no/such/pack.json"), "{err}");
        assert!(err.contains("1 of 1 pack file failed validation"), "{err}");
    }
}
