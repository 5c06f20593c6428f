//! `tdc batch`: evaluate many scenario files on one shared warm
//! session.
//!
//! Every file takes the single-shot commands' own path — elaborated
//! by [`Scenario::build_request`], evaluated on a [`ScenarioSession`],
//! rendered by [`render_response`] — except that all files share one
//! session. Warmth never changes a response, so the concatenated
//! stdout is **byte-identical** to running `tdc run`/`tdc sweep`/
//! `tdc explore` on each file alone, while files that share
//! geometry/yield/embodied slices answer from artifacts earlier files
//! computed. Reuse accounting (per file and aggregate, including the
//! cross-request hit counters) goes to stderr in the stable
//! [`summary`](tdc_core::service::summary) `key=value` format.

use crate::report::{render_response, OutputFormat};
use crate::scenario::Scenario;
use std::io::Write;
use std::path::{Path, PathBuf};
use tdc_core::service::summary::stages_kv;
use tdc_core::service::{EvalRequest, ScenarioSession};

/// What one `tdc batch` invocation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSummary {
    /// Scenario files evaluated.
    pub files: usize,
    /// Files that produced a report.
    pub ok: usize,
    /// Files that failed (parse, schema, or model errors).
    pub failed: usize,
}

impl BatchSummary {
    /// Whether every file evaluated cleanly.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.failed == 0
    }
}

/// Reads one scenario file and elaborates it into the request `tdc
/// batch` would evaluate for it (inferring run vs sweep the way a
/// user invoking the file alone would). Shared by the batch loop and
/// the tests, so both evaluate the same work for the same file.
///
/// # Errors
///
/// Fails on unreadable files, schema violations, and request
/// elaboration errors, with the failing path in the message.
pub fn load_request(file: &Path) -> Result<(Scenario, EvalRequest), String> {
    let path = file.display();
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let scenario = Scenario::parse(&text)
        .map(|s| s.with_base_dir(file.parent()))
        .map_err(|e| e.to_string())?;
    let request = scenario
        .build_request(scenario.infer_request_kind())
        .map_err(|e| e.to_string())?;
    Ok((scenario, request))
}

/// Expands `paths` into the scenario-file work list: files are taken
/// as given; directories contribute their `*.json` entries sorted by
/// file name (so the evaluation order — and therefore stdout — is
/// deterministic).
///
/// # Errors
///
/// Fails on unreadable directories and on directories containing no
/// scenario files.
pub fn expand_paths(paths: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for path in paths {
        let p = Path::new(path);
        if p.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(p)
                .map_err(|e| format!("cannot read directory `{path}`: {e}"))?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
                .collect();
            if entries.is_empty() {
                return Err(format!("directory `{path}` contains no .json scenarios"));
            }
            entries.sort();
            files.extend(entries);
        } else {
            files.push(p.to_path_buf());
        }
    }
    if files.is_empty() {
        return Err("`tdc batch` needs at least one scenario file or directory".to_owned());
    }
    Ok(files)
}

/// Evaluates `files` on `session`, writing each file's report to
/// `stdout` (byte-identical to the single-shot command on that file)
/// and per-file + aggregate stats lines to `stderr`.
///
/// # Errors
///
/// Only I/O failures on the output streams are hard errors; per-file
/// evaluation failures are reported on `stderr`, counted in the
/// summary, and do not stop the batch.
pub fn run_batch(
    session: &ScenarioSession,
    files: &[PathBuf],
    format: OutputFormat,
    stdout: &mut dyn Write,
    stderr: &mut dyn Write,
) -> std::io::Result<BatchSummary> {
    let mut summary = BatchSummary {
        files: files.len(),
        ok: 0,
        failed: 0,
    };
    for (i, file) in files.iter().enumerate() {
        let position = format!("batch[{}/{}] {}", i + 1, files.len(), file.display());
        match evaluate_file(session, file) {
            Ok((name, kind, report_stats, response)) => {
                summary.ok += 1;
                stdout.write_all(render_response(&name, &response, format).as_bytes())?;
                writeln!(
                    stderr,
                    "{position} kind={kind} status=ok {}",
                    stages_kv(&report_stats)
                )?;
            }
            Err(message) => {
                summary.failed += 1;
                writeln!(stderr, "{position} status=error: {message}")?;
            }
        }
    }
    let totals = session.stats();
    writeln!(
        stderr,
        "batch files={} ok={} failed={} requests={} {}",
        summary.files,
        summary.ok,
        summary.failed,
        totals.requests,
        stages_kv(&totals.stages)
    )?;
    Ok(summary)
}

type FileOutcome = (
    String,
    &'static str,
    tdc_core::sweep::PipelineStats,
    tdc_core::service::EvalResponse,
);

fn evaluate_file(session: &ScenarioSession, file: &Path) -> Result<FileOutcome, String> {
    let (scenario, request) = load_request(file)?;
    let evaluated = session.evaluate(&request).map_err(|e| e.to_string())?;
    let kind = scenario.infer_request_kind();
    Ok((
        scenario.name,
        kind.label(),
        evaluated.stats.stages,
        evaluated.response,
    ))
}
