//! The `tdc` binary: scenario-file-driven 3D-Carbon evaluations.
//!
//! ```text
//! tdc run         <scenario.json>     single evaluation (lifecycle, or embodied-only without a workload)
//! tdc sweep       <scenario.json>     design-space sweep, ranked by life-cycle carbon
//! tdc explore     <scenario.json>     Pareto frontier + Eq. 2 ranking over the sweep plan
//! tdc sensitivity <scenario.json>     one-at-a-time tornado analysis
//! tdc batch       <dir|files...>      many scenario files on one shared warm session
//! tdc serve                           JSONL request/response service on stdin/stdout
//!                                     (or a multi-client TCP frontend with --listen)
//! tdc scenarios                       list preset names scenario files can reference
//! tdc packs       [pack.json...]      list registered models (with any packs loaded)
//! tdc packs check <pack.json...>      validate technology-pack files without evaluating
//!
//! options: --format table|json|csv   --out <path>   --repeat <n>
//!          --max-inflight <n>   --listen <addr>
//!          --baseline <scenario.json>   --profile <file>
//!          --metrics-addr <addr>
//! ```

use std::io::Write as _;
use std::process::ExitCode;
use tdc_cli::report::{render_decision, render_response, OutputFormat};
use tdc_cli::{RequestKind, Scenario};
use tdc_core::explore::{ExploreReport, ExploreStats, RefineReport};
use tdc_core::service::summary::stages_kv;
use tdc_core::service::{EvalRequest, EvalResponse, ScenarioSession};
use tdc_core::CarbonModel;

const USAGE: &str = "\
tdc — 3D-Carbon scenario runner

USAGE:
    tdc <COMMAND> [OPTIONS] [<scenario.json>...]

COMMANDS:
    run           Evaluate the scenario's design (lifecycle; embodied-only
                  without a workload); with --baseline, additionally report
                  the Eq. 2 decision metrics against the baseline design
    sweep         Explore the scenario's design space, ranked by life-cycle carbon
    explore       Carbon-aware exploration of the sweep plan: constraints,
                  Pareto frontier, Eq. 2 baseline ranking, and adaptive axis
                  refinement (the scenario's `explore` block)
    sensitivity   One-at-a-time sensitivity (tornado) analysis of the design
    batch         Evaluate many scenario files (or a directory of them) on one
                  shared warm session; stdout is byte-identical to running each
                  file alone, stderr reports cross-request cache reuse
    serve         Line-delimited JSON request/response service on stdin/stdout,
                  or a multi-client TCP frontend with --listen: every
                  connection shares one warm session (protocol in
                  docs/SERVING.md)
    scenarios     List design/workload preset names usable in scenario files
    packs         List every registered model (grid regions, nodes,
                  technologies, yield/power models, presets) with provenance;
                  pack files given as arguments are loaded first. With a
                  leading `check`, validate pack files without evaluating
    help          Show this message

OPTIONS:
    --format <table|json|csv>   Output format (default: table; not `serve`)
    --out <path>                Write the report to a file instead of stdout
                                (`run`/`sweep`/`explore`/`sensitivity` only)
    --repeat <n>                Execute the sweep n times on one warm executor,
                                reporting per-stage cache hit-rates per round
                                (`sweep` only; the report is from the last round)
    --max-inflight <n>          Frames evaluating at once, per connection
                                (`serve` only; default 1 = fully sequential)
    --listen <addr>             Serve N TCP clients on one shared warm session
                                instead of stdin/stdout (`serve` only; e.g.
                                127.0.0.1:7373, port 0 = ephemeral; the bound
                                address is announced on stderr)
    --baseline <scenario.json>  Compare the scenario's design against this
                                file's design via Eq. 2 (`run` only; the
                                scenario's workload and context are used)
    --profile <file>            Record spans + metrics while the command runs
                                and write the JSON profile document to <file>
                                (`run`/`sweep`/`explore`/`batch`; schema in
                                docs/OBSERVABILITY.md)
    --metrics-addr <addr>       Expose `tdc_*` metrics as plain text over
                                trivial HTTP on <addr> while serving
                                (`serve` only; port 0 = ephemeral; the bound
                                address is announced on stderr)

Scenario files are documented in docs/SCENARIOS.md; runnable examples
live in scenarios/. The batch/serve surfaces are documented in
docs/SERVING.md; the exploration engine in docs/EXPLORE.md; spans,
metrics, and profiling in docs/OBSERVABILITY.md.
";

#[derive(Debug)]
struct Options {
    command: String,
    files: Vec<String>,
    format: Option<OutputFormat>,
    out: Option<String>,
    repeat: usize,
    max_inflight: usize,
    listen: Option<String>,
    baseline: Option<String>,
    profile: Option<String>,
    metrics_addr: Option<String>,
}

impl Options {
    fn format(&self) -> OutputFormat {
        self.format.unwrap_or_default()
    }

    /// The single scenario file of `run`/`sweep`/`explore`/`sensitivity`.
    fn single_file(&self) -> Result<&str, String> {
        match self.files.as_slice() {
            [one] => Ok(one),
            [] => Err(format!("`tdc {}` needs a scenario file", self.command)),
            _ => Err(format!(
                "`tdc {}` takes exactly one scenario file",
                self.command
            )),
        }
    }
}

fn parse_count(token: &str, what: &str) -> Result<usize, String> {
    token
        .parse()
        .map_err(|_| format!("invalid {what} `{token}`"))
}

fn parse_args(mut args: Vec<String>) -> Result<Options, String> {
    if args.is_empty() {
        return Err("missing command".to_owned());
    }
    let command = args.remove(0);
    let mut options = Options {
        command,
        files: Vec::new(),
        format: None,
        out: None,
        repeat: 1,
        max_inflight: 1,
        listen: None,
        baseline: None,
        profile: None,
        metrics_addr: None,
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--format" => {
                let token = iter.next().ok_or("--format needs a value")?;
                options.format = Some(
                    OutputFormat::from_token(&token)
                        .ok_or_else(|| format!("unknown format `{token}` (table, json, csv)"))?,
                );
            }
            "--out" => {
                options.out = Some(iter.next().ok_or("--out needs a path")?);
            }
            "--repeat" => {
                let token = iter.next().ok_or("--repeat needs a count")?;
                let n = parse_count(&token, "repeat count")?;
                if n == 0 {
                    return Err("--repeat needs a count of at least 1".to_owned());
                }
                options.repeat = n;
            }
            "--max-inflight" => {
                let token = iter.next().ok_or("--max-inflight needs a count")?;
                let n = parse_count(&token, "in-flight count")?;
                if n == 0 {
                    return Err("--max-inflight needs a count of at least 1".to_owned());
                }
                options.max_inflight = n;
            }
            "--listen" => {
                options.listen = Some(iter.next().ok_or("--listen needs an address")?);
            }
            "--baseline" => {
                options.baseline = Some(iter.next().ok_or("--baseline needs a scenario file")?);
            }
            "--profile" => {
                options.profile = Some(iter.next().ok_or("--profile needs a file path")?);
            }
            "--metrics-addr" => {
                options.metrics_addr = Some(iter.next().ok_or("--metrics-addr needs an address")?);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            file => options.files.push(file.to_owned()),
        }
    }
    validate(&options)?;
    Ok(options)
}

/// Every evaluating/serving command the binary dispatches on. The
/// option gates below are defined as subsets of this list and checked
/// against it by `gating_table_covers_only_known_commands`, so adding
/// a command without updating the gates fails the build's tests
/// instead of drifting silently.
const EVAL_COMMANDS: &[&str] = &[
    "run",
    "sweep",
    "explore",
    "sensitivity",
    "batch",
    "serve",
    "scenarios",
    "packs",
];

/// Commands an option applies to; everything else rejects it (the
/// same reject-don't-ignore stance as the scenario schema). One row
/// per option — the single place to touch when a command gains an
/// option.
const OPTION_GATES: &[(&str, &[&str])] = &[
    (
        "--format",
        &["run", "sweep", "explore", "sensitivity", "batch", "packs"],
    ),
    ("--out", &["run", "sweep", "explore", "sensitivity"]),
    ("--repeat", &["sweep"]),
    ("--max-inflight", &["serve"]),
    ("--listen", &["serve"]),
    ("--baseline", &["run"]),
    ("--profile", &["run", "sweep", "explore", "batch"]),
    ("--metrics-addr", &["serve"]),
];

/// Commands that take no scenario-file arguments at all.
const NO_FILE_COMMANDS: &[&str] = &["scenarios", "help", "--help", "-h", "serve"];

fn gate(option: &str) -> &'static [&'static str] {
    OPTION_GATES
        .iter()
        .find(|(name, _)| *name == option)
        .map(|(_, commands)| *commands)
        .unwrap_or_else(|| panic!("unknown option gate `{option}`"))
}

/// Rejects option/command combinations a command would silently
/// ignore, driven entirely by the [`OPTION_GATES`] table.
fn validate(options: &Options) -> Result<(), String> {
    let command = options.command.as_str();
    let check = |given: bool, option: &str| -> Result<(), String> {
        let allowed = gate(option);
        if given && !allowed.contains(&command) {
            let list: Vec<String> = allowed.iter().map(|c| format!("`tdc {c}`")).collect();
            return Err(format!(
                "{option} only applies to {}, not `tdc {command}`",
                list.join(", ")
            ));
        }
        Ok(())
    };
    check(options.format.is_some(), "--format")?;
    check(options.out.is_some(), "--out")?;
    check(options.repeat != 1, "--repeat")?;
    check(options.max_inflight != 1, "--max-inflight")?;
    check(options.listen.is_some(), "--listen")?;
    check(options.baseline.is_some(), "--baseline")?;
    check(options.profile.is_some(), "--profile")?;
    check(options.metrics_addr.is_some(), "--metrics-addr")?;
    if NO_FILE_COMMANDS.contains(&command) && !options.files.is_empty() {
        return Err(format!("`tdc {command}` takes no scenario file"));
    }
    Ok(())
}

fn load_scenario(options: &Options) -> Result<Scenario, String> {
    let path = options.single_file()?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Scenario::parse(&text)
        .map(|s| s.with_base_dir(std::path::Path::new(path).parent()))
        .map_err(|e| format!("{path}: {e}"))
}

fn emit(options: &Options, report: &str) -> Result<(), String> {
    match &options.out {
        None => {
            print!("{report}");
            Ok(())
        }
        Some(path) => {
            std::fs::write(path, report).map_err(|e| format!("cannot write `{path}`: {e}"))
        }
    }
}

/// Closes the command span and, when `--profile` was given, writes the
/// profile document (publishing `cache`'s counters first). Called at
/// every successful command exit so the profile always covers the full
/// command span.
fn finish_profile(
    options: &Options,
    guard: tdc_obs::SpanGuard,
    cache: Option<&tdc_core::sweep::EvalCache>,
) -> Result<(), String> {
    drop(guard);
    match &options.profile {
        Some(path) => tdc_cli::profile::write_profile(path, cache),
        None => Ok(()),
    }
}

/// `run`, `sweep`, `explore` and `sensitivity`: the scenario
/// elaborated into one `kind` request and evaluated on a fresh
/// [`ScenarioSession`], the same path `tdc batch` and `tdc serve`
/// answer files and frames through. `tdc run --baseline` is the one
/// exception ([`cmd_compare`]).
fn cmd_eval(options: &Options, kind: RequestKind) -> Result<(), String> {
    let obs = tdc_obs::span(match kind {
        RequestKind::Run => "cmd.run",
        RequestKind::Sweep => "cmd.sweep",
        RequestKind::Explore => "cmd.explore",
        RequestKind::Sensitivity => "cmd.sensitivity",
    });
    let scenario = load_scenario(options)?;
    if let Some(baseline_path) = &options.baseline {
        cmd_compare(options, &scenario, baseline_path)?;
        return finish_profile(options, obs, None);
    }
    let request = scenario.build_request(kind).map_err(|e| e.to_string())?;
    // One session for every round, so `--repeat` exercises (and
    // reports) the per-stage artifact cache warming up. Each
    // evaluation is a request epoch, so round ≥ 2 warmth shows up as
    // cross-request hits — the same accounting `tdc batch`/`tdc serve`
    // report.
    let session = ScenarioSession::default();
    let mut response = None;
    for round in 1..=options.repeat {
        let evaluated = session.evaluate(&request).map_err(|e| e.to_string())?;
        print_stats(&request, &evaluated.response, round, options.repeat);
        response = Some(evaluated.response);
    }
    let response = response.expect("repeat is at least 1");
    emit(
        options,
        &render_response(&scenario.name, &response, options.format()),
    )?;
    finish_profile(options, obs, Some(session.executor().cache()))
}

/// Eq. 2 standalone: the baseline file contributes its design;
/// workload and context come from the scenario being evaluated, so
/// both designs are priced under identical conditions.
fn cmd_compare(options: &Options, scenario: &Scenario, baseline_path: &str) -> Result<(), String> {
    let model = CarbonModel::new(scenario.build_context().map_err(|e| e.to_string())?);
    let design = scenario.build_design().map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read `{baseline_path}`: {e}"))?;
    let baseline = Scenario::parse(&text)
        .map(|s| s.with_base_dir(std::path::Path::new(baseline_path).parent()))
        .map_err(|e| format!("{baseline_path}: {e}"))?;
    let base_design = baseline
        .build_design()
        .map_err(|e| format!("{baseline_path}: {e}"))?;
    let workload = scenario
        .build_workload()
        .map_err(|e| e.to_string())?
        .ok_or("`tdc run --baseline` needs a workload block in the scenario")?;
    let comparison = model
        .compare(&base_design, &design, &workload)
        .map_err(|e| e.to_string())?;
    emit(
        options,
        &render_decision(
            &scenario.name,
            &baseline.name,
            &comparison,
            options.format(),
        ),
    )
}

/// One round's bookkeeping on stderr, so stdout is byte-identical for
/// any repeat count: the `sweep` line, or the `explore` line and (when
/// refinement ran) the `refine` line. Trace counters are appended
/// after the sweep line's stable tokens — the line only ever grows at
/// its end.
fn print_stats(request: &EvalRequest, response: &EvalResponse, round: usize, rounds: usize) {
    match (request, response) {
        (EvalRequest::Sweep { workload, .. }, EvalResponse::Sweep(result)) => {
            let trace_kv = workload.trace().map_or_else(String::new, |t| {
                format!(
                    " trace_segments={} trace_hits={}",
                    t.segments(),
                    t.pricing_hits()
                )
            });
            eprintln!(
                "{}{trace_kv}",
                sweep_stats_line(&result.stats(), round, rounds)
            );
        }
        (_, EvalResponse::Explore(result)) => {
            let (report, stats) = (result.report(), result.stats());
            eprintln!("{}", explore_stats_line(report, &stats));
            if let Some(refine) = &report.refine {
                eprintln!("{}", refine_stats_line(refine, &stats));
            }
        }
        _ => {}
    }
}

/// One sweep round's bookkeeping in the stable machine-parseable
/// `key=value` format shared with the `batch`/`serve` summaries (see
/// [`tdc_core::service::summary`]): point totals first, then the
/// per-stage counters. `workers=1` and `batch=1` are constant tokens
/// kept so existing greps of the line keep matching.
fn sweep_stats_line(stats: &tdc_core::sweep::SweepStats, round: usize, rounds: usize) -> String {
    let head = if rounds > 1 {
        format!("sweep[{round}/{rounds}]")
    } else {
        "sweep".to_owned()
    };
    format!(
        "{head} points={} ranked={} dropped={} workers=1 batch=1 delta_skips={} warm_points={}/{} {}",
        stats.points,
        stats.evaluated,
        stats.dropped,
        stats.delta_skips,
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
        stages_kv(&stats.stages),
    )
}

/// The `tdc explore` stderr summary, in the stable `key=value` format
/// shared with `sweep`/`batch`/`serve` (`workers=1` is a constant
/// token, like the sweep line's).
fn explore_stats_line(report: &ExploreReport, stats: &ExploreStats) -> String {
    format!(
        "explore points={} ranked={} dropped={} frontier={} dominated={} infeasible={} \
         workers=1 {}",
        stats.points,
        stats.evaluated,
        stats.dropped,
        report.frontier.len(),
        report.dominated,
        report.infeasible,
        stages_kv(&stats.stages),
    )
}

/// The refinement-loop stderr summary: how many rounds/evaluations the
/// bisection spent and the per-stage reuse of exactly those
/// evaluations (CI asserts the integer `hits=` field is non-zero).
fn refine_stats_line(refine: &RefineReport, stats: &ExploreStats) -> String {
    format!(
        "refine axis={} rounds={} evals={} crossings={} {}",
        refine.axis.label(),
        refine.rounds,
        refine.evaluations,
        refine.crossings.len(),
        stages_kv(&stats.refine_stages),
    )
}

fn cmd_batch(options: &Options) -> Result<(), String> {
    let obs = tdc_obs::span("cmd.batch");
    let files = tdc_cli::batch::expand_paths(&options.files)?;
    let session = ScenarioSession::default();
    let stdout = std::io::stdout();
    let stderr = std::io::stderr();
    let summary = tdc_cli::batch::run_batch(
        &session,
        &files,
        options.format(),
        &mut stdout.lock(),
        &mut stderr.lock(),
    )
    .map_err(|e| format!("batch output failed: {e}"))?;
    finish_profile(options, obs, Some(session.executor().cache()))?;
    if summary.all_ok() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} scenario files failed",
            summary.failed, summary.files
        ))
    }
}

fn cmd_serve(options: &Options) -> Result<(), String> {
    let session = std::sync::Arc::new(ScenarioSession::default());
    let metrics = match &options.metrics_addr {
        Some(addr) => Some(tdc_cli::serve::MetricsServer::start(
            addr,
            std::sync::Arc::clone(&session),
        )?),
        None => None,
    };
    let result = serve_transport(options, &session);
    if let Some(server) = metrics {
        server.stop();
    }
    result
}

/// The frame loop of `tdc serve` on its chosen transport.
fn serve_transport(options: &Options, session: &ScenarioSession) -> Result<(), String> {
    let stderr = std::io::stderr();
    if let Some(addr) = &options.listen {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
        // Announced on stderr so harnesses binding port 0 can find it.
        let local = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve listen address: {e}"))?;
        writeln!(stderr.lock(), "serve listening on {local}")
            .map_err(|e| format!("serve I/O failed: {e}"))?;
        // Connection threads share stderr (one locked writeln per
        // stats line), so the listener takes the Send-able handle, not
        // a lock guard.
        let mut err = std::io::stderr();
        tdc_cli::serve::serve_listener(session, listener, options.max_inflight, &mut err)
            .map_err(|e| format!("serve I/O failed: {e}"))?;
        return Ok(());
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    tdc_cli::serve::serve(
        session,
        stdin.lock(),
        &mut stdout.lock(),
        &mut stderr.lock(),
        options.max_inflight,
    )
    .map_err(|e| format!("serve I/O failed: {e}"))?;
    Ok(())
}

fn cmd_scenarios() {
    println!("design presets (a sample — the grammar also accepts e.g. hbm<N>-d2w,");
    println!("<platform>-homo-<tech>, <platform>-het-<tech>):");
    for name in tdc_workloads::DESIGN_PRESET_EXAMPLES {
        println!("  {name}");
    }
    println!("\nworkload presets (combined with `throughput_tops`):");
    for name in tdc_workloads::WORKLOAD_PRESETS {
        println!("  {name}");
    }
    println!("\nSee docs/SCENARIOS.md for the file schema and scenarios/ for examples.");
}

fn cmd_packs(options: &Options) -> Result<(), String> {
    // `tdc packs check <files...>` validates; anything else lists.
    let (check, files) = match options.files.split_first() {
        Some((first, rest)) if first == "check" => (true, rest),
        _ => (false, &options.files[..]),
    };
    if check {
        if options.format.is_some() {
            return Err("--format does not apply to `tdc packs check`".to_owned());
        }
        print!("{}", tdc_cli::packs::check_packs(files)?);
        return Ok(());
    }
    print!("{}", tdc_cli::packs::list_models(files, options.format())?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Observability is off unless a sink asks for it (`--profile`,
    // `--metrics-addr`) or TDC_OBS=1 forces it on — with no sink the
    // disabled hot path is a relaxed load per instrumentation site.
    tdc_obs::ObsConfig::from_env()
        .enable(options.profile.is_some() || options.metrics_addr.is_some())
        .install();
    let result = match options.command.as_str() {
        "run" => cmd_eval(&options, RequestKind::Run),
        "sweep" => cmd_eval(&options, RequestKind::Sweep),
        "explore" => cmd_eval(&options, RequestKind::Explore),
        "sensitivity" => cmd_eval(&options, RequestKind::Sensitivity),
        "batch" => cmd_batch(&options),
        "serve" => cmd_serve(&options),
        "scenarios" => {
            cmd_scenarios();
            Ok(())
        }
        "packs" => cmd_packs(&options),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!(
            "unknown command `{other}` (expected one of: {})",
            EVAL_COMMANDS.join(", ")
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Options, String> {
        parse_args(tokens.iter().map(ToString::to_string).collect())
    }

    /// The anti-drift audit: every command an option gate names must
    /// be a real dispatched command, so renaming/removing a command
    /// without touching the gates fails here instead of silently
    /// accepting (or rejecting) options.
    #[test]
    fn gating_table_covers_only_known_commands() {
        for (option, commands) in OPTION_GATES {
            for command in *commands {
                assert!(
                    EVAL_COMMANDS.contains(command),
                    "{option} names unknown command `{command}`"
                );
            }
        }
        for command in NO_FILE_COMMANDS {
            assert!(
                EVAL_COMMANDS.contains(command) || command.starts_with('-') || *command == "help",
                "no-file gate names unknown command `{command}`"
            );
        }
    }

    #[test]
    fn explore_accepts_the_sweep_style_options() {
        for tokens in [
            &["explore", "s.json", "--format", "csv"][..],
            &["explore", "s.json", "--out", "/tmp/x"][..],
        ] {
            assert!(parse(tokens).is_ok(), "{tokens:?}");
        }
    }

    #[test]
    fn options_are_rejected_outside_their_gate() {
        for (tokens, fragment) in [
            (&["explore", "s.json", "--repeat", "2"][..], "--repeat"),
            (
                &["explore", "s.json", "--baseline", "b.json"][..],
                "--baseline",
            ),
            (
                &["sweep", "s.json", "--baseline", "b.json"][..],
                "--baseline",
            ),
            (
                &["sensitivity", "s.json", "--max-inflight", "2"][..],
                "--max-inflight",
            ),
            (&["serve", "--format", "json"][..], "--format"),
            (&["batch", "d", "--out", "/tmp/x"][..], "--out"),
        ] {
            let err = parse(tokens).unwrap_err();
            assert!(err.contains(fragment), "{tokens:?}: {err}");
        }
    }

    #[test]
    fn worker_options_are_unknown() {
        for tokens in [
            &["sweep", "s.json", "--workers", "8"][..],
            &["sweep", "s.json", "--serial"][..],
        ] {
            let err = parse(tokens).unwrap_err();
            assert!(err.starts_with("unknown option `--"), "{tokens:?}: {err}");
        }
    }

    #[test]
    fn baseline_applies_to_run() {
        let options = parse(&["run", "s.json", "--baseline", "b.json"]).unwrap();
        assert_eq!(options.baseline.as_deref(), Some("b.json"));
    }

    #[test]
    fn no_file_commands_reject_files() {
        for command in ["scenarios", "serve", "help"] {
            let err = parse(&[command, "s.json"]).unwrap_err();
            assert!(err.contains("takes no scenario file"), "{command}: {err}");
        }
    }
}
