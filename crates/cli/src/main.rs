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
//! options: --format table|json|csv   --out <path>   --workers <n>   --serial
//!          --repeat <n>   --max-inflight <n>   --listen <addr>
//!          --baseline <scenario.json>   --profile <file>
//!          --metrics-addr <addr>
//! ```

use std::io::Write as _;
use std::process::ExitCode;
use tdc_cli::report::{
    render_decision, render_embodied, render_explore, render_lifecycle, render_sensitivity,
    render_sweep, OutputFormat,
};
use tdc_cli::Scenario;
use tdc_core::explore::{ExploreStats, RefineReport};
use tdc_core::sensitivity::sensitivity_report;
use tdc_core::service::summary::stages_kv;
use tdc_core::service::ScenarioSession;
use tdc_core::sweep::SweepExecutor;
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
    --workers <n>               Sweep worker threads (0 = one per core; overrides
                                the scenario; `sweep`/`explore`/`batch`/`serve`)
    --serial                    Shorthand for --workers 1
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
    workers: Option<usize>,
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

    /// The single scenario file of `run`/`sweep`/`sensitivity`.
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
        workers: None,
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
            "--workers" => {
                let token = iter.next().ok_or("--workers needs a count")?;
                options.workers = Some(parse_count(&token, "worker count")?);
            }
            "--serial" => options.workers = Some(1),
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
    (
        "--workers/--serial",
        &["sweep", "explore", "batch", "serve"],
    ),
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
    check(options.workers.is_some(), "--workers/--serial")?;
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

fn cmd_run(options: &Options) -> Result<(), String> {
    let obs = tdc_obs::span("cmd.run");
    let scenario = load_scenario(options)?;
    let model = CarbonModel::new(scenario.build_context().map_err(|e| e.to_string())?);
    let design = scenario.build_design().map_err(|e| e.to_string())?;
    if let Some(baseline_path) = &options.baseline {
        // Eq. 2 standalone: the baseline file contributes its design;
        // workload and context come from the scenario being evaluated,
        // so both designs are priced under identical conditions.
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
        )?;
        return finish_profile(options, obs, None);
    }
    let report = match scenario.build_workload().map_err(|e| e.to_string())? {
        Some(workload) => {
            let lifecycle = model
                .lifecycle(&design, &workload)
                .map_err(|e| e.to_string())?;
            render_lifecycle(&scenario.name, &lifecycle, options.format())
        }
        None => {
            let breakdown = model.embodied(&design).map_err(|e| e.to_string())?;
            render_embodied(&scenario.name, &breakdown, options.format())
        }
    };
    emit(options, &report)?;
    finish_profile(options, obs, None)
}

fn cmd_sweep(options: &Options) -> Result<(), String> {
    let obs = tdc_obs::span("cmd.sweep");
    let scenario = load_scenario(options)?;
    let model = CarbonModel::new(scenario.build_context().map_err(|e| e.to_string())?);
    let workload = scenario
        .build_workload()
        .map_err(|e| e.to_string())?
        .ok_or("`tdc sweep` needs a workload block")?;
    let plan = scenario
        .build_sweep()
        .map_err(|e| e.to_string())?
        .plan()
        .map_err(|e| e.to_string())?;
    let workers = options
        .workers
        .or_else(|| scenario.sweep_workers())
        .unwrap_or(0);
    // One executor for every round, so `--repeat` exercises (and
    // reports) the per-stage artifact cache warming up. Each round is
    // an epoch, so round ≥ 2 warmth shows up as cross-request hits —
    // the same accounting `tdc batch`/`tdc serve` report.
    let executor = SweepExecutor::new(workers);
    let mut result = None;
    for round in 1..=options.repeat {
        executor.cache().advance_epoch();
        let r = executor
            .execute(&model, &plan, &workload)
            .map_err(|e| e.to_string())?;
        // Bookkeeping goes to stderr so stdout is byte-identical for
        // any worker count (and any repeat count). Trace counters are
        // appended after the stable tokens — the line only ever grows
        // at its end.
        let trace_kv = workload.trace().map_or_else(String::new, |t| {
            format!(
                " trace_segments={} trace_hits={}",
                t.segments(),
                t.pricing_hits()
            )
        });
        eprintln!(
            "{}{trace_kv}",
            sweep_stats_line(&r.stats(), round, options.repeat)
        );
        result = Some(r);
    }
    let result = result.expect("repeat is at least 1");
    emit(
        options,
        &render_sweep(&scenario.name, result.entries(), options.format()),
    )?;
    finish_profile(options, obs, Some(executor.cache()))
}

/// One sweep round's bookkeeping in the stable machine-parseable
/// `key=value` format shared with the `batch`/`serve` summaries (see
/// [`tdc_core::service::summary`]): point totals first, then the
/// per-stage counters. `batch=1` is a constant token kept so existing
/// greps of the line keep matching.
fn sweep_stats_line(stats: &tdc_core::sweep::SweepStats, round: usize, rounds: usize) -> String {
    let head = if rounds > 1 {
        format!("sweep[{round}/{rounds}]")
    } else {
        "sweep".to_owned()
    };
    format!(
        "{head} points={} ranked={} dropped={} workers={} batch=1 delta_skips={} warm_points={}/{} {}",
        stats.points,
        stats.evaluated,
        stats.dropped,
        stats.workers,
        stats.delta_skips,
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
        stages_kv(&stats.stages),
    )
}

fn cmd_explore(options: &Options) -> Result<(), String> {
    let obs = tdc_obs::span("cmd.explore");
    let scenario = load_scenario(options)?;
    let context = scenario.build_context().map_err(|e| e.to_string())?;
    let workload = scenario
        .build_workload()
        .map_err(|e| e.to_string())?
        .ok_or("`tdc explore` needs a workload block")?;
    let plan = scenario
        .build_sweep()
        .map_err(|e| e.to_string())?
        .plan()
        .map_err(|e| e.to_string())?;
    let spec = scenario.build_explore().map_err(|e| e.to_string())?;
    let workers = options
        .workers
        .or_else(|| scenario.sweep_workers())
        .unwrap_or(0);
    let executor = SweepExecutor::new(workers);
    let result = tdc_core::explore::run(&executor, &context, &plan, &workload, &spec)
        .map_err(|e| e.to_string())?;
    // Bookkeeping on stderr, stdout worker-count-invariant — the same
    // split as `tdc sweep` (and what the CI smoke byte-diff relies on).
    let report = result.report();
    eprintln!(
        "{}",
        explore_stats_line(
            &result.stats(),
            report.frontier.len(),
            report.dominated,
            report.infeasible
        )
    );
    if let Some(refine) = &report.refine {
        eprintln!("{}", refine_stats_line(refine, &result.stats()));
    }
    emit(
        options,
        &render_explore(&scenario.name, report, options.format()),
    )?;
    finish_profile(options, obs, Some(executor.cache()))
}

/// The `tdc explore` stderr summary, in the stable `key=value` format
/// shared with `sweep`/`batch`/`serve`.
fn explore_stats_line(
    stats: &ExploreStats,
    frontier: usize,
    dominated: usize,
    infeasible: usize,
) -> String {
    format!(
        "explore points={} ranked={} dropped={} frontier={frontier} dominated={dominated} \
         infeasible={infeasible} workers={} {}",
        stats.points,
        stats.evaluated,
        stats.dropped,
        stats.workers,
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

fn cmd_sensitivity(options: &Options) -> Result<(), String> {
    let scenario = load_scenario(options)?;
    let ctx = scenario.build_context().map_err(|e| e.to_string())?;
    let design = scenario.build_design().map_err(|e| e.to_string())?;
    let workload = scenario
        .build_workload()
        .map_err(|e| e.to_string())?
        .ok_or("`tdc sensitivity` needs a workload block")?;
    let entries = sensitivity_report(&ctx, &design, &workload).map_err(|e| e.to_string())?;
    emit(
        options,
        &render_sensitivity(&scenario.name, &entries, options.format()),
    )
}

fn cmd_batch(options: &Options) -> Result<(), String> {
    let obs = tdc_obs::span("cmd.batch");
    let files = tdc_cli::batch::expand_paths(&options.files)?;
    let session = ScenarioSession::new(options.workers.unwrap_or(0));
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
    let session = std::sync::Arc::new(ScenarioSession::new(options.workers.unwrap_or(0)));
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
        "run" => cmd_run(&options),
        "sweep" => cmd_sweep(&options),
        "explore" => cmd_explore(&options),
        "sensitivity" => cmd_sensitivity(&options),
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
            &["explore", "s.json", "--workers", "8"][..],
            &["explore", "s.json", "--serial"][..],
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
            (&["run", "s.json", "--workers", "2"][..], "--workers"),
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
