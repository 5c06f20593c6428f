//! Byte-identity of the batch/serve surfaces against fresh-process
//! evaluations, plus the golden `tdc serve` transcript.
//!
//! `tdc batch`'s contract is that warmth never shows in the output:
//! its stdout must equal the concatenation of running each scenario
//! file alone. Both sides are checked against a direct oracle, the
//! single-shot side by running the `tdc` binary itself. `tdc serve`'s
//! contract is the JSONL protocol itself, pinned by a golden
//! transcript that includes schema errors and one malformed request.

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;
use tdc_cli::batch::{expand_paths, run_batch};
use tdc_cli::report::{
    render_embodied, render_explore, render_lifecycle, render_response, render_sweep, OutputFormat,
};
use tdc_cli::serve::{serve, MAX_FRAME_BYTES};
use tdc_cli::{JsonValue, RequestKind, Scenario};
use tdc_core::service::ScenarioSession;
use tdc_core::sweep::SweepExecutor;
use tdc_core::CarbonModel;
use tdc_registry::pack::MAX_PACK_BYTES;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn scenario_files() -> Vec<PathBuf> {
    expand_paths(&[repo_root().join("scenarios").to_string_lossy().into_owned()])
        .expect("scenarios/ expands")
}

/// What `tdc run`/`tdc sweep`/`tdc explore` must print to stdout for
/// one file, computed directly (`CarbonModel`, `SweepExecutor`,
/// `explore::run`) with no session and no shared cache.
fn fresh_process_output(file: &Path, format: OutputFormat) -> String {
    let text = std::fs::read_to_string(file).expect("scenario reads");
    let scenario = Scenario::parse(&text)
        .expect("scenario parses")
        .with_base_dir(file.parent());
    let model = CarbonModel::new(scenario.build_context().expect("context builds"));
    match scenario.infer_request_kind() {
        RequestKind::Sweep => {
            let workload = scenario
                .build_workload()
                .expect("workload builds")
                .expect("sweep scenarios carry workloads");
            let plan = scenario
                .build_sweep()
                .expect("sweep builds")
                .plan()
                .expect("plan builds");
            let result = SweepExecutor::default()
                .execute(&model, &plan, &workload)
                .expect("sweep evaluates");
            render_sweep(&scenario.name, result.entries(), format)
        }
        RequestKind::Explore => {
            let workload = scenario
                .build_workload()
                .expect("workload builds")
                .expect("explore scenarios carry workloads");
            let plan = scenario
                .build_sweep()
                .expect("sweep builds")
                .plan()
                .expect("plan builds");
            let context = scenario.build_context().expect("context builds");
            let result = tdc_core::explore::run(
                &SweepExecutor::default(),
                &context,
                &plan,
                &workload,
                &scenario.build_explore().expect("explore builds"),
            )
            .expect("explore evaluates");
            render_explore(&scenario.name, result.report(), format)
        }
        _ => {
            let design = scenario.build_design().expect("design builds");
            match scenario.build_workload().expect("workload builds") {
                Some(workload) => render_lifecycle(
                    &scenario.name,
                    &model.lifecycle(&design, &workload).expect("evaluates"),
                    format,
                ),
                None => render_embodied(
                    &scenario.name,
                    &model.embodied(&design).expect("evaluates"),
                    format,
                ),
            }
        }
    }
}

#[test]
fn batch_stdout_is_byte_identical_to_fresh_process_runs() {
    let files = scenario_files();
    assert!(files.len() >= 5, "the checked-in scenario set shrank");
    for format in [OutputFormat::Table, OutputFormat::Json, OutputFormat::Csv] {
        let mut expected = String::new();
        for file in &files {
            expected.push_str(&fresh_process_output(file, format));
        }
        let session = ScenarioSession::default();
        let mut stdout = Vec::new();
        let mut stderr = Vec::new();
        let summary =
            run_batch(&session, &files, format, &mut stdout, &mut stderr).expect("batch runs");
        assert!(summary.all_ok(), "all checked-in scenarios evaluate");
        assert_eq!(
            String::from_utf8(stdout).expect("utf8 output"),
            expected,
            "warm batch output diverged from fresh runs ({format:?})"
        );
    }
}

/// The `tdc` binary, run from the repository root.
fn tdc(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_tdc"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("tdc runs")
}

#[test]
fn tdc_binary_prints_the_direct_oracle_output_for_every_scenario() {
    for file in scenario_files() {
        let text = std::fs::read_to_string(&file).expect("scenario reads");
        let command = Scenario::parse(&text)
            .expect("scenario parses")
            .infer_request_kind()
            .label();
        let path = file.to_string_lossy();
        for token in ["table", "json", "csv"] {
            let format = OutputFormat::from_token(token).expect("known format");
            let output = tdc(&[command, &path, "--format", token]);
            let shape = format!("tdc {command} {path} --format {token}");
            assert!(
                output.status.success(),
                "{shape}: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert_eq!(
                String::from_utf8(output.stdout).expect("utf8 stdout"),
                fresh_process_output(&file, format),
                "{shape}"
            );
        }
    }
}

#[test]
fn tdc_sweep_without_a_workload_names_the_missing_block() {
    let dir = test_dir("sweep-without-workload");
    let file = dir.join("sweep.json");
    std::fs::write(&file, r#"{"sweep": {"gate_count": 5e9}}"#).expect("writes");
    let output = tdc(&["sweep", &file.to_string_lossy()]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(output.status.code(), Some(1));
    assert!(output.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&output.stderr),
        "error: scenario field `workload`: a `sweep` request needs a workload block\n"
    );
}

#[test]
fn tdc_run_profile_publishes_the_cache_counters_of_its_evaluation() {
    let dir = test_dir("run-profile");
    let profile = dir.join("profile.json");
    let output = tdc(&[
        "run",
        "scenarios/av_drive.json",
        "--profile",
        &profile.to_string_lossy(),
    ]);
    let text = std::fs::read_to_string(&profile);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = JsonValue::parse(&text.expect("profile written")).expect("profile parses");
    let metric = |name| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(JsonValue::as_f64)
    };
    // One cold lifecycle evaluation: each of the five stages misses
    // once and stores its artifact.
    assert_eq!(
        (metric("cache.misses"), metric("cache.entries")),
        (Some(5.0), Some(5.0))
    );
}

#[test]
fn batch_over_checked_in_scenarios_reports_cross_request_warmth() {
    let files = scenario_files();
    let session = ScenarioSession::default();
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    run_batch(
        &session,
        &files,
        OutputFormat::Csv,
        &mut stdout,
        &mut stderr,
    )
    .expect("batch runs");
    let log = String::from_utf8(stderr).expect("utf8 stderr");
    let aggregate = log
        .lines()
        .find(|l| l.starts_with("batch files="))
        .expect("aggregate summary line");
    // Scenarios sharing design geometry answer from artifacts earlier
    // files computed: 153 of the batch's 656 stage lookups. `cross` is
    // an integer token, so no float formatting is involved.
    let cross: u64 = aggregate
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("cross="))
        .expect("cross= token")
        .parse()
        .expect("integer cross counter");
    assert_eq!(cross, 153, "cross-request reuse changed in: {aggregate}");
    assert!(aggregate.contains("failed=0"), "{aggregate}");
    // Per-file lines carry the same stable key=value shape.
    assert!(log
        .lines()
        .any(|l| l.starts_with("batch[1/") && l.contains(" kind=")));
    // A second pass over the same files is answered wholly from the
    // warm session: each of its 300 stage lookups hits.
    let before = session.stats().stages;
    run_batch(
        &session,
        &files,
        OutputFormat::Csv,
        &mut Vec::new(),
        &mut Vec::new(),
    )
    .expect("batch re-runs");
    let warm = session.stats().stages.since(&before);
    assert_eq!((warm.hits(), warm.misses()), (300, 0), "{warm:?}");
}

#[test]
fn batch_failures_are_reported_and_do_not_stop_the_batch() {
    let dir = std::env::temp_dir().join("tdc-batch-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("a_good.json");
    let bad = dir.join("b_bad.json");
    std::fs::write(&good, r#"{"design": {"preset": "epyc-7452"}}"#).expect("writes");
    std::fs::write(&bad, r#"{"design": {"preset": "warp-core"}}"#).expect("writes");
    let session = ScenarioSession::default();
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    let summary = run_batch(
        &session,
        &[good, bad],
        OutputFormat::Csv,
        &mut stdout,
        &mut stderr,
    )
    .expect("batch runs");
    assert_eq!(summary.ok, 1);
    assert_eq!(summary.failed, 1);
    let log = String::from_utf8(stderr).expect("utf8 stderr");
    assert!(log.contains("status=error"), "{log}");
    assert!(log.contains("warp-core"), "{log}");
    // The good file still produced its full report.
    assert!(String::from_utf8(stdout)
        .expect("utf8")
        .starts_with("section,component,kg_co2e"));
}

#[test]
fn expand_paths_sorts_directory_entries() {
    let files = scenario_files();
    let names: Vec<String> = files
        .iter()
        .map(|f| f.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "batch order must be deterministic");
}

#[test]
fn serve_session_matches_the_golden_transcript() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data");
    let input = std::fs::read_to_string(data.join("serve_session_input.jsonl")).expect("input");
    let expected =
        std::fs::read_to_string(data.join("serve_session_expected.jsonl")).expect("golden");
    let session = ScenarioSession::default();
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    let summary = serve(&session, input.as_bytes(), &mut stdout, &mut stderr, 1).expect("serves");
    assert_eq!(
        String::from_utf8(stdout).expect("utf8"),
        expected,
        "serve responses diverged from the golden transcript"
    );
    // The scripted session includes schema errors and one malformed
    // line; none of them kill the server.
    assert_eq!(summary.frames, 10);
    assert_eq!(summary.errors, 4);
}

#[test]
fn serve_warmth_never_changes_response_bytes() {
    // The golden input evaluates the same stack twice (ids 2 and 7);
    // the second answer comes from warm artifacts but must embed the
    // identical report document.
    let data = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data");
    let expected =
        std::fs::read_to_string(data.join("serve_session_expected.jsonl")).expect("golden");
    let report_of = |id: &str| {
        let line = expected
            .lines()
            .find(|l| l.starts_with(&format!("{{\"id\":{id},")))
            .expect("frame present");
        let frame = JsonValue::parse(line).expect("frame parses");
        frame.get("report").expect("report present").render()
    };
    assert_eq!(report_of("2"), report_of("7"));
}

#[test]
fn deeply_nested_frame_is_answered_and_the_stream_continues() {
    // One frame of 200 000 `[` used to overflow the JSON parser's
    // stack and abort the server with every connection on it. It must
    // get a positioned error answer like any malformed frame, and the
    // next frame on the stream must still be answered.
    let input = format!(
        "{}\n{{\"id\": 2, \"command\": \"run\", \"scenario\": {{\"design\": {{\"preset\": \"epyc-7452\"}}}}}}\n",
        "[".repeat(200_000)
    );
    let session = ScenarioSession::default();
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    let summary = serve(&session, input.as_bytes(), &mut stdout, &mut stderr, 1).expect("serves");
    let frames: Vec<JsonValue> = String::from_utf8(stdout)
        .expect("utf8")
        .lines()
        .map(|l| JsonValue::parse(l).expect("frame parses"))
        .collect();
    assert_eq!(frames.len(), 2);
    assert_eq!(frames[0].get("ok"), Some(&JsonValue::Bool(false)));
    let message = frames[0]
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(JsonValue::as_str)
        .expect("error message");
    let column = tdc_registry::json::MAX_DEPTH + 1;
    assert!(
        message.contains(&format!("line 1, column {column}")),
        "{message}"
    );
    assert_eq!(frames[1].get("id").and_then(JsonValue::as_f64), Some(2.0));
    assert_eq!(frames[1].get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!((summary.frames, summary.errors), (2, 1));
}

/// Serves `input` on a fresh serial session and returns the parsed
/// response frames plus the summary's (frames, errors).
fn serve_frames(input: &[u8]) -> (Vec<JsonValue>, (u64, u64)) {
    let (lines, summary) = serve_lines(input);
    let frames = lines
        .iter()
        .map(|l| JsonValue::parse(l).expect("frame parses"))
        .collect();
    (frames, summary)
}

/// The raw answer lines of one fresh `tdc serve` session, with its
/// `(frames, errors)` summary.
fn serve_lines(input: &[u8]) -> (Vec<String>, (u64, u64)) {
    let session = ScenarioSession::default();
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    let summary = serve(&session, input, &mut stdout, &mut stderr, 1).expect("serves");
    let lines = String::from_utf8(stdout)
        .expect("utf8")
        .lines()
        .map(str::to_owned)
        .collect();
    (lines, (summary.frames, summary.errors))
}

#[test]
fn non_utf8_frame_is_answered_and_the_stream_continues() {
    // Stdin used to abort the whole server on invalid UTF-8 before
    // the next frame was read; both transports now decode lossily.
    let mut input = b"\xff\xfe\n".to_vec();
    input.extend_from_slice(b"{\"id\": 1, \"command\": \"stats\"}\n");
    let (frames, summary) = serve_frames(&input);
    assert_eq!(frames.len(), 2);
    assert_eq!(frames[0].get("ok"), Some(&JsonValue::Bool(false)));
    assert_eq!(frames[1].get("id").and_then(JsonValue::as_f64), Some(1.0));
    assert_eq!(frames[1].get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(summary, (2, 1));
}

#[test]
fn over_limit_frame_is_answered_and_the_stream_continues() {
    // One byte past the limit: one error frame naming the limit, the
    // frame skipped through its newline, and the next frame answered.
    let mut input = vec![b' '; MAX_FRAME_BYTES + 1];
    input.extend_from_slice(b"\n{\"id\": 2, \"command\": \"stats\"}\n");
    let (frames, summary) = serve_frames(&input);
    assert_eq!(frames.len(), 2);
    assert_eq!(frames[0].get("ok"), Some(&JsonValue::Bool(false)));
    let message = frames[0]
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(JsonValue::as_str)
        .expect("error message");
    assert!(message.contains(&MAX_FRAME_BYTES.to_string()), "{message}");
    assert_eq!(frames[1].get("id").and_then(JsonValue::as_f64), Some(2.0));
    assert_eq!(frames[1].get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(summary, (2, 1));
    // A frame of exactly the limit is read (and fails only to parse).
    let mut input = vec![b'x'; MAX_FRAME_BYTES];
    input.push(b'\n');
    let (frames, _) = serve_frames(&input);
    let message = frames[0]
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(JsonValue::as_str)
        .expect("error message");
    assert!(!message.contains("limit"), "{message}");
}

/// [`serve_frames`] on its own thread, failing instead of hanging when
/// the frames are not all answered within `limit`. A thread still
/// blocked then cannot be joined; the test process ends it.
fn serve_frames_within(input: String, limit: Duration) -> (Vec<JsonValue>, (u64, u64)) {
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || tx.send(serve_frames(input.as_bytes())));
    let answered = rx.recv_timeout(limit);
    assert!(
        !matches!(answered, Err(mpsc::RecvTimeoutError::Timeout)),
        "frames not answered within {limit:?}"
    );
    // The thread has sent its frames or panicked: join it either way.
    server
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        .expect("the receiver is alive");
    answered.expect("frames sent")
}

/// The `error.path` and `error.message` of an `"ok": false` response
/// frame.
fn error_of(frame: &JsonValue) -> (&str, &str) {
    assert_eq!(frame.get("ok"), Some(&JsonValue::Bool(false)), "{frame:?}");
    let field = |key| {
        frame
            .get("error")
            .and_then(|e| e.get(key))
            .and_then(JsonValue::as_str)
            .expect("error path and message")
    };
    (field("path"), field("message"))
}

/// A fresh temporary directory for one test's files.
fn test_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdc-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[cfg(unix)]
#[test]
fn fifo_trace_and_pack_paths_are_answered_and_the_stream_continues() {
    // Opening a FIFO blocks until a writer appears, so a trace or pack
    // path naming one used to hang its frame forever. Only regular
    // files are opened: each frame gets an error naming the path, and
    // the next frame is answered.
    let dir = test_dir("fifo");
    let fifo = dir.join("samples.fifo");
    let made = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(made.success(), "mkfifo {}", fifo.display());
    let path = fifo.display().to_string();
    let quoted = JsonValue::String(path.clone()).render_compact();
    let input = format!(
        "{{\"id\": 1, \"command\": \"run\", \"scenario\": {{\"design\": {{\"preset\": \
         \"epyc-7452\"}}, \"workload\": {{\"name\": \"w\", \"throughput_tops\": 254, \
         \"active_hours\": 4745, \"trace\": {{\"path\": {quoted}}}}}}}}}\n\
         {{\"id\": 2, \"command\": \"run\", \"scenario\": {{\"packs\": [{quoted}], \
         \"design\": {{\"preset\": \"epyc-7452\"}}}}}}\n\
         {{\"id\": 3, \"command\": \"stats\"}}\n"
    );
    let (frames, summary) = serve_frames_within(input, Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(frames.len(), 3);
    for (frame, field) in frames.iter().zip(["workload.trace.path", "packs[0]"]) {
        let (at, message) = error_of(frame);
        assert_eq!(at, field);
        assert!(
            message.contains(&path) && message.contains("not a regular file"),
            "{message}"
        );
    }
    assert_eq!(frames[2].get("id").and_then(JsonValue::as_f64), Some(3.0));
    assert_eq!(frames[2].get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(summary, (3, 2));
}

#[test]
fn file_errors_name_the_line_and_never_echo_file_bytes() {
    // A frame can name any regular file on the server's host as a
    // trace or pack. An error about the file's content gives the path,
    // the line and the rule it broke, never the bytes it read: a
    // trace's first field, an out-of-range value, a pack's first byte.
    let dir = test_dir("file-echo");
    let files = [
        ("marker.csv", "MARKER-9f2c,0.5\n1,0.5\n", "line 1", "MARKER"),
        ("range.csv", "0,0.5\n1,98765\n", "line 2", "98765"),
        ("marker.json", "~pack~\n", "line 1, column 1", "~"),
    ];
    let mut input = String::new();
    for (id, (name, content, _, _)) in files.iter().enumerate() {
        let path = dir.join(name);
        std::fs::write(&path, content).expect("temp file");
        let quoted = JsonValue::String(path.display().to_string()).render_compact();
        let scenario = if name.ends_with(".csv") {
            format!(
                "{{\"design\": {{\"preset\": \"epyc-7452\"}}, \"workload\": {{\"name\": \
                 \"w\", \"throughput_tops\": 254, \"active_hours\": 4745, \"trace\": \
                 {{\"path\": {quoted}}}}}}}"
            )
        } else {
            format!("{{\"packs\": [{quoted}], \"design\": {{\"preset\": \"epyc-7452\"}}}}")
        };
        input.push_str(&format!(
            "{{\"id\": {id}, \"command\": \"run\", \"scenario\": {scenario}}}\n"
        ));
    }
    input.push_str("{\"id\": 9, \"command\": \"stats\"}\n");
    let (frames, summary) = serve_frames(input.as_bytes());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(frames.len(), 4);
    for (frame, (name, _, line, echo)) in frames.iter().zip(&files) {
        let (_, message) = error_of(frame);
        assert!(
            message.contains(&dir.join(name).display().to_string()) && message.contains(line),
            "{message}"
        );
        assert!(!message.contains(echo), "{message}");
    }
    assert_eq!(frames[3].get("id").and_then(JsonValue::as_f64), Some(9.0));
    assert_eq!(frames[3].get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(summary, (4, 3));
}

#[test]
fn oversized_pack_is_answered_and_the_stream_continues() {
    // A pack used to be read whole, so a pack path naming an endless
    // file (`/dev/zero`) got the server OOM-killed. A pack read stops
    // one byte past the limit: a sparse file far beyond it gets an
    // error naming the path and the limit, and the next frame is
    // answered.
    let dir = test_dir("pack-cap");
    let pack = dir.join("huge_pack.json");
    let frames_for = |len: u64| {
        std::fs::File::create(&pack)
            .and_then(|file| file.set_len(len))
            .expect("sparse pack file");
        let quoted = JsonValue::String(pack.display().to_string()).render_compact();
        let input = format!(
            "{{\"id\": 1, \"command\": \"run\", \"scenario\": {{\"packs\": [{quoted}], \
             \"design\": {{\"preset\": \"epyc-7452\"}}}}}}\n\
             {{\"id\": 2, \"command\": \"stats\"}}\n"
        );
        serve_frames(input.as_bytes())
    };
    let (frames, summary) = frames_for(64 * MAX_PACK_BYTES);
    assert_eq!(frames.len(), 2);
    let (at, message) = error_of(&frames[0]);
    assert_eq!(at, "packs[0]");
    assert!(
        message.contains(&pack.display().to_string())
            && message.contains(&MAX_PACK_BYTES.to_string()),
        "{message}"
    );
    assert_eq!(frames[1].get("id").and_then(JsonValue::as_f64), Some(2.0));
    assert_eq!(frames[1].get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(summary, (2, 1));
    // A pack of exactly the limit is read (and fails only to parse).
    let (frames, _) = frames_for(MAX_PACK_BYTES);
    let (_, message) = error_of(&frames[0]);
    assert!(!message.contains("limit"), "{message}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overflowing_workload_frame_is_answered_and_the_stream_continues() {
    // Every number here is finite, but the bandwidth stretch of a
    // 1 MB/op workload pushes 1e308 active hours past `f64::MAX`, and
    // a 2D design drawing 3.6e303 W for 1e308 h uses infinite energy.
    // The operational stage must reject the phase by name instead of
    // panicking or answering `null` totals, so the server answers
    // these frames and the next one.
    let input = "{\"id\": 1, \"command\": \"run\", \"scenario\": {\"design\": {\"preset\": \
                 \"epyc-7452\"}, \"workload\": {\"name\": \"w\", \"throughput_tops\": 254, \
                 \"active_hours\": 1e308, \"bytes_per_op\": 1e6}}}\n\
                 {\"id\": 2, \"command\": \"run\", \"scenario\": {\"design\": {\"preset\": \
                 \"orin-2d\"}, \"workload\": {\"name\": \"w\", \"throughput_tops\": 1e308, \
                 \"active_hours\": 1e308}}}\n\
                 {\"id\": 3, \"command\": \"run\", \"scenario\": {\"design\": {\"preset\": \
                 \"epyc-7452\"}}}\n";
    let (frames, summary) = serve_frames(input.as_bytes());
    assert_eq!(frames.len(), 3);
    for (frame, id) in frames.iter().zip([1.0, 2.0]) {
        assert_eq!(frame.get("id").and_then(JsonValue::as_f64), Some(id));
        assert_eq!(frame.get("ok"), Some(&JsonValue::Bool(false)));
        let message = frame
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(JsonValue::as_str)
            .expect("error message");
        assert!(
            message.contains("workload phase `w`") && message.contains("must be finite"),
            "{message}"
        );
    }
    assert_eq!(frames[2].get("id").and_then(JsonValue::as_f64), Some(3.0));
    assert_eq!(frames[2].get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(summary, (3, 2));
}

#[test]
fn underflowing_and_overflowing_lifetimes_and_gate_counts_are_answered() {
    // Three frames whose finite numbers used to reach an `assert!`
    // and abort the server: a calendar life of 1e308 years overflows
    // its hours, a 5e-324-hour service time makes the lifetime axis
    // scale by infinity, and a 5e-324-gate die of a 2.5D assembly has
    // zero area. Each must be answered as an error a line long that
    // quotes the hostile number in exponent form, and the stats frame
    // after them must still be answered.
    let input = "{\"id\": 1, \"command\": \"run\", \"scenario\": {\"design\": {\"preset\": \
                 \"orin-2d\"}, \"workload\": {\"name\": \"w\", \"throughput_tops\": 254, \
                 \"active_hours\": 1000, \"calendar_years\": 1e308}}}\n\
                 {\"id\": 2, \"command\": \"explore\", \"scenario\": {\"workload\": {\"name\": \
                 \"w\", \"throughput_tops\": 254, \"active_hours\": 5e-324}, \"sweep\": \
                 {\"gate_count\": 17e9, \"nodes_nm\": [7], \"technologies\": [\"2d\"]}, \
                 \"explore\": {\"objectives\": [\"lifecycle\"], \"refine\": {\"axis\": \
                 \"lifetime_years\", \"min\": 1, \"max\": 10}}}}\n\
                 {\"id\": 3, \"command\": \"run\", \"scenario\": {\"design\": {\"integration\": \
                 \"emib\", \"dies\": [{\"node_nm\": 7, \"gate_count\": 5e-324}, {\"node_nm\": 7, \
                 \"gate_count\": 1e9}]}}}\n\
                 {\"id\": 4, \"command\": \"stats\"}\n";
    let (lines, summary) = serve_lines(input.as_bytes());
    assert_eq!(lines.len(), 4);
    let frames: Vec<JsonValue> = lines
        .iter()
        .map(|l| JsonValue::parse(l).expect("frame parses"))
        .collect();
    let expected = [
        (
            Some("workload.calendar_years"),
            "1e308 years is not a finite number of hours",
        ),
        (None, "lifetime axis: cannot scale"),
        (None, "gate count must be finite and at least 1, got 5e-324"),
    ];
    for ((line, frame), (id, (path, text))) in lines.iter().zip(&frames).zip((1..).zip(expected)) {
        assert!(line.len() < 200, "{} bytes: {line}", line.len());
        assert_eq!(frame.get("id").and_then(JsonValue::as_f64), Some(id.into()));
        assert_eq!(frame.get("ok"), Some(&JsonValue::Bool(false)), "{frame:?}");
        let error = frame.get("error").expect("error object");
        assert_eq!(error.get("path").and_then(JsonValue::as_str), path);
        let message = error.get("message").and_then(JsonValue::as_str);
        assert!(message.is_some_and(|m| m.contains(text)), "{frame:?}");
    }
    assert_eq!(frames[3].get("id").and_then(JsonValue::as_f64), Some(4.0));
    assert_eq!(frames[3].get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(summary, (4, 3));
}

#[test]
fn a_pack_frame_never_changes_what_a_later_pack_less_frame_prices() {
    // Packs load into an owned copy of the process-wide built-in
    // registry, never into the base itself. A run frame whose pack
    // changes n7's defect density, followed on the same session by
    // the same frame without the pack, must price the second exactly
    // as a fresh session does.
    let dir = test_dir("pack-leak");
    let pack = dir.join("changed_n7.json");
    std::fs::write(
        &pack,
        r#"{"pack": "changed-n7", "nodes": [{"name": "n7", "params": {"defect_density_per_cm2": 0.2}}]}"#,
    )
    .expect("pack writes");
    let frame = |packs: &str| {
        format!(
            "{{\"id\": 1, \"command\": \"run\", \"scenario\": {{{packs}\"design\": \
             {{\"integration\": \"2d\", \"dies\": [{{\"node_nm\": 7, \"gate_count\": 8e9}}]}}, \
             \"workload\": {{\"name\": \"w\", \"throughput_tops\": 100, \"active_hours\": 1000}}}}}}\n"
        )
    };
    let path = JsonValue::String(pack.display().to_string()).render_compact();
    let packed = frame(&format!("\"packs\": [{path}], "));
    let plain = frame("");
    let (lines, summary) = serve_lines(format!("{packed}{plain}").as_bytes());
    let (alone, _) = serve_lines(plain.as_bytes());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(summary, (2, 0), "{lines:?}");
    assert_ne!(lines[0], lines[1], "the changed pack must change the price");
    assert_eq!(lines[1], alone[0]);
}

#[test]
fn serve_orders_responses_under_concurrency() {
    let mut input = String::new();
    for id in 1..=6 {
        let preset = if id % 2 == 0 { "epyc-7452" } else { "hbm4-d2w" };
        input.push_str(&format!(
            "{{\"id\": {id}, \"command\": \"run\", \"scenario\": {{\"design\": {{\"preset\": \"{preset}\"}}}}}}\n"
        ));
    }
    input.push_str("{\"id\": 7, \"command\": \"shutdown\"}\n");
    let session = ScenarioSession::default();
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    serve(&session, input.as_bytes(), &mut stdout, &mut stderr, 4).expect("serves");
    let ids: Vec<f64> = stdout
        .lines()
        .map(|l| {
            JsonValue::parse(&l.expect("line"))
                .expect("frame parses")
                .get("id")
                .expect("id echoed")
                .as_f64()
                .expect("numeric id")
        })
        .collect();
    assert_eq!(ids, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
}

#[test]
fn serve_responses_match_single_shot_json_documents() {
    // A serve response's `report` is exactly the `--format json`
    // document of the corresponding command (modulo pretty-printing).
    let scenario_text = r#"{"name": "parity", "design": {"preset": "epyc-7452"}}"#;
    let scenario = Scenario::parse(scenario_text).expect("parses");
    let request = scenario
        .build_request(RequestKind::Run)
        .expect("request builds");
    let session = ScenarioSession::default();
    let evaluated = session.evaluate(&request).expect("evaluates");
    let single_shot = render_response(&scenario.name, &evaluated.response, OutputFormat::Json);

    let input = format!("{{\"id\": 1, \"command\": \"run\", \"scenario\": {scenario_text}}}\n");
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    serve(
        &ScenarioSession::default(),
        input.as_bytes(),
        &mut stdout,
        &mut stderr,
        1,
    )
    .expect("serves");
    let frame =
        JsonValue::parse(std::str::from_utf8(&stdout).expect("utf8").trim()).expect("frame parses");
    assert_eq!(
        frame.get("report").expect("report present").render(),
        single_shot,
    );
}
