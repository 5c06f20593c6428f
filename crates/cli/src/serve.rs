//! `tdc serve`: a line-delimited JSON request/response loop, backed by
//! one shared warm [`ScenarioSession`].
//!
//! One request frame per input line, one response frame per output
//! line, **in input order** (the protocol and its golden transcript
//! are documented in `docs/SERVING.md`):
//!
//! ```text
//! {"id": 1, "command": "run",   "scenario": { ...scenario doc... }}
//! {"id": 2, "command": "sweep", "scenario": { ... }}
//! {"id": 3, "command": "stats"}
//! {"id": 4, "command": "shutdown"}
//! ```
//!
//! Success frames echo the `id` and embed the `--format json`
//! document of the corresponding command, compact-rendered; failures
//! — malformed JSON, frame-level schema errors, scenario schema
//! errors, model errors — answer `{"ok": false, "error": {"path":
//! ..., "message": ...}}` on the same line position and never kill
//! the server. The session shuts down gracefully on a `shutdown`
//! frame or end of input, printing an aggregate stats line (stable
//! [`summary`](tdc_core::service::summary) format) to stderr.
//!
//! Both transports read frames by one rule (`FrameReader`): the
//! bytes up to the next newline, decoded lossily (invalid UTF-8
//! becomes U+FFFD and then fails to parse like any malformed frame).
//! A frame longer than [`MAX_FRAME_BYTES`] is answered with one error
//! frame naming the limit and skipped through its newline; the stream
//! continues, and no frame ever holds more than the limit in memory.
//!
//! The loop runs over two transports with the **same wire format**:
//!
//! * **stdin/stdout** ([`serve`]) — one client, byte-identical to
//!   every release since the protocol landed (the golden transcript
//!   in `crates/cli/tests/data/` pins it);
//! * **TCP** ([`serve_listener`], `tdc serve --listen <addr>`) — one
//!   thread per connection, every connection speaking the same frame
//!   protocol against one shared session, so clients warm each
//!   other's artifacts. A `{"command": "shutdown"}` frame closes just
//!   its own connection; `{"command": "shutdown", "scope": "server"}`
//!   additionally stops the listener and gracefully drains the other
//!   connections (each finishes the frame it is evaluating).
//!
//! Per connection, evaluation runs with bounded in-flight concurrency
//! (`--max-inflight`): up to that many frames evaluate at once on the
//! shared session, and a reorder buffer keeps responses in input
//! order. `--max-inflight 1` (the default) is fully sequential —
//! responses are deterministic down to the `stats` counters, which is
//! what the golden-transcript CI check relies on.

use crate::report::response_document;
use crate::scenario::{RequestKind, Scenario, ScenarioError};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tdc_core::service::summary::stages_kv;
use tdc_core::service::ScenarioSession;
use tdc_registry::json::JsonValue;

/// What one `tdc serve` session (or one TCP connection) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Frames answered (success and error alike).
    pub frames: u64,
    /// Frames answered with an error response.
    pub errors: u64,
}

/// What one `tdc serve --listen` run did, summed over connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ListenSummary {
    /// Connections accepted and served to completion.
    pub connections: u64,
    /// Frames answered across all connections.
    pub frames: u64,
    /// Frames answered with an error response, across all connections.
    pub errors: u64,
}

/// One parsed input line, ready to evaluate.
enum Frame {
    /// An evaluating request.
    Eval {
        id: JsonValue,
        kind: RequestKind,
        scenario: Box<Scenario>,
    },
    /// A session-stats probe.
    Stats { id: JsonValue },
    /// An obs-metrics probe (`{"op": "metrics"}`): answers the full
    /// metric catalog as a JSON object, on either transport.
    Metrics { id: JsonValue },
    /// Graceful shutdown (reading stops; in-flight frames drain).
    /// `server` is the `"scope": "server"` variant: on a TCP listener
    /// it also stops accepting and drains every other connection.
    Shutdown { id: JsonValue, server: bool },
    /// Anything unanswerable: the error response is already rendered.
    Bad { response: String },
}

fn ok_frame(id: &JsonValue, command: &str, extra: Vec<(String, JsonValue)>) -> String {
    let mut fields = vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), JsonValue::Bool(true)),
        ("command".to_owned(), JsonValue::String(command.to_owned())),
    ];
    fields.extend(extra);
    JsonValue::Object(fields).render_compact()
}

fn error_frame(id: &JsonValue, path: Option<&str>, message: &str) -> String {
    JsonValue::Object(vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), JsonValue::Bool(false)),
        (
            "error".to_owned(),
            JsonValue::Object(vec![
                (
                    "path".to_owned(),
                    path.map_or(JsonValue::Null, |p| JsonValue::String(p.to_owned())),
                ),
                ("message".to_owned(), JsonValue::String(message.to_owned())),
            ]),
        ),
    ])
    .render_compact()
}

fn scenario_error_frame(id: &JsonValue, err: &ScenarioError) -> String {
    match err {
        ScenarioError::Schema { path, message } => error_frame(id, Some(path), message),
        other => error_frame(id, None, &other.to_string()),
    }
}

/// Parses one input line into a frame. Protocol-level problems
/// (malformed JSON, missing/unknown `command`, missing `scenario`, a
/// bad shutdown `scope`) become [`Frame::Bad`] with a path-named error
/// response — the server answers them and keeps serving.
fn parse_frame(line: &str) -> Frame {
    let root = match JsonValue::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Frame::Bad {
                response: error_frame(&JsonValue::Null, None, &e.to_string()),
            }
        }
    };
    let id = root.get("id").cloned().unwrap_or(JsonValue::Null);
    if root.as_object().is_none() {
        return Frame::Bad {
            response: error_frame(&id, None, "a request frame must be a JSON object"),
        };
    }
    // `{"op": "metrics"}` is the one command-less frame: an obs probe
    // that predates no release, so it rides a separate key instead of
    // widening the `command` vocabulary.
    if let Some(op_value) = root.get("op") {
        return match op_value.as_str() {
            Some("metrics") => Frame::Metrics { id },
            _ => Frame::Bad {
                response: error_frame(&id, Some("op"), "expected \"metrics\""),
            },
        };
    }
    let Some(command_value) = root.get("command") else {
        return Frame::Bad {
            response: error_frame(&id, Some("command"), "required field is missing"),
        };
    };
    let Some(command) = command_value.as_str() else {
        return Frame::Bad {
            response: error_frame(
                &id,
                Some("command"),
                &format!("expected a string, got {}", command_value.type_name()),
            ),
        };
    };
    match command.trim().to_ascii_lowercase().as_str() {
        "stats" => Frame::Stats { id },
        "shutdown" => match root.get("scope").map(JsonValue::as_str) {
            None => Frame::Shutdown { id, server: false },
            Some(Some("session")) => Frame::Shutdown { id, server: false },
            Some(Some("server")) => Frame::Shutdown { id, server: true },
            Some(_) => Frame::Bad {
                response: error_frame(&id, Some("scope"), "expected \"session\" or \"server\""),
            },
        },
        other => {
            let Some(kind) = RequestKind::from_token(other) else {
                return Frame::Bad {
                    response: error_frame(
                        &id,
                        Some("command"),
                        &format!(
                            "unknown command `{other}` (run, sweep, explore, sensitivity, \
                             stats, shutdown)"
                        ),
                    ),
                };
            };
            let Some(scenario_value) = root.get("scenario") else {
                return Frame::Bad {
                    response: error_frame(&id, Some("scenario"), "required field is missing"),
                };
            };
            match Scenario::from_value(scenario_value) {
                Ok(scenario) => Frame::Eval {
                    id,
                    kind,
                    scenario: Box::new(scenario),
                },
                Err(e) => Frame::Bad {
                    response: scenario_error_frame(&id, &e),
                },
            }
        }
    }
}

/// Evaluates one frame to its response line, plus an is-error flag.
/// `client` is the session client id evaluations run as (0 for the
/// single-client stdin transport; a registered id per TCP connection).
fn answer(session: &ScenarioSession, client: u64, frame: &Frame) -> (String, bool) {
    let _obs = tdc_obs::span_timed("serve.frame", &tdc_obs::metrics::SERVE_FRAME_NS);
    let (response, is_error) = answer_frame(session, client, frame);
    if tdc_obs::enabled() {
        tdc_obs::metrics::SERVE_FRAMES.inc();
        if is_error {
            tdc_obs::metrics::SERVE_FRAME_ERRORS.inc();
        }
    }
    (response, is_error)
}

fn answer_frame(session: &ScenarioSession, client: u64, frame: &Frame) -> (String, bool) {
    match frame {
        Frame::Bad { response } => (response.clone(), true),
        Frame::Metrics { id } => {
            // Publish the live cache's counters first, so the scraped
            // gauges describe the session actually serving traffic.
            session.executor().cache().publish_obs();
            let line = JsonValue::Object(vec![
                ("id".to_owned(), id.clone()),
                ("ok".to_owned(), JsonValue::Bool(true)),
                ("op".to_owned(), JsonValue::String("metrics".to_owned())),
                ("metrics".to_owned(), crate::profile::metrics_json()),
            ])
            .render_compact();
            (line, false)
        }
        Frame::Stats { id } => {
            let stats = session.stats();
            #[allow(clippy::cast_precision_loss)]
            let n = |v: u64| JsonValue::Number(v as f64);
            let line = ok_frame(
                id,
                "stats",
                vec![(
                    "stats".to_owned(),
                    JsonValue::Object(vec![
                        ("requests".to_owned(), n(stats.requests)),
                        ("hits".to_owned(), n(stats.stages.hits())),
                        ("cross".to_owned(), n(stats.stages.cross_hits())),
                        (
                            "lookups".to_owned(),
                            n(stats.stages.hits() + stats.stages.misses()),
                        ),
                        ("entries".to_owned(), n(stats.entries as u64)),
                    ]),
                )],
            );
            (line, false)
        }
        Frame::Shutdown { id, .. } => (ok_frame(id, "shutdown", Vec::new()), false),
        Frame::Eval { id, kind, scenario } => {
            let request = match scenario.build_request(*kind) {
                Ok(r) => r,
                Err(e) => return (scenario_error_frame(id, &e), true),
            };
            match session.evaluate_as(client, &request) {
                Ok(evaluated) => (
                    ok_frame(
                        id,
                        kind.label(),
                        vec![(
                            "report".to_owned(),
                            response_document(&scenario.name, &evaluated.response),
                        )],
                    ),
                    false,
                ),
                Err(e) => (error_frame(id, None, &e.to_string()), true),
            }
        }
    }
}

/// The most bytes one request frame may carry, its newline excluded.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// One frame's worth of input.
enum Input {
    /// A complete line without its terminator, decoded lossily.
    Line(String),
    /// A line longer than [`MAX_FRAME_BYTES`], already skipped.
    TooLong,
}

/// The frame a unit of input asks to evaluate (`None` for blank
/// lines, which are ignored).
fn frame_of(input: Input) -> Option<Frame> {
    match input {
        Input::Line(line) if line.trim().is_empty() => None,
        Input::Line(line) => Some(parse_frame(&line)),
        Input::TooLong => Some(Frame::Bad {
            response: error_frame(
                &JsonValue::Null,
                None,
                &format!("frame exceeds the {MAX_FRAME_BYTES}-byte limit"),
            ),
        }),
    }
}

/// A pull-based input source: `Ok(Some(input))` per input line,
/// `Ok(None)` at end of input — which for a TCP connection under a
/// server-scope drain may be *logical* end of input, not socket EOF.
type LineSource<'a> = dyn FnMut() -> std::io::Result<Option<Input>> + 'a;

/// Runs the frame loop over one line source until a `shutdown` frame
/// or end of input, answering as `client`. Returns whether a
/// server-scope shutdown frame ended the loop.
fn serve_lines(
    session: &ScenarioSession,
    client: u64,
    next_line: &mut LineSource<'_>,
    output: &mut dyn Write,
    summary: &mut ServeSummary,
    max_inflight: usize,
) -> std::io::Result<bool> {
    if max_inflight > 1 {
        return serve_concurrent(session, client, next_line, output, summary, max_inflight);
    }
    // Sequential fast path: fully deterministic, including the
    // `stats` counters — the golden-transcript mode.
    while let Some(input) = next_line()? {
        let Some(frame) = frame_of(input) else {
            continue;
        };
        let (response, is_error) = answer(session, client, &frame);
        summary.frames += 1;
        summary.errors += u64::from(is_error);
        writeln!(output, "{response}")?;
        output.flush()?;
        if let Frame::Shutdown { server, .. } = frame {
            return Ok(server);
        }
    }
    Ok(false)
}

/// Runs the serve loop over stdin/stdout-style streams until a
/// `shutdown` frame or end of input. Response frames are written to
/// `output` in input order; the aggregate stats line goes to `stderr`
/// after the last response.
///
/// # Errors
///
/// Only I/O failures on the streams are hard errors.
///
/// # Panics
///
/// Panics if an evaluation worker thread panics (request evaluation
/// itself reports failures as error frames instead of panicking).
pub fn serve(
    session: &ScenarioSession,
    input: impl Read,
    output: &mut dyn Write,
    stderr: &mut dyn Write,
    max_inflight: usize,
) -> std::io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    let mut frames = FrameReader::new(input);
    let mut next_line = move || loop {
        match frames.next_event()? {
            LineEvent::Input(input) => return Ok(Some(input)),
            LineEvent::Eof => return Ok(None),
            // A blocking reader never times out; keep reading if one
            // reports it anyway.
            LineEvent::Tick => {}
        }
    };
    serve_lines(
        session,
        0,
        &mut next_line,
        output,
        &mut summary,
        max_inflight,
    )?;
    let totals = session.stats();
    writeln!(
        stderr,
        "serve frames={} errors={} requests={} {}",
        summary.frames,
        summary.errors,
        totals.requests,
        stages_kv(&totals.stages)
    )?;
    Ok(summary)
}

/// The bounded-concurrency loop: a reader (this thread) parses frames
/// and enqueues at most `max_inflight` of them; workers evaluate on
/// the shared session; a reorder buffer emits responses in input
/// order. Returns whether a server-scope shutdown ended the loop.
fn serve_concurrent(
    session: &ScenarioSession,
    client: u64,
    next_line: &mut LineSource<'_>,
    output: &mut dyn Write,
    summary: &mut ServeSummary,
    max_inflight: usize,
) -> std::io::Result<bool> {
    // A bounded job queue is the in-flight limit: the reader blocks
    // once `max_inflight` frames are queued or evaluating.
    let (job_tx, job_rx) = mpsc::sync_channel::<(u64, Frame)>(max_inflight);
    let job_rx = Mutex::new(job_rx);
    let (done_tx, done_rx) = mpsc::channel::<(u64, String, bool)>();

    std::thread::scope(|scope| -> std::io::Result<bool> {
        for _ in 0..max_inflight {
            let done_tx = done_tx.clone();
            let job_rx = &job_rx;
            scope.spawn(move || loop {
                let job = job_rx.lock().expect("serve job lock poisoned").recv();
                let Ok((seq, frame)) = job else { break };
                let (response, is_error) = answer(session, client, &frame);
                if done_tx.send((seq, response, is_error)).is_err() {
                    break;
                }
            });
        }
        drop(done_tx);

        let mut next_seq = 0u64;
        let mut enqueued = 0u64;
        let mut server_shutdown = false;
        let mut pending: BTreeMap<u64, (String, bool)> = BTreeMap::new();
        let write_ready = |pending: &mut BTreeMap<u64, (String, bool)>,
                           next_seq: &mut u64,
                           output: &mut dyn Write,
                           summary: &mut ServeSummary|
         -> std::io::Result<()> {
            while let Some((response, is_error)) = pending.remove(&*next_seq) {
                summary.frames += 1;
                summary.errors += u64::from(is_error);
                writeln!(output, "{response}")?;
                output.flush()?;
                *next_seq += 1;
            }
            Ok(())
        };

        while let Some(input) = next_line()? {
            let Some(frame) = frame_of(input) else {
                continue;
            };
            let stop = match &frame {
                Frame::Shutdown { server, .. } => {
                    server_shutdown = *server;
                    true
                }
                _ => false,
            };
            // Drain finished work before (possibly) blocking on the
            // bounded queue, so responses flow while we wait.
            while let Ok((seq, response, is_error)) = done_rx.try_recv() {
                pending.insert(seq, (response, is_error));
            }
            write_ready(&mut pending, &mut next_seq, output, summary)?;
            job_tx
                .send((enqueued, frame))
                .expect("serve workers outlive the reader");
            enqueued += 1;
            if stop {
                break;
            }
        }
        drop(job_tx);
        while next_seq < enqueued {
            let (seq, response, is_error) =
                done_rx.recv().expect("serve workers answer every frame");
            pending.insert(seq, (response, is_error));
            write_ready(&mut pending, &mut next_seq, output, summary)?;
        }
        Ok(server_shutdown)
    })
}

/// How often a blocked connection read wakes up to check the
/// server-stop flag. Pure poll granularity for graceful drain — warm
/// responses are orders of magnitude faster than this, so the knob
/// never sits on the request path.
const STOP_POLL: Duration = Duration::from_millis(50);

/// The frame reader of both transports: the bytes up to the next
/// newline, decoded lossily, at most [`MAX_FRAME_BYTES`] of them.
/// `BufRead::read_line` cannot be used on a socket with a read timeout
/// — a timeout mid-line discards the bytes read so far — so this keeps
/// its own carry buffer across timeouts. Each read scans only its new
/// bytes for the newline, so a long frame costs linear time, and a
/// frame past the limit is dropped as it arrives instead of buffered.
struct FrameReader<R> {
    reader: R,
    carry: Vec<u8>,
    /// `carry[..scanned]` is known to hold no newline.
    scanned: usize,
    /// The current line outgrew the limit: its bytes are discarded up
    /// to its newline.
    skipping: bool,
}

enum LineEvent {
    Input(Input),
    Eof,
    /// The read timed out with no complete line; the caller decides
    /// whether to keep waiting (and can check a stop flag in between).
    Tick,
}

impl<R: Read> FrameReader<R> {
    fn new(reader: R) -> Self {
        Self {
            reader,
            carry: Vec::new(),
            scanned: 0,
            skipping: false,
        }
    }

    /// Splits the next complete line off the carry buffer, scanning
    /// only the bytes no earlier call has scanned.
    fn take_line(&mut self) -> Option<Input> {
        let Some(offset) = self.carry[self.scanned..].iter().position(|b| *b == b'\n') else {
            if self.skipping || self.carry.len() > MAX_FRAME_BYTES {
                self.skipping = true;
                self.carry.clear();
            }
            self.scanned = self.carry.len();
            return None;
        };
        let nl = self.scanned + offset;
        let input = if self.skipping || nl > MAX_FRAME_BYTES {
            Input::TooLong
        } else {
            let end = if nl > 0 && self.carry[nl - 1] == b'\r' {
                nl - 1
            } else {
                nl
            };
            Input::Line(String::from_utf8_lossy(&self.carry[..end]).into_owned())
        };
        self.carry.drain(..=nl);
        self.scanned = 0;
        self.skipping = false;
        Some(input)
    }

    fn next_event(&mut self) -> std::io::Result<LineEvent> {
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(input) = self.take_line() {
                return Ok(LineEvent::Input(input));
            }
            match self.reader.read(&mut chunk) {
                Ok(0) => {
                    // End of input: a final unterminated line still
                    // counts.
                    let input = if std::mem::take(&mut self.skipping) {
                        Input::TooLong
                    } else if self.carry.is_empty() {
                        return Ok(LineEvent::Eof);
                    } else {
                        Input::Line(String::from_utf8_lossy(&self.carry).into_owned())
                    };
                    self.carry.clear();
                    self.scanned = 0;
                    return Ok(LineEvent::Input(input));
                }
                Ok(n) => self.carry.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(LineEvent::Tick);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Serves one accepted connection: registers a session client id,
/// runs the frame loop with stop-flag polling, and reports whether
/// this connection requested a server-scope shutdown.
fn handle_connection(
    session: &ScenarioSession,
    stream: TcpStream,
    max_inflight: usize,
    stop: &AtomicBool,
) -> (u64, ServeSummary, bool, std::io::Result<()>) {
    let client = session.register_client();
    if tdc_obs::enabled() {
        tdc_obs::metrics::SERVE_CONNECTIONS.inc();
    }
    let mut summary = ServeSummary::default();
    // One response frame per request frame is the pathological case
    // for Nagle + delayed ACK (~40 ms per closed-loop round trip on
    // loopback), so responses must go out immediately.
    let setup = stream
        .set_read_timeout(Some(STOP_POLL))
        .and_then(|()| stream.set_nodelay(true))
        .and_then(|()| stream.try_clone());
    let reader = match setup {
        Ok(reader) => reader,
        Err(e) => return (client, summary, false, Err(e)),
    };
    let mut frames = FrameReader::new(reader);
    let mut output = stream;
    let mut next_line = move || loop {
        match frames.next_event()? {
            LineEvent::Input(input) => return Ok(Some(input)),
            LineEvent::Eof => return Ok(None),
            // Logical end of input on a server-scope drain: the
            // connection finishes its in-flight frames and closes.
            LineEvent::Tick => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
        }
    };
    match serve_lines(
        session,
        client,
        &mut next_line,
        &mut output,
        &mut summary,
        max_inflight,
    ) {
        Ok(server_shutdown) => (client, summary, server_shutdown, Ok(())),
        Err(e) => (client, summary, false, Err(e)),
    }
}

/// Runs the multi-client TCP frontend: accepts connections on
/// `listener` until a `{"command": "shutdown", "scope": "server"}`
/// frame arrives on any of them, serving each connection the same
/// frame protocol as [`serve`] on its own thread, all against one
/// shared `session`. A connection-scope `shutdown` (or client EOF,
/// or a client I/O failure) ends only that connection; the listener
/// and every other connection keep serving. On server shutdown every
/// live connection drains gracefully — it finishes the frames it is
/// evaluating — before the call returns and writes the aggregate
/// stats line to `stderr`.
///
/// # Errors
///
/// Binding problems surface from the caller's `TcpListener::bind`;
/// here only persistent accept failures and the final stderr writes
/// are hard errors. Per-connection I/O failures are noted on `stderr`
/// (after the connections drain) and absorbed. Each connection also
/// writes one `connection client=... frames=... errors=...` stats
/// line to `stderr` as it closes — preformatted and written under a
/// single lock acquisition, so lines from connections flushing
/// concurrently never interleave mid-line (the regression test in
/// `crates/cli/tests/serve_concurrent.rs` hammers exactly this).
///
/// # Panics
///
/// Panics if a connection thread panics (frame evaluation reports
/// failures as error frames instead of panicking).
pub fn serve_listener(
    session: &ScenarioSession,
    listener: TcpListener,
    max_inflight: usize,
    stderr: &mut (dyn Write + Send),
) -> std::io::Result<ListenSummary> {
    let local = listener.local_addr()?;
    let stop = AtomicBool::new(false);
    let totals = Mutex::new(ListenSummary::default());
    let log = Mutex::new(Vec::<String>::new());
    // Connection threads share stderr through this mutex, writing each
    // per-connection stats line as ONE preformatted writeln under ONE
    // lock acquisition. Formatting inside the writeln (or one write
    // per token) let concurrently finishing connections interleave
    // *within* a line; whole lines may still order freely.
    let shared_err = Mutex::new(&mut *stderr);

    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut accept_errors = 0u32;
        loop {
            let stream = match listener.accept() {
                Ok((stream, _peer)) => {
                    accept_errors = 0;
                    stream
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Transient accept failures (EMFILE, aborted
                    // handshakes) must not kill a server with live
                    // clients; persistent ones are a real error.
                    accept_errors += 1;
                    if accept_errors > 16 {
                        stop.store(true, Ordering::SeqCst);
                        return Err(e);
                    }
                    continue;
                }
            };
            if stop.load(Ordering::SeqCst) {
                // The shutdown wake-up connection, or a client that
                // raced the shutdown: either way, no longer serving.
                break;
            }
            let (stop, totals, log, shared_err) = (&stop, &totals, &log, &shared_err);
            scope.spawn(move || {
                let (client, summary, server_shutdown, result) =
                    handle_connection(session, stream, max_inflight, stop);
                {
                    let mut t = totals.lock().expect("listen totals lock poisoned");
                    t.connections += 1;
                    t.frames += summary.frames;
                    t.errors += summary.errors;
                }
                // Preformatted first, then a single locked writeln —
                // the line can never tear against another connection
                // flushing at the same moment.
                let line = format!(
                    "connection client={client} frames={} errors={}",
                    summary.frames, summary.errors
                );
                {
                    let mut err = shared_err.lock().expect("listen stderr lock poisoned");
                    let _ = writeln!(err, "{line}");
                }
                if let Err(e) = result {
                    // A vanished or broken client is that client's
                    // problem; note it and keep serving the rest.
                    log.lock()
                        .expect("listen log lock poisoned")
                        .push(format!("serve connection error: {e}"));
                }
                if server_shutdown && !stop.swap(true, Ordering::SeqCst) {
                    // Wake the accept loop so it observes the flag.
                    drop(TcpStream::connect(local));
                }
            });
        }
        Ok(())
        // The scope joins every connection thread here: graceful
        // drain is structural, not best-effort.
    })?;

    let stderr = shared_err
        .into_inner()
        .expect("listen stderr lock poisoned");
    let totals = *totals.lock().expect("listen totals lock poisoned");
    let stats = session.stats();
    for note in log.into_inner().expect("listen log lock poisoned") {
        writeln!(stderr, "{note}")?;
    }
    writeln!(
        stderr,
        "listen connections={} frames={} errors={} requests={} clients={} {}",
        totals.connections,
        totals.frames,
        totals.errors,
        stats.requests,
        stats.clients,
        stages_kv(&stats.stages)
    )?;
    Ok(totals)
}

/// The `--metrics-addr` sink: a background thread answering every TCP
/// connection with one HTTP/1.0 `200 OK` whose plain-text body is
/// [`tdc_obs::metrics::render_exposition`] (Prometheus-style
/// `tdc_<name> <value>` lines), the shared session's cache counters
/// published immediately before each scrape. The request itself is
/// read and discarded — any path scrapes the same document.
#[derive(Debug)]
pub struct MetricsServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (port 0 = ephemeral), announces the bound address
    /// on stderr as `metrics listening on <addr>`, and starts the
    /// scrape thread.
    ///
    /// # Errors
    ///
    /// A message naming the address when the bind fails.
    pub fn start(addr: &str, session: Arc<ScenarioSession>) -> Result<Self, String> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| format!("cannot expose metrics on `{addr}`: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve metrics address: {e}"))?;
        eprintln!("metrics listening on {local}");
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || loop {
            let accepted = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if thread_stop.load(Ordering::SeqCst) {
                break;
            }
            // A failed scrape is the scraper's problem; keep serving.
            let _ = answer_scrape(accepted, &session);
        });
        Ok(Self {
            local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Stops the scrape thread and joins it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocked accept so it observes the flag.
        drop(TcpStream::connect(self.local));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Reads (and discards) one HTTP request head, then answers the
/// exposition document.
fn answer_scrape(mut stream: TcpStream, session: &ScenarioSession) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break;
            }
            Err(e) => return Err(e),
        }
    }
    session.executor().cache().publish_obs();
    let body = tdc_obs::metrics::render_exposition();
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}
