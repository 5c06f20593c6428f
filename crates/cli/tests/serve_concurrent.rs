//! Multi-client `tdc serve --listen` behaviour: determinism of
//! concurrent TCP clients against fresh single-process replays,
//! cross-client warmth through the shared session, and fault
//! injection — a vanished client, a malformed frame mid-stream, and
//! shutdown with frames still in flight must all leave the server
//! serving everyone else, answering with path-named errors, never a
//! panic.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;
use tdc_cli::serve::{serve, serve_listener, ListenSummary};
use tdc_cli::JsonValue;
use tdc_core::service::ScenarioSession;

/// xorshift64 — deterministic randomized streams without a `rand`
/// dependency.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The shared-geometry scenario pool: 2 die stacks × 3 grid regions ×
/// 2 lifetimes. Every client draws from the same pool, so embodied
/// chains warm across clients.
fn scenario_pool() -> Vec<String> {
    let mut pool = Vec::new();
    for gates in [8.0e9, 13.0e9] {
        for region in ["world", "france", "coal"] {
            for hours in [4745.0, 9490.0] {
                pool.push(format!(
                    "{{\"design\": {{\"dies\": [{{\"name\": \"soc\", \"node_nm\": 7, \
                     \"gate_count\": {gates:.1}, \"efficiency_tops_per_watt\": 2.74, \
                     \"compute_share\": 1}}]}}, \
                     \"workload\": {{\"name\": \"inference\", \"throughput_tops\": 254, \
                     \"active_hours\": {hours:.1}, \"average_utilization\": 0.15}}, \
                     \"context\": {{\"use_region\": \"{region}\"}}}}"
                ));
            }
        }
    }
    pool
}

fn random_stream(seed: u64, frames: usize) -> Vec<String> {
    let pool = scenario_pool();
    let mut rng = XorShift64::new(seed);
    let mut out: Vec<String> = (0..frames)
        .map(|i| {
            let scenario = &pool[usize::try_from(rng.next() % pool.len() as u64).unwrap()];
            format!(
                "{{\"id\": {}, \"command\": \"run\", \"scenario\": {scenario}}}",
                i + 1
            )
        })
        .collect();
    out.push(format!(
        "{{\"id\": {}, \"command\": \"shutdown\"}}",
        frames + 1
    ));
    out
}

/// What a fresh single-process `tdc serve` answers for this stream.
fn fresh_replay(stream_lines: &[String]) -> Vec<String> {
    let mut input = stream_lines.join("\n");
    input.push('\n');
    let mut stdout = Vec::new();
    let mut sink = Vec::new();
    serve(
        &ScenarioSession::serial(),
        input.as_bytes(),
        &mut stdout,
        &mut sink,
        1,
    )
    .expect("in-memory serve");
    String::from_utf8(stdout)
        .expect("utf8")
        .lines()
        .map(ToOwned::to_owned)
        .collect()
}

/// A line-oriented test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Self {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("writes");
        self.writer.flush().expect("flushes");
    }

    /// Reads one response line; `None` on clean EOF.
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line).expect("reads") == 0 {
            return None;
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Some(line)
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv().expect("a response before EOF")
    }
}

/// Runs `body` against a listening server sharing `session`; `body`
/// must stop the server (server-scope shutdown) before returning.
/// Returns the body's value, the listener summary, and its stderr.
fn with_server<T>(
    session: &ScenarioSession,
    max_inflight: usize,
    body: impl FnOnce(SocketAddr) -> T,
) -> (T, ListenSummary, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("bound address");
    std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let mut sink = Vec::new();
            let summary = serve_listener(session, listener, max_inflight, &mut sink);
            (summary, sink)
        });
        let out = body(addr);
        let (summary, sink) = server.join().expect("server thread");
        (
            out,
            summary.expect("listener exits cleanly"),
            String::from_utf8(sink).expect("utf8 stderr"),
        )
    })
}

fn stop_server(addr: SocketAddr) {
    let mut control = Client::connect(addr);
    let ack = control.round_trip("{\"id\": 0, \"command\": \"shutdown\", \"scope\": \"server\"}");
    assert!(ack.contains("\"ok\":true"), "{ack}");
}

fn ok_frame(line: &str) -> bool {
    JsonValue::parse(line)
        .ok()
        .and_then(|v| v.get("ok").cloned())
        == Some(JsonValue::Bool(true))
}

/// The headline property: N concurrent clients replaying randomized
/// shared-geometry streams get responses byte-identical to fresh
/// single-process replays, and the shared session shows cross-client
/// warm hits.
#[test]
fn concurrent_tcp_clients_equal_fresh_serial_replays() {
    const CLIENTS: u64 = 4;
    const FRAMES: usize = 10;
    let streams: Vec<Vec<String>> = (0..CLIENTS)
        .map(|c| random_stream(0xc0ffee ^ (c + 1).wrapping_mul(0x9E37_79B9), FRAMES))
        .collect();
    let expected: Vec<Vec<String>> = streams.iter().map(|s| fresh_replay(s)).collect();

    let session = ScenarioSession::serial();
    let (responses, summary, stderr) = with_server(&session, 1, |addr| {
        let responses = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .map(|stream_lines| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr);
                        stream_lines
                            .iter()
                            .map(|line| client.round_trip(line))
                            .collect::<Vec<String>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        });
        stop_server(addr);
        responses
    });

    for (got, want) in responses.iter().zip(&expected) {
        assert_eq!(got, want, "concurrency or shared warmth leaked into bytes");
    }
    assert_eq!(summary.connections, CLIENTS + 1, "clients + control");
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.frames, CLIENTS * (FRAMES as u64 + 1) + 1);

    // Cross-client warmth: the final stats line reports client_cross
    // hits, and the session agrees.
    let stats = session.stats();
    assert!(
        stats.stages.client_hits() > 0,
        "no cross-client reuse on shared-geometry streams: {stats:?}"
    );
    assert_eq!(stats.clients, CLIENTS + 1);
    let final_line = stderr
        .lines()
        .find(|l| l.starts_with("listen connections="))
        .expect("aggregate stats line");
    let client_cross: u64 = final_line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("client_cross="))
        .expect("client_cross= token")
        .parse()
        .expect("integer");
    assert_eq!(client_cross, stats.stages.client_hits());
}

/// Strict shape check for one per-connection stats line:
/// `connection client=<n> frames=<n> errors=<n>`, nothing else.
fn parse_connection_line(line: &str) -> Option<(u64, u64, u64)> {
    let rest = line.strip_prefix("connection client=")?;
    let (client, rest) = rest.split_once(" frames=")?;
    let (frames, errors) = rest.split_once(" errors=")?;
    Some((
        client.parse().ok()?,
        frames.parse().ok()?,
        errors.parse().ok()?,
    ))
}

/// Regression: with many connections tearing down at once, the
/// per-connection stats lines used to be written in fragments, so two
/// finishing threads could interleave mid-line. Each line is now
/// preformatted and written under a single lock acquisition — every
/// stderr line must parse as exactly one well-formed record.
#[test]
fn concurrent_connection_stats_lines_never_tear() {
    const CLIENTS: u64 = 8;
    let session = ScenarioSession::serial();
    let ((), summary, stderr) = with_server(&session, 1, |addr| {
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                scope.spawn(move || {
                    let stream_lines = random_stream(0xbeef ^ (c + 1), 2);
                    let mut client = Client::connect(addr);
                    for line in &stream_lines {
                        assert!(ok_frame(&client.round_trip(line)), "client {c}");
                    }
                    // All streams end with a connection shutdown, so
                    // the 8 teardowns (and their stats lines) race.
                });
            }
        });
        stop_server(addr);
    });

    let lines: Vec<&str> = stderr.lines().collect();
    let (aggregate, connection_lines) = lines.split_last().expect("stderr has lines");
    assert!(
        aggregate.starts_with("listen connections="),
        "last line must be the aggregate, got: {aggregate}"
    );
    let mut seen_clients = Vec::new();
    for line in connection_lines {
        let (client, _frames, errors) = parse_connection_line(line)
            .unwrap_or_else(|| panic!("torn or malformed stats line: {line:?}"));
        assert_eq!(errors, 0, "{line}");
        seen_clients.push(client);
    }
    assert_eq!(
        seen_clients.len() as u64,
        summary.connections,
        "one stats line per connection"
    );
    seen_clients.sort_unstable();
    seen_clients.dedup();
    assert_eq!(
        seen_clients.len() as u64,
        summary.connections,
        "client ids must be unique across stats lines"
    );
}

/// A client that vanishes mid-request (half a frame, no newline, then
/// RST/EOF) must not take the server or its other clients down.
#[test]
fn client_disconnect_mid_request_leaves_other_clients_served() {
    let session = ScenarioSession::serial();
    let ((), summary, _stderr) = with_server(&session, 1, |addr| {
        let survivor_frame = &random_stream(7, 1)[0];
        let mut survivor = Client::connect(addr);
        assert!(ok_frame(&survivor.round_trip(survivor_frame)));

        // The casualty: half a run frame, then gone.
        let mut casualty = TcpStream::connect(addr).expect("connects");
        casualty
            .write_all(b"{\"id\": 9, \"command\": \"run\", \"scenario\": {\"des")
            .expect("partial write");
        casualty.flush().expect("flushes");
        drop(casualty);

        // The survivor keeps getting served after the disconnect.
        std::thread::sleep(Duration::from_millis(120));
        assert!(ok_frame(&survivor.round_trip(survivor_frame)));
        assert!(ok_frame(
            &survivor.round_trip("{\"id\": 3, \"command\": \"shutdown\"}")
        ));
        assert_eq!(survivor.recv(), None, "clean close after shutdown");
        stop_server(addr);
    });
    assert_eq!(summary.connections, 3, "survivor + casualty + control");
}

/// A malformed frame mid-stream answers a path-named (or parse) error
/// on its line position and the same connection keeps serving.
#[test]
fn malformed_frames_mid_stream_answer_errors_and_keep_the_connection() {
    let session = ScenarioSession::serial();
    let ((), summary, _stderr) = with_server(&session, 1, |addr| {
        let good = &random_stream(11, 1)[0];
        let mut client = Client::connect(addr);
        assert!(ok_frame(&client.round_trip(good)));

        // Broken JSON: answered, not fatal.
        let broken = client.round_trip("{\"id\": 2, \"command\": ");
        assert!(broken.contains("\"ok\":false"), "{broken}");

        // Schema problems name the offending path.
        let no_command = client.round_trip("{\"id\": 3}");
        assert!(no_command.contains("\"path\":\"command\""), "{no_command}");
        let bad_scope =
            client.round_trip("{\"id\": 4, \"command\": \"shutdown\", \"scope\": \"galaxy\"}");
        assert!(bad_scope.contains("\"path\":\"scope\""), "{bad_scope}");
        let no_scenario = client.round_trip("{\"id\": 5, \"command\": \"sweep\"}");
        assert!(
            no_scenario.contains("\"path\":\"scenario\""),
            "{no_scenario}"
        );

        // The connection is still perfectly healthy.
        assert!(ok_frame(&client.round_trip(good)));
        assert!(ok_frame(
            &client.round_trip("{\"id\": 7, \"command\": \"shutdown\"}")
        ));
        stop_server(addr);
    });
    assert_eq!(summary.errors, 4, "exactly the four injected bad frames");
}

/// A 16 MiB frame with no newline inside it used to cost quadratic
/// CPU (the carry buffer was rescanned after every read) and unbounded
/// memory. It must now be skipped in linear time: its error answer and
/// the next frame's answer both arrive within a 10 s read timeout.
#[test]
fn huge_frame_is_skipped_in_linear_time_and_the_connection_continues() {
    let session = ScenarioSession::serial();
    let ((), summary, _stderr) = with_server(&session, 1, |addr| {
        let mut client = Client::connect(addr);
        client
            .writer
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let huge = vec![b'x'; 16 << 20];
        client.writer.write_all(&huge).expect("writes");
        client.send("");
        client.send("{\"id\": 2, \"command\": \"stats\"}");
        let rejected = client.recv().expect("an answer to the huge frame");
        assert!(rejected.contains("\"ok\":false"), "{rejected}");
        assert!(rejected.contains("byte limit"), "{rejected}");
        let next = client.recv().expect("an answer to the next frame");
        assert!(ok_frame(&next), "{next}");
        stop_server(addr);
    });
    assert_eq!((summary.frames, summary.errors), (3, 1));
}

/// Server-scope shutdown with another client's frames still in flight:
/// the in-flight frames are answered before that connection closes —
/// drain is graceful, not abortive.
#[test]
fn server_shutdown_drains_inflight_frames_on_other_connections() {
    let session = ScenarioSession::serial();
    let ((), summary, _stderr) = with_server(&session, 1, |addr| {
        let stream_lines = random_stream(23, 3);
        let mut pipelined = Client::connect(addr);
        // Write three eval frames without reading a single response.
        for line in &stream_lines[..3] {
            pipelined.send(line);
        }
        std::thread::sleep(Duration::from_millis(50));
        stop_server(addr);
        // Every in-flight frame was answered before the close.
        for _ in 0..3 {
            let response = pipelined.recv().expect("drained response");
            assert!(ok_frame(&response), "{response}");
        }
        assert_eq!(pipelined.recv(), None, "then the connection closes");
    });
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.frames, 4, "3 drained evals + the control shutdown");
}

/// A connection-scope shutdown closes only its own connection; the
/// listener and other clients keep serving, and reorder-buffered
/// concurrency (`--max-inflight > 1`) preserves response order.
#[test]
fn connection_shutdown_is_local_and_inflight_responses_stay_ordered() {
    let session = ScenarioSession::serial();
    let ((), _summary, _stderr) = with_server(&session, 4, |addr| {
        let mut leaver = Client::connect(addr);
        assert!(ok_frame(
            &leaver.round_trip("{\"id\": 1, \"command\": \"shutdown\"}")
        ));
        assert_eq!(leaver.recv(), None);

        // A second client pipelines frames through the 4-deep window;
        // responses must come back in input order.
        let stream_lines = random_stream(31, 6);
        let mut stayer = Client::connect(addr);
        for line in &stream_lines {
            stayer.send(line);
        }
        for (i, _) in stream_lines.iter().enumerate() {
            let response = stayer.recv().expect("a response per frame");
            let id = JsonValue::parse(&response)
                .expect("frame parses")
                .get("id")
                .expect("id echoed")
                .as_f64()
                .expect("numeric id");
            #[allow(clippy::cast_precision_loss)]
            let expected_id = (i + 1) as f64;
            assert!(
                (id - expected_id).abs() < f64::EPSILON,
                "response order broke: got id {id}, expected {expected_id}"
            );
        }
        assert_eq!(stayer.recv(), None, "stream ended with shutdown");
        stop_server(addr);
    });
    let stats = session.stats();
    assert_eq!(stats.clients, 3, "leaver + stayer + control");
}
