//! In-process integration tests for the sweep service: each test binds a
//! real Unix socket via [`Server::start`], talks the wire protocol
//! through ordinary `UnixStream` clients, and asserts the failure
//! semantics the module promises — single-flight dedup, bounded-queue
//! shedding, panic isolation, deadline park + resume, graceful drain,
//! and malformed-input hardening.

use adacomm_bench::server::protocol::{
    encode_request, parse_response, Command, ErrorKind, Request, Response, ResponseBody, RunRequest,
};
use adacomm_bench::server::{Server, ServerConfig, ServerHandle, MAX_LINE_BYTES};
use adacomm_bench::store::RunStore;
use adacomm_bench::sweep::SweepEngine;
use adacomm_bench::Scale;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A unique socket path per test so the suite can run in parallel.
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adacomm-svc-{}-{tag}.sock", std::process::id()))
}

fn start(tag: &str, workers: usize, queue_limit: usize, engine: SweepEngine) -> ServerHandle {
    let path = socket_path(tag);
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        socket_path: path,
        workers,
        queue_limit,
        scale: Scale::Quick,
        ..ServerConfig::default()
    };
    Server::start(config, Arc::new(engine)).expect("start server")
}

/// One client connection: a buffered read half plus a raw write half.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &Path) -> Client {
        let stream = UnixStream::connect(path).expect("connect to service");
        let writer = stream.try_clone().expect("clone stream");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write request");
        self.writer.flush().expect("flush request");
    }

    fn send(&mut self, request: &Request) {
        let mut line = encode_request(request);
        line.push('\n');
        self.send_raw(line.as_bytes());
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(!line.is_empty(), "server closed the connection");
        parse_response(line.trim()).expect("parse response line")
    }

    fn call(&mut self, request: &Request) -> Response {
        self.send(request);
        self.recv()
    }
}

/// A concept-scenario run request; wall time scales with `budget` (at
/// `tau = 1` the simulated-seconds budget is also the round count), so
/// tests pick small budgets for instant runs and large ones for runs
/// that reliably outlive the surrounding orchestration.
fn run_request(id: u64, budget: f64, deadline_ms: Option<u64>, panic: bool) -> Request {
    Request {
        id: Some(id),
        cmd: Command::Run(RunRequest {
            scenario: "concept".into(),
            scheduler: "fixed".into(),
            tau: 1,
            budget: Some((budget, budget)),
            deadline_ms,
            panic,
        }),
    }
}

fn ping(id: u64) -> Request {
    Request {
        id: Some(id),
        cmd: Command::Ping,
    }
}

fn stats(id: u64) -> Request {
    Request {
        id: Some(id),
        cmd: Command::Stats,
    }
}

fn error_kind(response: &Response) -> Option<ErrorKind> {
    match &response.body {
        ResponseBody::Error { kind, .. } => Some(*kind),
        _ => None,
    }
}

#[test]
fn ping_stats_and_unknown_figure() {
    let handle = start("basic", 1, 8, SweepEngine::default());
    let mut client = Client::connect(handle.socket_path());

    let pong = client.call(&ping(1));
    assert_eq!(pong.id, Some(1));
    assert!(matches!(pong.body, ResponseBody::Pong));

    let response = client.call(&stats(2));
    match response.body {
        ResponseBody::Stats(s) => {
            assert_eq!(s.requests, 2, "ping + this stats call");
            assert!(!s.draining);
        }
        other => panic!("expected stats, got {other:?}"),
    }

    let response = client.call(&Request {
        id: Some(3),
        cmd: Command::Figure {
            name: "no-such-figure".into(),
        },
    });
    assert_eq!(error_kind(&response), Some(ErrorKind::BadRequest));

    handle.join();
}

/// While the single worker is pinned on a long run, identical requests
/// from separate connections join one flight: every client receives the
/// same result, the engine computes it once, and each joiner counts as a
/// dedup hit.
#[test]
fn identical_requests_share_one_flight() {
    let handle = start("dedup", 1, 8, SweepEngine::default());
    let path = handle.socket_path().to_path_buf();

    // Pin the worker so the storm's flight stays queued while it forms.
    let mut pin = Client::connect(&path);
    // ~1 s of compute in an optimized test build: the pin must still be
    // running when the burst arrives 200 ms later.
    pin.send(&run_request(1, 3000.0, None, false));
    std::thread::sleep(Duration::from_millis(200));

    let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(&path)).collect();
    for (i, client) in clients.iter_mut().enumerate() {
        client.send(&run_request(10 + i as u64, 6.0, None, false));
    }
    let responses: Vec<Response> = clients.iter_mut().map(Client::recv).collect();

    let mut losses = Vec::new();
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(response.id, Some(10 + i as u64), "ids echo per waiter");
        match &response.body {
            ResponseBody::Run(run) => losses.push(run.final_loss),
            other => panic!("expected a run result, got {other:?}"),
        }
    }
    assert!(
        losses.windows(2).all(|w| w[0] == w[1]),
        "all waiters share one computation's result: {losses:?}"
    );

    match pin.recv().body {
        ResponseBody::Run(_) => {}
        other => panic!("pin run failed: {other:?}"),
    }
    match pin.call(&stats(2)).body {
        ResponseBody::Stats(s) => {
            assert_eq!(s.dedup_hits, 3, "3 of 4 identical requests joined");
            assert_eq!(s.unique_runs, 2, "the pin plus one shared computation");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    handle.join();
}

/// With the worker pinned and a queue of 2, a pipelined burst of 6
/// distinct requests sheds exactly 4 with `overloaded`; the 2 admitted
/// ones complete normally once the worker frees up.
#[test]
fn full_queue_sheds_with_overloaded() {
    let handle = start("shed", 1, 2, SweepEngine::default());
    let path = handle.socket_path().to_path_buf();

    let mut pin = Client::connect(&path);
    // ~1 s of compute in an optimized test build: the pin must still be
    // running when the burst arrives 200 ms later.
    pin.send(&run_request(1, 3000.0, None, false));
    std::thread::sleep(Duration::from_millis(200));

    let mut burst = Client::connect(&path);
    for i in 0..6u64 {
        // Distinct budgets -> distinct spec keys -> no dedup.
        burst.send(&run_request(100 + i, 6.0 + i as f64, None, false));
    }
    let (mut ok, mut shed) = (0, 0);
    for _ in 0..6 {
        let response = burst.recv();
        match response.body {
            ResponseBody::Run(_) => ok += 1,
            ResponseBody::Error {
                kind: ErrorKind::Overloaded,
                ref message,
            } => {
                assert!(message.contains("queue full"), "unexpected: {message}");
                shed += 1;
            }
            other => panic!("expected run or overloaded, got {other:?}"),
        }
    }
    assert_eq!((ok, shed), (2, 4), "queue_limit=2 admits 2, sheds 4");

    handle.join();
}

/// A forced-panic drill degrades exactly one response; the process, the
/// connection, and subsequent requests all survive.
#[test]
fn request_panic_is_isolated() {
    let handle = start("panic", 1, 8, SweepEngine::default());
    let mut client = Client::connect(handle.socket_path());

    let response = client.call(&run_request(1, 6.0, None, true));
    assert_eq!(error_kind(&response), Some(ErrorKind::Panic));

    // Same connection still serves; a fresh connection too.
    assert!(matches!(client.call(&ping(2)).body, ResponseBody::Pong));
    let mut fresh = Client::connect(handle.socket_path());
    match fresh.call(&run_request(3, 6.0, None, false)).body {
        ResponseBody::Run(_) => {}
        other => panic!("service degraded after panic: {other:?}"),
    }
    match fresh.call(&stats(4)).body {
        ResponseBody::Stats(s) => assert_eq!(s.request_panics, 1),
        other => panic!("expected stats, got {other:?}"),
    }

    handle.join();
}

/// A run that overruns its deadline is cancelled, parked in the store,
/// and answered `deadline`; re-requesting the same spec resumes the
/// parked progress instead of starting over.
#[test]
fn deadline_parks_then_resumes() {
    let store_dir =
        std::env::temp_dir().join(format!("adacomm-svc-{}-deadline-store", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let engine = SweepEngine::default().with_store(RunStore::new(&store_dir));
    let handle = start("deadline", 1, 8, engine);
    let mut client = Client::connect(handle.socket_path());

    let response = client.call(&run_request(1, 1000.0, Some(150), false));
    match &response.body {
        ResponseBody::Error {
            kind: ErrorKind::Deadline,
            message,
        } => assert!(message.contains("parked"), "unexpected: {message}"),
        other => panic!("expected a deadline error, got {other:?}"),
    }

    let response = client.call(&run_request(2, 1000.0, None, false));
    match &response.body {
        ResponseBody::Run(run) => assert_eq!(run.source, "resumed", "parked progress must resume"),
        other => panic!("expected the resumed run, got {other:?}"),
    }
    match client.call(&stats(3)).body {
        ResponseBody::Stats(s) => assert_eq!(s.deadline_misses, 1),
        other => panic!("expected stats, got {other:?}"),
    }

    handle.join();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Drain answers everything: the in-flight run is cooperatively
/// cancelled and its waiter told `draining`, queued jobs are answered
/// `draining` without running, and `join` returns with the socket file
/// gone.
#[test]
fn drain_answers_in_flight_and_queued() {
    let handle = start("drain", 1, 8, SweepEngine::default());
    let path = handle.socket_path().to_path_buf();

    let mut pin = Client::connect(&path);
    // Far larger than the test could ever wait out: only cooperative
    // cancellation can answer this one.
    pin.send(&run_request(1, 100_000.0, None, false));
    std::thread::sleep(Duration::from_millis(300));

    let mut queued: Vec<Client> = (0..2).map(|_| Client::connect(&path)).collect();
    for (i, client) in queued.iter_mut().enumerate() {
        client.send(&run_request(
            10 + i as u64,
            90_000.0 + i as f64,
            None,
            false,
        ));
    }
    std::thread::sleep(Duration::from_millis(100));

    handle.join();

    assert_eq!(error_kind(&pin.recv()), Some(ErrorKind::Draining));
    for client in &mut queued {
        assert_eq!(error_kind(&client.recv()), Some(ErrorKind::Draining));
    }
    assert!(!path.exists(), "join removes the socket file");
    assert!(
        UnixStream::connect(&path).is_err(),
        "no listener after join"
    );
}

/// Garbage on the wire — invalid JSON, oversized lines, split writes —
/// never desyncs framing or kills the connection.
#[test]
fn malformed_input_keeps_the_connection_alive() {
    let handle = start("garbage", 1, 8, SweepEngine::default());
    let mut client = Client::connect(handle.socket_path());

    client.send_raw(b"this is not json\n");
    assert_eq!(error_kind(&client.recv()), Some(ErrorKind::BadRequest));

    client.send_raw(b"{\"id\":7,\"cmd\":\"warp\"}\n");
    let response = client.recv();
    assert_eq!(response.id, Some(7), "id recovered from a bad command");
    assert_eq!(error_kind(&response), Some(ErrorKind::BadRequest));

    // An oversized line is consumed whole; framing survives.
    let mut huge = vec![b'x'; MAX_LINE_BYTES + 16];
    huge.push(b'\n');
    client.send_raw(&huge);
    let response = client.recv();
    match &response.body {
        ResponseBody::Error {
            kind: ErrorKind::BadRequest,
            message,
        } => assert!(message.contains("exceeds"), "unexpected: {message}"),
        other => panic!("expected bad_request for oversized line, got {other:?}"),
    }

    // A request split across writes with a pause in between still parses
    // once its newline lands.
    let line = encode_request(&ping(9));
    let bytes = line.as_bytes();
    client.send_raw(&bytes[..bytes.len() / 2]);
    std::thread::sleep(Duration::from_millis(100));
    client.send_raw(&bytes[bytes.len() / 2..]);
    client.send_raw(b"\n");
    let response = client.recv();
    assert_eq!(response.id, Some(9));
    assert!(matches!(response.body, ResponseBody::Pong));

    // Blank lines are skipped, not answered.
    client.send_raw(b"\n\n");
    assert!(matches!(client.call(&ping(10)).body, ResponseBody::Pong));

    handle.join();
}

/// A live daemon on the socket path refuses a second bind; a stale
/// socket file (nothing accepting) is reclaimed.
#[test]
fn socket_binding_is_exclusive_but_reclaims_stale() {
    let handle = start("bind", 1, 8, SweepEngine::default());
    let path = handle.socket_path().to_path_buf();

    let config = ServerConfig {
        socket_path: path.clone(),
        workers: 1,
        queue_limit: 8,
        scale: Scale::Quick,
        ..ServerConfig::default()
    };
    let err = Server::start(config, Arc::new(SweepEngine::default()))
        .err()
        .expect("second bind on a live daemon must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);

    handle.join();

    // Leave a stale socket file behind (bound once, listener dropped):
    // a fresh start must reclaim it.
    let stale = socket_path("bind-stale");
    let _ = std::fs::remove_file(&stale);
    drop(std::os::unix::net::UnixListener::bind(&stale).expect("bind stale"));
    assert!(stale.exists(), "dropped listener leaves its socket file");
    let config = ServerConfig {
        socket_path: stale,
        workers: 1,
        queue_limit: 8,
        scale: Scale::Quick,
        ..ServerConfig::default()
    };
    let handle =
        Server::start(config, Arc::new(SweepEngine::default())).expect("reclaim stale socket");
    let mut client = Client::connect(handle.socket_path());
    assert!(matches!(client.call(&ping(1)).body, ResponseBody::Pong));
    handle.join();
}
