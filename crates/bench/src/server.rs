//! The sweep service: a crash-safe long-running daemon over a Unix-domain
//! socket, serving scenario requests out of the persistent run store and
//! the sweep engine.
//!
//! The protocol is newline-delimited JSON (std-only, no new
//! dependencies): each request line is one JSON object with an optional
//! integer `id` (echoed back) and a `cmd`; each response is one JSON
//! object with the echoed `id` and either `"ok": true` plus a result or
//! `"ok": false` plus a structured error (`kind` + `message`). See
//! [`protocol`] for the exact shapes.
//!
//! Failure semantics are the point of this module:
//!
//! * **Deadlines** — a `run` request may carry `deadline_ms`; a run that
//!   overruns is cooperatively cancelled at the next round boundary, its
//!   partial work parked resumably in the store
//!   ([`RunStore::park`](crate::store::RunStore::park)), and the request
//!   answered with a `deadline` error. A later request for the same spec
//!   resumes the parked work bit-identically.
//! * **Backpressure** — the request queue is bounded
//!   ([`ServerConfig::queue_limit`]); a full queue sheds the request with
//!   an explicit `overloaded` error instead of growing without bound.
//! * **Single-flight dedup** — concurrent requests for the same
//!   content-addressed spec key attach to one in-flight computation and
//!   all receive its result; only the first occupies a queue slot.
//! * **Panic isolation** — each request executes under the
//!   [`supervisor`] — a panicking run degrades exactly
//!   one response (`panic` error), never the process.
//! * **Malformed input** — a garbage line (invalid JSON, oversized,
//!   wrong field types) yields a structured `bad_request` error on the
//!   same connection; the reader never panics and never desyncs framing.
//! * **Graceful drain** — [`ServerHandle::initiate_drain`] (wired to
//!   SIGTERM and the `shutdown` command by `sweepd`) stops accepting,
//!   answers queued requests with `draining`, checkpoints in-flight runs
//!   into the store, then joins every thread so the process can flush
//!   telemetry and exit 0.
//!
//! * **Crash consistency** — with a [`ServerConfig::journal_path`], every
//!   accepted run/figure job is recorded in an append-only, CRC-framed,
//!   fsync'd [`journal`] before it executes and discharged when its
//!   flight completes. After a SIGKILL, [`recover`] replays the journal's
//!   pending set — resuming parked checkpoints where the store has them,
//!   recomputing deterministically otherwise — so no accepted request is
//!   ever lost and the recovered results are bit-identical to the runs
//!   the crash interrupted.
//!
//! Everything reports through the telemetry crate: `server.requests`,
//! `server.shed`, `server.dedup_hits`, `server.deadline_misses`,
//! `server.request_panics`, `server.recovered_runs`,
//! `server.journal_replays`, `server.gc_orphans` counters, the
//! `server.queue_depth` gauge and a `phase.server_request` span per
//! executed request — all surfaced by `obs_report`.

use crate::failpoint;
use crate::figures;
use crate::supervisor::{self, SupervisorPolicy};
use crate::sweep::{CancellableRun, SweepEngine, TraceSource};
use crate::Scale;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub mod journal;
pub mod protocol;

use journal::Journal;
use protocol::{Command, ErrorKind, Request, Response, ResponseBody, RunStats, StatsBody};

/// Hard cap on one protocol line (1 MiB). A line that exceeds it is
/// consumed to its newline (framing stays intact) and answered with a
/// `bad_request` error; the connection keeps working.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Configuration for one [`Server`] instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket path to listen on.
    pub socket_path: PathBuf,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded queue: at most this many *distinct* jobs may be waiting
    /// (joiners of an in-flight job never occupy a slot). Requests
    /// arriving beyond it are shed with an `overloaded` error.
    pub queue_limit: usize,
    /// Scale every served scenario is built at (must match the batch
    /// reproduction it is compared against).
    pub scale: Scale,
    /// Crash-consistency journal file. `None` disables journaling (e.g.
    /// a cache-less daemon has nothing durable to recover into anyway).
    pub journal_path: Option<PathBuf>,
    /// Age past which a parked checkpoint frame is GC debris rather than
    /// paused work (startup sweep and the `gc` command).
    pub gc_max_parked_age: Duration,
    /// Counters from the recovery pass that ran before this server
    /// started, reported through `stats`.
    pub recovery: RecoveryCounters,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            socket_path: PathBuf::from("/tmp/adacomm-sweepd.sock"),
            workers: 2,
            queue_limit: 64,
            scale: Scale::Quick,
            journal_path: None,
            gc_max_parked_age: Duration::from_secs(24 * 60 * 60),
            recovery: RecoveryCounters::default(),
        }
    }
}

/// Startup recovery results carried into the server's `stats` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Interrupted runs completed by journal recovery.
    pub recovered_runs: u64,
    /// Journal accept records found pending and replayed.
    pub journal_replays: u64,
    /// Orphaned files reclaimed by the startup GC sweep.
    pub gc_orphans: u64,
}

/// Aggregated service counters (also mirrored to telemetry).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    shed: AtomicU64,
    dedup_hits: AtomicU64,
    deadline_misses: AtomicU64,
    request_panics: AtomicU64,
    /// Seeded with the startup GC's reclaim count, grown by `gc` requests.
    gc_orphans: AtomicU64,
}

/// A client waiting on a flight's outcome.
struct Waiter {
    id: Option<u64>,
    out: Arc<Mutex<UnixStream>>,
}

/// What a queued job executes.
#[derive(Clone)]
enum JobKind {
    /// A scenario run through the engine's cancellable path. The spec is
    /// boxed to keep the enum (cloned per dispatch) small.
    Run {
        spec: Box<crate::sweep::SweepSpec>,
        forced_panic: bool,
    },
    /// A whole registry figure rendered against the shared engine (CSV
    /// outputs land in the active results directory, byte-identical to
    /// batch mode).
    Figure { name: String },
}

/// One enqueued unit of work plus its leader's deadline. Joiners inherit
/// the leader's deadline: single-flight means one computation with one
/// budget, and every waiter shares its fate.
#[derive(Clone)]
struct Job {
    kind: JobKind,
    deadline: Option<Instant>,
}

/// An in-flight (queued or executing) job and everyone awaiting it.
struct Flight {
    job: Job,
    waiters: Vec<Waiter>,
}

/// Mutable server state behind one mutex: the bounded queue (keys into
/// `flights`), the single-flight table, and the registered connections
/// (for shutdown on drain).
struct State {
    queue: VecDeque<String>,
    flights: HashMap<String, Flight>,
    conns: Vec<UnixStream>,
}

struct Shared {
    engine: Arc<SweepEngine>,
    config: ServerConfig,
    journal: Option<Journal>,
    state: Mutex<State>,
    job_ready: Condvar,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    counters: Counters,
    conn_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// The sweep service. [`Server::start`] binds the socket and spawns the
/// accept loop plus worker pool; the returned [`ServerHandle`] drives
/// drain and join. Startable in-process, so integration tests exercise
/// the real socket path without a child process.
pub struct Server;

/// A running server: owns its threads and the listening socket file.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.socket_path` and starts serving on background
    /// threads. A stale socket file from a crashed daemon (nothing
    /// accepting on it) is removed and rebound; a *live* daemon on the
    /// same path is an [`io::ErrorKind::AddrInUse`] error.
    ///
    /// # Errors
    ///
    /// Returns the bind error (bad path, permissions, live daemon).
    pub fn start(config: ServerConfig, engine: Arc<SweepEngine>) -> io::Result<ServerHandle> {
        let listener = bind_socket(&config.socket_path)?;
        listener.set_nonblocking(true)?;
        let workers = config.workers.max(1);
        let journal = match &config.journal_path {
            Some(path) => Some(Journal::open(path)?),
            None => None,
        };
        let counters = Counters {
            gc_orphans: AtomicU64::new(config.recovery.gc_orphans),
            ..Counters::default()
        };
        let shared = Arc::new(Shared {
            engine,
            config,
            journal,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                flights: HashMap::new(),
                conns: Vec::new(),
            }),
            job_ready: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            counters,
            conn_handles: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("sweepd-accept".into())
            .spawn(move || accept_loop(&accept_shared, &listener))
            .expect("spawn accept thread");
        let worker_threads = (0..workers)
            .map(|i| {
                let worker_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sweepd-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(ServerHandle {
            shared,
            accept_thread: Some(accept_thread),
            workers: worker_threads,
        })
    }
}

impl ServerHandle {
    /// The socket path this server listens on.
    pub fn socket_path(&self) -> &Path {
        &self.shared.config.socket_path
    }

    /// Whether a client asked the daemon to shut down (the `shutdown`
    /// command). The owner polls this and calls
    /// [`ServerHandle::initiate_drain`] + [`ServerHandle::join`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Begins the graceful drain: stop accepting new connections, answer
    /// queued jobs with `draining` errors, and cooperatively cancel
    /// in-flight runs (their progress parks in the store). Idempotent.
    pub fn initiate_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake every idle worker so it can observe the drain and exit.
        self.shared.job_ready.notify_all();
    }

    /// Drains (if not already draining) and joins every thread: accept
    /// loop, workers (which first answer everything still queued), then
    /// connection readers (their sockets are shut down so blocked reads
    /// return). Removes the socket file last. After `join` returns, no
    /// server thread is running and telemetry counters are final.
    pub fn join(mut self) {
        self.initiate_drain();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        {
            let state = self.shared.state.lock().expect("server state poisoned");
            for conn in &state.conns {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
        }
        let handles = std::mem::take(
            &mut *self
                .shared
                .conn_handles
                .lock()
                .expect("connection handles poisoned"),
        );
        for t in handles {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.shared.config.socket_path);
    }

    /// A snapshot of the service counters plus queue/engine gauges — what
    /// the `stats` command reports, available in-process for `sweepd`'s
    /// exit summary.
    pub fn stats(&self) -> StatsBody {
        stats_body(&self.shared)
    }
}

/// Binds `path`, reclaiming a stale socket file (one nothing accepts on).
fn bind_socket(path: &Path) -> io::Result<UnixListener> {
    if path.exists() {
        if UnixStream::connect(path).is_ok() {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("{} already has a live daemon", path.display()),
            ));
        }
        // A leftover from a crashed daemon: nothing is accepting, so
        // rebinding is safe.
        std::fs::remove_file(path)?;
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    UnixListener::bind(path)
}

/// Accepts connections until drain. The listener is nonblocking and
/// polled: SIGTERM must be able to stop the loop, and a blocking
/// `accept` would sit in the kernel until the *next* client connects.
fn accept_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let registered = stream.try_clone().ok();
                if let Some(clone) = registered {
                    shared
                        .state
                        .lock()
                        .expect("server state poisoned")
                        .conns
                        .push(clone);
                }
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("sweepd-conn".into())
                    .spawn(move || connection_loop(&conn_shared, stream))
                    .expect("spawn connection thread");
                shared
                    .conn_handles
                    .lock()
                    .expect("connection handles poisoned")
                    .push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept failure (e.g. aborted handshake):
                // keep serving unless we are draining.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Reads one `\n`-terminated line with a byte cap. Oversized lines are
/// consumed to their newline but their bytes discarded; the returned
/// flag says so. `Ok(None)` is clean EOF with no pending bytes.
fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<Option<(Vec<u8>, bool)>> {
    let mut buf = Vec::new();
    let mut truncated = false;
    let mut saw_any = false;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if !saw_any {
                return Ok(None);
            }
            return Ok(Some((buf, truncated)));
        }
        saw_any = true;
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            if !truncated {
                if buf.len() + pos > cap {
                    truncated = true;
                    buf.clear();
                } else {
                    buf.extend_from_slice(&available[..pos]);
                }
            }
            reader.consume(pos + 1);
            return Ok(Some((buf, truncated)));
        }
        let len = available.len();
        if !truncated {
            if buf.len() + len > cap {
                truncated = true;
                buf.clear();
            } else {
                buf.extend_from_slice(available);
            }
        }
        reader.consume(len);
    }
}

/// Serves one client connection: reads request lines, answers inline
/// commands, enqueues run/figure jobs. Responses to in-flight jobs are
/// written by worker threads through the shared write half; a client
/// pipelining requests may therefore see responses in completion order —
/// the echoed `id` is the correlation.
fn connection_loop(shared: &Arc<Shared>, stream: UnixStream) {
    let out = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_line_capped(&mut reader, MAX_LINE_BYTES) {
            Ok(None) | Err(_) => return,
            Ok(Some((buf, truncated))) => {
                if truncated {
                    shared.counters.requests.fetch_add(1, Ordering::SeqCst);
                    telemetry::counter("server.requests").inc();
                    respond(
                        &out,
                        &Response::error(
                            None,
                            ErrorKind::BadRequest,
                            &format!("line exceeds {MAX_LINE_BYTES} bytes"),
                        ),
                    );
                    continue;
                }
                let line = String::from_utf8_lossy(&buf);
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                shared.counters.requests.fetch_add(1, Ordering::SeqCst);
                telemetry::counter("server.requests").inc();
                handle_line(shared, &out, line);
            }
        }
    }
}

/// Parses and dispatches one nonempty request line.
fn handle_line(shared: &Arc<Shared>, out: &Arc<Mutex<UnixStream>>, line: &str) {
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err((id, message)) => {
            respond(out, &Response::error(id, ErrorKind::BadRequest, &message));
            return;
        }
    };
    let Request { id, cmd } = request;
    match cmd {
        Command::Ping => respond(out, &Response::ok(id, ResponseBody::Pong)),
        Command::Stats => respond(
            out,
            &Response::ok(id, ResponseBody::Stats(stats_body(shared))),
        ),
        Command::Shutdown => {
            respond(out, &Response::ok(id, ResponseBody::ShuttingDown));
            shared.shutdown_requested.store(true, Ordering::SeqCst);
        }
        Command::Gc => match shared.engine.store() {
            Some(store) => {
                let stats = store.gc(shared.config.gc_max_parked_age);
                shared
                    .counters
                    .gc_orphans
                    .fetch_add(stats.reclaimed(), Ordering::SeqCst);
                telemetry::counter("server.gc_orphans").add(stats.reclaimed());
                respond(
                    out,
                    &Response::ok(
                        id,
                        ResponseBody::Gc {
                            tmp_removed: stats.tmp_removed,
                            parked_removed: stats.parked_removed,
                            parked_kept: stats.parked_kept,
                        },
                    ),
                );
            }
            None => respond(
                out,
                &Response::error(
                    id,
                    ErrorKind::Failed,
                    "no run store attached; nothing to garbage-collect",
                ),
            ),
        },
        Command::Figure { name } => {
            if !figures::registry().iter().any(|f| f.name == name) {
                respond(
                    out,
                    &Response::error(
                        id,
                        ErrorKind::BadRequest,
                        &format!("unknown figure \"{name}\""),
                    ),
                );
                return;
            }
            let journal_as = Request {
                id: None,
                cmd: Command::Figure { name: name.clone() },
            };
            let job = Job {
                kind: JobKind::Figure { name: name.clone() },
                deadline: None,
            };
            enqueue(
                shared,
                format!("figure|{name}"),
                job,
                Waiter {
                    id,
                    out: Arc::clone(out),
                },
                Some(journal_as),
            );
        }
        Command::Run(run) => {
            let spec = match run.sweep_spec(shared.config.scale) {
                Ok(spec) => spec,
                Err(message) => {
                    respond(out, &Response::error(id, ErrorKind::BadRequest, &message));
                    return;
                }
            };
            let deadline = run
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            // A forced-panic drill must never dedup against (or poison)
            // the real run for the same spec: distinct flight key. It is
            // also never journaled — replaying a drill after a crash
            // would be a self-inflicted crash loop.
            let journal_as = (!run.panic).then(|| Request {
                id: None,
                cmd: Command::Run(protocol::RunRequest {
                    deadline_ms: None,
                    ..run.clone()
                }),
            });
            let flight_key = if run.panic {
                format!("panic|{}", spec.key())
            } else {
                spec.key()
            };
            let job = Job {
                kind: JobKind::Run {
                    spec: Box::new(spec),
                    forced_panic: run.panic,
                },
                deadline,
            };
            enqueue(
                shared,
                flight_key,
                job,
                Waiter {
                    id,
                    out: Arc::clone(out),
                },
                journal_as,
            );
        }
    }
}

/// Admission control: single-flight join, else bounded-queue insert,
/// else shed. An admitted job with a `journal_as` request is journaled
/// (fsync'd) *before* it becomes visible to workers, so the crash-time
/// pending set always covers every job a worker might have started.
fn enqueue(
    shared: &Arc<Shared>,
    key: String,
    job: Job,
    waiter: Waiter,
    journal_as: Option<Request>,
) {
    if shared.draining.load(Ordering::SeqCst) {
        respond(
            &waiter.out,
            &Response::error(waiter.id, ErrorKind::Draining, "server is draining"),
        );
        return;
    }
    let mut state = shared.state.lock().expect("server state poisoned");
    if let Some(flight) = state.flights.get_mut(&key) {
        flight.waiters.push(waiter);
        shared.counters.dedup_hits.fetch_add(1, Ordering::SeqCst);
        telemetry::counter("server.dedup_hits").inc();
        return;
    }
    if state.queue.len() >= shared.config.queue_limit {
        shared.counters.shed.fetch_add(1, Ordering::SeqCst);
        telemetry::counter("server.shed").inc();
        drop(state);
        respond(
            &waiter.out,
            &Response::error(
                waiter.id,
                ErrorKind::Overloaded,
                &format!(
                    "queue full ({} distinct jobs waiting); retry later",
                    shared.config.queue_limit
                ),
            ),
        );
        return;
    }
    if let (Some(journal), Some(request)) = (&shared.journal, &journal_as) {
        if let Err(e) = journal.append_accept(&key, request) {
            // Journaling is best-effort: the request still runs, only its
            // crash-recoverability is degraded. Surface it loudly.
            telemetry::counter("server.journal_errors").inc();
            telemetry::emit(|| telemetry::schema::warning_line("journal", &e.to_string()));
        }
        failpoint::abort_if("server.journal.post_append_abort");
    }
    state.flights.insert(
        key.clone(),
        Flight {
            job,
            waiters: vec![waiter],
        },
    );
    state.queue.push_back(key);
    telemetry::gauge("server.queue_depth").set(state.queue.len() as i64);
    drop(state);
    shared.job_ready.notify_one();
}

/// Executes queued jobs until drained. During a drain the queue is still
/// emptied — each remaining job is answered with a `draining` error
/// instead of running — so no waiter is ever left hanging.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let key = {
            let mut state = shared.state.lock().expect("server state poisoned");
            loop {
                if let Some(key) = state.queue.pop_front() {
                    telemetry::gauge("server.queue_depth").set(state.queue.len() as i64);
                    break key;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                state = shared.job_ready.wait(state).expect("server state poisoned");
            }
        };
        let job = shared
            .state
            .lock()
            .expect("server state poisoned")
            .flights
            .get(&key)
            .map(|flight| flight.job.clone());
        let Some(job) = job else { continue };
        let body = execute_job(shared, &job);
        let flight = shared
            .state
            .lock()
            .expect("server state poisoned")
            .flights
            .remove(&key);
        if let Some(flight) = flight {
            for waiter in flight.waiters {
                respond(
                    &waiter.out,
                    &Response {
                        id: waiter.id,
                        body: body.clone(),
                    },
                );
            }
        }
        // Terminal outcomes discharge the journal entry. Deadline and
        // draining answers deliberately do not: their work is parked (or
        // never ran), and the next daemon instance owes it — restart
        // recovery finishes what this process could not.
        let terminal = match &body {
            ResponseBody::Run(_) | ResponseBody::Figure { .. } => true,
            ResponseBody::Error { kind, .. } => matches!(
                kind,
                ErrorKind::Panic | ErrorKind::Failed | ErrorKind::BadRequest
            ),
            _ => false,
        };
        if terminal {
            if let Some(journal) = &shared.journal {
                if journal.append_done(&key).is_err() {
                    telemetry::counter("server.journal_errors").inc();
                }
            }
        }
    }
}

/// Runs one job to a response body (shared by every waiter).
fn execute_job(shared: &Arc<Shared>, job: &Job) -> ResponseBody {
    let _span = telemetry::span("phase.server_request");
    // The chaos drill's SIGKILL-equivalent: die the instant a worker
    // picks up a request, after it was journaled.
    failpoint::abort_if("server.request.abort");
    if shared.draining.load(Ordering::SeqCst) {
        return ResponseBody::Error {
            kind: ErrorKind::Draining,
            message: "server drained before this request ran".into(),
        };
    }
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        shared
            .counters
            .deadline_misses
            .fetch_add(1, Ordering::SeqCst);
        telemetry::counter("server.deadline_misses").inc();
        return ResponseBody::Error {
            kind: ErrorKind::Deadline,
            message: "deadline expired while queued".into(),
        };
    }
    match &job.kind {
        JobKind::Run { spec, forced_panic } => {
            if *forced_panic {
                // The drill deliberately bypasses the engine: routing it
                // through `try_trace_cancellable` would poison the engine's
                // failed-key map for a spec other clients legitimately
                // want. One supervised attempt, zero backoff.
                let policy = SupervisorPolicy {
                    max_attempts: 1,
                    backoff_base_millis: 0,
                    ..SupervisorPolicy::default()
                };
                let result = supervisor::run_supervised(&policy, "server.request_drill", || {
                    panic!("forced panic (request drill)")
                });
                let reason = result.expect_err("the drill always panics");
                shared
                    .counters
                    .request_panics
                    .fetch_add(1, Ordering::SeqCst);
                telemetry::counter("server.request_panics").inc();
                return ResponseBody::Error {
                    kind: ErrorKind::Panic,
                    message: reason,
                };
            }
            let started = Instant::now();
            let deadline = job.deadline;
            let stop = move || {
                shared.draining.load(Ordering::SeqCst)
                    || deadline.is_some_and(|d| Instant::now() >= d)
            };
            match shared.engine.try_trace_cancellable(spec, Some(&stop)) {
                Ok(CancellableRun::Done { trace, source }) => ResponseBody::Run(RunStats {
                    source: source.label().to_string(),
                    rounds: trace.rounds,
                    points: trace.points.len() as u64,
                    final_loss: f64::from(trace.final_loss()),
                    wall_ms: started.elapsed().as_secs_f64() * 1e3,
                }),
                Ok(CancellableRun::Cancelled) => {
                    if shared.draining.load(Ordering::SeqCst) {
                        ResponseBody::Error {
                            kind: ErrorKind::Draining,
                            message: "drained mid-run; progress parked for resume".into(),
                        }
                    } else {
                        shared
                            .counters
                            .deadline_misses
                            .fetch_add(1, Ordering::SeqCst);
                        telemetry::counter("server.deadline_misses").inc();
                        ResponseBody::Error {
                            kind: ErrorKind::Deadline,
                            message: format!(
                                "deadline exceeded after {:.0} ms; progress parked for resume",
                                started.elapsed().as_secs_f64() * 1e3
                            ),
                        }
                    }
                }
                Err(reason) => {
                    let kind = if reason.contains("panic") {
                        shared
                            .counters
                            .request_panics
                            .fetch_add(1, Ordering::SeqCst);
                        telemetry::counter("server.request_panics").inc();
                        ErrorKind::Panic
                    } else {
                        ErrorKind::Failed
                    };
                    ResponseBody::Error {
                        kind,
                        message: reason,
                    }
                }
            }
        }
        JobKind::Figure { name } => {
            let started = Instant::now();
            let engine = Arc::clone(&shared.engine);
            let scale = shared.config.scale;
            let name_owned = name.clone();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let figure = figures::registry()
                    .into_iter()
                    .find(|f| f.name == name_owned)
                    .expect("name validated at admission");
                let mut out = String::new();
                (figure.run)(scale, &engine, &mut out)
            }));
            match result {
                Ok(Ok(())) => ResponseBody::Figure {
                    name: name.clone(),
                    wall_ms: started.elapsed().as_secs_f64() * 1e3,
                },
                Ok(Err(e)) => ResponseBody::Error {
                    kind: ErrorKind::Failed,
                    message: format!("figure I/O failed: {e}"),
                },
                Err(panic) => {
                    shared
                        .counters
                        .request_panics
                        .fetch_add(1, Ordering::SeqCst);
                    telemetry::counter("server.request_panics").inc();
                    let message = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "figure body panicked".to_string());
                    ResponseBody::Error {
                        kind: ErrorKind::Panic,
                        message,
                    }
                }
            }
        }
    }
}

/// Builds the `stats` response from live state.
fn stats_body(shared: &Arc<Shared>) -> StatsBody {
    let queue_depth = shared
        .state
        .lock()
        .expect("server state poisoned")
        .queue
        .len() as u64;
    StatsBody {
        requests: shared.counters.requests.load(Ordering::SeqCst),
        shed: shared.counters.shed.load(Ordering::SeqCst),
        dedup_hits: shared.counters.dedup_hits.load(Ordering::SeqCst),
        deadline_misses: shared.counters.deadline_misses.load(Ordering::SeqCst),
        request_panics: shared.counters.request_panics.load(Ordering::SeqCst),
        unique_runs: shared.engine.unique_runs() as u64,
        queue_depth,
        draining: shared.draining.load(Ordering::SeqCst),
        recovered_runs: shared.config.recovery.recovered_runs,
        journal_replays: shared.config.recovery.journal_replays,
        gc_orphans: shared.counters.gc_orphans.load(Ordering::SeqCst),
    }
}

/// Outcome of one [`recover`] pass.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Pending accept records found in the journal (work a previous
    /// instance accepted but never completed).
    pub replayed: u64,
    /// Interrupted scenario runs completed by this pass.
    pub recovered_runs: u64,
    /// Of those, runs that continued a parked mid-run checkpoint instead
    /// of recomputing from round zero.
    pub resumed_runs: u64,
    /// Interrupted figure renders completed by this pass.
    pub recovered_figures: u64,
    /// Whether the journal ended in a torn record — the normal signature
    /// of a crash mid-append, discarded after the valid prefix.
    pub torn_tail: bool,
    /// Jobs that could not be recovered: `(key, reason)`.
    pub failed: Vec<(String, String)>,
}

impl RecoveryReport {
    /// Folds this report (plus the startup GC's reclaim count) into the
    /// counters a [`ServerConfig`] carries into `stats`.
    pub fn counters(&self, gc_orphans: u64) -> RecoveryCounters {
        RecoveryCounters {
            recovered_runs: self.recovered_runs + self.recovered_figures,
            journal_replays: self.replayed,
            gc_orphans,
        }
    }
}

/// Replays the crash-consistency journal at `journal_path` and completes
/// every pending job against `engine` — the daemon calls this after
/// acquiring the store lock and *before* binding the socket, so a
/// restarted service already owns the results its predecessor promised.
///
/// Runs resume from parked checkpoints when the store holds one
/// (bit-identical by the resume contract) and recompute deterministically
/// otherwise; figures re-render, overwriting any partially-written CSVs
/// with complete byte-identical ones. The journal is discarded afterwards
/// — recovered work lives in the store now, and the server's own journal
/// starts a fresh epoch.
pub fn recover(journal_path: &Path, engine: &SweepEngine, scale: Scale) -> RecoveryReport {
    let replay = Journal::replay(journal_path);
    let mut report = RecoveryReport {
        replayed: replay.pending.len() as u64,
        torn_tail: replay.torn_tail,
        ..RecoveryReport::default()
    };
    for (key, request) in replay.pending {
        match request.cmd {
            Command::Run(run) => match run.sweep_spec(scale) {
                Ok(spec) => match engine.try_trace_cancellable(&spec, None) {
                    Ok(CancellableRun::Done { source, .. }) => {
                        report.recovered_runs += 1;
                        if source == TraceSource::Resumed {
                            report.resumed_runs += 1;
                        }
                    }
                    Ok(CancellableRun::Cancelled) => {
                        // Unreachable without a stop predicate; recorded
                        // defensively rather than silently dropped.
                        report
                            .failed
                            .push((key, "cancelled during recovery".into()));
                    }
                    Err(reason) => report.failed.push((key, reason)),
                },
                Err(reason) => report.failed.push((key, reason)),
            },
            Command::Figure { name } => {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let figure = figures::registry().into_iter().find(|f| f.name == name)?;
                    let mut out = String::new();
                    Some((figure.run)(scale, engine, &mut out))
                }));
                match outcome {
                    Ok(Some(Ok(()))) => report.recovered_figures += 1,
                    Ok(Some(Err(e))) => report.failed.push((key, format!("figure I/O: {e}"))),
                    Ok(None) => report
                        .failed
                        .push((key, format!("unknown figure \"{name}\""))),
                    Err(_) => report.failed.push((key, "figure panicked".into())),
                }
            }
            // Non-job commands never carry accept records; a foreign one
            // in the journal is ignorable debris.
            _ => {}
        }
    }
    telemetry::counter("server.journal_replays").add(report.replayed);
    telemetry::counter("server.recovered_runs")
        .add(report.recovered_runs + report.recovered_figures);
    journal::discard(journal_path);
    report
}

/// Writes one response line; errors mean the client is gone and are
/// dropped (the server never fails because a client did).
fn respond(out: &Arc<Mutex<UnixStream>>, response: &Response) {
    let line = protocol::encode_response(response);
    let mut stream = out.lock().expect("response stream poisoned");
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_line_capped_handles_split_and_oversize() {
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"short line\n");
        input.extend_from_slice(&[b'a'; 64]);
        input.push(b'\n');
        input.extend_from_slice(b"after\n");
        input.extend_from_slice(b"trailing-without-newline");
        let mut reader = BufReader::with_capacity(7, io::Cursor::new(input));

        let (line, truncated) = read_line_capped(&mut reader, 32).unwrap().unwrap();
        assert_eq!(line, b"short line");
        assert!(!truncated);

        let (line, truncated) = read_line_capped(&mut reader, 32).unwrap().unwrap();
        assert!(truncated, "64 bytes over a 32-byte cap must truncate");
        assert!(line.is_empty());

        // Framing survives the oversized line.
        let (line, truncated) = read_line_capped(&mut reader, 32).unwrap().unwrap();
        assert_eq!(line, b"after");
        assert!(!truncated);

        // EOF with pending bytes yields them as a final line.
        let (line, _) = read_line_capped(&mut reader, 32).unwrap().unwrap();
        assert_eq!(line, b"trailing-without-newline");
        assert!(read_line_capped(&mut reader, 32).unwrap().is_none());
    }
}
