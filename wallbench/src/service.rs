//! `service_oneshot`: a real `sweepd` child at smoke scale, store and
//! journal on as users run it, driven the way `sweepctl` drives it: one
//! connection per request. Two closed-loop clients run side by side — a
//! reader repeating memoized hits (every `CLI_EVERY`-th one through the
//! real `sweepctl` binary) and a writer sending never-seen `concept` specs
//! — so a change to one path that costs the other shows.

use crate::specs;
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{fd_count, proc_status, Args, Report};
use adacomm_bench::server::journal::Journal;
use adacomm_bench::server::protocol::{
    self, Command, Request, Response, ResponseBody, RunRequest, StatsBody,
};
use adacomm_bench::Scale;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Process, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run (daemon start plus pre-warm); `setup_s` is their median.
const SETUPS: usize = 3;
/// Memoized specs the reader cycles through.
const HIT_SPECS: usize = 8;
/// Every this many reader requests, one goes through `sweepctl`.
const CLI_EVERY: u64 = 10;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A `sweepd` child. Dropping it kills and reaps the process, so no exit
/// path — a failed check, an error, a panic — leaves a daemon or a zombie
/// behind; the child also dies with the benchmark if that is killed.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(sweepd: &Path, dir: &Path, trace: bool) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("sweepd.log")).map_err(|e| e.to_string())?;
        let mut cmd = Process::new(sweepd);
        // Relative to the daemon's own directory: Unix socket paths are
        // length-limited and checkouts can sit deep.
        cmd.args(["--smoke", "--socket", "sweepd.sock", "--workers", "2"])
            .current_dir(dir)
            .env_remove("CARGO_MANIFEST_DIR")
            .env_remove("ADACOMM_FAILPOINTS")
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log);
        if trace {
            cmd.args(["--trace", "trace"]);
        }
        // SAFETY: prctl only sets this process's parent-death signal; it
        // allocates nothing and touches no state of the parent.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sweepd.display()))?;
        let mut daemon = Daemon {
            child,
            socket: dir.join("sweepd.sock"),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Response {
                body: ResponseBody::Pong,
                ..
            }) = call(&daemon.socket, Command::Ping)
            {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("sweepd exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("sweepd did not answer within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful drain through the protocol; the exit status must be 0.
    fn shutdown(mut self) -> Result<(), String> {
        call(&self.socket, Command::Shutdown)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("sweepd drained with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => return Err("sweepd did not drain within 30 s".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn read_reply(reader: &mut impl BufRead) -> Result<Response, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("connection closed before a reply".into()),
        Ok(_) => protocol::parse_response(line.trim_end()),
        Err(e) => Err(e.to_string()),
    }
}

fn request_line(cmd: Command) -> String {
    let mut line = protocol::encode_request(&Request { id: Some(1), cmd });
    line.push('\n');
    line
}

/// One request on a fresh connection, exactly as `sweepctl` sends it.
fn call(socket: &Path, cmd: Command) -> Result<Response, String> {
    let mut stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(request_line(cmd).as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    read_reply(&mut BufReader::new(stream))
}

/// A persistent connection for the protocol probes.
struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    fn call(&mut self, cmd: Command) -> Result<Response, String> {
        self.stream
            .write_all(request_line(cmd).as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        read_reply(&mut self.reader)
    }
}

/// The parts of a `run` reply that identify the result (the source and
/// the wall time legitimately differ between calls).
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    rounds: u64,
    points: u64,
    final_loss_bits: u64,
}

fn run_reply(response: &Response) -> Result<(&str, RunResult, f64), String> {
    match &response.body {
        ResponseBody::Run(r) => Ok((
            r.source.as_str(),
            RunResult {
                rounds: r.rounds,
                points: r.points,
                final_loss_bits: r.final_loss.to_bits(),
            },
            r.wall_ms,
        )),
        other => Err(format!("not a run reply: {other:?}")),
    }
}

fn stats(socket: &Path) -> Result<StatsBody, String> {
    match call(socket, Command::Stats)?.body {
        ResponseBody::Stats(s) => Ok(s),
        other => Err(format!("not a stats reply: {other:?}")),
    }
}

/// Starts a daemon in `dir` and pre-warms the memoized specs: each is
/// computed once, then asked again for the reference reply every later
/// hit must equal.
fn set_up(
    args: &Args,
    dir: &Path,
    hits: &[RunRequest],
) -> Result<(Daemon, Vec<RunResult>), String> {
    let daemon = Daemon::start(&args.sweepd, dir, args.trace)?;
    let mut reference = Vec::new();
    for hit in hits {
        let first = call(&daemon.socket, Command::Run(hit.clone()))?;
        run_reply(&first)?;
        let again = call(&daemon.socket, Command::Run(hit.clone()))?;
        let (source, result, _) = run_reply(&again)?;
        if source != "memory" {
            return Err(format!(
                "pre-warmed spec answered from {source}, not memory"
            ));
        }
        reference.push(result);
    }
    Ok((daemon, reference))
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    cli_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

fn cli_args(hit: &RunRequest, socket: &Path) -> Vec<String> {
    let (total, record) = hit.budget.expect("hit specs carry a budget");
    vec![
        "--socket".into(),
        socket.display().to_string(),
        "run".into(),
        hit.scenario.clone(),
        "--scheduler".into(),
        hit.scheduler.clone(),
        "--tau".into(),
        hit.tau.to_string(),
        "--budget".into(),
        format!("{total}"),
        format!("{record}"),
    ]
}

/// The reader: memoized hits in a closed loop until `until`.
fn reader(
    args: &Args,
    tracer: &Tracer,
    socket: &Path,
    hits: &[RunRequest],
    reference: &[RunResult],
    until: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut i = 0u64;
    while Instant::now() < until {
        let which = (i % hits.len() as u64) as usize;
        let hit = &hits[which];
        i += 1;
        log.attempted += 1;
        if i.is_multiple_of(CLI_EVERY) {
            let root = tracer.root("cli.sweepctl");
            let started = Instant::now();
            let out = Process::new(&args.sweepctl)
                .args(cli_args(hit, socket))
                .env_remove("CARGO_MANIFEST_DIR")
                .stdin(Stdio::null())
                .output();
            let ms = started.elapsed().as_secs_f64() * 1e3;
            drop(root);
            let want = &reference[which];
            match out {
                Ok(out) if out.status.success() => {
                    let text = String::from_utf8_lossy(&out.stdout);
                    let expect = format!(
                        "run ok (source memory): {} rounds, {} points, final loss {:.6},",
                        want.rounds,
                        want.points,
                        f64::from_bits(want.final_loss_bits)
                    );
                    if text.starts_with(&expect) {
                        log.cli_ms.push(ms);
                    } else {
                        log.fail(format!("sweepctl printed {text:?}, want {expect:?}"));
                    }
                }
                Ok(out) => log.fail(format!("sweepctl exited {}", out.status)),
                Err(e) => log.fail(format!("cannot run sweepctl: {e}")),
            }
            continue;
        }
        let root = tracer.root("request.hit");
        let started = Instant::now();
        let reply = call(socket, Command::Run(hit.clone()));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        drop(root);
        match reply.as_ref().map_err(Clone::clone).and_then(run_reply) {
            Ok((_, result, _)) if result == reference[which] => log.latencies_ms.push(ms),
            Ok((_, result, _)) => log.fail(format!(
                "hit reply {result:?} differs from its warm-up reply {:?}",
                reference[which]
            )),
            Err(e) => log.fail(format!("hit failed: {e}")),
        }
    }
    log
}

/// The writer: never-seen specs in a closed loop until `until`.
fn writer(tracer: &Tracer, socket: &Path, seed: u64, until: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let mut i = 0u64;
    while Instant::now() < until {
        let request = specs::miss_request(seed, i);
        i += 1;
        log.attempted += 1;
        let root = tracer.root("request.miss");
        let started = Instant::now();
        let reply = call(socket, Command::Run(request));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        drop(root);
        match reply.as_ref().map_err(Clone::clone).and_then(run_reply) {
            Ok(("computed", _, engine_ms)) => {
                log.latencies_ms.push(ms);
                log.engine_ms.push(engine_ms);
            }
            Ok((source, _, _)) => log.fail(format!("miss answered from {source}, not computed")),
            Err(e) => log.fail(format!("miss failed: {e}")),
        }
    }
    log
}

pub fn run(args: &Args, tracer: &Tracer, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let hits = specs::hit_requests(args.seed, HIT_SPECS);
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        let (daemon, reference) = set_up(args, &dir.join(format!("d{i}")), &hits)?;
        setups.push(started.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            daemon.shutdown()?;
        } else {
            kept = Some((daemon, reference));
        }
    }
    let (daemon, reference) = kept.expect("at least one set-up");
    report.metric("setup_s", median(&setups), "s");
    let pid = daemon.pid();
    // Relative to the working directory, like the daemon's own path.
    let socket = Path::new(&format!("d{}", SETUPS - 1)).join("sweepd.sock");

    let stats_before = stats(&socket)?;
    let (fds_before, threads_before) = (fd_count(pid), proc_status(pid, "Threads").unwrap_or(0));
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(args.seconds);
    let (read, write) = std::thread::scope(|s| {
        let r = s.spawn(|| reader(args, tracer, &socket, &hits, &reference, until));
        let w = s.spawn(|| writer(tracer, &socket, args.seed, until));
        (r.join(), w.join())
    });
    let elapsed = started.elapsed().as_secs_f64();
    let (read, write) = match (read, write) {
        (Ok(r), Ok(w)) => (r, w),
        _ => return Err("a client thread panicked".into()),
    };
    let (fds_after, threads_after) = (fd_count(pid), proc_status(pid, "Threads").unwrap_or(0));
    let stats_after = stats(&socket)?;
    let connections = read.attempted + write.attempted;

    report.attempted = read.attempted + write.attempted;
    report.failed = read.failed + write.failed;
    for e in read.errors.iter().chain(&write.errors) {
        report.check(false, || e.clone());
    }
    report.check(stats_after.shed == stats_before.shed, || {
        format!("{} requests shed", stats_after.shed - stats_before.shed)
    });
    if read.latencies_ms.is_empty() || write.latencies_ms.is_empty() || read.cli_ms.is_empty() {
        return Err("a client completed no requests".into());
    }
    let hit_tail = stats::tail(&read.latencies_ms, 99.0);
    let miss_tail = stats::tail(&write.latencies_ms, 90.0);
    let hit_p50 = median(&read.latencies_ms);
    let cli_p50 = median(&read.cli_ms);
    eprintln!(
        "wallbench: service_oneshot {:.2} s: {} hits (tail p{} over {} beyond), {} misses \
         (tail p{} over {} beyond), {} sweepctl calls, fds {fds_before} -> {fds_after}, \
         threads {threads_before} -> {threads_after}",
        elapsed,
        hit_tail.samples,
        hit_tail.pct,
        hit_tail.beyond,
        miss_tail.samples,
        miss_tail.pct,
        miss_tail.beyond,
        read.cli_ms.len()
    );
    for (name, samples) in [("hit", &read.latencies_ms), ("miss", &write.latencies_ms)] {
        let s = stats::sorted(samples);
        let q: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0]
            .iter()
            .map(|&p| format!("p{p}={:.3}", stats::percentile(&s, p)))
            .collect();
        eprintln!("wallbench: {name} latency ms: {}", q.join(" "));
    }
    report.metric(
        "work_per_s",
        read.latencies_ms.len() as f64 / elapsed,
        "1/s",
    );
    report.metric("p50_ms", hit_p50, "ms");
    report.metric("peak_rss_mb", crate::peak_rss_mb(pid), "MB");

    if args.trace {
        report.layer("service.hit_samples", hit_tail.samples as f64);
        report.layer("service.hit_tail_pct", hit_tail.pct);
        report.layer("service.miss_samples", miss_tail.samples as f64);
        report.layer("service.miss_tail_pct", miss_tail.pct);
        report.layer("service.cli_samples", read.cli_ms.len() as f64);
        report.layer("service.hit_p99_ms", hit_tail.value);
        report.layer("service.miss_p50_ms", median(&write.latencies_ms));
        report.layer("service.miss_p90_ms", miss_tail.value);
        report.layer("cli.hit_p50_ms", cli_p50);
        report.layer("cli.spawn_ms", cli_p50 - hit_p50);
        report.layer(
            "server.leaked_fds_per_1k",
            stats::per_1k(fds_before, fds_after, connections),
        );
        report.layer(
            "server.daemon_threads_per_1k",
            stats::per_1k(threads_before, threads_after, connections),
        );
        report.layer(
            "server.requests",
            (stats_after.requests - stats_before.requests) as f64,
        );
        report.layer(
            "server.dedup_hits",
            (stats_after.dedup_hits - stats_before.dedup_hits) as f64,
        );
        report.layer("server.shed", (stats_after.shed - stats_before.shed) as f64);
        report.layer("server.miss_engine_ms", median(&write.engine_ms));
        let overhead: Vec<f64> = write
            .latencies_ms
            .iter()
            .zip(&write.engine_ms)
            .map(|(total, engine)| total - engine)
            .collect();
        report.layer("server.miss_overhead_ms", median(&overhead));
        probe(&mut report, tracer, &socket, &hits[0], dir)?;
    }
    let daemon_dir = socket
        .parent()
        .expect("socket has a directory")
        .to_path_buf();
    daemon.shutdown()?;
    if args.trace {
        let errors = journal_errors(&daemon_dir.join("trace/sweepd.jsonl"));
        report.layer("server.journal_errors", errors);
        report.check(errors == 0.0, || format!("{errors} journal errors"));
    }
    Ok(report)
}

/// Protocol probes that split a one-shot hit into its stages from
/// outside: accept (one-shot minus persistent ping), admission + journal +
/// cache (a persistent-connection hit), and the journal's own cost on the
/// same filesystem.
fn probe(
    report: &mut Report,
    tracer: &Tracer,
    socket: &Path,
    hit: &RunRequest,
    dir: &Path,
) -> Result<(), String> {
    const N: usize = 200;
    let mut oneshot = Vec::new();
    for _ in 0..N {
        let _span = tracer.root("probe.oneshot_ping");
        let started = Instant::now();
        call(socket, Command::Ping)?;
        oneshot.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let mut conn = Conn::open(socket)?;
    let mut ping = Vec::new();
    let mut persistent_hit = Vec::new();
    for _ in 0..N {
        let _span = tracer.root("probe.persistent_ping");
        let started = Instant::now();
        conn.call(Command::Ping)?;
        ping.push(started.elapsed().as_secs_f64() * 1e6);
    }
    for _ in 0..N {
        let _span = tracer.root("probe.persistent_hit");
        let started = Instant::now();
        run_reply(&conn.call(Command::Run(hit.clone()))?)?;
        persistent_hit.push(started.elapsed().as_secs_f64() * 1e3);
    }
    drop(conn);
    let journal = Journal::open(dir.join("probe/journal.log")).map_err(|e| e.to_string())?;
    let key = hit.sweep_spec(Scale::Smoke)?.key();
    let request = Request {
        id: Some(1),
        cmd: Command::Run(hit.clone()),
    };
    let mut append = Vec::new();
    for _ in 0..N / 4 {
        let _span = tracer.root("probe.journal_append");
        let started = Instant::now();
        journal
            .append_accept(&key, &request)
            .and_then(|()| journal.append_done(&key))
            .map_err(|e| e.to_string())?;
        append.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let (oneshot_ms, ping_us) = (median(&oneshot), median(&ping));
    report.layer("server.oneshot_ping_ms", oneshot_ms);
    report.layer("server.persistent_ping_us", ping_us);
    report.layer("server.accept_ms", oneshot_ms - ping_us / 1e3);
    report.layer("server.persistent_hit_ms", median(&persistent_hit));
    report.layer("server.journal_append_ms", median(&append));
    Ok(())
}

/// `server.journal_errors` from the daemon's own telemetry profile, which
/// `sweepd --trace` writes when it drains.
fn journal_errors(profile: &Path) -> f64 {
    let Ok(text) = std::fs::read_to_string(profile) else {
        return f64::NAN;
    };
    text.lines()
        .filter(|l| l.contains("\"name\":\"server.journal_errors\""))
        .find_map(|l| {
            let rest = &l[l.find("\"value\":")? + 8..];
            rest.trim_end_matches('}').split(',').next()?.parse().ok()
        })
        .unwrap_or(0.0)
}
