//! `wallbench` — the repository's layered wall-clock benchmark.
//!
//! ```sh
//! wallbench --workload train_cold|reproduce_warm|service_oneshot \
//!     --seed N --seconds S --trace 0|1 \
//!     --sweepd PATH --sweepctl PATH --work DIR
//! ```
//!
//! Normally started through `run.py`, which builds everything first.
//! One workload per invocation: it sets up (timed as `setup_s`), measures
//! for `--seconds`, checks every output, and prints one JSON line with
//! the end-to-end metrics and, with `--trace 1`, the per-layer values.
//! All files it makes (stores, journals, CSVs, sockets) live in a private
//! directory under `--work`, removed on every exit path. See README.md.

mod layers;
mod service;
mod specs;
mod stats;
mod trace;
mod train;
mod warm;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// What a workload hands back: the counts, the check failures, and the
/// metrics by name.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check; any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let line = what();
            eprintln!("wallbench: CHECK FAILED: {line}");
            self.errors.push(line);
        }
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sweepd: PathBuf,
    pub sweepctl: PathBuf,
    pub work: PathBuf,
}

/// The benchmark's own directory (goldens), found next to the sources
/// this binary was built from.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn usage(message: &str) -> ! {
    eprintln!(
        "wallbench: {message}\nusage: wallbench --workload train_cold|reproduce_warm|\
         service_oneshot --seed N --seconds S --trace 0|1 --sweepd PATH --sweepctl PATH \
         --work DIR"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> String {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing {flag}")))
    };
    let absolute = |p: String| {
        std::path::absolute(PathBuf::from(&p))
            .unwrap_or_else(|e| usage(&format!("bad path {p}: {e}")))
    };
    let workload = get("--workload");
    if !["train_cold", "reproduce_warm", "service_oneshot"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let seconds: f64 = get("--seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds takes a number"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    Args {
        workload,
        seed: get("--seed")
            .parse()
            .unwrap_or_else(|_| usage("--seed takes a non-negative integer")),
        seconds,
        trace: match get("--trace").as_str() {
            "0" => false,
            "1" => true,
            other => usage(&format!("--trace takes 0 or 1, got {other}")),
        },
        sweepd: absolute(get("--sweepd")),
        sweepctl: absolute(get("--sweepctl")),
        work: absolute(get("--work")),
    }
}

/// A private working directory, removed when dropped (also while a panic
/// unwinds).
pub struct WorkDir(pub PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `/proc/<pid>/status` field's first number (`VmHWM` in kB, `Threads`).
pub fn proc_status(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Open file descriptors of `pid`.
pub fn fd_count(pid: u32) -> u64 {
    std::fs::read_dir(format!("/proc/{pid}/fd")).map_or(0, |d| d.count() as u64)
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}
const SC_CLK_TCK: i32 = 2;

/// User plus system CPU seconds this process has used.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    // SAFETY: sysconf reads a configuration value and has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
    ticks as f64 / hz as f64
}

pub fn peak_rss_mb(pid: u32) -> f64 {
    proc_status(pid, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Restarts this process's `VmHWM` from its current resident set, so the
/// next reading is the peak of what ran since.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs `f` until `seconds` of wall time have passed (at least `min`
/// times) and returns how many iterations ran.
pub fn repeat_for(seconds: f64, min: usize, mut f: impl FnMut(usize)) -> usize {
    let started = Instant::now();
    let mut n = 0;
    while n < min || started.elapsed().as_secs_f64() < seconds {
        f(n);
        n += 1;
    }
    n
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_metrics<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        );
    }
    out.push('}');
    out
}

fn main() {
    // Results and stores resolve relative to the working directory; a
    // cargo-set manifest dir would send them into the source tree.
    std::env::remove_var("CARGO_MANIFEST_DIR");
    let args = parse_args();
    let dir = args
        .work
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("wallbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let work = WorkDir(dir);
    // Everything the program writes goes under the private directory:
    // CSVs (`results/`), stores, journals, and the daemon's socket, which
    // is addressed relative to it (socket paths are length-limited).
    if let Err(e) = std::env::set_current_dir(&work.0) {
        eprintln!("wallbench: cannot enter {}: {e}", work.0.display());
        std::process::exit(1);
    }
    let tracer = trace::Tracer::new(args.trace);
    eprintln!(
        "wallbench: workload {} seed {} for {} s, trace {}, pool threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads()
    );
    let result = match args.workload.as_str() {
        "train_cold" => train::run(&args, &tracer, &work.0),
        "reproduce_warm" => warm::run(&args, &tracer, &work.0),
        _ => service::run(&args, &tracer, &work.0),
    };
    drop(work);
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("wallbench: FAILED: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        report.layer("sweep.pool_threads", rayon::current_num_threads() as f64);
        finish_trace(&args, &tracer, &mut report);
    }
    // Per-layer values go out by name only: `run.py` gives them their
    // units, and zeros for layers this workload never reached, from
    // BENCHMARK.json.
    let layers: Vec<String> = report
        .layers
        .iter()
        .map(|(name, value)| format!("\"{name}\":{}", json_number(*value)))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{},\"layers\":{{{}}}}}",
        report.errors.is_empty(),
        report.attempted,
        report.failed,
        json_metrics(report.metrics.iter().copied()),
        layers.join(","),
    );
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}

/// Writes the spans beside the work directory and prints their self
/// times.
fn finish_trace(args: &Args, tracer: &trace::Tracer, report: &mut Report) {
    let records = tracer.records();
    report.layer("trace.spans", records.len() as f64);
    let path: PathBuf = args
        .work
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "wallbench: {} spans written to {}",
            records.len(),
            path.display()
        ),
        Err(e) => eprintln!("wallbench: cannot write spans to {}: {e}", path.display()),
    }
    eprintln!("wallbench: span self times (count, total s, self s):");
    for (name, t) in trace::self_times(&records) {
        eprintln!(
            "  {name:<22} {:>7} {:>10.4} {:>10.4}",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
}
