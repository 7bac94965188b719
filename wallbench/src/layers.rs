//! The telemetry reads behind the in-process per-layer metrics.
//!
//! The program's telemetry registry is on in the default build; the
//! benchmark only reads `telemetry::snapshot()` deltas of cells the
//! program already keeps. The GEMM and codec kernel timers need the
//! traced build (`--features profile`).

use crate::Report;
use telemetry::Snapshot;

fn counter(d: &Snapshot, name: &str) -> f64 {
    d.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// `(activations, total seconds, self seconds)` of every span or kernel
/// timer whose name starts with `prefix`.
fn spans(d: &Snapshot, prefix: &str) -> (f64, f64, f64) {
    d.spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .fold((0.0, 0.0, 0.0), |(c, t, s), x| {
            (
                c + x.count as f64,
                t + x.total_nanos as f64 / 1e9,
                s + x.self_nanos as f64 / 1e9,
            )
        })
}

/// `(observations, sum)` of a histogram.
fn hist(d: &Snapshot, name: &str) -> (f64, f64) {
    d.hists
        .iter()
        .find(|h| h.name == name)
        .map_or((0.0, 0.0), |h| (h.count as f64, h.sum_micros as f64 / 1e6))
}

/// Fills the engine, simulator, kernel, store and figure layers from a
/// registry delta covering `iterations` timed waves or passes; everything
/// but the supervisor's failure counts, which must be 0, is reported per
/// iteration. Phase times are self times: they tile a thread's time even
/// when a run blocked on a join executes another run's jobs (help-stealing
/// nests them on one thread), where span totals count the nested time
/// twice. Kernel timers are flat.
pub fn record_registry(report: &mut Report, d: &Snapshot, iterations: usize) {
    let per = |v: f64| v / iterations.max(1) as f64;
    report.layer("sweep.runs_computed", per(counter(d, "sweep.cache.misses")));
    report.layer("sweep.mem_hits", per(counter(d, "sweep.cache.mem_hits")));
    report.layer("sweep.disk_hits", per(counter(d, "sweep.cache.disk_hits")));
    let (retries, panics) = (
        counter(d, "sweep.run_retries"),
        counter(d, "sweep.run_panics"),
    );
    report.layer("supervisor.retries", retries);
    report.layer("supervisor.panics", panics);
    report.check(retries == 0.0 && panics == 0.0, || {
        format!("supervised runs retried {retries} and panicked {panics} times")
    });
    report.layer("simulator.compute_s", per(spans(d, "phase.compute").2));
    report.layer("simulator.local_steps", per(counter(d, "sim.local_steps")));
    let eval = spans(d, "phase.eval");
    report.layer("simulator.eval_s", per(eval.2));
    report.layer("simulator.eval_points", per(eval.0));
    let average = spans(d, "phase.average");
    report.layer("simulator.average_s", per(average.2));
    report.layer("simulator.average_calls", per(average.0));
    report.layer("simulator.rounds", per(counter(d, "sim.rounds")));
    report.layer(
        "simulator.payload_bytes",
        per(hist(d, "sim.round_payload_bytes").1),
    );
    let gemm = spans(d, "kernel.gemm_");
    report.layer("tensor.gemm_s", per(gemm.1));
    report.layer("tensor.gemm_calls", per(gemm.0));
    report.layer("compress.codec_s", per(spans(d, "phase.codec").2));
    report.layer("compress.kernel_s", per(spans(d, "kernel.codec_").1));
    // A run's own span minus its phases: delay sampling, the scheduler
    // and round bookkeeping.
    report.layer("delay.simulate_s", per(spans(d, "phase.simulate").2));
    report.layer(
        "data.scenario_build_s",
        per(spans(d, "phase.scenario_build").2),
    );
    report.layer("store.load_s", per(spans(d, "phase.store_load").2));
    report.layer("store.loads", per(counter(d, "store.loads")));
    report.layer("store.load_bytes", per(counter(d, "store.load_bytes")));
    report.layer("store.rejects", per(counter(d, "sweep.cache.rejects")));
    report.layer("store.save_s", per(spans(d, "phase.store_save").2));
    report.layer("store.saves", per(counter(d, "store.saves")));
    report.layer("store.save_bytes", per(counter(d, "store.save_bytes")));
    report.layer("figures.render_s", per(spans(d, "phase.figure_render").2));
}
