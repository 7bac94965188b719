//! `train_cold`: the paper's experiment itself. A seed-generated list of
//! quick-scale specs runs through `SweepEngine::run` on the parallel
//! engine against an empty run store, wave after wave, each wave with a
//! fresh engine and store so every run is computed cold.

use crate::layers;
use crate::specs::{self, TRAIN_BATCH};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{repeat_for, Args, Report};
use adacomm_bench::{LoadOutcome, RunStore, ScenarioSpec, SchedulerSpec, SweepEngine, SweepSpec};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn local_steps() -> u64 {
    telemetry::snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == "sim.local_steps")
        .map_or(0, |(_, v)| *v)
}

/// What one set-up does: a fresh engine on an empty store, started on two
/// short concept runs so the worker pool, allocator and page cache are
/// warm before the first timed wave.
fn setup_once(dir: &Path) -> Result<(), String> {
    let engine = SweepEngine::new().with_store(RunStore::new(dir));
    let warmup: Vec<SweepSpec> = [2usize, 4]
        .iter()
        .map(|&tau| {
            SweepSpec::new(
                ScenarioSpec::Concept,
                SchedulerSpec::Fixed { tau },
                adacomm_bench::LrSpec::Fixed,
            )
            .with_budget(1200.0, 120.0)
        })
        .collect();
    let traces = engine.run(&warmup);
    if traces.len() != warmup.len() || !engine.run_failures().is_empty() {
        return Err("set-up warm-up runs failed".into());
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// The committed golden digests for `seed`, keyed by spec key.
fn golden(seed: u64) -> Option<BTreeMap<String, String>> {
    let path = crate::bench_dir().join(format!("golden/train_cold-seed{seed}.txt"));
    let text = std::fs::read_to_string(path).ok()?;
    Some(
        text.lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(digest, key)| (key.to_string(), digest.to_string()))
            .collect(),
    )
}

pub fn run(args: &Args, tracer: &Tracer, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let specs = specs::train_specs(args.seed);
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let started = Instant::now();
        setup_once(&dir.join(format!("setup-{i}")))?;
        setups.push(started.elapsed().as_secs_f64());
    }
    report.metric("setup_s", median(&setups), "s");

    let golden = golden(args.seed);
    let mut seen = HashSet::new();
    let unique: Vec<&SweepSpec> = specs.iter().filter(|s| seen.insert(s.key())).collect();
    let mut rates = Vec::new();
    let mut wave_secs = Vec::new();
    let mut wave_cpu = 0.0;
    let mut wave_rss = Vec::new();
    let registry_before = telemetry::snapshot();
    let waves = repeat_for(args.seconds, 3, |wave| {
        let store_dir = dir.join(format!("wave-{wave}"));
        let engine = SweepEngine::new().with_store(RunStore::new(&store_dir));
        let steps_before = local_steps();
        let cpu_before = crate::cpu_secs();
        crate::reset_peak_rss();
        let root = tracer.root("wave");
        let started = Instant::now();
        let traces = {
            let _span = root.child("SweepEngine::run");
            engine.run(&specs)
        };
        let secs = started.elapsed().as_secs_f64();
        drop(root);
        wave_cpu += crate::cpu_secs() - cpu_before;
        wave_rss.push(crate::peak_rss_mb(std::process::id()));
        let samples = (local_steps() - steps_before) * TRAIN_BATCH;
        rates.push(samples as f64 / secs);
        wave_secs.push(secs);

        report.attempted += specs.len() as u64;
        let failures = engine.run_failures();
        report.failed += failures.len() as u64;
        report.check(failures.is_empty(), || {
            format!("wave {wave}: runs failed: {failures:?}")
        });
        report.check(traces.len() == specs.len(), || {
            format!(
                "wave {wave}: {} traces for {} specs",
                traces.len(),
                specs.len()
            )
        });
        let check = tracer.root("check.roundtrip");
        let store = RunStore::new(&store_dir);
        let mut digests = BTreeMap::new();
        for (spec, trace) in specs.iter().zip(&traces) {
            let key = spec.key();
            let digest = format!("{:016x}", specs::digest(trace));
            let stored = {
                let _span = check.child("RunStore::load");
                store.load(&key)
            };
            let round_trip = match stored {
                LoadOutcome::Hit(t) => format!("{:016x}", specs::digest(&t)),
                other => format!("{other:?}").chars().take(60).collect(),
            };
            report.check(round_trip == digest, || {
                format!("wave {wave}: store round trip {round_trip} != trace {digest} for {key}")
            });
            if let Some(golden) = &golden {
                let want = golden.get(&key).map_or("<missing>", String::as_str);
                report.check(want == digest, || {
                    format!("wave {wave}: digest {digest} != golden {want} for {key}")
                });
            }
            digests.insert(key, digest);
        }
        if golden.is_none() && wave == 0 {
            let lines: Vec<String> = digests.iter().map(|(k, d)| format!("{d} {k}")).collect();
            let path = dir
                .parent()
                .unwrap_or(dir)
                .join(format!("train_cold-seed{}.txt", args.seed));
            match std::fs::write(&path, lines.join("\n") + "\n") {
                Ok(()) => eprintln!(
                    "wallbench: no golden digests for seed {}; wrote them to {}",
                    args.seed,
                    path.display()
                ),
                Err(e) => eprintln!("wallbench: cannot write {}: {e}", path.display()),
            }
        }
        drop(check);
        let _ = std::fs::remove_dir_all(&store_dir);
    });
    let delta = telemetry::snapshot().delta_since(&registry_before);
    let rate = median(&rates);
    eprintln!(
        "wallbench: train_cold {} waves of {} specs ({} unique), wave s {:?}, samples/s {:?}, \
         rss MB {:?}",
        waves,
        specs.len(),
        unique.len(),
        wave_secs,
        rates,
        wave_rss
    );
    report.metric("work_per_s", rate, "1/s");
    report.metric("p50_ms", median(&wave_secs) * 1e3, "ms");
    // The first wave's peak: what a user running the list once pays. Later
    // waves in the same process peak higher and less steadily, as the
    // resident set grows from wave to wave (stderr shows each peak).
    report.metric("peak_rss_mb", wave_rss[0], "MB");
    if args.trace {
        layers::record_registry(&mut report, &delta, waves);
        // Idle share of the machine while waves run, from the process's
        // CPU time: the slowest run holds the wave open while the other
        // cores go idle. (Span times cannot give this: the pool's
        // submitting thread helps too, so busy threads outnumber cores.)
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let wall: f64 = wave_secs.iter().sum();
        report.layer("sweep.wave_s", median(&wave_secs));
        report.layer("sweep.pool_idle_share", 1.0 - wave_cpu / (cores * wall));
        report.layer("sweep.run_s_max", slowest_run(&unique, tracer));
    }
    Ok(report)
}

/// The slowest single run of the list, timed one at a time on a fresh
/// engine after the measured waves (the engine's run histogram only keeps
/// power-of-two buckets). Each run is its own trace.
fn slowest_run(unique: &[&SweepSpec], tracer: &Tracer) -> f64 {
    let engine = SweepEngine::new();
    let mut slowest: f64 = 0.0;
    for spec in unique {
        let _root = tracer.root("run");
        let started = Instant::now();
        engine.run(std::slice::from_ref(*spec));
        slowest = slowest.max(started.elapsed().as_secs_f64());
    }
    slowest
}
