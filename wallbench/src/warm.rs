//! `reproduce_warm`: all registry figures at smoke scale through
//! `figures::reproduce`, each timed pass on a fresh `SweepEngine` against
//! the run store that set-up filled with one cold smoke reproduction. The
//! store's read path, figure rendering, CSV writing and scenario builds do
//! the work; engine compute should be near zero, so whatever compute
//! remains is work that bypasses the store.

use crate::layers;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{repeat_for, Args, Report};
use adacomm_bench::figures::{self, ReproOutcome};
use adacomm_bench::{RunStore, Scale, SweepEngine};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every CSV the figures wrote, by file name.
fn read_csvs() -> Result<BTreeMap<String, Vec<u8>>, String> {
    let dir = adacomm_bench::report::results_dir();
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut csvs = BTreeMap::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "csv") {
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            csvs.insert(entry.file_name().to_string_lossy().into_owned(), bytes);
        }
    }
    Ok(csvs)
}

fn failures(outcome: &ReproOutcome) -> Vec<String> {
    outcome
        .figures
        .iter()
        .filter_map(|f| f.failure.as_ref().map(|why| format!("{}: {why}", f.name)))
        .collect()
}

pub fn run(args: &Args, tracer: &Tracer, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    adacomm_bench::report::set_results_subdir("smoke");
    let store_dir = dir.join("store");

    let started = Instant::now();
    let cold = SweepEngine::new().with_store(RunStore::new(&store_dir));
    let outcome = figures::reproduce(Scale::Smoke, &cold, None);
    let setup_s = started.elapsed().as_secs_f64();
    let failed = failures(&outcome);
    if !failed.is_empty() {
        return Err(format!("cold set-up reproduction failed: {failed:?}"));
    }
    let reference = read_csvs()?;
    if reference.is_empty() {
        return Err("cold set-up reproduction wrote no CSVs".into());
    }
    eprintln!(
        "wallbench: cold smoke fill {setup_s:.2} s, {} figures, {} unique runs, {} CSVs",
        outcome.figures.len(),
        outcome.unique_runs,
        reference.len()
    );
    drop(cold);
    report.metric("setup_s", setup_s, "s");

    let mut pass_secs = Vec::new();
    let mut rates = Vec::new();
    let mut wave_secs = Vec::new();
    crate::reset_peak_rss();
    let registry_before = telemetry::snapshot();
    let passes = repeat_for(args.seconds, 3, |pass| {
        let engine = SweepEngine::new().with_store(RunStore::new(&store_dir));
        let root = tracer.root("pass");
        let started = Instant::now();
        let outcome = {
            let _span = root.child("figures::reproduce");
            figures::reproduce(Scale::Smoke, &engine, None)
        };
        let secs = started.elapsed().as_secs_f64();
        pass_secs.push(secs);
        rates.push(outcome.figures.len() as f64 / secs);
        wave_secs.push(outcome.sweep_secs);
        let failed = failures(&outcome);
        report.attempted += outcome.figures.len() as u64;
        report.failed += failed.len() as u64;
        report.check(failed.is_empty(), || {
            format!("pass {pass}: figures failed: {failed:?}")
        });
        let cache = engine.cache_stats();
        report.check(cache.misses == 0 && cache.rejects == 0, || {
            format!("pass {pass}: warm pass missed the store: {cache:?}")
        });
        let _check = root.child("check.csv");
        match read_csvs() {
            Ok(csvs) => {
                let differing: Vec<&String> = reference
                    .iter()
                    .filter(|(name, bytes)| csvs.get(*name) != Some(bytes))
                    .map(|(name, _)| name)
                    .chain(csvs.keys().filter(|name| !reference.contains_key(*name)))
                    .collect();
                report.check(differing.is_empty(), || {
                    format!("pass {pass}: CSVs differ from the cold set-up's: {differing:?}")
                });
            }
            Err(e) => report.check(false, || format!("pass {pass}: cannot read CSVs: {e}")),
        }
    });
    let delta = telemetry::snapshot().delta_since(&registry_before);
    eprintln!("wallbench: reproduce_warm {passes} passes, wall s {pass_secs:?}");
    report.metric("work_per_s", median(&rates), "1/s");
    report.metric("p50_ms", median(&pass_secs) * 1e3, "ms");
    report.metric("peak_rss_mb", crate::peak_rss_mb(std::process::id()), "MB");
    if args.trace {
        layers::record_registry(&mut report, &delta, passes);
        report.layer("figures.pass_s", median(&pass_secs));
        report.layer("sweep.wave_s", median(&wave_secs));
    }
    Ok(report)
}
