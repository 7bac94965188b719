//! Fault injection against the persistent run store: every way an entry
//! can rot on disk — truncation, flipped bits, stale versions,
//! zero-length files, entries rewritten under a different key — must
//! degrade to a clean recompute (correct trace, rejected entry evicted
//! and re-saved), proven by the engine's cache-traffic counters. The
//! store may never panic and never serve a wrong figure.

use adacomm_bench::sweep::{LrSpec, ScenarioSpec, SchedulerSpec, SweepEngine, SweepSpec};
use adacomm_bench::{CancellableRun, LoadOutcome, ParkedOutcome, RunStore};
use pasgd_sim::RunTrace;
use std::fs;
use std::path::{Path, PathBuf};

/// A per-test store directory under the target tmpdir, wiped on entry so
/// reruns start cold.
fn store_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("store_faults_{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The cheapest real run the scenario registry offers.
fn spec(tau: usize) -> SweepSpec {
    SweepSpec::new(
        ScenarioSpec::Concept,
        SchedulerSpec::Fixed { tau },
        LrSpec::Fixed,
    )
    .with_budget(20.0, 5.0)
}

/// A sequential engine (stats are then exact, not racy) over a store at
/// `dir`.
fn engine_on(dir: &Path) -> SweepEngine {
    SweepEngine::with_parallelism(false).with_store(RunStore::new(dir))
}

fn trace_bits(t: &RunTrace) -> Vec<u64> {
    let mut v = vec![t.peak_payload_bytes.to_bits(), t.rounds];
    for p in &t.points {
        v.extend([
            p.clock.to_bits(),
            p.iterations,
            p.epoch.to_bits(),
            u64::from(p.train_loss.to_bits()),
            p.test_accuracy.to_bits(),
            p.tau as u64,
            u64::from(p.lr.to_bits()),
            p.comm_bytes.to_bits(),
        ]);
    }
    v
}

/// Populates the store with one run of `spec`, returning the golden
/// trace and the entry's on-disk path.
fn populate(dir: &Path, s: &SweepSpec) -> (RunTrace, PathBuf) {
    let engine = engine_on(dir);
    let golden = engine.run(std::slice::from_ref(s)).remove(0);
    let path = RunStore::new(dir).entry_path(&s.key());
    assert!(path.exists(), "populate must write {}", path.display());
    (golden, path)
}

/// Asserts a fresh engine over the (damaged) store still produces the
/// golden trace by recomputing: exactly one reject, one miss, no disk
/// hit — and that the recompute healed the entry so a further engine
/// takes a clean disk hit.
fn assert_recovers_by_recompute(dir: &Path, s: &SweepSpec, golden: &RunTrace) {
    let engine = engine_on(dir);
    let got = engine.run(std::slice::from_ref(s)).remove(0);
    assert_eq!(trace_bits(&got), trace_bits(golden), "recompute must match");
    let stats = engine.cache_stats();
    assert_eq!(
        stats.rejects, 1,
        "damaged entry must be rejected: {stats:?}"
    );
    assert_eq!(stats.misses, 1, "rejected key must recompute: {stats:?}");
    assert_eq!(stats.disk_hits, 0, "damaged entry must not hit: {stats:?}");

    // The recompute re-saved a valid entry: the next engine hits disk.
    let healed = engine_on(dir);
    let again = healed.run(std::slice::from_ref(s)).remove(0);
    assert_eq!(trace_bits(&again), trace_bits(golden));
    let stats = healed.cache_stats();
    assert_eq!(
        (stats.disk_hits, stats.misses, stats.rejects),
        (1, 0, 0),
        "healed entry must serve from disk: {stats:?}"
    );
}

#[test]
fn warm_engine_serves_from_disk_bit_identically() {
    let dir = store_dir("warm");
    let cold = engine_on(&dir);
    let specs = [spec(2), spec(4)];
    let golden = cold.run(&specs);
    let stats = cold.cache_stats();
    assert_eq!((stats.disk_hits, stats.misses), (0, 2), "{stats:?}");

    let warm = engine_on(&dir);
    let served = warm.run(&specs);
    let stats = warm.cache_stats();
    assert_eq!(
        (stats.disk_hits, stats.misses, stats.rejects),
        (2, 0, 0),
        "{stats:?}"
    );
    for (g, s) in golden.iter().zip(&served) {
        assert_eq!(g.name, s.name);
        assert_eq!(trace_bits(g), trace_bits(s));
    }

    // Repeat requests on the warm engine come from memory, not disk.
    let _ = warm.run(&specs);
    let stats = warm.cache_stats();
    assert_eq!(stats.disk_hits, 2, "{stats:?}");
    assert_eq!(stats.mem_hits, 2, "{stats:?}");
}

#[test]
fn truncated_entry_recomputes_cleanly() {
    let dir = store_dir("truncated");
    let s = spec(2);
    let (golden, path) = populate(&dir, &s);
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert_recovers_by_recompute(&dir, &s, &golden);
}

#[test]
fn zero_length_entry_recomputes_cleanly() {
    let dir = store_dir("zero_len");
    let s = spec(2);
    let (golden, path) = populate(&dir, &s);
    fs::write(&path, []).unwrap();
    assert_recovers_by_recompute(&dir, &s, &golden);
}

#[test]
fn flipped_payload_byte_recomputes_cleanly() {
    let dir = store_dir("bit_flip");
    let s = spec(2);
    let (golden, path) = populate(&dir, &s);
    let mut bytes = fs::read(&path).unwrap();
    // Deep in the payload: every header check passes, so only the CRC
    // can catch this flip.
    let at = bytes.len() - 9;
    bytes[at] ^= 0x40;
    fs::write(&path, &bytes).unwrap();
    assert_recovers_by_recompute(&dir, &s, &golden);
}

#[test]
fn stale_version_header_recomputes_cleanly() {
    let dir = store_dir("stale_version");
    let s = spec(2);
    let (golden, path) = populate(&dir, &s);
    // Frame layout: magic [0..4), store format u32 [4..8),
    // code-semantics u32 [8..12). Age the semantics version by one — the
    // entry now claims to predate the current simulation code.
    let mut bytes = fs::read(&path).unwrap();
    bytes[8] = bytes[8].wrapping_add(1);
    fs::write(&path, &bytes).unwrap();
    assert_recovers_by_recompute(&dir, &s, &golden);
}

#[test]
fn entry_rewritten_under_a_different_key_recomputes_cleanly() {
    // A concurrent writer (or a pathological hash collision) can leave a
    // *structurally valid* frame for the wrong spec at this path; the
    // key echo inside the frame is what catches it.
    let dir = store_dir("wrong_key");
    let s2 = spec(2);
    let s4 = spec(4);
    let (golden, path2) = populate(&dir, &s2);
    let (_, path4) = populate(&dir, &s4);
    fs::copy(&path4, &path2).unwrap();
    assert_recovers_by_recompute(&dir, &s2, &golden);
}

#[test]
fn arbitrary_garbage_never_panics_the_loader() {
    let dir = store_dir("garbage");
    let s = spec(2);
    let (golden, path) = populate(&dir, &s);
    let original = fs::read(&path).unwrap();
    // A deterministic xorshift keeps the test reproducible without any
    // wall-clock seeding.
    let mut x = 0x9E37_79B9u32;
    let garbage: Vec<u8> = (0..original.len())
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect();
    fs::write(&path, &garbage).unwrap();
    assert_recovers_by_recompute(&dir, &s, &golden);
}

#[test]
fn direct_store_load_reports_reasons() {
    // The LoadOutcome reasons are what the engine logs; spot-check the
    // classifier end-to-end through real files.
    let dir = store_dir("reasons");
    let s = spec(2);
    let (_, path) = populate(&dir, &s);
    let store = RunStore::new(&dir);
    let key = s.key();

    match store.load(&key) {
        LoadOutcome::Hit(_) => {}
        other => panic!("pristine entry must hit, got {other:?}"),
    }
    match store.load("some other key") {
        LoadOutcome::Absent => {}
        other => panic!("unknown key must be absent, got {other:?}"),
    }
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..10]).unwrap();
    match store.load(&key) {
        LoadOutcome::Rejected(reason) => {
            assert!(!reason.is_empty(), "rejection must carry a reason")
        }
        other => panic!("truncated entry must reject, got {other:?}"),
    }
}

#[test]
fn batch_run_resumes_and_clears_a_parked_checkpoint() {
    // A cancelled service request leaves its partial run parked in the
    // store. A later batch `run` over the same store must resume it
    // bit-identically and remove the parked remainder.
    let dir = store_dir("parked_batch");
    let s = spec(3);
    let golden = SweepEngine::with_parallelism(false)
        .run(std::slice::from_ref(&s))
        .remove(0);

    let cancelled = engine_on(&dir)
        .try_trace_cancellable(&s, Some(&|| true))
        .expect("a cancelled run is not a failure");
    assert!(matches!(cancelled, CancellableRun::Cancelled));
    let store = RunStore::new(&dir);
    assert!(matches!(store.load_parked(&s.key()), ParkedOutcome::Hit(_)));

    let got = engine_on(&dir).run(std::slice::from_ref(&s)).remove(0);
    assert_eq!(trace_bits(&got), trace_bits(&golden), "resume must match");
    assert!(
        matches!(store.load_parked(&s.key()), ParkedOutcome::Absent),
        "the completed run must remove its parked checkpoint"
    );
}
