//! Seed-to-input generators and the trace digest the output checks use.
//!
//! The benchmark takes the seed; the program only ever sees what these
//! functions generate. Seeds change *which* runs execute (their keys) but
//! not *how much* work they are: every spec's simulated budget, scheduler
//! and codec are fixed, and the seed only scales learning rates (part of
//! the content-addressed key, not of the cost of a step) and picks which
//! specs are requested twice. That keeps run-to-run spread across seeds
//! down to the machine's own noise.

use adacomm_bench::scenarios::ModelFamily;
use adacomm_bench::server::protocol::RunRequest;
use adacomm_bench::{LrSpec, Scale, ScenarioSpec, SchedulerSpec, SweepSpec};
use gradcomp::CodecSpec;
use pasgd_sim::{AggregationPolicy, FaultConfig, FaultSpec, RunTrace};

/// Per-worker minibatch of every `train_cold` scenario (quick-scale
/// canonical and compression suites both train with 32).
pub const TRAIN_BATCH: u64 = 32;

/// How many specs of the `train_cold` list are requested a second time.
const DUPLICATES: usize = 3;

/// SplitMix64: a tiny, well-mixed generator, so the benchmark's inputs do
/// not depend on the repository's RNG shim.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5741_4c4c_4245_4e43)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn canonical(family: ModelFamily, workers: usize) -> ScenarioSpec {
    ScenarioSpec::Canonical {
        family,
        classes: 10,
        workers,
        scale: Scale::Quick,
    }
}

/// The fixed part of the `train_cold` list: `(scenario, scheduler, codec,
/// fault plan, simulated budget in seconds)`. Budgets are cut from the
/// quick scale's 600/900 s so one cold wave takes a few wall seconds.
fn train_templates() -> Vec<(ScenarioSpec, SchedulerSpec, CodecSpec, FaultConfig, f64)> {
    use ModelFamily::{ResnetLike, VggLike};
    let none = FaultConfig::NONE;
    let id = CodecSpec::Identity;
    let fixed = |tau| SchedulerSpec::Fixed { tau };
    let compression = ScenarioSpec::Compression {
        family: VggLike,
        scale: Scale::Quick,
    };
    // The quick scale shrinks delays 4x, so the quorum's compute cutoff
    // does too (same rule as the fault-injection figure).
    let faulty = FaultConfig {
        spec: FaultSpec {
            crash_prob: 0.04,
            rejoin_after: 3,
            straggler_prob: 0.2,
            straggler_factor: 8.0,
            ..FaultSpec::NONE
        },
        policy: AggregationPolicy::Quorum {
            quorum: 3,
            deadline_secs: 2.0,
        },
    };
    vec![
        // Communication-bound VGG-like, 4 workers: sync, fixed τ, AdaComm.
        (canonical(VggLike, 4), fixed(1), id, none, 120.0),
        (canonical(VggLike, 4), fixed(20), id, none, 120.0),
        (
            canonical(VggLike, 4),
            SchedulerSpec::adacomm(24),
            id,
            none,
            120.0,
        ),
        // Computation-bound ResNet-like, 4 workers.
        (canonical(ResnetLike, 4), fixed(1), id, none, 120.0),
        (canonical(ResnetLike, 4), fixed(5), id, none, 120.0),
        (
            canonical(ResnetLike, 4),
            SchedulerSpec::adacomm(5),
            id,
            none,
            120.0,
        ),
        // Both families at 8 workers.
        (canonical(VggLike, 8), fixed(1), id, none, 60.0),
        (
            canonical(VggLike, 8),
            SchedulerSpec::adacomm(24),
            id,
            none,
            60.0,
        ),
        (canonical(ResnetLike, 8), fixed(5), id, none, 60.0),
        (
            canonical(ResnetLike, 8),
            SchedulerSpec::adacomm(5),
            id,
            none,
            60.0,
        ),
        // Codecs on the bytes-aware compression suite.
        (
            compression.clone(),
            fixed(4),
            CodecSpec::TopK { ratio: 0.05 },
            none,
            120.0,
        ),
        (
            compression,
            fixed(4),
            CodecSpec::Qsgd { bits: 4 },
            none,
            120.0,
        ),
        // One seeded fault plan under quorum aggregation.
        (
            canonical(VggLike, 4),
            SchedulerSpec::adacomm(24),
            id,
            faulty,
            120.0,
        ),
    ]
}

/// The `train_cold` spec list for `seed`: every template once, with a
/// seed-drawn learning-rate factor in `[0.8, 1.2)`, followed by
/// seed-chosen duplicates (memory hits inside the wave).
pub fn train_specs(seed: u64) -> Vec<SweepSpec> {
    let mut rng = SplitMix::new(seed);
    let mut specs: Vec<SweepSpec> = train_templates()
        .into_iter()
        .map(|(scenario, scheduler, codec, fault, budget)| {
            let factor = 0.8 + 0.4 * rng.unit() as f32;
            SweepSpec::new(scenario, scheduler, LrSpec::fixed_scaled(factor))
                .with_codec(codec)
                .with_faults(fault)
                .with_budget(budget, budget / 20.0)
        })
        .collect();
    let unique = specs.len();
    for _ in 0..DUPLICATES {
        let pick = (rng.next_u64() % unique as u64) as usize;
        specs.push(specs[pick].clone());
    }
    specs
}

/// A `concept` run request the sweep service answers at smoke scale.
pub fn concept_request(tau: u64, total_millis: u64, record_millis: u64) -> RunRequest {
    RunRequest {
        scenario: "concept".into(),
        scheduler: "fixed".into(),
        tau,
        budget: Some((total_millis as f64 / 1000.0, record_millis as f64 / 1000.0)),
        deadline_ms: None,
        panic: false,
    }
}

/// The seed's record cadence offset: requests of two seeds less than 250
/// apart never share a key. Offsets move the cadence only, and within
/// limits that keep every request's number of recorded points: the seed
/// changes the key, never the work.
fn cadence_offset(seed: u64) -> u64 {
    seed % 250
}

/// The memoized specs `service_oneshot` pre-warms and then repeats. Their
/// budgets are long enough that computing them (set-up) is a steady,
/// compute-bound cost rather than a few noisy fsyncs; each budget spans
/// four cadences and less than five.
pub fn hit_requests(seed: u64, n: usize) -> Vec<RunRequest> {
    (0..n as u64)
        .map(|i| concept_request(8 + i, 250_000 + i, 60_000 + 6 * cadence_offset(seed)))
        .collect()
}

/// The `i`-th never-seen `concept` spec of the writer client (`i` below
/// 49 000). Keys differ by one simulated millisecond of budget, which
/// leaves the work per request unchanged. Each miss computes for about a
/// tenth of a second, so the daemon is busy computing nearly all the time
/// the hits run beside it.
pub fn miss_request(seed: u64, i: u64) -> RunRequest {
    concept_request(4, 201_000 + i, 50_000 + cadence_offset(seed))
}

/// FNV-1a over the bits of everything a run reports: losses, accuracies,
/// clock, iterations, τ, learning rate, bytes, rounds. Two traces with the
/// same digest are, for the output checks, the same run.
pub fn digest(trace: &RunTrace) -> u64 {
    let mut bytes = Vec::with_capacity(trace.points.len() * 56 + 16);
    bytes.extend_from_slice(&trace.rounds.to_le_bytes());
    bytes.extend_from_slice(&trace.peak_payload_bytes.to_bits().to_le_bytes());
    for p in &trace.points {
        bytes.extend_from_slice(&p.clock.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.iterations.to_le_bytes());
        bytes.extend_from_slice(&p.epoch.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.train_loss.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.test_accuracy.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(p.tau as u64).to_le_bytes());
        bytes.extend_from_slice(&p.lr.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.comm_bytes.to_bits().to_le_bytes());
    }
    binio::fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64) -> Vec<String> {
        train_specs(seed).iter().map(SweepSpec::key).collect()
    }

    fn budgets(seed: u64) -> Vec<Option<(u64, u64)>> {
        train_specs(seed).iter().map(|s| s.budget_millis).collect()
    }

    #[test]
    fn same_seed_gives_the_same_specs() {
        assert_eq!(train_specs(7), train_specs(7));
        assert_eq!(miss_request(7, 3), miss_request(7, 3));
        assert_eq!(hit_requests(7, 4), hit_requests(7, 4));
    }

    #[test]
    fn different_seeds_give_distinct_keys_at_equal_budget() {
        let (a, b) = (keys(1), keys(2));
        let unique = train_templates().len();
        for (ka, kb) in a.iter().zip(&b).take(unique) {
            assert_ne!(ka, kb, "a seed must change every unique key");
        }
        // Budget size changes the work, so seeds must not move it: the
        // unique specs carry the same budgets in the same order.
        assert_eq!(budgets(1)[..unique], budgets(2)[..unique]);
    }

    #[test]
    fn the_list_covers_every_required_case() {
        let specs = train_specs(1);
        let unique: std::collections::HashSet<String> = specs.iter().map(SweepSpec::key).collect();
        assert_eq!(
            unique.len() + DUPLICATES,
            specs.len(),
            "duplicates repeat existing keys"
        );
        assert!(specs
            .iter()
            .any(|s| s.scheduler == SchedulerSpec::Fixed { tau: 1 }));
        assert!(specs
            .iter()
            .any(|s| matches!(s.scheduler, SchedulerSpec::AdaComm { .. })));
        assert!(specs
            .iter()
            .any(|s| matches!(s.codec, CodecSpec::TopK { .. })));
        assert!(specs
            .iter()
            .any(|s| matches!(s.codec, CodecSpec::Qsgd { .. })));
        assert!(specs.iter().any(|s| s.fault.is_active()));
        for n in [4, 8] {
            assert!(specs.iter().any(
                |s| matches!(s.scenario, ScenarioSpec::Canonical { workers, .. } if workers == n)
            ));
        }
    }

    #[test]
    fn miss_keys_never_repeat_within_or_across_seeds() {
        let spec = |seed, i| {
            miss_request(seed, i)
                .sweep_spec(Scale::Smoke)
                .unwrap()
                .key()
        };
        let mut seen = std::collections::HashSet::new();
        for seed in [1, 2] {
            for i in 0..500 {
                assert!(
                    seen.insert(spec(seed, i)),
                    "seed {seed} request {i} repeats a key"
                );
            }
        }
        for hit in hit_requests(1, 4) {
            assert!(seen.insert(hit.sweep_spec(Scale::Smoke).unwrap().key()));
        }
    }

    #[test]
    fn digest_sees_every_point_field() {
        let trace = RunTrace {
            name: "t".into(),
            points: vec![pasgd_sim::TracePoint {
                clock: 1.0,
                iterations: 2,
                epoch: 0.5,
                train_loss: 0.25,
                test_accuracy: 0.5,
                tau: 4,
                lr: 0.1,
                comm_bytes: 8.0,
            }],
            peak_payload_bytes: 8.0,
            rounds: 1,
        };
        let mut changed = trace.clone();
        changed.points[0].train_loss = 0.26;
        assert_ne!(digest(&trace), digest(&changed));
        let mut renamed = trace.clone();
        renamed.name = "other".into();
        assert_eq!(digest(&trace), digest(&renamed), "names are display-only");
    }
}
