//! Checkpoint/resume determinism: a run interrupted at round `k` and
//! resumed from its (serialized and re-decoded) checkpoint must produce a
//! trace bit-identical to the uninterrupted run.

use adacomm::{AdaComm, AdaCommCompress, AdaCommConfig, CommSchedule, FixedComm, LrSchedule};
use data::GaussianMixture;
use delay::{CommModel, DelayDistribution, RuntimeModel};
use gradcomp::CodecSpec;
use pasgd_sim::{
    ClusterConfig, ExperimentConfig, ExperimentSuite, MomentumMode, RunCheckpoint, RunOptions,
    RunOutcome, RunTrace,
};

fn suite(seed: u64, momentum: MomentumMode) -> ExperimentSuite {
    let split = GaussianMixture::small_test().generate(seed);
    let runtime = RuntimeModel::new(
        DelayDistribution::exponential(0.08),
        CommModel::constant(0.1),
        2,
    );
    ExperimentSuite::new(
        nn::models::mlp_classifier(8, &[16], 3, 5),
        split,
        runtime,
        ClusterConfig {
            workers: 2,
            batch_size: 8,
            lr: 0.05,
            weight_decay: 5e-4,
            momentum,
            averaging: pasgd_sim::AveragingStrategy::FullAverage,
            codec: CodecSpec::Identity,
            seed,
            eval_subset: 96,
            fault: pasgd_sim::FaultConfig::NONE,
        },
        ExperimentConfig {
            interval_secs: 4.0,
            total_secs: 30.0,
            record_every_secs: 2.0,
            gate_lr_on_tau: false,
        },
    )
}

/// Runs `scheduler` straight through, then re-runs it interrupted at
/// `stop_rounds` with the checkpoint round-tripped through bytes, and
/// asserts the two traces are equal float-for-float.
fn assert_resume_is_bit_identical<S, F>(
    suite: &ExperimentSuite,
    make_scheduler: F,
    codec: Option<CodecSpec>,
    momentum: Option<MomentumMode>,
    fault: Option<pasgd_sim::FaultConfig>,
    stop_rounds: u64,
) where
    S: CommSchedule,
    F: Fn() -> S,
{
    let lr = LrSchedule::constant(0.05);
    let overrides = RunOptions {
        momentum,
        codec,
        fault,
        ..RunOptions::default()
    };
    let mut golden_sched = make_scheduler();
    let golden = match suite.run_with(&mut golden_sched, &lr, &overrides).unwrap() {
        RunOutcome::Completed(t) => t,
        RunOutcome::Checkpointed(_) => panic!("no round limit requested"),
    };

    let mut interrupted_sched = make_scheduler();
    let ck = match suite
        .run_with(
            &mut interrupted_sched,
            &lr,
            &RunOptions {
                stop_after_rounds: Some(stop_rounds),
                ..overrides
            },
        )
        .unwrap()
    {
        RunOutcome::Checkpointed(ck) => ck,
        RunOutcome::Completed(_) => panic!("run finished before round {stop_rounds}"),
    };
    assert!(ck.cluster.rounds >= stop_rounds);
    // The fault frame (fault RNG stream, outage table, staleness counters,
    // stats) rides the checkpoint exactly when faults are active.
    assert_eq!(
        ck.cluster.fault.is_some(),
        fault.is_some_and(|f| f.is_active()),
        "fault frame presence must match fault activity"
    );

    // Serialize and decode: resume must survive the byte format, not just
    // the in-memory struct.
    let bytes = ck.to_bytes();
    let decoded = RunCheckpoint::from_bytes(&bytes).expect("checkpoint frame decodes");

    // A *fresh* scheduler instance: resume imports the exported state.
    let mut resumed_sched = make_scheduler();
    let resumed = match suite
        .run_with(
            &mut resumed_sched,
            &lr,
            &RunOptions {
                resume: Some(&decoded),
                ..overrides
            },
        )
        .unwrap()
    {
        RunOutcome::Completed(t) => t,
        RunOutcome::Checkpointed(_) => panic!("no round limit requested on resume"),
    };

    assert_traces_bit_identical(&golden, &resumed);
}

fn assert_traces_bit_identical(a: &RunTrace, b: &RunTrace) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(
        a.peak_payload_bytes.to_bits(),
        b.peak_payload_bytes.to_bits()
    );
    assert_eq!(a.points.len(), b.points.len());
    for (i, (p, q)) in a.points.iter().zip(&b.points).enumerate() {
        assert_eq!(p.clock.to_bits(), q.clock.to_bits(), "clock at point {i}");
        assert_eq!(p.iterations, q.iterations, "iterations at point {i}");
        assert_eq!(p.epoch.to_bits(), q.epoch.to_bits(), "epoch at point {i}");
        assert_eq!(
            p.train_loss.to_bits(),
            q.train_loss.to_bits(),
            "train_loss at point {i}"
        );
        assert_eq!(
            p.test_accuracy.to_bits(),
            q.test_accuracy.to_bits(),
            "test_accuracy at point {i}"
        );
        assert_eq!(p.tau, q.tau, "tau at point {i}");
        assert_eq!(p.lr.to_bits(), q.lr.to_bits(), "lr at point {i}");
        assert_eq!(
            p.comm_bytes.to_bits(),
            q.comm_bytes.to_bits(),
            "comm_bytes at point {i}"
        );
    }
}

#[test]
fn fixed_tau_resume_is_bit_identical() {
    let s = suite(1, MomentumMode::None);
    assert_resume_is_bit_identical(&s, || FixedComm::new(4), None, None, None, 7);
}

#[test]
fn adacomm_resume_is_bit_identical() {
    // The scheduler's prev_tau memory crosses the checkpoint: resuming with
    // a fresh AdaComm must not re-raise tau.
    let s = suite(2, MomentumMode::None);
    assert_resume_is_bit_identical(&s, || AdaComm::with_tau0(8), None, None, None, 9);
}

#[test]
fn compressed_block_momentum_resume_is_bit_identical() {
    // The hardest case: Top-K error-feedback residuals, per-worker sync
    // references, the codec RNG stream, SGD momentum buffers, and the
    // global block-momentum planes all cross the checkpoint.
    let s = suite(3, MomentumMode::paper_block());
    assert_resume_is_bit_identical(
        &s,
        || FixedComm::new(4),
        Some(CodecSpec::TopK { ratio: 0.25 }),
        Some(MomentumMode::paper_block()),
        None,
        6,
    );
}

#[test]
fn co_adaptive_codec_resume_is_bit_identical() {
    // AdaCommCompress sharpens the codec mid-run; the sharpened ratio and
    // the monotone-fidelity floor must survive the checkpoint.
    let s = suite(4, MomentumMode::None);
    assert_resume_is_bit_identical(
        &s,
        || {
            AdaCommCompress::new(
                AdaCommConfig {
                    tau0: 8,
                    ..AdaCommConfig::default()
                },
                CodecSpec::TopK { ratio: 0.1 },
            )
        },
        None,
        None,
        None,
        8,
    );
}

#[test]
fn resume_at_different_rounds_always_matches() {
    let s = suite(5, MomentumMode::None);
    for stop in [1, 3, 11] {
        assert_resume_is_bit_identical(&s, || FixedComm::new(2), None, None, None, stop);
    }
}

#[test]
fn corrupted_checkpoint_is_rejected_by_the_driver() {
    let s = suite(6, MomentumMode::None);
    let lr = LrSchedule::constant(0.05);
    let mut sched = FixedComm::new(4);
    let ck = match s
        .run_with(
            &mut sched,
            &lr,
            &RunOptions {
                stop_after_rounds: Some(3),
                ..RunOptions::default()
            },
        )
        .unwrap()
    {
        RunOutcome::Checkpointed(ck) => ck,
        RunOutcome::Completed(_) => panic!("run finished before round 3"),
    };

    // Structural mismatch: a checkpoint from a 2-worker run cannot restore
    // onto a different cluster shape.
    let mut wrong = (*ck).clone();
    wrong.cluster.workers.pop();
    let mut sched2 = FixedComm::new(4);
    assert!(s
        .run_with(
            &mut sched2,
            &lr,
            &RunOptions {
                resume: Some(&wrong),
                ..RunOptions::default()
            }
        )
        .is_err());

    // Mismatched parameter plane inside one worker.
    let mut bad_params = (*ck).clone();
    bad_params.cluster.workers[0].params.pop();
    let mut sched3 = FixedComm::new(4);
    assert!(s
        .run_with(
            &mut sched3,
            &lr,
            &RunOptions {
                resume: Some(&bad_params),
                ..RunOptions::default()
            }
        )
        .is_err());

    // The original checkpoint still resumes fine afterwards.
    let mut sched4 = FixedComm::new(4);
    assert!(s
        .run_with(
            &mut sched4,
            &lr,
            &RunOptions {
                resume: Some(&ck),
                ..RunOptions::default()
            }
        )
        .is_ok());
}

// ---------------------------------------------------------------------------
// Property: a fault firing in (or straddling) the stopped round must not
// break resume bit-identity. The injection rates below are high enough
// that crashes, drops, and straggler spikes land in nearly every round —
// including the round the checkpoint cuts through — so worker outages
// whose rejoin deadline crosses the boundary, in-flight retransmit
// charges, and the fault RNG stream all have to survive the byte format.

use proptest::prelude::*;

// The profiles cover each fault axis and each aggregation policy family
// (quorum = 1 of 2 workers keeps the toy cluster making progress even
// when the other worker is down).
fn aggressive_fault_profile(idx: usize) -> pasgd_sim::FaultConfig {
    use pasgd_sim::{AggregationPolicy, FaultConfig, FaultSpec};
    match idx {
        0 => FaultConfig {
            spec: FaultSpec {
                crash_prob: 0.4,
                rejoin_after: 2,
                ..FaultSpec::NONE
            },
            policy: AggregationPolicy::FullBarrier,
        },
        1 => FaultConfig {
            spec: FaultSpec {
                drop_prob: 0.5,
                corrupt_prob: 0.2,
                ..FaultSpec::NONE
            },
            policy: AggregationPolicy::FullBarrier,
        },
        _ => FaultConfig {
            spec: FaultSpec {
                crash_prob: 0.3,
                rejoin_after: 3,
                straggler_prob: 0.5,
                straggler_factor: 4.0,
                ..FaultSpec::NONE
            },
            policy: AggregationPolicy::BoundedStaleness {
                quorum: 1,
                max_staleness: 2,
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn faulty_resume_is_bit_identical(
        stop in 1u64..6,
        seed in 0u64..64,
        profile in 0usize..3,
    ) {
        let s = suite(seed, MomentumMode::None);
        assert_resume_is_bit_identical(
            &s,
            || FixedComm::new(3),
            None,
            None,
            Some(aggressive_fault_profile(profile)),
            stop,
        );
    }
}
