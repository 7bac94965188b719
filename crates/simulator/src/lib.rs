//! Distributed periodic-averaging SGD (PASGD) simulator with a simulated
//! wall clock — the training substrate of the AdaComm reproduction.
//!
//! The paper runs PASGD on a 4/8-node GPU cluster; this crate reproduces the
//! *algorithm* faithfully while replacing the physical cluster with:
//!
//! * **real training mathematics** — each [`Worker`] runs genuine mini-batch
//!   SGD (with optional momentum and weight decay) on its own shard of the
//!   dataset, and averaging steps genuinely average the model parameters
//!   (eq. 3 of the paper);
//! * **a simulated clock** — wall-clock time advances according to the
//!   paper's own delay model (`delay::RuntimeModel`): a round of `τ` local
//!   steps costs `max_i(Σ_k Y_{i,k}) + D`.
//!
//! The two-layer API mirrors how the experiments are written:
//!
//! * [`PasgdCluster`] — one averaging round at a time, full control
//!   (used by the Figure 14 local-vs-synchronized probe);
//! * [`ExperimentSuite`] — the paper's interval protocol: consult a
//!   `CommSchedule` every `T0` seconds, apply a learning-rate schedule,
//!   record a [`RunTrace`]. [`ExperimentSuite::run`] is a fresh run;
//!   [`ExperimentSuite::run_with`] takes [`RunOptions`] (momentum, codec,
//!   budget and fault overrides, plus resume from a [`RunCheckpoint`], a
//!   round limit and a cooperative stop) and may return a parked
//!   [`RunOutcome::Checkpointed`]. [`run_experiment`] is the one-shot
//!   form for callers without a suite.
//!
//! Block momentum (Section 5.3.1, eqs. 24–25) is implemented in
//! [`BlockMomentum`] and selected via [`MomentumMode`].
//!
//! # Example
//!
//! ```
//! use pasgd_sim::{run_experiment, ClusterConfig, ExperimentConfig};
//! use adacomm::{AdaComm, LrSchedule};
//! use data::GaussianMixture;
//! use delay::{CommModel, DelayDistribution, RuntimeModel};
//!
//! let split = GaussianMixture::small_test().generate(0);
//! let runtime = RuntimeModel::new(
//!     DelayDistribution::constant(0.1),
//!     CommModel::constant(0.1),
//!     2,
//! );
//! let trace = run_experiment(
//!     nn::models::mlp_classifier(8, &[16], 3, 0),
//!     split,
//!     runtime,
//!     ClusterConfig { workers: 2, batch_size: 8, ..ClusterConfig::default() },
//!     &mut AdaComm::with_tau0(8),
//!     &LrSchedule::constant(0.05),
//!     &ExperimentConfig {
//!         interval_secs: 5.0,
//!         total_secs: 15.0,
//!         record_every_secs: 5.0,
//!         gate_lr_on_tau: false,
//!     },
//! );
//! assert_eq!(trace.name, "adacomm");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod cluster;
mod experiment;
mod fault;
mod momentum;
mod topology;
mod worker;

pub use checkpoint::{ClusterCheckpoint, RunCheckpoint, WorkerCheckpoint};
pub use cluster::{ClusterConfig, PasgdCluster};
pub use experiment::{
    run_experiment, ExperimentConfig, ExperimentSuite, RunOptions, RunOutcome, RunTrace, TracePoint,
};
pub use fault::{
    AggregationPolicy, FaultCheckpoint, FaultConfig, FaultSpec, FaultStats, FAULT_SEED_SALT,
};
pub use momentum::{BlockMomentum, MomentumMode};
pub use topology::AveragingStrategy;
pub use worker::Worker;
