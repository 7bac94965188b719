//! Supervised run execution: panic isolation, per-run deadlines, and
//! bounded retry with seeded backoff.
//!
//! Every sweep run the engine executes goes through [`run_supervised`]:
//! the closure runs under `catch_unwind`, a panic is converted into a
//! retryable failure, and retries back off by a deterministic,
//! label-seeded delay (no wall-clock randomness — the same label and
//! policy seed always produce the same backoff sequence, so a supervised
//! reproduction is as replayable as an unsupervised one). A run whose
//! *successful* attempt overruns the per-run deadline fails terminally:
//! the runs are deterministic, so re-executing an overrun run would
//! overrun again.
//!
//! Failures are reported as `Err(reason)` after the attempt budget is
//! spent; the engine records them and degrades the reproduction to a
//! partial-results report instead of aborting (see
//! `SweepEngine::run_failures`).
//!
//! For tests and CI drills, the `supervisor.attempt.panic`
//! [failpoint](crate::failpoint) panics at the start of a supervised
//! attempt; armed with [`failpoint::arm_matching`](crate::failpoint::arm_matching),
//! only runs whose label contains a given substring panic — the supervised
//! path is exercised end to end without planting failure code in the
//! simulator.

use binio::fnv1a64;
use rand::{Rng as _, SeedableRng as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Retry/deadline policy for one supervised execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorPolicy {
    /// Total attempts per run, counting the first (`>= 1`).
    pub max_attempts: u32,
    /// Base for the exponential backoff between attempts: attempt `n`
    /// (1-indexed) sleeps `base * 2^(n-1)` plus a seeded jitter in
    /// `[0, base)` milliseconds before retrying. `0` disables sleeping
    /// (tests).
    pub backoff_base_millis: u64,
    /// Wall-clock budget for a single attempt, checked after it returns
    /// (the runs are compute loops with no await points to interrupt). A
    /// successful attempt that overran fails terminally; `None` disables
    /// the check.
    pub deadline: Option<Duration>,
    /// Seed for the backoff jitter, mixed with the run label so distinct
    /// runs don't retry in lockstep.
    pub seed: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_attempts: 3,
            backoff_base_millis: 20,
            deadline: None,
            seed: 0x05EE_D0FF_A117,
        }
    }
}

/// The deterministic backoff before retry attempt `next_attempt`
/// (2-indexed: the sleep happens after attempt `next_attempt - 1`
/// failed), in milliseconds.
fn backoff_millis(policy: &SupervisorPolicy, label: &str, next_attempt: u32) -> u64 {
    if policy.backoff_base_millis == 0 {
        return 0;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        policy.seed ^ fnv1a64(label.as_bytes()) ^ u64::from(next_attempt),
    );
    let jitter = (rng.gen::<f64>() * policy.backoff_base_millis as f64) as u64;
    policy.backoff_base_millis << (next_attempt - 2).min(8) | jitter.min(policy.backoff_base_millis)
}

/// Extracts a printable message from a `catch_unwind` payload.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panicked (non-string payload)".to_string())
}

/// Executes `f` under the policy: panic-isolated, deadline-checked, and
/// retried with seeded backoff up to `max_attempts` total attempts.
///
/// # Errors
///
/// Returns the last failure reason when every attempt panicked, or a
/// terminal deadline report when the successful attempt overran
/// `policy.deadline`.
pub fn run_supervised<T>(
    policy: &SupervisorPolicy,
    label: &str,
    f: impl Fn() -> T,
) -> Result<T, String> {
    assert!(policy.max_attempts >= 1, "at least one attempt required");
    let mut last_failure = String::new();
    for attempt in 1..=policy.max_attempts {
        if attempt > 1 {
            telemetry::counter("sweep.run_retries").inc();
            let millis = backoff_millis(policy, label, attempt);
            if millis > 0 {
                std::thread::sleep(Duration::from_millis(millis));
            }
        }
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if crate::failpoint::fire_for("supervisor.attempt.panic", label) {
                panic!("injected panic (fault drill) in {label}");
            }
            f()
        }));
        match result {
            Ok(value) => {
                if let Some(deadline) = policy.deadline {
                    let elapsed = started.elapsed();
                    if elapsed > deadline {
                        // Deterministic runs overrun deterministically;
                        // retrying would only pay the cost again.
                        telemetry::counter("sweep.run_deadline_misses").inc();
                        return Err(format!(
                            "deadline exceeded: attempt took {:.2} s against a {:.2} s budget",
                            elapsed.as_secs_f64(),
                            deadline.as_secs_f64()
                        ));
                    }
                }
                return Ok(value);
            }
            Err(panic) => {
                telemetry::counter("sweep.run_panics").inc();
                last_failure = panic_message(panic);
            }
        }
    }
    Err(format!(
        "panicked on all {} attempts; last: {last_failure}",
        policy.max_attempts
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "failpoints")]
    use crate::failpoint;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fast_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            max_attempts: 3,
            backoff_base_millis: 0,
            deadline: None,
            seed: 7,
        }
    }

    #[test]
    fn success_passes_through() {
        assert_eq!(run_supervised(&fast_policy(), "ok-run", || 42), Ok(42));
    }

    // Failpoints are process-global: tests that arm one hold the shared
    // failpoint test lock.

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_panic_is_recovered_by_retry() {
        let _serial = failpoint::test_lock();
        failpoint::disarm_all();
        failpoint::arm_matching("supervisor.attempt.panic", "flaky-run-a", 2);
        let calls = AtomicU32::new(0);
        let result = run_supervised(&fast_policy(), "flaky-run-a", || {
            calls.fetch_add(1, Ordering::SeqCst) + 1
        });
        // Injected panics fire before the closure body, so the successful
        // third attempt is the only one that actually runs it.
        assert_eq!(result, Ok(1));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(
            failpoint::take_fired().len(),
            2,
            "both injected panics were consumed"
        );
        assert!(!failpoint::armed());
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn exhausted_attempts_fail_terminally() {
        let _serial = failpoint::test_lock();
        failpoint::arm_matching("supervisor.attempt.panic", "doomed-run-b", u32::MAX);
        let result: Result<(), String> = run_supervised(&fast_policy(), "doomed-run-b", || ());
        failpoint::disarm_all();
        let err = result.unwrap_err();
        assert!(err.contains("all 3 attempts"), "{err}");
        assert!(err.contains("injected panic (fault drill)"), "{err}");
    }

    #[test]
    fn real_panic_message_is_preserved() {
        let result: Result<(), String> = run_supervised(&fast_policy(), "assert-run", || {
            panic!("loss diverged: {}", f64::INFINITY)
        });
        assert!(result.unwrap_err().contains("loss diverged: inf"));
    }

    #[test]
    fn deadline_overrun_fails_without_retry() {
        let policy = SupervisorPolicy {
            deadline: Some(Duration::from_millis(1)),
            ..fast_policy()
        };
        let calls = AtomicU32::new(0);
        let result = run_supervised(&policy, "slow-run", || {
            calls.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(30));
        });
        assert!(result.unwrap_err().contains("deadline exceeded"));
        // Terminal: deterministic overruns are not retried.
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn backoff_is_deterministic_and_label_dependent() {
        let policy = SupervisorPolicy {
            backoff_base_millis: 16,
            ..SupervisorPolicy::default()
        };
        let a1 = backoff_millis(&policy, "run-a", 2);
        let a2 = backoff_millis(&policy, "run-a", 2);
        assert_eq!(a1, a2, "same label + attempt must back off identically");
        // Growth across attempts: the exponential part dominates jitter.
        assert!(backoff_millis(&policy, "run-a", 4) > backoff_millis(&policy, "run-a", 2));
        // Seed participates.
        let reseeded = SupervisorPolicy { seed: 99, ..policy };
        assert!(
            backoff_millis(&reseeded, "run-a", 2) != a1
                || backoff_millis(&reseeded, "run-a", 3) != backoff_millis(&policy, "run-a", 3)
        );
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injection_matches_on_substring_only() {
        let _serial = failpoint::test_lock();
        failpoint::disarm_all();
        failpoint::arm_matching("supervisor.attempt.panic", "VggLike-drill", 1);
        assert_eq!(
            run_supervised(&fast_policy(), "scenario ResnetLike-x", || 1),
            Ok(1)
        );
        let r = run_supervised(
            &SupervisorPolicy {
                max_attempts: 1,
                ..fast_policy()
            },
            "scenario VggLike-drill tau=4",
            || 1,
        );
        assert!(r.is_err());
        assert!(!failpoint::armed());
    }
}
