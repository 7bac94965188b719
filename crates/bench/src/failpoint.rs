//! Deterministic, seeded failpoints: named fault-injection sites that
//! tests, drills, and CI arm by name — through the API or the
//! `ADACOMM_FAILPOINTS` environment variable — to force a specific
//! failure at a specific moment.
//!
//! A failpoint is a *site* in production code (`failpoint::fire("name")`)
//! plus an optional *arming* (`skip` hits pass through, then `count` hits
//! trigger). Sites that know what they are working on fire with a label
//! (`failpoint::fire_for("name", label)`), and [`arm_matching`] arms such
//! a site for labels containing a substring only: non-matching hits pass
//! through without consuming the arming. Unarmed sites cost one relaxed
//! atomic load; with the `failpoints` cargo feature off (it is on by
//! default, like `trace`) every function in this module is a no-op on
//! nothing, mirroring the telemetry ZST discipline: a build that never
//! heard of failpoints is byte-identical in behaviour.
//!
//! Arming is deterministic — no wall-clock, no RNG. A drill that arms
//! `store.save.torn=1` gets a torn write on exactly the first save, every
//! time, which is what lets the chaos drills in CI assert exact recovery
//! behaviour instead of "usually recovers".
//!
//! # Registered sites
//!
//! | name | effect at the site |
//! |---|---|
//! | `store.save.io_error` | save fails before touching the filesystem |
//! | `store.save.corrupt` | one bit of the frame flips before writing (CRC catches it at load) |
//! | `store.save.torn` | a truncated frame lands at the *final* path and save reports success |
//! | `store.save.orphan_tmp` | the temp file is written, then save fails before the rename (orphan left for GC) |
//! | `store.save.rename_fail` | the atomic rename fails (temp cleaned up) |
//! | `store.load.unreadable` | load reports a transient `unreadable entry` (exercises the engine's read retry) |
//! | `store.park.io_error` | parking a checkpoint fails |
//! | `store.park.torn` | a truncated parked frame lands at the final path and park reports success |
//! | `server.journal.io_error` | a journal append fails (the daemon warns and keeps serving) |
//! | `server.request.abort` | the process aborts as a worker starts executing a run (SIGKILL-equivalent) |
//! | `server.journal.post_append_abort` | the process aborts right after an accepted request is journaled |
//! | `supervisor.attempt.panic` | a supervised attempt panics at entry (retried under the policy); labelled with the run's spec key |
//!
//! The table is the contract: [`init_from_env`] rejects names not listed
//! here, so a typo in a CI job fails fast instead of silently arming
//! nothing.

/// Every site name production code fires. Kept in one place so env
/// parsing can reject typos.
pub const KNOWN_SITES: &[&str] = &[
    "store.save.io_error",
    "store.save.corrupt",
    "store.save.torn",
    "store.save.orphan_tmp",
    "store.save.rename_fail",
    "store.load.unreadable",
    "store.park.io_error",
    "store.park.torn",
    "server.journal.io_error",
    "server.request.abort",
    "server.journal.post_append_abort",
    "supervisor.attempt.panic",
];

/// Environment variable [`init_from_env`] reads:
/// `name=count` or `name=skip:count` entries separated by `;` or `,`.
pub const ENV_VAR: &str = "ADACOMM_FAILPOINTS";

#[cfg(feature = "failpoints")]
mod live {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Mutex;

    /// Sum of every armed spec's remaining trigger count: the fast path.
    /// `fire` is one relaxed load when nothing is armed anywhere.
    static ARMED_TOTAL: AtomicU32 = AtomicU32::new(0);

    struct Spec {
        skip: u32,
        count: u32,
        /// Only hits whose label contains this substring count.
        filter: Option<String>,
    }

    struct State {
        armed: HashMap<String, Spec>,
        fired: Vec<String>,
    }

    static STATE: Mutex<Option<State>> = Mutex::new(None);

    fn with_state<T>(f: impl FnOnce(&mut State) -> T) -> T {
        let mut guard = match STATE.lock() {
            Ok(guard) => guard,
            // A panic *inside a failpoint-armed site* (that is the point
            // of `supervisor.attempt.panic`) can poison this lock; the
            // state itself is still coherent.
            Err(poisoned) => poisoned.into_inner(),
        };
        let state = guard.get_or_insert_with(|| State {
            armed: HashMap::new(),
            fired: Vec::new(),
        });
        f(state)
    }

    /// Arms `name` to trigger on its next `count` hits after `skip`
    /// pass-through hits. Re-arming an already-armed site replaces the
    /// previous spec.
    pub fn arm_after(name: &str, skip: u32, count: u32) {
        arm_spec(name, skip, count, None);
    }

    /// Arms `name` to trigger on its next `count` hits whose label
    /// contains `substr` (see [`fire_for`]); other hits pass through
    /// untouched. `u32::MAX` effectively means "always".
    pub fn arm_matching(name: &str, substr: &str, count: u32) {
        arm_spec(name, 0, count, Some(substr.to_string()));
    }

    fn arm_spec(name: &str, skip: u32, count: u32, filter: Option<String>) {
        with_state(|state| {
            let previous = state
                .armed
                .insert(
                    name.to_string(),
                    Spec {
                        skip,
                        count,
                        filter,
                    },
                )
                .map_or(0, |s| s.count);
            // Keep the fast-path total equal to the sum of counts.
            if count > previous {
                ARMED_TOTAL.fetch_add(count - previous, Ordering::SeqCst);
            } else {
                ARMED_TOTAL.fetch_sub(previous - count, Ordering::SeqCst);
            }
        });
    }

    /// Disarms everything and clears the fired log (test isolation).
    pub fn disarm_all() {
        with_state(|state| {
            state.armed.clear();
            state.fired.clear();
            ARMED_TOTAL.store(0, Ordering::SeqCst);
        });
    }

    /// One production hit on the site `name`. Returns `true` when the
    /// armed spec elects this hit to fail.
    pub fn fire(name: &str) -> bool {
        fire_for(name, "")
    }

    /// [`fire`] for a site working on `label`: a spec armed with
    /// [`arm_matching`] only counts hits whose label contains its
    /// substring.
    pub fn fire_for(name: &str, label: &str) -> bool {
        if ARMED_TOTAL.load(Ordering::Relaxed) == 0 {
            return false;
        }
        with_state(|state| {
            let Some(spec) = state.armed.get_mut(name) else {
                return false;
            };
            if spec
                .filter
                .as_deref()
                .is_some_and(|substr| !label.contains(substr))
            {
                return false;
            }
            if spec.skip > 0 {
                spec.skip -= 1;
                return false;
            }
            if spec.count == 0 {
                return false;
            }
            spec.count -= 1;
            if spec.count == 0 {
                state.armed.remove(name);
            }
            ARMED_TOTAL.fetch_sub(1, Ordering::SeqCst);
            state.fired.push(name.to_string());
            telemetry::counter("failpoint.fired").inc();
            true
        })
    }

    /// Drains the ordered log of failpoints that actually fired —
    /// drills assert on it to prove the injected fault happened.
    pub fn take_fired() -> Vec<String> {
        with_state(|state| std::mem::take(&mut state.fired))
    }

    /// Whether any failpoint is currently armed (fast, approximate).
    pub fn armed() -> bool {
        ARMED_TOTAL.load(Ordering::Relaxed) != 0
    }
}

#[cfg(feature = "failpoints")]
pub use live::{arm_after, arm_matching, armed, disarm_all, fire, fire_for, take_fired};

#[cfg(not(feature = "failpoints"))]
mod stub {
    /// No-op: the `failpoints` feature is off.
    pub fn arm_after(_name: &str, _skip: u32, _count: u32) {}
    /// No-op: the `failpoints` feature is off.
    pub fn arm_matching(_name: &str, _substr: &str, _count: u32) {}
    /// No-op: the `failpoints` feature is off.
    pub fn disarm_all() {}
    /// Always `false`: the `failpoints` feature is off.
    #[inline(always)]
    pub fn fire(_name: &str) -> bool {
        false
    }
    /// Always `false`: the `failpoints` feature is off.
    #[inline(always)]
    pub fn fire_for(_name: &str, _label: &str) -> bool {
        false
    }
    /// Always empty: the `failpoints` feature is off.
    pub fn take_fired() -> Vec<String> {
        Vec::new()
    }
    /// Always `false`: the `failpoints` feature is off.
    #[inline(always)]
    pub fn armed() -> bool {
        false
    }
}

#[cfg(not(feature = "failpoints"))]
pub use stub::{arm_after, arm_matching, armed, disarm_all, fire, fire_for, take_fired};

/// Arms `name` to trigger on its next `count` hits.
pub fn arm(name: &str, count: u32) {
    arm_after(name, 0, count);
}

/// Fires the site and, when it triggers, aborts the whole process — the
/// deterministic stand-in for SIGKILL at an exact code location. The
/// abort is announced on stderr first so a chaos drill's log shows
/// *which* failpoint killed the process.
pub fn abort_if(name: &str) {
    if fire(name) {
        eprintln!("failpoint {name}: aborting process (chaos drill)");
        std::process::abort();
    }
}

/// Arms every failpoint listed in [`ENV_VAR`] (`name=count` or
/// `name=skip:count`, separated by `;` or `,`). Returns the number of
/// sites armed.
///
/// # Errors
///
/// Returns a message naming the offending entry when a name is not in
/// [`KNOWN_SITES`] or a count fails to parse — callers (the daemon)
/// refuse to start rather than run a drill with a silently-unarmed
/// failpoint.
pub fn init_from_env() -> Result<usize, String> {
    let Ok(raw) = std::env::var(ENV_VAR) else {
        return Ok(0);
    };
    init_from_spec(&raw)
}

/// [`init_from_env`] on an explicit spec string (tests, and the daemon's
/// startup log which echoes what it armed).
///
/// # Errors
///
/// Same contract as [`init_from_env`].
pub fn init_from_spec(raw: &str) -> Result<usize, String> {
    let mut armed_count = 0;
    for entry in raw.split([';', ',']) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, spec) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry {entry:?} is not name=count"))?;
        let name = name.trim();
        if !KNOWN_SITES.contains(&name) {
            return Err(format!(
                "unknown failpoint {name:?}; known sites: {}",
                KNOWN_SITES.join(", ")
            ));
        }
        let parse = |v: &str| {
            v.trim()
                .parse::<u32>()
                .map_err(|_| format!("failpoint {name}: bad count {v:?}"))
        };
        let (skip, count) = match spec.split_once(':') {
            Some((skip, count)) => (parse(skip)?, parse(count)?),
            None => (0, parse(spec)?),
        };
        arm_after(name, skip, count);
        armed_count += 1;
    }
    Ok(armed_count)
}

/// Serializes the unit tests that arm the process-global failpoints, or
/// hit sites another test may have armed (this module's, the store's and
/// the supervisor's). Poisoning is ignored: a failed test must not fail
/// the others.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_fire() {
        let _serial = test_lock();
        disarm_all();
        assert!(!armed());
        assert!(!fire("store.save.io_error"));
        assert!(take_fired().is_empty());
    }

    #[test]
    fn skip_then_count_semantics() {
        let _serial = test_lock();
        disarm_all();
        arm_after("store.save.io_error", 2, 2);
        let hits: Vec<bool> = (0..6).map(|_| fire("store.save.io_error")).collect();
        assert_eq!(hits, [false, false, true, true, false, false]);
        assert_eq!(take_fired().len(), 2);
        assert!(!armed(), "exhausted spec must clear the fast path");
        disarm_all();
    }

    #[test]
    fn rearming_replaces_and_other_sites_are_untouched() {
        let _serial = test_lock();
        disarm_all();
        arm("store.save.torn", 5);
        arm("store.save.torn", 1);
        assert!(fire("store.save.torn"));
        assert!(!fire("store.save.torn"), "re-arm must replace, not add");
        assert!(!fire("store.save.corrupt"));
        disarm_all();
    }

    #[test]
    fn env_spec_parses_and_rejects_typos() {
        let _serial = test_lock();
        disarm_all();
        let n = init_from_spec("store.save.torn=1; store.load.unreadable=2:1").unwrap();
        assert_eq!(n, 2);
        assert!(armed());
        disarm_all();

        let err = init_from_spec("store.save.tron=1").unwrap_err();
        assert!(err.contains("unknown failpoint"), "{err}");
        let err = init_from_spec("store.save.torn=banana").unwrap_err();
        assert!(err.contains("bad count"), "{err}");
        let err = init_from_spec("just-a-name").unwrap_err();
        assert!(err.contains("name=count"), "{err}");
        disarm_all();
    }
}
