//! Persistent content-addressed run store: memoized [`RunTrace`]s on disk.
//!
//! The sweep engine already memoizes runs in memory for one process; this
//! module extends that memoization across processes. Every entry is a
//! single file under a cache directory (`results/cache/` by default),
//! addressed by the FNV-1a hash of the spec's semantic key, holding the
//! run's trace in the same explicit little-endian wire format the
//! checkpoint layer uses ([`pasgd_sim::checkpoint::write_run_trace`]).
//! Traces are bit-exact through the format, so a warm `reproduce_all`
//! writes byte-identical CSVs without re-simulating anything.
//!
//! The store is paranoid by construction: a load re-validates the magic,
//! the store format version, the code-semantics version, the full key
//! echo (so a hash collision or a stale entry for a different spec can
//! never be served), the payload length, and a CRC-32 of the payload
//! before it decodes a single trace point — and the decode itself is the
//! fully fallible checkpoint reader. Every failure mode degrades to
//! [`LoadOutcome::Rejected`] with a reason; the engine then evicts the
//! bad entry and recomputes. Nothing in this module panics on foreign
//! bytes.
//!
//! Writes go through a temporary file in the same directory (fsync'd
//! before the rename) followed by an atomic rename, so a
//! concurrently-read entry is always either the old complete frame or
//! the new complete frame, never a torn prefix.
//!
//! Every filesystem touch is also a [`crate::failpoint`] site —
//! `store.save.*`, `store.load.unreadable`, `store.park.*` — so drills
//! can force torn frames, flipped bits, orphaned temp files, and rename
//! failures at exact, deterministic moments. [`RunStore::gc`] is the
//! recovery half: it sweeps the directory for the debris those crashes
//! leave behind (orphaned `*.tmp.*` files, aged parked frames).

use crate::failpoint;
use binio::{crc32, fnv1a64, ByteReader, ByteWriter};
use pasgd_sim::checkpoint::{read_run_trace, write_run_trace};
use pasgd_sim::{RunCheckpoint, RunTrace};
use std::fs;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-process sequence for lock-claim scratch files, so two threads of
/// one process racing for the same lock never share a claim file.
static CLAIM_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` and fsyncs before returning, so a frame
/// reported as saved survives a power-cut-style crash (the directory
/// entry itself still rides on the later rename).
fn write_sync(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Layout version of the entry frame itself. Bump when the framing
/// (header fields, checksum, payload encoding) changes shape.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Version of the *simulation semantics* behind the cached traces. Any
/// change that can alter a trace for an unchanged spec key — optimizer
/// math, RNG streams, delay sampling, codec behaviour, recording cadence
/// — must bump this, which invalidates every existing entry at load
/// time (they reject cleanly and recompute).
pub const CODE_SEMANTICS_VERSION: u32 = 1;

/// Entry frame magic: **A**da**C**omm **R**un **S**tore.
const MAGIC: [u8; 4] = *b"ACRS";

/// Parked-checkpoint frame magic: **A**da**C**omm **P**ar**K**ed.
const PARK_MAGIC: [u8; 4] = *b"ACPK";

/// Outcome of [`RunStore::load`].
#[derive(Debug)]
pub enum LoadOutcome {
    /// The entry existed, validated end-to-end, and decoded.
    Hit(RunTrace),
    /// No entry on disk for this key — the ordinary cold-cache case.
    Absent,
    /// An entry existed but failed validation (truncated, bit-flipped,
    /// stale version, wrong key, unreadable). The reason says which
    /// check failed; the caller recomputes.
    Rejected(String),
}

/// Counters the engine keeps over its cache traffic, one count per
/// distinct spec key for the hit/miss split (repeat requests for an
/// already-resolved key count as memory hits regardless of where the
/// first resolution came from).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the in-process memoization map.
    pub mem_hits: usize,
    /// Distinct keys whose first resolution was a validated disk entry.
    pub disk_hits: usize,
    /// Distinct keys that had to be simulated.
    pub misses: usize,
    /// Disk entries that failed validation and were evicted (each such
    /// key is *also* counted as a miss once recomputed).
    pub rejects: usize,
}

/// A content-addressed directory of serialized run traces.
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
}

impl RunStore {
    /// A store rooted at `dir`. The directory is created lazily on the
    /// first successful save, so constructing a store never touches the
    /// filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RunStore { dir: dir.into() }
    }

    /// The default store location: `cache/` under the active results
    /// directory — `results/cache/` normally, `results/smoke/cache/`
    /// after `--smoke` redirects results, so smoke runs never read or
    /// pollute the real cache.
    pub fn default_dir() -> PathBuf {
        crate::report::results_dir().join("cache")
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an entry for `key` lives at: the FNV-1a 64-bit hash of
    /// the key, in hex, with a `.run` extension. The full key is echoed
    /// inside the frame, so hash collisions are detected at load time
    /// rather than silently served.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.run", fnv1a64(key.as_bytes())))
    }

    /// Loads and validates the entry for `key`. Never panics: anything
    /// short of a fully valid frame for exactly this key comes back as
    /// [`LoadOutcome::Rejected`] (or [`LoadOutcome::Absent`] when no
    /// file exists).
    pub fn load(&self, key: &str) -> LoadOutcome {
        let _phase = telemetry::span("phase.store_load");
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return LoadOutcome::Absent,
            Err(e) => return LoadOutcome::Rejected(format!("unreadable entry: {e}")),
        };
        if failpoint::fire("store.load.unreadable") {
            return LoadOutcome::Rejected(
                "unreadable entry: injected transient read failure".into(),
            );
        }
        telemetry::counter("store.loads").inc();
        telemetry::counter("store.load_bytes").add(bytes.len() as u64);
        match decode_entry(&bytes, key) {
            Ok(trace) => LoadOutcome::Hit(trace),
            Err(reason) => LoadOutcome::Rejected(reason),
        }
    }

    /// Serializes `trace` and installs it for `key` via a temp file and
    /// an atomic rename, so concurrent readers always see a complete
    /// frame.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory, the temp file
    /// or the rename fails. Callers treat a failed save as a non-event:
    /// the run already happened, the cache just stays cold.
    pub fn save(&self, key: &str, trace: &RunTrace) -> io::Result<PathBuf> {
        let _phase = telemetry::span("phase.store_save");
        if failpoint::fire("store.save.io_error") {
            return Err(io::Error::other("injected save failure (fault drill)"));
        }
        let path = self.entry_path(key);
        fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(
            "{:016x}.tmp.{}",
            fnv1a64(key.as_bytes()),
            std::process::id()
        ));
        let mut frame = encode_entry(key, trace);
        if failpoint::fire("store.save.corrupt") {
            let mid = frame.len() / 2;
            frame[mid] ^= 0x01;
        }
        if failpoint::fire("store.save.torn") {
            // A crash mid-write that bypassed the temp-file discipline:
            // half a frame at the final path, reported as success. The
            // CRC armor turns it into a structured reject at load time.
            let cut = frame.len() / 2;
            write_sync(&path, &frame[..cut])?;
            return Ok(path);
        }
        telemetry::counter("store.saves").inc();
        telemetry::counter("store.save_bytes").add(frame.len() as u64);
        write_sync(&tmp, &frame)?;
        if failpoint::fire("store.save.orphan_tmp") {
            // A crash between the temp write and the rename: the entry
            // never appears, the orphan waits for GC.
            return Err(io::Error::other(
                "injected crash before rename (orphan tmp left behind)",
            ));
        }
        if failpoint::fire("store.save.rename_fail") {
            let _ = fs::remove_file(&tmp);
            return Err(io::Error::other("injected rename failure"));
        }
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(path),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// [`RunStore::save`] with bounded retry for transient I/O failures
    /// (`max_attempts` total attempts, a short fixed pause between them —
    /// deterministic, no wall-clock randomness). The run already
    /// happened, so a save that still fails after the budget is reported
    /// to the caller, who treats the cache as cold rather than evicting
    /// or failing the run.
    ///
    /// # Errors
    ///
    /// Returns the last I/O error once every attempt failed.
    pub fn save_with_retry(
        &self,
        key: &str,
        trace: &RunTrace,
        max_attempts: u32,
    ) -> io::Result<PathBuf> {
        assert!(max_attempts >= 1);
        let mut last = None;
        for attempt in 1..=max_attempts {
            if attempt > 1 {
                telemetry::counter("store.save_retries").inc();
                std::thread::sleep(std::time::Duration::from_millis(5 * u64::from(attempt)));
            }
            match self.save(key, trace) {
                Ok(path) => return Ok(path),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Removes the entry for `key`, if any — how the engine clears a
    /// rejected (corrupt or stale) entry so the recomputed trace can be
    /// re-saved cleanly. Best-effort: removal errors are ignored.
    pub fn evict(&self, key: &str) {
        let _ = fs::remove_file(self.entry_path(key));
    }

    /// The writer lockfile guarding this store directory.
    pub fn lock_path(&self) -> PathBuf {
        self.dir.join(".lock")
    }

    /// Acquires the store's single-writer lock, identifying the holder as
    /// `owner` (a short label like `sweepd` or `reproduce_all`). The lock
    /// is a `create_new` lockfile containing `<pid> <owner>`; it prevents
    /// a running daemon and a concurrent batch reproduction from
    /// interleaving writes to the same cache directory.
    ///
    /// A lockfile left behind by a crashed process (the recorded pid no
    /// longer exists, or the contents are unreadable) is detected and
    /// reclaimed automatically — crash recovery needs no manual cleanup.
    /// Dropping the returned [`StoreLock`] releases the lock.
    ///
    /// Acquisition is race-free against concurrent reclaimers: the lock
    /// appears via `hard_link` from a pre-written claim file (atomic
    /// create-with-contents — the lockfile is never observable empty),
    /// and a stale lock is reclaimed by `rename`-ing it aside, which
    /// exactly one racer can win. The loser re-probes, finds the
    /// winner's fresh *live* lock, and fails fast — never two holders,
    /// and never a racer deleting the lock another racer just acquired.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::WouldBlock`] when another *live*
    /// process holds the lock (the error message names its pid and
    /// owner label), or with the underlying error when the lockfile
    /// cannot be created at all.
    pub fn lock(&self, owner: &str) -> io::Result<StoreLock> {
        fs::create_dir_all(&self.dir)?;
        let path = self.lock_path();
        let seq = CLAIM_SEQ.fetch_add(1, Ordering::SeqCst);
        let claim = self
            .dir
            .join(format!(".lock.claim.{}.{seq}", std::process::id()));
        fs::write(&claim, format!("{} {owner}", std::process::id()))?;
        let acquired = self.lock_from_claim(&path, &claim);
        let _ = fs::remove_file(&claim);
        acquired
    }

    /// The `hard_link`/probe/reclaim loop behind [`RunStore::lock`];
    /// `claim` already holds this caller's `<pid> <owner>` line.
    fn lock_from_claim(&self, path: &Path, claim: &Path) -> io::Result<StoreLock> {
        // Two reclaim rounds: a stale lock is renamed aside and the link
        // retried; losing the race twice to live holders is a genuine
        // conflict.
        for attempt in 0..3u32 {
            match fs::hard_link(claim, path) {
                Ok(()) => {
                    telemetry::counter("store.lock_acquisitions").inc();
                    return Ok(StoreLock {
                        path: path.to_path_buf(),
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let contents = fs::read_to_string(path).unwrap_or_default();
                    let mut parts = contents.split_whitespace();
                    let pid = parts.next().and_then(|p| p.parse::<u32>().ok());
                    let holder = parts.next().unwrap_or("unknown");
                    match pid {
                        Some(pid) if pid_alive(pid) => {
                            return Err(io::Error::new(
                                io::ErrorKind::WouldBlock,
                                format!(
                                    "store {} is locked by live process {pid} ({holder}); \
                                     wait for it to finish or remove {} if that pid is wrong",
                                    self.dir.display(),
                                    path.display()
                                ),
                            ));
                        }
                        _ => {
                            // Dead pid or garbage contents: a crashed
                            // writer never released it. Rename it aside —
                            // only one racer's rename succeeds, so a
                            // freshly re-acquired lock can never be
                            // deleted by a slow racer. Either way, retry
                            // the link.
                            let grave = self
                                .dir
                                .join(format!(".lock.stale.{}.{attempt}", std::process::id()));
                            if fs::rename(path, &grave).is_ok() {
                                telemetry::counter("store.lock_reclaims").inc();
                                let _ = fs::remove_file(&grave);
                            }
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            format!(
                "store {} lock contended: another process kept re-acquiring it mid-reclaim",
                self.dir.display()
            ),
        ))
    }

    /// The file a parked checkpoint for `key` lives at, under the
    /// `parked/` subdirectory (keyed like [`RunStore::entry_path`]).
    pub fn parked_path(&self, key: &str) -> PathBuf {
        self.dir
            .join("parked")
            .join(format!("{:016x}.park", fnv1a64(key.as_bytes())))
    }

    /// Parks a mid-run checkpoint for `key` — the resumable remainder of
    /// a run that was cancelled by a deadline or a drain. The frame
    /// carries the same magic/version/key-echo/CRC armor as a trace
    /// entry, and the payload itself is the self-validating
    /// [`RunCheckpoint::to_bytes`] frame. Written atomically
    /// (temp + rename).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers treat a failed park as
    /// lost progress, not a failed request.
    pub fn park(&self, key: &str, checkpoint: &RunCheckpoint) -> io::Result<PathBuf> {
        if failpoint::fire("store.park.io_error") {
            return Err(io::Error::other("injected park failure (fault drill)"));
        }
        let path = self.parked_path(key);
        let parked_dir = path.parent().expect("parked path has a parent");
        fs::create_dir_all(parked_dir)?;
        let tmp = parked_dir.join(format!(
            "{:016x}.tmp.{}",
            fnv1a64(key.as_bytes()),
            std::process::id()
        ));
        let payload = checkpoint.to_bytes();
        let mut w = ByteWriter::with_capacity(payload.len() + key.len() + 32);
        w.put_bytes(&PARK_MAGIC);
        w.put_u32(STORE_FORMAT_VERSION);
        w.put_u32(CODE_SEMANTICS_VERSION);
        w.put_str(key);
        w.put_u64(payload.len() as u64);
        w.put_u32(crc32(&payload));
        w.put_bytes(&payload);
        let frame = w.into_vec();
        if failpoint::fire("store.park.torn") {
            let cut = frame.len() / 2;
            write_sync(&path, &frame[..cut])?;
            return Ok(path);
        }
        telemetry::counter("store.parks").inc();
        telemetry::counter("store.park_bytes").add(frame.len() as u64);
        write_sync(&tmp, &frame)?;
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(path),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Loads and validates the parked checkpoint for `key`. Like
    /// [`RunStore::load`], never panics: every failure short of a fully
    /// valid frame for exactly this key is [`ParkedOutcome::Rejected`].
    pub fn load_parked(&self, key: &str) -> ParkedOutcome {
        let bytes = match fs::read(self.parked_path(key)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return ParkedOutcome::Absent,
            Err(e) => return ParkedOutcome::Rejected(format!("unreadable parked entry: {e}")),
        };
        match decode_parked(&bytes, key) {
            Ok(ck) => ParkedOutcome::Hit(Box::new(ck)),
            Err(reason) => ParkedOutcome::Rejected(reason),
        }
    }

    /// Removes the parked checkpoint for `key`, if any — called once the
    /// run completes (or the checkpoint proves unusable). Best-effort.
    pub fn unpark(&self, key: &str) {
        let _ = fs::remove_file(self.parked_path(key));
    }

    /// Garbage-collects crash debris from the store directory:
    ///
    /// * orphaned `*.tmp.*` files (a writer died between its temp write
    ///   and the rename) — always removed, in both the entry directory
    ///   and `parked/`;
    /// * leftover `.lock.claim.*` / `.lock.stale.*` scratch files older
    ///   than a minute (younger ones may belong to a lock acquisition in
    ///   flight right now);
    /// * parked checkpoint frames older than `parked_max_age` — a run
    ///   nobody re-requested for that long is abandoned, not paused.
    ///
    /// Call only while holding the store lock (the daemon does this at
    /// startup, and on demand via `sweepctl gc`): the lock guarantees no
    /// live writer owns any temp file we sweep. Errors on individual
    /// files are skipped, never fatal; the returned [`GcStats`] counts
    /// what was actually reclaimed.
    pub fn gc(&self, parked_max_age: Duration) -> GcStats {
        let mut stats = GcStats::default();
        let stale_scratch = Duration::from_secs(60);
        for entry in fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let aged = |limit: Duration| {
                entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age >= limit)
            };
            let reclaim = name.contains(".tmp.")
                || ((name.starts_with(".lock.claim.") || name.starts_with(".lock.stale."))
                    && aged(stale_scratch));
            if reclaim && fs::remove_file(entry.path()).is_ok() {
                stats.tmp_removed += 1;
            }
        }
        for entry in fs::read_dir(self.dir.join("parked"))
            .into_iter()
            .flatten()
            .flatten()
        {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.contains(".tmp.") {
                if fs::remove_file(entry.path()).is_ok() {
                    stats.tmp_removed += 1;
                }
            } else if name.ends_with(".park") {
                let expired = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age >= parked_max_age);
                if expired && fs::remove_file(entry.path()).is_ok() {
                    stats.parked_removed += 1;
                } else {
                    stats.parked_kept += 1;
                }
            }
        }
        telemetry::counter("store.gc_tmp_removed").add(stats.tmp_removed);
        telemetry::counter("store.gc_parked_removed").add(stats.parked_removed);
        stats
    }
}

/// What one [`RunStore::gc`] sweep reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Orphaned temp files and stale lock-scratch files removed.
    pub tmp_removed: u64,
    /// Parked checkpoint frames older than the age limit removed.
    pub parked_removed: u64,
    /// Parked frames younger than the limit, left for resumption.
    pub parked_kept: u64,
}

impl GcStats {
    /// Total files reclaimed — the `server.gc_orphans` counter value.
    pub fn reclaimed(&self) -> u64 {
        self.tmp_removed + self.parked_removed
    }
}

/// Outcome of [`RunStore::load_parked`].
#[derive(Debug)]
pub enum ParkedOutcome {
    /// A parked checkpoint existed, validated, and decoded.
    Hit(Box<RunCheckpoint>),
    /// No parked work for this key.
    Absent,
    /// A parked frame existed but failed validation; the caller removes
    /// it and runs fresh.
    Rejected(String),
}

/// Exclusive writer lease on a [`RunStore`] directory; see
/// [`RunStore::lock`]. Dropping it deletes the lockfile. A process that
/// exits without dropping (crash, `std::process::exit`) leaves a stale
/// file that the next `lock()` reclaims by pid liveness.
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    /// The lockfile this lease owns (tests and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Whether `pid` names a live process. Reads `/proc`; on systems without
/// procfs the holder is conservatively assumed alive (a stale lock then
/// needs manual removal, but a live writer is never stomped).
fn pid_alive(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    if !proc_root.exists() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

/// Validates and decodes one parked-checkpoint frame for `key`. The
/// outer frame mirrors [`decode_entry`]; the payload decode is the
/// fallible [`RunCheckpoint::from_bytes`].
fn decode_parked(bytes: &[u8], key: &str) -> Result<RunCheckpoint, String> {
    let mut r = ByteReader::new(bytes);
    let magic = r.bytes(4).map_err(|e| format!("truncated magic: {e:?}"))?;
    if magic != PARK_MAGIC {
        return Err(format!("bad parked magic {magic:02x?}"));
    }
    let format = r.u32().map_err(|e| format!("truncated header: {e:?}"))?;
    if format != STORE_FORMAT_VERSION {
        return Err(format!(
            "store format v{format}, this build reads v{STORE_FORMAT_VERSION}"
        ));
    }
    let semantics = r.u32().map_err(|e| format!("truncated header: {e:?}"))?;
    if semantics != CODE_SEMANTICS_VERSION {
        return Err(format!(
            "code semantics v{semantics}, this build is v{CODE_SEMANTICS_VERSION}"
        ));
    }
    let stored_key = r.str().map_err(|e| format!("unreadable key: {e:?}"))?;
    if stored_key != key {
        return Err("key mismatch (hash collision or stale rewrite)".into());
    }
    let payload_len = r.u64().map_err(|e| format!("truncated header: {e:?}"))? as usize;
    if payload_len != r.remaining().saturating_sub(4) {
        return Err(format!(
            "payload length {payload_len} disagrees with file size"
        ));
    }
    let stored_crc = r.u32().map_err(|e| format!("truncated header: {e:?}"))?;
    let payload = r
        .bytes(payload_len)
        .map_err(|e| format!("truncated payload: {e:?}"))?;
    if crc32(payload) != stored_crc {
        return Err("payload checksum mismatch".into());
    }
    RunCheckpoint::from_bytes(payload).map_err(|e| format!("undecodable checkpoint: {e}"))
}

/// Builds the full entry frame:
///
/// ```text
/// magic "ACRS" | store version u32 | code-semantics version u32
/// | key (len-prefixed UTF-8) | payload len u64 | crc32(payload) u32
/// | payload (write_run_trace)
/// ```
fn encode_entry(key: &str, trace: &RunTrace) -> Vec<u8> {
    let mut payload = ByteWriter::new();
    write_run_trace(&mut payload, trace);
    let payload = payload.into_vec();

    let mut w = ByteWriter::with_capacity(payload.len() + key.len() + 32);
    w.put_bytes(&MAGIC);
    w.put_u32(STORE_FORMAT_VERSION);
    w.put_u32(CODE_SEMANTICS_VERSION);
    w.put_str(key);
    w.put_u64(payload.len() as u64);
    w.put_u32(crc32(&payload));
    w.put_bytes(&payload);
    w.into_vec()
}

/// Validates and decodes one entry frame against the requested `key`.
/// Every check returns a reason instead of panicking.
fn decode_entry(bytes: &[u8], key: &str) -> Result<RunTrace, String> {
    let mut r = ByteReader::new(bytes);
    let magic = r.bytes(4).map_err(|e| format!("truncated magic: {e:?}"))?;
    if magic != MAGIC {
        return Err(format!("bad magic {magic:02x?}"));
    }
    let format = r.u32().map_err(|e| format!("truncated header: {e:?}"))?;
    if format != STORE_FORMAT_VERSION {
        return Err(format!(
            "store format v{format}, this build reads v{STORE_FORMAT_VERSION}"
        ));
    }
    let semantics = r.u32().map_err(|e| format!("truncated header: {e:?}"))?;
    if semantics != CODE_SEMANTICS_VERSION {
        return Err(format!(
            "code semantics v{semantics}, this build is v{CODE_SEMANTICS_VERSION}"
        ));
    }
    let stored_key = r.str().map_err(|e| format!("unreadable key: {e:?}"))?;
    if stored_key != key {
        // A hash collision or an entry rewritten under a different spec.
        return Err("key mismatch (hash collision or stale rewrite)".into());
    }
    let payload_len = r.u64().map_err(|e| format!("truncated header: {e:?}"))? as usize;
    if payload_len != r.remaining().saturating_sub(4) {
        return Err(format!(
            "payload length {payload_len} disagrees with file size"
        ));
    }
    let stored_crc = r.u32().map_err(|e| format!("truncated header: {e:?}"))?;
    let payload = r
        .bytes(payload_len)
        .map_err(|e| format!("truncated payload: {e:?}"))?;
    if crc32(payload) != stored_crc {
        return Err("payload checksum mismatch".into());
    }
    let mut pr = ByteReader::new(payload);
    let trace = read_run_trace(&mut pr).map_err(|e| format!("undecodable payload: {e:?}"))?;
    if !pr.is_empty() {
        return Err(format!("{} trailing payload bytes", pr.remaining()));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasgd_sim::TracePoint;

    fn sample_trace() -> RunTrace {
        RunTrace {
            name: "store-test".into(),
            points: vec![
                TracePoint {
                    clock: 1.5,
                    iterations: 10,
                    epoch: 0.25,
                    train_loss: f32::NAN,
                    test_accuracy: 0.5,
                    tau: 4,
                    lr: -0.0,
                    comm_bytes: 1024.0,
                },
                TracePoint {
                    clock: 3.0,
                    iterations: 20,
                    epoch: 0.5,
                    train_loss: 0.9,
                    test_accuracy: f64::INFINITY,
                    tau: 2,
                    lr: 0.05,
                    comm_bytes: 2048.0,
                },
            ],
            peak_payload_bytes: 512.0,
            rounds: 5,
        }
    }

    fn bits(t: &RunTrace) -> Vec<u64> {
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

    #[test]
    fn encode_decode_roundtrip_is_bit_exact() {
        let trace = sample_trace();
        let bytes = encode_entry("some|key", &trace);
        let back = decode_entry(&bytes, "some|key").unwrap();
        assert_eq!(back.name, trace.name);
        assert_eq!(bits(&back), bits(&trace));
    }

    #[test]
    fn wrong_key_is_rejected() {
        let bytes = encode_entry("key-a", &sample_trace());
        let err = decode_entry(&bytes, "key-b").unwrap_err();
        assert!(err.contains("key mismatch"), "{err}");
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_entry("k", &sample_trace());
        for cut in 0..bytes.len() {
            assert!(
                decode_entry(&bytes[..cut], "k").is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected_or_detected() {
        // Flipping any bit anywhere in the frame must never produce a
        // *silent* wrong trace: either a validation error fires, or the
        // flip didn't survive (impossible — every byte is covered by
        // magic, versions, key echo, length, or CRC).
        let trace = sample_trace();
        let bytes = encode_entry("k", &trace);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_entry(&bad, "k").is_err(),
                    "flip at byte {byte} bit {bit} decoded silently"
                );
            }
        }
    }

    #[test]
    fn zero_length_is_rejected() {
        assert!(decode_entry(&[], "k").is_err());
    }

    // Saves in different tests race on the process-global failpoints;
    // every test that saves takes the shared failpoint test lock.

    #[cfg(feature = "failpoints")]
    #[test]
    fn save_with_retry_recovers_from_injected_io_errors() {
        let _serial = failpoint::test_lock();
        failpoint::disarm_all();
        let dir = std::env::temp_dir().join(format!("adacomm_store_retry_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::new(&dir);
        let trace = sample_trace();

        // Two injected failures, three attempts: the third succeeds.
        failpoint::arm("store.save.io_error", 2);
        store.save_with_retry("rk", &trace, 3).unwrap();
        assert!(matches!(store.load("rk"), LoadOutcome::Hit(_)));

        // More failures than attempts: the error surfaces, nothing is
        // written, and the caller's cache simply stays cold.
        failpoint::arm("store.save.io_error", 3);
        let err = store.save_with_retry("rk2", &trace, 3).unwrap_err();
        assert!(err.to_string().contains("injected save failure"), "{err}");
        assert!(!failpoint::armed(), "every injected failure was consumed");
        assert!(matches!(store.load("rk2"), LoadOutcome::Absent));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_excludes_second_writer_and_releases_on_drop() {
        let dir = std::env::temp_dir().join(format!("adacomm_store_lock_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::new(&dir);

        let lock = store.lock("first-writer").unwrap();
        assert!(lock.path().exists());
        // Our own pid is alive, so a second writer must be refused with a
        // message naming the holder.
        let err = store.lock("second-writer").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        let msg = err.to_string();
        assert!(msg.contains("first-writer"), "{msg}");
        assert!(msg.contains(&std::process::id().to_string()), "{msg}");

        drop(lock);
        // Released: the next writer acquires cleanly.
        let relock = store.lock("second-writer").unwrap();
        drop(relock);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_crashed_process_is_reclaimed() {
        let dir =
            std::env::temp_dir().join(format!("adacomm_store_reclaim_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::new(&dir);
        fs::create_dir_all(&dir).unwrap();

        // A pid far above any real pid_max: the "crashed writer" cannot
        // exist, so its lock is stale by construction.
        fs::write(store.lock_path(), "4000000000 crashed-daemon").unwrap();
        let lock = store
            .lock("survivor")
            .expect("stale lock must be reclaimed");
        let contents = fs::read_to_string(lock.path()).unwrap();
        assert!(
            contents.starts_with(&std::process::id().to_string()),
            "reclaimed lock must name the new holder: {contents}"
        );
        drop(lock);

        // Garbage contents (no pid at all) are also treated as stale.
        fs::write(store.lock_path(), "not-a-pid at all").unwrap();
        let lock = store.lock("survivor2").expect("garbage lock is stale");
        drop(lock);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_reclaim_race_has_exactly_one_winner() {
        // Two threads race to reclaim the same dead-pid lock. The rename
        // reclaim admits exactly one winner per round; the loser fails
        // fast with WouldBlock and the winner's lockfile survives intact.
        let dir =
            std::env::temp_dir().join(format!("adacomm_store_lock_race_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let store = RunStore::new(&dir);

        for round in 0..25 {
            fs::write(store.lock_path(), "4000000000 crashed-daemon").unwrap();
            let start = std::sync::Barrier::new(2);
            let settled = std::sync::Barrier::new(2);
            let (a, b) = std::thread::scope(|s| {
                let racer = |label: &'static str| {
                    let store = RunStore::new(&dir);
                    let (start, settled) = (&start, &settled);
                    s.spawn(move || {
                        start.wait();
                        let outcome = store.lock(label);
                        // A winner holds its lock until the other racer's
                        // attempt has finished, so the loser always probes
                        // a live holder — no accidental handoff.
                        settled.wait();
                        outcome.map(drop)
                    })
                };
                let a = racer("racer-a");
                let b = racer("racer-b");
                (a.join().unwrap(), b.join().unwrap())
            });
            let winners = [&a, &b].iter().filter(|r| r.is_ok()).count();
            assert_eq!(winners, 1, "round {round}: got {a:?} / {b:?}");
            let loser = if a.is_err() { a } else { b };
            assert_eq!(
                loser.unwrap_err().kind(),
                io::ErrorKind::WouldBlock,
                "round {round}: loser must fail fast with WouldBlock"
            );
            assert!(
                !store.lock_path().exists(),
                "round {round}: winner's drop must have released the lock"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_sweeps_orphans_and_aged_parked_frames() {
        let dir = std::env::temp_dir().join(format!("adacomm_store_gc_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::new(&dir);
        fs::create_dir_all(dir.join("parked")).unwrap();

        fs::write(dir.join("0123456789abcdef.tmp.999"), b"orphan").unwrap();
        fs::write(dir.join("parked").join("fedcba.tmp.999"), b"orphan").unwrap();
        fs::write(dir.join("parked").join("00aa.park"), b"aged frame").unwrap();
        fs::write(dir.join(".lock"), "1 live-holder").unwrap();
        fs::write(dir.join("journal.log"), b"keep me").unwrap();
        fs::write(dir.join("0123456789abcdef.run"), b"keep me").unwrap();

        // Generous age limit: parked frames are kept, orphan tmps go.
        let stats = store.gc(Duration::from_secs(3600));
        assert_eq!(stats.tmp_removed, 2, "{stats:?}");
        assert_eq!(stats.parked_removed, 0, "{stats:?}");
        assert_eq!(stats.parked_kept, 1, "{stats:?}");

        // Zero age limit: the parked frame is abandoned debris too.
        let stats = store.gc(Duration::ZERO);
        assert_eq!(stats.parked_removed, 1, "{stats:?}");
        assert_eq!(stats.reclaimed(), 1, "{stats:?}");

        assert!(dir.join(".lock").exists(), "gc must never touch the lock");
        assert!(
            dir.join("journal.log").exists(),
            "gc must spare the journal"
        );
        assert!(dir.join("0123456789abcdef.run").exists(), "entries stay");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parked_checkpoints_absent_rejected_and_unparked() {
        let dir = std::env::temp_dir().join(format!("adacomm_store_park_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::new(&dir);

        assert!(matches!(store.load_parked("pk"), ParkedOutcome::Absent));

        // Foreign bytes at the parked path must reject, never panic.
        let path = store.parked_path("pk");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, b"ACPKgarbage").unwrap();
        match store.load_parked("pk") {
            ParkedOutcome::Rejected(reason) => {
                assert!(reason.contains("store format"), "{reason}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }

        store.unpark("pk");
        assert!(matches!(store.load_parked("pk"), ParkedOutcome::Absent));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_evict_cycle() {
        let _serial = failpoint::test_lock();
        let dir = std::env::temp_dir().join(format!("adacomm_store_unit_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::new(&dir);
        let trace = sample_trace();

        assert!(matches!(store.load("k"), LoadOutcome::Absent));
        store.save("k", &trace).unwrap();
        match store.load("k") {
            LoadOutcome::Hit(t) => assert_eq!(bits(&t), bits(&trace)),
            other => panic!("expected hit, got {other:?}"),
        }
        store.evict("k");
        assert!(matches!(store.load("k"), LoadOutcome::Absent));
        let _ = fs::remove_dir_all(&dir);
    }
}
