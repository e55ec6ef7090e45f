//! The durable persistence plane: checkpoint segments + the journal-as-WAL.
//!
//! Everything the store holds lives in memory; this module makes a restart
//! survivable. Two artifacts, both hand-framed over `kf_yaml::binary`:
//!
//! * **Checkpoint** (`store.seg-NN.kfsnap` per store shard, committed by
//!   `store.kfmanifest`) — each segment is a dump of one shard's
//!   `Arc<StoredObject>` handles: magic, CRC-32 seal, shard, horizon, then
//!   `(resource_version, body)` per object. Every file is written to a temp
//!   name and atomically renamed, so a crash mid-checkpoint never leaves a
//!   partial segment or manifest visible.
//! * **Write-ahead log** (`store.kfwal`) — the promotion of the watch
//!   journal's publication stream to disk: every store write appends one
//!   framed [`WalRecord`] (length + CRC-32 + payload) **while the written
//!   object's store-shard lock is held**, so the log preserves per-object
//!   write order exactly as the journal does. The fsync cadence is a
//!   [`FsyncPolicy`].
//!
//! All file traffic goes through a [`StorageIo`] seam, so tests and the
//! chaos workload can run the identical code over a
//! [`crate::storage_io::FaultyIo`] with deterministic fault schedules.
//!
//! **Recovery** ([`Persistence::open`]) loads the segments, replays the WAL
//! suffix, seeds the store at the recovered revision and seals every watch
//! journal's compaction horizon there — a watcher resuming with a pre-crash
//! cursor below the horizon gets the same `410 Gone` → re-list contract that
//! in-memory compaction already enforces, while a cursor at the recovered
//! revision streams on seamlessly. Replay is guarded by revision
//! (`record.revision > stored.resource_version`), so overlapping
//! snapshot/WAL windows are idempotent and replay order only matters per
//! key — which per-key order the shard-lock append discipline guarantees.
//! A corrupt segment or manifest is **quarantined** (renamed to `.corrupt`)
//! and boot recovers from what remains instead of refusing to start.
//!
//! **The recovery invariant:** after `open`, the store state equals the
//! pre-crash state at the last fsync'd revision ([`Wal::durable_revision`]).
//! With [`FsyncPolicy::Always`] and [`FsyncPolicy::Group`] that is the last
//! acknowledged write; with `Os` the loss window is whatever the page cache
//! held. A torn or bit-flipped WAL tail (the crash landed mid-`write`) fails
//! its frame CRC and is **cleanly truncated**, never replayed and never a
//! panic.
//!
//! **Degradation** is a state machine, not a latch: an append or fsync
//! failure moves the WAL `Healthy → Degraded`, where later appends buffer
//! their frames and a capped-exponential-backoff retry first repairs the
//! file tail (truncate to the last fully-written frame — re-appending
//! without the truncate would park duplicate frames behind a torn one and
//! silently drop them at replay), then rewrites the pending frames and
//! proves health with one fsync. Too many consecutive failures move it
//! `Degraded → FailStop`, where appends are dropped and counted. In every
//! state `durable_revision` advances only on a successful fsync of
//! successfully written frames, so it **never overstates** stable storage;
//! the durability gap ([`Wal::durability_gap`]) is the operator-visible
//! size of the at-risk window. How the serving path reacts is the server's
//! [`crate::DegradePolicy`]. See `docs/robustness.md`.
//!
//! **Compaction** ([`Persistence::checkpoint`]) snapshots at the current
//! revision horizon and rewrites the WAL keeping only records above it —
//! the same horizon discipline the in-memory journals apply per sub-shard,
//! extended to disk, with bounded retry around the whole attempt.
//! See `docs/persistence.md` for the byte layouts.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use k8s_model::{K8sObject, ResourceKind};
use kf_yaml::binary::{self, Cursor};
use kf_yaml::Value;

use crate::storage_io::{RealIo, StorageFile, StorageIo};
use crate::store::{ObjectStore, StoreBackend, StoredObject};
use crate::sync::{Condvar, Mutex};
use crate::watch::WatchEventKind;

/// Write-ahead-log file name inside a persistence directory.
pub const WAL_FILE: &str = "store.kfwal";
/// AOT-compiled validator arena file name (written by the policy plane —
/// see `kubefence::aot` — but named here so the persistence directory
/// layout is defined in one place).
pub const AOT_ARENA_FILE: &str = "validators.kfaot";

/// Magic sealing a per-shard snapshot segment file (8 bytes, versioned).
const SEGMENT_MAGIC: &[u8; 8] = b"KFSEG1\0\0";
/// Magic sealing a snapshot manifest file.
const MANIFEST_MAGIC: &[u8; 8] = b"KFMAN1\0\0";

/// Manifest file naming the live snapshot segments and their horizon.
pub const MANIFEST_FILE: &str = "store.kfmanifest";
/// Previous manifest, kept through rotation so a torn current manifest
/// falls back to the last complete one instead of refusing boot.
pub const MANIFEST_PREV_FILE: &str = "store.kfmanifest.prev";

/// File name of one store shard's snapshot segment.
pub fn segment_file(shard: usize) -> String {
    format!("store.seg-{shard:02}.kfsnap")
}

/// Default group-commit fill window for `FsyncPolicy::parse("group")`.
const GROUP_DEFAULT_WAIT_US: u32 = 400;
/// Default group-commit batch cap for `FsyncPolicy::parse("group")`.
const GROUP_DEFAULT_BATCH: u32 = 64;
/// Safety re-check interval for parked group-commit followers: wakeups
/// normally arrive from the leader's generation bump, but `sync()` and
/// tail recovery can advance the synced position without holding the group
/// lock, so followers re-check on a coarse timer rather than trusting every
/// path to notify.
const GROUP_FOLLOWER_SLICE: Duration = Duration::from_millis(5);

/// When the WAL forces data to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append — the acknowledged-write-is-durable
    /// contract etcd ships with. Slowest, loses nothing.
    Always,
    /// Never `fsync`; the OS flushes the page cache on its own schedule.
    /// Fastest, loses whatever the cache held on a hard crash.
    Os,
    /// Group commit: every writer appends its frame under the WAL lock,
    /// then parks on the commit generation; one elected leader issues a
    /// single fsync covering every waiter in the window. `Always`-grade
    /// semantics (an acknowledged write is on stable storage;
    /// `durable_revision` never overstates; a failed shared fsync degrades
    /// *all* waiters) at a fraction of the fsync count under concurrency.
    Group {
        /// Longest the leader holds the fill window open waiting for more
        /// writers, in microseconds. `0` closes the window immediately —
        /// pure pipelined leader/follower handoff with no added latency
        /// (and `Always`-identical fsync cadence for a single writer,
        /// which is what the deterministic chaos schedules use).
        max_wait_us: u32,
        /// Close the window as soon as this many records are pending
        /// (clamped to at least 1).
        max_batch: u32,
    },
}

impl FsyncPolicy {
    /// Parse a policy from its spelling: `always`, `os`, or `group` |
    /// `group:WAIT_US` | `group:WAIT_US:BATCH` (used by the workload
    /// drivers and the end-to-end benchmark).
    pub fn parse(text: &str) -> Option<FsyncPolicy> {
        match text {
            "always" => Some(FsyncPolicy::Always),
            "os" => Some(FsyncPolicy::Os),
            "group" => Some(FsyncPolicy::Group {
                max_wait_us: GROUP_DEFAULT_WAIT_US,
                max_batch: GROUP_DEFAULT_BATCH,
            }),
            _ => {
                let spec = text.strip_prefix("group:")?;
                let (wait, batch) = match spec.split_once(':') {
                    Some((wait, batch)) => (wait.parse().ok()?, batch.parse().ok()?),
                    None => (spec.parse().ok()?, GROUP_DEFAULT_BATCH),
                };
                Some(FsyncPolicy::Group {
                    max_wait_us: wait,
                    max_batch: batch,
                })
            }
        }
    }
}

/// How the WAL retries after an I/O failure, and when it gives up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First backoff delay; doubles per consecutive failure.
    pub base: Duration,
    /// Ceiling on the backoff delay.
    pub cap: Duration,
    /// Consecutive failures after which the WAL moves
    /// `Degraded → FailStop` (clamped to at least 1).
    pub fail_stop_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(100),
            fail_stop_after: 8,
        }
    }
}

impl RetryPolicy {
    /// A policy with no backoff delay — every append retries immediately.
    /// Deterministic for tests and the chaos sweep (recovery attempts are
    /// driven purely by operation order, never by wall-clock timing).
    pub fn immediate(fail_stop_after: u32) -> Self {
        RetryPolicy {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            fail_stop_after,
        }
    }

    /// The capped exponential backoff after `failures` consecutive failures.
    fn backoff(&self, failures: u32) -> Duration {
        let shift = failures.saturating_sub(1).min(16);
        self.base.saturating_mul(1u32 << shift).min(self.cap)
    }
}

/// Where and how a store persists.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding the snapshot and WAL files (created on open).
    pub dir: PathBuf,
    /// Fsync cadence of the WAL.
    pub fsync: FsyncPolicy,
    /// Watch-journal capacity per sub-shard of the recovered store (see
    /// [`ObjectStore::with_journal_capacity`]; 0 means the default).
    pub journal_capacity: usize,
    /// Retry/backoff/fail-stop policy of the durability state machine.
    pub retry: RetryPolicy,
}

impl PersistConfig {
    /// A config persisting under `dir` with [`FsyncPolicy::Always`] and
    /// default journal geometry.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            journal_capacity: 0,
            retry: RetryPolicy::default(),
        }
    }

    /// The same config with a different fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// The same config with a different retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// One write, as the WAL records it — the durable twin of the journal's
/// publication envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The revision the journal assigned to this write.
    pub revision: u64,
    /// The written object's kind.
    pub kind: ResourceKind,
    /// `Added`, `Modified` or `Deleted` (bookmarks are watch-wire sugar and
    /// never logged).
    pub op: WatchEventKind,
    /// The object's namespace.
    pub namespace: String,
    /// The object's name.
    pub name: String,
    /// The written tree — shared with the store, not copied. `None` for
    /// deletions: replay only needs the key to remove.
    pub body: Option<Arc<Value>>,
}

const OP_ADDED: u8 = 0;
const OP_MODIFIED: u8 = 1;
const OP_DELETED: u8 = 2;

impl WalRecord {
    fn op_tag(&self) -> u8 {
        match self.op {
            WatchEventKind::Added => OP_ADDED,
            WatchEventKind::Modified => OP_MODIFIED,
            WatchEventKind::Deleted => OP_DELETED,
            // Bookmarks are synthesized on the watch wire, never written to
            // the store, so a bookmark here is a logic error upstream; the
            // log treats it as a no-op modification of nothing.
            WatchEventKind::Bookmark => OP_MODIFIED,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        binary::put_u64(out, self.revision);
        binary::put_u8(out, self.kind.index() as u8);
        binary::put_u8(out, self.op_tag());
        binary::put_str(out, &self.namespace);
        binary::put_str(out, &self.name);
        match &self.body {
            Some(body) => {
                binary::put_u8(out, 1);
                binary::put_value(out, body);
            }
            None => binary::put_u8(out, 0),
        }
    }

    /// Append this record as one framed entry: `len | crc32 | payload`.
    fn encode_frame(&self, out: &mut Vec<u8>) {
        let mut payload = Vec::with_capacity(64);
        self.encode_payload(&mut payload);
        binary::put_u32(out, payload.len() as u32);
        binary::put_u32(out, binary::crc32(&payload));
        out.extend_from_slice(&payload);
    }

    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let mut cursor = Cursor::new(payload);
        let revision = cursor.get_u64().ok()?;
        let kind_index = cursor.get_u8().ok()? as usize;
        let kind = *ResourceKind::ALL.get(kind_index)?;
        let op = match cursor.get_u8().ok()? {
            OP_ADDED => WatchEventKind::Added,
            OP_MODIFIED => WatchEventKind::Modified,
            OP_DELETED => WatchEventKind::Deleted,
            _ => return None,
        };
        let namespace = cursor.get_str().ok()?;
        let name = cursor.get_str().ok()?;
        let body = match cursor.get_u8().ok()? {
            0 => None,
            1 => Some(Arc::new(cursor.get_value().ok()?)),
            _ => return None,
        };
        if !cursor.is_empty() {
            return None;
        }
        Some(WalRecord {
            revision,
            kind,
            op,
            namespace,
            name,
            body,
        })
    }
}

/// What the WAL reader found past the last intact frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Byte length of the intact prefix (the truncation point).
    pub valid_len: u64,
    /// How many trailing bytes failed framing or checksum.
    pub dropped_bytes: u64,
}

/// A decoded WAL: every intact record plus what was cut from the tail.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// The intact records, in append (file) order.
    pub records: Vec<WalRecord>,
    /// `Some` when the file ended in a torn or corrupt frame.
    pub torn: Option<TornTail>,
}

fn decode_wal_bytes(bytes: &[u8]) -> WalReplay {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            return WalReplay {
                records,
                torn: None,
            };
        }
        // A frame needs its 8-byte header, the announced payload, a CRC
        // match and a clean payload decode; the first failure marks the torn
        // tail and ends the replay — later bytes are unframeable noise.
        let torn = WalReplay {
            records: Vec::new(),
            torn: Some(TornTail {
                valid_len: offset as u64,
                dropped_bytes: remaining as u64,
            }),
        };
        if remaining < 8 {
            return WalReplay { records, ..torn };
        }
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if len > remaining - 8 {
            return WalReplay { records, ..torn };
        }
        let payload = &bytes[offset + 8..offset + 8 + len];
        if binary::crc32(payload) != crc {
            return WalReplay { records, ..torn };
        }
        let Some(record) = WalRecord::decode_payload(payload) else {
            return WalReplay { records, ..torn };
        };
        records.push(record);
        offset += 8 + len;
    }
}

/// Decode a WAL through an explicit I/O without touching it. Missing file:
/// empty replay.
///
/// # Errors
///
/// Only filesystem errors; corruption is reported via [`WalReplay::torn`],
/// never as an error.
pub fn read_wal_with(io: &dyn StorageIo, path: &Path) -> io::Result<WalReplay> {
    match io.read(path) {
        Ok(bytes) => Ok(decode_wal_bytes(&bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(WalReplay::default()),
        Err(e) => Err(e),
    }
}

/// Decode a WAL file without touching it ([`read_wal_with`] over the real
/// filesystem).
///
/// # Errors
///
/// Only filesystem errors; corruption is reported via [`WalReplay::torn`],
/// never as an error.
pub fn read_wal(path: &Path) -> io::Result<WalReplay> {
    read_wal_with(&RealIo, path)
}

/// Decode a WAL and, when the tail is torn, **truncate the file** to the
/// intact prefix so the next append starts on a frame boundary.
///
/// # Errors
///
/// Only filesystem errors (reading, or truncating a torn file).
pub fn recover_wal_with(io: &dyn StorageIo, path: &Path) -> io::Result<WalReplay> {
    let replay = read_wal_with(io, path)?;
    if let Some(torn) = replay.torn {
        io.truncate(path, torn.valid_len)?;
    }
    Ok(replay)
}

/// [`recover_wal_with`] over the real filesystem.
///
/// # Errors
///
/// Only filesystem errors (reading, or truncating a torn file).
pub fn recover_wal(path: &Path) -> io::Result<WalReplay> {
    recover_wal_with(&RealIo, path)
}

/// The durability state machine's states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityState {
    /// Appends land and fsync on schedule; `durable_revision` tracks the
    /// policy's cadence.
    Healthy,
    /// I/O is failing: appends buffer their frames and a capped-backoff
    /// retry repairs the file tail, rewrites the buffer and re-proves
    /// durability with an fsync. `durable_revision` is frozen at the last
    /// proven value; the gap measures the at-risk window.
    Degraded,
    /// Too many consecutive failures: the device is considered gone.
    /// Appends are dropped (and counted as lost); only a restart leaves
    /// this state.
    FailStop,
}

impl DurabilityState {
    fn tag(self) -> u8 {
        match self {
            DurabilityState::Healthy => 0,
            DurabilityState::Degraded => 1,
            DurabilityState::FailStop => 2,
        }
    }

    fn from_tag(tag: u8) -> DurabilityState {
        match tag {
            0 => DurabilityState::Healthy,
            1 => DurabilityState::Degraded,
            _ => DurabilityState::FailStop,
        }
    }
}

impl std::fmt::Display for DurabilityState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DurabilityState::Healthy => "healthy",
            DurabilityState::Degraded => "degraded",
            DurabilityState::FailStop => "fail-stop",
        };
        f.write_str(name)
    }
}

/// The class of storage failure a [`LatchedError`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageErrorKind {
    /// An append-path `write` failed (the file tail became unknown and was
    /// truncated back to the last intact frame before any retry).
    Write,
    /// An `fsync` failed — written frames exist but are not proven stable.
    Fsync,
    /// The device reported no space (classified from the error text /
    /// errno, whatever operation it surfaced on).
    NoSpace,
    /// A recovery step failed (truncating the torn tail or reopening the
    /// append handle).
    Recovery,
}

impl std::fmt::Display for StorageErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            StorageErrorKind::Write => "write",
            StorageErrorKind::Fsync => "fsync",
            StorageErrorKind::NoSpace => "no-space",
            StorageErrorKind::Recovery => "recovery",
        };
        f.write_str(name)
    }
}

impl StorageErrorKind {
    /// Classify an I/O error, preferring the no-space signal over the
    /// operation's default kind (ENOSPC can surface on writes *and*
    /// fsyncs).
    fn classify(error: &io::Error, default: StorageErrorKind) -> StorageErrorKind {
        if error.raw_os_error() == Some(28) {
            return StorageErrorKind::NoSpace;
        }
        let text = error.to_string();
        if text.to_ascii_lowercase().contains("no space") {
            StorageErrorKind::NoSpace
        } else {
            default
        }
    }
}

/// The structured latched error: what failed first, and how persistently.
///
/// `failures` distinguishes transient from permanent in the only way an
/// I/O layer can: a count still growing means the fault has not healed; a
/// WAL back in `Healthy` clears the latch entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatchedError {
    /// The failure class of the **first** error in the current episode.
    pub kind: StorageErrorKind,
    /// The first error's text.
    pub message: String,
    /// The highest revision the failing operation covered.
    pub revision: u64,
    /// Consecutive failures observed in the episode so far.
    pub failures: u32,
}

impl std::fmt::Display for LatchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failure at revision {} ({} consecutive): {}",
            self.kind, self.revision, self.failures, self.message
        )
    }
}

/// One recorded state-machine transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityTransition {
    /// The state left.
    pub from: DurabilityState,
    /// The state entered.
    pub to: DurabilityState,
    /// Consecutive failures at the moment of transition.
    pub failures: u32,
    /// `durable_revision` at the moment of transition.
    pub durable_revision: u64,
}

/// A point-in-time durability summary — what [`StoreBackend::durability`]
/// and the server's health surface report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// Whether a WAL is attached at all (`false`: pure in-memory store,
    /// every other field is vacuous).
    pub durable: bool,
    /// The state machine's current state.
    pub state: DurabilityState,
    /// Highest revision proven on stable storage.
    pub durable_revision: u64,
    /// Highest revision handed to the WAL (acknowledged to clients).
    pub submitted_revision: u64,
    /// `submitted_revision - durable_revision`: the at-risk window.
    pub gap: u64,
    /// The current episode's latched error (`None` when healthy).
    pub latched: Option<LatchedError>,
    /// State-machine transitions since open.
    pub transitions: usize,
    /// Records dropped in `FailStop` (never written to the file).
    pub lost_records: u64,
    /// Group-commit fsyncs issued since open (0 unless the policy is
    /// [`FsyncPolicy::Group`]).
    pub fsync_batches: u64,
    /// Records those group fsyncs covered.
    pub group_records: u64,
}

impl DurabilityStatus {
    /// The status of a store with no persistence attached.
    pub fn in_memory() -> DurabilityStatus {
        DurabilityStatus {
            durable: false,
            state: DurabilityState::Healthy,
            durable_revision: 0,
            submitted_revision: 0,
            gap: 0,
            latched: None,
            transitions: 0,
            lost_records: 0,
            fsync_batches: 0,
            group_records: 0,
        }
    }

    /// Mean records per group-commit fsync (0.0 before the first batch) —
    /// the amortization factor the group policy buys.
    pub fn avg_group_size(&self) -> f64 {
        if self.fsync_batches == 0 {
            0.0
        } else {
            self.group_records as f64 / self.fsync_batches as f64
        }
    }
}

#[derive(Debug, Default)]
struct DurabilityMachine {
    state_tag: u8,
    consecutive_failures: u32,
    next_retry_at: Option<Instant>,
    latched: Option<LatchedError>,
    transitions: Vec<DurabilityTransition>,
}

impl DurabilityMachine {
    fn state(&self) -> DurabilityState {
        DurabilityState::from_tag(self.state_tag)
    }

    fn record(&mut self, to: DurabilityState, durable_revision: u64) {
        self.transitions.push(DurabilityTransition {
            from: self.state(),
            to,
            failures: self.consecutive_failures,
            durable_revision,
        });
        self.state_tag = to.tag();
    }
}

#[derive(Debug)]
struct WalInner {
    file: Box<dyn StorageFile>,
    /// Highest revision written to the file (not necessarily durable yet).
    appended: u64,
    /// How many appends have landed in the file: the log *position* group
    /// commit rendezvouses on. Writers on different store shards reach the
    /// WAL out of revision order, so a revision says nothing about which
    /// fsync covers its frame; the order of arrival under this lock does.
    append_seq: u64,
    /// Byte length of the file's fully-written prefix — the truncation
    /// point tail repair restores before any retry re-appends frames.
    good_len: u64,
    /// Encoded frames awaiting (re)write while degraded.
    pending: Vec<u8>,
    /// Highest revision among the pending frames.
    pending_high: u64,
    /// Record count among the pending frames.
    pending_count: u32,
    /// Records written to the file but not yet covered by a group-commit
    /// fsync ([`FsyncPolicy::Group`] only; zeroed by any full fsync).
    group_pending: u32,
    machine: DurabilityMachine,
}

/// Shared state of the group-commit rendezvous: a generation counter
/// behind a mutex, paired with a condvar for parked followers.
#[derive(Debug, Default)]
struct GroupState {
    /// Records appended and not yet claimed by a leader's window — the
    /// fill level the window-close conditions read.
    fill: u64,
    /// Bumps on every arriving append; a wait slice that passes with no
    /// growth tells the leader the burst is over.
    arrivals: u64,
    /// Whether a leader currently owns the window / in-flight fsync.
    leader_active: bool,
    /// Commit generation: bumps after every leader handoff, success or
    /// failure — what parked followers watch.
    generation: u64,
}

/// The group-commit side table on a [`Wal`]: rendezvous state plus the
/// amortization counters the health surface reports.
#[derive(Debug, Default)]
struct GroupCommit {
    state: Mutex<GroupState>,
    cond: Condvar,
    /// Successful group fsyncs issued.
    batches: AtomicU64,
    /// Records those fsyncs covered.
    records: AtomicU64,
}

/// A deferred group-commit rendezvous: the log position (append sequence)
/// an fsync must cover before the caller acknowledges, plus how many
/// records the append wrote. Produced by [`Wal::append_deferred`], redeemed
/// by [`Wal::group_commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupTicket {
    target: u64,
    records: u64,
}

impl GroupTicket {
    /// Fold two optional tickets into the one covering both (the bulk
    /// write paths append per shard group and wait once for the latest
    /// position).
    pub fn merge(a: Option<GroupTicket>, b: Option<GroupTicket>) -> Option<GroupTicket> {
        match (a, b) {
            (Some(a), Some(b)) => Some(GroupTicket {
                target: a.target.max(b.target),
                records: a.records + b.records,
            }),
            (one, None) | (None, one) => one,
        }
    }
}

/// The open write-ahead log a store appends to.
///
/// Appends are serialized by one mutex — the log is one file — but frames
/// are encoded **before** the lock is taken, so the critical section is a
/// `write` (plus the policy's fsync). Store write paths call
/// [`Wal::append`] while holding the written object's shard lock, which is
/// what makes the on-disk per-key order match the in-memory one.
///
/// I/O failures do not poison the store: the write stays applied in memory
/// and the durability state machine takes over — frames buffer while
/// `Degraded`, tail repair + rewrite + fsync runs under capped backoff
/// (never sleeping in the append path: a not-yet-due retry just buffers),
/// and `durable_revision` advances only on proof. See the module docs.
#[derive(Debug)]
pub struct Wal {
    io: Arc<dyn StorageIo>,
    path: PathBuf,
    inner: Mutex<WalInner>,
    policy: FsyncPolicy,
    retry: RetryPolicy,
    /// Highest revision known forced to stable storage.
    durable: AtomicU64,
    /// The [`WalInner::append_seq`] the latest successful fsync covered.
    /// Published after `durable`, so a writer that sees its position
    /// synced also sees its revision durable.
    synced_seq: AtomicU64,
    /// Highest revision ever handed to [`Wal::append`] (acknowledged).
    submitted: AtomicU64,
    /// Records dropped in `FailStop`.
    lost: AtomicU64,
    /// Lock-free mirror of the machine state (for hot-path policy checks).
    state_tag: AtomicU8,
    /// Group-commit rendezvous ([`FsyncPolicy::Group`] only).
    group: GroupCommit,
}

impl Wal {
    /// Open (creating if needed) the WAL at `path` for appending, over the
    /// real filesystem with the default [`RetryPolicy`]. `recovered` is the
    /// highest revision already in the file — it seeds both the appended
    /// and durable cursors (the open fsyncs once so the recovered prefix is
    /// genuinely stable).
    ///
    /// # Errors
    ///
    /// Filesystem errors opening or syncing the file.
    pub fn open(path: &Path, policy: FsyncPolicy, recovered: u64) -> io::Result<Wal> {
        Wal::open_with(
            Arc::new(RealIo),
            path,
            policy,
            recovered,
            RetryPolicy::default(),
        )
    }

    /// [`Wal::open`] over an explicit [`StorageIo`] and [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// I/O errors opening or syncing the file (a boot-time failure is an
    /// open error, not a degraded state — there is nothing to serve yet).
    pub fn open_with(
        io: Arc<dyn StorageIo>,
        path: &Path,
        policy: FsyncPolicy,
        recovered: u64,
        retry: RetryPolicy,
    ) -> io::Result<Wal> {
        let mut file = io.open_append(path)?;
        file.sync_data()?;
        let good_len = io.file_len(path)?;
        Ok(Wal {
            io,
            path: path.to_path_buf(),
            inner: Mutex::new(WalInner {
                file,
                appended: recovered,
                append_seq: 0,
                good_len,
                pending: Vec::new(),
                pending_high: 0,
                pending_count: 0,
                group_pending: 0,
                machine: DurabilityMachine::default(),
            }),
            policy,
            retry,
            durable: AtomicU64::new(recovered),
            synced_seq: AtomicU64::new(0),
            submitted: AtomicU64::new(recovered),
            lost: AtomicU64::new(0),
            state_tag: AtomicU8::new(DurabilityState::Healthy.tag()),
            group: GroupCommit::default(),
        })
    }

    /// Append records (one frame each, one `write` for the batch), honoring
    /// the fsync policy. Errors are absorbed by the durability state
    /// machine, not returned — the store cannot unwind a write it already
    /// applied under its shard lock.
    ///
    /// Under [`FsyncPolicy::Group`] this is where the caller parks: the
    /// frames land in the file under the WAL lock, then the writer joins
    /// the group-commit rendezvous and returns once an fsync issued after
    /// its frames landed has succeeded (or the machine has left `Healthy`,
    /// in which case the durability gap tells the truth — exactly as a
    /// failed `Always` fsync would).
    pub fn append(&self, records: &[WalRecord]) {
        if let Some(ticket) = self.append_deferred(records) {
            self.group_commit(ticket);
        }
    }

    /// [`Wal::append`] with the group-commit wait split off: the frames are
    /// written (and for non-`Group` policies fsynced) exactly as `append`
    /// does, but instead of parking, a `Group` write returns its rendezvous
    /// ticket for the caller to pass to [`Wal::group_commit`] later.
    ///
    /// The store's bulk paths use this to append per shard group **inside**
    /// each shard lock but wait once, after every lock is released — the
    /// acknowledgement a caller of `apply_batch` gets is still
    /// durable-on-return, but the batch pays one rendezvous instead of one
    /// per shard group. Merge tickets with [`GroupTicket::merge`].
    pub fn append_deferred(&self, records: &[WalRecord]) -> Option<GroupTicket> {
        if records.is_empty() {
            return None;
        }
        let mut buf = Vec::with_capacity(records.len() * 96);
        let mut max_revision = 0;
        for record in records {
            record.encode_frame(&mut buf);
            max_revision = max_revision.max(record.revision);
        }
        self.submitted.fetch_max(max_revision, Ordering::AcqRel);
        let count = records.len() as u32;
        let mut ticket = None;
        let mut inner = self.inner.lock();
        match inner.machine.state() {
            DurabilityState::FailStop => {
                self.lost.fetch_add(u64::from(count), Ordering::Relaxed);
            }
            DurabilityState::Healthy => {
                if self.append_healthy(&mut inner, buf, max_revision, count)
                    && matches!(self.policy, FsyncPolicy::Group { .. })
                {
                    ticket = Some(GroupTicket {
                        target: inner.append_seq,
                        records: u64::from(count),
                    });
                }
            }
            DurabilityState::Degraded => {
                Self::stash(&mut inner, buf, max_revision, count);
                self.try_recover_locked(&mut inner, false);
            }
        }
        self.publish_state(&inner);
        ticket
    }

    fn publish_state(&self, inner: &WalInner) {
        self.state_tag
            .store(inner.machine.state_tag, Ordering::Release);
    }

    /// The group-commit rendezvous: account this append into the open
    /// window, then either **lead** — hold the window until it fills, a
    /// quiescent slice passes, or the deadline expires; issue one fsync
    /// for every waiter; hand off — or **follow** — park on the commit
    /// generation until a leader's fsync covers the ticket's position.
    ///
    /// Returns when an fsync that started after the ticket's frames landed
    /// has succeeded, or the machine has left `Healthy`.
    /// A failed shared fsync degrades every waiter coherently: nobody's
    /// write is acknowledged as durable (`durable_revision` stays put, the
    /// durability gap covers them all) and every parked waiter wakes on
    /// the generation bump and observes the degraded state.
    pub fn group_commit(&self, ticket: GroupTicket) {
        let GroupTicket { target, records } = ticket;
        let (max_wait, max_batch) = match self.policy {
            FsyncPolicy::Group {
                max_wait_us,
                max_batch,
            } => (
                Duration::from_micros(u64::from(max_wait_us)),
                u64::from(max_batch.max(1)),
            ),
            _ => return,
        };
        let mut state = self.group.state.lock();
        state.fill += records;
        state.arrivals = state.arrivals.wrapping_add(1);
        loop {
            if self.synced_seq.load(Ordering::Acquire) >= target
                || self.state() != DurabilityState::Healthy
            {
                return;
            }
            if state.leader_active {
                // Follow: park until this generation resolves. The slice
                // timeout sends us round the loop to re-check position and
                // state on paths that advance them without notifying
                // (sync(), tail recovery), so a missed wakeup costs
                // latency, never a hang.
                let generation = state.generation;
                state = self
                    .group
                    .cond
                    .wait_timeout_while(state, GROUP_FOLLOWER_SLICE, |state| {
                        state.generation == generation
                            && state.leader_active
                            && self.synced_seq.load(Ordering::Acquire) < target
                            && self.state() == DurabilityState::Healthy
                    })
                    .0;
            } else {
                // Lead. Window-close conditions: filled to `max_batch`, a
                // yield with no new arrival (the burst is over), or
                // `max_wait` elapsed. Collection *yields* rather than
                // sleeping on the condvar: timed waits this short get
                // quantized to whole timer ticks on low-HZ kernels, which
                // would make a lone writer pay milliseconds per commit —
                // and on a loaded single core, a yield is exactly what
                // lets the next writer reach its own append.
                state.leader_active = true;
                let opened = Instant::now();
                while state.fill < max_batch && self.state() == DurabilityState::Healthy {
                    if opened.elapsed() >= max_wait {
                        break;
                    }
                    let before = state.arrivals;
                    drop(state);
                    crate::sync::yield_now();
                    state = self.group.state.lock();
                    if state.arrivals == before {
                        break;
                    }
                }
                state.fill = 0;
                // Drop the rendezvous lock across the fsync so the next
                // window fills while this one commits.
                drop(state);
                self.group_fsync();
                state = self.group.state.lock();
                state.leader_active = false;
                state.generation = state.generation.wrapping_add(1);
                self.group.cond.notify_all();
            }
        }
    }

    /// One shared fsync covering everything appended so far. The cover
    /// point is captured under the WAL lock, but the fsync itself runs on
    /// a **fresh handle opened on the same path**: fsync flushes the
    /// inode, not the descriptor, so the frames the write handle appended
    /// are exactly what gets proven — and not holding the WAL lock across
    /// the fsync is what lets concurrent writers keep appending into the
    /// next window.
    fn group_fsync(&self) {
        let (sync_target, sync_seq, covered) = {
            let mut inner = self.inner.lock();
            if inner.machine.state() != DurabilityState::Healthy {
                return;
            }
            let covered = inner.group_pending;
            inner.group_pending = 0;
            (inner.appended, inner.append_seq, covered)
        };
        let result = self
            .io
            .open_append(&self.path)
            .and_then(|mut file| file.sync_data());
        match result {
            Ok(()) => {
                self.durable.fetch_max(sync_target, Ordering::AcqRel);
                self.synced_seq.fetch_max(sync_seq, Ordering::AcqRel);
                self.group.batches.fetch_add(1, Ordering::Relaxed);
                self.group
                    .records
                    .fetch_add(u64::from(covered), Ordering::Relaxed);
            }
            Err(e) => {
                let mut inner = self.inner.lock();
                // The frames are physically in the file (their writes
                // succeeded) — recovery's proving fsync covers them, they
                // are not re-buffered. Only the coverage counter rolls
                // back.
                inner.group_pending += covered;
                let kind = StorageErrorKind::classify(&e, StorageErrorKind::Fsync);
                self.note_failure(&mut inner, kind, &e, sync_target);
                self.publish_state(&inner);
            }
        }
    }

    /// Group-commit fsyncs issued since open (0 unless the policy is
    /// [`FsyncPolicy::Group`]).
    pub fn fsync_batches(&self) -> u64 {
        self.group.batches.load(Ordering::Relaxed)
    }

    /// Records covered by group-commit fsyncs since open.
    pub fn group_records(&self) -> u64 {
        self.group.records.load(Ordering::Relaxed)
    }

    fn stash(inner: &mut WalInner, buf: Vec<u8>, max_revision: u64, count: u32) {
        inner.pending.extend_from_slice(&buf);
        inner.pending_high = inner.pending_high.max(max_revision);
        inner.pending_count += count;
    }

    /// Returns whether the frames landed in the file (a `Group` writer
    /// only joins the rendezvous for frames that are physically present —
    /// a failed write takes the stash-and-degrade path instead).
    fn append_healthy(
        &self,
        inner: &mut WalInner,
        buf: Vec<u8>,
        max_revision: u64,
        count: u32,
    ) -> bool {
        if let Err(e) = inner.file.write_all(&buf) {
            // The file tail is unknown past `good_len` now; the frames go to
            // the pending buffer and recovery truncates before rewriting.
            let kind = StorageErrorKind::classify(&e, StorageErrorKind::Write);
            Self::stash(inner, buf, max_revision, count);
            self.note_failure(inner, kind, &e, max_revision);
            return false;
        }
        inner.good_len += buf.len() as u64;
        inner.appended = inner.appended.max(max_revision);
        inner.append_seq += 1;
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Os => false,
            FsyncPolicy::Group { .. } => {
                inner.group_pending += count;
                false
            }
        };
        if due {
            if let Err(e) = inner.file.sync_data() {
                let kind = StorageErrorKind::classify(&e, StorageErrorKind::Fsync);
                self.note_failure(inner, kind, &e, max_revision);
            } else {
                self.mark_synced(inner);
            }
        }
        true
    }

    /// A full fsync under the WAL lock just succeeded: everything in the
    /// file is proven, whichever window it was waiting in.
    fn mark_synced(&self, inner: &mut WalInner) {
        inner.group_pending = 0;
        self.durable.store(inner.appended, Ordering::Release);
        self.synced_seq.store(inner.append_seq, Ordering::Release);
    }

    fn note_failure(
        &self,
        inner: &mut WalInner,
        kind: StorageErrorKind,
        error: &io::Error,
        revision: u64,
    ) {
        let durable = self.durable.load(Ordering::Acquire);
        let machine = &mut inner.machine;
        machine.consecutive_failures += 1;
        match &mut machine.latched {
            Some(latched) => latched.failures = machine.consecutive_failures,
            None => {
                machine.latched = Some(LatchedError {
                    kind,
                    message: error.to_string(),
                    revision,
                    failures: 1,
                })
            }
        }
        machine.next_retry_at =
            Some(Instant::now() + self.retry.backoff(machine.consecutive_failures));
        if machine.state() == DurabilityState::Healthy {
            machine.record(DurabilityState::Degraded, durable);
        }
        if machine.state() == DurabilityState::Degraded
            && machine.consecutive_failures >= self.retry.fail_stop_after.max(1)
        {
            machine.record(DurabilityState::FailStop, durable);
            machine.next_retry_at = None;
            // The pending frames will never land; count and drop them.
            self.lost
                .fetch_add(u64::from(inner.pending_count), Ordering::Relaxed);
            inner.pending = Vec::new();
            inner.pending_high = 0;
            inner.pending_count = 0;
        }
    }

    /// One recovery attempt, only while `Degraded` and (unless `force`) only
    /// once the backoff is due. Repairs the file tail (truncate to the last
    /// fully-written frame and reopen the handle — without the truncate a
    /// retried append would park duplicate frames behind the torn one, and
    /// replay would silently drop them), rewrites the pending frames, then
    /// proves durability with one fsync.
    fn try_recover_locked(&self, inner: &mut WalInner, force: bool) {
        if inner.machine.state() != DurabilityState::Degraded {
            return;
        }
        if !force {
            if let Some(at) = inner.machine.next_retry_at {
                if Instant::now() < at {
                    return;
                }
            }
        }
        let at_risk = inner.pending_high.max(inner.appended);
        if let Err(e) = self.io.truncate(&self.path, inner.good_len) {
            let kind = StorageErrorKind::classify(&e, StorageErrorKind::Recovery);
            self.note_failure(inner, kind, &e, at_risk);
            return;
        }
        match self.io.open_append(&self.path) {
            Ok(file) => inner.file = file,
            Err(e) => {
                let kind = StorageErrorKind::classify(&e, StorageErrorKind::Recovery);
                self.note_failure(inner, kind, &e, at_risk);
                return;
            }
        }
        if !inner.pending.is_empty() {
            let pending = std::mem::take(&mut inner.pending);
            if let Err(e) = inner.file.write_all(&pending) {
                let kind = StorageErrorKind::classify(&e, StorageErrorKind::Write);
                // The tail is unknown again; keep the frames, the next
                // attempt re-truncates to the same `good_len`.
                inner.pending = pending;
                self.note_failure(inner, kind, &e, at_risk);
                return;
            }
            inner.good_len += pending.len() as u64;
            inner.appended = inner.appended.max(inner.pending_high);
            inner.pending_high = 0;
            inner.pending_count = 0;
        }
        if let Err(e) = inner.file.sync_data() {
            let kind = StorageErrorKind::classify(&e, StorageErrorKind::Fsync);
            self.note_failure(inner, kind, &e, at_risk);
            return;
        }
        self.mark_synced(inner);
        let durable = inner.appended;
        let machine = &mut inner.machine;
        machine.consecutive_failures = 0;
        machine.next_retry_at = None;
        machine.latched = None;
        machine.record(DurabilityState::Healthy, durable);
    }

    fn latched_io_error(inner: &WalInner) -> io::Error {
        match &inner.machine.latched {
            Some(latched) => io::Error::other(latched.to_string()),
            None => io::Error::other("WAL not healthy"),
        }
    }

    /// Force everything appended so far to stable storage, returning the
    /// now-durable revision. While `Degraded` this is a forced recovery
    /// attempt (backoff ignored — the caller explicitly asked).
    ///
    /// # Errors
    ///
    /// The underlying fsync error, or the latched error when the WAL is
    /// (still) not healthy.
    pub fn sync(&self) -> io::Result<u64> {
        let mut inner = self.inner.lock();
        match inner.machine.state() {
            DurabilityState::Healthy => {
                if let Err(e) = inner.file.sync_data() {
                    let kind = StorageErrorKind::classify(&e, StorageErrorKind::Fsync);
                    let revision = inner.appended;
                    self.note_failure(&mut inner, kind, &e, revision);
                    self.publish_state(&inner);
                    return Err(e);
                }
                self.mark_synced(&mut inner);
                Ok(self.durable.load(Ordering::Acquire))
            }
            DurabilityState::Degraded => {
                self.try_recover_locked(&mut inner, true);
                self.publish_state(&inner);
                if inner.machine.state() == DurabilityState::Healthy {
                    Ok(self.durable.load(Ordering::Acquire))
                } else {
                    Err(Self::latched_io_error(&inner))
                }
            }
            DurabilityState::FailStop => Err(Self::latched_io_error(&inner)),
        }
    }

    /// Highest revision known forced to stable storage — the revision the
    /// recovery invariant is stated against. Advances **only** on a
    /// successful fsync of successfully written frames, in every machine
    /// state.
    pub fn durable_revision(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Highest revision appended to the file (durable or not).
    pub fn appended_revision(&self) -> u64 {
        self.inner.lock().appended
    }

    /// The current durability state (lock-free; serving paths poll this).
    pub fn state(&self) -> DurabilityState {
        DurabilityState::from_tag(self.state_tag.load(Ordering::Acquire))
    }

    /// `submitted - durable`: how many revisions of acknowledged writes are
    /// not yet proven on stable storage (lock-free).
    pub fn durability_gap(&self) -> u64 {
        self.submitted
            .load(Ordering::Acquire)
            .saturating_sub(self.durable.load(Ordering::Acquire))
    }

    /// The current episode's structured latched error, if the WAL is not
    /// healthy. Cleared when recovery returns the machine to `Healthy`;
    /// the transition history ([`Wal::transitions`]) keeps the forensics.
    pub fn last_error(&self) -> Option<LatchedError> {
        self.inner.lock().machine.latched.clone()
    }

    /// Every state-machine transition since open, in order.
    pub fn transitions(&self) -> Vec<DurabilityTransition> {
        self.inner.lock().machine.transitions.clone()
    }

    /// A point-in-time durability summary.
    pub fn status(&self) -> DurabilityStatus {
        let inner = self.inner.lock();
        let durable_revision = self.durable.load(Ordering::Acquire);
        let submitted_revision = self.submitted.load(Ordering::Acquire);
        DurabilityStatus {
            durable: true,
            state: inner.machine.state(),
            durable_revision,
            submitted_revision,
            gap: submitted_revision.saturating_sub(durable_revision),
            latched: inner.machine.latched.clone(),
            transitions: inner.machine.transitions.len(),
            lost_records: self.lost.load(Ordering::Relaxed),
            fsync_batches: self.group.batches.load(Ordering::Relaxed),
            group_records: self.group.records.load(Ordering::Relaxed),
        }
    }

    /// Rewrite the log keeping only records with revision strictly above
    /// `horizon` (they are the ones not covered by the snapshot at that
    /// horizon), then swap the rewritten file in atomically and continue
    /// appending to it. Returns how many records were retained. Refuses to
    /// run unless the machine is (or recovers to) `Healthy` — compaction
    /// rewrites the log and must not race a sick device.
    fn compact(&self, path: &Path, horizon: u64) -> io::Result<usize> {
        let mut inner = self.inner.lock();
        if inner.machine.state() == DurabilityState::Degraded {
            self.try_recover_locked(&mut inner, true);
            self.publish_state(&inner);
        }
        if inner.machine.state() != DurabilityState::Healthy {
            return Err(Self::latched_io_error(&inner));
        }
        // Make the current contents readable-back and durable before the
        // rewrite; everything we are about to drop is covered by the
        // already-renamed snapshot.
        if let Err(e) = inner.file.sync_data() {
            let kind = StorageErrorKind::classify(&e, StorageErrorKind::Fsync);
            let revision = inner.appended;
            self.note_failure(&mut inner, kind, &e, revision);
            self.publish_state(&inner);
            return Err(e);
        }
        self.mark_synced(&mut inner);
        let replay = read_wal_with(&*self.io, path)?;
        let mut buf = Vec::new();
        let mut retained = 0usize;
        for record in &replay.records {
            if record.revision > horizon {
                record.encode_frame(&mut buf);
                retained += 1;
            }
        }
        let tmp = path.with_extension("kfwal.tmp");
        self.io.write_file(&tmp, &buf)?;
        self.io.rename(&tmp, path)?;
        self.io.sync_parent_dir(path);
        inner.good_len = buf.len() as u64;
        match self.io.open_append(path) {
            Ok(file) => {
                inner.file = file;
                Ok(retained)
            }
            Err(e) => {
                // The held handle points at the renamed-away inode; degrade
                // so recovery reopens it before anything advances `durable`.
                let kind = StorageErrorKind::classify(&e, StorageErrorKind::Recovery);
                let revision = inner.appended;
                self.note_failure(&mut inner, kind, &e, revision);
                self.publish_state(&inner);
                Err(e)
            }
        }
    }
}

/// A decoded per-shard snapshot segment: which store shard it covers, the
/// horizon it was cut at, and the shard's objects.
#[derive(Debug, Default)]
pub struct SegmentData {
    /// The store shard this segment snapshots.
    pub shard: usize,
    /// The checkpoint horizon the segment was cut at. Every write to this
    /// shard at or below the horizon is reflected; the WAL suffix above it
    /// replays the rest.
    pub horizon: u64,
    /// The shard's objects as `(resource_version, body)`.
    pub objects: Vec<(u64, Value)>,
}

/// What one manifest line vouches for: shard `shard`'s segment file is
/// live, holding `objects` objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The store shard index.
    pub shard: usize,
    /// Objects in the segment when its manifest was written (telemetry —
    /// the segment's own header is the integrity truth).
    pub objects: u64,
}

/// A decoded snapshot manifest: the commit point of an incremental
/// checkpoint. Lists the live segments and the horizon the checkpoint
/// covered; rotated `current → prev` on every checkpoint so a torn current
/// manifest falls back to the last complete one.
#[derive(Debug, Clone, Default)]
pub struct ManifestData {
    /// The checkpoint horizon (the WAL was compacted to this revision).
    pub horizon: u64,
    /// Store shard count at write time (a geometry check for readers).
    pub shard_count: usize,
    /// The live segments.
    pub entries: Vec<ManifestEntry>,
}

/// Write one shard's snapshot segment: temp file, fsync, atomic rename, so
/// a crash mid-checkpoint never leaves a partial segment visible. The
/// payload is CRC-sealed, so a bit-flipped segment is rejected at load
/// instead of resurrecting corrupt objects.
///
/// # Errors
///
/// Filesystem errors only.
pub fn write_segment_with(
    io: &dyn StorageIo,
    dir: &Path,
    shard: usize,
    horizon: u64,
    objects: &[Arc<StoredObject>],
) -> io::Result<()> {
    let mut payload = Vec::with_capacity(objects.len() * 256 + 24);
    binary::put_u64(&mut payload, shard as u64);
    binary::put_u64(&mut payload, horizon);
    binary::put_u64(&mut payload, objects.len() as u64);
    for stored in objects {
        binary::put_u64(&mut payload, stored.resource_version);
        binary::put_value(&mut payload, stored.object.body());
    }
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(SEGMENT_MAGIC);
    binary::put_u32(&mut out, binary::crc32(&payload));
    out.extend_from_slice(&payload);
    let name = segment_file(shard);
    let tmp = dir.join(format!("{name}.tmp"));
    io.write_file(&tmp, &out)?;
    io.rename(&tmp, &dir.join(name))?;
    io.sync_parent_dir(dir);
    Ok(())
}

/// Load one snapshot segment; `Ok(None)` when the file does not exist.
///
/// # Errors
///
/// Filesystem errors, or [`io::ErrorKind::InvalidData`] when the magic,
/// checksum or payload decode fails — recovery quarantines that segment
/// and serves the rest (its records are still in the un-compacted WAL or
/// were already lost with the device, never silently resurrected).
pub fn read_segment_with(io: &dyn StorageIo, path: &Path) -> io::Result<Option<SegmentData>> {
    let bytes = match io.read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    if bytes.len() < 12 || &bytes[..8] != SEGMENT_MAGIC {
        return Err(invalid("segment magic mismatch"));
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let payload = &bytes[12..];
    if binary::crc32(payload) != crc {
        return Err(invalid("segment checksum mismatch"));
    }
    let mut cursor = Cursor::new(payload);
    let mut parse = || -> Result<SegmentData, kf_yaml::binary::BinaryError> {
        let shard = cursor.get_u64()? as usize;
        let horizon = cursor.get_u64()?;
        let count = cursor.get_u64()? as usize;
        let mut objects = Vec::with_capacity(count.min(payload.len()));
        for _ in 0..count {
            let resource_version = cursor.get_u64()?;
            let body = cursor.get_value()?;
            objects.push((resource_version, body));
        }
        Ok(SegmentData {
            shard,
            horizon,
            objects,
        })
    };
    parse().map(Some).map_err(|e| invalid(&e.to_string()))
}

/// Write the snapshot manifest with rotation: the payload goes to a temp
/// file (fsync'd), the current manifest (if any) is renamed to
/// [`MANIFEST_PREV_FILE`], then the temp renames into place and the
/// directory is fsync'd. A crash between the two renames leaves `prev` +
/// the fsync'd temp — recovery falls back to `prev` and replays a longer
/// WAL suffix, losing nothing (segments on disk are always at least as new
/// as any manifest that lists them).
///
/// # Errors
///
/// Filesystem errors only.
pub fn write_manifest_with(
    io: &dyn StorageIo,
    dir: &Path,
    manifest: &ManifestData,
) -> io::Result<()> {
    let mut payload = Vec::with_capacity(manifest.entries.len() * 16 + 24);
    binary::put_u64(&mut payload, manifest.horizon);
    binary::put_u64(&mut payload, manifest.shard_count as u64);
    binary::put_u64(&mut payload, manifest.entries.len() as u64);
    for entry in &manifest.entries {
        binary::put_u64(&mut payload, entry.shard as u64);
        binary::put_u64(&mut payload, entry.objects);
    }
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(MANIFEST_MAGIC);
    binary::put_u32(&mut out, binary::crc32(&payload));
    out.extend_from_slice(&payload);
    let current = dir.join(MANIFEST_FILE);
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    io.write_file(&tmp, &out)?;
    match io.rename(&current, &dir.join(MANIFEST_PREV_FILE)) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    io.rename(&tmp, &current)?;
    io.sync_parent_dir(dir);
    Ok(())
}

/// Load a snapshot manifest; `Ok(None)` when the file does not exist.
///
/// # Errors
///
/// Filesystem errors, or [`io::ErrorKind::InvalidData`] on a torn/corrupt
/// manifest — recovery then falls back to [`MANIFEST_PREV_FILE`], and past
/// that to probing the (self-validating) segment files directly.
pub fn read_manifest_with(io: &dyn StorageIo, path: &Path) -> io::Result<Option<ManifestData>> {
    let bytes = match io.read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    if bytes.len() < 12 || &bytes[..8] != MANIFEST_MAGIC {
        return Err(invalid("manifest magic mismatch"));
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let payload = &bytes[12..];
    if binary::crc32(payload) != crc {
        return Err(invalid("manifest checksum mismatch"));
    }
    let mut cursor = Cursor::new(payload);
    let mut parse = || -> Result<ManifestData, kf_yaml::binary::BinaryError> {
        let horizon = cursor.get_u64()?;
        let shard_count = cursor.get_u64()? as usize;
        let count = cursor.get_u64()? as usize;
        let mut entries = Vec::with_capacity(count.min(payload.len()));
        for _ in 0..count {
            let shard = cursor.get_u64()? as usize;
            let objects = cursor.get_u64()?;
            entries.push(ManifestEntry { shard, objects });
        }
        Ok(ManifestData {
            horizon,
            shard_count,
            entries,
        })
    };
    parse().map(Some).map_err(|e| invalid(&e.to_string()))
}

/// What recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Revision horizon of the loaded snapshot (0: none).
    pub snapshot_revision: u64,
    /// Objects loaded from the snapshot.
    pub snapshot_objects: usize,
    /// Intact WAL records read.
    pub wal_records: usize,
    /// WAL records whose effect was applied (revision above the stored
    /// object's — the rest were already covered by the snapshot).
    pub replayed: usize,
    /// The revision the store resumed at (and the watch journals' sealed
    /// compaction horizon).
    pub recovered_revision: u64,
    /// Objects in the recovered store.
    pub live_objects: usize,
    /// `Some` when a torn/corrupt WAL tail was detected and truncated.
    pub torn_tail: Option<TornTail>,
    /// `Some` when a corrupt checkpoint artifact (manifest or segment) was
    /// quarantined — renamed to this path, the first one when several — and
    /// boot recovered without it.
    pub snapshot_quarantined: Option<PathBuf>,
    /// Per-shard snapshot segments loaded (0 when boot started empty or
    /// from the WAL alone).
    pub segments_loaded: usize,
    /// `true` when the current manifest was unreadable and recovery fell
    /// back to the previous manifest or to probing the segment files
    /// directly (a longer WAL suffix replays the difference).
    pub manifest_fallback: bool,
    /// Worker threads the shard-partitioned replay ran on (1: sequential).
    pub replay_workers: usize,
}

/// What a checkpoint wrote.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// The revision horizon the snapshot covers (and the WAL was compacted
    /// to).
    pub revision: u64,
    /// Objects written into rewritten segments this checkpoint (the first
    /// checkpoint of a store rewrites everything; steady-state rewrites
    /// only the dirty shards' objects).
    pub objects: usize,
    /// WAL records retained (revision above the horizon).
    pub wal_retained: usize,
    /// Attempts the checkpoint took (1 when the first try succeeded).
    pub attempts: u32,
    /// Store shards claimed as dirty and rewritten — the incremental
    /// cost; `total_shards` is the O(store) cost this saved.
    pub dirty_shards: usize,
    /// Total store shards.
    pub total_shards: usize,
}

/// An open persistence directory: the handle that checkpoints a store and
/// owns its WAL.
#[derive(Debug)]
pub struct Persistence {
    dir: PathBuf,
    wal: Arc<Wal>,
    io: Arc<dyn StorageIo>,
}

/// Whole-checkpoint attempts before [`Persistence::checkpoint`] gives up.
const CHECKPOINT_ATTEMPTS: u32 = 3;

/// Below this many seed objects + WAL records, replay stays sequential —
/// spawning workers would cost more than the partitioned decode saves.
const PARALLEL_REPLAY_MIN_WORK: usize = 1024;

/// Worker threads for shard-partitioned replay: the machine's available
/// parallelism, capped at the store shard count.
fn replay_worker_count(total_work: usize) -> usize {
    if total_work < PARALLEL_REPLAY_MIN_WORK {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(store_shards())
}

/// The store's shard count — recovery partitions by the same geometry the
/// store hashes into (`crate::store::SHARDS`).
fn store_shards() -> usize {
    crate::store::SHARDS
}

/// One shard's replay inputs: its segment seeds and its WAL records in file
/// order.
type ShardReplayJob = (Vec<(u64, Value)>, Vec<WalRecord>);

/// One replay partition's result.
struct ShardReplayOutcome {
    objects: Vec<StoredObject>,
    max_revision: u64,
    replayed: usize,
}

/// Rebuild one store shard's keyed state: segment seeds (un-parsed bodies)
/// first — highest resource version wins where segments overlap — then the
/// shard's WAL records in file order under the revision guard. Runs on a
/// replay worker thread; the partitioning by
/// [`crate::store::shard_index_raw`] guarantees every write to one key
/// lands in exactly one partition, so the guard sees the key's full history.
fn replay_shard(
    seeds: Vec<(u64, Value)>,
    records: Vec<WalRecord>,
) -> io::Result<ShardReplayOutcome> {
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    type ReplayKey = (usize, String, String);
    let mut state: std::collections::HashMap<ReplayKey, (u64, Option<K8sObject>)> =
        std::collections::HashMap::with_capacity(seeds.len());
    let mut max_revision = 0u64;
    let mut replayed = 0usize;
    for (resource_version, body) in seeds {
        let object = K8sObject::from_shared(Arc::new(body))
            .map_err(|e| invalid(format!("snapshot object: {e}")))?;
        max_revision = max_revision.max(resource_version);
        let key = (
            object.kind().index(),
            object.namespace().to_owned(),
            object.name().to_owned(),
        );
        let entry = state.entry(key).or_insert((0, None));
        if resource_version > entry.0 {
            *entry = (resource_version, Some(object));
        }
    }
    for record in records {
        max_revision = max_revision.max(record.revision);
        let key = (
            record.kind.index(),
            record.namespace.clone(),
            record.name.clone(),
        );
        let seen = state.get(&key).map(|(rv, _)| *rv).unwrap_or(0);
        if record.revision <= seen {
            continue;
        }
        replayed += 1;
        match record.op {
            WatchEventKind::Deleted => {
                state.insert(key, (record.revision, None));
            }
            _ => {
                let body = record
                    .body
                    .ok_or_else(|| invalid("WAL write record without body".to_owned()))?;
                let object = K8sObject::from_shared(body)
                    .map_err(|e| invalid(format!("WAL object: {e}")))?;
                state.insert(key, (record.revision, Some(object)));
            }
        }
    }
    let objects: Vec<StoredObject> = state
        .into_values()
        .filter_map(|(resource_version, object)| {
            object.map(|object| StoredObject {
                object,
                resource_version,
            })
        })
        .collect();
    Ok(ShardReplayOutcome {
        objects,
        max_revision,
        replayed,
    })
}

impl Persistence {
    /// Open (or create) the persistence directory and recover a store from
    /// it over the real filesystem — see [`Persistence::open_with_io`].
    ///
    /// # Errors
    ///
    /// Those of [`Persistence::open_with_io`].
    pub fn open(config: PersistConfig) -> io::Result<(ObjectStore, Persistence, RecoveryReport)> {
        Persistence::open_with_io(config, Arc::new(RealIo))
    }

    /// Open (or create) the persistence directory through an explicit
    /// [`StorageIo`] and recover a store from it: load the checkpoint
    /// manifest (falling back to the previous complete manifest when the
    /// current one is torn, and to probing the segment files directly when
    /// neither survives), load every valid per-shard segment (quarantining
    /// corrupt artifacts), replay the WAL suffix (truncating a torn tail)
    /// partitioned by store shard across worker threads, seed the store,
    /// seal the watch horizon at the recovered revision, and attach the WAL
    /// so every subsequent write is logged.
    ///
    /// # Errors
    ///
    /// Filesystem errors; [`io::ErrorKind::InvalidData`] only when a WAL or
    /// segment object body no longer parses as an object (a corrupt
    /// segment/manifest *file* is quarantined instead — see
    /// [`RecoveryReport::snapshot_quarantined`]).
    pub fn open_with_io(
        config: PersistConfig,
        io: Arc<dyn StorageIo>,
    ) -> io::Result<(ObjectStore, Persistence, RecoveryReport)> {
        io.create_dir_all(&config.dir)?;
        let wal_path = config.dir.join(WAL_FILE);
        let mut report = RecoveryReport::default();

        // A corrupt artifact must not brick the boot: quarantine the file
        // for forensics and recover from what remains (compaction only ever
        // drops records a *successfully written* checkpoint covers, so the
        // WAL still holds everything after the last good horizon).
        let mut quarantine = |io: &dyn StorageIo, path: &Path| -> io::Result<()> {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("artifact");
            let target = path.with_file_name(format!("{name}.corrupt"));
            io.rename(path, &target)?;
            io.sync_parent_dir(path);
            report.snapshot_quarantined.get_or_insert(target);
            Ok(())
        };

        // Manifest chain: current → previous complete → none. The rotation
        // in `write_manifest_with` renames current → prev before publishing
        // the new current, so a crash mid-checkpoint leaves prev intact.
        let manifest_path = config.dir.join(MANIFEST_FILE);
        let mut manifest = match read_manifest_with(&*io, &manifest_path) {
            Ok(manifest) => manifest,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                quarantine(&*io, &manifest_path)?;
                None
            }
            Err(e) => return Err(e),
        };
        if manifest.is_none() {
            let prev_path = config.dir.join(MANIFEST_PREV_FILE);
            match read_manifest_with(&*io, &prev_path) {
                Ok(Some(prev)) => {
                    report.manifest_fallback = true;
                    manifest = Some(prev);
                }
                Ok(None) => {}
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    quarantine(&*io, &prev_path)?;
                }
                Err(e) => return Err(e),
            }
        }

        // Segments are self-validating (magic + CRC + embedded shard and
        // horizon), so probe every shard slot directly rather than trusting
        // the manifest's entry list — this also recovers the case where
        // both manifests are torn but the segments survived.
        let shards = store_shards();
        let mut seeds: Vec<Vec<(u64, Value)>> = (0..shards).map(|_| Vec::new()).collect();
        let mut segment_horizon = 0u64;
        for shard_no in 0..shards {
            let path = config.dir.join(segment_file(shard_no));
            match read_segment_with(&*io, &path) {
                Ok(Some(segment)) => {
                    report.segments_loaded += 1;
                    segment_horizon = segment_horizon.max(segment.horizon);
                    // Route by the segment's own header: the objects inside
                    // hash to `segment.shard`, and replay's revision guard
                    // needs every record for a key in one partition.
                    let slot = segment.shard.min(shards - 1);
                    seeds[slot].extend(segment.objects);
                }
                Ok(None) => {}
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    quarantine(&*io, &path)?;
                }
                Err(e) => return Err(e),
            }
        }

        let snapshot_revision = manifest
            .as_ref()
            .map(|m| m.horizon)
            .unwrap_or(0)
            .max(segment_horizon);
        report.snapshot_revision = snapshot_revision;
        report.snapshot_objects = seeds.iter().map(Vec::len).sum();

        let replay = recover_wal_with(&*io, &wal_path)?;
        report.wal_records = replay.records.len();
        report.torn_tail = replay.torn;

        // Partition the remaining serial work by store shard: segment
        // seeds and WAL records route by the same hash the store uses, so
        // each worker owns every source of truth for its keys.
        let mut shard_records: Vec<Vec<WalRecord>> = (0..shards).map(|_| Vec::new()).collect();
        for record in replay.records {
            let slot =
                crate::store::shard_index_raw(record.kind.index(), &record.namespace, &record.name);
            shard_records[slot].push(record);
        }

        let total_work = report.snapshot_objects + report.wal_records;
        let workers = replay_worker_count(total_work);
        report.replay_workers = workers;
        let jobs: Vec<ShardReplayJob> = seeds.into_iter().zip(shard_records).collect();
        let outcomes: Vec<ShardReplayOutcome> = if workers <= 1 {
            jobs.into_iter()
                .map(|(seeds, records)| replay_shard(seeds, records))
                .collect::<io::Result<Vec<_>>>()?
        } else {
            let mut buckets: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
            for (shard_no, job) in jobs.into_iter().enumerate() {
                buckets[shard_no % workers].push(job);
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = buckets
                    .into_iter()
                    .map(|bucket| {
                        scope.spawn(move || {
                            bucket
                                .into_iter()
                                .map(|(seeds, records)| replay_shard(seeds, records))
                                .collect::<io::Result<Vec<_>>>()
                        })
                    })
                    .collect();
                let mut all = Vec::new();
                for handle in handles {
                    all.extend(handle.join().expect("replay worker panicked")?);
                }
                Ok::<_, io::Error>(all)
            })?
        };

        let mut recovered_revision = snapshot_revision;
        let mut objects = Vec::new();
        for outcome in outcomes {
            recovered_revision = recovered_revision.max(outcome.max_revision);
            report.replayed += outcome.replayed;
            objects.extend(outcome.objects);
        }
        report.live_objects = objects.len();
        report.recovered_revision = recovered_revision;

        let mut store = ObjectStore::with_journal_capacity(config.journal_capacity);
        store.restore(objects, recovered_revision);
        let wal = Arc::new(Wal::open_with(
            Arc::clone(&io),
            &wal_path,
            config.fsync,
            recovered_revision,
            config.retry,
        )?);
        store.attach_wal(Arc::clone(&wal));
        Ok((
            store,
            Persistence {
                dir: config.dir,
                wal,
                io,
            },
            report,
        ))
    }

    /// The WAL this directory's store appends to.
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// The persistence directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoint: rewrite only the store shards dirtied since the last
    /// checkpoint into per-shard segment files, publish a manifest over
    /// them at the current revision horizon, then compact the WAL to the
    /// records above it — O(dirty) instead of O(store). Safe to run
    /// concurrently with writes — the horizon is read *before* the dirty
    /// set is claimed, every record at or below it is fully reflected by
    /// the shard scans (the dirty flag is raised under the shard lock
    /// before revision allocation), and replay's revision guard absorbs
    /// the overlap above it. A shard left unclaimed has seen no writes
    /// since the checkpoint that last claimed it, so its existing segment
    /// already covers every compacted record that touches it. The whole
    /// attempt retries (with the WAL's backoff) a bounded number of times,
    /// because a transient fault mid-checkpoint is invisible to clients —
    /// only the checkpoint horizon lags; a failed attempt re-marks the
    /// claimed shards dirty so no write is ever dropped from the next
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Filesystem errors writing the segments or manifest or rewriting the
    /// WAL, after retries are exhausted.
    pub fn checkpoint(&self, store: &ObjectStore) -> io::Result<CheckpointReport> {
        let mut last = None;
        for attempt in 1..=CHECKPOINT_ATTEMPTS {
            match self.try_checkpoint(store, attempt) {
                Ok(report) => return Ok(report),
                Err(e) => {
                    if attempt < CHECKPOINT_ATTEMPTS {
                        std::thread::sleep(self.wal.retry.backoff(attempt));
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    fn try_checkpoint(&self, store: &ObjectStore, attempt: u32) -> io::Result<CheckpointReport> {
        // Horizon first, claim second: any write that allocates a revision
        // at or below the horizon raised its dirty flag before allocating,
        // so the claim below sees it and its shard is rewritten.
        let horizon = StoreBackend::revision(store);
        let claimed = store.take_dirty_shards();
        match self.write_increment(store, horizon, &claimed, attempt) {
            Ok(report) => Ok(report),
            Err(e) => {
                // The claimed shards were not (all) published at this
                // horizon; put them back so the retry rewrites them.
                store.remark_dirty(&claimed);
                Err(e)
            }
        }
    }

    fn write_increment(
        &self,
        store: &ObjectStore,
        horizon: u64,
        claimed: &[usize],
        attempt: u32,
    ) -> io::Result<CheckpointReport> {
        // Rewrite each claimed shard's segment (empty shards included — an
        // emptied shard must publish its emptiness, or deletions would
        // resurrect on replay from a stale segment).
        let mut objects = 0usize;
        let mut written = Vec::with_capacity(claimed.len());
        for &shard_no in claimed {
            let snapshot = store.snapshot_shard(shard_no);
            objects += snapshot.len();
            written.push((shard_no, snapshot.len() as u64));
            write_segment_with(&*self.io, &self.dir, shard_no, horizon, &snapshot)?;
        }

        // The manifest enumerates whichever segments exist on disk now:
        // the ones just rewritten plus clean shards' earlier segments.
        let shards = store_shards();
        let previous =
            read_manifest_with(&*self.io, &self.dir.join(MANIFEST_FILE)).unwrap_or_default();
        let mut entries = Vec::new();
        for shard_no in 0..shards {
            if let Some(&(_, count)) = written.iter().find(|(no, _)| *no == shard_no) {
                entries.push(ManifestEntry {
                    shard: shard_no,
                    objects: count,
                });
                continue;
            }
            let path = self.dir.join(segment_file(shard_no));
            match self.io.file_len(&path) {
                Ok(_) => {
                    let carried = previous
                        .as_ref()
                        .and_then(|m| m.entries.iter().find(|e| e.shard == shard_no))
                        .map(|e| e.objects)
                        .unwrap_or(0);
                    entries.push(ManifestEntry {
                        shard: shard_no,
                        objects: carried,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        let manifest = ManifestData {
            horizon,
            shard_count: shards,
            entries,
        };
        write_manifest_with(&*self.io, &self.dir, &manifest)?;

        let wal_retained = self.wal.compact(&self.dir.join(WAL_FILE), horizon)?;
        Ok(CheckpointReport {
            revision: horizon,
            objects,
            wal_retained,
            attempts: attempt,
            dirty_shards: claimed.len(),
            total_shards: shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage_io::{FaultSchedule, FaultyIo};
    use std::fs;
    use std::sync::atomic::AtomicUsize;

    fn temp_dir(label: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "kf-persist-{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn pod(namespace: &str, name: &str, image: &str) -> K8sObject {
        K8sObject::from_yaml(&format!(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\n  namespace: {namespace}\nspec:\n  containers:\n    - name: app\n      image: {image}\n"
        ))
        .expect("pod parses")
    }

    fn record(revision: u64, op: WatchEventKind, namespace: &str, name: &str) -> WalRecord {
        let body = (op != WatchEventKind::Deleted)
            .then(|| Arc::clone(pod(namespace, name, "nginx").shared_body()));
        WalRecord {
            revision,
            kind: ResourceKind::Pod,
            op,
            namespace: namespace.to_owned(),
            name: name.to_owned(),
            body,
        }
    }

    fn faulty_wal(dir: &Path, spec: &str, policy: FsyncPolicy, fail_stop_after: u32) -> Wal {
        let io = Arc::new(FaultyIo::over_real(
            FaultSchedule::parse(spec).expect("spec parses"),
        ));
        Wal::open_with(
            io,
            &dir.join(WAL_FILE),
            policy,
            0,
            RetryPolicy::immediate(fail_stop_after),
        )
        .expect("open")
    }

    #[test]
    fn wal_records_round_trip_through_the_file() {
        let dir = temp_dir("roundtrip");
        let path = dir.join(WAL_FILE);
        let wal = Wal::open(&path, FsyncPolicy::Always, 0).expect("open");
        let records = vec![
            record(1, WatchEventKind::Added, "default", "a"),
            record(2, WatchEventKind::Modified, "default", "a"),
            record(3, WatchEventKind::Deleted, "default", "a"),
        ];
        wal.append(&records);
        assert_eq!(wal.durable_revision(), 3);
        assert!(wal.last_error().is_none());
        assert_eq!(wal.state(), DurabilityState::Healthy);
        assert_eq!(wal.durability_gap(), 0);
        let replay = read_wal(&path).expect("read");
        assert!(replay.torn.is_none());
        assert_eq!(replay.records.len(), 3);
        for (got, want) in replay.records.iter().zip(&records) {
            assert_eq!(got.revision, want.revision);
            assert_eq!(got.op, want.op);
            assert_eq!(got.namespace, want.namespace);
            assert_eq!(got.name, want.name);
            assert_eq!(
                got.body.as_deref(),
                want.body.as_deref(),
                "bodies decode identically"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_point_recovers_the_intact_prefix_without_panicking() {
        let dir = temp_dir("torn");
        let path = dir.join(WAL_FILE);
        let wal = Wal::open(&path, FsyncPolicy::Always, 0).expect("open");
        let records: Vec<WalRecord> = (1..=4)
            .map(|r| record(r, WatchEventKind::Added, "default", &format!("pod-{r}")))
            .collect();
        wal.append(&records);
        drop(wal);
        let full = fs::read(&path).expect("read full WAL");
        // Frame boundaries: prefix sums of the four frames.
        let mut boundaries = vec![0usize];
        {
            let mut offset = 0;
            while offset < full.len() {
                let len = u32::from_le_bytes(full[offset..offset + 4].try_into().unwrap());
                offset += 8 + len as usize;
                boundaries.push(offset);
            }
        }
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).expect("write truncated WAL");
            let replay = recover_wal(&path).expect("recover");
            let intact = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replay.records.len(), intact, "cut at {cut}");
            if boundaries.contains(&cut) {
                assert!(replay.torn.is_none(), "cut at {cut} is a frame boundary");
            } else {
                let torn = replay.torn.expect("mid-frame cut is torn");
                assert_eq!(torn.valid_len, boundaries[intact] as u64);
                // The file was physically truncated to the intact prefix.
                assert_eq!(fs::metadata(&path).expect("metadata").len(), torn.valid_len);
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_mid_frame_bytes_cut_the_tail_cleanly() {
        let dir = temp_dir("corrupt");
        let path = dir.join(WAL_FILE);
        let wal = Wal::open(&path, FsyncPolicy::Always, 0).expect("open");
        let records: Vec<WalRecord> = (1..=3)
            .map(|r| record(r, WatchEventKind::Added, "default", &format!("pod-{r}")))
            .collect();
        wal.append(&records);
        drop(wal);
        let mut bytes = fs::read(&path).expect("read");
        // Flip one byte inside the *second* frame's payload.
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second_payload_start = first_len + 8 + 8;
        bytes[second_payload_start + 10] ^= 0xFF;
        fs::write(&path, &bytes).expect("write corrupted");
        let replay = recover_wal(&path).expect("recover");
        assert_eq!(replay.records.len(), 1, "only the first frame survives");
        assert_eq!(
            replay.torn.expect("corruption detected").valid_len,
            (first_len + 8) as u64
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_fsync_failure_degrades_then_recovers_without_losing_frames() {
        let dir = temp_dir("transient");
        // Boot fsync is op 0; the op-1 append's fsync fails twice.
        let wal = faulty_wal(&dir, "fsync@1:transient*2", FsyncPolicy::Always, 8);
        wal.append(&[record(1, WatchEventKind::Added, "default", "a")]);
        assert_eq!(wal.state(), DurabilityState::Degraded);
        assert_eq!(wal.durable_revision(), 0, "failed fsync proves nothing");
        let latched = wal.last_error().expect("latched");
        assert_eq!(latched.kind, StorageErrorKind::Fsync);
        assert_eq!(wal.durability_gap(), 1);
        // Next append stashes, retries immediately: fsync op 2 still in the
        // fault window (fails), fsync op 3 heals.
        wal.append(&[record(2, WatchEventKind::Added, "default", "b")]);
        wal.append(&[record(3, WatchEventKind::Added, "default", "c")]);
        assert_eq!(wal.state(), DurabilityState::Healthy);
        assert_eq!(wal.durable_revision(), 3);
        assert_eq!(wal.durability_gap(), 0);
        assert!(wal.last_error().is_none(), "latch clears on recovery");
        let transitions = wal.transitions();
        assert_eq!(transitions.len(), 2, "one degrade, one recover");
        assert_eq!(transitions[0].to, DurabilityState::Degraded);
        assert_eq!(transitions[1].to, DurabilityState::Healthy);
        // No frame was lost or duplicated on disk.
        let replay = read_wal(&dir.join(WAL_FILE)).expect("read");
        let revisions: Vec<u64> = replay.records.iter().map(|r| r.revision).collect();
        assert_eq!(revisions, vec![1, 2, 3]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_truncates_the_torn_tail_before_retrying() {
        let dir = temp_dir("short");
        // Write op 0 is the op-1 record's... op 0 is the first append: a
        // short write leaves half a frame on disk; the retry must truncate
        // it before rewriting, or replay would stop at the torn frame.
        let wal = faulty_wal(&dir, "write@0:short", FsyncPolicy::Always, 8);
        wal.append(&[record(1, WatchEventKind::Added, "default", "a")]);
        assert_eq!(wal.state(), DurabilityState::Degraded);
        assert_eq!(wal.durable_revision(), 0);
        wal.append(&[record(2, WatchEventKind::Added, "default", "b")]);
        assert_eq!(wal.state(), DurabilityState::Healthy);
        assert_eq!(wal.durable_revision(), 2);
        let replay = read_wal(&dir.join(WAL_FILE)).expect("read");
        assert!(replay.torn.is_none(), "tail was repaired, not left torn");
        let revisions: Vec<u64> = replay.records.iter().map(|r| r.revision).collect();
        assert_eq!(revisions, vec![1, 2], "no duplicates, no losses");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn permanent_failure_fail_stops_and_never_overstates_durability() {
        let dir = temp_dir("failstop");
        let wal = faulty_wal(&dir, "fsync@1:permanent", FsyncPolicy::Always, 3);
        for r in 1..=10u64 {
            wal.append(&[record(
                r,
                WatchEventKind::Added,
                "default",
                &format!("pod-{r}"),
            )]);
        }
        assert_eq!(wal.state(), DurabilityState::FailStop);
        assert_eq!(wal.durable_revision(), 0, "nothing was ever proven");
        assert_eq!(wal.durability_gap(), 10);
        let status = wal.status();
        assert!(status.lost_records > 0, "fail-stop drops appends");
        let latched = wal.last_error().expect("latched in fail-stop");
        assert!(latched.failures >= 3);
        assert!(wal.sync().is_err(), "sync reports the latched error");
        let transitions = wal.transitions();
        assert_eq!(
            transitions.last().expect("transitions recorded").to,
            DurabilityState::FailStop
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_is_classified_from_the_error_text() {
        let dir = temp_dir("enospc");
        let wal = faulty_wal(&dir, "write@0:enospc*1", FsyncPolicy::Always, 8);
        wal.append(&[record(1, WatchEventKind::Added, "default", "a")]);
        let latched = wal.last_error().expect("latched");
        assert_eq!(latched.kind, StorageErrorKind::NoSpace);
        // Space frees; the next append recovers everything.
        wal.append(&[record(2, WatchEventKind::Added, "default", "b")]);
        assert_eq!(wal.state(), DurabilityState::Healthy);
        assert_eq!(wal.durable_revision(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_segment_is_quarantined_and_the_other_shards_still_boot() {
        let dir = temp_dir("quarantine");
        {
            let (store, persistence, _) =
                Persistence::open(PersistConfig::new(&dir)).expect("open");
            for r in 1..=6u64 {
                store.upsert(pod("ns", &format!("pod-{r}"), "nginx"));
            }
            persistence.checkpoint(&store).expect("checkpoint");
            // More writes after the checkpoint so the WAL holds a suffix.
            store.upsert(pod("ns", "pod-late", "nginx"));
            persistence.wal().sync().expect("sync");
        }
        // Corrupt the segment that holds pod-1: its shard's checkpointed
        // prefix is lost, but the blast radius stops at the shard.
        let corrupt_shard = crate::store::shard_index_raw(ResourceKind::Pod.index(), "ns", "pod-1");
        let segment_path = dir.join(segment_file(corrupt_shard));
        let mut bytes = fs::read(&segment_path).expect("read segment");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&segment_path, &bytes).expect("write corrupted");
        let (store, _persistence, report) =
            Persistence::open(PersistConfig::new(&dir)).expect("boot survives corruption");
        let quarantined = report
            .snapshot_quarantined
            .as_ref()
            .expect("segment quarantined");
        assert!(quarantined.exists(), "corrupt file kept for forensics");
        assert!(
            quarantined.to_string_lossy().ends_with(".corrupt"),
            "renamed to .corrupt: {}",
            quarantined.display()
        );
        assert!(!segment_path.exists(), "corrupt segment out of the way");
        // The quarantined shard's checkpointed objects are gone (compaction
        // dropped their WAL records); every other shard serves from its own
        // intact segment, and the post-checkpoint WAL suffix replays.
        assert!(
            store.get(ResourceKind::Pod, "ns", "pod-1").is_none(),
            "quarantined shard's snapshotted prefix is lost"
        );
        for r in 2..=6u64 {
            let name = format!("pod-{r}");
            let shard = crate::store::shard_index_raw(ResourceKind::Pod.index(), "ns", &name);
            if shard != corrupt_shard {
                assert!(
                    store.get(ResourceKind::Pod, "ns", &name).is_some(),
                    "{name} survives in its own segment"
                );
            }
        }
        assert!(store.get(ResourceKind::Pod, "ns", "pod-late").is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_monolithic_snapshot_is_neither_read_renamed_nor_trusted() {
        // Two strays under the retired `store.kfsnap` name: a well-formed
        // pre-segment monolithic snapshot claiming a pod at revision 99, and
        // plain garbage. Boot must recover from manifest + segments + WAL
        // only, and must leave the file alone either way.
        let mut payload = Vec::new();
        binary::put_u64(&mut payload, 99);
        binary::put_u64(&mut payload, 1);
        binary::put_u64(&mut payload, 99);
        binary::put_value(&mut payload, pod("ns", "ghost", "nginx").body());
        let mut well_formed = b"KFSNAP1\0".to_vec();
        binary::put_u32(&mut well_formed, binary::crc32(&payload));
        well_formed.extend_from_slice(&payload);
        for stray_bytes in [well_formed, b"not a snapshot".to_vec()] {
            let dir = temp_dir("stray");
            let stray = dir.join("store.kfsnap");
            fs::write(&stray, &stray_bytes).expect("plant stray file");
            let (store, persistence, report) =
                Persistence::open(PersistConfig::new(&dir)).expect("open");
            assert_eq!(StoreBackend::len(&store), 0, "the stray seeds nothing");
            assert_eq!(report.recovered_revision, 0, "nor a revision floor");
            assert_eq!(report.snapshot_objects, 0);
            assert!(report.snapshot_quarantined.is_none());
            store.upsert(pod("ns", "real", "nginx"));
            persistence.checkpoint(&store).expect("checkpoint");
            drop((store, persistence));
            let (store, _persistence, report) =
                Persistence::open(PersistConfig::new(&dir)).expect("reopen");
            assert_eq!(StoreBackend::len(&store), 1);
            assert!(store.get(ResourceKind::Pod, "ns", "ghost").is_none());
            assert_eq!(report.recovered_revision, 1);
            // Untouched: same name, same bytes, no retirement or quarantine
            // sibling next to it.
            assert_eq!(fs::read(&stray).expect("stray still there"), stray_bytes);
            let siblings: Vec<String> = fs::read_dir(&dir)
                .expect("list dir")
                .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
                .filter(|name| name.starts_with("store.kfsnap."))
                .collect();
            assert!(siblings.is_empty(), "stray was renamed: {siblings:?}");
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn missing_files_recover_to_an_empty_store() {
        let dir = temp_dir("empty");
        let (store, _persistence, report) =
            Persistence::open(PersistConfig::new(&dir)).expect("open");
        assert_eq!(StoreBackend::len(&store), 0);
        assert_eq!(report.recovered_revision, 0);
        assert_eq!(report.wal_records, 0);
        assert!(report.torn_tail.is_none());
        assert!(report.snapshot_quarantined.is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_retries_through_a_transient_fault() {
        let dir = temp_dir("ckpt-retry");
        let io = Arc::new(FaultyIo::over_real(
            // The boot fsync is fsync op 0 and the store writes pay
            // write+fsync pairs; plant a transient write failure far enough
            // in to land on the snapshot tmp write of the checkpoint.
            FaultSchedule::parse("write@3:transient*1").expect("spec"),
        ));
        let config = PersistConfig::new(&dir).with_retry(RetryPolicy::immediate(8));
        let (store, persistence, _) = Persistence::open_with_io(config, io).expect("open");
        for r in 1..=3u64 {
            store.upsert(pod("ns", &format!("pod-{r}"), "nginx"));
        }
        let report = persistence.checkpoint(&store).expect("checkpoint retries");
        assert!(report.attempts >= 1);
        assert_eq!(report.objects, 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parses_its_knob_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("os"), Some(FsyncPolicy::Os));
        assert_eq!(FsyncPolicy::parse("batch:64"), None, "batch mode is gone");
        assert_eq!(
            FsyncPolicy::parse("group"),
            Some(FsyncPolicy::Group {
                max_wait_us: GROUP_DEFAULT_WAIT_US,
                max_batch: GROUP_DEFAULT_BATCH,
            })
        );
        assert_eq!(
            FsyncPolicy::parse("group:250"),
            Some(FsyncPolicy::Group {
                max_wait_us: 250,
                max_batch: GROUP_DEFAULT_BATCH,
            })
        );
        assert_eq!(
            FsyncPolicy::parse("group:0:8"),
            Some(FsyncPolicy::Group {
                max_wait_us: 0,
                max_batch: 8,
            })
        );
        assert_eq!(FsyncPolicy::parse("group:"), None);
        assert_eq!(FsyncPolicy::parse("group:1:"), None);
        assert_eq!(FsyncPolicy::parse("nope"), None);
    }

    #[test]
    fn group_commit_amortizes_fsyncs_across_a_deferred_batch() {
        let dir = temp_dir("group-amortize");
        let wal = Wal::open(
            &dir.join(WAL_FILE),
            FsyncPolicy::Group {
                max_wait_us: 0,
                max_batch: 64,
            },
            0,
        )
        .expect("open");
        // Ten appends deferred under (simulated) shard locks, then one
        // rendezvous: a single fsync proves all ten.
        let mut ticket = None;
        for r in 1..=10u64 {
            let deferred = wal.append_deferred(&[record(
                r,
                WatchEventKind::Added,
                "default",
                &format!("pod-{r}"),
            )]);
            ticket = GroupTicket::merge(ticket, deferred);
        }
        assert_eq!(
            wal.durable_revision(),
            0,
            "nothing proven before the rendezvous"
        );
        wal.group_commit(ticket.expect("healthy appends produce a ticket"));
        assert_eq!(wal.durable_revision(), 10);
        assert_eq!(wal.state(), DurabilityState::Healthy);
        assert_eq!(wal.fsync_batches(), 1, "one shared fsync for ten writers");
        assert_eq!(wal.group_records(), 10);
        let status = wal.status();
        assert_eq!(status.fsync_batches, 1);
        assert!((status.avg_group_size() - 10.0).abs() < f64::EPSILON);
        // A plain append still rendezvouses internally.
        wal.append(&[record(11, WatchEventKind::Added, "default", "pod-11")]);
        assert_eq!(wal.durable_revision(), 11);
        assert_eq!(wal.fsync_batches(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_covers_an_append_that_arrives_out_of_revision_order() {
        // Two writers on different store shards can reach the WAL out of
        // revision order. The later append carries the lower revision, and
        // `durable_revision` (a max-revision watermark) already exceeds it,
        // but its frame was written after the last fsync: acknowledging it
        // takes another one.
        let dir = temp_dir("group-out-of-order");
        let wal = Wal::open(
            &dir.join(WAL_FILE),
            FsyncPolicy::Group {
                max_wait_us: 0,
                max_batch: 1,
            },
            0,
        )
        .expect("open");
        wal.append(&[record(31, WatchEventKind::Added, "default", "late")]);
        assert_eq!((wal.fsync_batches(), wal.group_records()), (1, 1));
        assert_eq!(wal.durable_revision(), 31);
        wal.append(&[record(5, WatchEventKind::Added, "default", "early")]);
        assert_eq!(
            (wal.fsync_batches(), wal.group_records()),
            (2, 2),
            "an acknowledged frame with no fsync after it"
        );
        assert_eq!(wal.durable_revision(), 31);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_parks_concurrent_writers_and_proves_each_ack() {
        let dir = temp_dir("group-threads");
        let wal = Wal::open(
            &dir.join(WAL_FILE),
            FsyncPolicy::Group {
                max_wait_us: 400,
                max_batch: 8,
            },
            0,
        )
        .expect("open");
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 10;
        std::thread::scope(|scope| {
            for writer in 0..WRITERS {
                let wal = &wal;
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        let revision = writer * PER_WRITER + i + 1;
                        wal.append(&[record(
                            revision,
                            WatchEventKind::Added,
                            "default",
                            &format!("pod-{revision}"),
                        )]);
                        // `append` returning under `Group` means this
                        // writer's revision is fsync-proven.
                        assert!(wal.durable_revision() >= revision);
                    }
                });
            }
        });
        assert_eq!(wal.state(), DurabilityState::Healthy);
        assert_eq!(wal.durable_revision(), WRITERS * PER_WRITER);
        assert_eq!(wal.durability_gap(), 0);
        let total = WRITERS * PER_WRITER;
        assert_eq!(wal.group_records(), total);
        assert!(wal.fsync_batches() >= 1 && wal.fsync_batches() <= total);
        // Every frame landed exactly once, whatever the interleaving.
        let replay = read_wal(&dir.join(WAL_FILE)).expect("read");
        assert!(replay.torn.is_none());
        let mut revisions: Vec<u64> = replay.records.iter().map(|r| r.revision).collect();
        revisions.sort_unstable();
        assert_eq!(revisions, (1..=total).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_group_fsync_degrades_and_never_overstates_durability() {
        let dir = temp_dir("group-degrade");
        // Boot fsync is op 0; every group fsync after it fails.
        let wal = faulty_wal(
            &dir,
            "fsync@1:permanent",
            FsyncPolicy::Group {
                max_wait_us: 0,
                max_batch: 64,
            },
            3,
        );
        wal.append(&[record(1, WatchEventKind::Added, "default", "a")]);
        assert_eq!(
            wal.state(),
            DurabilityState::Degraded,
            "leader observed the failure"
        );
        assert_eq!(
            wal.durable_revision(),
            0,
            "failed shared fsync proves nothing"
        );
        let latched = wal.last_error().expect("latched");
        assert_eq!(latched.kind, StorageErrorKind::Fsync);
        assert_eq!(wal.durability_gap(), 1);
        // Concurrent writers against the dead device: every append returns
        // (no waiter parks forever) and durability is never overstated.
        std::thread::scope(|scope| {
            for writer in 0..4u64 {
                let wal = &wal;
                scope.spawn(move || {
                    for i in 0..5u64 {
                        let revision = 2 + writer * 5 + i;
                        wal.append(&[record(
                            revision,
                            WatchEventKind::Added,
                            "default",
                            &format!("pod-{revision}"),
                        )]);
                    }
                });
            }
        });
        assert_eq!(wal.durable_revision(), 0, "nothing was ever proven");
        assert_eq!(wal.state(), DurabilityState::FailStop);
        assert_eq!(wal.fsync_batches(), 0, "no group fsync ever succeeded");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_and_manifest_round_trip_with_prev_rotation() {
        let dir = temp_dir("segman");
        let io = RealIo;
        let objects: Vec<Arc<StoredObject>> = (1..=3u64)
            .map(|v| {
                Arc::new(StoredObject {
                    object: pod("ns", &format!("pod-{v}"), "nginx"),
                    resource_version: v,
                })
            })
            .collect();
        write_segment_with(&io, &dir, 7, 3, &objects).expect("write segment");
        let segment = read_segment_with(&io, &dir.join(segment_file(7)))
            .expect("read segment")
            .expect("present");
        assert_eq!(segment.shard, 7);
        assert_eq!(segment.horizon, 3);
        assert_eq!(segment.objects.len(), 3);
        for ((rv, body), original) in segment.objects.iter().zip(&objects) {
            assert_eq!(*rv, original.resource_version);
            assert_eq!(body, original.object.body(), "byte-identical tree");
        }
        assert!(read_segment_with(&io, &dir.join(segment_file(8)))
            .expect("absent segment")
            .is_none());

        let first = ManifestData {
            horizon: 3,
            shard_count: 16,
            entries: vec![ManifestEntry {
                shard: 7,
                objects: 3,
            }],
        };
        write_manifest_with(&io, &dir, &first).expect("write manifest");
        assert!(
            read_manifest_with(&io, &dir.join(MANIFEST_PREV_FILE))
                .expect("no prev yet")
                .is_none(),
            "first manifest has nothing to rotate"
        );
        let second = ManifestData {
            horizon: 9,
            shard_count: 16,
            entries: vec![
                ManifestEntry {
                    shard: 2,
                    objects: 1,
                },
                ManifestEntry {
                    shard: 7,
                    objects: 3,
                },
            ],
        };
        write_manifest_with(&io, &dir, &second).expect("write second manifest");
        let current = read_manifest_with(&io, &dir.join(MANIFEST_FILE))
            .expect("read current")
            .expect("present");
        assert_eq!(current.horizon, 9);
        assert_eq!(current.entries.len(), 2);
        let prev = read_manifest_with(&io, &dir.join(MANIFEST_PREV_FILE))
            .expect("read prev")
            .expect("rotated");
        assert_eq!(
            prev.horizon, 3,
            "previous complete manifest survives rotation"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rewrites_only_dirty_shards() {
        let dir = temp_dir("ckpt-dirty");
        let (store, persistence, _) = Persistence::open(PersistConfig::new(&dir)).expect("open");
        for r in 1..=8u64 {
            store.upsert(pod("ns", &format!("pod-{r}"), "nginx"));
        }
        // First checkpoint of a store is full: every shard boots dirty.
        let first = persistence.checkpoint(&store).expect("first checkpoint");
        assert_eq!(
            first.dirty_shards, first.total_shards,
            "boot checkpoint is full"
        );
        assert_eq!(first.objects, 8);
        // One write → exactly one shard rewritten.
        store.upsert(pod("ns", "pod-1", "nginx:2"));
        let second = persistence.checkpoint(&store).expect("second checkpoint");
        assert_eq!(second.dirty_shards, 1, "only the touched shard rewrites");
        assert!(second.objects < 8, "O(dirty), not O(store)");
        // Quiescent checkpoint writes no segments at all.
        let third = persistence.checkpoint(&store).expect("third checkpoint");
        assert_eq!(third.dirty_shards, 0);
        assert_eq!(third.objects, 0);
        assert_eq!(
            store.checkpoint_dirty_shards(),
            0,
            "counter tracks the last claim"
        );
        // The union of segments still reconstructs the full store.
        drop(persistence);
        let (store, _persistence, report) =
            Persistence::open(PersistConfig::new(&dir)).expect("reopen");
        assert_eq!(StoreBackend::len(&store), 8);
        assert_eq!(report.segments_loaded, 16, "every shard has a segment");
        let updated = store
            .get(ResourceKind::Pod, "ns", "pod-1")
            .expect("pod-1 present");
        let image = updated
            .object
            .body()
            .get_path(&kf_yaml::Path::parse("spec.containers[0].image").expect("static path"))
            .expect("image present");
        assert_eq!(
            image.as_str(),
            Some("nginx:2"),
            "dirty-shard rewrite captured the update"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_current_manifest_falls_back_to_the_previous_one() {
        let dir = temp_dir("manifest-fallback");
        {
            let (store, persistence, _) =
                Persistence::open(PersistConfig::new(&dir)).expect("open");
            for r in 1..=4u64 {
                store.upsert(pod("ns", &format!("pod-{r}"), "nginx"));
            }
            persistence.checkpoint(&store).expect("first checkpoint");
            store.upsert(pod("ns", "pod-5", "nginx"));
            persistence.checkpoint(&store).expect("second checkpoint");
        }
        // Tear the current manifest; the rotation left the first
        // checkpoint's manifest as `.prev`.
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&manifest_path).expect("read manifest");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&manifest_path, &bytes).expect("write corrupted");
        let (store, _persistence, report) =
            Persistence::open(PersistConfig::new(&dir)).expect("boot survives torn manifest");
        assert!(report.manifest_fallback, "previous manifest used");
        assert!(
            report
                .snapshot_quarantined
                .as_ref()
                .is_some_and(|p| p.to_string_lossy().ends_with(".corrupt")),
            "torn manifest quarantined"
        );
        // Segments are self-validating, so even state past the prev
        // manifest's horizon recovers from them (plus the WAL suffix).
        assert_eq!(StoreBackend::len(&store), 5, "full state recovered");
        assert!(store.get(ResourceKind::Pod, "ns", "pod-5").is_some());
        fs::remove_dir_all(&dir).ok();
    }
}
