//! The `StorageIo` wrapper: I/O spans, I/O counts, and — what the durability
//! check stands on — how much of each file a successful `sync_data` covers.
//!
//! Killing the benchmark process would prove nothing about durability: the
//! page cache survives the process, so every `write` would still be there on
//! reopen. [`TracedIo`] instead tracks, per path, the bytes written and the
//! byte count covered by the last successful sync, and
//! [`TracedIo::crash_copy`] copies the directory **cutting every file back
//! to its synced length** — what a power loss would leave behind under the
//! contract `fdatasync` gives.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use k8s_apiserver::storage_io::StorageFile;
use k8s_apiserver::{RealIo, StorageIo};

use crate::trace::span;

/// What every sync costs through this wrapper: the calling thread sleeps
/// this long and the device is **not** asked. The store's files are real
/// (written through `std::fs`, read back at recovery), but their durability
/// is the wrapper's bookkeeping, which is all the durability check ever stood
/// on; a physical `fdatasync` added nothing to the check and took the
/// measurement away from the program: this box's shared disk answers in
/// 125-250 us at the median depending on the quarter hour, with minutes-long
/// phases of 5-13 ms tails, and a request under group commit is > 80 % sync
/// wait (ten-seed spreads with the physical sync: throughput 16-22 %,
/// p99 24-42 %). A fixed service time makes `durable_churn` measure what the
/// program decides - how many syncs sit on a request's blocking path, how
/// writers share them, what it encodes and writes - on the same device every
/// run. What the device underneath answers is reported on its own by the
/// `k8s_apiserver.persist.device_fsync_us_p50` probe.
pub const SYNC_SERVICE_TIME: Duration = Duration::from_micros(150);

fn device_sync() {
    std::thread::sleep(SYNC_SERVICE_TIME);
}

/// Bytes written to / proven durable in one file (one inode: a rename moves
/// the record with the file, and handles opened before the rename keep
/// tracking the inode they write to).
#[derive(Debug, Default)]
struct FileState {
    written: AtomicU64,
    synced: AtomicU64,
}

/// I/O work counts, taken where the work happens.
#[derive(Debug, Default)]
pub struct IoCounters {
    /// `write_all` calls on append handles.
    pub writes: AtomicU64,
    /// Bytes those calls appended.
    pub write_bytes: AtomicU64,
    /// `sync_data` calls on append handles.
    pub fsyncs: AtomicU64,
    /// Bytes of whole-file publications (`write_file`: segments, manifests,
    /// compacted WAL).
    pub file_write_bytes: AtomicU64,
}

/// A snapshot of [`IoCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// See [`IoCounters::writes`].
    pub writes: u64,
    /// See [`IoCounters::write_bytes`].
    pub write_bytes: u64,
    /// See [`IoCounters::fsyncs`].
    pub fsyncs: u64,
    /// See [`IoCounters::file_write_bytes`].
    pub file_write_bytes: u64,
}

/// The tracking, counting, span-recording [`StorageIo`].
#[derive(Debug, Default)]
pub struct TracedIo {
    inner: RealIo,
    files: Mutex<HashMap<PathBuf, Arc<FileState>>>,
    counters: Arc<IoCounters>,
}

impl TracedIo {
    /// A wrapper over the real filesystem.
    pub fn new() -> Self {
        TracedIo::default()
    }

    /// The I/O counts so far.
    pub fn counts(&self) -> IoCounts {
        let c = &self.counters;
        IoCounts {
            writes: c.writes.load(Ordering::Relaxed),
            write_bytes: c.write_bytes.load(Ordering::Relaxed),
            fsyncs: c.fsyncs.load(Ordering::Relaxed),
            file_write_bytes: c.file_write_bytes.load(Ordering::Relaxed),
        }
    }

    fn files(&self) -> std::sync::MutexGuard<'_, HashMap<PathBuf, Arc<FileState>>> {
        self.files
            .lock()
            .expect("file table lock: no holder panics")
    }

    /// The tracking record for `path`, created on first sight with whatever
    /// is on disk counted as durable (the file predates this wrapper).
    fn state(&self, path: &Path) -> Arc<FileState> {
        let mut files = self.files();
        if let Some(state) = files.get(path) {
            return Arc::clone(state);
        }
        let len = self.inner.file_len(path).unwrap_or(0);
        let state = Arc::new(FileState {
            written: AtomicU64::new(len),
            synced: AtomicU64::new(len),
        });
        files.insert(path.to_path_buf(), Arc::clone(&state));
        state
    }

    /// How many bytes of `path` a successful sync covers (`None`: the path
    /// never went through this wrapper).
    pub fn synced_len(&self, path: &Path) -> Option<u64> {
        self.files()
            .get(path)
            .map(|state| state.synced.load(Ordering::Acquire))
    }

    /// Copy every regular file of `dir` into `target` as a power loss would
    /// leave it: cut back to the length its last successful sync covers.
    /// Call while no writer is active. Returns the bytes cut off.
    ///
    /// # Errors
    ///
    /// Filesystem errors reading `dir` or writing `target`.
    pub fn crash_copy(&self, dir: &Path, target: &Path) -> io::Result<u64> {
        std::fs::create_dir_all(target)?;
        let mut cut = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let path = entry.path();
            let mut bytes = std::fs::read(&path)?;
            if let Some(synced) = self.synced_len(&path) {
                let keep = (synced as usize).min(bytes.len());
                cut += (bytes.len() - keep) as u64;
                bytes.truncate(keep);
            }
            std::fs::write(target.join(entry.file_name()), bytes)?;
        }
        Ok(cut)
    }
}

#[derive(Debug)]
struct TracedFile {
    inner: Box<dyn StorageFile>,
    state: Arc<FileState>,
    counters: Arc<IoCounters>,
}

impl StorageFile for TracedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let _span = span("io.write");
        self.inner.write_all(buf)?;
        self.state
            .written
            .fetch_add(buf.len() as u64, Ordering::AcqRel);
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .write_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let _span = span("io.fsync");
        // Only what was written before the sync started is certainly
        // covered; a concurrent append may or may not ride along.
        let covered = self.state.written.load(Ordering::Acquire);
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        device_sync();
        self.state.synced.fetch_max(covered, Ordering::AcqRel);
        Ok(())
    }
}

impl StorageIo for TracedIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let _span = span("io.read");
        self.inner.read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let _span = span("io.open");
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(TracedFile {
            inner,
            state: self.state(path),
            counters: Arc::clone(&self.counters),
        }))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let _span = span("io.write_file");
        // `RealIo::write_file` without its physical sync.
        std::fs::write(path, bytes)?;
        device_sync();
        // `write_file` syncs before it returns: a fresh, fully durable file.
        let len = bytes.len() as u64;
        self.files().insert(
            path.to_path_buf(),
            Arc::new(FileState {
                written: AtomicU64::new(len),
                synced: AtomicU64::new(len),
            }),
        );
        self.counters
            .file_write_bytes
            .fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let _span = span("io.rename");
        self.inner.rename(from, to)?;
        let mut files = self.files();
        match files.remove(from) {
            Some(state) => {
                files.insert(to.to_path_buf(), state);
            }
            None => {
                files.remove(to);
            }
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let _span = span("io.truncate");
        self.inner.truncate(path, len)?;
        let state = self.state(path);
        state.written.store(len, Ordering::Release);
        state.synced.fetch_min(len, Ordering::AcqRel);
        Ok(())
    }

    fn sync_parent_dir(&self, _path: &Path) {
        let _span = span("io.sync_dir");
        device_sync();
    }
}
