//! The storage boundary of the durability subsystem.
//!
//! Everything the WAL and checkpointer need from a disk is expressed as
//! the small [`Storage`] trait: named byte streams with `append`/`sync`
//! (the log), `write_atomic` (checkpoints, all-or-nothing), and
//! `list`/`read`/`len`/`remove` (recovery and retention).
//!
//! Two implementations ship:
//!
//! * [`DirStorage`] — the real thing: one flat directory. A file it
//!   creates is written with direct I/O into zero-filled space it has
//!   preallocated and made durable, so [`Storage::sync`] is an
//!   `fdatasync` that commits no metadata; a file it did not create, or
//!   any file on a filesystem that refuses direct I/O, is written with
//!   `O_APPEND` and synced with `fsync`. [`Storage::write_atomic`] is
//!   write-temp-fsync-rename plus a directory fsync. See DESIGN §11.1.
//! * [`MemStorage`] — a deterministic in-memory disk with **fault
//!   injection** in the spirit of [`crate::faults::ChaosProxy`]: a
//!   seeded [`FaultPlan`] crashes the store after a chosen number of
//!   write operations (tearing the in-flight append at an arbitrary
//!   byte offset and optionally bit-flipping the torn tail), and makes
//!   the first read of a file fail or come up short. Crucially the
//!   fault model honours the `fsync` contract: bytes acknowledged by
//!   [`Storage::sync`] survive a crash intact; bytes after the last
//!   sync may be lost, torn at any offset, or flipped — exactly what a
//!   power cut does to a page cache.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::retry::SplitMix64;
use crate::sync::lock;

/// A named-blob store with the durability primitives the WAL and
/// checkpointer are written against. All methods take `&self`: stores
/// are internally synchronised and shared across threads.
pub trait Storage: Send + Sync {
    /// Names of all stored files (unordered; temp artifacts excluded).
    fn list(&self) -> io::Result<Vec<String>>;
    /// Reads a whole file. May legitimately return fewer bytes than
    /// [`Storage::len`] reports (a *short read*); callers that need the
    /// whole file compare and retry.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Current size of a file in bytes.
    fn len(&self, name: &str) -> io::Result<u64>;
    /// Appends bytes to a file, creating it if absent. Not durable
    /// until [`Storage::sync`] returns.
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Makes all previously appended bytes of `name` durable.
    fn sync(&self, name: &str) -> io::Result<()>;
    /// Replaces a file's contents atomically and durably: on return the
    /// new bytes survive a crash; a crash mid-call leaves the old
    /// contents (or absence) untouched.
    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Deletes a file. Deleting an absent file is not an error.
    fn remove(&self, name: &str) -> io::Result<()>;
}

// ---------------------------------------------------------------------
// Directory-backed storage.

/// `O_DIRECT` as the Linux target architectures number it.
#[cfg(any(target_arch = "aarch64", target_arch = "arm"))]
const O_DIRECT: i32 = 0o200_000;
#[cfg(any(target_arch = "powerpc", target_arch = "powerpc64"))]
const O_DIRECT: i32 = 0o400_000;
#[cfg(any(target_arch = "mips", target_arch = "mips64"))]
const O_DIRECT: i32 = 0o100_000;
#[cfg(not(any(
    target_arch = "aarch64",
    target_arch = "arm",
    target_arch = "powerpc",
    target_arch = "powerpc64",
    target_arch = "mips",
    target_arch = "mips64"
)))]
const O_DIRECT: i32 = 0o40_000;

/// The errno a filesystem that refuses direct I/O answers with.
const EINVAL: i32 = 22;

/// Direct-I/O unit: every direct write's offset, length and buffer
/// address are multiples of it.
const BLOCK: u64 = 4096;

/// Preallocation step: a direct file grows by whole MiBs of zeros.
const EXTENT: u64 = 1 << 20;

fn round_up(n: u64, unit: u64) -> u64 {
    n.div_ceil(unit) * unit
}

/// `len` bytes of `buf` starting at a [`BLOCK`]-aligned address.
fn aligned(buf: &mut Vec<u8>, len: usize) -> &mut [u8] {
    let block = BLOCK as usize;
    if buf.len() < len + block {
        buf.resize(len + block, 0);
    }
    let at = buf.as_ptr().align_offset(block);
    &mut buf[at..at + len]
}

/// A file [`DirStorage`] created: appended to with direct I/O inside
/// zero-filled space that is already durable, so a flush writes data
/// blocks only.
struct DirectFile {
    file: fs::File,
    /// Bytes appended: the logical end of the file.
    len: u64,
    /// Bytes of zero-filled space the file holds, its size on disk.
    allocated: u64,
    /// The appended bytes of the last, partly filled block; the next
    /// append rewrites that block with them as its prefix.
    tail: Vec<u8>,
    /// Scratch for aligned writes.
    buf: Vec<u8>,
}

impl DirectFile {
    /// Creates `path` with `O_DIRECT` and its first extent. `Ok(None)`
    /// when the filesystem refuses direct I/O (nothing is left behind).
    fn create(path: &std::path::Path) -> io::Result<Option<Self>> {
        use std::os::unix::fs::OpenOptionsExt;
        let refused = |e: &io::Error| e.raw_os_error() == Some(EINVAL);
        let file = match fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .custom_flags(O_DIRECT)
            .open(path)
        {
            Ok(file) => file,
            Err(e) if refused(&e) => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut direct = Self {
            file,
            len: 0,
            allocated: 0,
            tail: Vec::new(),
            buf: Vec::new(),
        };
        match direct.extend_to(EXTENT) {
            Ok(()) => Ok(Some(direct)),
            Err(e) => {
                drop(direct);
                fs::remove_file(path)?;
                if refused(&e) {
                    Ok(None)
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Grows the file with zeros to at least `need` bytes, in whole
    /// extents, and makes the new size durable before returning.
    fn extend_to(&mut self, need: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        let target = round_up(need, EXTENT);
        let mut zeros = Vec::new();
        let zeros = aligned(&mut zeros, EXTENT as usize);
        while self.allocated < target {
            self.file.write_all_at(zeros, self.allocated)?;
            self.allocated += EXTENT;
        }
        self.file.sync_all()
    }

    /// Writes `data` at the logical end: one direct write from the start
    /// of the tail block, which carries the tail's bytes unchanged, to
    /// the next block boundary, zero-padded.
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        if data.is_empty() {
            return Ok(());
        }
        let start = self.len - self.tail.len() as u64;
        let end = self.len + data.len() as u64;
        let span = round_up(end, BLOCK) - start;
        if start + span > self.allocated {
            self.extend_to(start + span)?;
        }
        let out = aligned(&mut self.buf, span as usize);
        let (kept, used) = (self.tail.len(), (end - start) as usize);
        out[..kept].copy_from_slice(&self.tail);
        out[kept..used].copy_from_slice(data);
        out[used..].fill(0);
        self.file.write_all_at(out, start)?;
        self.tail.clear();
        self.tail
            .extend_from_slice(&out[used - (end % BLOCK) as usize..used]);
        self.len = end;
        Ok(())
    }
}

/// How [`DirStorage`] writes one open file.
enum Handle {
    /// Created here, on a filesystem that takes direct I/O.
    Direct(DirectFile),
    /// Anything else: buffered `O_APPEND` writes, `fsync`.
    Append(fs::File),
}

/// [`Storage`] over one flat directory on the local filesystem.
///
/// A file it creates through [`Storage::append`] is preallocated in
/// zero-filled MiB extents, each made durable as it is added, and
/// written with direct I/O in 4 KiB blocks; the partly filled last block
/// is rewritten with its earlier bytes unchanged. Its size on disk, which
/// [`Storage::len`] and [`Storage::read`] report, therefore runs past the
/// appended bytes into zeros, which WAL recovery reads as a clean end.
/// [`Storage::sync`] on such a file is `fdatasync`: size and block map
/// are already durable, so it flushes data only. A file that existed
/// before, and every file on a filesystem that refuses direct I/O, is
/// appended to with `O_APPEND` and synced with `fsync`.
pub struct DirStorage {
    root: PathBuf,
    /// Open handles so a hot WAL does not reopen per record batch;
    /// `sync` flushes through the same handle.
    handles: Mutex<HashMap<String, Handle>>,
    /// Whether new files try direct I/O; cleared for good the first
    /// time the filesystem refuses it.
    direct: AtomicBool,
}

impl std::fmt::Debug for DirStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirStorage")
            .field("root", &self.root)
            .field("direct", &self.direct.load(Ordering::Relaxed))
            .finish()
    }
}

impl DirStorage {
    /// Opens (creating if needed) the directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            handles: Mutex::new(HashMap::new()),
            direct: AtomicBool::new(true),
        })
    }

    /// A store that writes every file the way it writes on a filesystem
    /// that refuses direct I/O.
    #[cfg(test)]
    pub(crate) fn open_buffered(root: impl Into<PathBuf>) -> io::Result<Self> {
        let s = Self::open(root)?;
        s.direct.store(false, Ordering::Relaxed);
        Ok(s)
    }

    /// Whether new files are still written with direct I/O here.
    #[cfg(test)]
    pub(crate) fn writes_direct(&self) -> bool {
        self.direct.load(Ordering::Relaxed)
    }

    /// The backing directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Fsyncs the directory itself so renames/unlinks are durable.
    /// Best-effort on platforms where directories cannot be synced.
    fn sync_dir(&self) {
        if let Ok(d) = fs::File::open(&self.root) {
            let _ = d.sync_all();
        }
    }

    /// Opens `name` for appending: a direct file when this store creates
    /// it and the filesystem allows, else an `O_APPEND` handle.
    fn open_handle(&self, name: &str) -> io::Result<Handle> {
        let path = self.path(name);
        if self.direct.load(Ordering::Relaxed) {
            match DirectFile::create(&path) {
                Ok(Some(file)) => {
                    // The new name must outlive a crash as surely as the
                    // records that will be acked from it.
                    self.sync_dir();
                    return Ok(Handle::Direct(file));
                }
                Ok(None) => self.direct.store(false, Ordering::Relaxed),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e),
            }
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Handle::Append(file))
    }
}

impl Storage for DirStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.starts_with('.') {
                out.push(name);
            }
        }
        Ok(out)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.path(name))
    }

    fn len(&self, name: &str) -> io::Result<u64> {
        Ok(fs::metadata(self.path(name))?.len())
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut handles = lock(&self.handles);
        if !handles.contains_key(name) {
            let handle = self.open_handle(name)?;
            handles.insert(name.to_string(), handle);
        }
        match handles.get_mut(name).expect("just inserted") {
            Handle::Direct(file) => file.append(data),
            Handle::Append(file) => file.write_all(data),
        }
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let handles = lock(&self.handles);
        match handles.get(name) {
            Some(Handle::Direct(file)) => file.file.sync_data(),
            Some(Handle::Append(file)) => file.sync_all(),
            // Nothing appended through us yet: sync whatever is on disk.
            None => match fs::File::open(self.path(name)) {
                Ok(f) => f.sync_all(),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(e),
            },
        }
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let tmp = self.path(&format!(".{name}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.path(name))?;
        self.sync_dir();
        // Any stale append handle now points at an unlinked inode.
        lock(&self.handles).remove(name);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        lock(&self.handles).remove(name);
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic in-memory storage with fault injection.

/// What the fault-injecting [`MemStorage`] is allowed to do, and when.
///
/// Like [`crate::faults::FaultConfig`], determinism is the point: the
/// same plan over the same operation sequence injects the same faults,
/// so a failing kill-loop seed replays bit-identically.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Crash the store after this many write operations (appends, syncs
    /// and atomic writes each count as one). The crashing operation
    /// fails; an in-flight append is torn at an arbitrary byte offset;
    /// every later write fails with [`io::ErrorKind::Other`]. `None`
    /// never crashes.
    pub crash_after_writes: Option<u64>,
    /// Probability that the *first* read of each file fails (an
    /// [`io::ErrorKind::Interrupted`] error or a short read, chosen by
    /// the fault stream). Strictly once per file, so a retrying reader
    /// always makes progress.
    pub read_fault: f64,
    /// Flip bits in the torn (unsynced) tail that survives a crash.
    /// Synced bytes are never touched — that is the fsync contract.
    pub flip_torn_tail: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0x00CA_5BED,
            crash_after_writes: None,
            read_fault: 0.0,
            flip_torn_tail: true,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes `[..synced]` are durable; the rest is "page cache" that a
    /// crash may tear or lose.
    synced: usize,
}

#[derive(Debug)]
struct MemInner {
    files: HashMap<String, MemFile>,
    plan: FaultPlan,
    rng: SplitMix64,
    writes_done: u64,
    crashed: bool,
    /// Files whose one-shot read fault has already fired.
    read_faulted: std::collections::HashSet<String>,
}

/// In-memory [`Storage`] with deterministic crash and read-fault
/// injection; the kill-loop harness and the recovery property tests run
/// on it. Clones share the same underlying "disk".
#[derive(Debug, Clone)]
pub struct MemStorage {
    inner: Arc<Mutex<MemInner>>,
}

impl Default for MemStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStorage {
    /// A fault-free in-memory store.
    pub fn new() -> Self {
        Self::with_faults(FaultPlan::default())
    }

    /// An in-memory store injecting faults per `plan`.
    pub fn with_faults(plan: FaultPlan) -> Self {
        Self {
            inner: Arc::new(Mutex::new(MemInner {
                files: HashMap::new(),
                rng: SplitMix64::new(plan.seed),
                plan,
                writes_done: 0,
                crashed: false,
                read_faulted: std::collections::HashSet::new(),
            })),
        }
    }

    /// Whether the injected crash point has been reached.
    pub fn crashed(&self) -> bool {
        lock(&self.inner).crashed
    }

    /// Write operations performed so far (appends + syncs + atomic
    /// writes) — the coordinate space of
    /// [`FaultPlan::crash_after_writes`].
    pub fn writes_done(&self) -> u64 {
        lock(&self.inner).writes_done
    }

    /// Simulates the machine coming back up after a crash: every file
    /// keeps its synced prefix intact, while the unsynced tail survives
    /// only partially — torn at a deterministic arbitrary offset and
    /// (per [`FaultPlan::flip_torn_tail`]) bit-flipped. The store then
    /// starts a fresh fault epoch under `plan` (read faults from the new
    /// plan fire during the subsequent recovery).
    pub fn crash_restart(&self, plan: FaultPlan) {
        let mut inner = lock(&self.inner);
        let mut rng = SplitMix64::new(plan.seed ^ 0x9E3779B97F4A7C15);
        for file in inner.files.values_mut() {
            let volatile = file.data.len() - file.synced;
            if volatile > 0 {
                let keep = rng.next_below(volatile as u64 + 1) as usize;
                file.data.truncate(file.synced + keep);
                if plan.flip_torn_tail && keep > 0 {
                    let flips = rng.next_below(3) as usize;
                    for _ in 0..flips {
                        let idx = file.synced + rng.next_below(keep as u64) as usize;
                        file.data[idx] ^= 0x80 | (rng.next_u64() as u8 & 0x7F);
                    }
                }
            }
            file.synced = file.data.len();
        }
        inner.plan = plan;
        inner.rng = SplitMix64::new(plan.seed);
        inner.writes_done = 0;
        inner.crashed = false;
        inner.read_faulted.clear();
    }

    /// Total bytes currently stored across all files.
    pub fn total_bytes(&self) -> usize {
        lock(&self.inner).files.values().map(|f| f.data.len()).sum()
    }
}

impl MemInner {
    fn charge_write(&mut self) -> io::Result<bool> {
        if self.crashed {
            return Err(io::Error::other("storage crashed"));
        }
        self.writes_done += 1;
        if let Some(budget) = self.plan.crash_after_writes {
            if self.writes_done > budget {
                self.crashed = true;
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl Storage for MemStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(lock(&self.inner).files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let mut inner = lock(&self.inner);
        let rate = inner.plan.read_fault;
        if rate > 0.0 && !inner.read_faulted.contains(name) {
            let draw = inner.rng.next_f64();
            if draw < rate {
                inner.read_faulted.insert(name.to_string());
                if draw < rate / 2.0 {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "injected transient read error",
                    ));
                }
                // Short read: a deterministic prefix of the true data.
                let data = match inner.files.get(name) {
                    Some(f) => f.data.clone(),
                    None => return Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
                };
                let cut = inner.rng.next_below(data.len() as u64 + 1) as usize;
                return Ok(data[..cut].to_vec());
            }
        }
        match inner.files.get(name) {
            Some(f) => Ok(f.data.clone()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn len(&self, name: &str) -> io::Result<u64> {
        match lock(&self.inner).files.get(name) {
            Some(f) => Ok(f.data.len() as u64),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        let crash_now = inner.charge_write()?;
        if crash_now {
            // Torn write: an arbitrary prefix of the in-flight bytes
            // lands; the caller sees the failure and must treat the op
            // as unacknowledged.
            let keep = inner.rng.next_below(data.len() as u64 + 1) as usize;
            let prefix = data[..keep].to_vec();
            inner
                .files
                .entry(name.to_string())
                .or_default()
                .data
                .extend(prefix);
            return Err(io::Error::other("injected crash during append"));
        }
        inner
            .files
            .entry(name.to_string())
            .or_default()
            .data
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        let crash_now = inner.charge_write()?;
        if crash_now {
            // The crashing sync makes nothing durable: the unsynced tail
            // stays volatile and will be torn by `crash_restart`.
            return Err(io::Error::other("injected crash during sync"));
        }
        if let Some(f) = inner.files.get_mut(name) {
            f.synced = f.data.len();
        }
        Ok(())
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        let crash_now = inner.charge_write()?;
        if crash_now {
            // Atomic means atomic: a crash mid-write leaves the old
            // contents untouched.
            return Err(io::Error::other("injected crash during atomic write"));
        }
        inner.files.insert(
            name.to_string(),
            MemFile {
                synced: data.len(),
                data: data.to_vec(),
            },
        );
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        let crash_now = inner.charge_write()?;
        if crash_now {
            return Err(io::Error::other("injected crash during remove"));
        }
        inner.files.remove(name);
        Ok(())
    }
}

/// Reads a whole file tolerating one transient fault per attempt: a
/// failed or short read is retried (the [`Storage`] contract makes
/// shortness detectable by comparing against [`Storage::len`]).
pub(crate) fn read_reliable<S: Storage + ?Sized>(storage: &S, name: &str) -> io::Result<Vec<u8>> {
    let mut last_err: Option<io::Error> = None;
    for _ in 0..3 {
        match storage.read(name) {
            Ok(data) => match storage.len(name) {
                Ok(expect) if data.len() as u64 == expect => return Ok(data),
                Ok(_) => continue, // short read: retry
                Err(e) => last_err = Some(e),
            },
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("unreadable file")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory under the temp dir, unique to this test.
    fn scratch_dir(test: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("casper-dur-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn dir_storage_round_trips_and_lists() {
        // The buffered path, which every filesystem supports; a direct
        // file reads back with zero fill after its bytes (below).
        let root = scratch_dir("round-trip");
        let s = DirStorage::open_buffered(&root).unwrap();
        s.append("a.log", b"hello ").unwrap();
        s.append("a.log", b"world").unwrap();
        s.sync("a.log").unwrap();
        assert_eq!(s.read("a.log").unwrap(), b"hello world");
        assert_eq!(s.len("a.log").unwrap(), 11);
        s.write_atomic("b.bin", b"atomic").unwrap();
        let mut names = s.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["a.log".to_string(), "b.bin".to_string()]);
        s.remove("a.log").unwrap();
        s.remove("a.log").unwrap(); // idempotent
        assert!(s.read("a.log").is_err());
        s.remove("b.bin").unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_storage_direct_files_read_as_appended_bytes_then_zero_fill() {
        let root = scratch_dir("direct");
        let s = DirStorage::open(&root).unwrap();
        // Uneven appends that start and end inside blocks, cross block
        // boundaries and finally the first extent, synced now and then.
        let mut written = Vec::new();
        let mut n = 0x5EEDu64;
        for i in 0..60usize {
            let size = if i == 59 {
                EXTENT as usize
            } else {
                1 + i * 97 % 3000
            };
            let chunk: Vec<u8> = (0..size)
                .map(|_| {
                    n = n.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (n >> 56) as u8 | 1
                })
                .collect();
            s.append("w.log", &chunk).unwrap();
            written.extend_from_slice(&chunk);
            if i % 7 == 0 {
                s.sync("w.log").unwrap();
            }
        }
        s.sync("w.log").unwrap();
        let data = s.read("w.log").unwrap();
        assert_eq!(s.len("w.log").unwrap(), data.len() as u64);
        assert_eq!(
            &data[..written.len()],
            &written[..],
            "appended bytes changed"
        );
        assert!(data[written.len()..].iter().all(|&b| b == 0));
        if s.writes_direct() {
            assert_eq!(data.len() as u64, round_up(written.len() as u64, EXTENT));
        } else {
            assert_eq!(data.len(), written.len());
        }
        // A file that already exists is appended to, not recreated.
        s.remove("w.log").unwrap();
        fs::write(root.join("old.log"), b"old").unwrap();
        s.append("old.log", b"+new").unwrap();
        s.sync("old.log").unwrap();
        assert_eq!(s.read("old.log").unwrap(), b"old+new");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn mem_storage_tears_unsynced_tail_only() {
        let s = MemStorage::with_faults(FaultPlan {
            seed: 42,
            crash_after_writes: Some(3),
            ..FaultPlan::default()
        });
        s.append("w", b"durable-").unwrap(); // write 1
        s.sync("w").unwrap(); // write 2
        s.append("w", b"volatile").unwrap(); // write 3
                                             // Write 4 crashes mid-append.
        assert!(s.append("w", b"never").is_err());
        assert!(s.crashed());
        assert!(
            s.append("w", b"dead").is_err(),
            "all writes fail after crash"
        );
        s.crash_restart(FaultPlan::default());
        let data = s.read("w").unwrap();
        assert!(data.starts_with(b"durable-"), "synced prefix must survive");
        assert!(data.len() <= "durable-volatilenever".len());
        assert!(!s.crashed());
        s.append("w", b"!").unwrap();
    }

    #[test]
    fn mem_storage_read_faults_fire_once_per_file() {
        let s = MemStorage::with_faults(FaultPlan {
            seed: 7,
            read_fault: 1.0,
            ..FaultPlan::default()
        });
        s.append("f", b"0123456789").unwrap();
        s.sync("f").unwrap();
        let first = s.read("f");
        let faulted = match first {
            Err(_) => true,
            Ok(d) => d.len() < 10,
        };
        assert!(faulted, "first read must be injected");
        assert_eq!(s.read("f").unwrap(), b"0123456789");
        // The reliable reader masks the transient fault entirely.
        let s2 = MemStorage::with_faults(FaultPlan {
            seed: 8,
            read_fault: 1.0,
            ..FaultPlan::default()
        });
        s2.append("g", b"abc").unwrap();
        assert_eq!(read_reliable(&s2, "g").unwrap(), b"abc");
    }

    #[test]
    fn atomic_write_survives_crash_as_old_or_new_never_mixed() {
        let s = MemStorage::with_faults(FaultPlan {
            seed: 3,
            crash_after_writes: Some(1),
            ..FaultPlan::default()
        });
        s.write_atomic("c", b"old").unwrap();
        assert!(s.write_atomic("c", b"new").is_err());
        s.crash_restart(FaultPlan::default());
        assert_eq!(s.read("c").unwrap(), b"old");
    }
}
