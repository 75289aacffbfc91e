//! Deterministic I/O fault injection for the durable/serve stack.
//!
//! The engine injects faults into every layer of the *simulated*
//! hardware; this module turns the same discipline on the engine's own
//! substrate — the filesystem under [`crate::snapshot`], the telemetry
//! [`StreamSink`](crate::telemetry::StreamSink) and the `serve` daemon.
//! Three pieces:
//!
//! * **[`Vfs`]** — the injectable seam. Every byte the durable stack
//!   persists goes through this trait: create/append/read/rename/
//!   remove/dir-sync. [`RealFs`] passes straight through to `std::fs`.
//! * **[`MemFs`]** — an in-memory filesystem with an explicit
//!   *durable/volatile split* modeling strict POSIX crash semantics:
//!   file content becomes durable only on `sync_all`, directory entries
//!   (creates, renames, removals) become durable only when the parent
//!   directory is synced, and [`MemFs::crash`] discards everything
//!   volatile. This is what makes the classic rename-without-dir-fsync
//!   bug *observable* in a test.
//! * **[`FaultyFs`]** — a seeded, deterministic fault injector over a
//!   [`MemFs`]: torn/short writes, `ENOSPC`, fsync failure, rename
//!   failure, persistent disk-pressure windows, and crash points (stop
//!   the world at the k-th I/O operation). Every decision is a pure
//!   function of `(seed, op_index)` — same plan, same faults, every run.
//!
//! On top of the seam sit the recovery primitives the chaos harness
//! forces the stack to need: [`RetryPolicy`] (bounded exponential
//! backoff for transient failures) driven by a [`Clock`] that is real in
//! production and [virtual](VirtualClock) — deterministic, non-sleeping —
//! under test, bundled with a [`Vfs`] handle as an [`IoEnv`].
//!
//! Injected errors are *typed*: [`injected_fault`] recovers the exact
//! [`InjectedFault`] from any `std::io::Error` this module produced, and
//! the classifiers [`is_transient_io`] / [`is_disk_full`] /
//! [`is_injected_crash`] are what the daemon's retry and disk-pressure
//! parking decisions key on.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::io::{self, Read as _, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// --- the seam ------------------------------------------------------

/// An open file handle behind the [`Vfs`] seam.
///
/// `Write` is the supertrait so a boxed handle slots anywhere a plain
/// writer does (e.g. [`StreamSink::with_capacity`]); `sync_all` is the
/// durability point — under [`MemFs`] semantics, content written but
/// never synced does not survive a [`MemFs::crash`].
///
/// [`StreamSink::with_capacity`]: crate::telemetry::StreamSink::with_capacity
pub trait VfsFile: Write + Send {
    /// Flushes and makes the file's *content* durable (fsync). Does not
    /// make the file's directory entry durable — that takes
    /// [`Vfs::sync_dir`] on the parent.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The injectable filesystem seam the durable stack writes through.
///
/// Implementations: [`RealFs`] (production), [`MemFs`] (crash-semantics
/// model), [`FaultyFs`] (seeded fault injection over a [`MemFs`]).
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens a file for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Reads a whole file of at most `limit` bytes; a longer one is
    /// refused with [`io::ErrorKind::FileTooLarge`]. The default reads
    /// the file and then checks its length, which suits in-memory
    /// filesystems; [`RealFs`] refuses by length and never reads more
    /// than `limit + 1` bytes.
    fn read_at_most(&self, path: &Path, limit: u64) -> io::Result<Vec<u8>> {
        let raw = self.read(path)?;
        if raw.len() as u64 > limit {
            return Err(too_large(path, limit));
        }
        Ok(raw)
    }
    /// Atomically replaces `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Makes a directory's entries durable (fsync of the directory).
    /// The durability point for creates, renames and removals in it.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Whether a file or directory exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Whether `path` is a directory.
    fn is_dir(&self, path: &Path) -> bool;
    /// The entries (files and directories) directly under `path`.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

// --- real filesystem -----------------------------------------------

/// Pass-through [`Vfs`] over `std::fs` — the production implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

struct RealFile(std::fs::File);

impl Write for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl VfsFile for RealFile {
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for RealFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(std::fs::OpenOptions::new().create(true).append(true).open(path)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn read_at_most(&self, path: &Path, limit: u64) -> io::Result<Vec<u8>> {
        let file = std::fs::File::open(path)?;
        // Refused by length before any of it is read; the read itself is
        // bounded too, since devices such as `/dev/zero` report length 0.
        if file.metadata()?.len() > limit {
            return Err(too_large(path, limit));
        }
        let mut buf = Vec::new();
        file.take(limit + 1).read_to_end(&mut buf)?;
        if buf.len() as u64 > limit {
            return Err(too_large(path, limit));
        }
        Ok(buf)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Unix: directories open as files and fsync persists their
        // entries. Platforms where they don't (Windows) get metadata
        // durability from the OS on rename already.
        #[cfg(unix)]
        {
            std::fs::File::open(path)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Ok(())
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn is_dir(&self, path: &Path) -> bool {
        path.is_dir()
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(path)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        Ok(entries)
    }
}

// --- typed injected faults -----------------------------------------

/// What kind of fault an injected `io::Error` represents. Recoverable
/// from the error via [`injected_fault`] — injection is always typed,
/// never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A write persisted only a prefix of the buffer, then failed.
    TornWrite,
    /// `sync_all` failed; content durability is *not* established.
    FsyncFailed,
    /// A rename failed; the target is unchanged.
    RenameFailed,
    /// No space left on device (`ENOSPC`).
    DiskFull,
    /// The crash point was reached: the world has stopped. Every
    /// subsequent operation on the same [`FaultyFs`] fails with this
    /// until [`FaultyFs::restart`].
    Crash,
}

impl InjectedFault {
    fn describe(self) -> &'static str {
        match self {
            InjectedFault::TornWrite => "injected torn write",
            InjectedFault::FsyncFailed => "injected fsync failure",
            InjectedFault::RenameFailed => "injected rename failure",
            InjectedFault::DiskFull => "injected ENOSPC: no space left on device",
            InjectedFault::Crash => "injected crash: the world has stopped",
        }
    }
}

/// Error payload carried inside injected `io::Error`s.
#[derive(Debug)]
struct Injected(InjectedFault);

impl fmt::Display for Injected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.describe())
    }
}

impl std::error::Error for Injected {}

fn injected_err(fault: InjectedFault) -> io::Error {
    let kind = match fault {
        InjectedFault::DiskFull => io::ErrorKind::StorageFull,
        _ => io::ErrorKind::Other,
    };
    io::Error::new(kind, Injected(fault))
}

/// The [`InjectedFault`] behind an `io::Error`, if it was injected by a
/// [`FaultyFs`].
#[must_use]
pub fn injected_fault(e: &io::Error) -> Option<InjectedFault> {
    e.get_ref().and_then(|inner| inner.downcast_ref::<Injected>()).map(|i| i.0)
}

/// Whether an I/O error is worth a bounded retry: injected torn-write /
/// fsync / rename faults (transient by construction — the next op index
/// rolls fresh dice) and real `Interrupted` errors. Disk-full and crash
/// are *not* transient: they take parking and restart respectively.
#[must_use]
pub fn is_transient_io(e: &io::Error) -> bool {
    match injected_fault(e) {
        Some(
            InjectedFault::TornWrite | InjectedFault::FsyncFailed | InjectedFault::RenameFailed,
        ) => true,
        Some(InjectedFault::DiskFull | InjectedFault::Crash) => false,
        None => e.kind() == io::ErrorKind::Interrupted,
    }
}

/// Whether an I/O error means the disk is full (real or injected
/// `ENOSPC`) — the trigger for the daemon's graceful-degradation
/// parking, never a retry.
#[must_use]
pub fn is_disk_full(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::StorageFull
}

/// Whether an I/O error is an injected crash point.
#[must_use]
pub fn is_injected_crash(e: &io::Error) -> bool {
    matches!(injected_fault(e), Some(InjectedFault::Crash))
}

// --- in-memory filesystem with crash semantics ---------------------

#[derive(Debug, Default)]
struct Inode {
    /// What the running program reads.
    visible: Vec<u8>,
    /// What survives a crash — established only by `sync_all`. `None`
    /// means the content was never synced: if the *entry* is durable
    /// but the content is not, a crash leaves a zero-length file (the
    /// torn case readers must reject with a typed error).
    durable: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct MemInner {
    inodes: HashMap<u64, Inode>,
    /// Live namespace: what `read`/`exists`/`read_dir` see.
    visible_ns: BTreeMap<PathBuf, u64>,
    /// Crash-surviving namespace: updated only by `sync_dir`.
    durable_ns: BTreeMap<PathBuf, u64>,
    dirs_visible: BTreeSet<PathBuf>,
    dirs_durable: BTreeSet<PathBuf>,
    next_ino: u64,
}

impl MemInner {
    fn alloc(&mut self) -> u64 {
        self.next_ino += 1;
        self.next_ino
    }

    fn parent_exists(&self, path: &Path) -> bool {
        match path.parent() {
            None => true,
            Some(p) if p.as_os_str().is_empty() => true,
            Some(p) => self.dirs_visible.contains(p),
        }
    }
}

/// In-memory [`Vfs`] with strict-POSIX crash semantics: content is
/// durable only after `sync_all`, directory entries only after
/// [`Vfs::sync_dir`] on the parent, and [`MemFs::crash`] rolls the
/// filesystem back to exactly its durable state.
///
/// Clones share the same filesystem.
#[derive(Debug, Clone, Default)]
pub struct MemFs {
    inner: Arc<Mutex<MemInner>>,
}

struct MemFile {
    inner: Arc<Mutex<MemInner>>,
    ino: u64,
}

impl Write for MemFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut fs = self.inner.lock().unwrap();
        match fs.inodes.get_mut(&self.ino) {
            Some(inode) => {
                inode.visible.extend_from_slice(buf);
                Ok(buf.len())
            }
            // The inode was discarded by a crash under this handle.
            None => Err(io::Error::new(io::ErrorKind::NotFound, "file lost in crash")),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl VfsFile for MemFile {
    fn sync_all(&mut self) -> io::Result<()> {
        let mut fs = self.inner.lock().unwrap();
        match fs.inodes.get_mut(&self.ino) {
            Some(inode) => {
                inode.durable = Some(inode.visible.clone());
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "file lost in crash")),
        }
    }
}

impl MemFs {
    /// A fresh, empty in-memory filesystem.
    #[must_use]
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// Simulates a power loss: everything volatile is discarded. Files
    /// whose entries were never dir-synced vanish; renamed-over files
    /// revert; content written but never `sync_all`ed reverts (to the
    /// last synced content, or to zero bytes if never synced at all).
    pub fn crash(&self) {
        let mut fs = self.inner.lock().unwrap();
        fs.visible_ns = fs.durable_ns.clone();
        fs.dirs_visible = fs.dirs_durable.clone();
        let live: Vec<u64> = fs.visible_ns.values().copied().collect();
        for ino in live {
            if let Some(inode) = fs.inodes.get_mut(&ino) {
                inode.visible = inode.durable.clone().unwrap_or_default();
            }
        }
    }

    /// The current *visible* content of `path`, bypassing fault
    /// injection when this [`MemFs`] backs a [`FaultyFs`] (reference
    /// checks in the chaos harness).
    ///
    /// # Errors
    ///
    /// `NotFound` when the file does not exist.
    pub fn peek(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.read(path)
    }
}

fn too_large(path: &Path, limit: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::FileTooLarge,
        format!("{} is larger than {limit} bytes", path.display()),
    )
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such file: {}", path.display()))
}

impl Vfs for MemFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut fs = self.inner.lock().unwrap();
        if !fs.parent_exists(path) {
            return Err(not_found(path));
        }
        let ino = match fs.visible_ns.get(path) {
            // Truncate in place: the entry's durability is unchanged,
            // the old durable content survives a crash.
            Some(&ino) => {
                if let Some(inode) = fs.inodes.get_mut(&ino) {
                    inode.visible.clear();
                }
                ino
            }
            None => {
                let ino = fs.alloc();
                fs.inodes.insert(ino, Inode::default());
                fs.visible_ns.insert(path.to_path_buf(), ino);
                ino
            }
        };
        Ok(Box::new(MemFile { inner: Arc::clone(&self.inner), ino }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut fs = self.inner.lock().unwrap();
        if !fs.parent_exists(path) {
            return Err(not_found(path));
        }
        let ino = match fs.visible_ns.get(path) {
            Some(&ino) => ino,
            None => {
                let ino = fs.alloc();
                fs.inodes.insert(ino, Inode::default());
                fs.visible_ns.insert(path.to_path_buf(), ino);
                ino
            }
        };
        Ok(Box::new(MemFile { inner: Arc::clone(&self.inner), ino }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let fs = self.inner.lock().unwrap();
        let ino = fs.visible_ns.get(path).ok_or_else(|| not_found(path))?;
        Ok(fs.inodes.get(ino).map(|i| i.visible.clone()).unwrap_or_default())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut fs = self.inner.lock().unwrap();
        let ino = fs.visible_ns.remove(from).ok_or_else(|| not_found(from))?;
        fs.visible_ns.insert(to.to_path_buf(), ino);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.inner.lock().unwrap();
        fs.visible_ns.remove(path).ok_or_else(|| not_found(path))?;
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.inner.lock().unwrap();
        let mut p = path;
        loop {
            fs.dirs_visible.insert(p.to_path_buf());
            match p.parent() {
                Some(parent) if !parent.as_os_str().is_empty() => p = parent,
                _ => break,
            }
        }
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.inner.lock().unwrap();
        if !fs.dirs_visible.contains(path) {
            return Err(not_found(path));
        }
        // The directory itself (and its ancestors) become durable —
        // journalled filesystems persist the chain when a directory is
        // successfully fsynced.
        let mut p = path;
        loop {
            fs.dirs_durable.insert(p.to_path_buf());
            match p.parent() {
                Some(parent) if !parent.as_os_str().is_empty() => p = parent,
                _ => break,
            }
        }
        // Its direct entries become durable: current files pin their
        // inodes, removed/renamed-away names disappear, subdirectories
        // start existing.
        let updates: Vec<(PathBuf, u64)> = fs
            .visible_ns
            .iter()
            .filter(|(p, _)| p.parent() == Some(path))
            .map(|(p, &ino)| (p.clone(), ino))
            .collect();
        let removals: Vec<PathBuf> = fs
            .durable_ns
            .keys()
            .filter(|p| p.parent() == Some(path) && !fs.visible_ns.contains_key(*p))
            .cloned()
            .collect();
        for (p, ino) in updates {
            fs.durable_ns.insert(p, ino);
        }
        for p in removals {
            fs.durable_ns.remove(&p);
        }
        let subdirs: Vec<PathBuf> =
            fs.dirs_visible.iter().filter(|d| d.parent() == Some(path)).cloned().collect();
        for d in subdirs {
            fs.dirs_durable.insert(d);
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let fs = self.inner.lock().unwrap();
        fs.visible_ns.contains_key(path) || fs.dirs_visible.contains(path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.inner.lock().unwrap().dirs_visible.contains(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let fs = self.inner.lock().unwrap();
        if !fs.dirs_visible.contains(path) {
            return Err(not_found(path));
        }
        let mut entries: Vec<PathBuf> = fs
            .visible_ns
            .keys()
            .chain(fs.dirs_visible.iter())
            .filter(|p| p.parent() == Some(path))
            .cloned()
            .collect();
        entries.sort();
        entries.dedup();
        Ok(entries)
    }
}

// --- seeded fault injection ----------------------------------------

/// splitmix64 — the per-op decision mixer. Pure function of its input,
/// so a fault plan replays identically.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const SALT_TORN: u64 = 0x7042;
const SALT_ENOSPC: u64 = 0xE405;
const SALT_FSYNC: u64 = 0xF5C0;
const SALT_RENAME: u64 = 0x4E4A;

/// A deterministic fault schedule: `(seed, op_index)` decide every
/// injection. `*_in` fields are 1-in-N odds per eligible op (0 = never);
/// `crash_at` stops the world at that op index; `enospc_window` makes
/// every space-consuming op in `[start, end)` fail `ENOSPC` — the
/// persistent disk-pressure model the daemon's parking is tested
/// against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Decision seed.
    pub seed: u64,
    /// 1-in-N odds a write is torn (prefix persisted, typed error).
    pub torn_write_in: u32,
    /// 1-in-N odds a write fails `ENOSPC`.
    pub enospc_in: u32,
    /// 1-in-N odds a `sync_all` fails.
    pub fsync_fail_in: u32,
    /// 1-in-N odds a rename fails.
    pub rename_fail_in: u32,
    /// Stop the world at this op index (sticky until restart).
    pub crash_at: Option<u64>,
    /// Every write/create/sync in `[start, end)` fails `ENOSPC`.
    pub enospc_window: Option<(u64, u64)>,
}

impl FaultPlan {
    /// A plan that injects nothing — the clean half of a chaos schedule.
    #[must_use]
    pub fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    fn hit(&self, op: u64, salt: u64, one_in: u32) -> bool {
        one_in != 0
            && splitmix64(self.seed ^ salt ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .is_multiple_of(u64::from(one_in))
    }

    fn in_enospc_window(&self, op: u64) -> bool {
        self.enospc_window.is_some_and(|(start, end)| op >= start && op < end)
    }
}

#[derive(Debug)]
struct FaultState {
    mem: MemFs,
    plan: Mutex<FaultPlan>,
    ops: AtomicU64,
    crashed: AtomicBool,
}

/// Op categories the gate distinguishes (space-consuming ops are the
/// ones a full disk rejects).
#[derive(Clone, Copy, PartialEq)]
enum OpKind {
    Create,
    Write,
    Fsync,
    Rename,
    Other,
}

impl FaultState {
    /// Counts the op, applies crash/pressure gates, and returns the op
    /// index for per-kind dice.
    fn gate(&self, kind: OpKind) -> io::Result<u64> {
        if self.crashed.load(Ordering::SeqCst) {
            return Err(injected_err(InjectedFault::Crash));
        }
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        let plan = self.plan.lock().unwrap().clone();
        if plan.crash_at.is_some_and(|k| op >= k) {
            self.crashed.store(true, Ordering::SeqCst);
            return Err(injected_err(InjectedFault::Crash));
        }
        if matches!(kind, OpKind::Create | OpKind::Write | OpKind::Fsync)
            && plan.in_enospc_window(op)
        {
            return Err(injected_err(InjectedFault::DiskFull));
        }
        match kind {
            OpKind::Fsync if plan.hit(op, SALT_FSYNC, plan.fsync_fail_in) => {
                Err(injected_err(InjectedFault::FsyncFailed))
            }
            OpKind::Rename if plan.hit(op, SALT_RENAME, plan.rename_fail_in) => {
                Err(injected_err(InjectedFault::RenameFailed))
            }
            OpKind::Write if plan.hit(op, SALT_ENOSPC, plan.enospc_in) => {
                Err(injected_err(InjectedFault::DiskFull))
            }
            _ => Ok(op),
        }
    }
}

/// Seeded deterministic fault injection over a [`MemFs`].
///
/// Wraps every [`Vfs`] operation in a gate that counts it, consults the
/// [`FaultPlan`], and either passes through or fails with a typed
/// injected error. After the crash point fires, every operation fails
/// with [`InjectedFault::Crash`] until [`restart`](FaultyFs::restart),
/// which applies [`MemFs::crash`] (volatile state is lost) and clears
/// the latch — modeling a process that died and came back.
#[derive(Debug, Clone)]
pub struct FaultyFs {
    state: Arc<FaultState>,
}

struct FaultyFile {
    inner: Box<dyn VfsFile>,
    state: Arc<FaultState>,
}

impl Write for FaultyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let op = self.state.gate(OpKind::Write)?;
        let plan = self.state.plan.lock().unwrap().clone();
        if !buf.is_empty() && plan.hit(op, SALT_TORN, plan.torn_write_in) {
            // Torn write: a deterministic prefix lands, then the error.
            let keep = (splitmix64(plan.seed ^ SALT_TORN ^ op) as usize) % buf.len();
            self.inner.write_all(&buf[..keep])?;
            return Err(injected_err(InjectedFault::TornWrite));
        }
        self.inner.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for FaultyFile {
    fn sync_all(&mut self) -> io::Result<()> {
        self.state.gate(OpKind::Fsync)?;
        self.inner.sync_all()
    }
}

impl FaultyFs {
    /// A fault injector over a fresh [`MemFs`].
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultyFs {
        FaultyFs::over(MemFs::new(), plan)
    }

    /// A fault injector over an existing [`MemFs`] (shared state).
    #[must_use]
    pub fn over(mem: MemFs, plan: FaultPlan) -> FaultyFs {
        FaultyFs {
            state: Arc::new(FaultState {
                mem,
                plan: Mutex::new(plan),
                ops: AtomicU64::new(0),
                crashed: AtomicBool::new(false),
            }),
        }
    }

    /// The backing [`MemFs`] — fault-free access for reference checks.
    #[must_use]
    pub fn mem(&self) -> MemFs {
        self.state.mem.clone()
    }

    /// Replaces the fault plan (e.g. switch to [`FaultPlan::clean`] for
    /// the recovery half of a schedule).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.state.plan.lock().unwrap() = plan;
    }

    /// I/O operations gated so far.
    #[must_use]
    pub fn op_count(&self) -> u64 {
        self.state.ops.load(Ordering::SeqCst)
    }

    /// Whether the crash point has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    /// Simulates the process coming back after a crash: volatile
    /// filesystem state is discarded ([`MemFs::crash`]), the crash
    /// latch clears, and the crash point is consumed (a crash fires
    /// once, not on every later op). The op counter keeps counting, so
    /// probabilistic fault decisions never repeat.
    pub fn restart(&self) {
        self.state.mem.crash();
        self.state.plan.lock().unwrap().crash_at = None;
        self.state.crashed.store(false, Ordering::SeqCst);
    }
}

impl Vfs for FaultyFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.state.gate(OpKind::Create)?;
        let inner = self.state.mem.create(path)?;
        Ok(Box::new(FaultyFile { inner, state: Arc::clone(&self.state) }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.state.gate(OpKind::Create)?;
        let inner = self.state.mem.open_append(path)?;
        Ok(Box::new(FaultyFile { inner, state: Arc::clone(&self.state) }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.state.gate(OpKind::Other)?;
        self.state.mem.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.state.gate(OpKind::Rename)?;
        self.state.mem.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.state.gate(OpKind::Other)?;
        self.state.mem.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.state.gate(OpKind::Create)?;
        self.state.mem.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.state.gate(OpKind::Fsync)?;
        self.state.mem.sync_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        // Existence probes are metadata reads; they don't consume ops
        // (keeps fault schedules stable across incidental probing).
        !self.state.crashed.load(Ordering::SeqCst) && self.state.mem.exists(path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        !self.state.crashed.load(Ordering::SeqCst) && self.state.mem.is_dir(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.state.gate(OpKind::Other)?;
        self.state.mem.read_dir(path)
    }
}

// --- clocks and bounded retry --------------------------------------

/// Time source for retry backoff: real in production, virtual —
/// deterministic and non-sleeping — under test.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Sleeps (or pretends to) for `ms` milliseconds.
    fn sleep_ms(&self, ms: u64);
    /// Milliseconds slept so far (virtual clocks) or 0 (real clock —
    /// wall time is not part of any deterministic contract).
    fn slept_ms(&self) -> u64;
}

/// Wall-clock [`Clock`]: `sleep_ms` really sleeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealClock;

impl Clock for RealClock {
    fn sleep_ms(&self, ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    fn slept_ms(&self) -> u64 {
        0
    }
}

/// Deterministic [`Clock`]: `sleep_ms` advances a counter and returns
/// immediately, so chaos schedules with thousands of retries run in
/// microseconds and backoff arithmetic is exactly testable.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ms: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at t = 0.
    #[must_use]
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }
}

impl Clock for VirtualClock {
    fn sleep_ms(&self, ms: u64) {
        self.now_ms.fetch_add(ms, Ordering::SeqCst);
    }

    fn slept_ms(&self) -> u64 {
        self.now_ms.load(Ordering::SeqCst)
    }
}

/// Bounded exponential backoff for transient I/O failures.
///
/// `attempts` is the *total* number of tries (1 = no retry); waits are
/// `base_ms << attempt`, capped at `max_ms`. Deterministic: the wait
/// sequence is a pure function of the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Clamped to at least 1.
    pub attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub max_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 4, base_ms: 5, max_ms: 200 }
    }
}

impl RetryPolicy {
    /// No retries: fail on the first error.
    #[must_use]
    pub const fn disabled() -> RetryPolicy {
        RetryPolicy { attempts: 1, base_ms: 0, max_ms: 0 }
    }

    /// The wait before retry number `retry` (0-based), in milliseconds.
    #[must_use]
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        self.base_ms.saturating_shl(retry.min(32)).min(self.max_ms)
    }

    /// Runs `op`, retrying transient failures (per [`is_transient_io`])
    /// with backoff on `clock` until success, a non-transient error, or
    /// the attempt budget runs out.
    ///
    /// # Errors
    ///
    /// The last error `op` returned.
    pub fn run<T>(
        &self,
        clock: &dyn Clock,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let attempts = self.attempts.max(1);
        let mut retry = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if retry + 1 < attempts && is_transient_io(&e) => {
                    clock.sleep_ms(self.backoff_ms(retry));
                    retry += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// The durable stack's I/O environment: which filesystem to write
/// through, how hard to retry transient failures, and on whose clock.
/// [`IoEnv::default`] is the production configuration ([`RealFs`],
/// default policy, [`RealClock`]); chaos tests swap in a [`FaultyFs`]
/// and a [`VirtualClock`].
#[derive(Debug, Clone)]
pub struct IoEnv {
    /// The filesystem seam.
    pub vfs: Arc<dyn Vfs>,
    /// Retry budget for transient write/fsync/rename failures.
    pub retry: RetryPolicy,
    /// Clock the backoff sleeps on.
    pub clock: Arc<dyn Clock>,
}

impl Default for IoEnv {
    fn default() -> Self {
        IoEnv { vfs: Arc::new(RealFs), retry: RetryPolicy::default(), clock: Arc::new(RealClock) }
    }
}

impl IoEnv {
    /// The production environment (alias of [`IoEnv::default`]).
    #[must_use]
    pub fn real() -> IoEnv {
        IoEnv::default()
    }

    /// An environment over `vfs` with the default retry policy and a
    /// [`VirtualClock`] (deterministic, non-sleeping backoff).
    #[must_use]
    pub fn with_vfs(vfs: Arc<dyn Vfs>) -> IoEnv {
        IoEnv { vfs, retry: RetryPolicy::default(), clock: Arc::new(VirtualClock::new()) }
    }

    /// Runs an I/O closure under this environment's retry policy.
    ///
    /// # Errors
    ///
    /// The last error the closure returned.
    pub fn retry_io<T>(&self, op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        self.retry.run(self.clock.as_ref(), op)
    }

    /// Runs a snapshot-writing closure under this environment's retry
    /// policy: transient [`SnapshotError::Io`] failures are retried, any
    /// other error is final.
    ///
    /// # Errors
    ///
    /// The last error the closure returned.
    ///
    /// [`SnapshotError::Io`]: crate::snapshot::SnapshotError::Io
    pub fn retry_snapshot<T>(
        &self,
        mut op: impl FnMut() -> Result<T, crate::snapshot::SnapshotError>,
    ) -> Result<T, crate::snapshot::SnapshotError> {
        let attempts = self.retry.attempts.max(1);
        let mut retry = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(crate::snapshot::SnapshotError::Io(e))
                    if retry + 1 < attempts && is_transient_io(&e) =>
                {
                    self.clock.sleep_ms(self.retry.backoff_ms(retry));
                    retry += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        if rhs >= 64 {
            return u64::MAX;
        }
        self.checked_shl(rhs).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfs_rename_without_dir_sync_is_volatile() {
        let fs = MemFs::new();
        fs.create_dir_all(Path::new("/d")).unwrap();
        fs.sync_dir(Path::new("/d")).unwrap();

        // tmp+fsync+rename but NO dir sync: visible now, gone on crash.
        let mut f = fs.create(Path::new("/d/a.tmp")).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        drop(f);
        fs.rename(Path::new("/d/a.tmp"), Path::new("/d/a")).unwrap();
        assert_eq!(fs.read(Path::new("/d/a")).unwrap(), b"hello");

        fs.crash();
        assert!(fs.read(Path::new("/d/a")).is_err(), "unsynced rename must not survive a crash");

        // Same sequence WITH the dir sync: survives.
        let mut f = fs.create(Path::new("/d/b.tmp")).unwrap();
        f.write_all(b"world").unwrap();
        f.sync_all().unwrap();
        drop(f);
        fs.rename(Path::new("/d/b.tmp"), Path::new("/d/b")).unwrap();
        fs.sync_dir(Path::new("/d")).unwrap();
        fs.crash();
        assert_eq!(fs.read(Path::new("/d/b")).unwrap(), b"world");
        assert!(!fs.exists(Path::new("/d/b.tmp")), "tmp name must not survive");
    }

    #[test]
    fn reads_past_a_limit_are_refused_on_every_filesystem() {
        let fs = MemFs::new();
        fs.create_dir_all(Path::new("/d")).unwrap();
        fs.create(Path::new("/d/a")).unwrap().write_all(b"abcd").unwrap();
        assert_eq!(fs.read_at_most(Path::new("/d/a"), 4).unwrap(), b"abcd");
        let e = fs.read_at_most(Path::new("/d/a"), 3).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::FileTooLarge);

        let dir = std::env::temp_dir().join(format!("r2d3-chaos-limit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a");
        std::fs::write(&path, b"abcd").unwrap();
        assert_eq!(RealFs.read_at_most(&path, 4).unwrap(), b"abcd");
        let e = RealFs.read_at_most(&path, 3).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::FileTooLarge);
        // A device reports length 0; the bounded read still stops.
        let e = RealFs.read_at_most(Path::new("/dev/zero"), 3).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::FileTooLarge);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memfs_unsynced_content_tears_to_empty() {
        let fs = MemFs::new();
        fs.create_dir_all(Path::new("/d")).unwrap();
        let mut f = fs.create(Path::new("/d/a")).unwrap();
        f.write_all(b"data").unwrap();
        drop(f); // no sync_all
        fs.sync_dir(Path::new("/d")).unwrap(); // entry durable, content not
        fs.crash();
        assert_eq!(fs.read(Path::new("/d/a")).unwrap(), b"", "entry survives, content tears");
    }

    #[test]
    fn memfs_truncate_preserves_old_durable_content() {
        let fs = MemFs::new();
        fs.create_dir_all(Path::new("/d")).unwrap();
        let mut f = fs.create(Path::new("/d/a")).unwrap();
        f.write_all(b"v1").unwrap();
        f.sync_all().unwrap();
        drop(f);
        fs.sync_dir(Path::new("/d")).unwrap();

        // Rewrite without syncing: crash rolls back to v1.
        let mut f = fs.create(Path::new("/d/a")).unwrap();
        f.write_all(b"v2-much-longer").unwrap();
        drop(f);
        assert_eq!(fs.read(Path::new("/d/a")).unwrap(), b"v2-much-longer");
        fs.crash();
        assert_eq!(fs.read(Path::new("/d/a")).unwrap(), b"v1");
    }

    #[test]
    fn fault_plans_are_deterministic() {
        let plan = FaultPlan { seed: 42, torn_write_in: 3, ..FaultPlan::default() };
        let run = || {
            let fs = FaultyFs::new(plan.clone());
            fs.create_dir_all(Path::new("/d")).unwrap();
            let mut outcomes = Vec::new();
            for i in 0..32 {
                let p = PathBuf::from(format!("/d/f{i}"));
                let r = fs.create(&p).and_then(|mut f| f.write_all(&[0u8; 16]));
                outcomes.push(r.err().and_then(|e| injected_fault(&e)));
            }
            outcomes
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan must inject the same faults");
        assert!(a.iter().any(|o| o == &Some(InjectedFault::TornWrite)), "plan never fired");
        assert!(a.iter().any(Option::is_none), "plan fired on every op");
    }

    #[test]
    fn crash_point_stops_the_world_until_restart() {
        let fs = FaultyFs::new(FaultPlan { crash_at: Some(4), ..FaultPlan::default() });
        fs.create_dir_all(Path::new("/d")).unwrap();
        fs.sync_dir(Path::new("/d")).unwrap();
        let mut failed = false;
        for i in 0..8 {
            let p = PathBuf::from(format!("/d/f{i}"));
            if let Err(e) = fs.create(&p).and_then(|mut f| f.write_all(b"x")) {
                assert!(is_injected_crash(&e));
                failed = true;
                break;
            }
        }
        assert!(failed, "crash point never fired");
        // Sticky: everything fails now.
        let e = fs.read(Path::new("/d/f0")).unwrap_err();
        assert!(is_injected_crash(&e));
        fs.restart();
        assert!(!fs.crashed());
        // Ops work again (content may have been lost — that's the point).
        fs.create_dir_all(Path::new("/d")).unwrap();
    }

    #[test]
    fn enospc_window_is_persistent_then_lifts() {
        let fs = FaultyFs::new(FaultPlan { enospc_window: Some((2, 6)), ..FaultPlan::default() });
        fs.create_dir_all(Path::new("/d")).unwrap(); // op 0
        fs.sync_dir(Path::new("/d")).unwrap(); // op 1
        let mut saw_full = 0;
        let mut saw_ok = false;
        for i in 0..10 {
            let p = PathBuf::from(format!("/d/f{i}"));
            match fs.create(&p) {
                Ok(_) => saw_ok = true,
                Err(e) => {
                    assert!(is_disk_full(&e), "window must inject ENOSPC, got {e}");
                    saw_full += 1;
                }
            }
        }
        assert!(saw_full >= 3, "window [2,6) must reject several creates");
        assert!(saw_ok, "pressure must lift after the window");
    }

    #[test]
    fn retry_recovers_transients_on_a_virtual_clock() {
        let clock = VirtualClock::new();
        let policy = RetryPolicy { attempts: 4, base_ms: 10, max_ms: 1000 };
        let mut calls = 0;
        let result = policy.run(&clock, || {
            calls += 1;
            if calls < 3 {
                Err(injected_err(InjectedFault::FsyncFailed))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.unwrap(), 3);
        // Backoff 10 then 20 ms, virtually.
        assert_eq!(clock.slept_ms(), 30);

        // Non-transient errors never retry.
        let mut calls = 0;
        let result: io::Result<()> = policy.run(&clock, || {
            calls += 1;
            Err(injected_err(InjectedFault::DiskFull))
        });
        assert!(is_disk_full(&result.unwrap_err()));
        assert_eq!(calls, 1);

        // Budget exhaustion returns the last transient error.
        let mut calls = 0;
        let result: io::Result<()> = policy.run(&clock, || {
            calls += 1;
            Err(injected_err(InjectedFault::TornWrite))
        });
        assert_eq!(calls, 4);
        assert_eq!(injected_fault(&result.unwrap_err()), Some(InjectedFault::TornWrite));
    }

    #[test]
    fn backoff_is_capped() {
        let p = RetryPolicy { attempts: 64, base_ms: 8, max_ms: 100 };
        assert_eq!(p.backoff_ms(0), 8);
        assert_eq!(p.backoff_ms(1), 16);
        assert_eq!(p.backoff_ms(10), 100);
        assert_eq!(p.backoff_ms(63), 100);
    }

    #[test]
    fn realfs_round_trips_and_syncs() {
        let dir = std::env::temp_dir().join(format!("r2d3-chaos-realfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = RealFs;
        fs.create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        let mut f = fs.create(&path).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_all().unwrap();
        drop(f);
        fs.sync_dir(&dir).unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"abc");
        let mut f = fs.open_append(&path).unwrap();
        f.write_all(b"def").unwrap();
        drop(f);
        assert_eq!(fs.read(&path).unwrap(), b"abcdef");
        assert!(fs.is_dir(&dir));
        assert_eq!(fs.read_dir(&dir).unwrap(), vec![path.clone()]);
        let renamed = dir.join("g");
        fs.rename(&path, &renamed).unwrap();
        assert!(!fs.exists(&path));
        fs.remove_file(&renamed).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
