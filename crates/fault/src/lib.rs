//! Deterministic fault-injection substrate for every durable-state
//! transition in the workspace.
//!
//! Two halves:
//!
//! - A **fault schedule** ([`FailPlan`]): named failpoint sites
//!   (`learn.state.commit`, `nn.checkpoint.write`, `serve.model.load`,
//!   ...) activated by a `(site, hit_count)` schedule. A schedule can be
//!   pinned by hand or derived from a single seed, so any failure
//!   sequence is reproducible.
//! - An [`Fs`] trait with a [`RealFs`] passthrough and a [`SimFs`]
//!   that keeps volatile and durable views of every file, records an
//!   operation log, and injects short writes, failed `sync_all`,
//!   failed/torn `rename`, ENOSPC, and EIO on schedule.
//!
//! [`SimFs::crash_at`] replays any prefix of the op log as a simulated
//! power cut: only synced bytes survive, a rename of never-synced data
//! leaves an empty destination (the classic rename-before-fsync bug),
//! and everything written but never synced is gone. Sweeping every
//! prefix turns point-sampled chaos tests into an exhaustive
//! crash-consistency check.
//!
//! Site names follow `crate.object.action` (see
//! `docs/fault-injection.md`). Every injected error carries the
//! message `injected <kind> at <site>` so tests and operators can tell
//! scheduled faults from real ones.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Shared handle to a filesystem implementation.
pub type FsHandle = Arc<dyn Fs>;

/// The kinds of storage fault the substrate can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A write persists only a prefix of the bytes, then fails.
    ShortWrite,
    /// `sync_all` fails; the volatile bytes never become durable.
    SyncFail,
    /// `rename` fails outright; nothing moves.
    RenameFail,
    /// `rename` tears: both source and destination are lost.
    TornRename,
    /// The device is full; a write persists a prefix, then fails.
    Enospc,
    /// A generic I/O error; the operation has no effect.
    Eio,
}

/// All kinds, in schedule-derivation order.
pub const FAULT_KINDS: [FaultKind; 6] = [
    FaultKind::ShortWrite,
    FaultKind::SyncFail,
    FaultKind::RenameFail,
    FaultKind::TornRename,
    FaultKind::Enospc,
    FaultKind::Eio,
];

impl FaultKind {
    /// Stable lower-snake label used in injected error messages.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::ShortWrite => "short_write",
            FaultKind::SyncFail => "sync_fail",
            FaultKind::RenameFail => "rename_fail",
            FaultKind::TornRename => "torn_rename",
            FaultKind::Enospc => "enospc",
            FaultKind::Eio => "eio",
        }
    }

    fn io_kind(self) -> io::ErrorKind {
        match self {
            FaultKind::ShortWrite => io::ErrorKind::WriteZero,
            FaultKind::Enospc => io::ErrorKind::StorageFull,
            _ => io::ErrorKind::Other,
        }
    }

    fn error(self, site: &str) -> io::Error {
        io::Error::new(
            self.io_kind(),
            format!("injected {} at {site}", self.label()),
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Returns true if `err` is an error injected by this substrate.
#[cfg(test)]
pub(crate) fn is_injected(err: &io::Error) -> bool {
    err.to_string().starts_with("injected ")
}

/// A fault schedule: which [`FaultKind`] fires at which `(site, hit)`.
///
/// Hits are 0-based and counted per site across the lifetime of the
/// filesystem, so the same plan never fires twice: once `(site, k)`
/// has been consumed, a retry of the same operation observes hit
/// `k + 1` and passes. This is what makes "inject, observe the typed
/// error, rerun to completion" loops converge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailPlan {
    schedule: BTreeMap<(String, u64), FaultKind>,
}

impl FailPlan {
    /// An empty plan: no faults ever fire.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with a single scheduled fault.
    // wlc-lint: allow(unreferenced-pub, reason = "crates/serve/tests/server.rs::injected_read_fault_rejects_reload_as_retriable_503_and_a_retry_succeeds schedules its fault with it")
    pub fn single(site: &str, hit: u64, kind: FaultKind) -> Self {
        Self::none().also(site, hit, kind)
    }

    /// Adds one more scheduled fault (builder style).
    pub fn also(mut self, site: &str, hit: u64, kind: FaultKind) -> Self {
        self.schedule.insert((site.to_string(), hit), kind);
        self
    }

    /// Derives a reproducible schedule from a single seed: `faults`
    /// entries spread over `sites`, each at a hit index below
    /// `max_hit`. The same `(seed, sites, faults, max_hit)` always
    /// yields the same plan.
    // wlc-lint: allow(unreferenced-pub, reason = "crates/learn/tests/crash_sweep.rs derives its seeded fault schedule with it")
    pub fn seeded(seed: u64, sites: &[&str], faults: usize, max_hit: u64) -> Self {
        let mut plan = Self::none();
        if sites.is_empty() || max_hit == 0 {
            return plan;
        }
        let mut state = seed;
        let mut next = move || {
            // splitmix64: tiny, std-only, and plenty for a schedule.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..faults {
            let site = sites[(next() % sites.len() as u64) as usize];
            let hit = next() % max_hit;
            let kind = FAULT_KINDS[(next() % FAULT_KINDS.len() as u64) as usize];
            plan = plan.also(site, hit, kind);
        }
        plan
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    fn at(&self, site: &str, hit: u64) -> Option<FaultKind> {
        self.schedule.get(&(site.to_string(), hit)).copied()
    }
}

/// Per-site hit counters consulted against a [`FailPlan`].
#[derive(Debug, Default)]
struct FailpointState {
    plan: FailPlan,
    hits: BTreeMap<String, u64>,
}

/// Filesystem operations for durable state, each labelled with the
/// failpoint site performing it.
///
/// The site label is how faults are addressed and how the op log stays
/// readable; [`RealFs`] ignores it. Implementations must be shareable
/// across threads (the serving fleet reads models from worker
/// threads).
pub trait Fs: Send + Sync + fmt::Debug {
    /// Creates/truncates `path` with `bytes`. Volatile until
    /// [`Fs::sync`]; crash-safe only via [`write_atomic`].
    fn write(&self, site: &str, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes `path`'s bytes to durable storage (`sync_all`).
    fn sync(&self, site: &str, path: &Path) -> io::Result<()>;
    /// Atomically replaces `to` with `from`.
    fn rename(&self, site: &str, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes `path`.
    fn remove_file(&self, site: &str, path: &Path) -> io::Result<()>;
    /// Reads all of `path`.
    fn read(&self, site: &str, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates `path` and all missing ancestors.
    fn create_dir_all(&self, site: &str, path: &Path) -> io::Result<()>;
    /// True if `path` exists (file or directory). Never consults the
    /// fault schedule.
    fn exists(&self, site: &str, path: &Path) -> bool;

    /// Reads all of `path` as UTF-8.
    fn read_to_string(&self, site: &str, path: &Path) -> io::Result<String> {
        let bytes = self.read(site, path)?;
        String::from_utf8(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Crash-safe file replacement: write a `.tmp` sibling, sync it, then
/// rename over `path`. All three operations hit `site` (three hit
/// counts per call), so a schedule can target the write, the sync, or
/// the rename of any given commit.
pub fn write_atomic(fs: &dyn Fs, site: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    fs.write(site, &tmp, bytes)?;
    fs.sync(site, &tmp)?;
    fs.rename(site, &tmp, path)?;
    Ok(())
}

/// The `.tmp` sibling `write_atomic` stages into. Recovery code must
/// ignore files with this suffix.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The production filesystem: a plain passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

/// A shared [`RealFs`] handle — the default for every config that
/// carries an [`FsHandle`].
pub fn real_fs() -> FsHandle {
    Arc::new(RealFs)
}

impl Fs for RealFs {
    fn write(&self, _site: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // wlc-lint: allow(durable-write, reason = "RealFs is the passthrough the durable-write rule funnels callers into")
        std::fs::write(path, bytes)
    }

    fn sync(&self, _site: &str, path: &Path) -> io::Result<()> {
        // wlc-lint: allow(durable-write, reason = "RealFs is the passthrough the durable-write rule funnels callers into")
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, _site: &str, from: &Path, to: &Path) -> io::Result<()> {
        // wlc-lint: allow(durable-write, reason = "RealFs is the passthrough the durable-write rule funnels callers into")
        std::fs::rename(from, to)
    }

    fn remove_file(&self, _site: &str, path: &Path) -> io::Result<()> {
        // wlc-lint: allow(durable-write, reason = "RealFs is the passthrough the durable-write rule funnels callers into")
        std::fs::remove_file(path)
    }

    fn read(&self, _site: &str, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn create_dir_all(&self, _site: &str, path: &Path) -> io::Result<()> {
        // wlc-lint: allow(durable-write, reason = "RealFs is the passthrough the durable-write rule funnels callers into")
        std::fs::create_dir_all(path)
    }

    fn exists(&self, _site: &str, path: &Path) -> bool {
        path.exists()
    }
}

/// One recorded mutation of a [`SimFs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The failpoint site that performed the operation.
    pub site: String,
    /// What happened.
    pub op: Op,
    /// The fault injected into this operation, if any.
    pub injected: Option<FaultKind>,
}

/// The mutating operations a [`SimFs`] logs. Reads and `exists`
/// checks are not logged: they cannot change what a crash preserves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Bytes landed in the volatile view (possibly a short prefix).
    Write { path: PathBuf, len: usize },
    /// The volatile bytes of `path` became durable.
    Sync { path: PathBuf, bytes: Vec<u8> },
    /// `from` moved over `to`; a torn rename lost both.
    Rename {
        from: PathBuf,
        to: PathBuf,
        torn: bool,
    },
    /// `path` was unlinked.
    Remove { path: PathBuf },
}

/// An in-memory filesystem that models crash consistency.
///
/// Every file has two byte states: **volatile** (what readers see now)
/// and **durable** (what a power cut preserves). `write` touches only
/// the volatile view; `sync` copies volatile to durable; `rename`
/// moves both views atomically — but a rename of never-synced bytes
/// leaves an *empty* durable destination, the classic
/// rename-before-fsync data loss, so code that skips the sync fails
/// the sweep. Directories are treated as durable on creation.
///
/// All mutations are appended to an op log; [`SimFs::crash_at`]
/// rebuilds the durable state after any prefix of that log.
#[derive(Debug, Default)]
// wlc-lint: allow(unreferenced-pub, reason = "the crash sweep (crates/learn/tests/crash_sweep.rs), crates/nn/tests/truncation.rs and crates/serve/tests/server.rs inject faults through it")
pub struct SimFs {
    inner: Mutex<SimState>,
}

#[derive(Debug, Default)]
struct SimState {
    volatile: BTreeMap<PathBuf, Vec<u8>>,
    durable: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
    log: Vec<OpRecord>,
    failpoints: FailpointState,
}

impl SimState {
    fn fault(&mut self, site: &str) -> Option<FaultKind> {
        let count = self.failpoints.hits.entry(site.to_string()).or_insert(0);
        let hit = *count;
        *count += 1;
        self.failpoints.plan.at(site, hit)
    }

    fn record(&mut self, site: &str, op: Op, injected: Option<FaultKind>) {
        self.log.push(OpRecord {
            site: site.to_string(),
            op: op.clone(),
            injected,
        });
        apply_durable(&mut self.durable, &op);
    }

    fn parent_exists(&self, path: &Path) -> bool {
        match path.parent() {
            None => true,
            Some(p) if p.as_os_str().is_empty() => true,
            Some(p) => self.dirs.contains(p),
        }
    }
}

/// The crash semantics, shared by the live durable view and prefix
/// replay: only syncs land bytes, renames move whatever is durable
/// (empty if the source was never synced), torn renames lose both
/// ends, removes unlink.
fn apply_durable(durable: &mut BTreeMap<PathBuf, Vec<u8>>, op: &Op) {
    match op {
        Op::Write { .. } => {}
        Op::Sync { path, bytes } => {
            durable.insert(path.clone(), bytes.clone());
        }
        Op::Rename { from, to, torn } => {
            if *torn {
                durable.remove(from);
                durable.remove(to);
            } else {
                let moved = durable.remove(from).unwrap_or_default();
                durable.insert(to.clone(), moved);
            }
        }
        Op::Remove { path } => {
            durable.remove(path);
        }
    }
}

impl SimFs {
    /// A fault-free simulated filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// A simulated filesystem driven by a fault schedule.
    // wlc-lint: allow(unreferenced-pub, reason = "the crash sweep (crates/learn/tests/crash_sweep.rs) and crates/serve/tests/server.rs schedule their faults with it")
    pub fn with_plan(plan: FailPlan) -> Self {
        let sim = Self::new();
        sim.inner.lock().expect("simfs poisoned").failpoints.plan = plan;
        sim
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SimState> {
        self.inner.lock().expect("simfs poisoned")
    }

    /// Snapshot of the op log so far.
    // wlc-lint: allow(unreferenced-pub, reason = "crates/learn/tests/crash_sweep.rs counts the prefixes to crash at with it")
    pub fn op_log(&self) -> Vec<OpRecord> {
        self.lock().log.clone()
    }

    /// Snapshot of the durable view: exactly the files (and bytes) a
    /// power cut right now would preserve.
    pub fn durable(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.lock().durable.clone()
    }

    /// Snapshot of the volatile view readers currently see.
    #[cfg(test)]
    pub(crate) fn visible(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.lock().volatile.clone()
    }

    /// Per-site hit counters (for asserting a schedule actually fired).
    pub fn hits(&self) -> BTreeMap<String, u64> {
        self.lock().failpoints.hits.clone()
    }

    /// Simulates a power cut after the first `prefix` logged
    /// operations: returns a fresh fault-free filesystem holding
    /// exactly what survived. Directories survive regardless (their
    /// creation is treated as durable).
    ///
    /// # Panics
    ///
    /// Panics if `prefix` exceeds the op log length.
    // wlc-lint: allow(unreferenced-pub, reason = "crates/learn/tests/crash_sweep.rs replays every op-log prefix through it")
    pub fn crash_at(&self, prefix: usize) -> SimFs {
        let state = self.lock();
        assert!(
            prefix <= state.log.len(),
            "crash_at({prefix}) beyond op log of {}",
            state.log.len()
        );
        let mut durable = BTreeMap::new();
        for record in &state.log[..prefix] {
            apply_durable(&mut durable, &record.op);
        }
        let crashed = SimFs::new();
        {
            let mut inner = crashed.inner.lock().expect("simfs poisoned");
            inner.volatile = durable.clone();
            inner.durable = durable;
            inner.dirs = state.dirs.clone();
        }
        crashed
    }
}

impl Fs for SimFs {
    fn write(&self, site: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        if !state.parent_exists(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no parent directory for {}", path.display()),
            ));
        }
        match state.fault(site) {
            Some(kind @ (FaultKind::ShortWrite | FaultKind::Enospc)) => {
                let kept = bytes[..bytes.len() / 2].to_vec();
                let len = kept.len();
                state.volatile.insert(path.to_path_buf(), kept);
                state.record(
                    site,
                    Op::Write {
                        path: path.to_path_buf(),
                        len,
                    },
                    Some(kind),
                );
                Err(kind.error(site))
            }
            Some(kind) => Err(kind.error(site)),
            None => {
                state.volatile.insert(path.to_path_buf(), bytes.to_vec());
                state.record(
                    site,
                    Op::Write {
                        path: path.to_path_buf(),
                        len: bytes.len(),
                    },
                    None,
                );
                Ok(())
            }
        }
    }

    fn sync(&self, site: &str, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        let Some(bytes) = state.volatile.get(path).cloned() else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("sync of missing file {}", path.display()),
            ));
        };
        match state.fault(site) {
            Some(kind) => Err(kind.error(site)),
            None => {
                state.record(
                    site,
                    Op::Sync {
                        path: path.to_path_buf(),
                        bytes,
                    },
                    None,
                );
                Ok(())
            }
        }
    }

    fn rename(&self, site: &str, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if !state.volatile.contains_key(from) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("rename of missing file {}", from.display()),
            ));
        }
        if !state.parent_exists(to) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no parent directory for {}", to.display()),
            ));
        }
        match state.fault(site) {
            Some(FaultKind::TornRename) => {
                state.volatile.remove(from);
                state.volatile.remove(to);
                state.record(
                    site,
                    Op::Rename {
                        from: from.to_path_buf(),
                        to: to.to_path_buf(),
                        torn: true,
                    },
                    Some(FaultKind::TornRename),
                );
                Err(FaultKind::TornRename.error(site))
            }
            Some(kind) => Err(kind.error(site)),
            None => {
                let bytes = state.volatile.remove(from).expect("checked above");
                state.volatile.insert(to.to_path_buf(), bytes);
                state.record(
                    site,
                    Op::Rename {
                        from: from.to_path_buf(),
                        to: to.to_path_buf(),
                        torn: false,
                    },
                    None,
                );
                Ok(())
            }
        }
    }

    fn remove_file(&self, site: &str, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if !state.volatile.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("remove of missing file {}", path.display()),
            ));
        }
        match state.fault(site) {
            Some(kind) => Err(kind.error(site)),
            None => {
                state.volatile.remove(path);
                state.record(
                    site,
                    Op::Remove {
                        path: path.to_path_buf(),
                    },
                    None,
                );
                Ok(())
            }
        }
    }

    fn read(&self, site: &str, path: &Path) -> io::Result<Vec<u8>> {
        let mut state = self.lock();
        match state.fault(site) {
            Some(kind) => Err(kind.error(site)),
            None => state.volatile.get(path).cloned().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("read of missing file {}", path.display()),
                )
            }),
        }
    }

    fn create_dir_all(&self, _site: &str, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        let mut dir = path.to_path_buf();
        loop {
            state.dirs.insert(dir.clone());
            match dir.parent() {
                Some(parent) if !parent.as_os_str().is_empty() => dir = parent.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn exists(&self, _site: &str, path: &Path) -> bool {
        let state = self.lock();
        state.volatile.contains_key(path) || state.dirs.contains(path)
    }
}

/// Per-site recovery policy: is a storage failure at this site worth
/// retrying (rerunning the supervisor resumes past it), or does it
/// need operator attention first?
///
/// The rule of thumb: **writes are retriable** — every durable write
/// in the workspace is staged-and-renamed, so a failed write leaves
/// committed state intact and a rerun repeats it. **Reads of
/// committed state are fatal** — if `state.txt` or the live model
/// cannot be read back, rerunning will not conjure the bytes; an
/// operator must restore them. The one read exception is
/// `serve.model.load`: the fleet keeps serving its last-good model, so
/// a failed reload is safely retried later.
pub const SITE_POLICY: &[(&str, bool)] = &[
    ("learn.state.commit", true),
    ("learn.state.load", false),
    ("learn.events.commit", true),
    ("learn.buffer.write", true),
    ("learn.buffer.read", false),
    ("learn.reference.write", true),
    ("learn.reference.read", false),
    ("learn.model.write", true),
    ("learn.model.load", false),
    ("learn.scratch.remove", true),
    ("learn.quarantine.write", true),
    ("nn.checkpoint.write", true),
    ("nn.checkpoint.load", true),
    ("serve.model.load", true),
];

/// Looks up [`SITE_POLICY`]; unknown sites are fatal (not retriable),
/// the conservative default.
pub fn site_retriable(site: &str) -> bool {
    SITE_POLICY
        .iter()
        .find(|(name, _)| *name == site)
        .map(|(_, retriable)| *retriable)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    fn setup(plan: FailPlan) -> SimFs {
        let fs = SimFs::with_plan(plan);
        fs.create_dir_all("test.dir", &p("/d")).unwrap();
        fs
    }

    #[test]
    fn write_is_volatile_until_synced() {
        let fs = setup(FailPlan::none());
        fs.write("t.w", &p("/d/a"), b"hello").unwrap();
        assert_eq!(fs.read("t.r", &p("/d/a")).unwrap(), b"hello");
        assert!(fs.durable().is_empty());
        fs.sync("t.s", &p("/d/a")).unwrap();
        assert_eq!(fs.durable().get(&p("/d/a")).unwrap(), b"hello");
    }

    #[test]
    fn rename_before_sync_leaves_empty_durable_destination() {
        let fs = setup(FailPlan::none());
        fs.write("t.w", &p("/d/a.tmp"), b"payload").unwrap();
        // Bug under test: rename without fsync.
        fs.rename("t.mv", &p("/d/a.tmp"), &p("/d/a")).unwrap();
        assert_eq!(fs.read("t.r", &p("/d/a")).unwrap(), b"payload");
        // But a crash preserves only an empty destination.
        assert_eq!(fs.durable().get(&p("/d/a")).unwrap(), b"");
    }

    #[test]
    fn write_atomic_is_crash_safe_at_every_prefix() {
        let fs = setup(FailPlan::none());
        write_atomic(&fs, "t.commit", &p("/d/f"), b"v1").unwrap();
        write_atomic(&fs, "t.commit", &p("/d/f"), b"v2").unwrap();
        let log = fs.op_log();
        assert_eq!(log.len(), 6); // 2 x (write, sync, rename)
        for k in 0..=log.len() {
            let crashed = fs.crash_at(k);
            let visible = crashed.visible();
            let f = visible.get(&p("/d/f"));
            // At every cut the file is absent, v1, or v2 — never torn.
            assert!(
                f.is_none() || f.unwrap() == b"v1" || f.unwrap() == b"v2",
                "prefix {k}: unexpected contents {f:?}"
            );
            // Stale staging files may survive a crash; that is fine.
        }
        // The full prefix equals the live durable view.
        assert_eq!(fs.crash_at(log.len()).durable(), fs.durable());
    }

    #[test]
    fn injected_faults_fire_once_at_the_scheduled_hit() {
        let plan = FailPlan::single("t.commit", 1, FaultKind::SyncFail);
        let fs = setup(plan);
        fs.write("t.commit", &p("/d/a"), b"x").unwrap(); // hit 0: passes
        let err = fs.sync("t.commit", &p("/d/a")).unwrap_err(); // hit 1: fails
        assert!(is_injected(&err), "{err}");
        assert!(err.to_string().contains("injected sync_fail at t.commit"));
        assert!(fs.durable().is_empty());
        // Retry consumes hit 2: passes. The plan never re-fires.
        fs.sync("t.commit", &p("/d/a")).unwrap();
        assert_eq!(fs.durable().get(&p("/d/a")).unwrap(), b"x");
    }

    #[test]
    fn short_write_keeps_a_prefix_and_errors() {
        let fs = setup(FailPlan::single("t.w", 0, FaultKind::ShortWrite));
        let err = fs.write("t.w", &p("/d/a"), b"abcdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(fs.read("t.r", &p("/d/a")).unwrap(), b"abc");
        assert!(fs.durable().is_empty());
    }

    #[test]
    fn torn_rename_loses_both_ends() {
        let fs = setup(FailPlan::single("t.mv", 0, FaultKind::TornRename));
        fs.write("t.w", &p("/d/old"), b"old").unwrap();
        fs.sync("t.s", &p("/d/old")).unwrap();
        fs.write("t.w", &p("/d/new.tmp"), b"new").unwrap();
        fs.sync("t.s", &p("/d/new.tmp")).unwrap();
        let err = fs
            .rename("t.mv", &p("/d/new.tmp"), &p("/d/old"))
            .unwrap_err();
        assert!(is_injected(&err));
        assert!(!fs.exists("t.e", &p("/d/old")));
        assert!(!fs.exists("t.e", &p("/d/new.tmp")));
        assert!(fs.durable().is_empty());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let sites = ["a.b.c", "d.e.f", "g.h.i"];
        let one = FailPlan::seeded(7, &sites, 5, 4);
        let two = FailPlan::seeded(7, &sites, 5, 4);
        assert_eq!(one, two);
        assert!(!one.is_empty());
        let other = FailPlan::seeded(8, &sites, 5, 4);
        assert_ne!(one, other);
    }

    #[test]
    fn real_fs_round_trips_write_atomic() {
        let dir = std::env::temp_dir().join(format!("wlc-fault-real-{}", std::process::id()));
        let fs = RealFs;
        fs.create_dir_all("t.dir", &dir).unwrap();
        let target = dir.join("f.txt");
        write_atomic(&fs, "t.commit", &target, b"hello").unwrap();
        assert_eq!(fs.read("t.r", &target).unwrap(), b"hello");
        assert!(fs.exists("t.e", &target));
        assert!(!fs.exists("t.e", &tmp_sibling(&target)));
        fs.remove_file("t.rm", &target).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn site_policy_pins_retriability() {
        assert!(site_retriable("learn.state.commit"));
        assert!(!site_retriable("learn.state.load"));
        assert!(site_retriable("serve.model.load"));
        assert!(!site_retriable("never.heard.of.it"));
    }
}
