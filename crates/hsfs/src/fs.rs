//! A general-purpose in-memory inode file system.
//!
//! Used twice: with lax limits as the "root" Unix file system (templates,
//! executables, home directories), and — via [`crate::shared::SharedFs`] —
//! with the paper's limits (1024 inodes, 1 MB files, no hard links) as the
//! shared partition. Inode numbers are slot indices so the shared layer
//! can derive each file's virtual address directly from its inode number.

use crate::error::FsError;
use crate::journal::{CorruptBlockInfo, CorruptKind, Durable, Payload, RecKind, ReplayStats};
use crate::path as fspath;
use crate::stats::FsStats;
use crate::tools::RepairSource;
use hfault::{FaultHandle, FaultSite};
use std::collections::{BTreeMap, BTreeSet};

/// An inode number (slot index).
pub type Ino = u32;

/// Maximum symlink traversals per lookup before `ELOOP`.
const MAX_SYMLINK_DEPTH: u32 = 40;

/// What an inode is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
    /// Symbolic link.
    Symlink,
}

/// Advisory lock flavors (the paper's `ldl` "uses file locking to
/// synchronize the creation of shared segments", §4 footnote 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// Multiple readers.
    Shared,
    /// One writer.
    Exclusive,
}

/// `stat`-style metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metadata {
    /// Inode number.
    pub ino: Ino,
    /// Node kind.
    pub kind: NodeKind,
    /// File size in bytes (0 for directories/symlinks).
    pub size: u64,
    /// Hard-link count.
    pub nlink: u32,
    /// Permission bits, Unix style (`0o644` etc.; only user/other
    /// read/write bits are enforced).
    pub mode: u16,
    /// Owning user.
    pub uid: u32,
}

/// File-system construction limits.
#[derive(Clone, Copy, Debug)]
pub struct FsConfig {
    /// Maximum number of live inodes (including the root directory).
    pub max_inodes: u32,
    /// Maximum size of one file in bytes.
    pub max_file_size: u64,
    /// Whether `link(2)` is permitted.
    pub allow_hardlinks: bool,
}

impl FsConfig {
    /// Roomy limits for the root file system.
    pub fn root() -> FsConfig {
        FsConfig {
            max_inodes: 1 << 20,
            max_file_size: 1 << 32,
            allow_hardlinks: true,
        }
    }

    /// The paper's shared-partition limits: "exactly 1024 inodes, and each
    /// file is limited to a maximum of 1M bytes in size. Hard links
    /// (other than '.' and '..') are prohibited."
    pub fn shared() -> FsConfig {
        FsConfig {
            max_inodes: crate::shared::SHARED_INODES,
            max_file_size: crate::shared::SLOT_SIZE as u64,
            allow_hardlinks: false,
        }
    }
}

#[derive(Clone, Debug)]
enum Node {
    File { content: Vec<u8> },
    Dir { entries: BTreeMap<String, Ino> },
    Symlink { target: String },
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
enum LockState {
    #[default]
    Unlocked,
    Shared(BTreeSet<u64>),
    Exclusive(u64),
}

#[derive(Clone, Debug)]
struct Inode {
    node: Node,
    nlink: u32,
    mode: u16,
    uid: u32,
    /// Parent inode and entry name, for inode→path reconstruction.
    /// Reliable whenever hard links are disabled (the shared partition).
    parent: Ino,
    name: String,
    lock: LockState,
}

/// The in-memory file system.
#[derive(Clone, Debug)]
pub struct FileSystem {
    config: FsConfig,
    slots: Vec<Option<Inode>>,
    free: Vec<Ino>,
    live: u32,
    /// I/O accounting for the cost model.
    pub stats: FsStats,
    /// Chaos hook: unarmed (inert) unless a fault plan is installed.
    faults: FaultHandle,
    /// Per-file write epochs (see [`FileSystem::write_epoch`]): a cheap
    /// "did these bytes change?" stamp consumed by the block cache.
    write_epochs: BTreeMap<Ino, WriteEpochs>,
    /// Global content stamp: moves whenever *any* file's bytes could
    /// have changed (a superset of every per-page epoch movement). Lets
    /// the block cache skip per-page epoch queries entirely while no
    /// write happened anywhere — see [`FileSystem::content_stamp`].
    content_stamp: u64,
    /// The block-write pipeline + write-ahead journal (DESIGN.md §13).
    /// `None` (the root file system, and the durable twin itself) means
    /// write-through: mutations are durable the instant they happen.
    durable: Option<Box<Durable>>,
    /// Pages whose backing block is uncorrectably corrupt (DESIGN.md
    /// §14): set by boot verification when a crash adopted a corrupt
    /// disk image that no replica or journal copy could heal. Reads of a
    /// poisoned page fail with [`FsError::CorruptData`] (and the memory
    /// bus raises `Eio`) until the block is rewritten or the file
    /// removed. Empty in every healthy run — one `is_empty` test on the
    /// read path.
    poisoned: BTreeSet<(Ino, u32)>,
}

/// Write-epoch state for one file. `whole` moves on any write through a
/// path that does not know which pages it touched (`file_bytes_mut`,
/// `truncate`); `pages` moves per file page for the paths that do
/// (`write_at`, the kernel bus store). A page's effective epoch is the
/// sum, so a coarse bump invalidates every page at once.
#[derive(Clone, Debug, Default)]
struct WriteEpochs {
    whole: u64,
    pages: BTreeMap<u32, u64>,
}

/// The root directory's inode number.
pub const ROOT_INO: Ino = 0;

impl FileSystem {
    /// Creates a file system containing only the root directory, owned by
    /// uid 0 with mode `0o755`.
    pub fn new(config: FsConfig) -> FileSystem {
        let root = Inode {
            node: Node::Dir {
                entries: BTreeMap::new(),
            },
            nlink: 1,
            mode: 0o755,
            uid: 0,
            parent: ROOT_INO,
            name: String::new(),
            lock: LockState::Unlocked,
        };
        FileSystem {
            config,
            slots: vec![Some(root)],
            free: Vec::new(),
            live: 1,
            stats: FsStats::default(),
            faults: FaultHandle::unarmed(),
            write_epochs: BTreeMap::new(),
            content_stamp: 0,
            durable: None,
            poisoned: BTreeSet::new(),
        }
    }

    /// Installs a fault-injection handle (chaos testing; see DESIGN.md §8).
    pub fn arm_faults(&mut self, faults: FaultHandle) {
        self.faults = faults;
    }

    /// The installed fault handle (unarmed by default; cheap to clone).
    pub fn faults_handle(&self) -> &FaultHandle {
        &self.faults
    }

    fn inode(&self, ino: Ino) -> Result<&Inode, FsError> {
        self.slots
            .get(ino as usize)
            .and_then(Option::as_ref)
            .ok_or(FsError::NotFound)
    }

    fn inode_mut(&mut self, ino: Ino) -> Result<&mut Inode, FsError> {
        self.slots
            .get_mut(ino as usize)
            .and_then(Option::as_mut)
            .ok_or(FsError::NotFound)
    }

    /// The inode number the next creation takes: the top of the free
    /// list, else a new slot. Nothing is claimed until the creating
    /// transaction's `SetInode` is applied.
    fn next_ino(&self) -> Result<Ino, FsError> {
        if self.live >= self.config.max_inodes || self.faults.should_inject(FaultSite::InodeAlloc) {
            return Err(FsError::NoSpace);
        }
        Ok(self.free.last().copied().unwrap_or(self.slots.len() as Ino))
    }

    fn release(&mut self, ino: Ino) {
        if self
            .slots
            .get_mut(ino as usize)
            .and_then(Option::take)
            .is_some()
        {
            self.live -= 1;
            self.free.push(ino);
            if !self.poisoned.is_empty() {
                // Removing the file discards its damage with it.
                self.poisoned.retain(|&(i, _)| i != ino);
            }
        }
    }

    // --- path resolution ---

    fn dir_entries(&self, ino: Ino) -> Result<&BTreeMap<String, Ino>, FsError> {
        match &self.inode(ino)?.node {
            Node::Dir { entries } => Ok(entries),
            _ => Err(FsError::NotADirectory),
        }
    }

    fn walk(&mut self, path: &str, follow_final: bool, depth: u32) -> Result<Ino, FsError> {
        if depth > MAX_SYMLINK_DEPTH {
            return Err(FsError::SymlinkLoop);
        }
        let path = fspath::normalize(path)?;
        let mut cur = ROOT_INO;
        let comps: Vec<&str> = fspath::components(&path).collect();
        for (i, comp) in comps.iter().enumerate() {
            self.stats.lookups += 1;
            let next = *self.dir_entries(cur)?.get(*comp).ok_or(FsError::NotFound)?;
            let is_final = i + 1 == comps.len();
            let target = match &self.inode(next)?.node {
                Node::Symlink { target } if (!is_final || follow_final) => Some(target.clone()),
                _ => None,
            };
            match target {
                Some(t) => {
                    let base = if t.starts_with('/') {
                        t
                    } else {
                        let parent_path = self.path_of(cur)?;
                        format!("{parent_path}/{t}")
                    };
                    let rest = comps[i + 1..].join("/");
                    let full = if rest.is_empty() {
                        base
                    } else {
                        format!("{base}/{rest}")
                    };
                    return self.walk(&full, follow_final, depth + 1);
                }
                None => cur = next,
            }
        }
        Ok(cur)
    }

    /// Resolves a normalized absolute path to an inode, following
    /// symlinks (including in the final component).
    pub fn resolve(&mut self, path: &str) -> Result<Ino, FsError> {
        self.walk(path, true, 0)
    }

    /// Like [`FileSystem::resolve`] but does not follow a symlink in the
    /// final component (for `lstat`/`unlink`/`readlink`).
    pub fn resolve_nofollow(&mut self, path: &str) -> Result<Ino, FsError> {
        self.walk(path, false, 0)
    }

    fn resolve_parent(&mut self, path: &str) -> Result<(Ino, String), FsError> {
        let path = fspath::normalize(path)?;
        let (parent, name) = fspath::split_parent(&path).ok_or(FsError::Invalid)?;
        if !fspath::valid_name(name) {
            return Err(FsError::Invalid);
        }
        let dir = self.walk(parent, true, 0)?;
        match self.inode(dir)?.node {
            Node::Dir { .. } => Ok((dir, name.to_string())),
            _ => Err(FsError::NotADirectory),
        }
    }

    /// Reconstructs the path of an inode by following parent pointers.
    ///
    /// Unambiguous whenever hard links are disabled — the property the
    /// paper relies on for its one-to-one inode↔path mapping.
    pub fn path_of(&self, ino: Ino) -> Result<String, FsError> {
        let mut parts = Vec::new();
        let mut cur = ino;
        let mut hops = 0;
        while cur != ROOT_INO {
            let node = self.inode(cur)?;
            parts.push(node.name.clone());
            cur = node.parent;
            hops += 1;
            if hops > 4096 {
                return Err(FsError::Invalid);
            }
        }
        parts.reverse();
        Ok(if parts.is_empty() {
            "/".into()
        } else {
            format!("/{}", parts.join("/"))
        })
    }

    // --- creation / removal ---

    fn insert_child(
        &mut self,
        dir: Ino,
        name: String,
        kind: RecKind,
        mode: u16,
        uid: u32,
    ) -> Result<Ino, FsError> {
        if self.dir_entries(dir)?.contains_key(&name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.next_ino()?;
        self.commit(vec![
            Payload::SetInode {
                ino,
                kind,
                mode,
                uid,
                parent: dir,
                name: name.clone(),
            },
            Payload::DirAdd { dir, name, ino },
        ]);
        self.stats.creates += 1;
        Ok(ino)
    }

    /// Creates an empty regular file.
    pub fn create_file(&mut self, path: &str, mode: u16, uid: u32) -> Result<Ino, FsError> {
        let (dir, name) = self.resolve_parent(path)?;
        self.insert_child(dir, name, RecKind::File, mode, uid)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str, mode: u16, uid: u32) -> Result<Ino, FsError> {
        let (dir, name) = self.resolve_parent(path)?;
        self.insert_child(dir, name, RecKind::Dir, mode, uid)
    }

    /// Creates all missing directories along `path`.
    pub fn mkdir_all(&mut self, path: &str, mode: u16, uid: u32) -> Result<(), FsError> {
        let path = fspath::normalize(path)?;
        let mut cur = String::from("/");
        for comp in fspath::components(&path).collect::<Vec<_>>() {
            cur = fspath::join(&cur, comp);
            match self.mkdir(&cur, mode, uid) {
                Ok(_) | Err(FsError::AlreadyExists) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Creates a symbolic link at `path` pointing to `target`.
    pub fn symlink(&mut self, target: &str, path: &str, uid: u32) -> Result<Ino, FsError> {
        let (dir, name) = self.resolve_parent(path)?;
        self.insert_child(dir, name, RecKind::Symlink(target.to_string()), 0o777, uid)
    }

    /// Reads a symlink's target.
    pub fn readlink(&mut self, path: &str) -> Result<String, FsError> {
        let ino = self.resolve_nofollow(path)?;
        match &self.inode(ino)?.node {
            Node::Symlink { target } => Ok(target.clone()),
            _ => Err(FsError::Invalid),
        }
    }

    /// Creates a hard link `new` to the file at `old`.
    pub fn hardlink(&mut self, old: &str, new: &str) -> Result<(), FsError> {
        if !self.config.allow_hardlinks {
            return Err(FsError::HardLinkForbidden);
        }
        let target = self.resolve(old)?;
        if matches!(self.inode(target)?.node, Node::Dir { .. }) {
            return Err(FsError::IsADirectory);
        }
        let (dir, name) = self.resolve_parent(new)?;
        if self.dir_entries(dir)?.contains_key(&name) {
            return Err(FsError::AlreadyExists);
        }
        let nlink = self.inode(target)?.nlink + 1;
        self.commit(vec![
            Payload::DirAdd {
                dir,
                name,
                ino: target,
            },
            Payload::SetNlink { ino: target, nlink },
        ]);
        Ok(())
    }

    /// Removes a file or symlink.
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        let (dir, name) = self.resolve_parent(path)?;
        let ino = *self.dir_entries(dir)?.get(&name).ok_or(FsError::NotFound)?;
        let inode = self.inode(ino)?;
        if matches!(inode.node, Node::Dir { .. }) {
            return Err(FsError::IsADirectory);
        }
        let nlink = inode.nlink - 1;
        self.commit(vec![
            Payload::DirRemove { dir, name },
            if nlink == 0 {
                Payload::ClearInode { ino }
            } else {
                Payload::SetNlink { ino, nlink }
            },
        ]);
        self.stats.removes += 1;
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str) -> Result<(), FsError> {
        let (dir, name) = self.resolve_parent(path)?;
        let ino = *self.dir_entries(dir)?.get(&name).ok_or(FsError::NotFound)?;
        match &self.inode(ino)?.node {
            Node::Dir { entries } if entries.is_empty() => {}
            Node::Dir { .. } => return Err(FsError::NotEmpty),
            _ => return Err(FsError::NotADirectory),
        }
        self.commit(vec![
            Payload::DirRemove { dir, name },
            Payload::ClearInode { ino },
        ]);
        self.stats.removes += 1;
        Ok(())
    }

    /// Renames `old` to `new` (same file system; replaces an existing
    /// file at `new` but not an existing directory).
    pub fn rename(&mut self, old: &str, new: &str) -> Result<(), FsError> {
        let (odir, oname) = self.resolve_parent(old)?;
        let ino = *self
            .dir_entries(odir)?
            .get(&oname)
            .ok_or(FsError::NotFound)?;
        let (ndir, nname) = self.resolve_parent(new)?;
        if let Some(&existing) = self.dir_entries(ndir)?.get(&nname) {
            if existing == ino {
                return Ok(());
            }
            if matches!(self.inode(existing)?.node, Node::Dir { .. }) {
                return Err(FsError::IsADirectory);
            }
            self.unlink(new)?;
        }
        self.commit(vec![
            Payload::DirRemove {
                dir: odir,
                name: oname,
            },
            Payload::DirAdd {
                dir: ndir,
                name: nname.clone(),
                ino,
            },
            Payload::SetMeta {
                ino,
                parent: ndir,
                name: nname,
            },
        ]);
        Ok(())
    }

    // --- file content ---

    /// Reads up to `len` bytes at `offset`; short reads at EOF. Fails
    /// with [`FsError::CorruptData`] when the range touches a poisoned
    /// page (uncorrectable corruption — DESIGN.md §14).
    pub fn read_at(&mut self, ino: Ino, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        if !self.poisoned.is_empty() && len > 0 {
            let ps = crate::PAGE_SIZE as u64;
            let first = offset / ps;
            let last = (offset + len as u64 - 1) / ps;
            for p in first..=last {
                if self.poisoned.contains(&(ino, p as u32)) {
                    return Err(FsError::CorruptData);
                }
            }
        }
        let content = match &self.inode(ino)?.node {
            Node::File { content } => content,
            Node::Dir { .. } => return Err(FsError::IsADirectory),
            Node::Symlink { .. } => return Err(FsError::Invalid),
        };
        let start = (offset as usize).min(content.len());
        let end = (start + len).min(content.len());
        let out = content[start..end].to_vec();
        self.stats.record_read(offset, out.len() as u64);
        Ok(out)
    }

    /// Writes `data` at `offset`, zero-filling any gap; enforces the
    /// per-file size cap.
    pub fn write_at(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let cap = self.config.max_file_size;
        let end = offset + data.len() as u64;
        if end > cap {
            return Err(FsError::FileTooLarge);
        }
        // Chaos: a torn write lands a prefix of the data, then the
        // device errors out. The caller sees `ShortWrite` and must roll
        // back or retry; the *live* file really is left torn, as on a
        // crashed disk (DESIGN.md §8) — but the write-ahead journal
        // below carries the full intended data, so reboot recovery
        // restores atomicity at exactly this site (DESIGN.md §13).
        let torn = if self.faults.should_inject(FaultSite::TornWrite) {
            Some(data.len() / 2)
        } else {
            None
        };
        if !data.is_empty() {
            // Stamp the touched pages (the full attempted range even
            // when torn — over-invalidation is always safe).
            self.content_stamp += 1;
            let epochs = self.write_epochs.entry(ino).or_default();
            let first = (offset / crate::PAGE_SIZE as u64) as u32;
            let last = ((end - 1) / crate::PAGE_SIZE as u64) as u32;
            for page in first..=last {
                *epochs.pages.entry(page).or_default() += 1;
            }
            if !self.poisoned.is_empty() && torn.is_none() {
                // A write that fully covers a poisoned page replaces the
                // corrupt bytes wholesale — the damage is gone. Partial
                // overlap keeps the poison: stale corrupt bytes remain.
                let ps = crate::PAGE_SIZE as u64;
                for page in first..=last {
                    let p64 = u64::from(page);
                    if p64 * ps >= offset && (p64 + 1) * ps <= end {
                        self.poisoned.remove(&(ino, page));
                    }
                }
            }
        }
        match &mut self.inode_mut(ino)?.node {
            Node::File { content } => {
                let wrote = torn.unwrap_or(data.len());
                let end = offset as usize + wrote;
                if end > content.len() {
                    content.resize(end, 0);
                }
                content[offset as usize..end].copy_from_slice(&data[..wrote]);
            }
            Node::Dir { .. } => return Err(FsError::IsADirectory),
            Node::Symlink { .. } => return Err(FsError::Invalid),
        }
        self.durable_write_tx(ino, offset, data, torn.is_some());
        if let Some(wrote) = torn {
            self.stats.record_write(offset, wrote as u64);
            return Err(FsError::ShortWrite);
        }
        self.stats.record_write(offset, data.len() as u64);
        Ok(())
    }

    /// Journals one `write_at` as a transaction of block images. When
    /// the live write was torn, the images are patched with the *full*
    /// intended data — the caller still sees `ShortWrite` and a torn
    /// live file, but a crash–reboot cycle replays the committed record
    /// and restores the write's atomicity.
    fn durable_write_tx(&mut self, ino: Ino, offset: u64, data: &[u8], torn: bool) {
        if self.durable.is_none() || data.is_empty() {
            return;
        }
        let Ok(content) = self.file_bytes(ino) else {
            return;
        };
        let patched;
        let view = if torn {
            let mut c = content.to_vec();
            let need = offset as usize + data.len();
            if c.len() < need {
                c.resize(need, 0);
            }
            c[offset as usize..need].copy_from_slice(data);
            patched = c;
            &patched
        } else {
            content
        };
        let bs = crate::BLOCK_SIZE as u64;
        let last = (offset + data.len() as u64 - 1) / bs;
        let mut payloads = Vec::new();
        block_images(ino, view, offset / bs..=last, &mut payloads);
        self.journal(payloads);
    }

    /// Sets the file's length, truncating or zero-extending.
    pub fn truncate(&mut self, ino: Ino, size: u64) -> Result<(), FsError> {
        if size > self.config.max_file_size {
            return Err(FsError::FileTooLarge);
        }
        if !matches!(self.inode(ino)?.node, Node::File { .. }) {
            return Err(FsError::IsADirectory);
        }
        self.commit(vec![Payload::SetSize { ino, size }]);
        if !self.poisoned.is_empty() {
            // Pages now entirely beyond EOF are gone, damage and all.
            let ps = crate::PAGE_SIZE as u64;
            self.poisoned
                .retain(|&(i, p)| i != ino || u64::from(p) * ps < size);
        }
        Ok(())
    }

    /// Sets a file's length *bypassing* the size cap and the write
    /// pipeline — simulates on-disk corruption (an oversized segment)
    /// for fsck tests. Test/diagnostic use only.
    pub fn force_size_for_test(&mut self, ino: Ino, size: u64) {
        self.apply_phys(&Payload::SetSize { ino, size });
    }

    /// Direct read-only view of a file's bytes (for memory mapping).
    pub fn file_bytes(&self, ino: Ino) -> Result<&[u8], FsError> {
        match &self.inode(ino)?.node {
            Node::File { content } => Ok(content),
            _ => Err(FsError::IsADirectory),
        }
    }

    /// Direct mutable view of a file's bytes (for mapped stores). The
    /// length cannot be changed through this view.
    ///
    /// Bumps the file's *whole-file* write epoch — this path cannot know
    /// which pages the caller will touch, so it conservatively stamps
    /// them all. Callers that do know should use
    /// [`FileSystem::file_bytes_mut_stamped`] instead.
    pub fn file_bytes_mut(&mut self, ino: Ino) -> Result<&mut [u8], FsError> {
        self.content_stamp += 1;
        self.write_epochs.entry(ino).or_default().whole += 1;
        if let Some(d) = self.durable.as_deref_mut() {
            d.mark_whole(ino);
        }
        match &mut self.inode_mut(ino)?.node {
            Node::File { content } => Ok(content),
            _ => Err(FsError::IsADirectory),
        }
    }

    /// [`FileSystem::file_bytes_mut`] for callers that will write only
    /// within the given file page: stamps that page's epoch instead of
    /// the whole file, so a store into a data page does not invalidate
    /// cached blocks decoded from the file's text pages.
    pub fn file_bytes_mut_stamped(&mut self, ino: Ino, page: u32) -> Result<&mut [u8], FsError> {
        self.content_stamp += 1;
        let epochs = self.write_epochs.entry(ino).or_default();
        *epochs.pages.entry(page).or_default() += 1;
        if let Some(d) = self.durable.as_deref_mut() {
            d.mark_page(ino, page);
        }
        match &mut self.inode_mut(ino)?.node {
            Node::File { content } => Ok(content),
            _ => Err(FsError::IsADirectory),
        }
    }

    /// The global content stamp: unchanged between two reads ⇒ no file's
    /// bytes changed in between (the converse does not hold — it also
    /// moves for writes the caller does not care about). Monotonic.
    pub fn content_stamp(&self) -> u64 {
        self.content_stamp
    }

    /// Restores a previously read content stamp — used by
    /// [`crate::Vfs::unpriced`], whose contract is that every write
    /// inside the bracket is cache maintenance no mapped or executed
    /// bytes can depend on, so those writes must not count as content
    /// changes.
    pub(crate) fn restore_content_stamp(&mut self, stamp: u64) {
        debug_assert!(stamp <= self.content_stamp);
        self.content_stamp = stamp;
    }

    /// The write epoch of one page of a file: moves (monotonically)
    /// whenever any mutating view could have touched that page's bytes.
    /// Inode-number reuse keeps the old stamps — epochs only ever grow,
    /// which is all a staleness check needs. Absent entry ⇒ 0.
    pub fn write_epoch(&self, ino: Ino, page: u32) -> u64 {
        match self.write_epochs.get(&ino) {
            Some(epochs) => epochs.whole + epochs.pages.get(&page).copied().unwrap_or(0),
            None => 0,
        }
    }

    // --- metadata / directory listing ---

    /// `stat` by inode.
    pub fn metadata(&self, ino: Ino) -> Result<Metadata, FsError> {
        let inode = self.inode(ino)?;
        let (kind, size) = match &inode.node {
            Node::File { content } => (NodeKind::File, content.len() as u64),
            Node::Dir { .. } => (NodeKind::Dir, 0),
            Node::Symlink { target } => (NodeKind::Symlink, target.len() as u64),
        };
        Ok(Metadata {
            ino,
            kind,
            size,
            nlink: inode.nlink,
            mode: inode.mode,
            uid: inode.uid,
        })
    }

    /// Lists a directory's entry names in sorted order.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<String>, FsError> {
        let ino = self.resolve(path)?;
        Ok(self.dir_entries(ino)?.keys().cloned().collect())
    }

    /// Changes permission bits.
    pub fn chmod(&mut self, ino: Ino, mode: u16) -> Result<(), FsError> {
        self.inode(ino)?;
        self.commit(vec![Payload::SetMode { ino, mode }]);
        Ok(())
    }

    /// Permission check: may `uid` perform `write`-or-read on `ino`?
    pub fn access(&self, ino: Ino, uid: u32, write: bool) -> Result<bool, FsError> {
        let inode = self.inode(ino)?;
        if uid == 0 {
            return Ok(true);
        }
        let bit = if write { 0o2 } else { 0o4 };
        let shift = if inode.uid == uid { 6 } else { 0 };
        Ok(inode.mode >> shift & bit != 0)
    }

    // --- advisory locks ---

    /// Attempts to acquire an advisory lock; fails with `WouldBlock` if
    /// incompatible with current holders. Re-acquisition by the same
    /// owner is idempotent (no upgrade/downgrade).
    pub fn try_lock(&mut self, ino: Ino, kind: LockKind, owner: u64) -> Result<(), FsError> {
        let inode = self.inode_mut(ino)?;
        match (&mut inode.lock, kind) {
            (LockState::Unlocked, LockKind::Exclusive) => {
                inode.lock = LockState::Exclusive(owner);
                Ok(())
            }
            (LockState::Unlocked, LockKind::Shared) => {
                inode.lock = LockState::Shared(BTreeSet::from([owner]));
                Ok(())
            }
            (LockState::Shared(holders), LockKind::Shared) => {
                holders.insert(owner);
                Ok(())
            }
            (LockState::Exclusive(cur), _) if *cur == owner => Ok(()),
            (LockState::Shared(holders), LockKind::Exclusive)
                if holders.len() == 1 && holders.contains(&owner) =>
            {
                inode.lock = LockState::Exclusive(owner);
                Ok(())
            }
            _ => Err(FsError::WouldBlock),
        }
    }

    /// Releases `owner`'s lock (idempotent).
    pub fn unlock(&mut self, ino: Ino, owner: u64) -> Result<(), FsError> {
        let inode = self.inode_mut(ino)?;
        match &mut inode.lock {
            LockState::Exclusive(cur) if *cur == owner => inode.lock = LockState::Unlocked,
            LockState::Shared(holders) => {
                holders.remove(&owner);
                if holders.is_empty() {
                    inode.lock = LockState::Unlocked;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Releases every lock held by `owner` (process exit cleanup).
    pub fn unlock_all(&mut self, owner: u64) {
        for slot in self.slots.iter_mut().flatten() {
            match &mut slot.lock {
                LockState::Exclusive(cur) if *cur == owner => slot.lock = LockState::Unlocked,
                LockState::Shared(holders) => {
                    holders.remove(&owner);
                    if holders.is_empty() {
                        slot.lock = LockState::Unlocked;
                    }
                }
                _ => {}
            }
        }
    }

    /// Visits every live inode (used by the shared layer's boot scan).
    pub fn for_each_inode(&self, mut f: impl FnMut(Ino, &NodeKind)) {
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(inode) = slot {
                let kind = match inode.node {
                    Node::File { .. } => NodeKind::File,
                    Node::Dir { .. } => NodeKind::Dir,
                    Node::Symlink { .. } => NodeKind::Symlink,
                };
                f(i as Ino, &kind);
            }
        }
    }

    // --- durability: block-write pipeline + write-ahead journal ---

    /// The one way a metadata operation changes the tree: applies the
    /// transaction's records to the live tree, then journals the same
    /// records through the block-write pipeline.
    fn commit(&mut self, payloads: Vec<Payload>) {
        for p in &payloads {
            self.apply_phys(p);
        }
        self.journal(payloads);
    }

    /// Emits one journaled transaction into the block-write pipeline
    /// (no-op when durability is off).
    fn journal(&mut self, payloads: Vec<Payload>) {
        if let Some(d) = self.durable.as_deref_mut() {
            d.tx(&self.faults, payloads);
        }
    }

    /// A volatile-stripped copy of the current tree: the disk image a
    /// fresh [`Durable`] twin starts from. Locks, stats, epochs, and the
    /// fault plan are all RAM-side state and do not survive onto disk.
    fn snapshot_for_disk(&self) -> FileSystem {
        let mut slots = self.slots.clone();
        for s in slots.iter_mut().flatten() {
            s.lock = LockState::Unlocked;
        }
        FileSystem {
            config: self.config,
            slots,
            free: self.free.clone(),
            live: self.live,
            stats: FsStats::default(),
            faults: FaultHandle::unarmed(),
            write_epochs: BTreeMap::new(),
            content_stamp: 0,
            durable: None,
            poisoned: BTreeSet::new(),
        }
    }

    /// Turns the block-write pipeline + journal on, snapshotting the
    /// current tree as the initial disk image (stamping every existing
    /// block into the checksum region). Idempotent.
    pub fn enable_durability(&mut self) {
        if self.durable.is_none() {
            let mut d = Durable::new(self.snapshot_for_disk());
            d.stamp_all();
            self.durable = Some(Box::new(d));
        }
    }

    /// Enables or disables the pipeline (`(crash off)` bench mode).
    pub fn set_durability(&mut self, on: bool) {
        if on {
            self.enable_durability();
        } else {
            self.durable = None;
        }
    }

    /// Disk writes applied so far (the crash-point enumerator's clock).
    pub fn disk_seq(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.disk_seq())
    }

    /// Schedules deterministic device death at disk write `k`; `tear`
    /// additionally half-lands the straddling block.
    pub fn set_crash_at(&mut self, k: u64, tear: bool) {
        if let Some(d) = self.durable.as_deref_mut() {
            d.set_crash_at(k, tear);
        }
    }

    /// Whether the simulated device has already died.
    pub fn device_dead(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.is_dead())
    }

    /// Flushes mapped-store dirt as one journaled transaction, then
    /// checkpoints (clears) the journal — the pipeline's `fsync`. Data
    /// written before a completed barrier survives any later crash.
    /// Returns the disk write index after the flush.
    pub fn barrier(&mut self) -> u64 {
        let Some(mut d) = self.durable.take() else {
            return 0;
        };
        let (whole, pages) = d.take_dirt();
        let mut payloads = Vec::new();
        for &ino in &whole {
            self.capture_dirt(ino, None, &mut payloads);
        }
        for (ino, pgs) in &pages {
            if !whole.contains(ino) {
                self.capture_dirt(*ino, Some(pgs), &mut payloads);
            }
        }
        if !payloads.is_empty() {
            d.tx(&self.faults, payloads);
        }
        d.checkpoint(&self.faults);
        let seq = d.disk_seq();
        self.durable = Some(d);
        seq
    }

    /// Captures one file's current content as journal payloads (the
    /// barrier's capture step for a single inode). `only` limits the
    /// capture to the given dirty pages; `None` captures size + all
    /// blocks.
    fn capture_dirt(&self, ino: Ino, only: Option<&BTreeSet<u32>>, out: &mut Vec<Payload>) {
        let Ok(inode) = self.inode(ino) else {
            return;
        };
        // Swap-file content is dead after any crash (the processes
        // whose pages it holds died with them) — never journal it.
        if inode.name.starts_with(&crate::SWAP_PATH_PREFIX[1..]) {
            return;
        }
        let Node::File { content } = &inode.node else {
            return;
        };
        if only.is_none() {
            out.push(Payload::SetSize {
                ino,
                size: content.len() as u64,
            });
        }
        let blocks = (content.len() as u64).div_ceil(crate::BLOCK_SIZE as u64);
        let dirty = (0..blocks).filter(|&b| only.is_none_or(|set| set.contains(&(b as u32))));
        block_images(ino, content, dirty, out);
    }

    /// Flushes *one file's* mapped-store dirt as a journaled
    /// transaction — a targeted `fsync(fd)` to the barrier's
    /// `sync()`. No checkpoint: the journal keeps growing, but any
    /// record journaled *after* this call is now ordered behind the
    /// file's current bytes in the replay stream. The lazy linker uses
    /// this before persisting module metadata, so no journal prefix
    /// can declare an instance resolved while its patch bytes are
    /// still volatile. Returns the disk write index after the flush.
    pub fn sync_ino(&mut self, ino: Ino) -> u64 {
        let Some(mut d) = self.durable.take() else {
            return 0;
        };
        let (whole, pages) = d.take_dirt_for(ino);
        let mut payloads = Vec::new();
        if whole {
            self.capture_dirt(ino, None, &mut payloads);
        } else if !pages.is_empty() {
            self.capture_dirt(ino, Some(&pages), &mut payloads);
        }
        if !payloads.is_empty() {
            d.tx(&self.faults, payloads);
        }
        let seq = d.disk_seq();
        self.durable = Some(d);
        seq
    }

    /// The power cut: adopts the disk image (the live tree's un-flushed
    /// RAM state is gone), clears all advisory locks, and re-twins. The
    /// on-disk journal survives for [`FileSystem::replay_journal`].
    /// Returns the number of discarded block writes.
    pub fn power_cut(&mut self) -> u64 {
        self.unlock_everything();
        // Poison is re-derived by boot verification against the adopted
        // disk image; stale entries must not outlive the old tree.
        self.poisoned.clear();
        let Some(mut d) = self.durable.take() else {
            return 0;
        };
        let discarded = d.discarded();
        let twin = d.take_disk(FileSystem::new(self.config));
        self.content_stamp = self.content_stamp.max(twin.content_stamp) + 1;
        self.slots = twin.slots;
        self.free = twin.free;
        self.live = twin.live;
        self.write_epochs.clear();
        let mut nd = Durable::new(self.snapshot_for_disk());
        nd.journal = std::mem::take(&mut d.journal);
        // The integrity region is on-disk state and survives the
        // cut — it still describes the adopted image.
        nd.adopt_integrity(&mut d);
        self.durable = Some(Box::new(nd));
        discarded
    }

    /// Replays every committed, checksum-valid transaction in the
    /// on-disk journal, in order, onto both the live tree and the disk
    /// image. Records are unconditional state writes, so replay is
    /// idempotent: recovering twice equals recovering once. The journal
    /// itself is kept (cleared by the next barrier's checkpoint).
    pub fn replay_journal(&mut self) -> ReplayStats {
        let Some(mut d) = self.durable.take() else {
            return ReplayStats::default();
        };
        let mut stats = ReplayStats::default();
        let mut pending: Vec<(Payload, Option<u64>)> = Vec::new();
        let mut apply: Vec<(Payload, Option<u64>)> = Vec::new();
        for rec in &d.journal {
            let Some(block) = rec.checked() else {
                // A torn record is always the journal's last write;
                // its transaction never committed and is void.
                break;
            };
            stats.records += 1;
            if matches!(rec.payload(), Payload::Commit) {
                stats.txs += 1;
                apply.append(&mut pending);
            } else {
                pending.push((rec.payload().clone(), block));
            }
        }
        for (p, block) in &apply {
            if matches!(p, Payload::WriteBlock { .. }) {
                stats.blocks += 1;
            } else {
                stats.meta += 1;
            }
            self.apply_phys(p);
            // The integrity-maintaining chokepoint: a replayed block is
            // re-stamped with the hash its record's check just computed,
            // so recovery re-blesses exactly the newest committed data
            // (verified-read on the replay path).
            d.apply_home(p, *block);
        }
        self.durable = Some(d);
        stats
    }

    /// Releases every advisory lock (locks are volatile kernel state).
    pub fn unlock_everything(&mut self) {
        for slot in self.slots.iter_mut().flatten() {
            slot.lock = LockState::Unlocked;
        }
    }

    /// Applies one physical record, last-writer-wins: the only code that
    /// edits inodes and directories. Used by every live metadata
    /// operation (through [`FileSystem::commit`]), for home writes on
    /// the disk image, and for journal replay; never consults the fault
    /// plan and never touches [`FsStats`]. Only `SetSize` and
    /// `WriteBlock` change file bytes, so only they move the content
    /// stamp and write epochs.
    pub(crate) fn apply_phys(&mut self, p: &Payload) {
        match p {
            Payload::SetInode {
                ino,
                kind,
                mode,
                uid,
                parent,
                name,
            } => {
                let idx = *ino as usize;
                if self.slots.len() <= idx {
                    self.slots.resize_with(idx + 1, || None);
                }
                let refresh = match (&mut self.slots[idx], kind) {
                    (Some(inode), RecKind::File) if matches!(inode.node, Node::File { .. }) => true,
                    (Some(inode), RecKind::Dir) if matches!(inode.node, Node::Dir { .. }) => true,
                    (Some(inode), RecKind::Symlink(t)) => {
                        if let Node::Symlink { target } = &mut inode.node {
                            *target = t.clone();
                            true
                        } else {
                            false
                        }
                    }
                    _ => false,
                };
                if refresh {
                    // invariant: `refresh` is only true when the match
                    // above saw `Some(inode)` in this very slot.
                    let inode = self.slots[idx].as_mut().expect("checked above");
                    inode.mode = *mode;
                    inode.uid = *uid;
                    inode.parent = *parent;
                    inode.name = name.clone();
                } else {
                    if self.slots[idx].is_none() {
                        self.live += 1;
                        self.free.retain(|&i| i != *ino);
                    }
                    let node = match kind {
                        RecKind::File => Node::File {
                            content: Vec::new(),
                        },
                        RecKind::Dir => Node::Dir {
                            entries: BTreeMap::new(),
                        },
                        RecKind::Symlink(t) => Node::Symlink { target: t.clone() },
                    };
                    self.slots[idx] = Some(Inode {
                        node,
                        nlink: 1,
                        mode: *mode,
                        uid: *uid,
                        parent: *parent,
                        name: name.clone(),
                        lock: LockState::Unlocked,
                    });
                }
            }
            Payload::ClearInode { ino } => self.release(*ino),
            Payload::DirAdd { dir, name, ino } => {
                if let Ok(inode) = self.inode_mut(*dir) {
                    if let Node::Dir { entries } = &mut inode.node {
                        entries.insert(name.clone(), *ino);
                    }
                }
            }
            Payload::DirRemove { dir, name } => {
                if let Ok(inode) = self.inode_mut(*dir) {
                    if let Node::Dir { entries } = &mut inode.node {
                        entries.remove(name);
                    }
                }
            }
            Payload::SetSize { ino, size } => {
                self.content_stamp += 1;
                self.write_epochs.entry(*ino).or_default().whole += 1;
                if let Ok(inode) = self.inode_mut(*ino) {
                    if let Node::File { content } = &mut inode.node {
                        content.resize(*size as usize, 0);
                    }
                }
            }
            Payload::SetMode { ino, mode } => {
                if let Ok(inode) = self.inode_mut(*ino) {
                    inode.mode = *mode;
                }
            }
            Payload::SetMeta { ino, parent, name } => {
                if let Ok(inode) = self.inode_mut(*ino) {
                    inode.parent = *parent;
                    inode.name = name.clone();
                }
            }
            Payload::SetNlink { ino, nlink } => {
                if let Ok(inode) = self.inode_mut(*ino) {
                    inode.nlink = *nlink;
                }
            }
            Payload::WriteBlock { ino, offset, bytes } => {
                self.content_stamp += 1;
                self.write_epochs.entry(*ino).or_default().whole += 1;
                if let Ok(inode) = self.inode_mut(*ino) {
                    if let Node::File { content } = &mut inode.node {
                        let need = *offset as usize + bytes.len();
                        if content.len() < need {
                            content.resize(need, 0);
                        }
                        content[*offset as usize..need].copy_from_slice(bytes);
                    }
                }
            }
            Payload::Commit => {}
        }
    }

    /// An order-stable digest of the durable tree state: slot index,
    /// metadata, names, directory entries, symlink targets, and file
    /// contents. Volatile state (locks, stats, epochs, the journal) is
    /// excluded — two digests match iff the recoverable trees match.
    /// It hashes with byte-wise FNV-1a, not the disk path's block hash,
    /// so the oracle that crash and corruption tests compare stays
    /// independent of the checksum they test.
    pub fn state_digest(&self) -> u64 {
        let mut buf = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(inode) = slot else { continue };
            buf.extend_from_slice(&(i as u32).to_le_bytes());
            buf.extend_from_slice(&inode.nlink.to_le_bytes());
            buf.extend_from_slice(&inode.mode.to_le_bytes());
            buf.extend_from_slice(&inode.uid.to_le_bytes());
            buf.extend_from_slice(&inode.parent.to_le_bytes());
            buf.extend_from_slice(&(inode.name.len() as u32).to_le_bytes());
            buf.extend_from_slice(inode.name.as_bytes());
            match &inode.node {
                Node::File { content } => {
                    buf.push(1);
                    buf.extend_from_slice(&(content.len() as u64).to_le_bytes());
                    buf.extend_from_slice(&fnv1a(content).to_le_bytes());
                }
                Node::Dir { entries } => {
                    buf.push(2);
                    for (n, ino) in entries {
                        buf.extend_from_slice(&(n.len() as u32).to_le_bytes());
                        buf.extend_from_slice(n.as_bytes());
                        buf.extend_from_slice(&ino.to_le_bytes());
                    }
                }
                Node::Symlink { target } => {
                    buf.push(3);
                    buf.extend_from_slice(target.as_bytes());
                }
            }
        }
        fnv1a(&buf)
    }

    /// Digest of the disk image (what a crash right now would leave).
    pub fn disk_digest(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| d.disk().state_digest())
    }

    // --- integrity: checksum region, scrub, repair, poison (DESIGN.md §14) ---

    /// Whether the end-to-end integrity machinery is on (requires the
    /// durable pipeline; on by default with it).
    pub fn integrity_enabled(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.integrity())
    }

    /// Turns the integrity machinery on (restamping the whole disk) or
    /// off (dropping the region; the `(scrub off)` bench identity).
    pub fn set_integrity(&mut self, on: bool) {
        if let Some(d) = self.durable.as_deref_mut() {
            d.set_integrity(on);
        }
        if !on {
            self.poisoned.clear();
        }
    }

    /// Blocks covered by the checksum region (0 with integrity off).
    pub fn stamped_blocks(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.stamped_blocks())
    }

    /// `(data blocks written, integrity-region blocks written)` since
    /// the pipeline was enabled — the write-amplification pair.
    pub fn write_amplification(&self) -> (u64, u64) {
        self.durable
            .as_ref()
            .map_or((0, 0), |d| d.write_amplification())
    }

    /// Verification scan of the disk image's stamped blocks. Empty on a
    /// clean disk. Re-hashes only blocks whose bytes changed since they
    /// last verified (DESIGN.md §14, "verified bit").
    pub fn verify_blocks(&mut self) -> Vec<CorruptBlockInfo> {
        self.durable
            .as_deref_mut()
            .map_or_else(Vec::new, |d| d.verify())
    }

    /// The reference scan [`FileSystem::verify_blocks`] must equal: every
    /// stamped block re-hashed, no memo consulted or updated. A
    /// diagnostic for tests; nothing on the product path calls it.
    pub fn verify_blocks_full(&self) -> Vec<CorruptBlockInfo> {
        self.durable
            .as_ref()
            .map_or_else(Vec::new, |d| d.verify_full())
    }

    /// One block of a file's bytes (clamped at EOF; empty when the inode
    /// is missing, not a file, or ends before `offset`).
    pub(crate) fn block(&self, ino: Ino, offset: u64) -> &[u8] {
        let c = self.file_bytes(ino).unwrap_or_default();
        let s = (offset as usize).min(c.len());
        &c[s..(s + crate::BLOCK_SIZE as usize).min(c.len())]
    }

    /// Repairs one corrupt disk block (replica region first, then the
    /// newest committed journal copy) and propagates the healed bytes to
    /// the live tree *iff* the live block still holds the corrupt image
    /// (i.e. a crash adopted it) — newer unflushed live data is never
    /// overwritten. Returns the repair source; on `None` the block is
    /// uncorrectable and, when the live tree holds the corrupt bytes,
    /// its page is poisoned (reads fail typed, maps raise `Eio`).
    pub fn repair_block(&mut self, ino: Ino, offset: u64) -> Option<RepairSource> {
        let d = self.durable.as_deref_mut()?;
        let pre = d.disk().block(ino, offset).to_vec();
        let src = d.repair_block(ino, offset);
        let good = d.disk().block(ino, offset).to_vec();
        let adopted = self.block(ino, offset) == pre;
        let page = (offset / crate::PAGE_SIZE as u64) as u32;
        if src.is_some() {
            if adopted && pre != good {
                self.apply_phys(&Payload::WriteBlock {
                    ino,
                    offset,
                    bytes: good,
                });
            }
            self.poisoned.remove(&(ino, page));
        } else if adopted && !pre.is_empty() {
            self.poisoned.insert((ino, page));
        }
        src
    }

    /// One deterministic scrub pass: verify every stamped block, repair
    /// each corrupt one. `None` when the pipeline or integrity is off.
    /// The caller (the World) prices the pass and journals the findings.
    pub fn scrub(&mut self) -> Option<ScrubReport> {
        if !self.integrity_enabled() {
            return None;
        }
        let blocks_scanned = self.stamped_blocks();
        let corrupt = self.verify_blocks();
        let mut findings = Vec::with_capacity(corrupt.len());
        for c in corrupt {
            let repaired_from = self.repair_block(c.ino, c.offset);
            findings.push(ScrubFinding {
                ino: c.ino,
                offset: c.offset,
                reason: c.reason,
                repaired_from,
            });
        }
        Some(ScrubReport {
            blocks_scanned,
            findings,
        })
    }

    /// Deterministically corrupts one stamped disk block (chaos-site
    /// mirror for tests; false when the block is not stamped).
    pub fn corrupt_block_for_test(&mut self, ino: Ino, offset: u64, kind: CorruptKind) -> bool {
        self.durable
            .as_deref_mut()
            .is_some_and(|d| d.corrupt_for_test(ino, offset, kind))
    }

    /// Corrupts one block's replica copy (tests; with the journal
    /// checkpointed this makes the block uncorrectable).
    pub fn corrupt_replica_for_test(&mut self, ino: Ino, offset: u64) -> bool {
        self.durable
            .as_deref_mut()
            .is_some_and(|d| d.corrupt_replica_for_test(ino, offset))
    }

    /// Whether a page's backing block is known uncorrectably corrupt.
    /// One `is_empty` test in every healthy run.
    pub fn is_poisoned(&self, ino: Ino, page: u32) -> bool {
        !self.poisoned.is_empty() && self.poisoned.contains(&(ino, page))
    }

    /// Number of poisoned pages (0 in every healthy run).
    pub fn poisoned_blocks(&self) -> u64 {
        self.poisoned.len() as u64
    }
}

/// Appends one `WriteBlock` image per listed block of `content` (the
/// last one EOF-short): the journal shape of both an explicit write and
/// a barrier's capture of mapped-store dirt.
fn block_images(
    ino: Ino,
    content: &[u8],
    blocks: impl Iterator<Item = u64>,
    out: &mut Vec<Payload>,
) {
    let bs = crate::BLOCK_SIZE as usize;
    for b in blocks {
        let s = b as usize * bs;
        out.push(Payload::WriteBlock {
            ino,
            offset: s as u64,
            bytes: content[s..(s + bs).min(content.len())].to_vec(),
        });
    }
}

/// Byte-wise FNV-1a 64, the published function: the hash of
/// [`FileSystem::state_digest`] only. The disk path hashes with
/// `journal::block_hash`, a word-at-a-time variant.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one [`FileSystem::scrub`] pass saw and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Stamped blocks verified.
    pub blocks_scanned: u64,
    /// Corrupt blocks found (with their repair outcome).
    pub findings: Vec<ScrubFinding>,
}

/// One corrupt block a scrub found, and how it ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScrubFinding {
    /// File inode.
    pub ino: Ino,
    /// Block-aligned byte offset within the file.
    pub offset: u64,
    /// Detection reason (`"checksum"` or `"address-stamp"`).
    pub reason: &'static str,
    /// Repair source, `None` when the block is uncorrectable
    /// (contained via poisoning).
    pub repaired_from: Option<RepairSource>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> FileSystem {
        FileSystem::new(FsConfig::root())
    }

    #[test]
    fn create_write_read() {
        let mut f = fs();
        let ino = f.create_file("/hello.txt", 0o644, 1).unwrap();
        f.write_at(ino, 0, b"hello world").unwrap();
        assert_eq!(f.read_at(ino, 0, 5).unwrap(), b"hello");
        assert_eq!(f.read_at(ino, 6, 100).unwrap(), b"world");
        assert_eq!(f.metadata(ino).unwrap().size, 11);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut f = fs();
        let ino = f.create_file("/s", 0o644, 1).unwrap();
        f.write_at(ino, 8, b"x").unwrap();
        assert_eq!(f.read_at(ino, 0, 9).unwrap(), b"\0\0\0\0\0\0\0\0x");
    }

    #[test]
    fn directories_and_listing() {
        let mut f = fs();
        f.mkdir("/a", 0o755, 0).unwrap();
        f.mkdir("/a/b", 0o755, 0).unwrap();
        f.create_file("/a/x", 0o644, 0).unwrap();
        f.create_file("/a/y", 0o644, 0).unwrap();
        assert_eq!(f.readdir("/a").unwrap(), vec!["b", "x", "y"]);
        assert_eq!(f.readdir("/").unwrap(), vec!["a"]);
        assert!(matches!(f.readdir("/a/x"), Err(FsError::NotADirectory)));
    }

    #[test]
    fn mkdir_all_idempotent() {
        let mut f = fs();
        f.mkdir_all("/x/y/z", 0o755, 0).unwrap();
        f.mkdir_all("/x/y/z", 0o755, 0).unwrap();
        assert!(f.resolve("/x/y/z").is_ok());
    }

    #[test]
    fn missing_parent_fails() {
        let mut f = fs();
        assert_eq!(f.create_file("/no/file", 0o644, 0), Err(FsError::NotFound));
    }

    #[test]
    fn unlink_and_rmdir() {
        let mut f = fs();
        f.mkdir("/d", 0o755, 0).unwrap();
        f.create_file("/d/f", 0o644, 0).unwrap();
        assert_eq!(f.rmdir("/d"), Err(FsError::NotEmpty));
        assert_eq!(f.unlink("/d"), Err(FsError::IsADirectory));
        f.unlink("/d/f").unwrap();
        f.rmdir("/d").unwrap();
        assert_eq!(f.resolve("/d"), Err(FsError::NotFound));
    }

    #[test]
    fn inode_reuse_after_unlink() {
        let mut f = FileSystem::new(FsConfig {
            max_inodes: 3,
            ..FsConfig::root()
        });
        let a = f.create_file("/a", 0o644, 0).unwrap();
        let _b = f.create_file("/b", 0o644, 0).unwrap();
        assert_eq!(f.create_file("/c", 0o644, 0), Err(FsError::NoSpace));
        f.unlink("/a").unwrap();
        let c = f.create_file("/c", 0o644, 0).unwrap();
        assert_eq!(a, c, "slot should be reused");
    }

    #[test]
    fn symlinks_follow_and_nofollow() {
        let mut f = fs();
        f.mkdir("/real", 0o755, 0).unwrap();
        f.create_file("/real/data", 0o644, 0).unwrap();
        f.symlink("/real", "/alias", 0).unwrap();
        let via = f.resolve("/alias/data").unwrap();
        let direct = f.resolve("/real/data").unwrap();
        assert_eq!(via, direct);
        assert_eq!(f.readlink("/alias").unwrap(), "/real");
        let l = f.resolve_nofollow("/alias").unwrap();
        assert_eq!(f.metadata(l).unwrap().kind, NodeKind::Symlink);
    }

    #[test]
    fn relative_symlink() {
        let mut f = fs();
        f.mkdir_all("/a/b", 0o755, 0).unwrap();
        f.create_file("/a/b/t", 0o644, 0).unwrap();
        f.symlink("b/t", "/a/link", 0).unwrap();
        assert_eq!(f.resolve("/a/link").unwrap(), f.resolve("/a/b/t").unwrap());
    }

    #[test]
    fn symlink_loop_detected() {
        let mut f = fs();
        f.symlink("/b", "/a", 0).unwrap();
        f.symlink("/a", "/b", 0).unwrap();
        assert_eq!(f.resolve("/a"), Err(FsError::SymlinkLoop));
    }

    #[test]
    fn hardlinks_when_allowed() {
        let mut f = fs();
        let ino = f.create_file("/orig", 0o644, 0).unwrap();
        f.write_at(ino, 0, b"shared").unwrap();
        f.hardlink("/orig", "/also").unwrap();
        assert_eq!(f.metadata(ino).unwrap().nlink, 2);
        f.unlink("/orig").unwrap();
        let ino2 = f.resolve("/also").unwrap();
        assert_eq!(f.read_at(ino2, 0, 6).unwrap(), b"shared");
    }

    #[test]
    fn hardlinks_forbidden_by_config() {
        let mut f = FileSystem::new(FsConfig::shared());
        f.create_file("/x", 0o644, 0).unwrap();
        assert_eq!(f.hardlink("/x", "/y"), Err(FsError::HardLinkForbidden));
    }

    #[test]
    fn file_size_cap() {
        let mut f = FileSystem::new(FsConfig::shared());
        let ino = f.create_file("/big", 0o644, 0).unwrap();
        assert_eq!(f.write_at(ino, 1 << 20, b"x"), Err(FsError::FileTooLarge));
        f.write_at(ino, (1 << 20) - 1, b"x").unwrap();
        assert_eq!(f.truncate(ino, (1 << 20) + 1), Err(FsError::FileTooLarge));
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut f = fs();
        f.mkdir("/d", 0o755, 0).unwrap();
        let a = f.create_file("/a", 0o644, 0).unwrap();
        f.write_at(a, 0, b"A").unwrap();
        f.create_file("/d/b", 0o644, 0).unwrap();
        f.rename("/a", "/d/b").unwrap();
        assert_eq!(f.resolve("/a"), Err(FsError::NotFound));
        let b = f.resolve("/d/b").unwrap();
        assert_eq!(f.read_at(b, 0, 1).unwrap(), b"A");
        assert_eq!(f.path_of(b).unwrap(), "/d/b");
    }

    #[test]
    fn path_of_reconstruction() {
        let mut f = fs();
        f.mkdir_all("/u/proj/lib", 0o755, 0).unwrap();
        let ino = f.create_file("/u/proj/lib/mod.o", 0o644, 0).unwrap();
        assert_eq!(f.path_of(ino).unwrap(), "/u/proj/lib/mod.o");
        assert_eq!(f.path_of(ROOT_INO).unwrap(), "/");
    }

    #[test]
    fn permissions() {
        let mut f = fs();
        let ino = f.create_file("/owned", 0o640, 7).unwrap();
        assert!(f.access(ino, 7, true).unwrap());
        assert!(!f.access(ino, 8, false).unwrap());
        assert!(f.access(ino, 0, true).unwrap(), "root bypasses");
        f.chmod(ino, 0o644).unwrap();
        assert!(f.access(ino, 8, false).unwrap());
        assert!(!f.access(ino, 8, true).unwrap());
    }

    #[test]
    fn advisory_locks() {
        let mut f = fs();
        let ino = f.create_file("/l", 0o644, 0).unwrap();
        f.try_lock(ino, LockKind::Shared, 1).unwrap();
        f.try_lock(ino, LockKind::Shared, 2).unwrap();
        assert_eq!(
            f.try_lock(ino, LockKind::Exclusive, 3),
            Err(FsError::WouldBlock)
        );
        f.unlock(ino, 1).unwrap();
        f.unlock(ino, 2).unwrap();
        f.try_lock(ino, LockKind::Exclusive, 3).unwrap();
        assert_eq!(
            f.try_lock(ino, LockKind::Shared, 1),
            Err(FsError::WouldBlock)
        );
        // Idempotent re-acquisition by the holder.
        f.try_lock(ino, LockKind::Exclusive, 3).unwrap();
        // Upgrade when sole shared holder.
        f.unlock(ino, 3).unwrap();
        f.try_lock(ino, LockKind::Shared, 4).unwrap();
        f.try_lock(ino, LockKind::Exclusive, 4).unwrap();
        assert_eq!(
            f.try_lock(ino, LockKind::Shared, 5),
            Err(FsError::WouldBlock)
        );
    }

    #[test]
    fn unlock_all_releases_everything() {
        let mut f = fs();
        let a = f.create_file("/a", 0o644, 0).unwrap();
        let b = f.create_file("/b", 0o644, 0).unwrap();
        f.try_lock(a, LockKind::Exclusive, 9).unwrap();
        f.try_lock(b, LockKind::Shared, 9).unwrap();
        f.unlock_all(9);
        f.try_lock(a, LockKind::Exclusive, 1).unwrap();
        f.try_lock(b, LockKind::Exclusive, 1).unwrap();
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fs();
        let ino = f.create_file("/s", 0o644, 0).unwrap();
        f.write_at(ino, 0, &[0u8; 5000]).unwrap();
        f.read_at(ino, 0, 5000).unwrap();
        assert_eq!(f.stats.creates, 1);
        assert_eq!(f.stats.blocks_written, 2);
        assert_eq!(f.stats.blocks_read, 2);
    }

    #[test]
    fn read_dir_as_file_fails() {
        let mut f = fs();
        f.mkdir("/d", 0o755, 0).unwrap();
        let ino = f.resolve("/d").unwrap();
        assert_eq!(f.read_at(ino, 0, 1), Err(FsError::IsADirectory));
        assert_eq!(f.write_at(ino, 0, b"x"), Err(FsError::IsADirectory));
    }

    #[test]
    fn the_digest_hash_is_published_fnv1a() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_state_digest_hashes_no_disk_block() {
        let mut f = fs();
        f.enable_durability();
        let ino = f.create_file("/a", 0o644, 0).unwrap();
        f.write_at(ino, 0, &[3; 3 * crate::BLOCK_SIZE as usize])
            .unwrap();
        let hashed = || crate::journal::HASHED_BYTES.with(|n| n.get());
        let before = hashed();
        assert_eq!(f.disk_digest(), Some(f.state_digest()));
        assert_eq!(hashed(), before);
    }

    /// The block cache and the snapshot fast path treat a moved content
    /// stamp or write epoch as "bytes may have changed", so metadata
    /// operations must leave both alone and only byte writes move them.
    #[test]
    fn only_byte_changes_move_the_content_stamp() {
        let mut f = fs();
        f.enable_durability();
        let stamp = f.content_stamp();
        let ino = f.create_file("/a", 0o644, 0).unwrap();
        f.mkdir("/d", 0o755, 0).unwrap();
        f.symlink("/a", "/s", 0).unwrap();
        f.hardlink("/a", "/d/b").unwrap();
        f.rename("/d/b", "/c").unwrap();
        f.unlink("/c").unwrap();
        f.rmdir("/d").unwrap();
        f.chmod(ino, 0o600).unwrap();
        let moved = |f: &FileSystem| (f.content_stamp(), f.write_epoch(ino, 0));
        assert_eq!(moved(&f), (stamp, 0), "a metadata op moved a stamp");
        f.truncate(ino, 10).unwrap();
        let truncated = moved(&f);
        assert!(truncated.0 > stamp && truncated.1 > 0);
        f.write_at(ino, 0, b"x").unwrap();
        let written = moved(&f);
        assert!(written.0 > truncated.0 && written.1 > truncated.1);
    }
}
