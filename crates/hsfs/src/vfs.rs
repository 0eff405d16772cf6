//! A two-mount namespace: the root file system plus the shared partition
//! mounted at a fixed point (`/shared` by default).
//!
//! This is the view the simulated kernel hands to processes: ordinary
//! paths resolve in the root file system; paths under the mount point
//! resolve in the address-mapped shared partition. Rename and hard-link
//! across the boundary fail with `EXDEV`, as on real Unix.

use crate::error::FsError;
use crate::fs::{FileSystem, FsConfig, Ino, LockKind, Metadata};
use crate::path as fspath;
use crate::shared::SharedFs;

/// Identifies which mounted file system a vnode lives on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mount {
    /// The ordinary root file system.
    Root,
    /// The shared, address-mapped partition.
    Shared,
}

/// A mount-qualified inode reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Vnode {
    /// Which file system.
    pub mount: Mount,
    /// Inode within that file system.
    pub ino: Ino,
}

/// The unified namespace.
#[derive(Clone, Debug)]
pub struct Vfs {
    /// The root file system.
    pub root: FileSystem,
    /// The shared partition.
    pub shared: SharedFs,
    /// Absolute mount point of the shared partition.
    pub mount_point: String,
}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::new()
    }
}

impl Vfs {
    /// Creates a namespace with the shared partition at `/shared`.
    pub fn new() -> Vfs {
        let mut root = FileSystem::new(FsConfig::root());
        // invariant: a freshly constructed root FS has free inodes and no
        // existing "/shared" entry, so this mkdir cannot fail.
        root.mkdir("/shared", 0o777, 0)
            .expect("fresh root cannot fail");
        Vfs {
            root,
            shared: SharedFs::new(),
            mount_point: "/shared".to_string(),
        }
    }

    /// Arms both mounts with one shared fault-injection handle (chaos
    /// testing; see DESIGN.md §8).
    pub fn arm_faults(&mut self, faults: hfault::FaultHandle) {
        self.root.arm_faults(faults.clone());
        self.shared.fs.arm_faults(faults);
    }

    /// The prelink system area in the unified namespace (DESIGN.md §15).
    pub fn prelink_dir(&self) -> String {
        format!("{}{}", self.mount_point, crate::PRELINK_DIR_INNER)
    }

    /// Flushes one shared-partition file's mapped-store dirt into the
    /// journal (see [`crate::fs::FileSystem::sync_ino`]) — write-order
    /// fencing for metadata that describes the file's current bytes.
    pub fn sync_shared_ino(&mut self, ino: crate::Ino) -> u64 {
        self.shared.fs.sync_ino(ino)
    }

    /// Whether the shared partition's simulated device has already died
    /// (a scheduled crash point has passed). A sync after death cannot
    /// have reached the journal — callers fencing metadata behind
    /// [`Vfs::sync_shared_ino`] must treat this like `fsync` returning
    /// `EIO` and abort the dependent persist.
    pub fn shared_device_dead(&self) -> bool {
        self.shared.fs.device_dead()
    }

    /// Runs `f` with I/O *accounting* suspended: whatever `f` reads or
    /// writes, the cost-model tallies (both mounts' [`crate::FsStats`],
    /// the shared partition's address-table lookup/probe counters) end
    /// where they started. The snapshot cache uses this because its
    /// load/validate pass is priced flat (`snapshot_validate_ns`), not
    /// per block. Only the *pricing* is suspended — the bytes really
    /// move: the WAL still journals writes, the disk write stream still
    /// advances (crash-point enumeration sees every unit), and scrub
    /// coverage is unaffected.
    pub fn unpriced<R>(&mut self, f: impl FnOnce(&mut Vfs) -> R) -> R {
        let root = self.root.stats;
        let shared = self.shared.fs.stats;
        let lookups = self.shared.addr_lookups;
        let probes = self.shared.addr_probe_steps;
        let stamp = self.shared.fs.content_stamp();
        let r = f(self);
        self.root.stats = root;
        self.shared.fs.stats = shared;
        self.shared.addr_lookups = lookups;
        self.shared.addr_probe_steps = probes;
        // Cache writes are not content changes: nothing mapped or
        // executed can depend on snapshot bytes, so snapshot fast-path
        // validation, the one reader of the global stamp, must not see
        // it move. The block caches read the per-page write epochs
        // instead, which this does not restore.
        self.shared.fs.restore_content_stamp(stamp);
        r
    }

    /// Splits an absolute path into its mount and the path within it.
    pub fn route_norm(&self, path: &str) -> Result<(Mount, String), FsError> {
        let norm = fspath::normalize(path)?;
        if fspath::starts_with_dir(&norm, &self.mount_point) {
            let inner = &norm[self.mount_point.len()..];
            let inner = if inner.is_empty() { "/" } else { inner };
            Ok((Mount::Shared, inner.to_string()))
        } else {
            Ok((Mount::Root, norm))
        }
    }

    fn fs(&mut self, mount: Mount) -> &mut FileSystem {
        match mount {
            Mount::Root => &mut self.root,
            Mount::Shared => &mut self.shared.fs,
        }
    }

    /// Resolves a path to a vnode, following symlinks — including
    /// root-file-system symlinks whose absolute targets point *into* the
    /// shared mount (the paper's Presto launcher publishes shared
    /// templates via symlinks in a temporary directory).
    pub fn resolve(&mut self, path: &str) -> Result<Vnode, FsError> {
        self.resolve_escaping(path, 0)
    }

    fn resolve_escaping(&mut self, path: &str, depth: u32) -> Result<Vnode, FsError> {
        if depth > 10 {
            return Err(FsError::SymlinkLoop);
        }
        let (mount, inner) = self.route_norm(path)?;
        match self.fs(mount).resolve(&inner) {
            Ok(ino) => Ok(Vnode { mount, ino }),
            Err(e @ (FsError::NotFound | FsError::NotADirectory)) if mount == Mount::Root => {
                // A symlink along the path may escape into the mount.
                if let Some(redirected) = self.escape_target(&inner)? {
                    return self.resolve_escaping(&redirected, depth + 1);
                }
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// If some prefix of `inner` (a root-FS path) is a symlink whose
    /// absolute target begins with the mount point, returns the full
    /// redirected path.
    fn escape_target(&mut self, inner: &str) -> Result<Option<String>, FsError> {
        let comps: Vec<String> = fspath::components(inner).map(str::to_string).collect();
        let mut prefix = String::from("/");
        for (i, comp) in comps.iter().enumerate() {
            prefix = fspath::join(&prefix, comp);
            let Ok(ino) = self.root.resolve_nofollow(&prefix) else {
                return Ok(None);
            };
            if self.root.metadata(ino)?.kind != crate::fs::NodeKind::Symlink {
                continue;
            }
            let target = self.root.readlink(&prefix)?;
            if !fspath::starts_with_dir(&target, &self.mount_point) {
                continue;
            }
            let rest = comps[i + 1..].join("/");
            let full = if rest.is_empty() {
                target
            } else {
                format!("{target}/{rest}")
            };
            return Ok(Some(full));
        }
        Ok(None)
    }

    /// Resolves without following a final-component symlink.
    pub fn resolve_nofollow(&mut self, path: &str) -> Result<Vnode, FsError> {
        let (mount, inner) = self.route_norm(path)?;
        let ino = self.fs(mount).resolve_nofollow(&inner)?;
        Ok(Vnode { mount, ino })
    }

    /// Creates a regular file.
    pub fn create_file(&mut self, path: &str, mode: u16, uid: u32) -> Result<Vnode, FsError> {
        let (mount, inner) = self.route_norm(path)?;
        let ino = match mount {
            Mount::Root => self.root.create_file(&inner, mode, uid)?,
            Mount::Shared => self.shared.create_file(&inner, mode, uid)?,
        };
        Ok(Vnode { mount, ino })
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str, mode: u16, uid: u32) -> Result<Vnode, FsError> {
        let (mount, inner) = self.route_norm(path)?;
        let ino = self.fs(mount).mkdir(&inner, mode, uid)?;
        Ok(Vnode { mount, ino })
    }

    /// Creates all missing directories along `path`.
    pub fn mkdir_all(&mut self, path: &str, mode: u16, uid: u32) -> Result<(), FsError> {
        let (mount, inner) = self.route_norm(path)?;
        self.fs(mount).mkdir_all(&inner, mode, uid)
    }

    /// Creates a symlink. The link text is stored verbatim; it resolves
    /// within the *same* mount (matching the per-FS walker).
    pub fn symlink(&mut self, target: &str, path: &str, uid: u32) -> Result<Vnode, FsError> {
        let (mount, inner) = self.route_norm(path)?;
        let ino = self.fs(mount).symlink(target, &inner, uid)?;
        Ok(Vnode { mount, ino })
    }

    /// Reads a symlink's target.
    pub fn readlink(&mut self, path: &str) -> Result<String, FsError> {
        let (mount, inner) = self.route_norm(path)?;
        self.fs(mount).readlink(&inner)
    }

    /// Removes a file or symlink.
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        let (mount, inner) = self.route_norm(path)?;
        match mount {
            Mount::Root => self.root.unlink(&inner),
            Mount::Shared => self.shared.unlink(&inner),
        }
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str) -> Result<(), FsError> {
        let (mount, inner) = self.route_norm(path)?;
        self.fs(mount).rmdir(&inner)
    }

    /// Renames within one mount; `EXDEV` across mounts.
    pub fn rename(&mut self, old: &str, new: &str) -> Result<(), FsError> {
        let (m1, i1) = self.route_norm(old)?;
        let (m2, i2) = self.route_norm(new)?;
        if m1 != m2 {
            return Err(FsError::CrossDevice);
        }
        self.fs(m1).rename(&i1, &i2)
    }

    /// Hard link within one mount; forbidden on the shared partition.
    pub fn hardlink(&mut self, old: &str, new: &str) -> Result<(), FsError> {
        let (m1, i1) = self.route_norm(old)?;
        let (m2, i2) = self.route_norm(new)?;
        if m1 != m2 {
            return Err(FsError::CrossDevice);
        }
        self.fs(m1).hardlink(&i1, &i2)
    }

    /// `stat`.
    pub fn stat(&mut self, path: &str) -> Result<Metadata, FsError> {
        let v = self.resolve(path)?;
        self.fs(v.mount).metadata(v.ino)
    }

    /// Reads file content by path.
    pub fn read(&mut self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let v = self.resolve(path)?;
        self.fs(v.mount).read_at(v.ino, offset, len)
    }

    /// Reads an entire file.
    pub fn read_all(&mut self, path: &str) -> Result<Vec<u8>, FsError> {
        let v = self.resolve(path)?;
        let size = self.fs(v.mount).metadata(v.ino)?.size;
        self.fs(v.mount).read_at(v.ino, 0, size as usize)
    }

    /// Writes file content by path.
    pub fn write(&mut self, path: &str, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let v = self.resolve(path)?;
        self.fs(v.mount).write_at(v.ino, offset, data)
    }

    /// Creates-or-truncates and writes a whole file.
    pub fn write_file(
        &mut self,
        path: &str,
        data: &[u8],
        mode: u16,
        uid: u32,
    ) -> Result<Vnode, FsError> {
        let v = match self.resolve(path) {
            Ok(v) => v,
            Err(FsError::NotFound) => self.create_file(path, mode, uid)?,
            Err(e) => return Err(e),
        };
        self.fs(v.mount).truncate(v.ino, 0)?;
        self.fs(v.mount).write_at(v.ino, 0, data)?;
        Ok(v)
    }

    /// Lists a directory.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<String>, FsError> {
        let (mount, inner) = self.route_norm(path)?;
        self.fs(mount).readdir(&inner)
    }

    /// The file system a vnode lives on (for vnode-granular operations).
    pub fn fs_of(&mut self, mount: Mount) -> &mut FileSystem {
        self.fs(mount)
    }

    /// `stat` by vnode.
    pub fn metadata_vnode(&mut self, v: Vnode) -> Result<Metadata, FsError> {
        self.fs(v.mount).metadata(v.ino)
    }

    /// Reads by vnode.
    pub fn read_vnode(&mut self, v: Vnode, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        self.fs(v.mount).read_at(v.ino, offset, len)
    }

    /// Writes by vnode.
    pub fn write_vnode(&mut self, v: Vnode, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.fs(v.mount).write_at(v.ino, offset, data)
    }

    /// Truncates by vnode.
    pub fn truncate_vnode(&mut self, v: Vnode, size: u64) -> Result<(), FsError> {
        self.fs(v.mount).truncate(v.ino, size)
    }

    /// Advisory lock / unlock by vnode.
    pub fn try_lock(&mut self, v: Vnode, kind: LockKind, owner: u64) -> Result<(), FsError> {
        self.fs(v.mount).try_lock(v.ino, kind, owner)
    }

    /// Releases `owner`'s lock on `v`.
    pub fn unlock(&mut self, v: Vnode, owner: u64) -> Result<(), FsError> {
        self.fs(v.mount).unlock(v.ino, owner)
    }

    /// Releases all locks held by `owner` on both mounts.
    pub fn unlock_all(&mut self, owner: u64) {
        self.root.unlock_all(owner);
        self.shared.fs.unlock_all(owner);
    }

    /// Full path (in the unified namespace) of a vnode.
    pub fn path_of(&self, v: Vnode) -> Result<String, FsError> {
        match v.mount {
            Mount::Root => self.root.path_of(v.ino),
            Mount::Shared => {
                let inner = self.shared.fs.path_of(v.ino)?;
                Ok(if inner == "/" {
                    self.mount_point.clone()
                } else {
                    format!("{}{}", self.mount_point, inner)
                })
            }
        }
    }

    /// `path_to_addr` in the unified namespace (must be a shared path).
    pub fn path_to_addr(&mut self, path: &str) -> Result<u32, FsError> {
        let (mount, inner) = self.route_norm(path)?;
        match mount {
            Mount::Shared => self.shared.path_to_addr(&inner),
            Mount::Root => Err(FsError::BadAddress),
        }
    }

    /// `addr_to_path`, returning a unified-namespace path.
    pub fn addr_to_path(&mut self, addr: u32) -> Result<(String, u32), FsError> {
        let (inner, off) = self.shared.addr_to_path(addr)?;
        Ok((format!("{}{}", self.mount_point, inner), off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_by_mount_point() {
        let mut v = Vfs::new();
        v.mkdir("/home", 0o755, 0).unwrap();
        let f = v.create_file("/home/x", 0o644, 1).unwrap();
        assert_eq!(f.mount, Mount::Root);
        let s = v.create_file("/shared/seg", 0o666, 1).unwrap();
        assert_eq!(s.mount, Mount::Shared);
        assert!(v.path_to_addr("/shared/seg").is_ok());
        assert_eq!(v.path_to_addr("/home/x"), Err(FsError::BadAddress));
    }

    #[test]
    fn unified_paths_round_trip() {
        let mut v = Vfs::new();
        v.mkdir("/shared/mods", 0o777, 0).unwrap();
        let s = v.create_file("/shared/mods/db", 0o666, 1).unwrap();
        assert_eq!(v.path_of(s).unwrap(), "/shared/mods/db");
        let addr = v.path_to_addr("/shared/mods/db").unwrap();
        assert_eq!(
            v.addr_to_path(addr + 12).unwrap(),
            ("/shared/mods/db".into(), 12)
        );
    }

    #[test]
    fn cross_device_rename_rejected() {
        let mut v = Vfs::new();
        v.create_file("/a", 0o644, 0).unwrap();
        assert_eq!(v.rename("/a", "/shared/a"), Err(FsError::CrossDevice));
        assert_eq!(v.hardlink("/a", "/shared/a"), Err(FsError::CrossDevice));
    }

    #[test]
    fn write_file_create_and_overwrite() {
        let mut v = Vfs::new();
        v.write_file("/f", b"one", 0o644, 0).unwrap();
        v.write_file("/f", b"two!", 0o644, 0).unwrap();
        assert_eq!(v.read_all("/f").unwrap(), b"two!");
    }

    #[test]
    fn readdir_across_mounts() {
        let mut v = Vfs::new();
        v.create_file("/shared/a", 0o666, 0).unwrap();
        v.create_file("/shared/b", 0o666, 0).unwrap();
        assert_eq!(v.readdir("/shared").unwrap(), vec!["a", "b"]);
        assert!(v.readdir("/").unwrap().contains(&"shared".to_string()));
    }

    #[test]
    fn shared_root_itself_resolves() {
        let mut v = Vfs::new();
        let s = v.resolve("/shared").unwrap();
        assert_eq!(s.mount, Mount::Shared);
        assert_eq!(v.path_of(s).unwrap(), "/shared");
    }

    #[test]
    fn locks_by_vnode() {
        let mut v = Vfs::new();
        let n = v.create_file("/shared/l", 0o666, 0).unwrap();
        v.try_lock(n, LockKind::Exclusive, 1).unwrap();
        assert_eq!(
            v.try_lock(n, LockKind::Exclusive, 2),
            Err(FsError::WouldBlock)
        );
        v.unlock_all(1);
        v.try_lock(n, LockKind::Exclusive, 2).unwrap();
    }

    #[test]
    fn unpriced_io_moves_bytes_without_moving_counters() {
        let mut v = Vfs::new();
        v.create_file("/shared/seg", 0o666, 0).unwrap();
        v.write("/shared/seg", 0, b"payload").unwrap();
        let root = v.root.stats;
        let shared = v.shared.fs.stats;
        let got = v.unpriced(|v| {
            v.write_file("/shared/.cache", b"cached", 0o666, 0).unwrap();
            v.read_all("/shared/seg").unwrap()
        });
        assert_eq!(got, b"payload");
        assert_eq!(v.root.stats, root, "unpriced I/O must not bill the root fs");
        assert_eq!(
            v.shared.fs.stats, shared,
            "unpriced I/O must not bill the shared fs"
        );
        // The bytes really landed: a priced read sees them (and bills).
        assert_eq!(v.read_all("/shared/.cache").unwrap(), b"cached");
        assert!(v.shared.fs.stats.blocks_read > shared.blocks_read);
    }

    #[test]
    fn relative_paths_rejected() {
        let mut v = Vfs::new();
        assert_eq!(v.resolve("rel"), Err(FsError::Invalid));
    }
}
