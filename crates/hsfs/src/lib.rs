//! `hsfs` — simulated file systems for the Hemlock reproduction.
//!
//! Hemlock (§3, "Address Space and File System Organization") reserves a
//! 1 GB region of every address space for a dedicated *shared file
//! system*: a disk partition with exactly 1024 inodes, a 1 MB per-file
//! size cap, hard links prohibited (so path names and inodes correspond
//! one-to-one), and a kernel-maintained mapping between virtual addresses
//! and files. "All of the normal Unix file operations work in the shared
//! file system. The only thing that sets it apart is the association
//! between file names and addresses."
//!
//! This crate supplies:
//!
//! * [`FileSystem`] — a general-purpose in-memory inode file system
//!   (directories, symlinks, hard links, advisory locks, permissions,
//!   I/O accounting);
//! * [`SharedFs`] — the shared partition: the same file operations under
//!   Hemlock's limits, plus the address↔inode table (both the paper's
//!   linear table and the B-tree it plans for 64-bit systems);
//! * [`Vfs`] — a two-mount namespace gluing a root file system and the
//!   shared partition into one path space, the view the kernel gives
//!   processes.

pub mod error;
pub mod fs;
pub mod journal;
pub mod path;
pub mod shared;
pub mod stats;
pub mod tools;
pub mod vfs;

pub use error::FsError;
pub use fs::{FileSystem, FsConfig, Ino, LockKind, Metadata, NodeKind, ScrubFinding, ScrubReport};
pub use journal::{CorruptBlockInfo, CorruptKind, ReplayStats};
pub use shared::{AddrLookup, SharedFs, SHARED_BASE, SHARED_END, SHARED_INODES, SLOT_SIZE};
pub use stats::FsStats;
pub use vfs::Vfs;

/// Path prefix of the kernel-owned swap files on the shared partition,
/// which the kernel's frame pool creates as `/.kswap{N}`. Swap lives in
/// `hsfs` deliberately: swapped pages stay addressable to kernel-side
/// copies exactly like every other backing file, and `fsck` sees a
/// consistent segment table. The files are mode 0600, uid 0, so no
/// guest can map them. Their content is volatile by definition — the
/// processes whose pages they hold die with the machine — so the write
/// pipeline never journals it, and boot-time `fsck` reclaims any such
/// file left by a crash.
pub const SWAP_PATH_PREFIX: &str = "/.kswap";

/// System area on the shared partition holding prelink snapshots
/// (DESIGN.md §15) — dotted so directory listings of user segments skip
/// it, like the swap area. Unlike swap files, snapshot content is
/// *durable*: rebuilds go through the ordinary write path, so the WAL
/// journals them, crash-point enumeration covers their write units, and
/// scrub/heal verify their blocks like any other file.
pub const PRELINK_DIR_INNER: &str = "/.prelink";

/// True for the prelink snapshot area itself or anything inside it
/// (shared-partition inner paths). Snapshot records are kernel cache
/// metadata, never mapped by address, so they hold no slot in the
/// shared address table: `create` skips registration, the boot-time
/// scan skips them, and `fsck` does not expect an entry. Keeping them
/// out of the table also keeps linear-probe costs identical whether or
/// not a snapshot file exists.
pub fn is_prelink_path(inner: &str) -> bool {
    inner
        .strip_prefix(PRELINK_DIR_INNER)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// Simulated page size (bytes); shared with the kernel crate.
pub const PAGE_SIZE: u32 = 4096;

/// Simulated disk block size for I/O accounting.
pub const BLOCK_SIZE: u32 = 4096;
