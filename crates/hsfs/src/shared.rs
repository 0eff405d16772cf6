//! The shared file system: Hemlock's address-mapped 1 GB partition.
//!
//! §3 of the paper: "we have reserved a 1G-byte region between the Unix
//! heap and stack segments, and have associated this region with the
//! kernel-maintained shared file system. The file system is configured to
//! have exactly 1024 inodes, and each file is limited to a maximum of 1M
//! bytes in size. Hard links ... are prohibited, so there is a one-one
//! mapping between inodes and path names. ... For the sake of simplicity,
//! the mapping in the kernel from addresses to files employs a linear
//! lookup table. We initialize the table at boot time by scanning the
//! entire shared file system."
//!
//! Each file's virtual address is derived from its inode number:
//! `SHARED_BASE + ino * SLOT_SIZE`. The linear address→inode table is kept
//! exactly as described (and rebuilt by a boot-time scan, so it survives
//! simulated crashes). A B-tree lookup — the structure the paper plans
//! for its 64-bit successor — is priced alongside for the ablation
//! benchmark; it answers from the same table.

use crate::error::FsError;
use crate::fs::{FileSystem, FsConfig, Ino, Metadata, NodeKind};

/// Bottom of the shared region (Figure 3).
pub const SHARED_BASE: u32 = 0x3000_0000;
/// Top of the shared region (exclusive; Figure 3).
pub const SHARED_END: u32 = 0x7000_0000;
/// Inode count of the shared partition.
pub const SHARED_INODES: u32 = 1024;
/// Address slot (and maximum file) size: 1 MB.
pub const SLOT_SIZE: u32 = 1 << 20;

/// Which address→inode lookup structure to use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AddrLookup {
    /// The paper's linear table, scanned on every lookup.
    #[default]
    Linear,
    /// The B-tree the paper plans for 64-bit systems: the same answers
    /// as the linear table, at a flat ~log2(1024) probes each.
    BTree,
}

/// The shared partition: a constrained [`FileSystem`] plus the
/// kernel-maintained address table.
#[derive(Clone, Debug)]
pub struct SharedFs {
    /// The underlying file system (shared-partition limits).
    pub fs: FileSystem,
    /// Linear table: `(base_addr, ino)` pairs in insertion order — scanned
    /// sequentially, as in the paper's prototype.
    linear: Vec<(u32, Ino)>,
    /// Active lookup structure.
    pub lookup: AddrLookup,
    /// Count of address-table lookups (for the cost model).
    pub addr_lookups: u64,
    /// Total table entries visited by linear scans.
    pub addr_probe_steps: u64,
}

impl Default for SharedFs {
    fn default() -> Self {
        SharedFs::new()
    }
}

impl SharedFs {
    /// Creates an empty shared partition. The shared partition is the
    /// machine's durable disk: its block-write pipeline + write-ahead
    /// journal (DESIGN.md §13) is on from birth, so every mutation is
    /// crash-enumerable.
    pub fn new() -> SharedFs {
        let mut fs = FileSystem::new(FsConfig::shared());
        fs.enable_durability();
        SharedFs {
            fs,
            linear: Vec::new(),
            lookup: AddrLookup::Linear,
            addr_lookups: 0,
            addr_probe_steps: 0,
        }
    }

    /// The fixed virtual address of the file with inode `ino`.
    pub fn addr_of_ino(ino: Ino) -> u32 {
        SHARED_BASE + ino * SLOT_SIZE
    }

    /// True if `addr` lies within the shared region.
    pub fn contains(addr: u32) -> bool {
        (SHARED_BASE..SHARED_END).contains(&addr)
    }

    fn register(&mut self, ino: Ino) {
        self.linear.push((Self::addr_of_ino(ino), ino));
    }

    fn unregister(&mut self, ino: Ino) {
        let base = Self::addr_of_ino(ino);
        self.linear.retain(|&(b, _)| b != base);
    }

    /// Creates a file and registers its address slot.
    ///
    /// Chaos: the `SegmentAddr` injection models transient contention for
    /// a shared slot — another node of the cluster grabbed the address
    /// first — so it surfaces as `EBUSY`, a retryable condition, *before*
    /// any inode is consumed.
    pub fn create_file(&mut self, path: &str, mode: u16, uid: u32) -> Result<Ino, FsError> {
        if self
            .fs
            .faults_handle()
            .should_inject(hfault::FaultSite::SegmentAddr)
        {
            return Err(FsError::Busy);
        }
        let ino = self.fs.create_file(path, mode, uid)?;
        // Prelink snapshot records are kernel cache metadata, never
        // mapped by address — they take no slot in the address table.
        if !crate::is_prelink_path(path) {
            self.register(ino);
        }
        Ok(ino)
    }

    /// Removes a file and retires its address slot.
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        let ino = self.fs.resolve_nofollow(path)?;
        let meta = self.fs.metadata(ino)?;
        self.fs.unlink(path)?;
        if meta.kind == NodeKind::File {
            self.unregister(ino);
        }
        Ok(())
    }

    /// `stat` by path. The returned inode number doubles as the address
    /// handle: "the stat system call already returns an inode number."
    pub fn stat(&mut self, path: &str) -> Result<Metadata, FsError> {
        let ino = self.fs.resolve(path)?;
        self.fs.metadata(ino)
    }

    /// The new system call of §3: maps a file name to the segment's
    /// virtual address.
    pub fn path_to_addr(&mut self, path: &str) -> Result<u32, FsError> {
        let ino = self.fs.resolve(path)?;
        match self.fs.metadata(ino)?.kind {
            NodeKind::File => Ok(Self::addr_of_ino(ino)),
            _ => Err(FsError::IsADirectory),
        }
    }

    /// The inverse system call: returns the file (and byte offset within
    /// it) backing a shared-region address, using the active lookup
    /// structure.
    pub fn addr_to_ino(&mut self, addr: u32) -> Result<(Ino, u32), FsError> {
        if !Self::contains(addr) {
            return Err(FsError::BadAddress);
        }
        self.addr_lookups += 1;
        let slot_base = addr - (addr - SHARED_BASE) % SLOT_SIZE;
        // A base maps one inode, so its first entry is the answer.
        let hit = self.linear.iter().position(|&(base, _)| base == slot_base);
        self.addr_probe_steps += match self.lookup {
            AddrLookup::Linear => hit.map_or(self.linear.len(), |i| i + 1) as u64,
            AddrLookup::BTree => 10, // ~log2(1024) comparisons
        };
        let (_, ino) = self.linear[hit.ok_or(FsError::BadAddress)?];
        Ok((ino, addr - slot_base))
    }

    /// "We provide a new system call that returns the filename for a
    /// given inode" — here: for a given address.
    pub fn addr_to_path(&mut self, addr: u32) -> Result<(String, u32), FsError> {
        let (ino, off) = self.addr_to_ino(addr)?;
        Ok((self.fs.path_of(ino)?, off))
    }

    /// "We overload the arguments to open so that the programmer can open
    /// a file by address instead of by name, with a single system call."
    pub fn open_by_addr(&mut self, addr: u32) -> Result<Ino, FsError> {
        let (ino, _) = self.addr_to_ino(addr)?;
        self.fs.stats.opens += 1;
        Ok(ino)
    }

    /// Rebuilds the address table by scanning the file system — the
    /// boot-time initialization that lets the mapping "survive system
    /// crashes without requiring modifications to on-disk data
    /// structures."
    ///
    /// One walk in inode order, building no paths: the prelink area,
    /// which never holds table slots (see `create_file`), is recognised
    /// by each file's top-level name.
    pub fn boot_scan(&mut self) {
        let fs = &self.fs;
        self.linear.clear();
        fs.for_each_inode(|ino, kind| {
            if *kind == NodeKind::File && fs.top_name(ino) != Some(&crate::PRELINK_DIR_INNER[1..]) {
                self.linear.push((Self::addr_of_ino(ino), ino));
            }
        });
    }

    /// Number of registered address slots.
    pub fn slot_count(&self) -> usize {
        self.linear.len()
    }

    /// The inodes the address table maps, in slot order, one per base
    /// address: where a base was registered twice, its earlier entry —
    /// the one a lookup finds. Unlike [`SharedFs::addr_to_ino`], this
    /// reads the table without counting lookups or probe steps.
    pub(crate) fn table_inos(&self) -> Vec<Ino> {
        let mut entries = self.linear.clone();
        // Stable: entries sharing a base keep their table order.
        entries.sort_by_key(|&(base, _)| base);
        entries.dedup_by_key(|&mut (base, _)| base);
        entries.into_iter().map(|(_, ino)| ino).collect()
    }

    /// Retires a single table entry without touching the file system —
    /// the repair for a stale entry found by fsck.
    pub(crate) fn drop_table_entry(&mut self, ino: Ino) {
        self.unregister(ino);
    }

    /// Drops the in-kernel address table without touching the file
    /// system: the state right after a power cut, before the boot-time
    /// scan runs.
    pub fn clear_table(&mut self) {
        self.linear.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::LockKind;

    #[test]
    fn layout_constants_match_figure3() {
        // 1 GB region, 1024 slots of 1 MB.
        assert_eq!(SHARED_END - SHARED_BASE, 1 << 30);
        assert_eq!((SHARED_END - SHARED_BASE) / SLOT_SIZE, SHARED_INODES);
    }

    #[test]
    fn file_addresses_are_stable_and_unique() {
        let mut s = SharedFs::new();
        s.fs.mkdir("/rwho", 0o755, 0).unwrap();
        let a = s.create_file("/rwho/db", 0o666, 0).unwrap();
        let b = s.create_file("/other", 0o666, 0).unwrap();
        let addr_a = s.path_to_addr("/rwho/db").unwrap();
        let addr_b = s.path_to_addr("/other").unwrap();
        assert_ne!(addr_a, addr_b);
        assert_eq!(addr_a, SharedFs::addr_of_ino(a));
        assert_eq!(addr_b, SharedFs::addr_of_ino(b));
        assert!(SharedFs::contains(addr_a));
    }

    #[test]
    fn addr_round_trip_with_offset() {
        let mut s = SharedFs::new();
        s.create_file("/seg", 0o666, 0).unwrap();
        let base = s.path_to_addr("/seg").unwrap();
        let (path, off) = s.addr_to_path(base + 0x123).unwrap();
        assert_eq!(path, "/seg");
        assert_eq!(off, 0x123);
    }

    #[test]
    fn unknown_address_faults() {
        let mut s = SharedFs::new();
        assert_eq!(
            s.addr_to_ino(SHARED_BASE + 5 * SLOT_SIZE),
            Err(FsError::BadAddress)
        );
        assert_eq!(s.addr_to_ino(0x1000), Err(FsError::BadAddress));
    }

    #[test]
    fn unlink_retires_slot() {
        let mut s = SharedFs::new();
        s.create_file("/x", 0o666, 0).unwrap();
        let addr = s.path_to_addr("/x").unwrap();
        s.unlink("/x").unwrap();
        assert_eq!(s.addr_to_ino(addr), Err(FsError::BadAddress));
    }

    #[test]
    fn boot_scan_rebuilds_after_crash() {
        let mut s = SharedFs::new();
        s.fs.mkdir("/m", 0o755, 0).unwrap();
        s.create_file("/m/a", 0o666, 0).unwrap();
        s.create_file("/m/b", 0o666, 0).unwrap();
        let addr = s.path_to_addr("/m/b").unwrap();
        // Simulate a crash: the in-kernel table is lost, the "disk" survives.
        s.clear_table();
        assert_eq!(s.addr_to_ino(addr), Err(FsError::BadAddress));
        s.boot_scan();
        assert_eq!(s.addr_to_path(addr).unwrap().0, "/m/b");
        assert_eq!(s.slot_count(), 2);
    }

    /// A barrier journals every file's mapped-store dirt except swap
    /// content, and swap is exactly what boot fsck reclaims: the files
    /// under a top-level `.kswap*` entry. A user file deeper down keeps
    /// an acknowledged store across a power cut, whatever its name.
    #[test]
    fn a_barrier_journals_mapped_stores_to_every_file_but_swap() {
        let mut s = SharedFs::new();
        s.fs.mkdir("/data", 0o755, 0).unwrap();
        s.fs.mkdir("/.kswapdir", 0o755, 0).unwrap();
        let paths = [
            "/data/seg",
            "/data/.kswapnotes",
            "/.kswap0",
            "/.kswapdir/inner",
        ];
        let inos = paths.map(|path| s.create_file(path, 0o600, 0).unwrap());
        for ino in inos {
            s.fs.write_at(ino, 0, &[1u8; 4096]).unwrap();
        }
        s.fs.barrier();
        for ino in inos {
            s.fs.file_bytes_mut(ino).unwrap()[0] = 9;
        }
        s.fs.barrier();
        s.fs.power_cut();
        s.fs.replay_journal();
        let first = inos.map(|ino| s.fs.file_bytes(ino).unwrap()[0]);
        assert_eq!(first, [9, 9, 1, 1], "{paths:?}");
    }

    #[test]
    fn linear_and_btree_agree() {
        let mut s = SharedFs::new();
        for i in 0..64 {
            s.create_file(&format!("/f{i}"), 0o666, 0).unwrap();
        }
        let addr = s.path_to_addr("/f63").unwrap() + 7;
        s.lookup = AddrLookup::Linear;
        let lin = s.addr_to_ino(addr).unwrap();
        s.lookup = AddrLookup::BTree;
        let bt = s.addr_to_ino(addr).unwrap();
        assert_eq!(lin, bt);
    }

    #[test]
    fn inode_exhaustion_at_1024() {
        let mut s = SharedFs::new();
        // The root directory consumes one inode.
        let mut made = 0;
        loop {
            match s.create_file(&format!("/f{made}"), 0o666, 0) {
                Ok(_) => made += 1,
                Err(FsError::NoSpace) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(made, SHARED_INODES - 1);
    }

    #[test]
    fn slot_reuse_after_unlink_keeps_table_consistent() {
        let mut s = SharedFs::new();
        s.create_file("/a", 0o666, 0).unwrap();
        let addr_a = s.path_to_addr("/a").unwrap();
        s.unlink("/a").unwrap();
        s.create_file("/b", 0o666, 0).unwrap();
        // The slot (and hence address) is recycled for the new file.
        assert_eq!(s.path_to_addr("/b").unwrap(), addr_a);
        assert_eq!(s.addr_to_path(addr_a).unwrap().0, "/b");
        assert_eq!(s.slot_count(), 1);
    }

    #[test]
    fn normal_unix_ops_work_in_shared_fs() {
        // "All of the normal Unix file operations work in the shared file
        // system."
        let mut s = SharedFs::new();
        s.fs.mkdir_all("/tmp/presto", 0o777, 5).unwrap();
        s.fs.symlink("/templates/shared_data.o", "/tmp/presto/shared_data.o", 5)
            .unwrap();
        let ino = s.create_file("/tmp/presto/inst", 0o666, 5).unwrap();
        s.fs.write_at(ino, 0, b"data").unwrap();
        assert_eq!(s.fs.read_at(ino, 0, 4).unwrap(), b"data");
        s.fs.try_lock(ino, LockKind::Exclusive, 77).unwrap();
        assert_eq!(
            s.fs.try_lock(ino, LockKind::Exclusive, 78),
            Err(FsError::WouldBlock)
        );
        assert_eq!(
            s.fs.readlink("/tmp/presto/shared_data.o").unwrap(),
            "/templates/shared_data.o"
        );
    }

    #[test]
    fn directories_do_not_get_addresses() {
        let mut s = SharedFs::new();
        s.fs.mkdir("/d", 0o755, 0).unwrap();
        assert_eq!(s.path_to_addr("/d"), Err(FsError::IsADirectory));
        assert_eq!(s.slot_count(), 0);
    }

    #[test]
    fn probe_accounting_differs_between_structures() {
        let mut s = SharedFs::new();
        for i in 0..100 {
            s.create_file(&format!("/f{i}"), 0o666, 0).unwrap();
        }
        let last = s.path_to_addr("/f99").unwrap();
        s.lookup = AddrLookup::Linear;
        s.addr_probe_steps = 0;
        s.addr_to_ino(last).unwrap();
        let linear_steps = s.addr_probe_steps;
        s.lookup = AddrLookup::BTree;
        s.addr_probe_steps = 0;
        s.addr_to_ino(last).unwrap();
        let btree_steps = s.addr_probe_steps;
        assert!(
            linear_steps > btree_steps,
            "{linear_steps} vs {btree_steps}"
        );
    }
}
