//! The block-write pipeline and metadata write-ahead journal.
//!
//! The paper's durability story is a boot-time scan that rebuilds the
//! name↔address table — which is only sound if the file system under the
//! scan is itself crash-consistent. This module makes hsfs crash-
//! consistent by construction: every mutation of the live (in-memory)
//! file system also flows, as an ordered stream of single-block *disk
//! writes*, onto a durable twin image. A power cut discards any suffix
//! of that stream (and, under a chaos flag, tears the block straddling
//! the cut), so torn state is a first-class, enumerable artifact: crash
//! at write `k` for every `k` and you have visited every reachable
//! on-disk state.
//!
//! Write-ahead journaling makes multi-block operations atomic. Each
//! logical operation becomes one *transaction*: its physical records are
//! appended to the on-disk journal (one block write per record, each
//! checksummed), then a commit record, then the home-location writes.
//! Replay at reboot applies, in order, every transaction whose commit
//! record landed with valid checksums — re-applying a record that
//! already reached its home location rewrites the same bytes, so replay
//! is idempotent and recovering twice equals recovering once. A torn
//! journal record fails its checksum and voids its (uncommitted)
//! transaction; a torn home block is rewritten by replay of its
//! committed record. `barrier()` flushes mapped-store dirt and
//! checkpoints (clears) the journal; data written before a completed
//! barrier is guaranteed intact after any later crash.
//!
//! None of this touches [`crate::stats::FsStats`] or draws simulated
//! time: the pipeline prices at exactly zero in crash-free runs
//! (ISSUE 8's `(crash off)` bench identity), and recovery cost is billed
//! separately by the World at reboot.

use crate::fs::{FileSystem, Ino};
use crate::tools::RepairSource;
use hfault::{FaultHandle, FaultSite};
use std::collections::{BTreeMap, BTreeSet};

/// One physical journal/home record: a state *write*, not an action.
///
/// Records are last-writer-wins and unconditional, so replaying a
/// prefix-complete journal in order onto any intermediate disk state
/// converges on the newest recorded state — the property that makes
/// replay idempotent even when some home writes already landed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Materialize (or refresh the metadata of) inode `ino`. Keeps the
    /// existing content when the slot already holds a node of the same
    /// kind — a later transaction's `WriteBlock`s must not be wiped by
    /// replaying an older create.
    SetInode {
        /// Slot to materialize.
        ino: Ino,
        /// Node kind (with the symlink target inline — it is metadata).
        kind: RecKind,
        /// Permission bits.
        mode: u16,
        /// Owning uid.
        uid: u32,
        /// Parent directory inode.
        parent: Ino,
        /// Entry name under the parent.
        name: String,
    },
    /// Free inode `ino`'s slot.
    ClearInode {
        /// Slot to free.
        ino: Ino,
    },
    /// Insert directory entry `name → ino` under `dir`.
    DirAdd {
        /// Directory inode.
        dir: Ino,
        /// Entry name.
        name: String,
        /// Target inode.
        ino: Ino,
    },
    /// Remove directory entry `name` under `dir`.
    DirRemove {
        /// Directory inode.
        dir: Ino,
        /// Entry name.
        name: String,
    },
    /// Set file `ino`'s length (truncate or zero-extend).
    SetSize {
        /// File inode.
        ino: Ino,
        /// New length in bytes.
        size: u64,
    },
    /// Set inode `ino`'s permission bits.
    SetMode {
        /// Inode.
        ino: Ino,
        /// New mode.
        mode: u16,
    },
    /// Set inode `ino`'s parent pointer and name (rename).
    SetMeta {
        /// Inode.
        ino: Ino,
        /// New parent directory.
        parent: Ino,
        /// New entry name.
        name: String,
    },
    /// Set inode `ino`'s hard-link count.
    SetNlink {
        /// Inode.
        ino: Ino,
        /// New link count.
        nlink: u32,
    },
    /// Write one block-sized (or EOF-short) image at `offset`,
    /// zero-extending the file if it is shorter than the write's end.
    WriteBlock {
        /// File inode.
        ino: Ino,
        /// Byte offset (block-aligned).
        offset: u64,
        /// Block image (≤ [`crate::BLOCK_SIZE`] bytes).
        bytes: Vec<u8>,
    },
    /// Transaction commit marker (journal-only; never a home write).
    Commit,
}

/// Node kind carried by a [`Payload::SetInode`] record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecKind {
    /// Regular file (content arrives via `WriteBlock`s).
    File,
    /// Directory (entries arrive via `DirAdd`s).
    Dir,
    /// Symbolic link with its target.
    Symlink(String),
}

impl Payload {
    /// Canonical byte encoding, checksummed into each journal record.
    fn encode(&self, out: &mut Vec<u8>) {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        match self {
            Payload::SetInode {
                ino,
                kind,
                mode,
                uid,
                parent,
                name,
            } => {
                out.push(1);
                out.extend_from_slice(&ino.to_le_bytes());
                match kind {
                    RecKind::File => out.push(0),
                    RecKind::Dir => out.push(1),
                    RecKind::Symlink(t) => {
                        out.push(2);
                        put_str(out, t);
                    }
                }
                out.extend_from_slice(&mode.to_le_bytes());
                out.extend_from_slice(&uid.to_le_bytes());
                out.extend_from_slice(&parent.to_le_bytes());
                put_str(out, name);
            }
            Payload::ClearInode { ino } => {
                out.push(2);
                out.extend_from_slice(&ino.to_le_bytes());
            }
            Payload::DirAdd { dir, name, ino } => {
                out.push(3);
                out.extend_from_slice(&dir.to_le_bytes());
                put_str(out, name);
                out.extend_from_slice(&ino.to_le_bytes());
            }
            Payload::DirRemove { dir, name } => {
                out.push(4);
                out.extend_from_slice(&dir.to_le_bytes());
                put_str(out, name);
            }
            Payload::SetSize { ino, size } => {
                out.push(5);
                out.extend_from_slice(&ino.to_le_bytes());
                out.extend_from_slice(&size.to_le_bytes());
            }
            Payload::SetMode { ino, mode } => {
                out.push(6);
                out.extend_from_slice(&ino.to_le_bytes());
                out.extend_from_slice(&mode.to_le_bytes());
            }
            Payload::SetMeta { ino, parent, name } => {
                out.push(7);
                out.extend_from_slice(&ino.to_le_bytes());
                out.extend_from_slice(&parent.to_le_bytes());
                put_str(out, name);
            }
            Payload::SetNlink { ino, nlink } => {
                out.push(8);
                out.extend_from_slice(&ino.to_le_bytes());
                out.extend_from_slice(&nlink.to_le_bytes());
            }
            Payload::WriteBlock { ino, offset, bytes } => {
                out.push(9);
                out.extend_from_slice(&ino.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            Payload::Commit => out.push(10),
        }
    }
}

/// FNV-1a 64-bit — the journal's record checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One on-disk journal record: a checksummed payload within a
/// transaction. `torn` models a record whose block write was cut short —
/// its stored checksum no longer matches its contents.
#[derive(Clone, Debug)]
pub struct Record {
    txid: u64,
    payload: Payload,
    crc: u64,
    torn: bool,
}

impl Record {
    fn sealed(txid: u64, payload: Payload) -> Record {
        let mut buf = Vec::new();
        buf.extend_from_slice(&txid.to_le_bytes());
        payload.encode(&mut buf);
        Record {
            txid,
            payload,
            crc: fnv1a(&buf),
            torn: false,
        }
    }

    /// Checksum verification, as replay performs it.
    pub fn valid(&self) -> bool {
        if self.torn {
            return false;
        }
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.txid.to_le_bytes());
        self.payload.encode(&mut buf);
        self.crc == fnv1a(&buf)
    }

    /// The record's transaction id.
    pub fn txid(&self) -> u64 {
        self.txid
    }

    /// The record's payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }
}

/// One entry in the ordered block-write stream.
#[derive(Clone, Debug)]
enum Unit {
    /// Append a record to the on-disk journal area.
    Journal(Record),
    /// Apply a record to its home location on the disk image.
    Home(Payload),
    /// Clear the journal (barrier checkpoint; one superblock write).
    Checkpoint,
}

/// The silent-corruption flavor a chaos injection applied to one home
/// block write (DESIGN.md §14). Also the shape of the deterministic
/// test-only corruption API ([`crate::fs::FileSystem::corrupt_block_for_test`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptKind {
    /// The write landed, then the medium flipped a bit under it.
    BitRot,
    /// The write was acknowledged but never reached the platter; the
    /// block keeps stale bytes while the checksum region records intent.
    LostWrite,
    /// The write landed at the wrong address: a neighboring block
    /// received the data (and its self-describing address stamp).
    MisdirectedWrite,
}

/// One corrupt block found by a verification scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorruptBlockInfo {
    /// File inode.
    pub ino: Ino,
    /// Block-aligned byte offset within the file.
    pub offset: u64,
    /// What tripped: `"checksum"` (content vs. checksum region) or
    /// `"address-stamp"` (the block's self-describing footer names a
    /// different home address — a misdirected write's signature).
    pub reason: &'static str,
}

/// What `replay_journal` did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Checksum-valid journal records scanned (including commits).
    pub records: u64,
    /// Committed transactions applied.
    pub txs: u64,
    /// Home data blocks rewritten ([`Payload::WriteBlock`]).
    pub blocks: u64,
    /// Home metadata records rewritten (everything else).
    pub meta: u64,
}

/// One home block's integrity record (DESIGN.md §14).
#[derive(Clone, Debug)]
struct Stamp {
    /// The trusted expected checksum of the block.
    crc: u64,
    /// The block's on-medium self-describing footer: the home address
    /// the data *claims* to belong to. Travels with the data, so a
    /// misdirected write carries its intended address onto the victim.
    claim: (Ino, u64),
    /// A second full copy of the block, the primary self-heal source.
    replica: Vec<u8>,
}

/// The durable side of a [`FileSystem`]: the disk image twin, the
/// on-disk journal, and the write-stream bookkeeping.
///
/// The twin is a plain `FileSystem` (no recursion: its own `durable` is
/// `None`, its fault handle unarmed, its stats ignored) that receives
/// the same deterministic record stream as the live tree — so inode
/// allocation, and therefore every segment's global address, matches
/// the live file system exactly.
#[derive(Clone, Debug)]
pub struct Durable {
    /// The disk image.
    pub(crate) disk: Box<FileSystem>,
    /// The on-disk journal area.
    pub(crate) journal: Vec<Record>,
    /// Disk writes applied so far (the crash-point enumerator's `k`).
    disk_seq: u64,
    /// Die (silently) once `disk_seq` reaches this write index.
    crash_at: Option<u64>,
    /// Tear the first discarded write when the device dies.
    tear_on_death: bool,
    /// The device died: every further write is discarded.
    dead: bool,
    /// Writes discarded since death.
    discarded: u64,
    next_txid: u64,
    /// Mapped-store dirt, captured lazily at `barrier()`.
    dirty_pages: BTreeMap<Ino, BTreeSet<u32>>,
    dirty_whole: BTreeSet<Ino>,
    /// One-entry memo de-duplicating the per-store page marks.
    last_mark: Option<(Ino, u32)>,
    /// End-to-end integrity machinery on/off (DESIGN.md §14). When off,
    /// no stamps are kept, scrub is a no-op, and the corruption sites
    /// are never consulted — the exact pre-integrity pipeline.
    integrity: bool,
    /// The integrity region: one [`Stamp`] per stamped home block.
    /// Written in the shadow of each home write (no `disk_seq` tick —
    /// it shares fate with the data write it describes).
    stamps: BTreeMap<(Ino, u64), Stamp>,
    /// Home data blocks written (write-amplification accounting).
    data_blocks_written: u64,
    /// Integrity-region blocks written (stamp + replica updates).
    integrity_blocks_written: u64,
}

impl Durable {
    /// A fresh durable state around `disk` (a volatile-stripped snapshot
    /// of the live file system at enable time). Starts with an empty
    /// integrity region: [`Durable::stamp_all`] (enable path) or
    /// [`Durable::adopt_integrity`] (power-cut re-twin) fills it.
    pub(crate) fn new(disk: FileSystem) -> Durable {
        Durable {
            disk: Box::new(disk),
            journal: Vec::new(),
            disk_seq: 0,
            crash_at: None,
            tear_on_death: false,
            dead: false,
            discarded: 0,
            next_txid: 0,
            dirty_pages: BTreeMap::new(),
            dirty_whole: BTreeSet::new(),
            last_mark: None,
            integrity: true,
            stamps: BTreeMap::new(),
            data_blocks_written: 0,
            integrity_blocks_written: 0,
        }
    }

    /// Carries the integrity state (the integrity region and write-amp
    /// counters) from a pre-power-cut twin onto this fresh one. The
    /// region is on-disk state: it describes the *expected* block
    /// contents and must survive the crash so boot verification can tell
    /// adopted corruption from legitimate data.
    pub(crate) fn adopt_integrity(&mut self, old: &mut Durable) {
        self.integrity = old.integrity;
        self.stamps = std::mem::take(&mut old.stamps);
        self.data_blocks_written = old.data_blocks_written;
        self.integrity_blocks_written = old.integrity_blocks_written;
    }

    /// Whether the integrity machinery is on.
    pub(crate) fn integrity(&self) -> bool {
        self.integrity
    }

    /// Turns the integrity machinery on (restamping the whole disk) or
    /// off (dropping the region) — the `(scrub off)` bench identity.
    pub(crate) fn set_integrity(&mut self, on: bool) {
        if on == self.integrity {
            return;
        }
        self.integrity = on;
        self.stamps.clear();
        if on {
            self.stamp_all();
        }
    }

    /// Blocks currently covered by the checksum region.
    pub(crate) fn stamped_blocks(&self) -> u64 {
        self.stamps.len() as u64
    }

    /// `(data blocks written, integrity-region blocks written)` — the
    /// write-amplification pair the e14 bench asserts on.
    pub(crate) fn write_amplification(&self) -> (u64, u64) {
        (self.data_blocks_written, self.integrity_blocks_written)
    }

    /// Disk writes applied so far.
    pub(crate) fn disk_seq(&self) -> u64 {
        self.disk_seq
    }

    /// Writes discarded after device death.
    pub(crate) fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Whether the simulated device has died.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// Schedules deterministic device death at write index `k`
    /// (`tear` additionally tears the straddling block).
    pub(crate) fn set_crash_at(&mut self, k: u64, tear: bool) {
        self.crash_at = Some(k);
        self.tear_on_death = tear;
    }

    /// Marks one file page dirty (mapped store; captured at barrier).
    pub(crate) fn mark_page(&mut self, ino: Ino, page: u32) {
        if self.last_mark == Some((ino, page)) {
            return;
        }
        self.last_mark = Some((ino, page));
        self.dirty_pages.entry(ino).or_default().insert(page);
    }

    /// Marks a whole file dirty (length-blind mapped view).
    pub(crate) fn mark_whole(&mut self, ino: Ino) {
        self.last_mark = None;
        self.dirty_whole.insert(ino);
    }

    /// Takes the accumulated mapped-store dirt (barrier capture).
    pub(crate) fn take_dirt(&mut self) -> (BTreeSet<Ino>, BTreeMap<Ino, BTreeSet<u32>>) {
        self.last_mark = None;
        (
            std::mem::take(&mut self.dirty_whole),
            std::mem::take(&mut self.dirty_pages),
        )
    }

    /// Takes one file's mapped-store dirt (targeted sync capture):
    /// whether the whole file was marked, plus any per-page marks.
    pub(crate) fn take_dirt_for(&mut self, ino: Ino) -> (bool, BTreeSet<u32>) {
        if self.last_mark.is_some_and(|(i, _)| i == ino) {
            self.last_mark = None;
        }
        (
            self.dirty_whole.remove(&ino),
            self.dirty_pages.remove(&ino).unwrap_or_default(),
        )
    }

    /// Emits one transaction: journal records, commit, home writes.
    pub(crate) fn tx(&mut self, faults: &FaultHandle, payloads: Vec<Payload>) {
        let txid = self.next_txid;
        self.next_txid += 1;
        for p in &payloads {
            let rec = Record::sealed(txid, p.clone());
            self.push_unit(faults, Unit::Journal(rec));
        }
        self.push_unit(faults, Unit::Journal(Record::sealed(txid, Payload::Commit)));
        for p in payloads {
            self.push_unit(faults, Unit::Home(p));
        }
    }

    /// Emits the barrier's journal checkpoint (one superblock write).
    pub(crate) fn checkpoint(&mut self, faults: &FaultHandle) {
        self.push_unit(faults, Unit::Checkpoint);
    }

    /// Routes one write through the device, honoring scheduled and
    /// chaos-injected death plus the tear-on-death flag.
    fn push_unit(&mut self, faults: &FaultHandle, u: Unit) {
        if !self.dead {
            let scheduled = self.crash_at.is_some_and(|k| self.disk_seq >= k);
            if scheduled || faults.should_inject(FaultSite::CrashPoint) {
                self.dead = true;
                let tear = self.tear_on_death || faults.should_inject(FaultSite::CrashTear);
                self.discarded += 1;
                if tear {
                    self.apply_torn(u);
                }
                return;
            }
        }
        if self.dead {
            self.discarded += 1;
            return;
        }
        match u {
            Unit::Journal(rec) => self.journal.push(rec),
            Unit::Home(p) => {
                // Silent-corruption chaos fires only on home data-block
                // writes, and only with the integrity machinery on (the
                // corruption model and its detector ship together, so an
                // integrity-off run draws no extra RNG and stays
                // stream-identical to the pre-integrity pipeline).
                let silent = if self.integrity && matches!(p, Payload::WriteBlock { .. }) {
                    if faults.should_inject(FaultSite::BitRot) {
                        Some(CorruptKind::BitRot)
                    } else if faults.should_inject(FaultSite::MisdirectedWrite) {
                        Some(CorruptKind::MisdirectedWrite)
                    } else if faults.should_inject(FaultSite::LostWrite) {
                        Some(CorruptKind::LostWrite)
                    } else {
                        None
                    }
                } else {
                    None
                };
                match silent {
                    None => self.apply_home(&p),
                    Some(kind) => self.apply_corrupted(&p, kind),
                }
            }
            Unit::Checkpoint => self.journal.clear(),
        }
        // Exactly one tick per accepted unit: integrity-region writes
        // share fate with their data write and never perturb the
        // crash-point enumeration axis (e13 depends on this).
        self.disk_seq += 1;
    }

    // --- integrity: the region of stamps, scrub/repair ---

    fn disk_file_len(&self, ino: Ino) -> Option<u64> {
        self.disk.file_bytes(ino).ok().map(|b| b.len() as u64)
    }

    /// The block image the write *intends* to leave on disk: the current
    /// block with `bytes` spliced over its front (a `WriteBlock` never
    /// shrinks, so any stale tail beyond the write survives).
    fn intended_block(&self, ino: Ino, offset: u64, bytes: &[u8]) -> Vec<u8> {
        let mut cur = self.disk.block(ino, offset).to_vec();
        if cur.len() < bytes.len() {
            cur.resize(bytes.len(), 0);
        }
        cur[..bytes.len()].copy_from_slice(bytes);
        cur
    }

    /// Writes one block's integrity record — checksum, on-medium claim,
    /// and replica copy — for `good` (the intended content).
    fn stamp(&mut self, ino: Ino, offset: u64, good: Vec<u8>) {
        if good.is_empty() {
            self.stamps.remove(&(ino, offset));
            return;
        }
        let stamp = Stamp {
            crc: fnv1a(&good),
            claim: (ino, offset),
            replica: good,
        };
        self.stamps.insert((ino, offset), stamp);
        self.integrity_blocks_written += 1;
    }

    /// Drops the integrity records of `ino`'s blocks at or past `from`.
    fn drop_stamps(&mut self, ino: Ino, from: u64) {
        let keys: Vec<(Ino, u64)> = self
            .stamps
            .range((ino, from)..=(ino, u64::MAX))
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            self.stamps.remove(&k);
        }
    }

    /// Re-stamps one block from the disk image (used where the operation
    /// itself legitimately changed the bytes, e.g. a resize's straddling
    /// block — blocks the operation did not touch keep their old stamps,
    /// preserving detection of any corruption already under them).
    fn restamp_from_disk(&mut self, ino: Ino, offset: u64) {
        let bytes = self.disk.block(ino, offset).to_vec();
        self.stamp(ino, offset, bytes);
    }

    /// Stamps every data block of the disk image (enable / set_integrity).
    pub(crate) fn stamp_all(&mut self) {
        if !self.integrity {
            return;
        }
        let bs = crate::BLOCK_SIZE as u64;
        let mut work = Vec::new();
        self.disk.for_each_inode(|ino, kind| {
            if matches!(kind, crate::fs::NodeKind::File) {
                work.push(ino);
            }
        });
        for ino in work {
            let len = self.disk_file_len(ino).unwrap_or(0);
            for b in 0..len.div_ceil(bs) {
                self.restamp_from_disk(ino, b * bs);
            }
        }
    }

    /// Adjusts the checksum region for a resize `old → new`: drops
    /// stamps beyond the new EOF and re-stamps only the blocks whose
    /// bytes the resize actually changed.
    fn resize_stamps(&mut self, ino: Ino, old: u64, new: u64) {
        let bs = crate::BLOCK_SIZE as u64;
        self.drop_stamps(ino, new);
        let keep = old.min(new);
        // Blocks overlapping [keep, new): the truncated straddler or the
        // zero-extended range.
        let start = if keep.is_multiple_of(bs) {
            keep
        } else {
            keep - keep % bs
        };
        let mut o = start;
        while o < new {
            self.restamp_from_disk(ino, o);
            o += bs;
        }
    }

    /// Applies one home record to the disk image *and* maintains the
    /// integrity region — the single chokepoint shared by the write
    /// pipeline and journal replay (a replayed block is re-stamped, so
    /// recovery re-blesses exactly the newest committed data).
    pub(crate) fn apply_home(&mut self, p: &Payload) {
        if matches!(p, Payload::WriteBlock { .. }) {
            self.data_blocks_written += 1;
        }
        if !self.integrity {
            self.disk.apply_phys(p);
            return;
        }
        match p {
            Payload::WriteBlock { ino, offset, bytes } => {
                let intended = self.intended_block(*ino, *offset, bytes);
                self.disk.apply_phys(p);
                if self.disk_file_len(*ino).is_some() {
                    self.stamp(*ino, *offset, intended);
                }
            }
            Payload::SetSize { ino, size } => {
                let old = self.disk_file_len(*ino).unwrap_or(0);
                self.disk.apply_phys(p);
                if self.disk_file_len(*ino).is_some() {
                    self.resize_stamps(*ino, old, *size);
                }
            }
            Payload::SetInode { ino, .. } => {
                let before = self.disk_file_len(*ino);
                self.disk.apply_phys(p);
                // A fresh materialization (or kind change) starts with
                // empty content: stamps left by a previous tenant of the
                // slot are stale. A metadata refresh keeps content and
                // stamps alike.
                if before.is_none() || self.disk_file_len(*ino) != before {
                    self.drop_stamps(*ino, 0);
                }
            }
            Payload::ClearInode { ino } => {
                self.disk.apply_phys(p);
                self.drop_stamps(*ino, 0);
            }
            _ => self.disk.apply_phys(p),
        }
    }

    /// Applies one home data-block write under an injected silent
    /// corruption. In every flavor the checksum region records the
    /// *intent* (the write was acknowledged), which is exactly what lets
    /// scrub detect the divergence later.
    fn apply_corrupted(&mut self, p: &Payload, kind: CorruptKind) {
        let Payload::WriteBlock { ino, offset, bytes } = p else {
            // invariant: push_unit only routes WriteBlock payloads here.
            return;
        };
        let (ino, offset) = (*ino, *offset);
        self.data_blocks_written += 1;
        let intended = self.intended_block(ino, offset, bytes);
        if intended.is_empty() {
            self.disk.apply_phys(p);
            return;
        }
        match kind {
            CorruptKind::BitRot => {
                self.disk.apply_phys(p);
                if self.disk_file_len(ino).is_none() {
                    return;
                }
                self.stamp(ino, offset, intended.clone());
                // Deterministic bit flip derived from the block content.
                let h = fnv1a(&intended);
                let idx = (h % intended.len() as u64) as usize;
                let rotted = intended[idx] ^ (1u8 << ((h >> 7) & 7));
                self.disk.apply_phys(&Payload::WriteBlock {
                    ino,
                    offset: offset + idx as u64,
                    bytes: vec![rotted],
                });
            }
            CorruptKind::LostWrite => {
                // Never reaches the platter: the disk keeps its stale
                // bytes while the checksum region records the intent.
                if self.disk_file_len(ino).is_some() {
                    self.stamp(ino, offset, intended);
                }
            }
            CorruptKind::MisdirectedWrite => {
                if self.disk_file_len(ino).is_none() {
                    return;
                }
                // The intent is recorded unconditionally — that is what
                // lets scrub catch the stray write even when the file
                // is still empty on disk and nothing can be spliced.
                self.stamp(ino, offset, intended.clone());
                let bs = crate::BLOCK_SIZE as u64;
                let len = self.disk_file_len(ino).unwrap_or(0);
                let victim = if offset >= bs {
                    Some(offset - bs)
                } else if offset + bs < len {
                    Some(offset + bs)
                } else {
                    None
                };
                let Some(v) = victim else {
                    // Single-block file: no neighbor to hit — the write
                    // vanishes, degenerating to a lost write.
                    return;
                };
                // The data lands on the neighbor (clamped so a stray
                // write never extends the file), carrying its
                // self-describing claim for the *intended* address.
                let room = (len.saturating_sub(v)).min(bs) as usize;
                let wlen = intended.len().min(room);
                if wlen == 0 {
                    return;
                }
                self.disk.apply_phys(&Payload::WriteBlock {
                    ino,
                    offset: v,
                    bytes: intended[..wlen].to_vec(),
                });
                // Only a stamped victim's claim is ever verified.
                if let Some(s) = self.stamps.get_mut(&(ino, v)) {
                    s.claim = (ino, offset);
                }
            }
        }
    }

    /// Non-mutating verification scan of every stamped block: claim
    /// check first (a wrong footer is a misdirected write's signature),
    /// then content checksum against the checksum region.
    pub(crate) fn verify(&self) -> Vec<CorruptBlockInfo> {
        let mut out = Vec::new();
        if !self.integrity {
            return out;
        }
        for (&(ino, offset), s) in &self.stamps {
            let reason = if s.claim != (ino, offset) {
                "address-stamp"
            } else if fnv1a(self.disk.block(ino, offset)) != s.crc {
                "checksum"
            } else {
                continue;
            };
            out.push(CorruptBlockInfo {
                ino,
                offset,
                reason,
            });
        }
        out
    }

    /// Repairs one corrupt block on the disk image: replica region
    /// first, then the newest committed journal copy. Returns the
    /// repair source, or `None` when no intact copy exists.
    pub(crate) fn repair_block(&mut self, ino: Ino, offset: u64) -> Option<RepairSource> {
        let s = self.stamps.get(&(ino, offset))?;
        let (bytes, src) = if fnv1a(&s.replica) == s.crc {
            (s.replica.clone(), RepairSource::Replica)
        } else {
            (
                self.journal_copy(ino, offset, s.crc)?,
                RepairSource::Journal,
            )
        };
        self.disk
            .apply_phys(&Payload::WriteBlock { ino, offset, bytes });
        if let Some(s) = self.stamps.get_mut(&(ino, offset)) {
            s.claim = (ino, offset);
        }
        Some(src)
    }

    /// The newest committed journal image of one block, if it matches
    /// the `expect`ed checksum. An older copy never helps: the newest
    /// one already predates the expected content (e.g. a stale tail).
    fn journal_copy(&self, ino: Ino, offset: u64, expect: u64) -> Option<Vec<u8>> {
        let committed: BTreeSet<u64> = self
            .journal
            .iter()
            .filter(|r| r.valid() && matches!(r.payload(), Payload::Commit))
            .map(Record::txid)
            .collect();
        let newest = self
            .journal
            .iter()
            .rev()
            .filter(|r| r.valid() && committed.contains(&r.txid()))
            .find_map(|r| match r.payload() {
                Payload::WriteBlock {
                    ino: ri,
                    offset: ro,
                    bytes,
                } if (*ri, *ro) == (ino, offset) => Some(bytes),
                _ => None,
            })?;
        (fnv1a(newest) == expect).then(|| newest.clone())
    }

    /// Deterministically corrupts one stamped block on the disk image
    /// (test/diagnostic use only; mirrors the chaos sites' effects).
    pub(crate) fn corrupt_for_test(&mut self, ino: Ino, offset: u64, kind: CorruptKind) -> bool {
        if !self.integrity {
            return false;
        }
        let Some(s) = self.stamps.get_mut(&(ino, offset)) else {
            return false;
        };
        let cur = self.disk.block(ino, offset);
        let bytes = match kind {
            CorruptKind::MisdirectedWrite => {
                // The block's footer claims a different home address.
                s.claim = (ino, offset + crate::BLOCK_SIZE as u64);
                return true;
            }
            _ if cur.is_empty() => return false,
            CorruptKind::BitRot => vec![cur[0] ^ 0x80],
            // Stale garbage where the write should be: invert every
            // byte (guaranteed ≠ the stamped content).
            CorruptKind::LostWrite => cur.iter().map(|b| !b).collect(),
        };
        self.disk
            .apply_phys(&Payload::WriteBlock { ino, offset, bytes });
        true
    }

    /// Corrupts one block's replica-region copy (test use only; with the
    /// journal checkpointed this makes the block uncorrectable).
    pub(crate) fn corrupt_replica_for_test(&mut self, ino: Ino, offset: u64) -> bool {
        match self.stamps.get_mut(&(ino, offset)) {
            Some(s) if !s.replica.is_empty() => {
                s.replica[0] ^= 0xFF;
                true
            }
            _ => false,
        }
    }

    /// A torn (half-landed) write: a journal record arrives with a bad
    /// checksum; a home data block lands a half prefix (replay of its
    /// committed record rewrites it); a torn metadata or checkpoint
    /// block is garbage the disk layer rejects outright, i.e. absent.
    fn apply_torn(&mut self, u: Unit) {
        match u {
            Unit::Journal(mut rec) => {
                rec.torn = true;
                self.journal.push(rec);
            }
            Unit::Home(Payload::WriteBlock { ino, offset, bytes }) => {
                let half = bytes[..bytes.len() / 2].to_vec();
                if !half.is_empty() {
                    self.disk.apply_phys(&Payload::WriteBlock {
                        ino,
                        offset,
                        bytes: half,
                    });
                }
            }
            Unit::Home(_) | Unit::Checkpoint => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksums_catch_tears() {
        let mut r = Record::sealed(
            7,
            Payload::WriteBlock {
                ino: 3,
                offset: 4096,
                bytes: vec![1, 2, 3],
            },
        );
        assert!(r.valid());
        r.torn = true;
        assert!(!r.valid());
        let mut s = Record::sealed(7, Payload::Commit);
        assert!(s.valid());
        s.txid = 8;
        assert!(!s.valid(), "payload swap breaks the checksum");
    }

    #[test]
    fn encodings_are_distinct() {
        let a = Record::sealed(1, Payload::ClearInode { ino: 2 });
        let b = Record::sealed(1, Payload::SetSize { ino: 2, size: 0 });
        assert_ne!(a.crc, b.crc);
    }
}
