//! Decoded basic-block cache (DESIGN.md §12).
//!
//! Every retired instruction pays fetch → decode → dispatch through
//! [`crate::Cpu::step`]; for hot loops that is almost pure interpreter
//! overhead — the simulated cost model charges the same either way, but
//! host wall-time does not. Two tables memoize straight-line decoded
//! [`Instr`] runs ("basic blocks"): decoded once, executed many times via
//! [`crate::Cpu::run_block`], which keeps the *exact* semantics
//! (translation, protection, residency, monitor visibility) while
//! skipping the byte fetch and decode. A block lies within one page, so
//! its fetches go through [`crate::Bus::fetch_check`] only at entry, at
//! each load and store, and at the first fetch after one; the fetches
//! between are repeats of a checked page with no data access in between,
//! which `run_block` retires without a bus call and hands to
//! [`crate::Bus::fetch_hits`] in bulk (see the contract on
//! [`crate::Bus`]). The kernel's dispatch memo lends a few recent blocks
//! to `run_block` without re-entering the cache while
//! [`BbCache::mutation_stamp`] stands still.
//!
//! The tables split by where the bytes live:
//!
//! * A [`BbCache`] per address space holds blocks decoded from
//!   *private* text, keyed by entry PC and indexed by page. It carries
//!   no validation stamps: every event that could stale a block
//!   (unmap, mprotect, eviction, a host or guest store into executable
//!   bytes) drops the blocks on the affected pages eagerly, so whatever
//!   the map holds is current. Migration and fork leave it alone:
//!   neither changes a private byte or mapping.
//! * One [`SharedText`] per kernel holds blocks decoded from *shared
//!   file* pages, which sit at the same address in every process, so
//!   each is decoded once per boot. Blocks are keyed by `(ino, file
//!   offset)` and carry their page's file **write epoch** at decode
//!   time, which catches at the next entry any write that did not drop
//!   them at once.
//!
//! Who counts what: the one [`SharedText`] also holds the cache switch
//! and the kernel's totals, so every block entry, through either kind
//! of table, counts one hit or one build there, whichever space looked.
//! A drop is not counted: it is journaled in the drainable journal of
//! the space that saw it (a shared block, of the space whose store or
//! lookup dropped it), only when blocks actually dropped, and moves that
//! space's mutation stamp; the embedder tallies the journal.
//!
//! Mid-block self-modification rides on the same mutation stamp: a
//! guest store that could alter executable bytes moves it
//! ([`BbCache::note_text_store`]), and [`crate::Cpu::run_block`]
//! re-checks it after each store retires (inside a block only stores
//! move it), aborting the block (correct PC, nothing lost) so the
//! caller re-enters through a fresh lookup.

use crate::isa::Instr;
use std::collections::HashMap;
use std::sync::Arc;

/// The page size both tables index by. Blocks never cross a page
/// boundary, so page-granular invalidation can kill any block by its
/// entry page alone; the kernel asserts its own page size matches.
pub const PAGE_SIZE: u32 = 4096;

/// Longest decoded run a single block may hold. Blocks also never cross
/// a page boundary (see [`PAGE_SIZE`]).
pub const MAX_BLOCK_LEN: usize = 64;

/// Whole-cache flush threshold: translation caches classically flush
/// and rebuild rather than evict piecemeal.
pub const MAX_BLOCKS: usize = 8192;

/// True for instructions that end a basic block: everything that can
/// redirect control flow or trap to the kernel (TAS spin-locks trap via
/// `Syscall`, so they are covered). The terminator is *included* in its
/// block — a backward branch at the end of a hot loop makes the whole
/// loop body one block per iteration.
pub fn is_terminator(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Beq { .. }
            | Instr::Bne { .. }
            | Instr::Blez { .. }
            | Instr::Bgtz { .. }
            | Instr::Bltz { .. }
            | Instr::Bgez { .. }
            | Instr::J { .. }
            | Instr::Jal { .. }
            | Instr::Jr { .. }
            | Instr::Jalr { .. }
            | Instr::Syscall
            | Instr::Break { .. }
    )
}

/// Decodes a straight-line run from `bytes` (little-endian words,
/// starting at the block's entry PC, ending at the page boundary).
/// Stops after a terminator, before an undecodable word, or at
/// [`MAX_BLOCK_LEN`]. An empty result means the very first word does
/// not decode — the caller should fall back to `step`, which will
/// surface the exact `IllegalInstruction` fault.
pub fn decode_run(bytes: &[u8]) -> Vec<Instr> {
    let mut out = Vec::new();
    for chunk in bytes.chunks_exact(4).take(MAX_BLOCK_LEN) {
        let word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let Ok(instr) = crate::decode::decode(word) else {
            break;
        };
        let term = is_terminator(&instr);
        out.push(instr);
        if term {
            break;
        }
    }
    out
}

/// One journaled invalidation event: `blocks` dropped at `addr`
/// (page-aligned; 0 for whole-cache events) for `cause`. Only events
/// that dropped at least one block are journaled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BbInvalidation {
    pub addr: u32,
    pub blocks: u64,
    pub cause: &'static str,
}

/// A deterministic, dependency-free hasher for the cache's small
/// integer keys (entry PCs, page numbers). The default `HashMap` hasher
/// is SipHash with a per-process random seed — ~20 ns per lookup, paid
/// once per *block dispatch* on the hot path, and nondeterministic
/// across runs for no benefit here (keys are guest-controlled only in
/// the sense that the guest picks its own PCs; a worst-case probe chain
/// costs the guest, not the host). A Murmur3-style finalizer over the
/// raw key mixes well enough for page-aligned PCs.
#[derive(Clone, Copy, Default)]
struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(n);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(31) ^ n;
    }
}

type FastMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FastHasher>>;

/// A per-address-space cache of blocks decoded from private text. It
/// keeps no switch and no totals: the kernel's [`SharedText`] holds
/// both. See the module docs for why the map needs no validation
/// stamps.
#[derive(Clone, Debug, Default)]
pub struct BbCache {
    blocks: FastMap<u32, Arc<[Instr]>>,
    /// Entry PCs per virtual page number, for page-granular drops.
    by_page: FastMap<u32, Vec<u32>>,
    /// Bumped by every operation that could change what `lookup` would
    /// return for *any* pc, and by stores into executable bytes (see
    /// [`BbCache::mutation_stamp`]).
    mutation: u64,
    journal: Vec<BbInvalidation>,
}

impl BbCache {
    /// A stamp covering every mutation that could change what
    /// [`BbCache::lookup`] returns for any pc (inserts, drops, flushes)
    /// and every guest store that could alter executable bytes. A
    /// dispatcher may memoize `lookup` results with the stamp they were
    /// returned under and reuse one strictly while the stamp still
    /// equals the one memoized with it; [`crate::Cpu::run_block`] aborts
    /// its block when a store moves it.
    pub fn mutation_stamp(&self) -> u64 {
        self.mutation
    }

    /// Moves the mutation stamp for a guest store that could have
    /// altered executable bytes, whether or not it dropped a block.
    pub fn note_text_store(&mut self) {
        self.mutation += 1;
    }

    /// Looks up the block entered at `pc`.
    pub fn lookup(&self, pc: u32) -> Option<Arc<[Instr]>> {
        self.blocks.get(&pc).cloned()
    }

    /// Inserts a freshly decoded block entered at `pc`. At
    /// [`MAX_BLOCKS`] the whole cache is flushed first (journaled as
    /// `"capacity"`).
    pub fn insert(&mut self, pc: u32, code: Arc<[Instr]>) {
        if self.blocks.len() >= MAX_BLOCKS {
            self.flush(Some("capacity"));
        }
        if self.blocks.insert(pc, code).is_none() {
            self.by_page.entry(pc / PAGE_SIZE).or_default().push(pc);
        }
        self.mutation += 1;
    }

    /// Drops all blocks on `pages` virtual pages starting at `first`.
    /// Returns blocks dropped.
    pub fn invalidate_vpns(&mut self, first: u32, pages: u32, cause: &'static str) -> u64 {
        if self.blocks.is_empty() {
            return 0;
        }
        let mut dropped = 0u64;
        for vp in first..first.saturating_add(pages) {
            let Some(pcs) = self.by_page.remove(&vp) else {
                continue;
            };
            for pc in &pcs {
                self.blocks.remove(pc);
            }
            dropped += pcs.len() as u64;
        }
        if dropped > 0 {
            self.note_dropped(first * PAGE_SIZE, dropped, cause);
        }
        dropped
    }

    /// [`BbCache::invalidate_vpns`] for a single page.
    pub fn invalidate_page(&mut self, vp: u32, cause: &'static str) -> u64 {
        self.invalidate_vpns(vp, 1, cause)
    }

    /// Drops everything. With `Some(cause)` the drop is journaled (when
    /// non-empty); `None` is the silent path (teardown, like the
    /// uncounted TLB flush on the same path, and switching the cache
    /// off).
    /// Returns blocks dropped.
    pub fn flush(&mut self, cause: Option<&'static str>) -> u64 {
        let n = self.blocks.len() as u64;
        self.clear_silent();
        if n > 0 {
            if let Some(cause) = cause {
                self.note_dropped(0, n, cause);
            }
        }
        n
    }

    /// Drains the invalidation journal (in event order).
    pub fn drain_journal(&mut self) -> Vec<BbInvalidation> {
        std::mem::take(&mut self.journal)
    }

    pub fn journal_is_empty(&self) -> bool {
        self.journal.is_empty()
    }

    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Frees every table the cache holds: the owner's space is dead.
    /// Silent, like the teardown [`BbCache::flush`].
    pub fn release(&mut self) {
        self.mutation += 1;
        self.blocks = FastMap::default();
        self.by_page = FastMap::default();
    }

    fn clear_silent(&mut self) {
        self.mutation += 1;
        self.blocks.clear();
        self.by_page.clear();
    }

    /// Journals `blocks` dropped at `addr` for `cause`. The kernel also
    /// calls this for [`SharedText`] blocks this space saw drop; the
    /// drop moves the mutation stamp, so a dispatch memo never outlives
    /// a block that left the table.
    pub fn note_dropped(&mut self, addr: u32, blocks: u64, cause: &'static str) {
        self.mutation += 1;
        self.journal.push(BbInvalidation {
            addr,
            blocks,
            cause,
        });
    }
}

/// Removes `item` from `key`'s list in a page index, and the list once
/// it is empty.
fn unindex<K: std::hash::Hash + Eq>(index: &mut FastMap<K, Vec<u32>>, key: K, item: u32) {
    if let Some(list) = index.get_mut(&key) {
        list.retain(|&p| p != item);
        if list.is_empty() {
            index.remove(&key);
        }
    }
}

type EpochBlock = (u64, Arc<[Instr]>);

/// What [`SharedText::lookup`] found.
#[derive(Debug)]
pub enum SharedLookup {
    /// A block decoded at the current write epoch.
    Hit(Arc<[Instr]>),
    /// A block decoded at another epoch: it has been dropped.
    Stale,
    /// No block.
    Miss,
}

/// The kernel-wide table of blocks decoded from shared file pages,
/// keyed by `(ino, file offset)`: every process that maps the page
/// shares them. Each block carries its page's write epoch at decode
/// time. Bounded by the same [`MAX_BLOCKS`] whole-flush policy as
/// [`BbCache`]. It also holds the cache switch and the kernel's block
/// totals (see the module docs). The default table is switched on,
/// empty, and allocates nothing until the first insert.
#[derive(Debug, Default)]
pub struct SharedText {
    /// Each block with the write epoch it was decoded at.
    blocks: FastMap<(u32, u32), EpochBlock>,
    /// File offsets of the blocks per `(ino, file page)`, for page drops.
    by_page: FastMap<(u32, u32), Vec<u32>>,
    /// Block caching is switched off, for this table and every space.
    off: bool,
    /// Blocks decoded, into this table or any space's [`BbCache`].
    pub built: u64,
    /// Block entries served by a cached block, from either kind of
    /// table or from a dispatch memo (`hits + built` = entries).
    pub hits: u64,
}

impl SharedText {
    /// Switches block caching on or off. Switching off flushes this
    /// table silently; the owner flushes each space's [`BbCache`] the
    /// same way, since a cache that is not consulted is not kept exact.
    pub fn set_enabled(&mut self, on: bool) {
        self.off = !on;
        if !on {
            self.flush();
        }
    }

    pub fn enabled(&self) -> bool {
        !self.off
    }

    /// The block at `off` in file `ino` if it was decoded at `epoch`,
    /// the page's current write epoch. A block decoded at another epoch
    /// is dropped and reported [`SharedLookup::Stale`].
    pub fn lookup(&mut self, ino: u32, off: u32, epoch: u64) -> SharedLookup {
        match self.blocks.get(&(ino, off)) {
            None => SharedLookup::Miss,
            Some((at, code)) if *at == epoch => SharedLookup::Hit(code.clone()),
            Some(_) => {
                self.blocks.remove(&(ino, off));
                unindex(&mut self.by_page, (ino, off / PAGE_SIZE), off);
                SharedLookup::Stale
            }
        }
    }

    /// Inserts a block decoded from `off` in file `ino` at write epoch
    /// `epoch`, in place of any block there. At [`MAX_BLOCKS`] the whole
    /// table is flushed first; returns the blocks that flush dropped.
    pub fn insert(&mut self, ino: u32, off: u32, epoch: u64, code: Arc<[Instr]>) -> u64 {
        let flushed = (self.blocks.len() >= MAX_BLOCKS).then(|| self.flush());
        if self.blocks.insert((ino, off), (epoch, code)).is_none() {
            let page = (ino, off / PAGE_SIZE);
            self.by_page.entry(page).or_default().push(off);
        }
        flushed.unwrap_or(0)
    }

    /// Drops every block decoded from file page `page` of `ino`;
    /// returns how many.
    pub fn drop_page(&mut self, ino: u32, page: u32) -> u64 {
        let Some(offs) = self.by_page.remove(&(ino, page)) else {
            return 0;
        };
        for off in &offs {
            self.blocks.remove(&(ino, *off));
        }
        offs.len() as u64
    }

    /// Drops every block and frees the table's memory, keeping the
    /// switch and the totals; returns how many blocks it held.
    pub fn flush(&mut self) -> u64 {
        let n = self.blocks.len() as u64;
        self.blocks = FastMap::default();
        self.by_page = FastMap::default();
        n
    }

    /// The block at `off` in file `ino`, whatever its epoch.
    pub fn get(&self, ino: u32, off: u32) -> Option<&[Instr]> {
        self.blocks.get(&(ino, off)).map(|(_, code)| &code[..])
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::regs::Reg;

    fn words(instrs: &[Instr]) -> Vec<u8> {
        instrs
            .iter()
            .flat_map(|i| encode(*i).to_le_bytes())
            .collect()
    }

    fn block(n: usize) -> Arc<[Instr]> {
        vec![
            Instr::Addi {
                rt: Reg(8),
                rs: Reg(8),
                imm: 1
            };
            n
        ]
        .into()
    }

    #[test]
    fn decode_run_stops_after_terminator() {
        let bytes = words(&[
            Instr::Addi {
                rt: Reg(8),
                rs: Reg(8),
                imm: 1,
            },
            Instr::Bne {
                rs: Reg(8),
                rt: Reg(9),
                imm: 0xFFFE,
            },
            Instr::Addi {
                rt: Reg(9),
                rs: Reg(9),
                imm: 2,
            },
        ]);
        let run = decode_run(&bytes);
        assert_eq!(run.len(), 2);
        assert!(is_terminator(&run[1]));
    }

    #[test]
    fn decode_run_stops_before_undecodable_word() {
        let mut bytes = words(&[Instr::Addi {
            rt: Reg(8),
            rs: Reg(8),
            imm: 1,
        }]);
        bytes.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        assert_eq!(decode_run(&bytes).len(), 1);
        assert!(decode_run(&bytes[4..]).is_empty());
    }

    #[test]
    fn page_invalidation_drops_and_journals_only_real_work() {
        let mut bb = BbCache::default();
        assert_eq!(bb.invalidate_page(1, "unmap"), 0);
        assert!(bb.journal_is_empty(), "empty cache never journals");
        bb.insert(0x1000, block(1));
        bb.insert(0x1008, block(1));
        bb.insert(0x2000, block(1));
        assert_eq!(bb.invalidate_page(1, "unmap"), 2);
        assert!(bb.lookup(0x1000).is_none());
        assert!(bb.lookup(0x2000).is_some(), "neighbor stays");
        let j = bb.drain_journal();
        assert_eq!(j.len(), 1);
        assert_eq!((j[0].addr, j[0].blocks, j[0].cause), (0x1000, 2, "unmap"));
    }

    #[test]
    fn repeated_invalidation_of_a_page_spares_its_neighbour() {
        let mut bb = BbCache::default();
        bb.insert(0x2000, block(1));
        for _ in 0..3 {
            bb.insert(0x1000, block(1));
            let stamp = bb.mutation_stamp();
            assert_eq!(bb.invalidate_page(1, "mprotect"), 1);
            assert_ne!(bb.mutation_stamp(), stamp, "a drop moves the stamp");
            assert!(bb.lookup(0x1000).is_none(), "no block outlives its page");
            let dropped = BbInvalidation {
                addr: 0x1000,
                blocks: 1,
                cause: "mprotect",
            };
            assert_eq!(bb.drain_journal(), [dropped]);
        }
        assert!(
            bb.lookup(0x2000).is_some(),
            "the other page's block survives"
        );
        // A rebuilt block at the invalidated page hits again.
        bb.insert(0x1000, block(1));
        assert!(bb.lookup(0x1000).is_some());
    }

    #[test]
    fn silent_flush_journals_nothing() {
        let mut bb = BbCache::default();
        bb.insert(0x1000, block(1));
        assert_eq!(bb.flush(None), 1);
        assert!(bb.journal_is_empty());
    }

    #[test]
    fn switching_off_empties_the_table_and_keeps_the_totals() {
        let mut text = SharedText::default();
        assert!(text.enabled(), "on by default");
        text.insert(7, 0x2010, 0, block(1));
        (text.built, text.hits) = (1, 2);
        text.set_enabled(false);
        assert!(!text.enabled() && text.is_empty());
        assert_eq!((text.built, text.hits), (1, 2));
        text.set_enabled(true);
        assert!(matches!(text.lookup(7, 0x2010, 0), SharedLookup::Miss));
    }

    #[test]
    fn capacity_flush_is_journaled() {
        let mut bb = BbCache::default();
        for i in 0..MAX_BLOCKS {
            bb.insert(0x1000 + (i as u32) * 8, block(1));
        }
        assert_eq!(bb.len(), MAX_BLOCKS);
        bb.insert(0x9000_0000, block(1));
        assert_eq!(bb.len(), 1);
        let j = bb.drain_journal();
        assert_eq!(j.last().map(|e| e.cause), Some("capacity"));
        assert_eq!(j.iter().map(|e| e.blocks).sum::<u64>(), MAX_BLOCKS as u64);
    }

    #[test]
    fn shared_text_epoch_mismatch_drops_the_block() {
        let mut text = SharedText::default();
        assert!(matches!(text.lookup(7, 0x2010, 10), SharedLookup::Miss));
        assert_eq!(text.insert(7, 0x2010, 10, block(1)), 0);
        assert!(matches!(text.lookup(7, 0x2010, 10), SharedLookup::Hit(_)));
        assert!(matches!(text.lookup(7, 0x2010, 11), SharedLookup::Stale));
        assert!(text.is_empty(), "a stale block is dropped, not kept");
        assert!(matches!(text.lookup(7, 0x2010, 11), SharedLookup::Miss));
        assert_eq!(text.drop_page(7, 2), 0, "its page index went with it");
    }

    #[test]
    fn shared_text_unmoved_epoch_keeps_hitting() {
        let mut text = SharedText::default();
        let code = block(2);
        text.insert(7, 0x2010, 10, code.clone());
        for _ in 0..3 {
            let SharedLookup::Hit(hit) = text.lookup(7, 0x2010, 10) else {
                panic!("an unmoved epoch must hit");
            };
            assert!(Arc::ptr_eq(&hit, &code), "one decode, shared");
        }
        // Same offset in another file, or another offset in this one:
        // different blocks.
        assert!(matches!(text.lookup(8, 0x2010, 10), SharedLookup::Miss));
        assert!(matches!(text.lookup(7, 0x2014, 10), SharedLookup::Miss));
    }

    #[test]
    fn shared_text_drops_a_page_by_backing_file_page() {
        let mut text = SharedText::default();
        text.insert(7, 0x2000, 0, block(1));
        text.insert(7, 0x2ff0, 0, block(1));
        text.insert(7, 0x3000, 0, block(1));
        text.insert(9, 0x2000, 0, block(1));
        assert_eq!(text.drop_page(7, 2), 2);
        assert_eq!(text.drop_page(7, 2), 0, "dropped once");
        assert!(text.get(7, 0x2000).is_none() && text.get(7, 0x2ff0).is_none());
        assert!(text.get(7, 0x3000).is_some(), "the next page stays");
        assert!(text.get(9, 0x2000).is_some(), "the other file stays");
        assert_eq!(text.flush(), 2);
    }

    #[test]
    fn shared_text_capacity_flush_drops_everything_first() {
        let mut text = SharedText::default();
        for i in 0..MAX_BLOCKS as u32 {
            assert_eq!(text.insert(1 + i / 1024, (i % 1024) * 4, 0, block(1)), 0);
        }
        assert_eq!(text.insert(99, 0, 0, block(1)), MAX_BLOCKS as u64);
        assert!(text.get(99, 0).is_some());
        assert_eq!(text.drop_page(1, 0), 0, "the page index was flushed too");
        assert_eq!(text.flush(), 1, "only the new block survived");
        assert!(text.is_empty());
    }
}
