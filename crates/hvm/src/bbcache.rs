//! Decoded basic-block table (DESIGN.md §12).
//!
//! Every retired instruction pays fetch → decode → dispatch through
//! [`crate::Cpu::step`]; for hot loops that is almost pure interpreter
//! overhead — the simulated cost model charges the same either way, but
//! host wall-time does not. One [`BlockTable`] per kernel memoizes
//! straight-line decoded [`Instr`] runs ("basic blocks"): decoded once,
//! executed many times via [`crate::Cpu::run_block`], which keeps the
//! *exact* semantics (translation, protection, residency, monitor
//! visibility) while skipping the byte fetch and decode. A block lies
//! within one page, so its fetches go through [`crate::Bus::fetch_check`]
//! only at entry, at each load and store, and at the first fetch after
//! one; the fetches between are repeats of a checked page with no data
//! access in between, which `run_block` retires without a bus call and
//! hands to [`crate::Bus::fetch_hits`] in bulk (see the contract on
//! [`crate::Bus`]). The kernel's dispatch memo lends a few recent blocks
//! to `run_block` without re-entering the table while
//! [`BlockTable::mutation_stamp`] stands still.
//!
//! Blocks are keyed by their text [`Source`] and an offset in it:
//!
//! * a *shared file* page sits at the same address in every process, so
//!   its blocks are keyed by `(ino, file offset)` and decoded once per
//!   boot for all of them;
//! * a *private* page is keyed by `(pid, pc)`.
//!
//! Each block carries its source page's **epoch** at decode time and is
//! checked against the current one at every entry: the file's write
//! epoch for a shared page, the page entry's text epoch for a private
//! one. An entry that finds its block stale drops it (journaled as
//! `stale`) and decodes the page again, so nothing needs dropping at the
//! moment bytes or mappings change. Two drops stay eager: a guest store
//! into a shared file page drops that page's blocks at once (`store-exec`),
//! since a process that maps the page elsewhere may be running them; and
//! an exiting or exec'ing process's private blocks go with its space,
//! silently. The table is bounded by a whole flush at [`MAX_BLOCKS`]
//! (`capacity`).
//!
//! Who counts what: the table also holds the cache switch and the
//! kernel's totals, so every block entry counts one hit or one build
//! there. A drop is not counted: it is journaled with the pid of the
//! process whose entry or store found it, only when blocks actually
//! dropped, and the embedder tallies the journal.
//!
//! Mid-block self-modification rides on the mutation stamp: a guest
//! store that could alter executable bytes moves it
//! ([`BlockTable::note_text_store`]), and [`crate::Cpu::run_block`]
//! re-checks it after each store retires (inside a block only stores
//! move it), aborting the block (correct PC, nothing lost) so the
//! caller re-enters through a fresh lookup.

use crate::isa::Instr;
use std::collections::HashMap;
use std::sync::Arc;

/// The page size the table indexes by. Blocks never cross a page
/// boundary, so a page-granular drop can find any block by its entry
/// page alone; the kernel asserts its own page size matches.
pub const PAGE_SIZE: u32 = 4096;

/// Longest decoded run a single block may hold. Blocks also never cross
/// a page boundary (see [`PAGE_SIZE`]).
pub const MAX_BLOCK_LEN: usize = 64;

/// Whole-table flush threshold: translation caches classically flush
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

/// One journaled drop: `blocks` dropped at `addr` (page-aligned; 0 for
/// a whole-table flush) for `cause`, found by process `pid`. Only drops
/// of at least one block are journaled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BbInvalidation {
    pub pid: u32,
    pub addr: u32,
    pub blocks: u64,
    pub cause: &'static str,
    pub journaled: Journaled,
}

/// Proof that a drop came out of a [`BlockTable`]'s journal: only the
/// table can make one, so a record built from it reports a real drop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Journaled(());

/// A deterministic, dependency-free hasher for the table's small
/// integer keys (sources, offsets, page numbers). The default `HashMap`
/// hasher is SipHash with a per-process random seed — ~20 ns per lookup,
/// paid once per *block dispatch* on the hot path, and nondeterministic
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

/// Where a block's bytes come from: the first half of its key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Source(u64);

impl Source {
    /// Shared file `ino`: its blocks are keyed by file offset.
    pub fn file(ino: u32) -> Source {
        Source(u64::from(ino))
    }

    /// The private pages of process `pid`: its blocks are keyed by pc.
    pub fn space(pid: u32) -> Source {
        Source(1 << 32 | u64::from(pid))
    }

    /// True for a shared file.
    pub fn is_file(self) -> bool {
        self.0 >> 32 == 0
    }
}

type EpochBlock = (u64, Arc<[Instr]>);

/// What [`BlockTable::lookup`] found.
#[derive(Debug)]
pub enum BlockLookup {
    /// A block decoded at the current epoch.
    Hit(Arc<[Instr]>),
    /// A block decoded at another epoch: it has been dropped.
    Stale,
    /// No block.
    Miss,
}

/// The kernel's one table of decoded blocks, keyed by `(source,
/// offset)`; each block carries its source page's epoch at decode time
/// (see the module docs). It also holds the cache switch, the kernel's
/// block totals, the mutation stamp and the drop journal. The default
/// table is switched on, empty, and allocates nothing until the first
/// insert.
#[derive(Debug, Default)]
pub struct BlockTable {
    /// Each block with the epoch it was decoded at.
    blocks: FastMap<(Source, u32), EpochBlock>,
    /// The offsets of each source's blocks by page, for page drops and
    /// source drops.
    by_page: FastMap<Source, FastMap<u32, Vec<u32>>>,
    /// See [`BlockTable::mutation_stamp`].
    mutation: u64,
    journal: Vec<BbInvalidation>,
    /// Block caching is switched off.
    off: bool,
    /// Blocks decoded.
    pub built: u64,
    /// Block entries served by a cached block, from the table or from a
    /// dispatch memo (`hits + built` = entries).
    pub hits: u64,
}

impl BlockTable {
    /// Switches block caching on or off. Switching off flushes the
    /// table silently, since a table that is not consulted is not kept
    /// checked.
    pub fn set_enabled(&mut self, on: bool) {
        self.off = !on;
        if !on {
            self.drop_all();
        }
    }

    pub fn enabled(&self) -> bool {
        !self.off
    }

    /// A stamp that moves with every block that leaves the table and
    /// with every guest store that could alter executable bytes. An
    /// insert does not move it: it changes no other key's answer. A
    /// dispatcher may memoize a process's block lookups with the stamp
    /// they were returned under and reuse one strictly while the stamp
    /// still equals the one memoized with it, as long as nothing else
    /// renews an epoch meanwhile (the kernel's memo lives within one
    /// slice between syscalls); [`crate::Cpu::run_block`] aborts its
    /// block when a store moves it.
    pub fn mutation_stamp(&self) -> u64 {
        self.mutation
    }

    /// Moves the mutation stamp for a guest store that could have
    /// altered executable bytes, whether or not it dropped a block.
    pub fn note_text_store(&mut self) {
        self.mutation += 1;
    }

    /// The block at `off` in `src` if it was decoded at `epoch`, the
    /// source page's current epoch. A block decoded at another epoch is
    /// dropped and reported [`BlockLookup::Stale`].
    pub fn lookup(&mut self, src: Source, off: u32, epoch: u64) -> BlockLookup {
        match self.blocks.get(&(src, off)) {
            None => BlockLookup::Miss,
            Some((at, code)) if *at == epoch => BlockLookup::Hit(code.clone()),
            Some(_) => {
                self.blocks.remove(&(src, off));
                // Its page keeps its other blocks; an emptied page, and
                // then an emptied source, leaves the index.
                let page = off / PAGE_SIZE;
                if let Some(pages) = self.by_page.get_mut(&src) {
                    if let Some(offs) = pages.get_mut(&page) {
                        offs.retain(|&o| o != off);
                        if offs.is_empty() {
                            pages.remove(&page);
                        }
                    }
                    if pages.is_empty() {
                        self.by_page.remove(&src);
                    }
                }
                self.mutation += 1;
                BlockLookup::Stale
            }
        }
    }

    /// Inserts a block decoded from `off` in `src` at `epoch`, in place
    /// of any block there. At [`MAX_BLOCKS`] the whole table is flushed
    /// first; returns the blocks that flush dropped.
    pub fn insert(&mut self, src: Source, off: u32, epoch: u64, code: Arc<[Instr]>) -> u64 {
        let flushed = if self.blocks.len() >= MAX_BLOCKS {
            self.drop_all()
        } else {
            0
        };
        if self.blocks.insert((src, off), (epoch, code)).is_none() {
            let pages = self.by_page.entry(src).or_default();
            pages.entry(off / PAGE_SIZE).or_default().push(off);
        }
        flushed
    }

    /// Drops every block decoded from page `page` of `src`; returns how
    /// many.
    pub fn drop_page(&mut self, src: Source, page: u32) -> u64 {
        let Some(pages) = self.by_page.get_mut(&src) else {
            return 0;
        };
        let Some(offs) = pages.remove(&page) else {
            return 0;
        };
        if pages.is_empty() {
            self.by_page.remove(&src);
        }
        self.remove(src, &offs)
    }

    /// Drops every block decoded from `src`; returns how many.
    pub fn drop_source(&mut self, src: Source) -> u64 {
        let Some(pages) = self.by_page.remove(&src) else {
            return 0;
        };
        pages.values().map(|offs| self.remove(src, offs)).sum()
    }

    fn remove(&mut self, src: Source, offs: &[u32]) -> u64 {
        for &off in offs {
            self.blocks.remove(&(src, off));
        }
        self.mutation += 1;
        offs.len() as u64
    }

    /// Drops every block and the journal of drops that describes them
    /// (the power cut: nothing is left to publish), keeping the switch
    /// and the totals; returns how many blocks it held.
    pub fn flush(&mut self) -> u64 {
        self.journal = Vec::new();
        self.drop_all()
    }

    /// Drops every block and frees its memory, keeping the journal.
    fn drop_all(&mut self) -> u64 {
        let n = self.blocks.len() as u64;
        self.blocks = FastMap::default();
        self.by_page = FastMap::default();
        self.mutation += 1;
        n
    }

    /// Journals `blocks` dropped at `addr` for `cause`, found by `pid`.
    pub fn note_dropped(&mut self, pid: u32, addr: u32, blocks: u64, cause: &'static str) {
        self.journal.push(BbInvalidation {
            pid,
            addr,
            blocks,
            cause,
            journaled: Journaled(()),
        });
    }

    /// Drains the drop journal, in occurrence order.
    pub fn drain_journal(&mut self) -> Vec<BbInvalidation> {
        std::mem::take(&mut self.journal)
    }

    /// The block at `off` in `src`, whatever its epoch.
    pub fn get(&self, src: Source, off: u32) -> Option<&[Instr]> {
        self.blocks.get(&(src, off)).map(|(_, code)| &code[..])
    }

    /// The key of every block held, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = (Source, u32)> + '_ {
        self.blocks.keys().copied()
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

    const F: Source = Source(7);

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
    fn a_file_and_a_space_with_one_number_are_two_sources() {
        let mut t = BlockTable::default();
        assert_eq!(Source::file(7), F);
        assert!(F.is_file() && !Source::space(7).is_file());
        t.insert(F, 0x2010, 0, block(1));
        t.insert(Source::space(7), 0x2010, 0, block(2));
        assert_eq!(t.get(F, 0x2010).map(<[_]>::len), Some(1));
        assert_eq!(t.get(Source::space(7), 0x2010).map(<[_]>::len), Some(2));
    }

    #[test]
    fn switching_off_empties_the_table_and_keeps_the_totals() {
        let mut t = BlockTable::default();
        assert!(t.enabled(), "on by default");
        t.insert(F, 0x2010, 0, block(1));
        (t.built, t.hits) = (1, 2);
        t.set_enabled(false);
        assert!(!t.enabled() && t.is_empty());
        assert_eq!((t.built, t.hits), (1, 2));
        t.set_enabled(true);
        assert!(matches!(t.lookup(F, 0x2010, 0), BlockLookup::Miss));
    }

    #[test]
    fn epoch_mismatch_drops_the_block_and_moves_the_stamp() {
        let mut t = BlockTable::default();
        assert!(matches!(t.lookup(F, 0x2010, 10), BlockLookup::Miss));
        assert_eq!(t.insert(F, 0x2010, 10, block(1)), 0);
        let stamp = t.mutation_stamp();
        assert!(matches!(t.lookup(F, 0x2010, 10), BlockLookup::Hit(_)));
        assert_eq!(t.mutation_stamp(), stamp, "a hit moves nothing");
        assert!(matches!(t.lookup(F, 0x2010, 11), BlockLookup::Stale));
        assert_ne!(t.mutation_stamp(), stamp, "a drop moves the stamp");
        assert!(t.is_empty(), "a stale block is dropped, not kept");
        assert!(matches!(t.lookup(F, 0x2010, 11), BlockLookup::Miss));
        assert_eq!(t.drop_page(F, 2), 0, "its page index went with it");
        assert!(t.by_page.is_empty());
    }

    #[test]
    fn unmoved_epoch_keeps_hitting() {
        let mut t = BlockTable::default();
        let code = block(2);
        t.insert(F, 0x2010, 10, code.clone());
        for _ in 0..3 {
            let BlockLookup::Hit(hit) = t.lookup(F, 0x2010, 10) else {
                panic!("an unmoved epoch must hit");
            };
            assert!(Arc::ptr_eq(&hit, &code), "one decode, shared");
        }
        // Same offset in another source, or another offset in this one:
        // different blocks.
        assert!(matches!(
            t.lookup(Source::file(8), 0x2010, 10),
            BlockLookup::Miss
        ));
        assert!(matches!(t.lookup(F, 0x2014, 10), BlockLookup::Miss));
    }

    #[test]
    fn a_page_drop_spares_the_next_page_and_other_sources() {
        let mut t = BlockTable::default();
        t.insert(F, 0x2000, 0, block(1));
        t.insert(F, 0x2ff0, 0, block(1));
        t.insert(F, 0x3000, 0, block(1));
        t.insert(Source::file(9), 0x2000, 0, block(1));
        let stamp = t.mutation_stamp();
        assert_eq!(t.drop_page(F, 2), 2);
        assert_ne!(t.mutation_stamp(), stamp, "a drop moves the stamp");
        assert_eq!(t.drop_page(F, 2), 0, "dropped once");
        assert!(t.get(F, 0x2000).is_none() && t.get(F, 0x2ff0).is_none());
        assert!(t.get(F, 0x3000).is_some(), "the next page stays");
        assert!(
            t.get(Source::file(9), 0x2000).is_some(),
            "the other file stays"
        );
        assert_eq!(t.flush(), 2);
    }

    #[test]
    fn a_source_drop_takes_every_page_of_it_and_nothing_else() {
        let mut t = BlockTable::default();
        let (p, q) = (Source::space(3), Source::space(4));
        for pc in [0x1000, 0x1008, 0x5000, 0x0040_0000] {
            t.insert(p, pc, 1, block(1));
            t.insert(q, pc, 1, block(1));
        }
        t.insert(Source::file(3), 0x1000, 1, block(1));
        assert_eq!(t.drop_source(p), 4);
        assert_eq!(t.drop_source(p), 0, "dropped once");
        assert!(t.keys().all(|(src, _)| src != p));
        assert_eq!(t.keys().count(), 5, "the other space and the file stay");
        assert_eq!(t.drop_page(q, 1), 2);
        assert_eq!(t.drop_source(q), 2, "what the page drop left");
        assert_eq!(t.keys().collect::<Vec<_>>(), [(Source::file(3), 0x1000)]);
    }

    #[test]
    fn capacity_flush_drops_everything_first() {
        let mut t = BlockTable::default();
        for i in 0..MAX_BLOCKS as u32 {
            assert_eq!(
                t.insert(Source::file(1 + i / 1024), (i % 1024) * 4, 0, block(1)),
                0
            );
        }
        assert_eq!(
            t.insert(Source::file(99), 0, 0, block(1)),
            MAX_BLOCKS as u64
        );
        assert!(t.get(Source::file(99), 0).is_some());
        assert_eq!(
            t.drop_page(Source::file(1), 0),
            0,
            "the page index was flushed too"
        );
        assert_eq!(t.flush(), 1, "only the new block survived");
        assert!(t.is_empty());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a test of the journal itself")]
    fn the_journal_keeps_occurrence_order_across_pids() {
        let mut t = BlockTable::default();
        t.note_dropped(5, 0x1000, 1, "stale");
        t.note_dropped(2, 0, 3, "capacity");
        let pids: Vec<u32> = t.drain_journal().iter().map(|ev| ev.pid).collect();
        assert_eq!(pids, [5, 2]);
        assert!(t.drain_journal().is_empty());
        t.note_dropped(5, 0, 1, "stale");
        t.flush();
        assert!(t.drain_journal().is_empty(), "a flush takes the journal");
    }
}
