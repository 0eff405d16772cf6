//! Page-granular address spaces, protections, copy-on-write, and the CPU
//! bus implementation.
//!
//! Two mapping kinds exist, matching the paper's model:
//!
//! * **Anonymous** pages are private. On `fork` the page frames are
//!   shared copy-on-write (a real kernel would do this with protection
//!   faults; we use `Arc` reference counts and count the copies so the
//!   fork benchmarks can report them).
//! * **Shared** pages are windows onto files in the shared partition:
//!   loads and stores operate directly on the file's bytes, so "a given
//!   shared object lies at the same virtual address in every address
//!   space" and stores are immediately visible to every process that
//!   mapped the segment.
//!
//! Hemlock maps not-yet-linked modules with [`Prot::NONE`] so the first
//! touch raises a protection fault into the lazy linker.
//!
//! Physical memory is *bounded*: every address space draws frames from a
//! [`FramePool`] (one per kernel, shared by all processes). Pages start
//! non-resident — anonymous pages as demand-zero [`PageKind::Zero`],
//! shared pages as windows that materialize on first touch — and the
//! kernel's clock hand evicts them back out under pressure: clean shared
//! pages are dropped and re-faulted through the full user-level fault
//! protocol, dirty shared pages are written back first, and anonymous
//! pages swap to kernel-owned files on the shared partition
//! ([`crate::layout::SWAP_FILE_PREFIX`]). First-touch materialization is
//! free (it models the eager mapping the simulator always did); only
//! pressure-induced traffic is counted and charged.

use crate::event::TraceEvent;
use crate::layout::{
    DEFAULT_FRAME_BUDGET, DEFAULT_SWAP_PAGES, PAGES_PER_SWAP_FILE, SWAP_FILE_PREFIX,
};
use crate::monitor::{AccessCtx, MonitorRef};
use crate::process::Pid;
use hsfs::{FsError, Ino, SharedFs, PAGE_SIZE, SLOT_SIZE};
use hvm::bbcache::{BbCache, SharedLookup, SharedText};
use hvm::{Access, Bus, Fault, Instr};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// One page frame of private memory.
type Frame = [u8; PAGE_SIZE as usize];

fn zero_frame() -> Arc<Frame> {
    Arc::new([0u8; PAGE_SIZE as usize])
}

/// Page protection bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prot(u8);

impl Prot {
    /// No access — the lazy-linking trap mapping.
    pub const NONE: Prot = Prot(0);
    /// Read-only.
    pub const R: Prot = Prot(1);
    /// Read/write.
    pub const RW: Prot = Prot(3);
    /// Read/execute.
    pub const RX: Prot = Prot(5);
    /// Read/write/execute.
    pub const RWX: Prot = Prot(7);

    /// True if reads are allowed.
    pub fn can_read(self) -> bool {
        self.0 & 1 != 0
    }
    /// True if writes are allowed.
    pub fn can_write(self) -> bool {
        self.0 & 2 != 0
    }
    /// True if instruction fetch is allowed.
    pub fn can_exec(self) -> bool {
        self.0 & 4 != 0
    }
    /// True if `access` is allowed.
    pub fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self.can_read(),
            Access::Write => self.can_write(),
            Access::Exec => self.can_exec(),
        }
    }
}

impl fmt::Debug for Prot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.can_read() { 'r' } else { '-' },
            if self.can_write() { 'w' } else { '-' },
            if self.can_exec() { 'x' } else { '-' }
        )
    }
}

/// What backs one mapped page.
#[derive(Clone, Debug)]
pub enum PageKind {
    /// Demand-zero private memory: mapped but never touched, so no
    /// frame is held yet. Materializes (for free) on first access.
    Zero,
    /// Resident private memory (copy-on-write across `fork`).
    Anon(Arc<Frame>),
    /// Private memory paged out to swap slot `slot` (refcounted in the
    /// pool, so post-fork COW sharing survives a trip through swap).
    Swapped { slot: u32 },
    /// Page `page` of the shared-partition file `ino`.
    Shared { ino: Ino, page: u32 },
}

/// `PageEntry` flag: the page holds a pool frame right now.
const F_RESIDENT: u8 = 1;
/// `PageEntry` flag: referenced since the clock hand last passed
/// (the second chance of second-chance eviction).
const F_REFERENCED: u8 = 2;
/// `PageEntry` flag: a guest store hit this shared page since it was
/// paged in — eviction must take a (simulated) writeback first.
const F_DIRTY: u8 = 4;
/// `PageEntry` flag: this shared page was evicted at least once, so the
/// next touch surfaces a real fault into the user-level protocol (and
/// the repage is charged), unlike the free first touch.
const F_EVICTED: u8 = 8;
/// `PageEntry` flag: repaged by a fault whose instruction has not run
/// yet — the clock hand must not take it, or a knife-edge budget
/// livelocks on fault→repage→evict→fault at one address. The kernel
/// clears the pin when it next dispatches the owning process (by then
/// the restarted instruction has had its chance to retire).
const F_PINNED: u8 = 16;

/// One page-table entry.
#[derive(Clone, Debug)]
pub struct PageEntry {
    /// Backing storage.
    pub kind: PageKind,
    /// Protection.
    pub prot: Prot,
    /// Residency/eviction state (`F_*` bits).
    flags: u8,
}

impl PageEntry {
    fn new(kind: PageKind, prot: Prot) -> PageEntry {
        let flags = match kind {
            PageKind::Anon(_) => F_RESIDENT,
            _ => 0,
        };
        PageEntry { kind, prot, flags }
    }

    /// True if the page holds a physical frame (or aliases resident
    /// file bytes) right now.
    pub fn is_resident(&self) -> bool {
        self.flags & F_RESIDENT != 0
    }

    /// True if this shared page was evicted and not yet repaged.
    pub fn was_evicted(&self) -> bool {
        self.flags & F_EVICTED != 0
    }
}

/// Errors from kernel-side address-space manipulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// The range overlaps an existing mapping.
    Overlap { addr: u32 },
    /// The range (or part of it) is not mapped.
    NotMapped { addr: u32 },
    /// Address or length not page-aligned.
    Unaligned { addr: u32 },
    /// A guest access faulted during a kernel copy.
    Fault(Fault),
    /// The backing shared file was missing or too small.
    BadBacking(FsError),
    /// Physical frame allocation failed. Real pressure never surfaces
    /// this error — the kernel evicts (and ultimately OOM-kills)
    /// instead — so it is produced only by the chaos layer's
    /// `FrameAlloc` injection at map time.
    NoFrames { addr: u32 },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Overlap { addr } => write!(f, "mapping overlaps at {addr:#010x}"),
            MemError::NotMapped { addr } => write!(f, "address {addr:#010x} not mapped"),
            MemError::Unaligned { addr } => write!(f, "unaligned mapping at {addr:#010x}"),
            MemError::Fault(fault) => write!(f, "guest fault: {fault}"),
            MemError::BadBacking(e) => write!(f, "bad backing file: {e}"),
            MemError::NoFrames { addr } => {
                write!(f, "out of physical frames mapping {addr:#010x}")
            }
        }
    }
}

/// Memory-related counters for the cost model and the fork benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Pages copied by copy-on-write.
    pub cow_copies: u64,
    /// Pages mapped over their lifetime.
    pub pages_mapped: u64,
    /// Pages unmapped.
    pub pages_unmapped: u64,
    /// Bus accesses whose translation was served by the software TLB.
    pub tlb_hits: u64,
    /// Bus accesses that walked the page table (and refilled the TLB).
    pub tlb_misses: u64,
}

/// Counter snapshot of a [`FramePool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Frame budget (pages).
    pub capacity: u64,
    /// Pages resident right now (may transiently exceed `capacity`
    /// between scheduler slices; the kernel rebalances at slice
    /// boundaries).
    pub resident: u64,
    /// High-water mark of `resident`.
    pub peak_resident: u64,
    /// Pages evicted by the clock hand.
    pub evictions: u64,
    /// Dirty shared pages written back before eviction.
    pub writebacks: u64,
    /// Anonymous pages written to the swap area.
    pub swap_outs: u64,
    /// Pages brought back in after an eviction (anonymous or shared).
    pub swap_ins: u64,
    /// Swap-area budget (pages).
    pub swap_pages: u32,
    /// Distinct swap slots currently allocated.
    pub swap_used: u32,
    /// Deterministic OOM kills taken when pool and swap were exhausted.
    pub oom_kills: u64,
}

#[derive(Debug)]
struct PoolInner {
    capacity: u64,
    resident: u64,
    peak_resident: u64,
    evictions: u64,
    writebacks: u64,
    swap_outs: u64,
    swap_ins: u64,
    oom_kills: u64,
    swap_pages: u32,
    next_slot: u32,
    free_slots: Vec<u32>,
    /// Swap-slot reference counts (a slot is shared after fork).
    slot_refs: BTreeMap<u32, u32>,
    /// Backing file for each block of `PAGES_PER_SWAP_FILE` slots,
    /// created lazily on first swap-out into that block.
    swap_files: Vec<Ino>,
    /// Pressure records since the last drain (world → trace ring).
    journal: Vec<(Pid, TraceEvent)>,
}

/// The bounded physical frame pool (DESIGN.md §10).
///
/// One pool is shared — through cheap clonable handles, like
/// [`hfault::FaultHandle`] — by every address space of a kernel, so
/// residency accounting spans processes. Each *mapping* of a resident
/// page is charged one frame (a COW-shared frame counts once per
/// address space — a documented simplification that errs toward
/// pressure). The pool never fails an allocation: materialization may
/// overshoot the budget mid-slice, and the kernel evicts back down to
/// it between slices, OOM-killing a victim when pool *and* swap are
/// exhausted.
#[derive(Clone, Debug)]
pub struct FramePool(Arc<Mutex<PoolInner>>);

impl Default for FramePool {
    fn default() -> FramePool {
        FramePool::new(DEFAULT_FRAME_BUDGET, DEFAULT_SWAP_PAGES)
    }
}

impl FramePool {
    /// A pool of `capacity` frames backed by `swap_pages` of swap.
    pub fn new(capacity: u64, swap_pages: u32) -> FramePool {
        FramePool(Arc::new(Mutex::new(PoolInner {
            capacity: capacity.max(1),
            resident: 0,
            peak_resident: 0,
            evictions: 0,
            writebacks: 0,
            swap_outs: 0,
            swap_ins: 0,
            oom_kills: 0,
            swap_pages,
            next_slot: 0,
            free_slots: Vec::new(),
            slot_refs: BTreeMap::new(),
            swap_files: Vec::new(),
            journal: Vec::new(),
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        // invariant: the pool mutex is only held for short bookkeeping
        // sections that cannot panic, so it cannot be poisoned.
        self.0.lock().expect("frame pool lock")
    }

    /// Changes the frame budget (takes effect at the next rebalance).
    pub fn set_capacity(&self, frames: u64) {
        self.lock().capacity = frames.max(1);
    }

    /// Changes the swap budget. Already-allocated slots stay valid.
    pub fn set_swap_pages(&self, pages: u32) {
        self.lock().swap_pages = pages;
    }

    /// The frame budget.
    pub fn capacity(&self) -> u64 {
        self.lock().capacity
    }

    /// Pages resident right now.
    pub fn resident(&self) -> u64 {
        self.lock().resident
    }

    /// True if more pages are resident than the budget allows.
    pub fn over_budget(&self) -> bool {
        let inner = self.lock();
        inner.resident > inner.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        let inner = self.lock();
        PoolStats {
            capacity: inner.capacity,
            resident: inner.resident,
            peak_resident: inner.peak_resident,
            evictions: inner.evictions,
            writebacks: inner.writebacks,
            swap_outs: inner.swap_outs,
            swap_ins: inner.swap_ins,
            swap_pages: inner.swap_pages,
            swap_used: inner.next_slot - inner.free_slots.len() as u32,
            oom_kills: inner.oom_kills,
        }
    }

    /// Drains the pressure journal (`PageEvicted`, `WritebackTaken`,
    /// `PageSwappedIn`), in occurrence order.
    pub fn drain_events(&self) -> Vec<(Pid, TraceEvent)> {
        std::mem::take(&mut self.lock().journal)
    }

    /// Power-cut reset: frames and swap slots are volatile, so nothing
    /// is resident and no swap slot is allocated after a crash (the
    /// swap *files* on the shared partition are reclaimed separately by
    /// boot-time fsck). Configuration (capacity, swap budget) and
    /// cumulative counters survive — they describe the machine and
    /// its history, not the lost state.
    pub fn reset_volatile(&self) {
        let mut inner = self.lock();
        inner.resident = 0;
        inner.next_slot = 0;
        inner.free_slots.clear();
        inner.slot_refs.clear();
        inner.swap_files.clear();
        inner.journal.clear();
    }

    /// Counts a deterministic OOM kill.
    pub fn count_oom_kill(&self) {
        self.lock().oom_kills += 1;
    }

    fn charge(&self, pages: u64) {
        let mut inner = self.lock();
        inner.resident += pages;
        inner.peak_resident = inner.peak_resident.max(inner.resident);
    }

    fn credit(&self, pages: u64) {
        let mut inner = self.lock();
        inner.resident = inner.resident.saturating_sub(pages);
    }

    fn count_eviction(&self, pid: Pid, addr: u32, kind: &'static str) {
        let mut inner = self.lock();
        inner.evictions += 1;
        inner
            .journal
            .push((pid, TraceEvent::PageEvicted { addr, kind }));
    }

    fn count_writeback(&self, pid: Pid, addr: u32) {
        let mut inner = self.lock();
        inner.writebacks += 1;
        inner
            .journal
            .push((pid, TraceEvent::WritebackTaken { addr }));
    }

    fn count_swap_out(&self) {
        self.lock().swap_outs += 1;
    }

    fn count_swap_in(&self, pid: Pid, addr: u32) {
        let mut inner = self.lock();
        inner.swap_ins += 1;
        inner
            .journal
            .push((pid, TraceEvent::PageSwappedIn { addr }));
    }

    /// Allocates a swap slot (refcount 1), or `None` when swap is full.
    fn alloc_swap_slot(&self) -> Option<u32> {
        let mut inner = self.lock();
        let slot = match inner.free_slots.pop() {
            Some(s) => s,
            None if inner.next_slot < inner.swap_pages => {
                let s = inner.next_slot;
                inner.next_slot += 1;
                s
            }
            None => return None,
        };
        inner.slot_refs.insert(slot, 1);
        Some(slot)
    }

    /// Returns a just-allocated slot unused (eviction aborted).
    fn release_slot(&self, slot: u32) {
        let mut inner = self.lock();
        inner.slot_refs.remove(&slot);
        inner.free_slots.push(slot);
    }

    /// One more mapping references `slot` (fork of a swapped page).
    fn slot_ref_inc(&self, slot: u32) {
        let mut inner = self.lock();
        *inner.slot_refs.entry(slot).or_insert(0) += 1;
    }

    /// One mapping dropped `slot`; frees it at refcount zero.
    fn slot_unref(&self, slot: u32) {
        let mut inner = self.lock();
        if let Some(rc) = inner.slot_refs.get_mut(&slot) {
            *rc -= 1;
            if *rc == 0 {
                inner.slot_refs.remove(&slot);
                inner.free_slots.push(slot);
            }
        }
    }

    /// The backing file and byte offset of swap slot `slot`. The file
    /// must have been created by a prior [`FramePool::ensure_swap_file`].
    fn slot_location(&self, slot: u32) -> Option<(Ino, usize)> {
        let inner = self.lock();
        let file = (slot / PAGES_PER_SWAP_FILE) as usize;
        let ino = *inner.swap_files.get(file)?;
        Some((ino, ((slot % PAGES_PER_SWAP_FILE) * PAGE_SIZE) as usize))
    }

    /// Creates (lazily) the swap file backing `slot`. Swap files live on
    /// the shared partition as mode-0600 root-owned segments, so they
    /// behave like every other backing file (and no guest can map them).
    fn ensure_swap_file(&self, shared: &mut SharedFs, slot: u32) -> Result<(), FsError> {
        let file = (slot / PAGES_PER_SWAP_FILE) as usize;
        loop {
            let next = self.lock().swap_files.len();
            if next > file {
                return Ok(());
            }
            let path = format!("{SWAP_FILE_PREFIX}{next}");
            let ino = shared.create_file(&path, 0o600, 0)?;
            shared.fs.truncate(ino, SLOT_SIZE as u64)?;
            self.lock().swap_files.push(ino);
        }
    }
}

/// Entries in the direct-mapped software TLB. Must be a power of two.
pub const TLB_ENTRIES: usize = 64;

/// Tag marking an invalid TLB entry. A virtual page number is
/// `addr / PAGE_SIZE < 2^20`, so `u32::MAX` can never be a real tag.
const TLB_INVALID: u32 = u32::MAX;

/// A direct-mapped translation cache: vpn → slab slot. Consulted by the
/// bus before the radix [`PageTable`] walk. Structural changes that create
/// or destroy translations (map/unmap/fork) flush it whole; protection
/// changes and evictions invalidate only the affected pages' entries,
/// so the rest of a hot working set stays warm across an `mprotect` or
/// a pressure pass (E6 measures the difference).
#[derive(Clone, Debug)]
struct Tlb {
    tags: [u32; TLB_ENTRIES],
    slots: [u32; TLB_ENTRIES],
}

impl Default for Tlb {
    fn default() -> Tlb {
        Tlb {
            tags: [TLB_INVALID; TLB_ENTRIES],
            slots: [0; TLB_ENTRIES],
        }
    }
}

impl Tlb {
    /// Home index of a vpn: the low bits XOR-folded with every higher
    /// group of index bits. Plain low-bit indexing is pathological for
    /// shared segments — they live in 1 MB slots, so the text pages of
    /// distinct public modules have vpns differing by multiples of 256
    /// and *all alias to one entry*; a 40-module call chain then misses
    /// on every transition. Folding keeps consecutive pages (sequential
    /// scans) conflict-free within an aligned block while spreading any
    /// power-of-two stride: segment-slot neighbors land 4 indices
    /// apart. Misses cost host time, never simulated time, so the
    /// index choice is invisible to the cost model.
    #[inline]
    fn index(vpn: u32) -> usize {
        const BITS: u32 = (TLB_ENTRIES as u32).trailing_zeros();
        let folded = vpn ^ (vpn >> BITS) ^ (vpn >> (2 * BITS)) ^ (vpn >> (3 * BITS));
        folded as usize & (TLB_ENTRIES - 1)
    }

    #[inline]
    fn lookup(&self, vpn: u32) -> Option<u32> {
        let i = Tlb::index(vpn);
        if self.tags[i] == vpn {
            Some(self.slots[i])
        } else {
            None
        }
    }

    #[inline]
    fn fill(&mut self, vpn: u32, slot: u32) {
        let i = Tlb::index(vpn);
        self.tags[i] = vpn;
        self.slots[i] = slot;
    }

    fn flush(&mut self) {
        self.tags = [TLB_INVALID; TLB_ENTRIES];
    }

    /// Drops the entry for one page, if cached. Direct mapping makes
    /// this a single compare: only `vpn`'s home index can hold it.
    #[inline]
    fn invalidate(&mut self, vpn: u32) {
        let i = Tlb::index(vpn);
        if self.tags[i] == vpn {
            self.tags[i] = TLB_INVALID;
        }
    }

    /// Invalidates a contiguous range of pages. Falls back to a whole
    /// flush once the range covers every index anyway.
    fn invalidate_range(&mut self, first_vpn: u32, pages: u32) {
        if pages as usize >= TLB_ENTRIES {
            self.flush();
            return;
        }
        for p in first_vpn..first_vpn + pages {
            self.invalidate(p);
        }
    }
}

/// Pages covered by one [`PageTable`] leaf: 4 MiB of address space.
const LEAF_PAGES: usize = 1024;

/// Shift from a vpn to its [`PageTable`] directory index.
const LEAF_SHIFT: u32 = LEAF_PAGES.trailing_zeros();

/// A [`PageTable`] leaf entry with no page mapped.
const NO_SLOT: u32 = u32::MAX;

/// One 4 MiB span of a [`PageTable`]: a slab slot per page, and how
/// many of them are mapped.
#[derive(Clone, Debug)]
struct Leaf {
    live: u32,
    slots: [u32; LEAF_PAGES],
}

/// A two-level radix page table: vpn → slab slot.
///
/// The directory holds one optional leaf per 4 MiB span. A leaf is
/// allocated by the first mapping inside it and freed with its last,
/// and the directory ends at the highest leaf in use. A lookup is two
/// indexed loads, and mapping a range costs one store per page, so a
/// process pays for its mapped spans rather than a tree per page.
#[derive(Clone, Debug, Default)]
struct PageTable {
    dir: Vec<Option<Box<Leaf>>>,
    len: usize,
}

impl PageTable {
    /// Directory index and leaf index of a vpn.
    #[inline]
    fn split(vpn: u32) -> (usize, usize) {
        (
            (vpn >> LEAF_SHIFT) as usize,
            vpn as usize & (LEAF_PAGES - 1),
        )
    }

    /// The slot mapped at `vpn`, if any.
    #[inline]
    fn get(&self, vpn: u32) -> Option<u32> {
        let (d, i) = Self::split(vpn);
        let slot = self.dir.get(d)?.as_ref()?.slots[i];
        (slot != NO_SLOT).then_some(slot)
    }

    /// Number of mapped pages.
    fn len(&self) -> usize {
        self.len
    }

    /// Maps the unmapped `vpn` to `slot`.
    fn insert(&mut self, vpn: u32, slot: u32) {
        let (d, i) = Self::split(vpn);
        if d >= self.dir.len() {
            self.dir.resize_with(d + 1, || None);
        }
        let leaf = self.dir[d].get_or_insert_with(|| {
            Box::new(Leaf {
                live: 0,
                slots: [NO_SLOT; LEAF_PAGES],
            })
        });
        debug_assert_eq!(leaf.slots[i], NO_SLOT, "insert over a live mapping");
        leaf.slots[i] = slot;
        leaf.live += 1;
        self.len += 1;
    }

    /// Unmaps `vpn`, returning its slot. Frees the leaf with its last
    /// mapping and trims the directory to the highest leaf still used.
    fn remove(&mut self, vpn: u32) -> Option<u32> {
        let (d, i) = Self::split(vpn);
        let leaf = self.dir.get_mut(d)?.as_mut()?;
        let slot = std::mem::replace(&mut leaf.slots[i], NO_SLOT);
        if slot == NO_SLOT {
            return None;
        }
        leaf.live -= 1;
        self.len -= 1;
        if leaf.live == 0 {
            self.dir[d] = None;
            while matches!(self.dir.last(), Some(None)) {
                self.dir.pop();
            }
        }
        Some(slot)
    }

    /// Unmaps everything and frees every leaf.
    fn clear(&mut self) {
        self.dir = Vec::new();
        self.len = 0;
    }

    /// Mapped `(vpn, slot)` pairs with `from <= vpn < to`, in vpn order.
    /// Absent leaves are skipped whole.
    fn range(&self, from: u32, to: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let end = (to as usize).min(self.dir.len() * LEAF_PAGES);
        let start = (from as usize).min(end);
        (start / LEAF_PAGES..end.div_ceil(LEAF_PAGES))
            .filter_map(|d| Some((d, self.dir[d].as_deref()?)))
            .flat_map(move |(d, leaf)| {
                let first = d * LEAF_PAGES;
                let lo = start.max(first) - first;
                let hi = end.min(first + LEAF_PAGES) - first;
                leaf.slots[lo..hi]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &slot)| slot != NO_SLOT)
                    .map(move |(i, &slot)| ((first + lo + i) as u32, slot))
            })
    }

    /// The lowest mapped vpn in `[from, to)`.
    fn next_mapped(&self, from: u32, to: u32) -> Option<u32> {
        self.range(from, to).next().map(|(vpn, _)| vpn)
    }
}

/// A per-process address space.
///
/// Page entries live in a slab (`entries` + `free`) so a slot index,
/// once handed out, stays valid until that page is unmapped; the radix
/// `pages` table maps virtual page numbers to slots. The software TLB
/// caches recent vpn→slot translations for the bus hot path.
///
/// invariant: every slot reachable from `pages` (or cached in the TLB,
/// which is flushed/invalidated on unmap) holds `Some` entry — unmap is
/// the only operation that clears a slot, and it removes the `pages`
/// mapping in the same call. The `expect("live slot")` lookups below
/// all lean on this.
#[derive(Debug, Default)]
pub struct AddressSpace {
    pages: PageTable,
    entries: Vec<Option<PageEntry>>,
    free: Vec<u32>,
    tlb: Tlb,
    /// Counters (cow copies count against the space that triggered them).
    pub stats: MemStats,
    /// Chaos hook: unarmed (inert) unless a fault plan is installed.
    faults: hfault::FaultHandle,
    /// The frame pool this space draws from. A fresh space gets a
    /// private default pool; the kernel re-attaches its shared pool at
    /// spawn/exec, before anything is mapped.
    pool: FramePool,
    /// Pages of this space currently resident (charged to the pool).
    resident: u64,
    /// Pages carrying `F_PINNED` (skips the unpin sweep when zero).
    pinned: u32,
    /// Blocks decoded from this space's private text (DESIGN.md §12).
    /// Disabled until the kernel configures it; invalidated in
    /// lock-step with the TLB.
    bb: BbCache,
}

// The block caches index by this geometry; keep them in sync.
const _: () = assert!(PAGE_SIZE == hvm::bbcache::PAGE_SIZE);

impl Clone for AddressSpace {
    fn clone(&self) -> AddressSpace {
        // Each space is charged for its own resident mappings (a COW
        // frame counts once per space — a simplification that errs
        // toward pressure), and swapped pages share their slot through
        // the pool's refcount.
        self.pool.charge(self.resident);
        for entry in self.entries.iter().flatten() {
            if let PageKind::Swapped { slot } = entry.kind {
                self.pool.slot_ref_inc(slot);
            }
        }
        AddressSpace {
            pages: self.pages.clone(),
            entries: self.entries.clone(),
            free: self.free.clone(),
            tlb: self.tlb.clone(),
            stats: self.stats,
            faults: self.faults.clone(),
            pool: self.pool.clone(),
            resident: self.resident,
            pinned: self.pinned,
            // Like the TLB on fork: the clone starts with a cold cache.
            bb: self.bb.fresh_like(),
        }
    }
}

impl Drop for AddressSpace {
    fn drop(&mut self) {
        self.surrender();
    }
}

/// Outcome of one [`AddressSpace::evict_page`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EvictOutcome {
    /// The page was evicted and its frame returned to the pool.
    Evicted,
    /// An anonymous page had nowhere to go: the swap area is full.
    SwapFull,
    /// The chaos layer failed the swap/writeback I/O; the page stays
    /// resident and the clock hand moves on.
    Injected,
    /// The vpn was not a resident page (stale clock hand).
    NotResident,
}

/// Outcome of an [`AddressSpace::repage_shared`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepageOutcome {
    /// The evicted shared page is resident again.
    Repaged,
    /// The address is not an evicted shared page — not this fault.
    NotEvicted,
    /// The chaos layer failed the backing read.
    Injected,
}

fn vpn(addr: u32) -> u32 {
    addr / PAGE_SIZE
}

/// Decodes the block at the start of `bytes`; `None` when its first word
/// does not decode.
fn decode_block(bytes: &[u8]) -> Option<Arc<[Instr]>> {
    let code = hvm::bbcache::decode_run(bytes);
    (!code.is_empty()).then(|| code.into())
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace::default()
    }

    /// Installs a fault-injection handle (chaos testing; see DESIGN.md §8).
    pub fn arm_faults(&mut self, faults: hfault::FaultHandle) {
        self.faults = faults;
    }

    /// Attaches the kernel's shared frame pool. Must happen before any
    /// page becomes resident (spawn/exec attach into an empty space).
    pub fn attach_pool(&mut self, pool: &FramePool) {
        debug_assert_eq!(self.resident, 0, "attach_pool before first touch");
        self.pool = pool.clone();
    }

    /// The pool this space draws from.
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    /// Pages of this space resident right now.
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Returns every pool charge held by this space. Idempotent: the
    /// page table is cleared, so `Drop` (which calls this too) finds
    /// nothing left to credit.
    fn surrender(&mut self) {
        self.pool.credit(self.resident);
        self.resident = 0;
        for entry in self.entries.iter().flatten() {
            if let PageKind::Swapped { slot } = entry.kind {
                self.pool.slot_unref(slot);
            }
        }
        let mapped = self.pages.len() as u64;
        self.pages.clear();
        self.entries.clear();
        self.free.clear();
        self.tlb.flush();
        // Teardown drops blocks silently, like the uncounted TLB flush
        // above (lazy ASID-style reuse; nothing will run here again).
        self.bb.flush(None);
        self.pinned = 0;
        self.stats.pages_unmapped += mapped;
    }

    /// Frees everything a dead process's space holds: pool charges,
    /// the page-table allocations, and the block cache, which is left
    /// disabled. Only the counters survive, for the reap to fold in.
    pub fn release_all(&mut self) {
        self.surrender();
        self.entries = Vec::new();
        self.free = Vec::new();
        self.bb.release();
    }

    /// Restores an evicted shared page after its fault bounced through
    /// the user-level fault→handler→map→restart protocol. Page-granular:
    /// no remap, the existing entry just becomes resident again.
    pub fn repage_shared(&mut self, pid: u32, addr: u32) -> RepageOutcome {
        let Some(slot) = self.pages.get(vpn(addr)) else {
            return RepageOutcome::NotEvicted;
        };
        let AddressSpace {
            entries,
            faults,
            pool,
            resident,
            pinned,
            ..
        } = self;
        let Some(entry) = entries[slot as usize].as_mut() else {
            return RepageOutcome::NotEvicted;
        };
        if !matches!(entry.kind, PageKind::Shared { .. }) || entry.flags & F_EVICTED == 0 {
            return RepageOutcome::NotEvicted;
        }
        if faults.should_inject(hfault::FaultSite::SwapRead) {
            return RepageOutcome::Injected;
        }
        // Pinned until the owner is dispatched: the faulting instruction
        // must retire once before the clock hand may take this page
        // again, or a knife-edge budget never makes progress.
        entry.flags = (entry.flags & !(F_EVICTED | F_DIRTY)) | F_RESIDENT | F_REFERENCED | F_PINNED;
        *pinned += 1;
        *resident += 1;
        pool.charge(1);
        pool.count_swap_in(pid, addr & !(PAGE_SIZE - 1));
        RepageOutcome::Repaged
    }

    /// Pages currently pinned by fault-time repage.
    pub(crate) fn pinned_pages(&self) -> u32 {
        self.pinned
    }

    /// Clears every repage pin (the kernel calls this when dispatching
    /// the owning process: the restarted instructions have run).
    pub(crate) fn unpin_all(&mut self) {
        if self.pinned == 0 {
            return;
        }
        for entry in self.entries.iter_mut().flatten() {
            entry.flags &= !F_PINNED;
        }
        self.pinned = 0;
    }

    /// One forward sweep of the clock hand over this space: starting at
    /// `from_vpn`, clears referenced bits as second chances and returns
    /// the first unreferenced resident vpn, or `None` when the sweep
    /// falls off the end (the kernel wraps by moving to the next
    /// process, then back around). Deliberately non-wrapping so a
    /// caller skipping unevictable pages (`from = vpn + 1`) always
    /// terminates.
    pub(crate) fn clock_scan(&mut self, from_vpn: u32) -> Option<u32> {
        let AddressSpace { pages, entries, .. } = self;
        for (vp, slot) in pages.range(from_vpn, u32::MAX) {
            let entry = entries[slot as usize].as_mut().expect("live slot");
            if entry.flags & F_RESIDENT == 0 {
                continue;
            }
            // A repage pin also keeps its reference bit: the page's
            // second chance starts after the owner runs, not before.
            if entry.flags & F_PINNED != 0 {
                continue;
            }
            if entry.flags & F_REFERENCED != 0 {
                entry.flags &= !F_REFERENCED;
                continue;
            }
            return Some(vp);
        }
        None
    }

    /// Evicts the resident page at `page_vpn`, returning its frame to
    /// the pool. Shared pages drop to `F_EVICTED` (dirty ones take a
    /// simulated writeback first — the bytes already alias the backing
    /// file, so durability is free; the writeback is the counted disk
    /// cost). Anonymous pages are written to a swap slot.
    pub(crate) fn evict_page(
        &mut self,
        pid: u32,
        page_vpn: u32,
        shared: &mut SharedFs,
    ) -> EvictOutcome {
        let addr = page_vpn * PAGE_SIZE;
        let Some(slot) = self.pages.get(page_vpn) else {
            return EvictOutcome::NotResident;
        };
        let AddressSpace {
            entries,
            tlb,
            faults,
            pool,
            resident,
            bb,
            ..
        } = self;
        let entry = entries[slot as usize].as_mut().expect("live slot");
        if entry.flags & F_RESIDENT == 0 || entry.flags & F_PINNED != 0 {
            return EvictOutcome::NotResident;
        }
        match &entry.kind {
            PageKind::Shared { .. } => {
                let dirty = entry.flags & F_DIRTY != 0;
                if dirty {
                    if faults.should_inject(hfault::FaultSite::SwapWrite) {
                        return EvictOutcome::Injected;
                    }
                    pool.count_writeback(pid, addr);
                }
                entry.flags = (entry.flags & !(F_RESIDENT | F_REFERENCED | F_DIRTY)) | F_EVICTED;
                pool.count_eviction(
                    pid,
                    addr,
                    if dirty {
                        "shared-dirty"
                    } else {
                        "shared-clean"
                    },
                );
            }
            PageKind::Anon(frame) => {
                let Some(swap_slot) = pool.alloc_swap_slot() else {
                    return EvictOutcome::SwapFull;
                };
                if pool.ensure_swap_file(shared, swap_slot).is_err() {
                    pool.release_slot(swap_slot);
                    return EvictOutcome::SwapFull;
                }
                if faults.should_inject(hfault::FaultSite::SwapWrite) {
                    pool.release_slot(swap_slot);
                    return EvictOutcome::Injected;
                }
                // invariant: `ensure_swap_file` above either created the
                // backing file for this slot or we bailed with SwapFull.
                let (ino, off) = pool.slot_location(swap_slot).expect("swap file ensured");
                let bytes = frame.clone();
                match shared.fs.file_bytes_mut(ino) {
                    Ok(file) => file[off..off + PAGE_SIZE as usize].copy_from_slice(&bytes[..]),
                    Err(_) => {
                        pool.release_slot(swap_slot);
                        return EvictOutcome::SwapFull;
                    }
                }
                entry.kind = PageKind::Swapped { slot: swap_slot };
                entry.flags &= !(F_RESIDENT | F_REFERENCED | F_DIRTY);
                pool.count_swap_out();
                pool.count_eviction(pid, addr, "anon");
            }
            PageKind::Zero | PageKind::Swapped { .. } => return EvictOutcome::NotResident,
        }
        tlb.invalidate(page_vpn);
        bb.invalidate_page(page_vpn, "evict");
        *resident -= 1;
        pool.credit(1);
        EvictOutcome::Evicted
    }

    /// Number of mapped pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Looks up the entry covering `addr`.
    pub fn entry(&self, addr: u32) -> Option<&PageEntry> {
        let slot = self.pages.get(vpn(addr))?;
        self.entries[slot as usize].as_ref()
    }

    /// Stores `entry` in a free slab slot and returns the slot index.
    fn alloc_slot(&mut self, entry: PageEntry) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = Some(entry);
                slot
            }
            None => {
                self.entries.push(Some(entry));
                (self.entries.len() - 1) as u32
            }
        }
    }

    /// The slab entry for a mapped vpn (must exist).
    fn entry_at_slot_mut(&mut self, slot: u32) -> &mut PageEntry {
        self.entries[slot as usize].as_mut().expect("live slot")
    }

    /// True if `addr`'s translation is currently cached in the TLB
    /// (probing does not touch the hit/miss counters).
    pub fn tlb_cached(&self, addr: u32) -> bool {
        self.tlb.lookup(vpn(addr)).is_some()
    }

    /// Empties the TLB because the owning process migrated to a
    /// different simulated CPU: translations cached on the old CPU are
    /// unreachable there, and the new CPU starts cold. Decoded blocks
    /// stay: a migration changes no private byte or mapping.
    pub(crate) fn tlb_migrate_flush(&mut self) {
        self.tlb.flush();
    }

    /// The decoded basic-block cache (counters, journal, test hooks).
    pub fn bbcache(&self) -> &BbCache {
        &self.bb
    }

    /// Mutable access to the block cache (kernel configuration, journal
    /// drains, and tests).
    pub fn bbcache_mut(&mut self) -> &mut BbCache {
        &mut self.bb
    }

    fn check_range(addr: u32, len: u32) -> Result<(u32, u32), MemError> {
        if !addr.is_multiple_of(PAGE_SIZE) || len == 0 {
            return Err(MemError::Unaligned { addr });
        }
        let pages = len.div_ceil(PAGE_SIZE);
        Ok((vpn(addr), pages))
    }

    /// Maps `len` bytes of zeroed private memory at `addr`.
    pub fn map_anon(&mut self, addr: u32, len: u32, prot: Prot) -> Result<(), MemError> {
        let (first, pages) = Self::check_range(addr, len)?;
        for p in first..first + pages {
            if self.pages.get(p).is_some() {
                return Err(MemError::Overlap {
                    addr: p * PAGE_SIZE,
                });
            }
        }
        if self.faults.should_inject(hfault::FaultSite::FrameAlloc) {
            return Err(MemError::NoFrames { addr });
        }
        for p in first..first + pages {
            // Demand-zero: no frame until first touch.
            let slot = self.alloc_slot(PageEntry::new(PageKind::Zero, prot));
            self.pages.insert(p, slot);
        }
        self.stats.pages_mapped += pages as u64;
        self.tlb.flush();
        // No block to drop: the range was unmapped, and `unmap` dropped
        // every block on it.
        Ok(())
    }

    /// Maps `len` bytes at `addr` backed by shared file `ino`, starting at
    /// file page `file_page`.
    pub fn map_shared(
        &mut self,
        addr: u32,
        len: u32,
        prot: Prot,
        ino: Ino,
        file_page: u32,
    ) -> Result<(), MemError> {
        let (first, pages) = Self::check_range(addr, len)?;
        for p in first..first + pages {
            if self.pages.get(p).is_some() {
                return Err(MemError::Overlap {
                    addr: p * PAGE_SIZE,
                });
            }
        }
        if self.faults.should_inject(hfault::FaultSite::FrameAlloc) {
            return Err(MemError::NoFrames { addr });
        }
        for (i, p) in (first..first + pages).enumerate() {
            // Shared pages alias file bytes; residency starts on first
            // touch (free) and is dropped/restored by eviction.
            let slot = self.alloc_slot(PageEntry::new(
                PageKind::Shared {
                    ino,
                    page: file_page + i as u32,
                },
                prot,
            ));
            self.pages.insert(p, slot);
        }
        self.stats.pages_mapped += pages as u64;
        self.tlb.flush();
        // No block to drop, as in `map_anon`.
        Ok(())
    }

    /// Unmaps `len` bytes at `addr` (all pages must be mapped).
    pub fn unmap(&mut self, addr: u32, len: u32) -> Result<(), MemError> {
        let (first, pages) = Self::check_range(addr, len)?;
        for p in first..first + pages {
            if self.pages.get(p).is_none() {
                return Err(MemError::NotMapped {
                    addr: p * PAGE_SIZE,
                });
            }
        }
        for p in first..first + pages {
            let slot = self.pages.remove(p).expect("checked");
            if let Some(entry) = self.entries[slot as usize].take() {
                if entry.is_resident() {
                    self.resident -= 1;
                    self.pool.credit(1);
                }
                if let PageKind::Swapped { slot } = entry.kind {
                    self.pool.slot_unref(slot);
                }
            }
            self.free.push(slot);
        }
        self.stats.pages_unmapped += pages as u64;
        self.tlb.flush();
        self.bb.invalidate_vpns(first, pages, "unmap");
        Ok(())
    }

    /// Changes protection on `len` bytes at `addr`.
    pub fn set_prot(&mut self, addr: u32, len: u32, prot: Prot) -> Result<(), MemError> {
        let (first, pages) = Self::check_range(addr, len)?;
        for p in first..first + pages {
            if self.pages.get(p).is_none() {
                return Err(MemError::NotMapped {
                    addr: p * PAGE_SIZE,
                });
            }
        }
        for p in first..first + pages {
            let slot = self.pages.get(p).expect("checked");
            self.entry_at_slot_mut(slot).prot = prot;
        }
        self.tlb.invalidate_range(first, pages);
        self.bb.invalidate_vpns(first, pages, "mprotect");
        Ok(())
    }

    /// Finds `len` bytes of unmapped space in `[lo, hi)`, page-aligned.
    pub fn find_free(&self, len: u32, lo: u32, hi: u32) -> Option<u32> {
        let pages = len.div_ceil(PAGE_SIZE);
        let mut candidate = vpn(lo.div_ceil(PAGE_SIZE) * PAGE_SIZE);
        let limit = vpn(hi);
        while candidate + pages <= limit {
            match self.pages.next_mapped(candidate, candidate + pages) {
                Some(p) => candidate = p + 1,
                None => return Some(candidate * PAGE_SIZE),
            }
        }
        None
    }

    /// The clone used by `fork`: anonymous frames become shared
    /// copy-on-write; shared-file pages are carried over (both processes
    /// see the single segment copy, per §5 of the paper).
    ///
    /// Both TLBs start cold: the parent's is flushed (its cached
    /// translations predate the COW sharing) and the child's is empty.
    /// The parent keeps its decoded blocks: COW keeps its bytes, and a
    /// later store into its text drops the page like any other store.
    /// The child's block cache starts cold via `Clone`.
    pub fn fork_clone(&mut self) -> AddressSpace {
        self.tlb.flush();
        // `Clone` charges the pool for the child's resident mappings and
        // bumps swap-slot refcounts; the child also draws from the same
        // injection stream, so chaos decisions stay a single
        // deterministic sequence across fork.
        let mut child = self.clone();
        child.tlb = Tlb::default();
        child.stats = MemStats::default();
        child
    }

    /// Kernel-side read of guest memory (ignores protection — the kernel
    /// may read anything mapped).
    pub fn read_bytes(
        &self,
        shared: &SharedFs,
        addr: u32,
        len: usize,
    ) -> Result<Vec<u8>, MemError> {
        let mut out = Vec::with_capacity(len);
        let mut a = addr;
        while out.len() < len {
            let entry = self.entry(a).ok_or(MemError::NotMapped { addr: a })?;
            let off = (a % PAGE_SIZE) as usize;
            let take = ((PAGE_SIZE as usize) - off).min(len - out.len());
            match &entry.kind {
                // Untouched demand-zero memory reads as zeros without
                // materializing a frame.
                PageKind::Zero => {
                    let end = out.len() + take;
                    out.resize(end, 0u8);
                }
                PageKind::Anon(frame) => out.extend_from_slice(&frame[off..off + take]),
                // Kernel reads of swapped pages go straight to the swap
                // file — a host-level peek, no swap-in.
                PageKind::Swapped { slot } => {
                    let (ino, base) = self
                        .pool
                        .slot_location(*slot)
                        .ok_or(MemError::BadBacking(FsError::BadAddress))?;
                    let bytes = shared.fs.file_bytes(ino).map_err(MemError::BadBacking)?;
                    out.extend_from_slice(&bytes[base + off..base + off + take]);
                }
                PageKind::Shared { ino, page } => {
                    // Kernel peeks honor the poison too — corrupt bytes
                    // never cross into syscall buffers.
                    if shared.fs.is_poisoned(*ino, *page) {
                        return Err(MemError::BadBacking(FsError::CorruptData));
                    }
                    let bytes = shared.fs.file_bytes(*ino).map_err(MemError::BadBacking)?;
                    let start = (*page * PAGE_SIZE) as usize + off;
                    if start + take > bytes.len() {
                        return Err(MemError::BadBacking(FsError::BadAddress));
                    }
                    out.extend_from_slice(&bytes[start..start + take]);
                }
            }
            a = a.wrapping_add(take as u32);
        }
        Ok(out)
    }

    /// Kernel-side write of guest memory (ignores protection).
    pub fn write_bytes(
        &mut self,
        shared: &mut SharedFs,
        addr: u32,
        data: &[u8],
    ) -> Result<(), MemError> {
        let mut written = 0usize;
        let mut a = addr;
        while written < data.len() {
            let slot = self
                .pages
                .get(vpn(a))
                .ok_or(MemError::NotMapped { addr: a })?;
            let entry = self.entries[slot as usize].as_mut().expect("live slot");
            let off = (a % PAGE_SIZE) as usize;
            let take = ((PAGE_SIZE as usize) - off).min(data.len() - written);
            // A kernel-side poke needs real bytes: materialize
            // non-resident private pages first. Zero pages charge the
            // pool like any first touch; swapped pages refill from
            // their slot without counting a swap-in (this is a host
            // poke, not a guest fault).
            let swap_src = match &entry.kind {
                PageKind::Zero => Some(None),
                PageKind::Swapped { slot } => Some(Some(*slot)),
                _ => None,
            };
            if let Some(swap_slot) = swap_src {
                let mut frame = zero_frame();
                if let Some(swap_slot) = swap_slot {
                    let (ino, base) = self
                        .pool
                        .slot_location(swap_slot)
                        .ok_or(MemError::BadBacking(FsError::BadAddress))?;
                    let bytes = shared.fs.file_bytes(ino).map_err(MemError::BadBacking)?;
                    Arc::make_mut(&mut frame)
                        .copy_from_slice(&bytes[base..base + PAGE_SIZE as usize]);
                    self.pool.slot_unref(swap_slot);
                }
                entry.kind = PageKind::Anon(frame);
                entry.flags |= F_RESIDENT;
                self.resident += 1;
                self.pool.charge(1);
            }
            match &mut entry.kind {
                PageKind::Zero | PageKind::Swapped { .. } => {
                    unreachable!("materialized above")
                }
                PageKind::Anon(frame) => {
                    if Arc::strong_count(frame) > 1 {
                        self.stats.cow_copies += 1;
                    }
                    Arc::make_mut(frame)[off..off + take]
                        .copy_from_slice(&data[written..written + take]);
                }
                PageKind::Shared { ino, page } => {
                    // Sub-page host pokes must not mix fresh bytes into
                    // a corrupt block (see `MemBus::store`).
                    if shared.fs.is_poisoned(*ino, *page) {
                        return Err(MemError::BadBacking(FsError::CorruptData));
                    }
                    // Page-precise epoch stamp: this iteration writes
                    // only within file page `page`, so blocks decoded
                    // from the file's *other* pages stay valid.
                    let page = *page;
                    let bytes = shared
                        .fs
                        .file_bytes_mut_stamped(*ino, page)
                        .map_err(MemError::BadBacking)?;
                    let start = (page * PAGE_SIZE) as usize + off;
                    if start + take > bytes.len() {
                        return Err(MemError::BadBacking(FsError::BadAddress));
                    }
                    bytes[start..start + take].copy_from_slice(&data[written..written + take]);
                }
            }
            written += take;
            a = a.wrapping_add(take as u32);
        }
        // A host poke can patch text in place (the linkers do, for
        // trampolines and GOT slots): drop any decoded blocks covering
        // the written range. Blocks decoded from shared pages catch the
        // stamped write epoch at their next entry.
        if !data.is_empty() {
            let first = vpn(addr);
            let pages = vpn(addr + (data.len() as u32 - 1)) - first + 1;
            self.bb.invalidate_vpns(first, pages, "host-store");
        }
        Ok(())
    }

    /// Reads a NUL-terminated guest string (cap 4096 bytes).
    pub fn read_cstr(&self, shared: &SharedFs, addr: u32) -> Result<String, MemError> {
        let mut out = Vec::new();
        for i in 0..4096u32 {
            let b = self.read_bytes(shared, addr.wrapping_add(i), 1)?;
            if b[0] == 0 {
                return String::from_utf8(out).map_err(|_| {
                    MemError::Fault(Fault::Unmapped {
                        addr,
                        access: Access::Read,
                    })
                });
            }
            out.push(b[0]);
        }
        Err(MemError::NotMapped { addr })
    }
}

/// The [`hvm::Bus`] for one process: its address space plus the shared
/// partition its public pages are windows onto.
pub struct MemBus<'a> {
    /// The process's page table.
    pub aspace: &'a mut AddressSpace,
    /// The shared partition backing public mappings.
    pub shared: &'a mut SharedFs,
    /// The kernel's blocks decoded from shared file pages.
    text: &'a mut SharedText,
    /// Sanitizer hook: observes data accesses that hit shared pages.
    monitor: Option<&'a MonitorRef>,
    /// Who is driving the bus (meaningful only when `monitor` is armed).
    ctx: AccessCtx,
    /// The text page of the last execute translation that succeeded on
    /// this bus (`TLB_INVALID` before the first): see
    /// [`hvm::Bus::fetch_check`].
    text_vpn: u32,
}

impl<'a> MemBus<'a> {
    /// An unobserved bus — the default, zero-overhead configuration.
    pub fn new(
        aspace: &'a mut AddressSpace,
        shared: &'a mut SharedFs,
        text: &'a mut SharedText,
    ) -> MemBus<'a> {
        MemBus::attributed(aspace, shared, text, AccessCtx::default())
    }

    /// An unobserved bus that still knows who is driving it, so
    /// pressure-journal records (swap-ins) carry the right pid even
    /// when no monitor is armed.
    pub fn attributed(
        aspace: &'a mut AddressSpace,
        shared: &'a mut SharedFs,
        text: &'a mut SharedText,
        ctx: AccessCtx,
    ) -> MemBus<'a> {
        MemBus {
            aspace,
            shared,
            text,
            monitor: None,
            ctx,
            text_vpn: TLB_INVALID,
        }
    }

    /// A bus whose shared-page data accesses are reported to `monitor`,
    /// attributed to `ctx` (the executing process and its current PC).
    pub fn observed(
        aspace: &'a mut AddressSpace,
        shared: &'a mut SharedFs,
        text: &'a mut SharedText,
        ctx: AccessCtx,
        monitor: &'a MonitorRef,
    ) -> MemBus<'a> {
        MemBus {
            monitor: Some(monitor),
            ..MemBus::attributed(aspace, shared, text, ctx)
        }
    }
}

impl MemBus<'_> {
    /// Translates `addr` — TLB first, page walk + refill on miss — and
    /// checks protection. Returns the slab slot of the page entry.
    ///
    /// The TLB caches only *resident* pages (eviction invalidates the
    /// evicted page's entry; the rest of the cache stays warm), so a
    /// hit needs no residency work; a miss runs [`Self::ensure_resident`]
    /// before the refill. Every successful translation sets the
    /// referenced bit — the second chance the clock hand honors.
    #[inline]
    fn translate(&mut self, addr: u32, access: Access) -> Result<u32, Fault> {
        let vp = vpn(addr);
        let slot = match self.aspace.tlb.lookup(vp) {
            Some(slot) => {
                self.aspace.stats.tlb_hits += 1;
                slot
            }
            None => {
                self.aspace.stats.tlb_misses += 1;
                let slot = self
                    .aspace
                    .pages
                    .get(vp)
                    .ok_or(Fault::Unmapped { addr, access })?;
                self.ensure_resident(slot, addr, access)?;
                self.aspace.tlb.fill(vp, slot);
                slot
            }
        };
        let entry = self.aspace.entries[slot as usize]
            .as_mut()
            .expect("TLB and page table agree on live slots");
        if !entry.prot.allows(access) {
            return Err(Fault::Protection { addr, access });
        }
        entry.flags |= F_REFERENCED;
        Ok(slot)
    }

    /// Makes the page at `slot` resident, or surfaces the fault that
    /// will bring it back. First touches (demand-zero, first view of a
    /// shared page) are free — the frame was logically allocated at map
    /// time, and charging them would change every existing workload's
    /// counters. Only *pressure* traffic costs anything: swapped-in
    /// anonymous pages are counted (and billed by the world), and
    /// evicted shared pages bounce through the full user-level fault
    /// protocol via [`Fault::Unmapped`].
    fn ensure_resident(&mut self, slot: u32, addr: u32, access: Access) -> Result<(), Fault> {
        enum Bring {
            FirstTouchZero,
            FirstTouchShared,
            SwapIn(u32),
        }
        let bring = {
            let entry = self.aspace.entries[slot as usize]
                .as_ref()
                .expect("live slot");
            if entry.flags & F_RESIDENT != 0 {
                return Ok(());
            }
            match &entry.kind {
                PageKind::Zero => Bring::FirstTouchZero,
                PageKind::Anon(_) => Bring::FirstTouchShared, // re-flag only
                PageKind::Swapped { slot } => Bring::SwapIn(*slot),
                PageKind::Shared { .. } if entry.flags & F_EVICTED != 0 => {
                    return Err(Fault::Unmapped { addr, access });
                }
                PageKind::Shared { .. } => Bring::FirstTouchShared,
            }
        };
        let frame = match bring {
            Bring::FirstTouchZero => Some(zero_frame()),
            Bring::FirstTouchShared => None,
            Bring::SwapIn(swap_slot) => {
                if self
                    .aspace
                    .faults
                    .should_inject(hfault::FaultSite::SwapRead)
                {
                    return Err(Fault::Unmapped { addr, access });
                }
                let (ino, base) = self
                    .aspace
                    .pool
                    .slot_location(swap_slot)
                    .ok_or(Fault::Unmapped { addr, access })?;
                let bytes = self
                    .shared
                    .fs
                    .file_bytes(ino)
                    .map_err(|_| Fault::Unmapped { addr, access })?;
                let mut frame = zero_frame();
                Arc::make_mut(&mut frame).copy_from_slice(&bytes[base..base + PAGE_SIZE as usize]);
                self.aspace.pool.slot_unref(swap_slot);
                self.aspace
                    .pool
                    .count_swap_in(self.ctx.pid, addr & !(PAGE_SIZE - 1));
                Some(frame)
            }
        };
        let entry = self.aspace.entries[slot as usize]
            .as_mut()
            .expect("live slot");
        if let Some(frame) = frame {
            entry.kind = PageKind::Anon(frame);
        }
        entry.flags |= F_RESIDENT;
        self.aspace.resident += 1;
        self.aspace.pool.charge(1);
        Ok(())
    }

    /// Read path. Never calls `Arc::make_mut`, so a post-fork read leaves
    /// the copy-on-write sharing (and the cow counters) untouched.
    fn load(&mut self, addr: u32, len: usize, access: Access) -> Result<u32, Fault> {
        let slot = self.translate(addr, access)?;
        let entry = self.aspace.entries[slot as usize]
            .as_ref()
            .expect("live slot");
        let off = (addr % PAGE_SIZE) as usize;
        debug_assert!(off + len <= PAGE_SIZE as usize, "CPU enforces alignment");
        let mut shared_hit: Option<(Ino, u32)> = None;
        let bytes: &[u8] = match &entry.kind {
            PageKind::Zero | PageKind::Swapped { .. } => {
                unreachable!("translate made the page resident")
            }
            PageKind::Anon(frame) => &frame[off..off + len],
            PageKind::Shared { ino, page } => {
                // Verified read: a page whose backing block is known
                // uncorrectably corrupt must never hand bytes to a
                // guest — SIGBUS-analog, kills only this process.
                if self.shared.fs.is_poisoned(*ino, *page) {
                    return Err(Fault::Eio { addr, access });
                }
                let start = (*page * PAGE_SIZE) as usize + off;
                let file = self
                    .shared
                    .fs
                    .file_bytes(*ino)
                    .map_err(|_| Fault::Unmapped { addr, access })?;
                if start + len > file.len() {
                    return Err(Fault::Unmapped { addr, access });
                }
                shared_hit = Some((*ino, start as u32));
                &file[start..start + len]
            }
        };
        let mut v = 0u32;
        for i in (0..len).rev() {
            v = (v << 8) | bytes[i] as u32;
        }
        if let (Some(monitor), Some((ino, foff)), Access::Read) = (self.monitor, shared_hit, access)
        {
            // invariant: the monitor mutex is never held across a bus
            // access, so it can only be poisoned by a panic in flight.
            monitor
                .lock()
                .unwrap()
                .shared_read(self.ctx, ino, foff, len as u32);
        }
        Ok(v)
    }

    /// Write path: copy-on-write for shared anonymous frames, direct
    /// file-byte stores for shared mappings.
    fn store(&mut self, addr: u32, data: &[u8]) -> Result<(), Fault> {
        let access = Access::Write;
        let slot = self.translate(addr, access)?;
        let entry = self.aspace.entries[slot as usize]
            .as_mut()
            .expect("live slot");
        let off = (addr % PAGE_SIZE) as usize;
        debug_assert!(
            off + data.len() <= PAGE_SIZE as usize,
            "CPU enforces alignment"
        );
        let can_exec = entry.prot.can_exec();
        let mut shared_dst: Option<(Ino, u32)> = None;
        match &mut entry.kind {
            PageKind::Zero | PageKind::Swapped { .. } => {
                unreachable!("translate made the page resident")
            }
            PageKind::Anon(frame) => {
                if Arc::strong_count(frame) > 1 {
                    self.aspace.stats.cow_copies += 1;
                }
                Arc::make_mut(frame)[off..off + data.len()].copy_from_slice(data);
            }
            PageKind::Shared { ino, page } => {
                // Verified access on the store side too: sub-page
                // stores to a poisoned page would mix new bytes into
                // corrupt ones, so they raise the same SIGBUS-analog.
                // (File-level `write_at` covering the whole page is the
                // sanctioned way to replace a poisoned block.)
                if self.shared.fs.is_poisoned(*ino, *page) {
                    return Err(Fault::Eio { addr, access });
                }
                // The store lands in the backing file directly (shared
                // pages alias file bytes), but the page is now "dirty"
                // for eviction purposes: dropping it takes a simulated
                // writeback first.
                entry.flags |= F_DIRTY;
                let ino = *ino;
                let fpage = *page;
                shared_dst = Some((ino, fpage));
                let start = (fpage * PAGE_SIZE) as usize + off;
                // Protection-transition check: would the file's *current*
                // sfs mode grant this uid write access? (The page mapping
                // may predate a chmod.) Only consulted when armed; the
                // query is `&self` and touches no cost-model counters.
                let mode_allows = match self.monitor {
                    Some(_) => self
                        .shared
                        .fs
                        .access(ino, self.ctx.uid, true)
                        .unwrap_or(true),
                    None => true,
                };
                // Page-precise write-epoch stamp: blocks decoded from
                // the file's other pages live on.
                let file = self
                    .shared
                    .fs
                    .file_bytes_mut_stamped(ino, fpage)
                    .map_err(|_| Fault::Unmapped { addr, access })?;
                if start + data.len() > file.len() {
                    return Err(Fault::Unmapped { addr, access });
                }
                file[start..start + data.len()].copy_from_slice(data);
                if let Some(monitor) = self.monitor {
                    // invariant: see `load` — the monitor mutex cannot
                    // be poisoned.
                    monitor.lock().unwrap().shared_write(
                        self.ctx,
                        ino,
                        start as u32,
                        data.len() as u32,
                        mode_allows,
                    );
                }
            }
        }
        // W^X-style dirty hook: a store that can alter executable bytes
        // (the page is executable, or it aliases a shared file page some
        // block was decoded from, through any mapping) drops the
        // affected blocks, charging the drop to this space, and moves
        // the mutation stamp even when nothing dropped, so a block in
        // flight aborts before its next instruction (`Cpu::run_block`
        // re-checks after each store). Inside `run_block` this is the
        // only place the stamp moves.
        if self.aspace.bb.enabled() {
            let dropped = shared_dst.map_or(0, |(ino, fpage)| self.text.drop_page(ino, fpage));
            if can_exec || dropped > 0 {
                let bb = &mut self.aspace.bb;
                bb.note_text_store();
                bb.invalidate_page(vpn(addr), "store-exec");
                if dropped > 0 {
                    bb.note_dropped(addr & !(PAGE_SIZE - 1), dropped, "store-exec");
                }
            }
        }
        Ok(())
    }

    /// Looks up — or decodes and caches — the basic block entered at
    /// `pc`. Returns `None` (caller falls back to [`hvm::Cpu::step`]) when
    /// the cache is disabled, the page is non-resident or non-executable
    /// (the slow path must surface the exact fault or do the residency
    /// work), or the first word does not decode.
    ///
    /// Shared text goes through the kernel's [`SharedText`] at the
    /// page's current write epoch: a hit is counted here, not copied
    /// into this space's cache; a stale block is dropped
    /// (`shared-store`) and decoded again.
    ///
    /// The build peeks at resident bytes without side effects: no TLB
    /// traffic, no reference bits, no chaos decisions, no fs stats —
    /// those all happen (identically to the slow path) when the block
    /// executes through [`hvm::Bus::fetch_check`].
    pub fn bb_block(&mut self, pc: u32) -> Option<Arc<[Instr]>> {
        let MemBus { aspace, shared, .. } = self;
        if !aspace.bb.enabled() || !pc.is_multiple_of(4) {
            return None;
        }
        if let Some(code) = aspace.bb.lookup(pc) {
            return Some(code);
        }
        let slot = aspace.pages.get(vpn(pc))?;
        let entry = aspace.entries[slot as usize].as_ref()?;
        if entry.flags & F_RESIDENT == 0 || !entry.prot.can_exec() {
            return None;
        }
        let off = pc % PAGE_SIZE;
        let (ino, page) = match &entry.kind {
            PageKind::Anon(frame) => {
                let code = decode_block(&frame[off as usize..])?;
                aspace.bb.insert(pc, code.clone());
                return Some(code);
            }
            PageKind::Shared { ino, page } => (*ino, *page),
            PageKind::Zero | PageKind::Swapped { .. } => return None,
        };
        let fs = &shared.fs;
        // Poisoned backing block: decline — the slow path surfaces the
        // precise `Eio` fault.
        if fs.is_poisoned(ino, page) {
            return None;
        }
        let file = fs.file_bytes(ino).ok()?;
        let foff = page * PAGE_SIZE + off;
        let epoch = fs.write_epoch(ino, page);
        match self.text.lookup(ino, foff, epoch) {
            SharedLookup::Hit(code) => {
                aspace.bb.count_hit();
                return Some(code);
            }
            SharedLookup::Stale => aspace.bb.note_dropped(pc - off, 1, "shared-store"),
            SharedLookup::Miss => {}
        }
        let end = (foff + PAGE_SIZE - off) as usize;
        let code = decode_block(file.get(foff as usize..end.min(file.len()))?)?;
        let flushed = self.text.insert(ino, foff, epoch, code.clone());
        if flushed > 0 {
            aspace.bb.note_dropped(0, flushed, "capacity");
        }
        aspace.bb.count_built();
        Some(code)
    }

    /// The block cache's mutation stamp — see
    /// [`hvm::bbcache::BbCache::mutation_stamp`]. A dispatcher may
    /// reuse a previous [`MemBus::bb_block`] result without re-entering
    /// the cache strictly while this stamp stands still. Mid-slice,
    /// only the running process mutates its own address space, and
    /// every path that could stale a cached block (stores to source
    /// pages, map changes, evictions, flushes) moves the stamp; cross-
    /// process mutations happen between slices, outside any memo's
    /// lifetime.
    pub fn bb_stamp(&self) -> u64 {
        self.aspace.bb.mutation_stamp()
    }

    /// Accounts a memoized block dispatch as a cache hit.
    pub fn bb_count_hit(&mut self) {
        self.aspace.bb.count_hit();
    }
}

impl Bus for MemBus<'_> {
    /// The slow path's fetch: also stamps the access context's PC, so a
    /// data access of a stepped instruction is attributed to it even
    /// when blocks ran earlier on this bus.
    fn fetch(&mut self, addr: u32) -> Result<u32, Fault> {
        self.ctx.pc = addr;
        self.load(addr, 4, Access::Exec)
    }
    /// Every side effect of `fetch` except reading the bytes out: the
    /// translation (TLB hit/miss counters, page walk, residency faults,
    /// chaos decisions, reference bit) and the protection check. The
    /// bytes themselves were validated when the block was built, and a
    /// backing-file truncation since then moves the write epoch, which
    /// evicts the block before it can re-enter. Also refreshes the
    /// access context's PC. `run_block` calls it before every load and
    /// store, so monitor attribution (hsan race reports) stays
    /// per-instruction inside a block; the monitor reads the PC only
    /// in those accesses.
    ///
    /// The text page is checked in full once per bus: after one execute
    /// translation of a page succeeds, a later fetch from that page
    /// whose TLB entry still holds it is exactly a TLB hit whose
    /// protection and reference-bit work is already done, so it only
    /// counts the hit. That is exact because a bus lives within one
    /// slice between syscalls: protection changes only in syscalls,
    /// the clock hand clears reference bits only at round boundaries,
    /// and eviction runs only in the kernel's rebalance. A data access
    /// that displaces the text page's TLB entry fails the tag check, so
    /// the next fetch takes the full miss-and-refill path.
    fn fetch_check(&mut self, addr: u32) -> Result<(), Fault> {
        self.ctx.pc = addr;
        let vp = vpn(addr);
        if vp == self.text_vpn && self.aspace.tlb.lookup(vp).is_some() {
            self.aspace.stats.tlb_hits += 1;
            return Ok(());
        }
        self.translate(addr, Access::Exec)?;
        self.text_vpn = vp;
        Ok(())
    }
    /// The fetches `run_block` made without a call: each follows a
    /// successful check of the same page with no data access between,
    /// so the TLB still holds that page and each is the tag-compare hit
    /// `fetch_check` counts above.
    fn fetch_hits(&mut self, n: u64) {
        self.aspace.stats.tlb_hits += n;
    }
    /// The block cache's mutation stamp: inside `run_block` only a
    /// store into executable bytes moves it (see `store`).
    fn text_epoch(&mut self) -> u64 {
        self.aspace.bb.mutation_stamp()
    }
    fn load8(&mut self, addr: u32) -> Result<u8, Fault> {
        Ok(self.load(addr, 1, Access::Read)? as u8)
    }
    fn load16(&mut self, addr: u32) -> Result<u16, Fault> {
        Ok(self.load(addr, 2, Access::Read)? as u16)
    }
    fn load32(&mut self, addr: u32) -> Result<u32, Fault> {
        self.load(addr, 4, Access::Read)
    }
    fn store8(&mut self, addr: u32, val: u8) -> Result<(), Fault> {
        self.store(addr, &[val])
    }
    fn store16(&mut self, addr: u32, val: u16) -> Result<(), Fault> {
        self.store(addr, &val.to_le_bytes())
    }
    fn store32(&mut self, addr: u32, val: u32) -> Result<(), Fault> {
        self.store(addr, &val.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsfs::SLOT_SIZE;
    use proptest::prelude::*;

    const P: u32 = PAGE_SIZE;

    #[test]
    fn map_read_write_anon() {
        let mut a = AddressSpace::new();
        let mut s = SharedFs::new();
        a.map_anon(0x1000, 2 * P, Prot::RW).unwrap();
        a.write_bytes(&mut s, 0x1ffe, &[1, 2, 3, 4]).unwrap(); // spans pages
        assert_eq!(a.read_bytes(&s, 0x1ffe, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn overlap_rejected_atomically() {
        let mut a = AddressSpace::new();
        a.map_anon(0x2000, P, Prot::RW).unwrap();
        assert!(matches!(
            a.map_anon(0x1000, 3 * P, Prot::RW),
            Err(MemError::Overlap { .. })
        ));
        // Nothing from the failed call may remain.
        assert_eq!(a.page_count(), 1);
    }

    /// A dead space holds no memory: releasing it drops every decoded
    /// block, disables the cache, and empties the page table, keeping
    /// only the counters.
    #[test]
    fn release_all_frees_tables_and_cached_blocks() {
        let mut a = AddressSpace::new();
        a.map_anon(0x1000, 2 * P, Prot::RW).unwrap();
        a.bbcache_mut().configure(true);
        let code: Arc<[Instr]> = vec![Instr::Syscall].into();
        a.bbcache_mut().insert(0x1000, code.clone());
        assert!(a.bbcache_mut().lookup(0x1000).is_some());
        assert!(Arc::strong_count(&code) > 1, "cached");
        a.release_all();
        assert_eq!(Arc::strong_count(&code), 1, "no decoded block survives");
        assert!(a.bbcache().is_empty());
        assert!(!a.bbcache().enabled());
        assert_eq!(a.page_count(), 0);
        let kept = a.bbcache().stats();
        assert_eq!((kept.built, kept.hits), (1, 1), "counters survive");
    }

    #[test]
    fn unaligned_rejected() {
        let mut a = AddressSpace::new();
        assert!(matches!(
            a.map_anon(0x1004, P, Prot::RW),
            Err(MemError::Unaligned { .. })
        ));
        assert!(matches!(
            a.map_anon(0x1000, 0, Prot::RW),
            Err(MemError::Unaligned { .. })
        ));
    }

    #[test]
    fn bus_protection_checks() {
        let mut a = AddressSpace::new();
        let mut s = SharedFs::new();
        let mut t = SharedText::default();
        a.map_anon(0x1000, P, Prot::R).unwrap();
        a.map_anon(0x2000, P, Prot::NONE).unwrap();
        let mut bus = MemBus::new(&mut a, &mut s, &mut t);
        assert!(bus.load32(0x1000).is_ok());
        assert_eq!(
            bus.store32(0x1000, 1),
            Err(Fault::Protection {
                addr: 0x1000,
                access: Access::Write
            })
        );
        assert_eq!(
            bus.load32(0x2000),
            Err(Fault::Protection {
                addr: 0x2000,
                access: Access::Read
            })
        );
        assert_eq!(
            bus.fetch(0x1000),
            Err(Fault::Protection {
                addr: 0x1000,
                access: Access::Exec
            })
        );
        assert_eq!(
            bus.load32(0x9000),
            Err(Fault::Unmapped {
                addr: 0x9000,
                access: Access::Read
            })
        );
    }

    #[test]
    fn shared_mapping_aliases_file_bytes() {
        let mut a = AddressSpace::new();
        let mut b = AddressSpace::new();
        let mut s = SharedFs::new();
        let mut t = SharedText::default();
        let ino = s.create_file("/seg", 0o666, 0).unwrap();
        s.fs.truncate(ino, (2 * P) as u64).unwrap();
        let base = SharedFs::addr_of_ino(ino);
        a.map_shared(base, 2 * P, Prot::RW, ino, 0).unwrap();
        b.map_shared(base, 2 * P, Prot::RW, ino, 0).unwrap();
        {
            let mut bus = MemBus::new(&mut a, &mut s, &mut t);
            bus.store32(base + 8, 0xCAFE_F00D).unwrap();
        }
        // Process B sees A's store instantly (genuine write sharing).
        let mut bus_b = MemBus::new(&mut b, &mut s, &mut t);
        assert_eq!(bus_b.load32(base + 8).unwrap(), 0xCAFE_F00D);
        // And the bytes are the file's bytes.
        assert_eq!(
            &s.fs.file_bytes(ino).unwrap()[8..12],
            &0xCAFE_F00Du32.to_le_bytes()
        );
    }

    #[test]
    fn shared_mapping_beyond_file_faults() {
        let mut a = AddressSpace::new();
        let mut s = SharedFs::new();
        let mut t = SharedText::default();
        let ino = s.create_file("/small", 0o666, 0).unwrap();
        s.fs.truncate(ino, P as u64).unwrap();
        let base = SharedFs::addr_of_ino(ino);
        a.map_shared(base, 2 * P, Prot::RW, ino, 0).unwrap();
        let mut bus = MemBus::new(&mut a, &mut s, &mut t);
        assert!(bus.load32(base).is_ok());
        assert!(bus.load32(base + P).is_err());
    }

    #[test]
    fn fork_clone_is_cow() {
        let mut parent = AddressSpace::new();
        let mut s = SharedFs::new();
        parent.map_anon(0x1000, P, Prot::RW).unwrap();
        parent.write_bytes(&mut s, 0x1000, b"parent data").unwrap();
        let mut child = parent.fork_clone();
        // Child sees parent's data.
        assert_eq!(child.read_bytes(&s, 0x1000, 6).unwrap(), b"parent");
        // Child write triggers a copy; parent unaffected.
        child.write_bytes(&mut s, 0x1000, b"child!").unwrap();
        assert_eq!(child.stats.cow_copies, 1);
        assert_eq!(parent.read_bytes(&s, 0x1000, 6).unwrap(), b"parent");
        // Second child write copies nothing further.
        child.write_bytes(&mut s, 0x1004, b"x").unwrap();
        assert_eq!(child.stats.cow_copies, 1);
    }

    #[test]
    fn fork_shares_public_pages() {
        let mut parent = AddressSpace::new();
        let mut s = SharedFs::new();
        let ino = s.create_file("/pub", 0o666, 0).unwrap();
        s.fs.truncate(ino, P as u64).unwrap();
        let base = SharedFs::addr_of_ino(ino);
        parent.map_shared(base, P, Prot::RW, ino, 0).unwrap();
        let mut child = parent.fork_clone();
        child.write_bytes(&mut s, base, b"from child").unwrap();
        assert_eq!(parent.read_bytes(&s, base, 10).unwrap(), b"from child");
    }

    #[test]
    fn set_prot_enables_lazy_link_trap() {
        let mut a = AddressSpace::new();
        let mut s = SharedFs::new();
        let mut t = SharedText::default();
        a.map_anon(0x1000, P, Prot::NONE).unwrap();
        {
            let mut bus = MemBus::new(&mut a, &mut s, &mut t);
            assert!(matches!(bus.load32(0x1000), Err(Fault::Protection { .. })));
        }
        a.set_prot(0x1000, P, Prot::RWX).unwrap();
        let mut bus = MemBus::new(&mut a, &mut s, &mut t);
        assert!(bus.load32(0x1000).is_ok());
        assert!(bus.fetch(0x1000).is_ok());
    }

    #[test]
    fn find_free_skips_mappings() {
        let mut a = AddressSpace::new();
        a.map_anon(0x2000, P, Prot::RW).unwrap();
        a.map_anon(0x4000, P, Prot::RW).unwrap();
        assert_eq!(a.find_free(P, 0x1000, 0x10000), Some(0x1000));
        assert_eq!(a.find_free(2 * P, 0x2000, 0x10000), Some(0x5000));
        assert_eq!(a.find_free(P, 0x2000, 0x3000), None);
    }

    #[test]
    fn unmap_requires_full_coverage() {
        let mut a = AddressSpace::new();
        a.map_anon(0x1000, P, Prot::RW).unwrap();
        assert!(matches!(
            a.unmap(0x1000, 2 * P),
            Err(MemError::NotMapped { .. })
        ));
        a.unmap(0x1000, P).unwrap();
        assert_eq!(a.page_count(), 0);
    }

    #[test]
    fn read_cstr_and_bounds() {
        let mut a = AddressSpace::new();
        let mut s = SharedFs::new();
        a.map_anon(0x1000, P, Prot::RW).unwrap();
        a.write_bytes(&mut s, 0x1000, b"/shared/db\0").unwrap();
        assert_eq!(a.read_cstr(&s, 0x1000).unwrap(), "/shared/db");
        assert!(a.read_cstr(&s, 0x9000).is_err());
    }

    #[test]
    fn tlb_warm_second_access_hits() {
        let mut a = AddressSpace::new();
        let mut s = SharedFs::new();
        let mut t = SharedText::default();
        a.map_anon(0x1000, P, Prot::RW).unwrap();
        assert!(!a.tlb_cached(0x1000));
        let mut bus = MemBus::new(&mut a, &mut s, &mut t);
        bus.load32(0x1000).unwrap(); // cold: page walk + fill
        bus.load32(0x1004).unwrap(); // warm: same page, served by TLB
        assert_eq!(a.stats.tlb_misses, 1);
        assert_eq!(a.stats.tlb_hits, 1);
        assert!(a.tlb_cached(0x1000));
    }

    #[test]
    fn tlb_invalidated_by_unmap() {
        let mut a = AddressSpace::new();
        let mut s = SharedFs::new();
        let mut t = SharedText::default();
        a.map_anon(0x1000, P, Prot::RW).unwrap();
        {
            let mut bus = MemBus::new(&mut a, &mut s, &mut t);
            bus.load32(0x1000).unwrap();
        }
        assert!(a.tlb_cached(0x1000));
        a.unmap(0x1000, P).unwrap();
        assert!(!a.tlb_cached(0x1000));
        let mut bus = MemBus::new(&mut a, &mut s, &mut t);
        assert_eq!(
            bus.load32(0x1000),
            Err(Fault::Unmapped {
                addr: 0x1000,
                access: Access::Read
            })
        );
    }

    #[test]
    fn tlb_invalidated_by_set_prot() {
        let mut a = AddressSpace::new();
        let mut s = SharedFs::new();
        let mut t = SharedText::default();
        a.map_anon(0x1000, P, Prot::RW).unwrap();
        {
            let mut bus = MemBus::new(&mut a, &mut s, &mut t);
            bus.load32(0x1000).unwrap();
        }
        assert!(a.tlb_cached(0x1000));
        a.set_prot(0x1000, P, Prot::NONE).unwrap();
        assert!(!a.tlb_cached(0x1000));
        let mut bus = MemBus::new(&mut a, &mut s, &mut t);
        // The new protection takes effect immediately — no stale grant.
        assert_eq!(
            bus.load32(0x1000),
            Err(Fault::Protection {
                addr: 0x1000,
                access: Access::Read
            })
        );
    }

    #[test]
    fn tlb_invalidation_is_page_granular() {
        // mprotect of one page must not flush its neighbors: warm
        // translations outside the changed range survive, so the next
        // access to them is a TLB hit, not a page-table walk.
        let mut a = AddressSpace::new();
        let mut s = SharedFs::new();
        let mut t = SharedText::default();
        a.map_anon(0x1000, 3 * P, Prot::RW).unwrap();
        {
            let mut bus = MemBus::new(&mut a, &mut s, &mut t);
            for vpn in 1..4 {
                bus.load32(vpn * P).unwrap();
            }
        }
        a.set_prot(0x2000, P, Prot::NONE).unwrap();
        assert!(a.tlb_cached(0x1000), "page below the range stays warm");
        assert!(!a.tlb_cached(0x2000), "the changed page is invalidated");
        assert!(a.tlb_cached(0x3000), "page above the range stays warm");
        let misses_before = a.stats.tlb_misses;
        {
            let mut bus = MemBus::new(&mut a, &mut s, &mut t);
            bus.load32(0x1000).unwrap();
            bus.load32(0x3000).unwrap();
        }
        assert_eq!(a.stats.tlb_misses, misses_before, "no re-walk of neighbors");

        // Eviction likewise drops only the evicted page's entry.
        let pool = FramePool::new(64, 16);
        let mut a = AddressSpace::new();
        a.attach_pool(&pool);
        a.map_anon(0x1000, 2 * P, Prot::RW).unwrap();
        {
            let mut bus = MemBus::new(&mut a, &mut s, &mut t);
            bus.store32(0x1000, 7).unwrap();
            bus.store32(0x2000, 9).unwrap();
        }
        assert_eq!(
            a.evict_page(1, 1, &mut s),
            EvictOutcome::Evicted,
            "anon page swaps out"
        );
        assert!(!a.tlb_cached(0x1000), "evicted page leaves the TLB");
        assert!(a.tlb_cached(0x2000), "resident neighbor stays cached");
    }

    #[test]
    fn tlb_cold_on_both_sides_of_fork() {
        let mut parent = AddressSpace::new();
        let mut s = SharedFs::new();
        let mut t = SharedText::default();
        parent.map_anon(0x1000, P, Prot::RW).unwrap();
        {
            let mut bus = MemBus::new(&mut parent, &mut s, &mut t);
            bus.store32(0x1000, 0xAA55).unwrap();
        }
        assert!(parent.tlb_cached(0x1000));
        let mut child = parent.fork_clone();
        // COW invalidation: neither side may reuse pre-fork translations.
        assert!(!parent.tlb_cached(0x1000));
        assert!(!child.tlb_cached(0x1000));
        // A warm-TLB child write still copies, leaving the parent intact.
        {
            let mut bus = MemBus::new(&mut child, &mut s, &mut t);
            bus.load32(0x1000).unwrap();
            bus.store32(0x1000, 0x1234).unwrap();
        }
        assert_eq!(child.stats.cow_copies, 1);
        let mut bus = MemBus::new(&mut parent, &mut s, &mut t);
        assert_eq!(bus.load32(0x1000).unwrap(), 0xAA55);
    }

    #[test]
    fn tlb_slot_reuse_after_remap_translates_correctly() {
        // Unmap frees a slab slot; a new mapping reuses it. The flush on
        // both operations must keep the old vpn from reaching the new
        // page's entry.
        let mut a = AddressSpace::new();
        let mut s = SharedFs::new();
        let mut t = SharedText::default();
        a.map_anon(0x1000, P, Prot::RW).unwrap();
        {
            let mut bus = MemBus::new(&mut a, &mut s, &mut t);
            bus.store32(0x1000, 7).unwrap();
        }
        a.unmap(0x1000, P).unwrap();
        a.map_anon(0x2000, P, Prot::RW).unwrap();
        let mut bus = MemBus::new(&mut a, &mut s, &mut t);
        assert_eq!(bus.load32(0x2000).unwrap(), 0); // fresh zero frame
        assert!(bus.load32(0x1000).is_err());
    }

    #[test]
    fn whole_slot_mapping_works() {
        // A full 1 MB module segment maps and is addressable end to end.
        let mut a = AddressSpace::new();
        let mut s = SharedFs::new();
        let mut t = SharedText::default();
        let ino = s.create_file("/big", 0o666, 0).unwrap();
        s.fs.truncate(ino, SLOT_SIZE as u64).unwrap();
        let base = SharedFs::addr_of_ino(ino);
        a.map_shared(base, SLOT_SIZE, Prot::RW, ino, 0).unwrap();
        let mut bus = MemBus::new(&mut a, &mut s, &mut t);
        bus.store32(base + SLOT_SIZE - 4, 7).unwrap();
        assert_eq!(bus.load32(base + SLOT_SIZE - 4).unwrap(), 7);
    }

    /// The highest vpn of the 32-bit address space.
    const TOP: u32 = (1 << 20) - 1;

    /// What the page-table model records per mapped vpn: shared or not,
    /// the protection, and whether a store made it resident.
    type Model = BTreeMap<u32, (bool, Prot, bool)>;

    /// First-fit over the model, as `find_free` answered with the
    /// ordered tree it used to keep.
    fn model_find_free(model: &Model, pages: u32, first: u32, limit: u32) -> Option<u32> {
        let mut candidate = first;
        if candidate < limit {
            for (&p, _) in model.range(candidate..limit) {
                if p >= candidate + pages {
                    break;
                }
                candidate = p + 1;
            }
        }
        (candidate + pages <= limit).then_some(candidate)
    }

    /// Every vpn the clock hand visits, in order, from a fresh sweep.
    fn clock_order(a: &mut AddressSpace) -> Vec<u32> {
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(vp) = a.clock_scan(from) {
            seen.push(vp);
            from = vp + 1;
        }
        seen
    }

    /// Start vpns near the interesting edges: vpn 0, both sides of the
    /// first two 4 MiB leaf boundaries, the top vpn, and anywhere.
    fn edge_vpn() -> impl Strategy<Value = u32> {
        let leaf = LEAF_PAGES as u32;
        prop_oneof![
            0u32..4,
            leaf - 3..leaf + 3,
            2 * leaf - 3..2 * leaf + 3,
            TOP - 4..TOP + 1,
            0u32..TOP + 1,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
        /// The radix table answers exactly as an ordered map of the same
        /// mappings: lookups, the page count, first-fit placement and the
        /// clock hand's order. Its directory ends at the highest leaf in
        /// use and holds a leaf exactly where a page is mapped.
        #[test]
        fn page_table_agrees_with_an_ordered_map(
            ops in proptest::collection::vec(
                (0u8..5, edge_vpn(), prop_oneof![1u32..4, 1020u32..1030], 0usize..4),
                1..40,
            ),
            free_len in 1u32..6,
        ) {
            const PROTS: [Prot; 4] = [Prot::NONE, Prot::R, Prot::RW, Prot::RX];
            let mut s = SharedFs::new();
            let mut a = AddressSpace::new();
            let mut model = Model::new();
            for (op, first, pages, p) in ops {
                let pages = pages.min((1 << 20) - first);
                let addr = first * P;
                let len = pages * P;
                let range = first..first + pages;
                let all_mapped = range.clone().all(|v| model.contains_key(&v));
                let none_mapped = range.clone().all(|v| !model.contains_key(&v));
                match op {
                    0 | 1 => {
                        let shared = op == 1;
                        let got = if shared {
                            a.map_shared(addr, len, PROTS[p], 7, 0)
                        } else {
                            a.map_anon(addr, len, PROTS[p])
                        };
                        prop_assert_eq!(got.is_ok(), none_mapped);
                        if none_mapped {
                            for v in range.clone() {
                                model.insert(v, (shared, PROTS[p], false));
                            }
                        }
                    }
                    2 => {
                        prop_assert_eq!(a.unmap(addr, len).is_ok(), all_mapped);
                        if all_mapped {
                            for v in range.clone() {
                                model.remove(&v);
                            }
                        }
                    }
                    3 => {
                        prop_assert_eq!(a.set_prot(addr, len, PROTS[p]).is_ok(), all_mapped);
                        if all_mapped {
                            for v in range.clone() {
                                model.get_mut(&v).unwrap().1 = PROTS[p];
                            }
                        }
                    }
                    _ => {
                        // A host store materializes a private page.
                        if let Some((false, _, resident)) = model.get_mut(&first) {
                            a.write_bytes(&mut s, addr, &[1]).unwrap();
                            *resident = true;
                        }
                    }
                }
                prop_assert_eq!(a.page_count(), model.len());
                for v in range.start.saturating_sub(1)..range.end.saturating_add(1).min(1 << 20) {
                    let got = a.entry(v * P).map(|e| {
                        (matches!(e.kind, PageKind::Shared { .. }), e.prot, e.is_resident())
                    });
                    prop_assert_eq!(got, model.get(&v).copied(), "vpn {:#x}", v);
                }
                let leaves = model.keys().next_back().map_or(0, |&v| v as usize / LEAF_PAGES + 1);
                prop_assert_eq!(a.pages.dir.len(), leaves);
                for (d, leaf) in a.pages.dir.iter().enumerate() {
                    let lo = (d * LEAF_PAGES) as u32;
                    let used = model.range(lo..lo + LEAF_PAGES as u32).next().is_some();
                    prop_assert_eq!(leaf.is_some(), used, "leaf {}", d);
                }
                // `hi` is an exclusive address, so the top vpn is never free.
                for (lo, hi) in [(0, TOP), (first.saturating_sub(2), first + pages + 2)] {
                    let hi = hi.min(TOP);
                    prop_assert_eq!(
                        a.find_free(free_len * P, lo * P, hi * P),
                        model_find_free(&model, free_len, lo, hi).map(|v| v * P)
                    );
                }
            }
            for (&v, &kind) in &model {
                let e = a.entry(v * P).unwrap();
                prop_assert_eq!(
                    (matches!(e.kind, PageKind::Shared { .. }), e.prot, e.is_resident()),
                    kind
                );
            }
            let resident: Vec<u32> = model.iter().filter(|(_, k)| k.2).map(|(&v, _)| v).collect();
            prop_assert_eq!(clock_order(&mut a), resident);
            let child = a.fork_clone();
            prop_assert_eq!(child.page_count(), model.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]
        /// A warm block cache answers every `bb_block` exactly as a cold
        /// one: after each random map, unmap, mprotect, host write,
        /// guest store (into private text, and into shared text through
        /// another space's mapping), eviction, re-fault, migration or
        /// fork, every pc of every mapped page gets the same block, or the
        /// same refusal,
        /// from the warm space and kernel table as from a cache-cold
        /// clone with an empty table. Private blocks carry no stamp, so
        /// the eager page drops alone must keep them exact.
        #[test]
        fn warm_block_cache_answers_like_a_cold_one(
            ops in proptest::collection::vec(
                (0u8..10, 0usize..4, 0u32..P / 4, 0usize..5, 0usize..3),
                1..24,
            ),
        ) {
            const PRIV: u32 = 0x0040_0000;
            let r = hvm::Reg;
            // Register-only work, a store, both kinds of terminator, and
            // (index 4) an undecodable word: writes lengthen, shorten,
            // end or kill blocks.
            let words = [
                Instr::Addi { rt: r(8), rs: r(8), imm: 1 },
                Instr::Sw { rt: r(8), rs: r(9), imm: 0 },
                Instr::Bne { rs: r(8), rt: r(0), imm: 0xFFFE },
                Instr::Jr { rs: r(31) },
            ]
            .map(hvm::encode);
            let word = |w: usize| words.get(w).copied().unwrap_or(u32::MAX);
            let prots = [Prot::RX, Prot::RWX, Prot::RW];
            let mut s = SharedFs::new();
            let mut text = SharedText::default();
            let ino = s.create_file("/text", 0o666, 0).unwrap();
            s.fs.truncate(ino, u64::from(2 * P)).unwrap();
            let shared = SharedFs::addr_of_ino(ino);
            // Pages 0 and 1 are private, 2 and 3 the file's two pages.
            let page = |k: usize| match k {
                0 | 1 => (PRIV + k as u32 * P, None),
                _ => (shared + (k as u32 - 2) * P, Some(k as u32 - 2)),
            };
            let map = |a: &mut AddressSpace, k: usize, prot: Prot| match page(k) {
                (addr, None) => a.map_anon(addr, P, prot),
                (addr, Some(file_page)) => a.map_shared(addr, P, prot, ino, file_page),
            };
            let mut a = AddressSpace::new();
            a.bbcache_mut().configure(true);
            for k in 0..4 {
                map(&mut a, k, Prot::RWX).unwrap();
                let code: Vec<u8> = (0..P as usize / 4)
                    .flat_map(|i| word((i * 7 + k) % 5).to_le_bytes())
                    .collect();
                a.write_bytes(&mut s, page(k).0, &code).unwrap();
            }
            // Another process's writable view of the shared text.
            let mut b = AddressSpace::new();
            b.bbcache_mut().configure(true);
            b.map_shared(shared, 2 * P, Prot::RW, ino, 0).unwrap();
            for (step, (op, k, slot, w, p)) in ops.into_iter().enumerate() {
                let base = page(k).0;
                let addr = base + slot * 4;
                let bytes = word(w).to_le_bytes();
                match op {
                    0 => {
                        let _ = map(&mut a, k, prots[p]);
                    }
                    1 => {
                        // Unmap, and mostly map the address again.
                        let _ = a.unmap(base, P);
                        if p > 0 {
                            let _ = map(&mut a, k, prots[p]);
                        }
                    }
                    2 => {
                        let _ = a.set_prot(base, P, prots[p]);
                    }
                    3 => {
                        let _ = a.write_bytes(&mut s, addr, &bytes);
                    }
                    4 => {
                        let _ = MemBus::new(&mut a, &mut s, &mut text).store32(addr, word(w));
                    }
                    5 => {
                        let at = shared + (k as u32 % 2) * P + slot * 4;
                        let _ = MemBus::new(&mut b, &mut s, &mut text).store32(at, word(w));
                    }
                    6 => {
                        a.unpin_all();
                        a.evict_page(0, vpn(base), &mut s);
                    }
                    7 => {
                        a.repage_shared(0, base);
                        let _ = MemBus::new(&mut a, &mut s, &mut text).load32(addr);
                    }
                    8 => a.tlb_migrate_flush(),
                    _ => {
                        // The child's write un-shares a COW page under
                        // the parent; either side carries on.
                        let mut child = a.fork_clone();
                        let _ = child.write_bytes(&mut s, addr, &bytes);
                        if p == 0 {
                            a = child;
                        }
                    }
                }
                let mut cold = a.clone();
                let mut cold_text = SharedText::default();
                for k in 0..4 {
                    let base = page(k).0;
                    if a.entry(base).is_none() {
                        continue;
                    }
                    let pcs = (base..base + P).step_by(4);
                    let warm: Vec<_> = {
                        let mut bus = MemBus::new(&mut a, &mut s, &mut text);
                        pcs.clone().map(|pc| bus.bb_block(pc)).collect()
                    };
                    let mut bus = MemBus::new(&mut cold, &mut s, &mut cold_text);
                    for (pc, warm) in pcs.zip(warm) {
                        prop_assert_eq!(
                            warm.as_deref(),
                            bus.bb_block(pc).as_deref(),
                            "pc {:#x} after step {}",
                            pc,
                            step
                        );
                    }
                }
            }
        }
    }

    /// The block path checks the text page in full at block entry,
    /// at each load and store, and at the first fetch after one, and
    /// counts the other fetches as TLB hits in bulk. A cached loop
    /// whose `lw`/`sw` hit a page that aliases its own text page under
    /// `Tlb::index`, with register-only instructions around them,
    /// misses and refills after each of them exactly as fetch+decode
    /// does: the same TLB counters, reference bits and outcome, whole
    /// blocks or blocks cut by the budget anywhere. With a monitor
    /// armed, a shared read in the middle of a block is attributed to
    /// the load's own pc.
    #[test]
    fn fetch_fast_path_refills_after_an_aliasing_data_access() {
        use crate::monitor::{Monitor, SyncEdge};
        use hvm::{Cpu, Reg, StepOutcome};
        const TEXT: u32 = 0x0040_0000;
        const ITERS: u32 = 4;
        /// The shared load's index in `program`.
        const SHARED_LW: u32 = 6;

        #[derive(Default)]
        struct Reads(Vec<(u32, Ino, u32)>);
        impl Monitor for Reads {
            fn shared_read(&mut self, ctx: AccessCtx, ino: Ino, off: u32, _len: u32) {
                self.0.push((ctx.pc, ino, off));
            }
            fn shared_write(&mut self, _: AccessCtx, _: Ino, _: u32, _: u32, _: bool) {}
            fn sync_edge(&mut self, _: SyncEdge) {}
        }

        let data = (vpn(TEXT) + 1..)
            .find(|&v| Tlb::index(v) == Tlb::index(vpn(TEXT)))
            .unwrap()
            * P;
        let r = Reg;
        let program = [
            Instr::Addi {
                rt: r(11),
                rs: r(11),
                imm: 1,
            },
            Instr::Sll {
                rd: r(12),
                rt: r(11),
                shamt: 2,
            },
            Instr::Lw {
                rt: r(9),
                rs: r(8),
                imm: 0,
            },
            Instr::Addi {
                rt: r(13),
                rs: r(9),
                imm: 1,
            },
            Instr::Sw {
                rt: r(9),
                rs: r(8),
                imm: 4,
            },
            Instr::Xor {
                rd: r(14),
                rs: r(14),
                rt: r(13),
            },
            Instr::Lw {
                rt: r(15),
                rs: r(16),
                imm: 8,
            },
            Instr::Add {
                rd: r(17),
                rs: r(17),
                rt: r(15),
            },
            Instr::Addi {
                rt: r(10),
                rs: r(10),
                imm: 0xFFFF,
            },
            Instr::Bgtz {
                rs: r(10),
                imm: 0xFFF6,
            }, // back to the first addi
            // A last block whose only refill is the fetch after its lw.
            Instr::Lw {
                rt: r(18),
                rs: r(8),
                imm: 0,
            },
            Instr::Addi {
                rt: r(18),
                rs: r(18),
                imm: 1,
            },
            Instr::Break { code: 0 },
        ];
        let run = |cache: bool, budget: u64, armed: bool| {
            let mut a = AddressSpace::new();
            let mut s = SharedFs::new();
            let mut t = SharedText::default();
            let ino = s.create_file("/db", 0o666, 0).unwrap();
            s.fs.truncate(ino, u64::from(P)).unwrap();
            let shared = SharedFs::addr_of_ino(ino);
            a.map_anon(TEXT, P, Prot::RX).unwrap();
            a.map_anon(data, P, Prot::RW).unwrap();
            a.map_shared(shared, P, Prot::RW, ino, 0).unwrap();
            let text: Vec<u8> = program
                .iter()
                .flat_map(|i| hvm::encode(*i).to_le_bytes())
                .collect();
            a.write_bytes(&mut s, TEXT, &text).unwrap();
            a.write_bytes(&mut s, data, &9u32.to_le_bytes()).unwrap();
            a.write_bytes(&mut s, shared + 8, &5u32.to_le_bytes())
                .unwrap();
            a.bbcache_mut().configure(cache);
            let reads = Arc::new(Mutex::new(Reads::default()));
            let monitor: MonitorRef = reads.clone();
            let mut cpu = Cpu::new();
            cpu.pc = TEXT;
            cpu.set_reg(r(8), data);
            cpu.set_reg(r(10), ITERS);
            cpu.set_reg(r(16), shared);
            let outcome = {
                // One bus for the whole run, as within one slice.
                let ctx = AccessCtx {
                    pc: TEXT,
                    ..AccessCtx::default()
                };
                let mut bus = if armed {
                    MemBus::observed(&mut a, &mut s, &mut t, ctx, &monitor)
                } else {
                    MemBus::attributed(&mut a, &mut s, &mut t, ctx)
                };
                loop {
                    let out = match bus.bb_block(cpu.pc) {
                        Some(code) => cpu.run_block(&mut bus, &code, budget).1,
                        None => Some(cpu.step(&mut bus)),
                    };
                    match out {
                        None | Some(StepOutcome::Retired) => {}
                        Some(outcome) => break outcome,
                    }
                }
            };
            let referenced = |addr| a.entry(addr).unwrap().flags & F_REFERENCED != 0;
            let reads = std::mem::take(&mut reads.lock().unwrap().0);
            let seen = (
                outcome,
                cpu.clone(),
                a.stats.tlb_hits,
                a.stats.tlb_misses,
                referenced(TEXT),
                referenced(data),
                reads,
            );
            (seen, a.bbcache().stats())
        };
        for armed in [false, true] {
            let (off, _) = run(false, u64::MAX, armed);
            for budget in [u64::MAX, 1, 3, 4] {
                let (on, bb) = run(true, budget, armed);
                if budget == u64::MAX {
                    assert_eq!(
                        bb.hits,
                        u64::from(ITERS) - 1,
                        "the loop replays from the cache"
                    );
                }
                assert_eq!(
                    on, off,
                    "block path (budget {budget}, armed {armed}) and fetch+decode disagree"
                );
            }
            assert_eq!(off.0, StepOutcome::Break(0));
            assert_eq!(off.1.reg(Reg(9)), 9);
            assert_eq!(off.1.reg(Reg(17)), 5 * ITERS);
            assert_eq!(off.1.reg(Reg(18)), 10);
            // Per iteration: the lw evicts the text entry, so the addi
            // after it refills it, the sw evicts it again, and the xor's
            // fetch refills it.
            assert!(off.3 >= 2 * u64::from(ITERS), "misses {}", off.3);
            assert!(off.4 && off.5, "both pages referenced");
            let shared_pc = TEXT + 4 * SHARED_LW;
            let want = if armed { ITERS as usize } else { 0 };
            assert_eq!(off.6.len(), want, "one shared read per iteration");
            assert!(
                off.6
                    .iter()
                    .all(|&(pc, _, off)| pc == shared_pc && off == 8),
                "shared reads attributed to the load: {:?}",
                off.6
            );
        }
    }
}
