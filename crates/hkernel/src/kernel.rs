//! The kernel proper: scheduling, system calls, fork/exec/exit/wait,
//! semaphores, file locking, and guest signal delivery.
//!
//! The kernel is deliberately ignorant of linking: SIGSEGV-class faults
//! and syscalls numbered ≥ [`crate::syscall::SERVICE_BASE`] are returned
//! to the embedder as [`RunEvent`]s. The `hemlock` core crate implements
//! the paper's user-level machinery on top of these two hooks — exactly
//! the division of labor in the paper, where the fault handler and `ldl`
//! are a *library*, not kernel code.

use crate::event::TraceEvent;
use crate::layout;
use crate::mem::{AddressSpace, EvictOutcome, FramePool, MemBus, MemError, Prot};
use crate::monitor::{AccessCtx, MonitorRef, SyncEdge};
use crate::process::{Block, Pid, ProcState, Process};
use crate::syscall::{Sys, O_CREAT, O_TRUNC, O_WRONLY, SERVICE_BASE};
use hsfs::fs::{LockKind, NodeKind};
use hsfs::path as fspath;
use hsfs::vfs::{Mount, Vfs, Vnode};
use hsfs::{FsError, PAGE_SIZE};
use hvm::{BlockTable, Bus, Cpu, Fault, Instr, Reg, Source, StepOutcome};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// A minimal executable description, independent of the linker's richer
/// on-disk format (the core crate lowers a `hobj::LoadImage` to this).
#[derive(Clone, Debug, Default)]
pub struct ExecImage {
    /// Program name (diagnostics).
    pub name: String,
    /// Base of text (page-aligned).
    pub text_base: u32,
    /// Text bytes.
    pub text: Vec<u8>,
    /// Base of data (page-aligned).
    pub data_base: u32,
    /// Data bytes.
    pub data: Vec<u8>,
    /// Bytes of zeroed memory following the data.
    pub bss_size: u32,
    /// Entry point.
    pub entry: u32,
}

/// Why `step_system` returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunEvent {
    /// The scheduled process used its whole quantum (or yielded).
    Quantum(Pid),
    /// A process exited with a status.
    Exited(Pid, i32),
    /// A SIGSEGV-class fault the embedder must resolve (map a segment,
    /// run the lazy linker, deliver to a guest handler, or kill).
    Segv { pid: Pid, fault: Fault },
    /// A syscall at or above `SERVICE_BASE`; the embedder services it,
    /// writes results into the registers, and resumes.
    Service { pid: Pid, num: u32 },
    /// The process executed `break`.
    Break { pid: Pid, code: u32 },
    /// The scheduled process blocked.
    Blocked(Pid),
    /// A fatal fault (illegal instruction, divide by zero, unaligned).
    Fatal { pid: Pid, fault: Fault },
    /// Every process has exited (or none exist).
    AllExited,
    /// Live processes exist but all are blocked — a deadlock.
    Deadlock,
    /// The frame pool and swap area were both exhausted: the
    /// deterministic OOM killer terminated `pid` (the largest-resident
    /// process, ties broken toward the lowest pid), reclaiming its
    /// `resident` pages immediately.
    OomKill { pid: Pid, resident: u64 },
}

/// A process birth or death, journaled for the embedder so that state
/// it keeps per process is born and reaped with the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lifecycle {
    /// `fork` made `child` from `parent`.
    Forked { parent: Pid, child: Pid },
    /// The process left the table (exit, kill, OOM, refused spawn).
    Exited(Pid),
}

/// Kernel-level activity counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Total instructions retired across all processes.
    pub instructions: u64,
    /// System calls handled (kernel ones; services not included).
    pub syscalls: u64,
    /// Service calls forwarded to the embedder.
    pub services: u64,
    /// SIGSEGV-class faults surfaced.
    pub segv_faults: u64,
    /// Forks performed.
    pub forks: u64,
    /// Scheduler dispatches.
    pub dispatches: u64,
    /// Pages copied on write, by a guest store or a kernel-side write
    /// (the machine total: the bus and `write_bytes` count here).
    pub cow_copies: u64,
    /// Bus accesses whose translation the software TLB served (the
    /// machine total).
    pub tlb_hits: u64,
    /// Bus accesses that walked the page table and refilled the TLB
    /// (the machine total).
    pub tlb_misses: u64,
    /// Inter-processor interrupts sent by the TLB-shootdown protocol
    /// (one per remote CPU notified; a chaos-dropped IPI counts its
    /// retransmission too). Always 0 on a single-CPU kernel.
    pub ipis: u64,
    /// Remote TLB entries invalidated by shootdowns. Always 0 on a
    /// single-CPU kernel.
    pub shootdowns: u64,
    /// Times an idle CPU stole a runnable process whose context last
    /// ran on a different CPU (the migration costs it a cold TLB).
    pub cross_cpu_steals: u64,
}

struct Sem {
    count: i32,
    waiters: VecDeque<Pid>,
}

enum SysCtl {
    /// Continue executing the current process.
    Continue,
    /// Stop the slice and report this event.
    Event(RunEvent),
}

/// Scheduler state of one simulated CPU for the current round.
#[derive(Clone, Copy, Debug, Default)]
struct CpuSlot {
    /// The process bound to this CPU for the round (`None` = idle).
    pid: Option<Pid>,
    /// Instructions consumed from this round's per-CPU quantum.
    used: u64,
    /// The CPU is finished for the round: quantum exhausted, or its
    /// process surfaced an event (the rest of the quantum is forfeited,
    /// exactly as a single-CPU slice ends at its first event).
    done: bool,
}

/// The simulated kernel.
pub struct Kernel {
    /// The unified file namespace (root + shared partition).
    pub vfs: Vfs,
    /// Process table: live processes only. `exit` removes its caller.
    pub procs: BTreeMap<Pid, Process>,
    /// Each exited process's exit record, its status and console. It
    /// survives power cuts.
    exits: BTreeMap<Pid, (i32, Box<[u8]>)>,
    /// `(parent, child)` for every exited child its live parent has not
    /// yet waited for; a parent's entries go when it exits.
    waitable: BTreeSet<(Pid, Pid)>,
    /// Forks and exits since the last drain, in occurrence order.
    lifecycle: Vec<Lifecycle>,
    next_pid: Pid,
    sems: BTreeMap<u32, Sem>,
    next_sem: u32,
    rr_cursor: Pid,
    /// Activity counters.
    pub stats: KernelStats,
    /// Chaos hook, propagated to the vfs and every address space.
    faults: hfault::FaultHandle,
    /// Sanitizer hook: observes shared-page traffic and sync edges.
    /// `None` (the default) costs one branch per shared access.
    monitor: Option<MonitorRef>,
    /// The bounded physical frame pool, shared by every address space.
    pool: FramePool,
    /// Second-chance clock hand: where the last eviction scan stopped
    /// (pid, next vpn), so pressure rotates fairly across processes.
    clock: Option<(Pid, u32)>,
    /// Per-CPU scheduler state. Length = the simulated CPU count; the
    /// default single slot reproduces the classic one-process-per-slice
    /// scheduler byte for byte.
    slots: Vec<CpuSlot>,
    /// The CPU whose sub-quantum runs next within the current round.
    cur_cpu: usize,
    /// A scheduling round is in progress (some CPU still has budget).
    round_active: bool,
    /// Cross-CPU scheduler records (`TlbShootdown`, `CpuSteal`) since
    /// the last drain. Empty on a single-CPU kernel.
    smp_journal: Vec<(Pid, TraceEvent)>,
    /// Every decoded block, keyed by text source, with the block-cache
    /// switch (on by default), the block totals and the drop journal
    /// (DESIGN.md §12). Emptied by power cuts and `set_bbcache(false)`.
    blocks: BlockTable,
    /// Prelink snapshot caching (DESIGN.md §15): on by default, the
    /// linker consults it before every init-time resolve.
    link_snapshots: bool,
    /// Executables whose prelink snapshot was already consulted this
    /// boot. Real prelink systems validate their cache once per boot;
    /// after that, same-boot respawns ride the kernel's hot in-RAM
    /// link state and never touch (or bill for) the snapshot again.
    /// Cleared by the world on every reboot.
    snap_consulted: BTreeSet<String>,
}

/// A stable identity for a mutual-exclusion lock object, for
/// [`SyncEdge::LockAcquire`]/[`SyncEdge::LockRelease`]: the mount in the
/// high bit, the inode below.
fn lock_key(v: Vnode) -> u64 {
    let mount = match v.mount {
        Mount::Root => 0u64,
        Mount::Shared => 1u64,
    };
    mount << 32 | v.ino as u64
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

/// Ways of the per-slice block-dispatch memo in `run_slice_counted`.
/// Four cover the two-block loops typical guest code runs (bound check
/// plus body) with room for a call and its return.
const MEMO_WAYS: usize = 4;

/// One dispatch-memo way: `(entry_pc, mutation_stamp, code)`.
type MemoWay = Option<(u32, u64, Arc<[Instr]>)>;

const EBADF: i32 = 9;
const ECHILD: i32 = 10;
const EFAULT: i32 = 14;
const EINVAL: i32 = 22;

fn fs_err(e: FsError) -> i32 {
    -e.errno()
}

impl Kernel {
    /// Creates a kernel with a fresh namespace and no processes.
    pub fn new() -> Kernel {
        Kernel {
            vfs: Vfs::new(),
            procs: BTreeMap::new(),
            exits: BTreeMap::new(),
            waitable: BTreeSet::new(),
            lifecycle: Vec::new(),
            next_pid: 1,
            sems: BTreeMap::new(),
            next_sem: 1,
            rr_cursor: 0,
            stats: KernelStats::default(),
            faults: hfault::FaultHandle::unarmed(),
            monitor: None,
            pool: FramePool::default(),
            clock: None,
            slots: vec![CpuSlot::default()],
            cur_cpu: 0,
            round_active: false,
            smp_journal: Vec::new(),
            blocks: BlockTable::default(),
            link_snapshots: true,
            snap_consulted: BTreeSet::new(),
        }
    }

    /// Enables or disables decoded basic-block caching for every space.
    /// Disabling empties the block table silently, so switching is
    /// unobservable.
    pub fn set_bbcache(&mut self, enabled: bool) {
        self.blocks.set_enabled(enabled);
    }

    /// Enables or disables prelink snapshot caching (DESIGN.md §15).
    /// Off means the linker never reads nor writes snapshot files — a
    /// cold resolve every time, byte-identical to the pre-snapshot
    /// system.
    pub fn set_link_snapshots(&mut self, enabled: bool) {
        self.link_snapshots = enabled;
    }

    /// True if the linker should consult prelink snapshots.
    pub fn link_snapshots_enabled(&self) -> bool {
        self.link_snapshots
    }

    /// Records that `exe`'s snapshot is being consulted and reports
    /// whether this is the first consult since boot. The linker calls
    /// this to validate each executable's snapshot exactly once per
    /// boot — later same-boot inits take the ordinary resolve path.
    pub fn first_snapshot_consult(&mut self, exe: &str) -> bool {
        self.snap_consulted.insert(exe.to_string())
    }

    /// Forgets which snapshots were consulted. The world calls this on
    /// reboot so every executable re-validates against the (possibly
    /// changed) on-disk state exactly once in the new boot.
    pub fn clear_snapshot_consults(&mut self) {
        self.snap_consulted.clear();
    }

    /// Maps a pre-resolved module segment recorded by a validated
    /// prelink snapshot: straight to its slot address with the recorded
    /// protection, skipping the registry and metadata reads of a full
    /// link. The caller (the linker) has already proven the segment's
    /// content matches the snapshot's digest.
    pub fn map_prelinked(
        &mut self,
        pid: Pid,
        base: u32,
        len: u32,
        prot: Prot,
        ino: hsfs::Ino,
    ) -> Result<(), FsError> {
        let proc = self.procs.get_mut(&pid).ok_or(FsError::NotFound)?;
        proc.aspace
            .map_shared(base, len, prot, ino, 0)
            .map_err(|_| FsError::Busy)
    }

    /// Drains the block table's drop journal, in occurrence order, as
    /// `BlockInvalidated` records of the pids that found the drops.
    #[expect(clippy::disallowed_methods, reason = "the drop journal's one reader")]
    pub fn drain_bb_events(&mut self) -> Vec<(Pid, TraceEvent)> {
        let journal = self.blocks.drain_journal().into_iter();
        let record = |ev: hvm::BbInvalidation| {
            let event = TraceEvent::BlockInvalidated {
                addr: ev.addr,
                blocks: ev.blocks,
                cause: ev.cause,
                journaled: ev.journaled,
            };
            (ev.pid, event)
        };
        journal.map(record).collect()
    }

    /// Sets the number of simulated CPUs (clamped to `1..=64`). The
    /// default of 1 keeps the classic scheduler; with N CPUs each
    /// scheduling round binds up to N runnable processes (affinity
    /// first, idle CPUs steal the rest) and advances them in lockstep
    /// sub-quanta of `quantum / N` instructions, interleaved in CPU
    /// index order. Resets any round in progress, so call it before
    /// running, not mid-slice.
    pub fn set_cpus(&mut self, n: u32) {
        let n = n.clamp(1, 64) as usize;
        self.slots = vec![CpuSlot::default(); n];
        self.cur_cpu = 0;
        self.round_active = false;
    }

    /// The simulated CPU count.
    pub fn cpus(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Drains cross-CPU scheduler events (shootdowns, steals) journaled
    /// since the last drain, in occurrence order.
    pub fn drain_smp_events(&mut self) -> Vec<(Pid, TraceEvent)> {
        std::mem::take(&mut self.smp_journal)
    }

    /// Drains the forks and exits journaled since the last drain, in
    /// occurrence order (a power cut empties the journal unread).
    pub fn drain_lifecycle(&mut self) -> Vec<Lifecycle> {
        std::mem::take(&mut self.lifecycle)
    }

    /// The kernel's table of decoded blocks, which also keeps the
    /// block-cache totals (`built`, `hits`).
    pub fn block_table(&self) -> &BlockTable {
        &self.blocks
    }

    /// The kernel's frame pool (budget configuration and statistics).
    pub fn frame_pool(&self) -> &FramePool {
        &self.pool
    }

    /// The power cut, kernel side: every process dies instantly, and
    /// semaphores, pending waits, the scheduler round, the clock hand,
    /// the fork/exit journal, all frame/swap residency and the block
    /// table's blocks and unread journal vanish. The blocks must: the
    /// file system's power cut restarts its write epochs, so old stamps
    /// would alias. The root file system's advisory locks go too; the
    /// shared partition's go in its own `FileSystem::power_cut`.
    /// Configuration (CPU count, budgets, cache enablement), the
    /// activity and block totals, the exit records and the monotonic
    /// pid generator survive — they model the machine and its history,
    /// not its RAM.
    pub fn power_cut(&mut self) {
        self.procs.clear();
        self.waitable.clear();
        self.lifecycle.clear();
        self.sems.clear();
        self.rr_cursor = 0;
        self.clock = None;
        let n = self.slots.len();
        self.slots = vec![CpuSlot::default(); n];
        self.cur_cpu = 0;
        self.round_active = false;
        self.smp_journal.clear();
        self.blocks.flush();
        self.pool.reset_volatile();
        self.vfs.root.unlock_everything();
    }

    /// Arms deterministic fault injection across the whole kernel: both
    /// file systems and every present *and future* address space share
    /// the one handle (and so one decision stream). See DESIGN.md §8.
    pub fn arm_faults(&mut self, faults: hfault::FaultHandle) {
        self.vfs.arm_faults(faults.clone());
        for proc in self.procs.values_mut() {
            proc.aspace.arm_faults(faults.clone());
        }
        self.faults = faults;
    }

    /// The kernel's fault handle (unarmed by default).
    pub fn faults_handle(&self) -> &hfault::FaultHandle {
        &self.faults
    }

    /// Installs a [`crate::monitor::Monitor`]: from now on every guest
    /// data access that reaches a shared page, and every kernel-mediated
    /// synchronization edge, is reported to it. Purely observational —
    /// guest-visible behavior and all cost-model counters are unchanged.
    pub fn set_monitor(&mut self, monitor: MonitorRef) {
        self.monitor = Some(monitor);
    }

    /// Reports a sync edge to the installed monitor, if any.
    fn edge(&mut self, edge: SyncEdge) {
        if let Some(m) = &self.monitor {
            // invariant: the monitor mutex is never held across a call
            // into the kernel, so it can only be poisoned by a panic
            // already in flight.
            m.lock().unwrap().sync_edge(edge);
        }
    }

    /// Creates an empty process (no mappings); the caller execs into it.
    pub fn spawn(&mut self, uid: u32) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        let mut proc = Process::new(pid, 0, uid);
        proc.aspace.arm_faults(self.faults.clone());
        proc.aspace.attach_pool(&self.pool);
        self.procs.insert(pid, proc);
        pid
    }

    /// Loads `image` into `pid`'s (replaced) address space: text and
    /// data/bss/heap in the private regions, a fresh stack, PC at entry.
    pub fn exec_image(&mut self, pid: Pid, image: &ExecImage) -> Result<(), MemError> {
        let page = PAGE_SIZE;
        let round = |n: u32| n.div_ceil(page) * page;
        // invariant: exec is a host-side embedder call whose pid came
        // from `spawn`; the embedder owns the lifecycle between the two.
        let proc = self.procs.get_mut(&pid).expect("exec of a live process");
        // The new space counts its text epochs from zero again, so the
        // old image's blocks must not outlive it.
        self.blocks.drop_source(Source::space(pid));
        proc.aspace = AddressSpace::new();
        proc.aspace.arm_faults(self.faults.clone());
        proc.aspace.attach_pool(&self.pool);
        proc.cpu = Cpu::new();
        proc.image_name = image.name.clone();
        if !image.text.is_empty() {
            proc.aspace
                .map_anon(image.text_base, round(image.text.len() as u32), Prot::RX)?;
        }
        let data_len = round(image.data.len() as u32 + image.bss_size);
        if data_len > 0 {
            proc.aspace.map_anon(image.data_base, data_len, Prot::RW)?;
        }
        proc.aspace.map_anon(
            layout::STACK_TOP - layout::STACK_SIZE,
            layout::STACK_SIZE,
            Prot::RW,
        )?;
        proc.brk = round(image.data_base + image.data.len() as u32 + image.bss_size);
        proc.heap_end = proc.brk;
        let (aspace, shared, totals) = (&mut proc.aspace, &mut self.vfs.shared, &mut self.stats);
        if !image.text.is_empty() {
            aspace.write_bytes(shared, totals, image.text_base, &image.text)?;
        }
        if !image.data.is_empty() {
            aspace.write_bytes(shared, totals, image.data_base, &image.data)?;
        }
        proc.cpu.pc = image.entry;
        proc.cpu.set_reg(Reg::SP, layout::STACK_TOP - 64);
        proc.cpu.set_reg(Reg::FP, layout::STACK_TOP - 64);
        Ok(())
    }

    /// Runs the system: wakes what can be woken, dispatches runnable
    /// processes for up to `quantum` instructions each, and reports why
    /// the run stopped.
    ///
    /// With one CPU (the default) every call is one classic slice:
    /// rebalance, wake, pick the next runnable process round-robin, run
    /// it for a quantum. With N CPUs the same call drives a *round*: up
    /// to N processes are bound to CPUs (affinity first, idle CPUs
    /// steal), then advance in lockstep sub-quanta of `quantum / N`
    /// instructions in CPU index order — the fixed interleave that makes
    /// same-quantum contention deterministic. The first event from any
    /// CPU is returned (that CPU forfeits its remaining quantum, like a
    /// single-CPU slice ending early); the round resumes on the next
    /// call until every CPU is done.
    pub fn step_system(&mut self, quantum: u64) -> RunEvent {
        if self.round_active && self.slots.iter().all(|s| s.done || s.pid.is_none()) {
            self.round_active = false;
        }
        if !self.round_active {
            if let Some(ev) = self.rebalance() {
                return ev;
            }
            self.poll_blocked();
            if !self.begin_round() {
                let any_blocked = self
                    .procs
                    .values()
                    .any(|p| matches!(p.state, ProcState::Blocked(_)));
                return if any_blocked {
                    RunEvent::Deadlock
                } else {
                    RunEvent::AllExited
                };
            }
        }
        self.run_round(quantum)
    }

    /// Binds up to one runnable process per CPU for a new round. The
    /// processes are *selected* round-robin (continuing after the last
    /// cursor position, exactly like the single-CPU pick) and *placed*
    /// by affinity: a process whose home CPU is free keeps it, and idle
    /// CPUs steal the remainder in index order — a migration that costs
    /// the stolen context its warm TLB. Returns false when nothing is
    /// runnable.
    fn begin_round(&mut self) -> bool {
        let chosen = self.select_runnable(self.slots.len());
        if chosen.is_empty() {
            return false;
        }
        for s in &mut self.slots {
            *s = CpuSlot::default();
        }
        let mut leftover: Vec<Pid> = Vec::new();
        for &pid in &chosen {
            match self.procs[&pid].cpu.last_cpu {
                Some(c)
                    if (c as usize) < self.slots.len() && self.slots[c as usize].pid.is_none() =>
                {
                    self.slots[c as usize].pid = Some(pid);
                }
                _ => leftover.push(pid),
            }
        }
        let free: Vec<usize> = (0..self.slots.len())
            .filter(|&c| self.slots[c].pid.is_none())
            .collect();
        for (&pid, &c) in leftover.iter().zip(free.iter()) {
            let c = c as u32;
            // invariant: selection size is bounded by the CPU count, so
            // every leftover process finds a free slot.
            let proc = self.procs.get_mut(&pid).expect("selected pid is live");
            if let Some(from) = proc.cpu.last_cpu {
                if from != c {
                    self.stats.cross_cpu_steals += 1;
                    let event = TraceEvent::CpuSteal {
                        cpu: c,
                        from_cpu: from,
                    };
                    self.smp_journal.push((pid, event));
                    // Per-CPU TLBs: the context arrives cold on its new
                    // CPU; its entries on the old one die by disuse.
                    proc.aspace.tlb_migrate_flush();
                }
            }
            proc.cpu.last_cpu = Some(c);
            self.slots[c as usize].pid = Some(pid);
        }
        for c in 0..self.slots.len() {
            if let Some(pid) = self.slots[c].pid {
                self.stats.dispatches += 1;
                // The dispatched process is about to execute its
                // restarted instructions, so any pages pinned by
                // fault-time repage can age normally from here on.
                if let Some(proc) = self.procs.get_mut(&pid) {
                    proc.aspace.unpin_all();
                }
            }
        }
        self.cur_cpu = 0;
        self.round_active = true;
        true
    }

    /// Advances the current round: bound CPUs run sub-quanta of
    /// `quantum / cpus` instructions in CPU index order until one
    /// surfaces an event (ending that CPU's round) or every quantum is
    /// spent. With one CPU the sub-quantum is the whole quantum — one
    /// classic slice.
    fn run_round(&mut self, quantum: u64) -> RunEvent {
        let n = self.slots.len();
        let subq = quantum.div_ceil(n as u64).max(1);
        let mut last_ran: Option<Pid> = None;
        loop {
            let Some(c) = (0..n)
                .map(|i| (self.cur_cpu + i) % n)
                .find(|&c| !self.slots[c].done && self.slots[c].pid.is_some())
            else {
                self.round_active = false;
                // invariant: a round always enters this loop with at
                // least one bound, not-done slot, so something ran
                // before the round completed.
                return RunEvent::Quantum(last_ran.expect("round ran a process"));
            };
            // invariant: the cyclic search above only yields slots whose
            // `pid` is bound (`done` slots and empty slots are skipped).
            let pid = self.slots[c].pid.expect("slot filtered as bound");
            let budget = subq.min(quantum - self.slots[c].used);
            let (steps, ev) = self.run_slice_counted(pid, budget, c as u32);
            self.slots[c].used += steps;
            last_ran = Some(pid);
            if self.slots[c].used >= quantum {
                self.slots[c].done = true;
            }
            self.cur_cpu = (c + 1) % n;
            if let Some(ev) = ev {
                self.slots[c].done = true;
                if self.slots.iter().all(|s| s.done || s.pid.is_none()) {
                    self.round_active = false;
                }
                return ev;
            }
        }
    }

    /// Rebalances the frame pool at the slice boundary. Materialization
    /// may overshoot the budget mid-slice (the safety valve that makes
    /// forward progress unconditional); this is where the overshoot is
    /// paid back. When a full clock rotation frees nothing — every
    /// remaining anonymous page found swap full — the deterministic OOM
    /// killer fires.
    fn rebalance(&mut self) -> Option<RunEvent> {
        if self.procs.is_empty() || !self.pool.over_budget() {
            return None;
        }
        while self.pool.over_budget() {
            if !self.evict_one() {
                // Reclaim may be merely *deferred*: pages pinned by
                // fault-time repage become evictable again at their
                // owner's next dispatch, so an overshoot covered by
                // pins is tolerated for a boundary instead of killing —
                // OOM is reserved for genuine exhaustion (anon pages
                // with the swap area full). A pinned victim could also
                // be holding a user-space spin lock; killing it would
                // hang every other process on a dead owner's word.
                let reclaim_pending = self.procs.values().any(|p| p.aspace.pinned_pages() > 0);
                if reclaim_pending {
                    break;
                }
                return Some(self.oom_kill());
            }
        }
        None
    }

    /// Evicts one page somewhere in the system, rotating the clock hand
    /// across processes in pid order. Returns `false` when two full
    /// rotations (the first may only clear referenced bits) found
    /// nothing evictable.
    fn evict_one(&mut self) -> bool {
        let pids: Vec<Pid> = self.procs.keys().copied().collect();
        if pids.is_empty() {
            return false;
        }
        let (hand_pid, hand_vpn) = self.clock.unwrap_or((pids[0], 0));
        let start = pids.iter().position(|&p| p >= hand_pid).unwrap_or(0);
        // 2N+1 visits: every page gets its second chance during the
        // first rotation, and the +1 re-covers the pages below the hand
        // in the starting process.
        for step in 0..=pids.len() * 2 {
            let pid = pids[(start + step) % pids.len()];
            let mut from = if step == 0 { hand_vpn } else { 0 };
            loop {
                // invariant: collected from `procs` above; eviction
                // never removes a process entry.
                let proc = self.procs.get_mut(&pid).expect("live pid");
                let Some(vpn) = proc.aspace.clock_scan(from) else {
                    break;
                };
                match proc.aspace.evict_page(pid, vpn, &mut self.vfs.shared) {
                    EvictOutcome::Evicted => {
                        let cpu = proc.cpu.last_cpu;
                        self.shootdown(pid, cpu, vpn * PAGE_SIZE, 1);
                        self.clock = Some((pid, vpn + 1));
                        return true;
                    }
                    // Swap full, or chaos failed the swap/writeback
                    // I/O: skip this page, a droppable shared page may
                    // still be ahead.
                    _ => from = vpn + 1,
                }
            }
        }
        false
    }

    /// The deterministic OOM policy: kill the largest-resident live
    /// process (ties broken toward the lowest pid), reclaim its memory
    /// immediately, and report the kill. Exit code 137 mirrors a
    /// SIGKILL death.
    fn oom_kill(&mut self) -> RunEvent {
        let victim = self
            .procs
            .iter()
            .max_by(|(ap, a), (bp, b)| {
                a.aspace
                    .resident_pages()
                    .cmp(&b.aspace.resident_pages())
                    .then_with(|| bp.cmp(ap))
            })
            .map(|(&pid, p)| (pid, p.aspace.resident_pages(), p.cpu.last_cpu));
        let Some((pid, resident, cpu)) = victim else {
            return RunEvent::AllExited;
        };
        // Like every exit, the kill frees the victim's frames at once.
        self.finalize_exit(pid, 137);
        // The mass reclaim tears down every translation the victim had
        // cached: one remote invalidation covering its resident set.
        self.shootdown(pid, cpu, 0, resident as u32);
        RunEvent::OomKill { pid, resident }
    }

    /// The TLB-shootdown protocol for eviction-path mapping changes.
    ///
    /// Round-boundary reclaim runs in kernel context on the boot CPU
    /// (CPU 0). If the victim process last ran on another CPU, its
    /// cached translations must die remotely: one IPI per notification
    /// (chaos may drop the first — `ShootdownDrop` — forcing a billed
    /// retransmission), one shootdown per page invalidated. On a
    /// single-CPU kernel, or when the victim's context is local to the
    /// boot CPU, the invalidation is a free local operation. A process's
    /// own `map`/`unmap`/`mprotect` calls execute on its current CPU and
    /// are likewise local; exit-time teardown retires the whole context
    /// lazily (ASID reuse) and never pays an IPI. `last_cpu` is the
    /// victim's (an OOM victim has already left the table).
    fn shootdown(&mut self, pid: Pid, last_cpu: Option<u32>, addr: u32, pages: u32) {
        const BOOT_CPU: u32 = 0;
        if self.slots.len() == 1 || pages == 0 {
            return;
        }
        let Some(victim_cpu) = last_cpu else {
            // Never dispatched: nothing cached on any CPU.
            return;
        };
        if victim_cpu == BOOT_CPU {
            return;
        }
        let retried = self.faults.should_inject(hfault::FaultSite::ShootdownDrop);
        self.stats.ipis += if retried { 2 } else { 1 };
        self.stats.shootdowns += pages as u64;
        // The victim's decoded blocks for those pages are already gone:
        // `evict_page` dropped them, and an OOM victim's cache was
        // released with its space.
        let event = TraceEvent::TlbShootdown {
            from_cpu: BOOT_CPU,
            to_cpu: victim_cpu,
            addr,
            pages,
            retried,
        };
        self.smp_journal.push((pid, event));
    }

    /// Picks up to `n` distinct runnable pids in round-robin order,
    /// continuing after the last cursor position. With `n == 1` this is
    /// the classic pick-next-runnable cursor walk.
    fn select_runnable(&mut self, n: usize) -> Vec<Pid> {
        let runnable: Vec<Pid> = self
            .procs
            .iter()
            .filter(|(_, p)| matches!(p.state, ProcState::Runnable))
            .map(|(&pid, _)| pid)
            .collect();
        if runnable.is_empty() {
            return Vec::new();
        }
        let start = runnable
            .iter()
            .position(|&p| p > self.rr_cursor)
            .unwrap_or(0);
        let take = runnable.len().min(n);
        let chosen: Vec<Pid> = (0..take)
            .map(|i| runnable[(start + i) % runnable.len()])
            .collect();
        // invariant: take >= 1 because the runnable list is non-empty.
        self.rr_cursor = *chosen.last().expect("non-empty selection");
        chosen
    }

    /// Runs one process on simulated CPU `cpu` for up to `budget`
    /// instructions. Returns the instructions consumed and the event
    /// that ended the run early (`None` means the budget was exhausted
    /// without incident).
    fn run_slice_counted(&mut self, pid: Pid, budget: u64, cpu: u32) -> (u64, Option<RunEvent>) {
        let mut steps = 0u64;
        // Dispatch memo: `MEMO_WAYS` ways of `bb_block` results with the
        // stamp they were returned under, way chosen by the entry
        // pc's word index. A guest loop re-enters the same few blocks
        // every iteration (a scan loop is two: the bound check and the
        // body); while the table's mutation stamp (the bus's text
        // epoch) stands still, `bb_block` would provably return the same
        // `Arc` for that pc, so we skip the page and map walks, account
        // the hit, and lend the memo's code to `run_block` without
        // touching its refcount. The memo lives strictly within this
        // slice (no other process runs mid-slice) and is cleared on any
        // non-retiring outcome — syscalls and faults can renew epochs,
        // and change mappings and files, without moving the stamp.
        let mut memo: [MemoWay; MEMO_WAYS] = Default::default();
        while steps < budget {
            let (block_ran, outcome) = {
                let proc = match self.procs.get_mut(&pid) {
                    Some(p) if matches!(p.state, ProcState::Runnable) => p,
                    _ => return (steps, Some(RunEvent::Blocked(pid))),
                };
                let ctx = AccessCtx {
                    pid,
                    pc: proc.cpu.pc,
                    uid: proc.uid,
                    cpu,
                };
                let (aspace, shared, blocks, totals) = (
                    &mut proc.aspace,
                    &mut self.vfs.shared,
                    &mut self.blocks,
                    &mut self.stats,
                );
                let mut bus = match &self.monitor {
                    Some(monitor) => MemBus::observed(aspace, shared, blocks, totals, ctx, monitor),
                    None => MemBus::attributed(aspace, shared, blocks, totals, ctx),
                };
                // Fast path: replay decoded blocks, capped at the
                // remaining budget so blocks never straddle a (sub-)
                // quantum boundary — SMP interleaving is unchanged.
                // A block that retires completely chains straight into
                // the next lookup *inside this same borrow*: the
                // per-dispatch proc/bus setup is paid once per chain,
                // not once per block (call-heavy code averages a
                // handful of instructions per block). `fetch_check`
                // re-stamps the access context's pc before every load
                // and store, and `fetch` before a stepped instruction,
                // so attribution follows the chain. State transitions
                // only happen inside syscalls, which terminate blocks
                // and end the chain, so the Runnable check above holds
                // for every instruction the chain retires. `None` from
                // the cache falls back to the classic fetch+decode
                // step, one instruction per setup, exactly as before.
                let mut ran = 0u64;
                let outcome = loop {
                    if steps + ran >= budget {
                        break None;
                    }
                    let pc = proc.cpu.pc;
                    let left = budget - steps - ran;
                    let way = &mut memo[(pc >> 2) as usize % MEMO_WAYS];
                    let (n, out) = match way {
                        Some((mpc, stamp, code)) if *mpc == pc && *stamp == bus.text_epoch() => {
                            bus.bb_count_hit();
                            proc.cpu.run_block(&mut bus, code, left)
                        }
                        _ => match bus.bb_block(pc) {
                            Some(code) => {
                                // Stamp *before* running: a drop
                                // triggered by the block's own stores
                                // (store-to-exec) must invalidate the
                                // memo, and re-stamping afterwards
                                // would hide it.
                                let (_, _, code) = way.insert((pc, bus.text_epoch(), code));
                                proc.cpu.run_block(&mut bus, code, left)
                            }
                            None => break Some(proc.cpu.step(&mut bus)),
                        },
                    };
                    ran += n;
                    if out.is_some() {
                        break out;
                    }
                };
                (ran, outcome)
            };
            steps += block_ran;
            self.stats.instructions += block_ran;
            let Some(outcome) = outcome else {
                continue;
            };
            // Any outcome other than plain block completion can change
            // mappings or file contents out from under the memo.
            memo = Default::default();
            match outcome {
                StepOutcome::Retired => {
                    steps += 1;
                    self.stats.instructions += 1;
                }
                StepOutcome::Syscall => {
                    steps += 1;
                    self.stats.instructions += 1;
                    match self.dispatch_syscall(pid) {
                        SysCtl::Continue => {}
                        SysCtl::Event(ev) => return (steps, Some(ev)),
                    }
                }
                StepOutcome::Break(code) => {
                    self.stats.instructions += 1;
                    return (steps, Some(RunEvent::Break { pid, code }));
                }
                StepOutcome::Fault(fault) => {
                    if fault.is_segv() {
                        self.stats.segv_faults += 1;
                        return (steps, Some(RunEvent::Segv { pid, fault }));
                    }
                    return (steps, Some(RunEvent::Fatal { pid, fault }));
                }
            }
        }
        (steps, None)
    }

    // --- register / memory helpers ---

    fn reg(&self, pid: Pid, r: Reg) -> u32 {
        self.procs[&pid].cpu.reg(r)
    }

    /// Sets a register in a process (used by the embedder to return
    /// service-call results).
    pub fn set_reg(&mut self, pid: Pid, r: Reg, val: u32) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.cpu.set_reg(r, val);
        }
    }

    fn ret(&mut self, pid: Pid, val: i32) {
        self.set_reg(pid, Reg::V0, val as u32);
    }

    fn ret2(&mut self, pid: Pid, val: u32) {
        self.set_reg(pid, Reg::V1, val);
    }

    fn read_str(&mut self, pid: Pid, addr: u32) -> Result<String, i32> {
        let proc = self.procs.get(&pid).ok_or(-EFAULT)?;
        proc.aspace
            .read_cstr(&self.vfs.shared, addr)
            .map_err(|_| -EFAULT)
    }

    fn abs_path(&mut self, pid: Pid, addr: u32) -> Result<String, i32> {
        let raw = self.read_str(pid, addr)?;
        let cwd = self.procs[&pid].cwd.clone();
        fspath::absolutize(&raw, &cwd).map_err(|e| -e.errno())
    }

    /// Copies bytes out to guest memory, returning EFAULT on unmapped.
    fn copy_out(&mut self, pid: Pid, addr: u32, data: &[u8]) -> Result<(), i32> {
        let proc = self.procs.get_mut(&pid).ok_or(-EFAULT)?;
        proc.aspace
            .write_bytes(&mut self.vfs.shared, &mut self.stats, addr, data)
            .map_err(|_| -EFAULT)
    }

    fn copy_in(&mut self, pid: Pid, addr: u32, len: usize) -> Result<Vec<u8>, i32> {
        let proc = self.procs.get(&pid).ok_or(-EFAULT)?;
        proc.aspace
            .read_bytes(&self.vfs.shared, addr, len)
            .map_err(|_| -EFAULT)
    }

    // --- syscall dispatch ---

    // invariant: `pid` is the process whose `syscall` instruction just
    // retired on this CPU; nothing between retirement and dispatch can
    // remove it from `procs`, so every `expect("caller")` lookup in the
    // dispatch tree (and the helpers it calls) is infallible.
    fn dispatch_syscall(&mut self, pid: Pid) -> SysCtl {
        let num = self.reg(pid, Reg::V0);
        if num >= SERVICE_BASE {
            self.stats.services += 1;
            return SysCtl::Event(RunEvent::Service { pid, num });
        }
        self.stats.syscalls += 1;
        let Some(sys) = Sys::from_num(num) else {
            // A number the kernel does not implement kills the issuing
            // process with a typed fault (never the whole world). The
            // `syscall` instruction has already retired, so the PC points
            // one past it.
            let addr = self.procs[&pid].cpu.pc.wrapping_sub(4);
            return SysCtl::Event(RunEvent::Fatal {
                pid,
                fault: Fault::BadSyscall { addr, num },
            });
        };
        let a0 = self.reg(pid, Reg::A0);
        let a1 = self.reg(pid, Reg::A1);
        let a2 = self.reg(pid, Reg::A2);
        match sys {
            Sys::Exit => {
                let code = a0 as i32;
                self.finalize_exit(pid, code);
                SysCtl::Event(RunEvent::Exited(pid, code))
            }
            Sys::Write => {
                let r = self.sys_write(pid, a0 as i32, a1, a2);
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Read => {
                let r = self.sys_read(pid, a0 as i32, a1, a2);
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Open => {
                let r = self.sys_open(pid, a0, a1);
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Close => {
                let r = match self
                    .procs
                    .get_mut(&pid)
                    .and_then(|p| p.fds.remove(&(a0 as i32)))
                {
                    Some(desc) => {
                        // flock locks die with the descriptor.
                        if self.vfs.unlock(desc.vnode, pid as u64).is_ok() {
                            self.edge(SyncEdge::LockRelease {
                                pid,
                                lock: lock_key(desc.vnode),
                            });
                        }
                        0
                    }
                    None => -EBADF,
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Fork => {
                let child_pid = self.next_pid;
                self.next_pid += 1;
                self.stats.forks += 1;
                let parent = self.procs.get_mut(&pid).expect("caller exists");
                parent.cpu.set_reg(Reg::V0, child_pid);
                let mut child = parent.fork_into(child_pid);
                child.cpu.set_reg(Reg::V0, 0);
                self.procs.insert(child_pid, child);
                self.lifecycle.push(Lifecycle::Forked {
                    parent: pid,
                    child: child_pid,
                });
                self.edge(SyncEdge::Fork {
                    parent: pid,
                    child: child_pid,
                });
                SysCtl::Continue
            }
            Sys::Getpid => {
                self.ret(pid, pid as i32);
                SysCtl::Continue
            }
            Sys::Getuid => {
                let uid = self.procs[&pid].uid;
                self.ret(pid, uid as i32);
                SysCtl::Continue
            }
            Sys::Sbrk => {
                let r = self.sys_sbrk(pid, a0 as i32);
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::PathToAddr => {
                let r = match self.abs_path(pid, a0) {
                    Ok(path) => match self.vfs.path_to_addr(&path) {
                        Ok(addr) => addr as i32,
                        Err(e) => fs_err(e),
                    },
                    Err(e) => e,
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::AddrToPath => {
                let r = match self.vfs.addr_to_path(a0) {
                    Ok((path, off)) => {
                        let mut bytes = path.into_bytes();
                        bytes.push(0);
                        if bytes.len() > a2 as usize {
                            -EINVAL
                        } else {
                            match self.copy_out(pid, a1, &bytes) {
                                Ok(()) => {
                                    self.ret2(pid, off);
                                    (bytes.len() - 1) as i32
                                }
                                Err(e) => e,
                            }
                        }
                    }
                    Err(e) => fs_err(e),
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::OpenByAddr => {
                let r = match self.vfs.addr_to_path(a0) {
                    Ok((path, _)) => self.open_at(pid, &path, O_WRONLY),
                    Err(e) => fs_err(e),
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::SemCreate => {
                let id = self.next_sem;
                self.next_sem += 1;
                self.sems.insert(
                    id,
                    Sem {
                        count: a0 as i32,
                        waiters: VecDeque::new(),
                    },
                );
                self.ret(pid, id as i32);
                SysCtl::Continue
            }
            Sys::SemP => match self.sems.get_mut(&a0) {
                Some(sem) if sem.count > 0 => {
                    sem.count -= 1;
                    self.edge(SyncEdge::SemAcquire { pid, sem: a0 });
                    self.ret(pid, 0);
                    SysCtl::Continue
                }
                Some(sem) => {
                    sem.waiters.push_back(pid);
                    self.procs.get_mut(&pid).expect("caller").state =
                        ProcState::Blocked(Block::Sem(a0));
                    SysCtl::Event(RunEvent::Blocked(pid))
                }
                None => {
                    self.ret(pid, -EINVAL);
                    SysCtl::Continue
                }
            },
            Sys::SemV => {
                let mut woken = None;
                let r = match self.sems.get_mut(&a0) {
                    Some(sem) => {
                        if let Some(waiter) = sem.waiters.pop_front() {
                            // Transfer the count directly to the waiter.
                            woken = Some(waiter);
                        } else {
                            // A guest can V in a loop forever; pinning at
                            // i32::MAX beats a debug-overflow panic.
                            sem.count = sem.count.saturating_add(1);
                        }
                        0
                    }
                    None => -EINVAL,
                };
                if r == 0 {
                    // V is a release; a directly-woken waiter's P is the
                    // matching acquire (emitted in that order so the
                    // happens-before edge transfers through the sem).
                    self.edge(SyncEdge::SemRelease { pid, sem: a0 });
                    if let Some(waiter) = woken {
                        if let Some(w) = self.procs.get_mut(&waiter) {
                            w.state = ProcState::Runnable;
                            w.cpu.set_reg(Reg::V0, 0);
                        }
                        self.edge(SyncEdge::SemAcquire {
                            pid: waiter,
                            sem: a0,
                        });
                    }
                }
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Sigaction => {
                let proc = self.procs.get_mut(&pid).expect("caller");
                let old = proc.segv_handler.unwrap_or(0);
                proc.segv_handler = if a0 == 0 { None } else { Some(a0) };
                self.ret(pid, old as i32);
                SysCtl::Continue
            }
            Sys::Sigreturn => {
                let proc = self.procs.get_mut(&pid).expect("caller");
                match proc.sig_saved.take() {
                    Some(saved) => {
                        let retired = proc.cpu.retired;
                        proc.cpu = *saved;
                        proc.cpu.retired = retired;
                        SysCtl::Continue
                    }
                    None => {
                        self.ret(pid, -EINVAL);
                        SysCtl::Continue
                    }
                }
            }
            Sys::Waitpid => {
                let target = if a0 == 0 { None } else { Some(a0) };
                match self.try_reap(pid, target) {
                    Some((child, status)) => {
                        self.ret2(pid, status as u32);
                        self.ret(pid, child as i32);
                        SysCtl::Continue
                    }
                    None => {
                        let has_children = self.procs.values().any(|p| p.ppid == pid)
                            || self.waitable_children(pid).next().is_some();
                        if !has_children {
                            self.ret(pid, -ECHILD);
                            SysCtl::Continue
                        } else {
                            self.procs.get_mut(&pid).expect("caller").state =
                                ProcState::Blocked(Block::Wait(target));
                            SysCtl::Event(RunEvent::Blocked(pid))
                        }
                    }
                }
            }
            Sys::Unlink => {
                let r = match self.abs_path(pid, a0) {
                    Ok(p) => self.vfs.unlink(&p).map(|_| 0).unwrap_or_else(fs_err),
                    Err(e) => e,
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Mkdir => {
                let uid = self.procs[&pid].uid;
                let r = match self.abs_path(pid, a0) {
                    Ok(p) => self
                        .vfs
                        .mkdir(&p, a1 as u16, uid)
                        .map(|_| 0)
                        .unwrap_or_else(fs_err),
                    Err(e) => e,
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Symlink => {
                let uid = self.procs[&pid].uid;
                let r = match (self.read_str(pid, a0), self.abs_path(pid, a1)) {
                    (Ok(target), Ok(link)) => self
                        .vfs
                        .symlink(&target, &link, uid)
                        .map(|_| 0)
                        .unwrap_or_else(fs_err),
                    (Err(e), _) | (_, Err(e)) => e,
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Creat => {
                let r = match self.abs_path(pid, a0) {
                    Ok(p) => self.open_at(pid, &p, O_WRONLY | O_CREAT | O_TRUNC),
                    Err(e) => e,
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Flock => {
                let fd = a0 as i32;
                let Some(desc) = self.procs[&pid].fds.get(&fd).cloned() else {
                    self.ret(pid, -EBADF);
                    return SysCtl::Continue;
                };
                if a1 == 2 {
                    if self.vfs.unlock(desc.vnode, pid as u64).is_ok() {
                        self.edge(SyncEdge::LockRelease {
                            pid,
                            lock: lock_key(desc.vnode),
                        });
                    }
                    self.ret(pid, 0);
                    return SysCtl::Continue;
                }
                let kind = if a1 == 1 {
                    LockKind::Exclusive
                } else {
                    LockKind::Shared
                };
                match self.vfs.try_lock(desc.vnode, kind, pid as u64) {
                    Ok(()) => {
                        self.edge(SyncEdge::LockAcquire {
                            pid,
                            lock: lock_key(desc.vnode),
                        });
                        self.ret(pid, 0);
                        SysCtl::Continue
                    }
                    Err(FsError::WouldBlock) => {
                        self.procs.get_mut(&pid).expect("caller").state =
                            ProcState::Blocked(Block::Lock {
                                vnode: desc.vnode,
                                kind,
                            });
                        SysCtl::Event(RunEvent::Blocked(pid))
                    }
                    Err(e) => {
                        self.ret(pid, fs_err(e));
                        SysCtl::Continue
                    }
                }
            }
            Sys::Ftruncate => {
                let fd = a0 as i32;
                let r = match self.procs[&pid].fds.get(&fd) {
                    Some(desc) if desc.writable => self
                        .vfs
                        .truncate_vnode(desc.vnode, a1 as u64)
                        .map(|_| 0)
                        .unwrap_or_else(fs_err),
                    Some(_) => -EBADF,
                    None => -EBADF,
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Yield => {
                self.ret(pid, 0);
                SysCtl::Event(RunEvent::Quantum(pid))
            }
            Sys::Time => {
                let t = self.procs[&pid].cpu.retired;
                self.ret2(pid, (t >> 31) as u32);
                self.ret(pid, (t & 0x7FFF_FFFF) as i32);
                SysCtl::Continue
            }
            Sys::Stat => {
                let r = match self.abs_path(pid, a0) {
                    Ok(p) => match self.vfs.stat(&p) {
                        Ok(meta) => {
                            self.ret2(pid, meta.ino);
                            meta.size.min(i32::MAX as u64) as i32
                        }
                        Err(e) => fs_err(e),
                    },
                    Err(e) => e,
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Getenv => {
                let r = match self.read_str(pid, a0) {
                    Ok(name) => match self.procs[&pid].env.get(&name).cloned() {
                        Some(val) => {
                            let mut bytes = val.into_bytes();
                            bytes.push(0);
                            if bytes.len() > a2 as usize {
                                -EINVAL
                            } else {
                                match self.copy_out(pid, a1, &bytes) {
                                    Ok(()) => (bytes.len() - 1) as i32,
                                    Err(e) => e,
                                }
                            }
                        }
                        None => -(FsError::NotFound.errno()),
                    },
                    Err(e) => e,
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Lseek => {
                let fd = a0 as i32;
                let r = {
                    let size = self.procs[&pid]
                        .fds
                        .get(&fd)
                        .map(|d| d.vnode)
                        .and_then(|v| self.vfs.metadata_vnode(v).ok())
                        .map(|m| m.size);
                    match (
                        self.procs.get_mut(&pid).and_then(|p| p.fds.get_mut(&fd)),
                        size,
                    ) {
                        (Some(desc), Some(size)) => {
                            // Saturating: the current offset can sit
                            // anywhere a previous lseek put it, so a
                            // guest-chosen delta must not overflow i64.
                            let new = match a2 {
                                0 => a1 as i64,
                                1 => (desc.offset as i64).saturating_add(a1 as i32 as i64),
                                2 => (size as i64).saturating_add(a1 as i32 as i64),
                                _ => -1,
                            };
                            if new < 0 {
                                -EINVAL
                            } else {
                                desc.offset = new as u64;
                                new.min(i32::MAX as i64) as i32
                            }
                        }
                        _ => -EBADF,
                    }
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Rename => {
                let r = match (self.abs_path(pid, a0), self.abs_path(pid, a1)) {
                    (Ok(old), Ok(new)) => self
                        .vfs
                        .rename(&old, &new)
                        .map(|_| 0)
                        .unwrap_or_else(fs_err),
                    (Err(e), _) | (_, Err(e)) => e,
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
            Sys::Readdir => {
                let fd = a0 as i32;
                let r = match self.procs[&pid].fds.get(&fd).map(|d| d.vnode) {
                    Some(v) => match self.vfs.path_of(v).and_then(|p| self.vfs.readdir(&p)) {
                        Ok(names) => match names.get(a1 as usize) {
                            Some(name) => {
                                let mut bytes = name.clone().into_bytes();
                                bytes.push(0);
                                let a3 = self.reg(pid, Reg::A3);
                                if bytes.len() > a3 as usize {
                                    -EINVAL
                                } else {
                                    match self.copy_out(pid, a2, &bytes) {
                                        Ok(()) => (bytes.len() - 1) as i32,
                                        Err(e) => e,
                                    }
                                }
                            }
                            None => 0,
                        },
                        Err(e) => fs_err(e),
                    },
                    None => -EBADF,
                };
                self.ret(pid, r);
                SysCtl::Continue
            }
        }
    }

    fn sys_write(&mut self, pid: Pid, fd: i32, buf: u32, len: u32) -> i32 {
        let len = len.min(1 << 20) as usize;
        let data = match self.copy_in(pid, buf, len) {
            Ok(d) => d,
            Err(e) => return e,
        };
        if fd == 1 || fd == 2 {
            self.procs
                .get_mut(&pid)
                .expect("caller")
                .console
                .extend_from_slice(&data);
            return len as i32;
        }
        let Some(desc) = self.procs[&pid].fds.get(&fd).cloned() else {
            return -EBADF;
        };
        if !desc.writable {
            return -EBADF;
        }
        match self.vfs.write_vnode(desc.vnode, desc.offset, &data) {
            Ok(()) => {
                if let Some(d) = self.procs.get_mut(&pid).and_then(|p| p.fds.get_mut(&fd)) {
                    d.offset += len as u64;
                }
                len as i32
            }
            Err(e) => fs_err(e),
        }
    }

    fn sys_read(&mut self, pid: Pid, fd: i32, buf: u32, len: u32) -> i32 {
        if fd == 0 {
            return 0; // no interactive stdin in the simulation
        }
        let Some(desc) = self.procs[&pid].fds.get(&fd).cloned() else {
            return -EBADF;
        };
        let data = match self
            .vfs
            .read_vnode(desc.vnode, desc.offset, len.min(1 << 20) as usize)
        {
            Ok(d) => d,
            Err(e) => return fs_err(e),
        };
        if let Err(e) = self.copy_out(pid, buf, &data) {
            return e;
        }
        if let Some(d) = self.procs.get_mut(&pid).and_then(|p| p.fds.get_mut(&fd)) {
            d.offset += data.len() as u64;
        }
        data.len() as i32
    }

    fn sys_open(&mut self, pid: Pid, path_ptr: u32, flags: u32) -> i32 {
        match self.abs_path(pid, path_ptr) {
            Ok(path) => self.open_at(pid, &path, flags),
            Err(e) => e,
        }
    }

    fn open_at(&mut self, pid: Pid, path: &str, flags: u32) -> i32 {
        let uid = self.procs[&pid].uid;
        let vnode = match self.vfs.resolve(path) {
            Ok(v) => v,
            Err(FsError::NotFound) if flags & O_CREAT != 0 => {
                match self.vfs.create_file(path, 0o666, uid) {
                    Ok(v) => v,
                    Err(e) => return fs_err(e),
                }
            }
            Err(e) => return fs_err(e),
        };
        let meta = match self.vfs.metadata_vnode(vnode) {
            Ok(m) => m,
            Err(e) => return fs_err(e),
        };
        if meta.kind == NodeKind::Dir && flags & (O_WRONLY | O_TRUNC) != 0 {
            return -(FsError::IsADirectory.errno());
        }
        let write = flags & O_WRONLY != 0 || flags & O_TRUNC != 0;
        match self.vfs.fs_of(vnode.mount).access(vnode.ino, uid, write) {
            Ok(true) => {}
            Ok(false) => return -(FsError::PermissionDenied.errno()),
            Err(e) => return fs_err(e),
        }
        if flags & O_TRUNC != 0 && meta.kind == NodeKind::File {
            if let Err(e) = self.vfs.truncate_vnode(vnode, 0) {
                return fs_err(e);
            }
        }
        self.procs
            .get_mut(&pid)
            .expect("caller")
            .alloc_fd(vnode, write)
    }

    fn sys_sbrk(&mut self, pid: Pid, incr: i32) -> i32 {
        let proc = self.procs.get_mut(&pid).expect("caller");
        let old = proc.brk;
        if incr > 0 {
            let new = old.saturating_add(incr as u32);
            if new > layout::DYN_PRIVATE_BASE {
                return -(FsError::NoSpace.errno());
            }
            // Pages below `heap_end` are still mapped from before a
            // shrink; map only the ones past it.
            let end = new.div_ceil(PAGE_SIZE) * PAGE_SIZE;
            if end > proc.heap_end {
                if proc
                    .aspace
                    .map_anon(proc.heap_end, end - proc.heap_end, Prot::RW)
                    .is_err()
                {
                    return -(FsError::NoSpace.errno());
                }
                proc.heap_end = end;
            }
            proc.brk = new;
        } else if incr < 0 {
            // unsigned_abs, not negation: `-i32::MIN` overflows, and the
            // increment is a guest-supplied register. The pages stay
            // mapped (and `heap_end` with them).
            proc.brk = old.saturating_sub(incr.unsigned_abs());
        }
        old as i32
    }

    // --- exit / wait / wake machinery ---

    /// The one exit path (`exit`, the OOM killer, the embedder's kills):
    /// a live `pid` leaves the table, its frames and locks released,
    /// its status and console kept as an exit record that a live parent
    /// may wait for. Any other pid is left alone. A waiting parent is woken by the poll in `step_system`.
    pub fn finalize_exit(&mut self, pid: Pid, code: i32) {
        let Some(mut p) = self.procs.remove(&pid) else {
            return;
        };
        p.aspace.release_all();
        self.blocks.drop_source(Source::space(pid));
        self.waitable.retain(|&(parent, _)| parent != pid);
        if self.procs.contains_key(&p.ppid) {
            self.waitable.insert((p.ppid, pid));
        }
        let console = std::mem::take(&mut p.console).into_boxed_slice();
        self.exits.insert(pid, (code, console));
        self.lifecycle.push(Lifecycle::Exited(pid));
        self.edge(SyncEdge::Exit { pid });
        self.vfs.unlock_all(pid as u64);
        for sem in self.sems.values_mut() {
            sem.waiters.retain(|&w| w != pid);
        }
    }

    /// `parent`'s exited, unwaited children, lowest pid first.
    fn waitable_children(&self, parent: Pid) -> impl Iterator<Item = (Pid, Pid)> + '_ {
        self.waitable
            .range((parent, 0)..=(parent, Pid::MAX))
            .copied()
    }

    /// Reaps an exited child of `parent` matching `target` (`None`:
    /// the lowest-pid one).
    fn try_reap(&mut self, parent: Pid, target: Option<Pid>) -> Option<(Pid, i32)> {
        let key = match target {
            Some(child) => (parent, child),
            None => self.waitable_children(parent).next()?,
        };
        let (_, child) = self.waitable.take(&key)?;
        let status = self.exit_code(child)?;
        self.edge(SyncEdge::Join { parent, child });
        Some((child, status))
    }

    /// Wakes blocked processes whose resources became available.
    fn poll_blocked(&mut self) {
        let blocked: Vec<(Pid, Block)> = self
            .procs
            .iter()
            .filter_map(|(&pid, p)| match p.state {
                ProcState::Blocked(b) => Some((pid, b)),
                _ => None,
            })
            .collect();
        for (pid, block) in blocked {
            match block {
                Block::Wait(target) => {
                    if let Some((child, status)) = self.try_reap(pid, target) {
                        // invariant: `try_reap` removes only waitable
                        // entries, never the (blocked, live) waiter.
                        let p = self.procs.get_mut(&pid).expect("waiter");
                        p.state = ProcState::Runnable;
                        p.cpu.set_reg(Reg::V0, child);
                        p.cpu.set_reg(Reg::V1, status as u32);
                    }
                }
                Block::Lock { vnode, kind } => {
                    if self.vfs.try_lock(vnode, kind, pid as u64).is_ok() {
                        // invariant: collected as Blocked from `procs`
                        // at the top of this call; `try_lock` cannot
                        // remove a process.
                        let p = self.procs.get_mut(&pid).expect("locker");
                        p.state = ProcState::Runnable;
                        p.cpu.set_reg(Reg::V0, 0);
                        self.edge(SyncEdge::LockAcquire {
                            pid,
                            lock: lock_key(vnode),
                        });
                    }
                }
                Block::Sem(_) => {} // woken directly by SemV
            }
        }
    }

    /// Delivers SIGSEGV to a guest-registered handler: saves the CPU
    /// context (PC still at the faulting instruction) and redirects to
    /// the handler with `(signo, fault_addr)` in `$a0/$a1`. The handler
    /// returns via the `sigreturn` syscall, which re-executes the fault.
    ///
    /// Returns `false` if the process has no handler (caller should kill).
    pub fn deliver_segv(&mut self, pid: Pid, fault_addr: u32) -> bool {
        let Some(proc) = self.procs.get_mut(&pid) else {
            return false;
        };
        let Some(handler) = proc.segv_handler else {
            return false;
        };
        if proc.sig_saved.is_some() {
            // Fault inside the handler itself: fatal.
            return false;
        }
        proc.sig_saved = Some(Box::new(proc.cpu.clone()));
        proc.cpu.set_reg(Reg::A0, 11);
        proc.cpu.set_reg(Reg::A1, fault_addr);
        let sp = proc.cpu.reg(Reg::SP).saturating_sub(64);
        proc.cpu.set_reg(Reg::SP, sp);
        proc.cpu.pc = handler;
        true
    }

    /// Total console output of a live or exited process.
    pub fn console_of(&self, pid: Pid) -> String {
        let bytes = match self.procs.get(&pid) {
            Some(p) => &p.console[..],
            None => self.exits.get(&pid).map_or(&[][..], |(_, console)| console),
        };
        String::from_utf8_lossy(bytes).into_owned()
    }

    /// The exit status of an exited process (`None` while it lives, or
    /// if it never existed or died in a power cut).
    pub fn exit_code(&self, pid: Pid) -> Option<i32> {
        self.exits.get(&pid).map(|&(status, _)| status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvm::{encode, Bus, Instr};

    /// Builds an ExecImage from encoded instructions and data.
    fn image(text: &[Instr], data: &[u8]) -> ExecImage {
        ExecImage {
            name: "test".into(),
            text_base: layout::TEXT_BASE,
            text: text.iter().flat_map(|i| encode(*i).to_le_bytes()).collect(),
            data_base: layout::DATA_BASE,
            data: data.to_vec(),
            bss_size: 0,
            entry: layout::TEXT_BASE,
        }
    }

    fn li(rt: Reg, v: u32) -> [Instr; 2] {
        [
            Instr::Lui {
                rt,
                imm: (v >> 16) as u16,
            },
            Instr::Ori {
                rt,
                rs: rt,
                imm: v as u16,
            },
        ]
    }

    /// Steps the system until every process has exited or it
    /// deadlocks, for at most `max_slices` slices. Faulting processes
    /// exit with -1 (no embedder resolves them here). `Err` carries the
    /// events of a run that was still making progress at the bound.
    fn run_to_settle(
        k: &mut Kernel,
        quantum: u64,
        max_slices: u64,
    ) -> Result<Vec<RunEvent>, Vec<RunEvent>> {
        let mut events = Vec::new();
        for _ in 0..max_slices {
            let ev = k.step_system(quantum);
            match ev {
                RunEvent::AllExited | RunEvent::Deadlock => {
                    events.push(ev);
                    return Ok(events);
                }
                RunEvent::Fatal { pid, .. } | RunEvent::Segv { pid, .. } => {
                    events.push(ev);
                    k.finalize_exit(pid, -1);
                }
                other => events.push(other),
            }
        }
        Err(events)
    }

    fn run_to_completion(k: &mut Kernel) -> Vec<RunEvent> {
        run_to_settle(k, 1000, 10_000).expect("system did not settle")
    }

    /// `sys(a0)`: the call number and argument, then `syscall`.
    fn sys(call: Sys, a0: u32) -> Vec<Instr> {
        let mut prog = li(Reg::V0, call as u32).to_vec();
        prog.extend(li(Reg::A0, a0));
        prog.push(Syscall);
        prog
    }

    /// `move rd, rs`.
    fn mov(rd: Reg, rs: Reg) -> Instr {
        Or {
            rd,
            rs,
            rt: Reg::ZERO,
        }
    }

    /// `fork`, then a branch over the child's next `child_len`
    /// instructions to the parent's.
    fn fork_split(child_len: u16) -> Vec<Instr> {
        let mut prog = li(Reg::V0, Sys::Fork as u32).to_vec();
        prog.push(Syscall);
        prog.push(Bne {
            rs: Reg::V0,
            rt: Reg::ZERO,
            imm: child_len,
        });
        prog
    }

    /// Blocks the caller forever on a fresh zero semaphore, so a test
    /// can inspect it live once the system settles in `Deadlock`.
    fn park() -> Vec<Instr> {
        let mut prog = sys(Sys::SemCreate, 0);
        prog.push(mov(Reg::A0, Reg::V0));
        prog.extend(li(Reg::V0, Sys::SemP as u32));
        prog.push(Syscall);
        prog
    }

    use Instr::*;

    /// `exec_image` restarts the space's text epochs, so it drops the
    /// pid's private blocks first: a new image laid out like the old
    /// one is decoded from its own bytes, never served the old image's
    /// block at the same pc and epoch. The exit drops the rest.
    #[test]
    fn exec_and_exit_drop_the_pids_private_blocks() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        let private = |k: &Kernel| {
            let src = Source::space(pid);
            k.block_table().keys().filter(|&(s, _)| s == src).count()
        };
        k.exec_image(pid, &image(&sys(Sys::Exit, 5), &[])).unwrap();
        // Two instructions of the first block, then the quantum ends.
        assert_eq!(k.step_system(2), RunEvent::Quantum(pid));
        assert_eq!(private(&k), 1);
        k.exec_image(pid, &image(&sys(Sys::Exit, 9), &[])).unwrap();
        assert_eq!(private(&k), 0, "the exec dropped the old image's block");
        run_to_completion(&mut k);
        assert_eq!(k.exit_code(pid), Some(9), "the new image's bytes ran");
        assert_eq!(private(&k), 0, "the exit dropped the new image's block");
        assert_eq!(k.block_table().built, 2);
    }

    #[test]
    fn run_to_settle_bounds_a_spinning_system() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        // An infinite loop: j <self>.
        let prog = vec![J {
            target: layout::TEXT_BASE >> 2,
        }];
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let events = run_to_settle(&mut k, 100, 8).unwrap_err();
        assert_eq!(events.len(), 8);
        assert!(events
            .iter()
            .all(|e| matches!(e, RunEvent::Quantum(p) if *p == pid)));
        // The system is intact: the process is still runnable.
        assert!(matches!(k.procs[&pid].state, ProcState::Runnable));
    }

    #[test]
    fn exit_syscall_terminates() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        let prog = sys(Sys::Exit, 42);
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let events = run_to_completion(&mut k);
        assert!(events.contains(&RunEvent::Exited(pid, 42)));
        assert_eq!(k.exit_code(pid), Some(42));
        assert!(k.procs.is_empty());
    }

    #[test]
    fn sbrk_of_int_min_is_survivable() {
        // Regression: `sbrk(i32::MIN)` negated the increment, which
        // overflows i32 and aborted debug builds — a guest-reachable
        // panic from a single syscall.
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        let mut prog = sys(Sys::Sbrk, i32::MIN as u32);
        prog.extend(park());
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let events = run_to_completion(&mut k);
        assert_eq!(events.last(), Some(&RunEvent::Deadlock));
        // Releasing more than the heap holds clamps the break at zero.
        assert_eq!(k.procs[&pid].brk, 0);
    }

    #[test]
    fn sem_v_at_max_count_saturates() {
        // Regression: V on a semaphore already at `i32::MAX` overflowed
        // the count in debug builds; a guest can V in a loop forever.
        let mut k = Kernel::new();
        k.sems.insert(
            7,
            Sem {
                count: i32::MAX,
                waiters: VecDeque::new(),
            },
        );
        let pid = k.spawn(1);
        let mut prog = sys(Sys::SemV, 7);
        prog.extend(sys(Sys::Exit, 0));
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let events = run_to_completion(&mut k);
        assert!(events.contains(&RunEvent::Exited(pid, 0)));
        assert_eq!(k.sems[&7].count, i32::MAX, "count pins at the ceiling");
    }

    #[test]
    fn lseek_from_extreme_offset_saturates() {
        // Regression: SEEK_CUR/SEEK_END added the guest delta with plain
        // i64 `+`, which overflows once a descriptor's offset sits near
        // `i64::MAX` — reachable (slowly) through repeated seeks.
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        let vnode = k.vfs.create_file("/f", 0o666, 1).unwrap();
        let fd = k.procs.get_mut(&pid).unwrap().alloc_fd(vnode, true);
        k.procs
            .get_mut(&pid)
            .unwrap()
            .fds
            .get_mut(&fd)
            .unwrap()
            .offset = i64::MAX as u64;
        // lseek(fd, i32::MAX, SEEK_CUR), then park to stay inspectable.
        let mut prog = vec![];
        prog.extend(li(Reg::A0, fd as u32));
        prog.extend(li(Reg::A1, i32::MAX as u32));
        prog.extend(li(Reg::A2, 1));
        prog.extend(li(Reg::V0, Sys::Lseek as u32));
        prog.push(Syscall);
        prog.extend(park());
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let events = run_to_completion(&mut k);
        assert_eq!(events.last(), Some(&RunEvent::Deadlock));
        assert_eq!(
            k.procs[&pid].fds[&fd].offset,
            i64::MAX as u64,
            "offset saturates instead of wrapping"
        );
    }

    #[test]
    fn console_write() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        // Data at DATA_BASE holds "hi\n"; write(1, DATA_BASE, 3); exit(0).
        let mut prog = vec![];
        prog.extend(li(Reg::V0, Sys::Write as u32));
        prog.extend(li(Reg::A0, 1));
        prog.extend(li(Reg::A1, layout::DATA_BASE));
        prog.extend(li(Reg::A2, 3));
        prog.push(Syscall);
        prog.extend(sys(Sys::Exit, 0));
        k.exec_image(pid, &image(&prog, b"hi\n")).unwrap();
        run_to_completion(&mut k);
        assert_eq!(k.console_of(pid), "hi\n");
    }

    #[test]
    fn fork_returns_twice_and_wait_reaps() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        // fork(); if v0 == 0 exit(7); else waitpid(0) and exit(v1)
        let mut prog = fork_split(5);
        // child: exit(7)
        prog.extend(sys(Sys::Exit, 7));
        // parent: waitpid(0)
        prog.extend(sys(Sys::Waitpid, 0));
        // exit(v1)
        prog.push(mov(Reg::A0, Reg::V1));
        prog.extend(li(Reg::V0, Sys::Exit as u32));
        prog.push(Syscall);
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let events = run_to_completion(&mut k);
        // Child exited 7; parent exited with child's status 7.
        assert!(events
            .iter()
            .any(|e| matches!(e, RunEvent::Exited(p, 7) if *p != pid)));
        assert!(events.contains(&RunEvent::Exited(pid, 7)));
        assert_eq!(k.stats.forks, 1);
    }

    #[test]
    fn forks_and_exits_are_journaled_in_order_until_a_power_cut() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        // fork(); the child exits 7, the parent exits 3 in the same slice.
        let mut prog = fork_split(5);
        prog.extend(sys(Sys::Exit, 7));
        prog.extend(sys(Sys::Exit, 3));
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        assert_eq!(k.step_system(1000), RunEvent::Exited(pid, 3));
        let child = pid + 1;
        assert_eq!(
            k.lifecycle,
            [
                Lifecycle::Forked { parent: pid, child },
                Lifecycle::Exited(pid)
            ]
        );
        k.power_cut();
        assert!(k.drain_lifecycle().is_empty(), "a power cut empties it");
        assert!(k.procs.is_empty(), "the child died unjournaled");
    }

    /// The TLB and copy-on-write totals have one home, the kernel's
    /// stats: a parent and its fork child each count their accesses
    /// there once, the one copy their shared data page needs counts
    /// once, and neither an exit nor a power cut adds anything again.
    #[test]
    fn memory_totals_count_each_event_once() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        // fork(); both sides park.
        let mut prog = fork_split(0);
        prog.extend(park());
        k.exec_image(pid, &image(&prog, &[1, 2, 3, 4])).unwrap();
        assert_eq!(run_to_completion(&mut k).last(), Some(&RunEvent::Deadlock));
        let child = pid + 1;
        let mem = |s: &KernelStats| (s.tlb_hits, s.tlb_misses, s.cow_copies);
        let before = mem(&k.stats);
        // The child stores first, so it takes the copy; the parent's
        // store then finds the frame its own.
        for p in [child, pid] {
            let proc = k.procs.get_mut(&p).unwrap();
            proc.aspace.tlb_migrate_flush();
            let mut bus = MemBus::new(
                &mut proc.aspace,
                &mut k.vfs.shared,
                &mut k.blocks,
                &mut k.stats,
            );
            bus.load32(layout::DATA_BASE).unwrap(); // a miss
            bus.store32(layout::DATA_BASE, p).unwrap(); // a hit
        }
        let (hits, misses, copies) = before;
        let after = (hits + 2, misses + 2, copies + 1);
        assert_eq!(mem(&k.stats), after);
        k.finalize_exit(child, 0);
        assert_eq!(mem(&k.stats), after, "an exit adds nothing");
        k.power_cut();
        assert!(k.procs.is_empty());
        assert_eq!(mem(&k.stats), after, "a power cut adds nothing");
    }

    #[test]
    fn orphans_are_never_waitable_and_a_reaped_out_wait_is_echild() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        let r16 = Reg(16);
        // Fork a child that exits 7, reap it and wait again (ECHILD);
        // fork a second child and exit before it runs, orphaning it.
        // The parent's status is the reaped one plus the second wait's.
        let mut prog = fork_split(5);
        prog.extend(sys(Sys::Exit, 7));
        prog.extend(sys(Sys::Waitpid, 0));
        prog.push(mov(r16, Reg::V1));
        prog.extend(sys(Sys::Waitpid, 0));
        prog.push(Add {
            rd: Reg::A0,
            rs: r16,
            rt: Reg::V0,
        });
        prog.extend(fork_split(5));
        prog.extend(sys(Sys::Exit, 5));
        prog.extend(li(Reg::V0, Sys::Exit as u32));
        prog.push(Syscall);
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let exits: Vec<RunEvent> = run_to_completion(&mut k)
            .into_iter()
            .filter(|e| matches!(e, RunEvent::Exited(..)))
            .collect();
        let (reaped, orphan) = (pid + 1, pid + 2);
        let expected = [(reaped, 7), (pid, 7 - ECHILD), (orphan, 5)];
        assert_eq!(exits, expected.map(|(p, code)| RunEvent::Exited(p, code)));
        assert!(k.waitable.is_empty(), "an orphan's exit is never waitable");
        assert!(k.procs.is_empty());
    }

    #[test]
    fn cow_after_fork_isolates_private_data() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        // fork; child stores 99 to DATA_BASE then exits with mem[DATA_BASE];
        // parent waits, then exits with its own mem[DATA_BASE] (should
        // still be 5).
        let mut prog = vec![];
        prog.extend(li(Reg(8), layout::DATA_BASE));
        prog.extend(fork_split(7));
        // child:
        prog.extend(li(Reg(9), 99));
        prog.push(Sw {
            rt: Reg(9),
            rs: Reg(8),
            imm: 0,
        });
        prog.push(Lw {
            rt: Reg::A0,
            rs: Reg(8),
            imm: 0,
        });
        prog.extend(li(Reg::V0, Sys::Exit as u32));
        prog.push(Syscall);
        // parent:
        prog.extend(sys(Sys::Waitpid, 0));
        prog.push(Lw {
            rt: Reg::A0,
            rs: Reg(8),
            imm: 0,
        });
        prog.extend(li(Reg::V0, Sys::Exit as u32));
        prog.push(Syscall);
        k.exec_image(pid, &image(&prog, &5u32.to_le_bytes()))
            .unwrap();
        let events = run_to_completion(&mut k);
        assert!(events
            .iter()
            .any(|e| matches!(e, RunEvent::Exited(p, 99) if *p != pid)));
        assert!(events.contains(&RunEvent::Exited(pid, 5)));
    }

    #[test]
    fn sbrk_grows_heap() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        // old = sbrk(8192); store to old; load back; exit(loaded).
        let mut prog = sys(Sys::Sbrk, 8192);
        prog.push(mov(Reg(8), Reg::V0));
        prog.extend(li(Reg(9), 1234));
        prog.push(Sw {
            rt: Reg(9),
            rs: Reg(8),
            imm: 0,
        });
        prog.push(Lw {
            rt: Reg::A0,
            rs: Reg(8),
            imm: 4096,
        }); // still within sbrk'd region? offset 4096 < 8192 ok (zero)
        prog.push(Lw {
            rt: Reg::A0,
            rs: Reg(8),
            imm: 0,
        });
        prog.extend(li(Reg::V0, Sys::Exit as u32));
        prog.push(Syscall);
        k.exec_image(pid, &image(&prog, b"xxxx")).unwrap();
        let events = run_to_completion(&mut k);
        assert!(events.contains(&RunEvent::Exited(pid, 1234)));
    }

    /// Regression: a shrink leaves its pages mapped, so regrowing into
    /// them used to fail with ENOSPC on the overlapping `map_anon`.
    #[test]
    fn sbrk_regrows_after_shrink() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        // base = sbrk(8192); sbrk(-4096); r10 = sbrk(4096);
        // store/load 1234 at r10; exit((r10 - base) + loaded).
        let mut prog = sys(Sys::Sbrk, 8192);
        prog.push(mov(Reg(8), Reg::V0));
        prog.extend(sys(Sys::Sbrk, (-4096i32) as u32));
        prog.extend(sys(Sys::Sbrk, 4096));
        prog.push(mov(Reg(10), Reg::V0));
        prog.extend(li(Reg(9), 1234));
        prog.push(Sw {
            rt: Reg(9),
            rs: Reg(10),
            imm: 0,
        });
        prog.push(Lw {
            rt: Reg(11),
            rs: Reg(10),
            imm: 0,
        });
        prog.push(Sub {
            rd: Reg::A0,
            rs: Reg(10),
            rt: Reg(8),
        });
        prog.push(Add {
            rd: Reg::A0,
            rs: Reg::A0,
            rt: Reg(11),
        });
        prog.extend(li(Reg::V0, Sys::Exit as u32));
        prog.push(Syscall);
        k.exec_image(pid, &image(&prog, b"xxxx")).unwrap();
        let events = run_to_completion(&mut k);
        assert!(
            events.contains(&RunEvent::Exited(pid, 4096 + 1234)),
            "the regrow returns the previous break and its page works: {events:?}"
        );
    }

    #[test]
    fn service_call_surfaces_to_embedder() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        let mut prog = vec![];
        prog.extend(li(Reg::V0, 100));
        prog.push(Syscall);
        prog.push(mov(Reg::A0, Reg::V0));
        prog.extend(li(Reg::V0, Sys::Exit as u32));
        prog.push(Syscall);
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let ev = k.step_system(1000);
        assert_eq!(ev, RunEvent::Service { pid, num: 100 });
        // Embedder writes a result and resumes.
        k.set_reg(pid, Reg::V0, 555);
        let events = run_to_completion(&mut k);
        assert!(events.contains(&RunEvent::Exited(pid, 555)));
        assert_eq!(k.stats.services, 1);
    }

    #[test]
    fn segv_event_on_unmapped_access() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        let mut prog = vec![];
        prog.extend(li(Reg(8), 0x3000_0000));
        prog.push(Lw {
            rt: Reg(9),
            rs: Reg(8),
            imm: 0,
        });
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let ev = k.step_system(1000);
        assert_eq!(
            ev,
            RunEvent::Segv {
                pid,
                fault: Fault::Unmapped {
                    addr: 0x3000_0000,
                    access: hvm::Access::Read
                }
            }
        );
        assert_eq!(k.stats.segv_faults, 1);
    }

    #[test]
    fn guest_sigsegv_handler_runs_and_returns() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        // Register a handler; touch an unmapped shared address; the
        // embedder (this test) delivers the signal; the handler exits(88).
        let mut prog = vec![];
        // sigaction(handler at TEXT_BASE + 11*4 ... compute below)
        let handler_index: u32 = 8; // instructions before handler label
        prog.extend(sys(Sys::Sigaction, layout::TEXT_BASE + handler_index * 4));
        prog.extend(li(Reg(8), 0x3500_0000));
        prog.push(Lw {
            rt: Reg(9),
            rs: Reg(8),
            imm: 0,
        }); // faults (index 8)
            // handler (index 9): exit(88)
        prog.extend(sys(Sys::Exit, 88));
        assert_eq!(prog.len() as u32, handler_index + 5);
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let ev = k.step_system(1000);
        let RunEvent::Segv { pid: fp, fault } = ev else {
            panic!("{ev:?}")
        };
        assert_eq!(fp, pid);
        assert!(k.deliver_segv(pid, fault.addr()));
        let events = run_to_completion(&mut k);
        assert!(events.contains(&RunEvent::Exited(pid, 88)));
    }

    #[test]
    fn sigreturn_restarts_faulting_instruction() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        let handler_index: u32 = 11;
        let mut prog = sys(Sys::Sigaction, layout::TEXT_BASE + handler_index * 4);
        prog.extend(li(Reg(8), 0x3010_0000));
        prog.push(Lw {
            rt: Reg::A0,
            rs: Reg(8),
            imm: 0,
        }); // faults, then succeeds
        prog.extend(li(Reg::V0, Sys::Exit as u32));
        prog.push(Syscall);
        assert_eq!(prog.len() as u32, handler_index);
        // handler: sigreturn (the embedder mapped the page meanwhile).
        prog.extend(li(Reg::V0, Sys::Sigreturn as u32));
        prog.push(Syscall);
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let ev = k.step_system(1000);
        let RunEvent::Segv { fault, .. } = ev else {
            panic!("{ev:?}")
        };
        // Embedder: map the page (with a value) and deliver to the guest
        // handler, which immediately sigreturns.
        let ino = k.vfs.shared.create_file("/seg0", 0o666, 1).unwrap();
        assert_eq!(hsfs::SharedFs::addr_of_ino(ino), 0x3010_0000);
        k.vfs.shared.fs.truncate(ino, PAGE_SIZE as u64).unwrap();
        k.vfs
            .shared
            .fs
            .write_at(ino, 0, &777u32.to_le_bytes())
            .unwrap();
        let p = k.procs.get_mut(&pid).unwrap();
        p.aspace
            .map_shared(0x3010_0000, PAGE_SIZE, Prot::RW, ino, 0)
            .unwrap();
        assert!(k.deliver_segv(pid, fault.addr()));
        let events = run_to_completion(&mut k);
        assert!(events.contains(&RunEvent::Exited(pid, 777)));
    }

    #[test]
    fn semaphores_block_and_wake() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        // parent: sem = sem_create(0); fork.
        // child: sem_v(sem); exit(0).
        // parent: sem_p(sem) (may block until child posts); exit(33).
        let mut prog = sys(Sys::SemCreate, 0);
        prog.push(mov(Reg(16), Reg::V0));
        prog.extend(fork_split(8));
        // child
        prog.extend(li(Reg::V0, Sys::SemV as u32));
        prog.push(mov(Reg::A0, Reg(16)));
        prog.push(Syscall);
        prog.extend(sys(Sys::Exit, 0));
        // parent
        prog.extend(li(Reg::V0, Sys::SemP as u32));
        prog.push(mov(Reg::A0, Reg(16)));
        prog.push(Syscall);
        prog.extend(sys(Sys::Exit, 33));
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let events = run_to_completion(&mut k);
        assert!(events.contains(&RunEvent::Exited(pid, 33)));
    }

    #[test]
    fn file_io_via_syscalls() {
        let mut k = Kernel::new();
        k.vfs.mkdir("/tmp", 0o777, 0).unwrap();
        let pid = k.spawn(1);
        // creat("/tmp/f"); write(fd, data, 5); lseek(fd, 0, 0);... simpler:
        // close; open; read; exit(first byte).
        // Data layout: path at DATA_BASE, content at DATA_BASE+16.
        let path_addr = layout::DATA_BASE;
        let content_addr = layout::DATA_BASE + 16;
        let buf_addr = layout::DATA_BASE + 32;
        let mut data = vec![0u8; 48];
        data[..7].copy_from_slice(b"/tmp/f\0");
        data[16..21].copy_from_slice(b"ABCDE");
        let mut prog = vec![];
        // fd = creat(path)
        prog.extend(sys(Sys::Creat, path_addr));
        prog.push(mov(Reg(16), Reg::V0));
        // write(fd, content, 5)
        prog.extend(li(Reg::V0, Sys::Write as u32));
        prog.push(mov(Reg::A0, Reg(16)));
        prog.extend(li(Reg::A1, content_addr));
        prog.extend(li(Reg::A2, 5));
        prog.push(Syscall);
        // lseek(fd, 0, SET)
        prog.extend(li(Reg::V0, Sys::Lseek as u32));
        prog.push(mov(Reg::A0, Reg(16)));
        prog.extend(li(Reg::A1, 0));
        prog.extend(li(Reg::A2, 0));
        prog.push(Syscall);
        // read(fd, buf, 5)
        prog.extend(li(Reg::V0, Sys::Read as u32));
        prog.push(mov(Reg::A0, Reg(16)));
        prog.extend(li(Reg::A1, buf_addr));
        prog.extend(li(Reg::A2, 5));
        prog.push(Syscall);
        // exit(buf[0])
        prog.extend(li(Reg(8), buf_addr));
        prog.push(Lb {
            rt: Reg::A0,
            rs: Reg(8),
            imm: 0,
        });
        prog.extend(li(Reg::V0, Sys::Exit as u32));
        prog.push(Syscall);
        k.exec_image(pid, &image(&prog, &data)).unwrap();
        let events = run_to_completion(&mut k);
        assert!(events.contains(&RunEvent::Exited(pid, 'A' as i32)));
        assert_eq!(k.vfs.read_all("/tmp/f").unwrap(), b"ABCDE");
    }

    #[test]
    fn path_to_addr_syscall() {
        let mut k = Kernel::new();
        k.vfs.create_file("/shared/seg", 0o666, 1).unwrap();
        let expect = k.vfs.path_to_addr("/shared/seg").unwrap();
        let pid = k.spawn(1);
        let mut data = vec![0u8; 16];
        data[..12].copy_from_slice(b"/shared/seg\0");
        let mut prog = sys(Sys::PathToAddr, layout::DATA_BASE);
        prog.push(mov(Reg::A0, Reg::V0));
        prog.extend(li(Reg::V0, Sys::Exit as u32));
        prog.push(Syscall);
        k.exec_image(pid, &image(&prog, &data)).unwrap();
        let events = run_to_completion(&mut k);
        assert!(events.contains(&RunEvent::Exited(pid, expect as i32)));
    }

    #[test]
    fn deadlock_detected() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        // sem_p on an empty semaphore with nobody to post.
        let mut prog = sys(Sys::SemCreate, 0);
        prog.push(mov(Reg::A0, Reg::V0));
        prog.extend(li(Reg::V0, Sys::SemP as u32));
        prog.push(Syscall);
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let mut saw_deadlock = false;
        for _ in 0..10 {
            match k.step_system(1000) {
                RunEvent::Deadlock => {
                    saw_deadlock = true;
                    break;
                }
                _ => continue,
            }
        }
        assert!(saw_deadlock);
    }

    #[test]
    fn fatal_fault_reported() {
        let mut k = Kernel::new();
        let pid = k.spawn(1);
        let prog = vec![Div {
            rs: Reg(8),
            rt: Reg::ZERO,
        }];
        k.exec_image(pid, &image(&prog, &[])).unwrap();
        let ev = k.step_system(100);
        assert!(
            matches!(ev, RunEvent::Fatal { pid: p, fault: Fault::DivideByZero { .. } } if p == pid)
        );
    }

    #[test]
    fn flock_blocks_until_released() {
        let mut k = Kernel::new();
        k.vfs.create_file("/shared/lockme", 0o666, 0).unwrap();
        let pid = k.spawn(1);
        // parent: fd=open; flock(fd,EXCL); fork;
        //   child: flock(fd,EXCL) -> blocks; then unlock; exit 1
        //   parent: yield a few times; flock(fd, UNLOCK); wait; exit(v1)
        // Simpler deterministic variant: parent locks, forks; child tries
        // to lock (blocks); parent unlocks and waits; child gets lock,
        // exits 21; parent exits child-status.
        let path_addr = layout::DATA_BASE;
        let mut data = vec![0u8; 20];
        data[..15].copy_from_slice(b"/shared/lockme\0");
        let mut prog = vec![];
        // fd = open(path, O_WRONLY)
        prog.extend(li(Reg::V0, Sys::Open as u32));
        prog.extend(li(Reg::A0, path_addr));
        prog.extend(li(Reg::A1, O_WRONLY));
        prog.push(Syscall);
        prog.push(mov(Reg(16), Reg::V0));
        // flock(fd, EXCL)
        prog.extend(li(Reg::V0, Sys::Flock as u32));
        prog.push(mov(Reg::A0, Reg(16)));
        prog.extend(li(Reg::A1, 1));
        prog.push(Syscall);
        // fork
        prog.extend(fork_split(9));
        // child: flock(fd, EXCL) — blocks until parent unlocks
        prog.extend(li(Reg::V0, Sys::Flock as u32));
        prog.push(mov(Reg::A0, Reg(16)));
        prog.extend(li(Reg::A1, 1));
        prog.push(Syscall);
        prog.extend(sys(Sys::Exit, 21));
        // parent: flock(fd, UNLOCK)
        prog.extend(li(Reg::V0, Sys::Flock as u32));
        prog.push(mov(Reg::A0, Reg(16)));
        prog.extend(li(Reg::A1, 2));
        prog.push(Syscall);
        // waitpid(0); exit(v1)
        prog.extend(sys(Sys::Waitpid, 0));
        prog.push(mov(Reg::A0, Reg::V1));
        prog.extend(li(Reg::V0, Sys::Exit as u32));
        prog.push(Syscall);
        k.exec_image(pid, &image(&prog, &data)).unwrap();
        let events = run_to_completion(&mut k);
        assert!(events.contains(&RunEvent::Exited(pid, 21)), "{events:?}");
    }

    /// Regression: a process killed while holding sfs locks must not
    /// wedge `try_lock` for everyone else — `finalize_exit` releases the
    /// dead holder's locks on both mounts.
    #[test]
    fn finalize_exit_releases_dead_holders_locks() {
        use hsfs::LockKind;
        let mut k = Kernel::new();
        let shared_v = k.vfs.create_file("/shared/held.o", 0o666, 0).unwrap();
        let root_v = k.vfs.create_file("/tmp_held", 0o666, 0).unwrap();
        let victim = k.spawn(1);
        let survivor = k.spawn(1);
        k.vfs
            .try_lock(shared_v, LockKind::Exclusive, victim as u64)
            .unwrap();
        k.vfs
            .try_lock(root_v, LockKind::Exclusive, victim as u64)
            .unwrap();
        // While the holder lives, others spin on EWOULDBLOCK.
        assert_eq!(
            k.vfs
                .try_lock(shared_v, LockKind::Exclusive, survivor as u64),
            Err(FsError::WouldBlock)
        );
        // The holder crashes (embedder kill path — exactly what World
        // does for a fault loop).
        k.finalize_exit(victim, -1);
        // The locks died with it: a crashed holder must not wedge
        // try_lock forever.
        assert_eq!(
            k.vfs
                .try_lock(shared_v, LockKind::Exclusive, survivor as u64),
            Ok(())
        );
        assert_eq!(
            k.vfs.try_lock(root_v, LockKind::Shared, survivor as u64),
            Ok(())
        );
    }
}
