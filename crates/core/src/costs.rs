//! The deterministic cost model.
//!
//! The paper's quantitative claims (rwho saving "a little over a second"
//! on 65 machines; fault-driven lazy linking being "slower than the jump
//! table mechanism of SunOS"; the Presto post-processor consuming "one
//! quarter to one third of total compilation time") are wall-clock
//! numbers from circa-1992 hardware. The simulation cannot (and should
//! not) reproduce absolute times; instead every layer counts events —
//! instructions retired, system calls, faults, disk blocks — and this
//! module converts the counts into *simulated time* with per-event costs
//! loosely calibrated to an early-90s workstation. All experiments in
//! EXPERIMENTS.md report shapes and ratios, which are insensitive to the
//! exact constants.

use hkernel::{KernelStats, TraceEvent};
use hlink::ldl::LdlStats;
use hsfs::FsStats;

/// Simulated nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimTime(pub u64);

impl SimTime {
    /// As floating-point milliseconds.
    pub fn millis(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As floating-point microseconds.
    pub fn micros(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// As floating-point seconds.
    pub fn seconds(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} s", self.seconds())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} ms", self.millis())
        } else {
            write!(f, "{:.1} µs", self.micros())
        }
    }
}

/// Aggregated counters from every layer of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldStats {
    /// Kernel counters (instructions, syscalls, faults, forks, and the
    /// machine's TLB and copy-on-write totals).
    pub kernel: KernelStats,
    /// Root file system I/O.
    pub root_fs: FsStats,
    /// Shared partition I/O.
    pub shared_fs: FsStats,
    /// Address-table lookups and probe steps.
    pub addr_lookups: u64,
    /// Linear/B-tree probe steps.
    pub addr_probe_steps: u64,
    /// Dynamic-linker counters (one set for the whole machine).
    pub ldl: LdlStats,
    /// Copy-on-write page copies (`kernel.cow_copies`).
    pub cow_copies: u64,
    /// Software-TLB hits (`kernel.tlb_hits`).
    pub tlb_hits: u64,
    /// Software-TLB misses (`kernel.tlb_misses`).
    pub tlb_misses: u64,
    /// Failures injected by an armed `hfault` plan (0 without chaos).
    pub faults_injected: u64,
    /// Recoveries the world took in response: victims killed cleanly,
    /// `ldl` retries that succeeded, spawns refused with an error.
    pub faults_recovered: u64,
    /// Data races reported by an armed sanitizer (0 when unarmed).
    /// Pure diagnostics: contributes nothing to simulated time.
    pub races_detected: u64,
    /// Synchronization edges the sanitizer observed (0 when unarmed).
    pub sync_edges: u64,
    /// Bytes of guest memory the sanitizer currently shadow-tracks
    /// (0 when unarmed).
    pub shadow_bytes: u64,
    /// Pages evicted by the clock hand under memory pressure (the
    /// `PageEvicted` tally). Like every pressure counter it is current
    /// once the journals are drained: after `run`, `audit` or a halt.
    pub page_evictions: u64,
    /// Dirty shared pages written back before eviction (the
    /// `WritebackTaken` tally).
    pub page_writebacks: u64,
    /// Anonymous pages written to the swap area (the `PageEvicted`
    /// records of kind `anon`).
    pub swap_outs: u64,
    /// Pages brought back in after eviction (the `PageSwappedIn`
    /// tally).
    pub swap_ins: u64,
    /// Frames resident at snapshot time.
    pub resident_frames: u64,
    /// High-water mark of resident frames.
    pub peak_resident_frames: u64,
    /// Frame budget (pages) of the world's pool.
    pub frame_budget: u64,
    /// Deterministic OOM kills taken (the `RecoveryTaken` records of
    /// action `oom-kill`).
    pub oom_kills: u64,
    /// Pages invalidated in remote TLBs by the shootdown protocol
    /// (always 0 on a single-CPU world).
    pub shootdowns: u64,
    /// Inter-processor interrupts sent for shootdowns — at least one per
    /// shootdown event, two when chaos dropped the first.
    pub ipis: u64,
    /// Runnable processes taken by an idle CPU away from their home CPU
    /// at a round boundary (each steal costs the context its warm TLB).
    pub cross_cpu_steals: u64,
    /// Decoded basic blocks built by the block cache (DESIGN.md §12).
    /// Pure host-speed diagnostics: like the sanitizer counters, the
    /// three `bblock` fields contribute nothing to simulated time, and
    /// they are the *only* fields allowed to differ between a cache-on
    /// and cache-off run of the same workload.
    pub bblocks_built: u64,
    /// Block entries served from the cache (`hits + built` = entries).
    pub bblock_hits: u64,
    /// Cached blocks dropped by TLB-parity invalidation events.
    pub bblock_invalidations: u64,
    /// Power cuts taken (DESIGN.md §13). A crash-free run has 0 in all
    /// four crash fields, so the pipeline + journal add zero simulated
    /// cost unless a crash actually happens.
    pub crashes: u64,
    /// Reboots that found (and replayed) a non-empty journal.
    pub journal_replays: u64,
    /// Disk block writes discarded by power cuts (the un-flushed
    /// suffix of the write pipeline).
    pub blocks_discarded: u64,
    /// Simulated time spent in crash recovery: journal replay I/O plus
    /// the boot-time scan of the surviving partition. Accumulated at
    /// reboot, already in nanoseconds (cost-model priced).
    pub recovery_ns: u64,
    /// Blocks verified by explicit scrub passes (DESIGN.md §14). A run
    /// that never scrubs has 0 in all four integrity fields, so the
    /// checksum machinery adds zero simulated cost by default.
    pub blocks_scrubbed: u64,
    /// Corrupt blocks detected (by scrub or boot-time verification).
    pub corruptions_detected: u64,
    /// Corrupt blocks healed from the replica region or the journal.
    pub blocks_repaired: u64,
    /// Processes killed by an uncorrectable-corruption `Eio` fault
    /// (the `EioKilled` tally).
    pub eio_kills: u64,
    /// Links that failed with a typed error, at `ldl` init or on the
    /// lazy fault path (the `LinkFailed` tally). Free.
    pub link_failures: u64,
    /// Prelink snapshots validated and applied (DESIGN.md §15). Each
    /// hit bills one `snapshot_validate_ns` instead of the per-symbol
    /// resolution it skipped.
    pub snapshot_hits: u64,
    /// Snapshot load attempts that found no snapshot file. Free — a
    /// cold boot with snapshots on costs exactly a snapshots-off boot.
    pub snapshot_misses: u64,
    /// Snapshots rejected by validation (stale content, changed scope,
    /// reassigned address, corrupt bytes). Each bills one
    /// `snapshot_validate_ns` on top of the full resolution that follows.
    pub snapshot_invalidations: u64,
    /// Snapshots (re)written after a successful resolve. Free — the
    /// rebuild rides a link that already paid full price.
    pub snapshot_rebuilds: u64,
}

impl WorldStats {
    /// Fraction of bus translations served by the software TLB
    /// (0.0 when no accesses have happened yet).
    pub fn tlb_hit_rate(&self) -> f64 {
        let total = self.tlb_hits + self.tlb_misses;
        if total == 0 {
            0.0
        } else {
            self.tlb_hits as f64 / total as f64
        }
    }
}

/// Per-event costs in simulated nanoseconds.
///
/// Defaults model a ~25 MIPS workstation with a slow disk — the class of
/// machine in the paper (SGI 4D/480, SPARCstation 1).
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// One retired instruction.
    pub instruction_ns: u64,
    /// Kernel-crossing overhead of one system call.
    pub syscall_ns: u64,
    /// Taking a SIGSEGV through the kernel to a user-level handler and
    /// restarting the instruction afterward.
    pub fault_ns: u64,
    /// One disk block read or written (buffer-cache miss).
    pub disk_block_ns: u64,
    /// Per path-component lookup.
    pub lookup_ns: u64,
    /// One address-table probe step.
    pub probe_ns: u64,
    /// One symbol resolution in the dynamic linker.
    pub resolve_ns: u64,
    /// One page copied by copy-on-write.
    pub cow_ns: u64,
    /// Clock-hand bookkeeping of one eviction (TLB shootdown, page-table
    /// update). The I/O, if any, is billed separately.
    pub evict_ns: u64,
    /// One page of swap/writeback I/O (a 4 KB disk write).
    pub swap_io_ns: u64,
    /// Reading one page back from swap or the backing segment.
    pub swap_in_ns: u64,
    /// One inter-processor interrupt: cross-CPU notification latency of
    /// the TLB-shootdown protocol (0 IPIs on a single-CPU world).
    pub ipi_ns: u64,
    /// Remote invalidation of one page's TLB entry once the IPI lands.
    pub shootdown_ns: u64,
    /// Verifying one block in a scrub pass: read + checksum, cheaper
    /// than a cold block I/O (sequential scan, no seek per block).
    pub scrub_block_ns: u64,
    /// Healing one corrupt block: read the replica, rewrite the home
    /// location, re-verify — a couple of block I/Os.
    pub repair_ns: u64,
    /// Validating one prelink snapshot: read the record, check the
    /// envelope checksum, compare the scope hash and per-module content
    /// digests. A fraction of a cold block I/O — the point of the cache
    /// is that this replaces per-symbol `resolve_ns` and the metadata
    /// reads of a full link.
    pub snapshot_validate_ns: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            instruction_ns: 40,       // ~25 MIPS
            syscall_ns: 20_000,       // 20 µs trap + dispatch
            fault_ns: 120_000,        // signal delivery + restart
            disk_block_ns: 2_000_000, // 2 ms per 4 KB block
            lookup_ns: 5_000,
            probe_ns: 200,
            resolve_ns: 8_000,
            cow_ns: 30_000,
            evict_ns: 25_000,              // page-table + TLB bookkeeping
            swap_io_ns: 2_000_000,         // one 4 KB page to disk
            swap_in_ns: 2_000_000,         // one 4 KB page from disk
            ipi_ns: 5_000,                 // cross-CPU interrupt + ack
            shootdown_ns: 2_000,           // one remote TLB-entry invalidation
            scrub_block_ns: 500_000,       // sequential verify, 1/4 of a cold block
            repair_ns: 4_000_000,          // replica read + home rewrite
            snapshot_validate_ns: 250_000, // one record read + digest compare
        }
    }
}

impl CostModel {
    /// Total simulated time for a run's counters.
    pub fn time(&self, s: &WorldStats) -> SimTime {
        let mut ns = 0u64;
        ns += s.kernel.instructions * self.instruction_ns;
        ns += (s.kernel.syscalls + s.kernel.services) * self.syscall_ns;
        ns += s.kernel.segv_faults * self.fault_ns;
        let blocks = s.root_fs.blocks_read
            + s.root_fs.blocks_written
            + s.shared_fs.blocks_read
            + s.shared_fs.blocks_written;
        ns += blocks * self.disk_block_ns;
        ns += (s.root_fs.lookups + s.shared_fs.lookups) * self.lookup_ns;
        ns += s.addr_probe_steps * self.probe_ns;
        ns += (s.ldl.symbols_resolved + s.ldl.symbols_unresolved) * self.resolve_ns;
        ns += s.cow_copies * self.cow_ns;
        // Memory pressure: eviction bookkeeping, swap/writeback I/O, and
        // swap-ins. All zero under the default (generous) frame budget,
        // so unpressured runs cost exactly what they did before.
        ns += s.page_evictions * self.evict_ns;
        ns += (s.page_writebacks + s.swap_outs) * self.swap_io_ns;
        ns += s.swap_ins * self.swap_in_ns;
        // SMP: shootdown IPIs and remote invalidations. Both counters
        // are 0 on a single-CPU world, so existing runs are unchanged.
        ns += s.ipis * self.ipi_ns;
        ns += s.shootdowns * self.shootdown_ns;
        // Crash recovery: priced once at reboot (journal-replay I/O +
        // boot scan), accumulated here. Zero on crash-free runs.
        ns += s.recovery_ns;
        // Integrity: scrub passes and block repairs. Both counters are
        // 0 on a run that never scrubs and never sees corruption, so
        // the checksum machinery is free until it has work to do.
        ns += s.blocks_scrubbed * self.scrub_block_ns;
        ns += s.blocks_repaired * self.repair_ns;
        // Prelink snapshots: every load attempt that found a snapshot
        // (hit or rejected) pays one flat validation; misses and
        // rebuilds are free, so a cold boot with snapshots enabled
        // prices identically to a snapshots-off boot. The cache is
        // consulted once per (executable, boot) — same-boot respawns
        // ride the kernel's hot in-RAM state and bill nothing extra.
        ns += (s.snapshot_hits + s.snapshot_invalidations) * self.snapshot_validate_ns;
        SimTime(ns)
    }

    /// The simulated-time cost stamped on one trace record: the only
    /// place a record's price is decided. Records that mirror a counter
    /// billed by [`CostModel::time`] carry exactly that counter's terms,
    /// so per-kind cost tallies reconcile with the clock. Fault-path
    /// records carry the step's nominal cost as a breakdown; the rest
    /// (mapping, steals, snapshot misses and rebuilds, diagnostics) are
    /// free.
    pub fn price(&self, event: &TraceEvent) -> u64 {
        match *event {
            TraceEvent::FaultTaken { .. } => self.fault_ns,
            TraceEvent::AddrTranslated { .. } => self.lookup_ns,
            TraceEvent::SymbolResolved { .. } => self.resolve_ns,
            TraceEvent::InstructionRestarted { .. } => self.instruction_ns,
            TraceEvent::RecoveryTaken { action, retries } => match action {
                "spawn-refused" => self.syscall_ns,
                // Each bounded-backoff attempt cost roughly one fault.
                "ldl-retry" => u64::from(retries) * self.fault_ns,
                _ => self.fault_ns,
            },
            TraceEvent::PageEvicted { kind, .. } => {
                // An anonymous page goes to swap first; a shared one
                // just pays the bookkeeping (its writeback, if dirty,
                // is its own record).
                let io = if kind == "anon" { self.swap_io_ns } else { 0 };
                self.evict_ns + io
            }
            TraceEvent::WritebackTaken { .. } => self.swap_io_ns,
            TraceEvent::PageSwappedIn { .. } => self.swap_in_ns,
            TraceEvent::TlbShootdown { pages, retried, .. } => {
                (1 + u64::from(retried)) * self.ipi_ns + u64::from(pages) * self.shootdown_ns
            }
            // Recovery reads the journal (one block per record) and
            // writes the block images home.
            TraceEvent::JournalReplayed { records, blocks } => {
                (records + blocks) * self.disk_block_ns
            }
            TraceEvent::ScrubPass { blocks, .. } => blocks * self.scrub_block_ns,
            TraceEvent::BlockRepaired { .. } => self.repair_ns,
            TraceEvent::SnapshotHit { .. } | TraceEvent::SnapshotInvalidated { .. } => {
                self.snapshot_validate_ns
            }
            TraceEvent::SegmentMapped { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::RaceDetected { .. }
            | TraceEvent::LockOrderCycle { .. }
            | TraceEvent::ProtectionDrift { .. }
            | TraceEvent::FsckRepaired { .. }
            | TraceEvent::CpuSteal { .. }
            | TraceEvent::CrashTaken { .. }
            | TraceEvent::CorruptionDetected { .. }
            | TraceEvent::EioKilled { .. }
            | TraceEvent::LinkFailed { .. }
            | TraceEvent::SnapshotMiss { .. }
            | TraceEvent::SnapshotRebuilt { .. }
            | TraceEvent::BlockInvalidated { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_counters_zero_time() {
        let m = CostModel::default();
        assert_eq!(m.time(&WorldStats::default()), SimTime(0));
    }

    #[test]
    fn instruction_and_fault_costs_add() {
        let m = CostModel::default();
        let mut s = WorldStats::default();
        s.kernel.instructions = 1000;
        s.kernel.segv_faults = 2;
        let t = m.time(&s);
        assert_eq!(t.0, 1000 * m.instruction_ns + 2 * m.fault_ns);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimTime(1_500).to_string(), "1.5 µs");
        assert_eq!(SimTime(2_500_000).to_string(), "2.500 ms");
        assert_eq!(SimTime(3_000_000_000).to_string(), "3.000 s");
    }

    #[test]
    fn scrub_and_repair_are_priced() {
        let m = CostModel::default();
        let s = WorldStats {
            blocks_scrubbed: 10,
            blocks_repaired: 2,
            ..Default::default()
        };
        assert_eq!(m.time(&s).0, 10 * m.scrub_block_ns + 2 * m.repair_ns);
        // Detection alone (corruptions found, nothing scrubbed or
        // repaired yet) is free: pricing rides the scan and the heal.
        let d = WorldStats {
            corruptions_detected: 5,
            eio_kills: 1,
            ..Default::default()
        };
        assert_eq!(m.time(&d), SimTime(0));
    }

    #[test]
    fn snapshot_validation_is_priced_and_misses_are_free() {
        let m = CostModel::default();
        let s = WorldStats {
            snapshot_hits: 3,
            snapshot_invalidations: 1,
            snapshot_misses: 7,
            snapshot_rebuilds: 8,
            ..Default::default()
        };
        // Hits and invalidations each bill one flat validation; misses
        // and rebuilds bill nothing — the cold path must price exactly
        // as a snapshots-off run.
        assert_eq!(m.time(&s).0, 4 * m.snapshot_validate_ns);
        // Validation must be far cheaper than the block I/O + per-symbol
        // resolution it replaces, or the cache would not pay.
        assert!(m.snapshot_validate_ns < m.disk_block_ns / 4);
    }

    /// The prices `World::audit` cannot check against a counter:
    /// `recovery_ns` *is* the replay records' cost tally, free records
    /// have no term, and a recovery's price is a breakdown of work
    /// billed elsewhere. Every other priced kind is checked against its
    /// `time` term by `audit`, on every run that publishes it.
    #[test]
    fn prices_audit_cannot_check() {
        let m = CostModel::default();
        let replay = TraceEvent::JournalReplayed {
            records: 7,
            blocks: 2,
        };
        assert_eq!(m.price(&replay), 9 * m.disk_block_ns);
        let crash = TraceEvent::CrashTaken {
            blocks_discarded: 5,
        };
        let miss = TraceEvent::SnapshotMiss {
            exe: "a".to_string(),
        };
        let eio = TraceEvent::EioKilled { addr: 0x3000_0000 };
        let link = TraceEvent::LinkFailed {
            module: "a".to_string(),
            cause: "trampoline area overflow in `<image>`".to_string(),
        };
        let free = [&crash, &miss, &eio, &link].map(|e| m.price(e));
        assert_eq!(free, [0; 4]);
        // Recovery records price the work the recovery redid.
        let recovery = |action, retries| m.price(&TraceEvent::RecoveryTaken { action, retries });
        assert_eq!(recovery("ldl-retry", 3), 3 * m.fault_ns);
        assert_eq!(recovery("killed-victim", 0), m.fault_ns);
        assert_eq!(recovery("spawn-refused", 0), m.syscall_ns);
    }

    #[test]
    fn fault_costs_dominate_instructions() {
        // A fault must cost thousands of instructions, or the lazy-vs-
        // eager tradeoff the paper discusses would not exist.
        let m = CostModel::default();
        assert!(m.fault_ns > 1000 * m.instruction_ns);
        assert!(m.disk_block_ns > m.syscall_ns);
    }
}
