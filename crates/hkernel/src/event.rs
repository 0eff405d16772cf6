//! The trace vocabulary: one [`TraceEvent`] per observable step of the
//! paper's fault→translate→map→resolve→restart protocol and of the
//! machinery around it (pressure, SMP, chaos, crashes, integrity,
//! prelink snapshots).
//!
//! It lives in the kernel crate because that is the lowest crate every
//! emitter depends on: the frame pool, the SMP scheduler and the block
//! cache drain, and the linker in `hlink` all journal these values
//! directly. The embedding runtime prices each one with its cost model
//! and appends it to the trace ring.

use crate::Pid;
use std::fmt;

/// One step of the fault→translate→map→resolve→restart protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A SIGSEGV-class fault reached the user-level handler.
    FaultTaken {
        /// The faulting address.
        addr: u32,
    },
    /// The kernel's address→file translation named the segment.
    AddrTranslated {
        /// The translated address.
        addr: u32,
        /// The shared-partition path it names.
        path: String,
    },
    /// A segment was mapped into the faulting process.
    SegmentMapped {
        /// Base virtual address of the mapping.
        base: u32,
        /// Module name for module segments, `None` for plain segments.
        module: Option<String>,
    },
    /// The lazy linker resolved one symbol.
    SymbolResolved {
        /// The module whose reference was patched.
        module: String,
        /// The symbol name.
        symbol: String,
        /// The resolved address.
        addr: u32,
    },
    /// The faulting instruction was restarted.
    InstructionRestarted {
        /// The address whose fault is now resolved.
        addr: u32,
    },
    /// The chaos layer injected a failure at a named site (see
    /// `hfault::FaultSite` and DESIGN.md §8).
    FaultInjected {
        /// Stable site name (`FaultSite::name()`).
        site: &'static str,
    },
    /// The world contained an injected (or injected-adjacent) failure:
    /// the victim was killed, the operation was retried to success, or
    /// the error was returned cleanly to the requester.
    RecoveryTaken {
        /// What recovery was taken (`killed-victim`, `ldl-retry`,
        /// `spawn-refused`, `oom-kill`).
        action: &'static str,
        /// Bounded-backoff retries an `ldl-retry` took before it
        /// succeeded (0 for every other action).
        retries: u32,
    },
    /// The armed sanitizer found two unordered accesses to overlapping
    /// bytes of a shared segment, at least one a write (DESIGN.md §9).
    RaceDetected {
        /// The shared-partition path of the raced segment.
        path: String,
        /// Byte offset of the first overlapping byte within the file.
        offset: u32,
        /// The earlier access: (pid, pc, is_write).
        first: (Pid, u32, bool),
        /// The later access that exposed the race.
        second: (Pid, u32, bool),
    },
    /// The sanitizer's lock-order graph acquired a cycle: a deadlock is
    /// possible even though this run survived.
    LockOrderCycle {
        /// The process whose acquisition closed the cycle.
        pid: Pid,
        /// Human-readable names of the locks on the cycle.
        chain: Vec<String>,
    },
    /// A store landed on a shared page whose *current* sfs mode denies
    /// the writer — the mapping predates a protection transition.
    ProtectionDrift {
        /// The shared-partition path of the written segment.
        path: String,
        /// Byte offset of the store.
        offset: u32,
        /// Effective uid that no longer has write permission.
        uid: u32,
    },
    /// The clock hand dropped a page from the bounded frame pool
    /// (DESIGN.md §10). Clean shared pages re-fault from their backing
    /// segment; anonymous pages went to the swap area first.
    PageEvicted {
        /// Virtual address of the evicted page.
        addr: u32,
        /// What was evicted: `shared-clean`, `shared-dirty`, `anon`.
        kind: &'static str,
    },
    /// A non-resident page was brought back — from the swap area
    /// (anonymous) or from its backing segment (shared, via the full
    /// fault→handler→map→restart protocol).
    PageSwappedIn {
        /// Virtual address of the repaged page.
        addr: u32,
    },
    /// A dirty shared page's bytes were flushed to its backing segment
    /// before the frame was dropped.
    WritebackTaken {
        /// Virtual address of the written-back page.
        addr: u32,
    },
    /// Boot-time `fsck` of the shared partition repaired an
    /// inconsistency before the first map (DESIGN.md §10).
    FsckRepaired {
        /// Human-readable description of the repaired issue.
        detail: String,
    },
    /// Eviction-path reclaim invalidated translations cached by a
    /// remote CPU: an IPI crossed the interconnect and the remote TLB
    /// dropped the affected entries (DESIGN.md §11).
    TlbShootdown {
        /// The CPU that initiated the invalidation (the boot CPU, where
        /// round-boundary reclaim runs).
        from_cpu: u32,
        /// The CPU whose TLB was shot down.
        to_cpu: u32,
        /// First virtual address invalidated.
        addr: u32,
        /// Number of pages invalidated by this shootdown.
        pages: u32,
        /// Whether chaos dropped the first IPI, forcing (and billing) a
        /// retransmission.
        retried: bool,
    },
    /// An idle CPU stole a runnable process from its home CPU at a
    /// round boundary; the context arrives with a cold TLB.
    CpuSteal {
        /// The CPU that took the process.
        cpu: u32,
        /// The CPU the process last ran on.
        from_cpu: u32,
    },
    /// The machine lost power (DESIGN.md §13): every process died, all
    /// volatile kernel state was dropped, and any disk write not yet
    /// flushed by a barrier was discarded.
    CrashTaken {
        /// Disk block writes discarded by the cut (the un-flushed
        /// suffix of the write pipeline).
        blocks_discarded: u64,
    },
    /// Reboot replayed the metadata write-ahead journal onto the
    /// surviving disk image before the boot scan.
    JournalReplayed {
        /// Journal records replayed (committed, checksum-valid prefix).
        records: u64,
        /// Data-block images among them (the rest are metadata).
        blocks: u64,
    },
    /// End-to-end verification found a block whose on-medium bytes do
    /// not match the checksum region (DESIGN.md §14) — bit rot, a lost
    /// write, or a misdirected write reached the platter silently.
    CorruptionDetected {
        /// The damaged file's inode.
        ino: u32,
        /// Block-aligned byte offset within the file.
        block: u64,
        /// Detection signature (`"checksum"` or `"address-stamp"`).
        reason: &'static str,
    },
    /// A corrupt block was healed in place from an intact copy.
    BlockRepaired {
        /// The healed file's inode.
        ino: u32,
        /// Block-aligned byte offset within the file.
        block: u64,
        /// Where the good bytes came from (`"replica"` or `"journal"`).
        source: &'static str,
    },
    /// One deterministic scrub pass over the shared partition completed
    /// (explicit `World::scrub` or the every-N-slices kernel hook).
    ScrubPass {
        /// Stamped blocks verified.
        blocks: u64,
        /// Corrupt blocks found this pass.
        corrupt: u64,
        /// How many of those were healed (the rest are contained by
        /// poisoning — reads fail typed, maps raise `Eio`).
        repaired: u64,
    },
    /// A prelink snapshot validated and was applied: the whole link map
    /// was restored without export-index search or trampoline synthesis
    /// (DESIGN.md §15). Billed at `snapshot_validate_ns`.
    SnapshotHit {
        /// The executable whose snapshot hit.
        exe: String,
        /// Modules mapped pre-resolved from the snapshot.
        modules: u32,
    },
    /// No snapshot existed for the executable; full resolution ran.
    /// Free — a cold boot with snapshots enabled costs exactly what a
    /// snapshots-off boot costs.
    SnapshotMiss {
        /// The executable that missed.
        exe: String,
    },
    /// A snapshot existed but failed validation — stale module content,
    /// changed scope, a reassigned address, or corrupt bytes. Billed at
    /// `snapshot_validate_ns`; full resolution follows.
    SnapshotInvalidated {
        /// The executable whose snapshot was rejected.
        exe: String,
        /// Why validation failed.
        why: String,
    },
    /// A fresh snapshot was written (through the WAL pipeline) after a
    /// successful resolve. Free — rebuilds ride the link that already
    /// paid full price.
    SnapshotRebuilt {
        /// The executable whose snapshot was rebuilt.
        exe: String,
        /// Modules recorded in the new snapshot.
        modules: u32,
    },
    /// A TLB-parity event dropped decoded basic blocks from a process's
    /// block cache (DESIGN.md §12). Pure host-speed diagnostics: zero
    /// cost, and emitted only when blocks were actually dropped (a
    /// cache-off run records none).
    BlockInvalidated {
        /// First affected virtual address (page-aligned; 0 for
        /// whole-cache events like fork or migration).
        addr: u32,
        /// Decoded blocks dropped by this event.
        blocks: u64,
        /// Which invalidation edge fired (`"unmap"`, `"mprotect"`,
        /// `"evict"`, `"fork"`, `"migrate"`, `"store-exec"`, ...).
        cause: &'static str,
    },
}

impl TraceEvent {
    /// Short tag for dumps and coarse assertions.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FaultTaken { .. } => "FaultTaken",
            TraceEvent::AddrTranslated { .. } => "AddrTranslated",
            TraceEvent::SegmentMapped { .. } => "SegmentMapped",
            TraceEvent::SymbolResolved { .. } => "SymbolResolved",
            TraceEvent::InstructionRestarted { .. } => "InstructionRestarted",
            TraceEvent::FaultInjected { .. } => "FaultInjected",
            TraceEvent::RecoveryTaken { .. } => "RecoveryTaken",
            TraceEvent::RaceDetected { .. } => "RaceDetected",
            TraceEvent::LockOrderCycle { .. } => "LockOrderCycle",
            TraceEvent::ProtectionDrift { .. } => "ProtectionDrift",
            TraceEvent::PageEvicted { .. } => "PageEvicted",
            TraceEvent::PageSwappedIn { .. } => "PageSwappedIn",
            TraceEvent::WritebackTaken { .. } => "WritebackTaken",
            TraceEvent::FsckRepaired { .. } => "FsckRepaired",
            TraceEvent::CrashTaken { .. } => "CrashTaken",
            TraceEvent::JournalReplayed { .. } => "JournalReplayed",
            TraceEvent::TlbShootdown { .. } => "TlbShootdown",
            TraceEvent::CpuSteal { .. } => "CpuSteal",
            TraceEvent::CorruptionDetected { .. } => "CorruptionDetected",
            TraceEvent::BlockRepaired { .. } => "BlockRepaired",
            TraceEvent::ScrubPass { .. } => "ScrubPass",
            TraceEvent::SnapshotHit { .. } => "SnapshotHit",
            TraceEvent::SnapshotMiss { .. } => "SnapshotMiss",
            TraceEvent::SnapshotInvalidated { .. } => "SnapshotInvalidated",
            TraceEvent::SnapshotRebuilt { .. } => "SnapshotRebuilt",
            TraceEvent::BlockInvalidated { .. } => "BlockInvalidated",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::FaultTaken { addr } => write!(f, "FaultTaken addr={addr:#010x}"),
            TraceEvent::AddrTranslated { addr, path } => {
                write!(f, "AddrTranslated addr={addr:#010x} path={path}")
            }
            TraceEvent::SegmentMapped { base, module } => match module {
                Some(m) => write!(f, "SegmentMapped base={base:#010x} module={m}"),
                None => write!(f, "SegmentMapped base={base:#010x} (plain segment)"),
            },
            TraceEvent::SymbolResolved {
                module,
                symbol,
                addr,
            } => {
                write!(f, "SymbolResolved {module}::{symbol} -> {addr:#010x}")
            }
            TraceEvent::InstructionRestarted { addr } => {
                write!(f, "InstructionRestarted addr={addr:#010x}")
            }
            TraceEvent::FaultInjected { site } => write!(f, "FaultInjected site={site}"),
            TraceEvent::RecoveryTaken { action, retries: 0 } => {
                write!(f, "RecoveryTaken action={action}")
            }
            TraceEvent::RecoveryTaken { action, retries } => {
                write!(f, "RecoveryTaken action={action} retries={retries}")
            }
            TraceEvent::RaceDetected {
                path,
                offset,
                first,
                second,
            } => {
                let rw = |w: bool| if w { "W" } else { "R" };
                write!(
                    f,
                    "RaceDetected {path}+{offset:#x} pid {} {}@{:#010x} vs pid {} {}@{:#010x}",
                    first.0,
                    rw(first.2),
                    first.1,
                    second.0,
                    rw(second.2),
                    second.1
                )
            }
            TraceEvent::LockOrderCycle { pid, chain } => {
                write!(f, "LockOrderCycle pid {} via {}", pid, chain.join(" -> "))
            }
            TraceEvent::ProtectionDrift { path, offset, uid } => {
                write!(f, "ProtectionDrift {path}+{offset:#x} uid={uid}")
            }
            TraceEvent::PageEvicted { addr, kind } => {
                write!(f, "PageEvicted addr={addr:#010x} kind={kind}")
            }
            TraceEvent::PageSwappedIn { addr } => {
                write!(f, "PageSwappedIn addr={addr:#010x}")
            }
            TraceEvent::WritebackTaken { addr } => {
                write!(f, "WritebackTaken addr={addr:#010x}")
            }
            TraceEvent::FsckRepaired { detail } => write!(f, "FsckRepaired {detail}"),
            TraceEvent::CrashTaken { blocks_discarded } => {
                write!(f, "CrashTaken blocks_discarded={blocks_discarded}")
            }
            TraceEvent::JournalReplayed { records, blocks } => {
                write!(f, "JournalReplayed records={records} blocks={blocks}")
            }
            TraceEvent::TlbShootdown {
                from_cpu,
                to_cpu,
                addr,
                pages,
                retried,
            } => {
                write!(
                    f,
                    "TlbShootdown cpu{from_cpu}->cpu{to_cpu} addr={addr:#010x} pages={pages}{}",
                    if *retried { " (retried)" } else { "" }
                )
            }
            TraceEvent::CpuSteal { cpu, from_cpu } => {
                write!(f, "CpuSteal cpu{cpu} <- cpu{from_cpu}")
            }
            TraceEvent::CorruptionDetected { ino, block, reason } => {
                write!(
                    f,
                    "CorruptionDetected ino={ino} block={block} reason={reason}"
                )
            }
            TraceEvent::BlockRepaired { ino, block, source } => {
                write!(f, "BlockRepaired ino={ino} block={block} source={source}")
            }
            TraceEvent::ScrubPass {
                blocks,
                corrupt,
                repaired,
            } => {
                write!(
                    f,
                    "ScrubPass blocks={blocks} corrupt={corrupt} repaired={repaired}"
                )
            }
            TraceEvent::SnapshotHit { exe, modules } => {
                write!(f, "SnapshotHit exe={exe} modules={modules}")
            }
            TraceEvent::SnapshotMiss { exe } => write!(f, "SnapshotMiss exe={exe}"),
            TraceEvent::SnapshotInvalidated { exe, why } => {
                write!(f, "SnapshotInvalidated exe={exe} why={why}")
            }
            TraceEvent::SnapshotRebuilt { exe, modules } => {
                write!(f, "SnapshotRebuilt exe={exe} modules={modules}")
            }
            TraceEvent::BlockInvalidated {
                addr,
                blocks,
                cause,
            } => {
                write!(
                    f,
                    "BlockInvalidated addr={addr:#010x} blocks={blocks} cause={cause}"
                )
            }
        }
    }
}
