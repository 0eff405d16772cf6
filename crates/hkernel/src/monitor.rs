//! Observation hooks for external sanitizers.
//!
//! The paper leaves the discipline of the shared window to convention:
//! guest programs are *supposed* to guard mutable public segments with
//! the test-and-set trap or kernel semaphores, but nothing checks that
//! they do. A [`Monitor`] is an opt-in observer the embedding runtime
//! can install on the kernel: it sees every guest load/store that
//! reaches a shared-file page and every synchronization edge the kernel
//! mediates, and from those two streams can reconstruct a
//! happens-before order (see `crates/hsan`).
//!
//! Monitors are pure observers. The kernel never consults their answers,
//! they run at zero simulated cost, and when none is installed the only
//! overhead is one `Option` branch per shared access.

use crate::process::Pid;
use std::sync::{Arc, Mutex};

/// Who performed a shared-window access, and from where.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessCtx {
    /// The executing process.
    pub pid: Pid,
    /// PC of the instruction performing the access.
    pub pc: u32,
    /// Effective uid of the process (for protection-transition checks).
    pub uid: u32,
    /// The simulated CPU the access executed on (always 0 on a
    /// single-CPU world). Lets monitors keep per-CPU observation
    /// streams; the happens-before analysis itself stays pid-based, so
    /// two CPUs racing inside one sub-quantum are still unordered.
    pub cpu: u32,
}

/// A synchronization edge the kernel mediated.
///
/// Each variant carries enough to update vector clocks: acquire edges
/// join the sync object's clock into the process, release edges join the
/// process's clock into the object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncEdge {
    /// `sem_p` succeeded (immediately or after blocking): acquire.
    SemAcquire { pid: Pid, sem: u32 },
    /// `sem_v`: release by the signalling process.
    SemRelease { pid: Pid, sem: u32 },
    /// `fork` returned: the child starts with the parent's history.
    Fork { parent: Pid, child: Pid },
    /// The process finished its last instruction (exit or kill).
    Exit { pid: Pid },
    /// `waitpid` reaped `child`: the parent inherits its history.
    Join { parent: Pid, child: Pid },
    /// A mutual-exclusion lock was acquired (flock, or a successful
    /// test-and-set on a shared word). `lock` is a stable key for the
    /// lock object.
    LockAcquire { pid: Pid, lock: u64 },
    /// The same lock was released (unlock, close, exit, or storing zero
    /// back to a test-and-set word).
    LockRelease { pid: Pid, lock: u64 },
}

/// An observer of shared-window traffic and kernel sync edges.
pub trait Monitor: Send {
    /// A guest data load read `len` bytes of shared file `ino` at `off`.
    fn shared_read(&mut self, ctx: AccessCtx, ino: u32, off: u32, len: u32);

    /// A guest store wrote `len` bytes of shared file `ino` at `off`.
    /// `mode_allows` is whether the file's *current* sfs mode would grant
    /// the writer write permission (the mapping may predate a chmod).
    fn shared_write(&mut self, ctx: AccessCtx, ino: u32, off: u32, len: u32, mode_allows: bool);

    /// The kernel mediated a synchronization edge.
    fn sync_edge(&mut self, edge: SyncEdge);
}

/// Shared handle to an installed monitor.
///
/// `Arc<Mutex<..>>` mirrors `hfault::FaultHandle`: the embedding runtime
/// keeps a typed clone for draining reports while the kernel holds the
/// trait object.
pub type MonitorRef = Arc<Mutex<dyn Monitor>>;
