//! `hkernel` — the simulated Unix kernel beneath Hemlock.
//!
//! The paper modified the IRIX kernel in three ways: it keeps a mapping
//! between virtual addresses and files in a dedicated shared file system
//! (implemented in the `hsfs` crate), it provides system calls to
//! translate between the two, and it lets a user-level SIGSEGV handler
//! map segments into a faulting process and restart the instruction.
//!
//! This crate supplies the substrate those extensions live in:
//!
//! * [`mem`] — page-granular address spaces with protections, anonymous
//!   (copy-on-write) and shared-file mappings, and the [`hvm::Bus`]
//!   implementation the CPU executes against;
//! * [`layout`] — the Figure 3 address-space layout (private text and
//!   data low, the 1 GB shared window in the middle, stack high);
//! * [`process`] — processes: CPU context, address space, file
//!   descriptors, environment, signal dispositions;
//! * [`kernel`] — fork/exec/exit/wait, a deterministic round-robin
//!   scheduler, semaphores, file locking, signal delivery, and the
//!   syscall table; faults and "service" syscalls are surfaced to the
//!   embedding runtime (the `hemlock` core crate), which plays the role
//!   of the paper's user-level linker/fault-handler library;
//! * [`event`] — the [`TraceEvent`] vocabulary every layer journals for
//!   the runtime's trace ring.

pub mod event;
pub mod kernel;
pub mod layout;
pub mod mem;
pub mod monitor;
pub mod process;
pub mod syscall;

pub use event::TraceEvent;
pub use kernel::{Kernel, KernelStats, Lifecycle, RunEvent};
pub use layout::Region;
pub use mem::{AddressSpace, FramePool, MemBus, MemError, PoolStats, Prot, RepageOutcome};
pub use monitor::{AccessCtx, Monitor, MonitorRef, SyncEdge};
pub use process::{Pid, ProcState, Process};
pub use syscall::Sys;
