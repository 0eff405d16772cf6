//! `hemlock` — transparent sharing of variables and subroutines across
//! application boundaries.
//!
//! This is the top of the reproduction of *Linking Shared Segments*
//! (Garrett, Scott, et al., USENIX Winter 1993). The paper's Hemlock
//! system consists of "new static and dynamic linkers, a run-time
//! library, and a set of kernel extensions"; this crate supplies the
//! run-time library and glues the pieces from the substrate crates into
//! one usable system:
//!
//! * [`World`] — a complete simulated machine: kernel, file systems
//!   (including the address-mapped shared partition), the module
//!   registry, and per-process dynamic-linking state. Programs are
//!   assembled, linked with `lds`, spawned, and run; SIGSEGV-class
//!   faults are routed to Hemlock's user-level handler (`ldl`), exactly
//!   as in the paper.
//! * [`crt0`] — the special start-up module `lds` links into every
//!   program; it calls `ldl` before `main`.
//! * [`segheap`] — the storage-management package that allocates "from
//!   the heaps associated with individual segments, instead of a heap
//!   associated with the calling program" (§5) — the allocator behind
//!   the xfig case study.
//! * [`services`] — the user-level service calls backing the runtime
//!   library (ldl-init, map-segment, test-and-set, segment heaps).
//! * [`costs`] — a deterministic cost model translating simulation
//!   counters into time, so the paper's relative performance claims can
//!   be evaluated without 1992 hardware.
//!
//! # Quick start
//!
//! ```
//! use hemlock::{World, ShareClass};
//!
//! let mut world = World::new();
//! // A shared counter module, and a program that bumps it.
//! world.install_template(
//!     "/shared/lib/counter.o",
//!     r#"
//!     .module counter
//!     .text
//!     .globl bump
//!     bump:   la   r8, count
//!             lw   r9, 0(r8)
//!             addi r9, r9, 1
//!             sw   r9, 0(r8)
//!             or   v0, r9, r0
//!             jr   ra
//!     .data
//!     .globl count
//!     count:  .word 0
//!     "#,
//! ).unwrap();
//! world.install_template(
//!     "/src/main.o",
//!     r#"
//!     .module main
//!     .text
//!     .globl main
//!     main:   addi sp, sp, -8
//!             sw   ra, 0(sp)
//!             jal  bump
//!             jal  bump
//!             lw   ra, 0(sp)
//!             addi sp, sp, 8
//!             jr   ra        ; returns bump's result (2)
//!     "#,
//! ).unwrap();
//! let exe = world
//!     .link(
//!         "/bin/demo",
//!         &[("/src/main.o", ShareClass::StaticPrivate),
//!           ("/shared/lib/counter.o", ShareClass::DynamicPublic)],
//!     )
//!     .unwrap();
//! let pid = world.spawn(&exe).unwrap();
//! world.run_to_completion();
//! assert_eq!(world.exit_code(pid), Some(2));
//! // The counter lives in a persistent shared segment:
//! assert_eq!(world.peek_shared_word("/shared/lib/counter", "count").unwrap(), 2);
//! ```

pub mod costs;
pub mod crt0;
pub mod htrace;
pub mod segheap;
pub mod services;
pub mod world;

pub use costs::{CostModel, SimTime, WorldStats};
pub use hfault::{FaultHandle, FaultPlan, FaultSite, ALL_SITES};
pub use hobj::ShareClass;
pub use hsan::{LockId, Report, Sanitizer};
pub use htrace::{TraceBuffer, TraceEvent, TraceRecord};
pub use world::{RaceRecord, Unsettled, WaitReason, World, WorldError, WorldExit};
