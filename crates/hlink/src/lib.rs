//! `hlink` — Hemlock's linkers: `lds` (static) and `ldl` (lazy dynamic).
//!
//! This crate is the paper's primary contribution ("Linking Shared
//! Segments", USENIX Winter 1993):
//!
//! * [`lds`] — the static linker. It assigns each input module one of the
//!   four sharing classes of Table 1, merges the static-private modules
//!   (behind a special `crt0`) into a load image, creates any
//!   static-public modules that do not yet exist *in place* at their
//!   globally agreed-upon shared-file-system addresses, resolves
//!   references to absolute addresses (which the stock `ld` refused to
//!   do), retains relocation information in an explicit structure, and
//!   records the dynamic-module list and search strategy for `ldl`.
//! * [`ldl`] — the run-time lazy dynamic linker. Called by `crt0` before
//!   `main`, it locates dynamic modules (honoring `LD_LIBRARY_PATH` at
//!   run time), instantiates dynamic-private modules per process and
//!   dynamic-public modules on first use (with file locking), maps
//!   modules that still contain undefined references *without access
//!   permissions* so the first touch faults, and resolves references on
//!   demand from the SIGSEGV path — including following raw pointers
//!   into segments that are not yet mapped.
//! * [`scope`] — scoped linking: each module's unresolved references are
//!   resolved first against its own module list and search path, then
//!   escalated parent-ward up the link DAG, never downward (Figure 2).
//! * [`tramp`] — long-branch trampolines for `j`/`jal` targets outside
//!   the 256 MB region, and the `$gp` rejection rule.
//! * [`snapshot`] — persistent prelink snapshots (DESIGN.md §15): the
//!   resolved link map serialized to the shared partition after a
//!   successful resolve, validated and applied wholesale on later
//!   boots for one flat charge instead of per-symbol resolution.

pub mod error;
pub mod instance;
pub mod ldl;
pub mod lds;
pub mod meta;
pub mod scope;
pub mod search;
pub mod snapshot;
pub mod tramp;

pub use error::LinkError;
pub use instance::ModuleRegistry;
pub use ldl::{FaultDisposition, Ldl, LinkState, ModuleInst};
pub use lds::{Lds, LdsInput, LdsOutput, ModuleSpec};
pub use meta::ModuleMeta;
pub use search::SearchPath;
pub use snapshot::PrelinkSnapshot;

/// Default system library directories (the tail of every search path).
pub const DEFAULT_LIB_DIRS: &[&str] = &["/usr/hemlock/lib", "/shared/lib"];

/// The name of the startup symbol the special `crt0` exports; `lds` makes
/// it the image entry point.
pub const START_SYMBOL: &str = "_start";

/// The service-call number `crt0` issues so the runtime can run `ldl`
/// before `main` (see `hkernel::syscall::SERVICE_BASE`).
pub const SERVICE_LDL_INIT: u32 = 100;

/// Alignment of each module's sections within a merged image.
pub const MODULE_ALIGN: u32 = 16;
