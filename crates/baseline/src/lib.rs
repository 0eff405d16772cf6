//! `baseline` — the systems the paper compares Hemlock against.
//!
//! Each module here reproduces a *pre-Hemlock* way of doing the job, so
//! the benchmarks can measure the deltas the paper claims:
//!
//! * [`rwho_files`] — the original rwhod design: one ASCII status file
//!   per remote machine, rewritten on every broadcast, re-read and
//!   re-parsed by every `rwho` invocation (§4, "Administrative Files");
//! * [`serialize`] — linearization of pointer-rich data structures to a
//!   flat format and back (what xfig and the Lynx compiler had to do
//!   before Hemlock, §4);
//! * [`linking`] — alternative linking disciplines: *eager* dynamic
//!   linking (resolve the whole reachability graph at startup) and the
//!   SunOS-style *jump-table* cost model (lazy for functions, eager for
//!   data, no fault overhead) that §3 contrasts with Hemlock's
//!   fault-driven approach.

pub mod linking;
pub mod rwho_files;
pub mod serialize;

pub use rwho_files::{HostStatus, RwhoFilesBaseline};
pub use serialize::{Figure, FigureObject};
