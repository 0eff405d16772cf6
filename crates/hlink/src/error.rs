//! Linker diagnostics.

use crate::tramp::PatchError;
use hobj::binfmt::BinError;
use hobj::{ObjectError, RelocError};
use hsfs::FsError;
use std::fmt;

/// Everything that can go wrong in `lds` or `ldl`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// A *static* module could not be found — `lds` aborts ("Lds aborts
    /// linking if it cannot find a given static module").
    StaticModuleNotFound { name: String },
    /// A template failed to decode.
    BadTemplate { path: String, err: BinError },
    /// A template failed structural validation.
    InvalidTemplate {
        path: String,
        errors: Vec<ObjectError>,
    },
    /// The module uses `$gp`-relative addressing ("ldl insists that
    /// modules be compiled with a flag that disables use of the
    /// processor's ... global pointer register").
    ModuleUsesGp { name: String },
    /// A public module's template does not reside on the shared
    /// partition, so no global address can be assigned to its instance.
    TemplateNotShared { path: String },
    /// A public template is not named `*.o`, so the instance name (the
    /// template path "obtained by dropping the final '.o'") is undefined.
    TemplateNotDotO { path: String },
    /// A relocation could not be applied (and was not trampoline-able).
    Reloc { module: String, err: RelocError },
    /// The trampoline area overflowed (an internal sizing bug).
    TrampolineOverflow { module: String },
    /// Two modules in one link export the same global; reported when the
    /// linker is run in strict mode (otherwise the first wins).
    DuplicateSymbol {
        symbol: String,
        first: String,
        second: String,
    },
    /// The image has no `_start` (missing/incorrect `crt0`).
    NoEntryPoint,
    /// The merged image outgrew its region.
    ImageTooLarge { bytes: u64 },
    /// A file-system operation failed.
    Fs(FsError),
    /// The shared partition is out of inodes/slots.
    OutOfSegments,
    /// The process's address space had no room for a private module.
    OutOfPrivateSpace { name: String },
    /// Fault address does not correspond to any segment or module.
    Unresolvable { addr: u32 },
    /// A module is not on another module's upward escalation chain
    /// (scoped search goes up the DAG, "never down").
    NotInScope { module: String, from: String },
    /// Access rights forbid mapping the segment ("access rights
    /// permitting, [the handler] maps the named segment").
    AccessDenied { path: String },
    /// A symbol lookup for `module` (a module, or `<image>`) failed
    /// outright, as an injected `SymbolResolve` fault does. Finding no
    /// definition is not this error: that reference stays pending.
    LookupFailed { module: String, symbol: String },
    /// A prelink snapshot failed to decode or validate: truncated or
    /// corrupt bytes, a bad envelope, or a malformed record. Never
    /// fatal — the loader falls back to full resolution and rebuilds
    /// the snapshot.
    BadSnapshot { path: String, why: String },
    /// An internal invariant failed (e.g. the process vanished
    /// mid-link). Reported as a typed error so one faulting process is
    /// killed instead of panicking the whole world.
    Internal { what: &'static str },
}

impl LinkError {
    /// The error for a [`crate::tramp::patch`] that failed on a site of
    /// `module` (the owning module, or `<image>`): a full trampoline
    /// area is an overflow, anything else a relocation error.
    pub fn from_patch(module: &str, err: PatchError) -> LinkError {
        let module = module.to_string();
        match err {
            PatchError::AreaFull => LinkError::TrampolineOverflow { module },
            PatchError::Reloc(err) => LinkError::Reloc { module, err },
        }
    }
}

impl From<FsError> for LinkError {
    fn from(e: FsError) -> LinkError {
        LinkError::Fs(e)
    }
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::StaticModuleNotFound { name } => {
                write!(f, "lds: cannot find static module `{name}`")
            }
            LinkError::BadTemplate { path, err } => write!(f, "bad template {path}: {err}"),
            LinkError::InvalidTemplate { path, errors } => {
                write!(f, "invalid template {path}: {} problem(s)", errors.len())
            }
            LinkError::ModuleUsesGp { name } => write!(
                f,
                "module `{name}` uses gp-relative addressing; recompile without the \
                 global-pointer optimization"
            ),
            LinkError::TemplateNotShared { path } => {
                write!(
                    f,
                    "public template {path} must reside on the shared partition"
                )
            }
            LinkError::TemplateNotDotO { path } => {
                write!(f, "public template {path} must be named <module>.o")
            }
            LinkError::Reloc { module, err } => write!(f, "relocation in `{module}`: {err}"),
            LinkError::TrampolineOverflow { module } => {
                write!(f, "trampoline area overflow in `{module}`")
            }
            LinkError::DuplicateSymbol {
                symbol,
                first,
                second,
            } => {
                write!(f, "`{symbol}` exported by both `{first}` and `{second}`")
            }
            LinkError::NoEntryPoint => write!(f, "no `_start` symbol (bad crt0)"),
            LinkError::ImageTooLarge { bytes } => write!(f, "image too large ({bytes} bytes)"),
            LinkError::Fs(e) => write!(f, "file system: {e}"),
            LinkError::OutOfSegments => write!(f, "shared file system out of segments"),
            LinkError::OutOfPrivateSpace { name } => {
                write!(f, "no private address space left for module `{name}`")
            }
            LinkError::Unresolvable { addr } => {
                write!(f, "no segment or module at address {addr:#010x}")
            }
            LinkError::NotInScope { module, from } => {
                write!(
                    f,
                    "module `{module}` is not on the escalation chain of `{from}` \
                     (scoped search never descends)"
                )
            }
            LinkError::AccessDenied { path } => write!(f, "access denied: {path}"),
            LinkError::LookupFailed { module, symbol } => {
                write!(f, "lookup of `{symbol}` for `{module}` failed")
            }
            LinkError::BadSnapshot { path, why } => {
                write!(f, "bad prelink snapshot {path}: {why}")
            }
            LinkError::Internal { what } => write!(f, "internal linker invariant failed: {what}"),
        }
    }
}

impl std::error::Error for LinkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = LinkError::ModuleUsesGp {
            name: "fast".into(),
        };
        assert!(e.to_string().contains("global-pointer"));
        let e = LinkError::StaticModuleNotFound { name: "x".into() };
        assert!(e.to_string().contains("lds"));
        assert_eq!(
            LinkError::from(FsError::NoSpace),
            LinkError::Fs(FsError::NoSpace)
        );
    }

    #[test]
    fn failed_patches_name_their_module() {
        assert_eq!(
            LinkError::from_patch("<image>", PatchError::AreaFull),
            LinkError::TrampolineOverflow {
                module: "<image>".into()
            }
        );
        let err = RelocError::BranchOutOfRange {
            pc: 0x1000,
            target: 0x3000_0000,
        };
        let e = LinkError::from_patch("twice", PatchError::Reloc(err));
        assert_eq!(
            e,
            LinkError::Reloc {
                module: "twice".into(),
                err
            }
        );
        assert!(e.to_string().contains("`twice`"));
    }
}
