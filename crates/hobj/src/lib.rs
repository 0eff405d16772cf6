//! `hobj` — object-file formats for the Hemlock reproduction.
//!
//! Hemlock's linkers ("Linking Shared Segments", USENIX Winter 1993) work
//! at the level of Unix `.o` files: every shared *module* is created from
//! a `.o` *template*, and linker support for sharing "capitalizes on the
//! lowest common denominator for language implementations: the object
//! file" (§3). This crate provides that common denominator:
//!
//! * [`Object`] — a relocatable module template (sections, symbols,
//!   relocations, and the embedded search-path records that scoped linking
//!   consults);
//! * [`LoadImage`] — an executable (`a.out`) as produced by `lds`,
//!   including the retained relocation table and the dynamic-module list
//!   that `lds` saves for the run-time linker `ldl`;
//! * [`binfmt`] — a versioned, checksummed binary encoding of both, so
//!   templates and executables can live in the simulated file system;
//! * [`hasm`] — a two-pass assembler producing [`Object`]s, standing in
//!   for the C compiler of the paper's toolchain.

#![forbid(unsafe_code)]

pub mod binfmt;
pub mod hasm;
pub mod image;
pub mod object;
pub mod reloc;
pub mod symbol;

pub use image::{
    DynamicModule, ImageReloc, ImageSymbol, LoadImage, SearchStrategy, StaticModuleRecord,
};
pub use object::{Object, ObjectError, SearchSpec, SectionId};
pub use reloc::{Reloc, RelocError, RelocKind};
pub use symbol::{Binding, Symbol, SymbolDef};

/// The four sharing classes of Table 1 in the paper.
///
/// Classes differ in when the module is linked (static link time vs. run
/// time), whether each process gets a fresh instance (private) or all
/// processes share one persistent instance (public), and which portion of
/// the address space the module occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShareClass {
    /// Linked at static link time; a new instance per process; private
    /// addresses. This is ordinary Unix linking.
    StaticPrivate,
    /// Linked at run time by `ldl`; a new instance per process; private
    /// addresses.
    DynamicPrivate,
    /// Linked at static link time; one persistent shared instance at a
    /// globally agreed-upon address in the shared file system.
    StaticPublic,
    /// Linked at run time by `ldl`; one persistent shared instance,
    /// created on first use, at a globally agreed-upon address.
    DynamicPublic,
}

impl ShareClass {
    /// True for the classes linked by `lds` at static link time.
    pub fn is_static(self) -> bool {
        matches!(self, ShareClass::StaticPrivate | ShareClass::StaticPublic)
    }

    /// True for the classes that get a fresh instance per process
    /// (Table 1, "new instance created/destroyed for each process").
    pub fn is_private(self) -> bool {
        matches!(self, ShareClass::StaticPrivate | ShareClass::DynamicPrivate)
    }

    /// True for the persistent, globally addressed classes.
    pub fn is_public(self) -> bool {
        !self.is_private()
    }

    /// Parses the `lds` command-line spelling of the class.
    pub fn parse(s: &str) -> Option<ShareClass> {
        match s {
            "static-private" | "sp" => Some(ShareClass::StaticPrivate),
            "dynamic-private" | "dp" => Some(ShareClass::DynamicPrivate),
            "static-public" | "sP" => Some(ShareClass::StaticPublic),
            "dynamic-public" | "dP" => Some(ShareClass::DynamicPublic),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_class_axes() {
        use ShareClass::*;
        // Table 1: linked at static link time?
        assert!(StaticPrivate.is_static() && StaticPublic.is_static());
        assert!(!DynamicPrivate.is_static() && !DynamicPublic.is_static());
        // Table 1: new instance per process?
        assert!(StaticPrivate.is_private() && DynamicPrivate.is_private());
        assert!(StaticPublic.is_public() && DynamicPublic.is_public());
    }

    #[test]
    fn class_parse() {
        assert_eq!(
            ShareClass::parse("static-private"),
            Some(ShareClass::StaticPrivate)
        );
        assert_eq!(ShareClass::parse("dP"), Some(ShareClass::DynamicPublic));
        assert_eq!(ShareClass::parse("nope"), None);
    }
}
