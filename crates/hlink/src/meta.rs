//! Per-instance module metadata.
//!
//! When a public module instance is created from its template, the linker
//! records what later consumers need: the instance's layout inside its
//! 1 MB slot, its exported symbols at absolute addresses, any relocations
//! that remain pending (to be finished lazily), and the module's own
//! scoped-linking search information. The record is written beside the
//! kernel's address table — in `/var/hemlock/meta/<ino>` on the *root*
//! file system, so it does not consume one of the shared partition's 1024
//! inodes — and is how a *different* process, linking the same public
//! module later, knows the segment's symbols without re-reading the
//! template.

use crate::error::LinkError;
use hobj::binfmt::{reloc_kind_from, reloc_kind_tag, BinError, Reader, Writer};
use hobj::{ImageReloc, SearchSpec};
use hsfs::{Ino, Vfs};
use std::collections::HashMap;

/// Magic for module metadata records.
pub const META_MAGIC: u32 = 0x4154_4D48; // "HMTA"

/// Directory (on the root file system) holding metadata records.
pub const META_DIR: &str = "/var/hemlock/meta";

/// Metadata describing one public module instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModuleMeta {
    /// Module name.
    pub name: String,
    /// Base virtual address (the slot address of the backing file).
    pub base: u32,
    /// Text length in bytes (excluding the trampoline area).
    pub text_len: u32,
    /// Offset of the trampoline area from `base`.
    pub tramp_off: u32,
    /// Trampoline area capacity in bytes.
    pub tramp_cap: u32,
    /// Trampoline bytes already used.
    pub tramp_used: u32,
    /// Offset of the data section from `base`.
    pub data_off: u32,
    /// Data length in bytes.
    pub data_len: u32,
    /// Bss length in bytes.
    pub bss_len: u32,
    /// Total mapped length (page-rounded).
    pub total_len: u32,
    /// Exported globals at absolute addresses.
    pub exports: Vec<(String, u32)>,
    /// Relocations not yet applied (symbol still unresolved). Patch
    /// addresses are absolute.
    pub pending: Vec<ImageReloc>,
    /// The module's own scoped-linking search information.
    pub search: SearchSpec,
}

impl ModuleMeta {
    /// The metadata path for a shared-partition inode.
    pub fn path_for(ino: Ino) -> String {
        format!("{META_DIR}/{ino}")
    }

    /// True while unresolved references remain — the instance must be
    /// mapped without access permissions so the first touch faults into
    /// the lazy linker.
    pub fn needs_lazy_link(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Looks up an export.
    pub fn find_export(&self, name: &str) -> Option<u32> {
        self.exports
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, a)| a)
    }

    /// Serializes the record.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(META_MAGIC);
        w.str(&self.name);
        w.u32(self.base);
        w.u32(self.text_len);
        w.u32(self.tramp_off);
        w.u32(self.tramp_cap);
        w.u32(self.tramp_used);
        w.u32(self.data_off);
        w.u32(self.data_len);
        w.u32(self.bss_len);
        w.u32(self.total_len);
        w.u32(self.exports.len() as u32);
        for (name, addr) in &self.exports {
            w.str(name);
            w.u32(*addr);
        }
        w.u32(self.pending.len() as u32);
        for p in &self.pending {
            w.u32(p.addr);
            w.u8(reloc_kind_tag(p.kind));
            w.str(&p.symbol);
            w.i32(p.addend);
        }
        w.str_list(&self.search.modules);
        w.str_list(&self.search.dirs);
        w.finish()
    }

    /// Deserializes a record.
    pub fn decode(buf: &[u8]) -> Result<ModuleMeta, BinError> {
        let mut r = Reader::open(buf, META_MAGIC)?;
        let name = r.str()?;
        let base = r.u32()?;
        let text_len = r.u32()?;
        let tramp_off = r.u32()?;
        let tramp_cap = r.u32()?;
        let tramp_used = r.u32()?;
        let data_off = r.u32()?;
        let data_len = r.u32()?;
        let bss_len = r.u32()?;
        let total_len = r.u32()?;
        let nexp = r.u32()? as usize;
        let mut exports = Vec::with_capacity(nexp.min(65536));
        for _ in 0..nexp {
            let n = r.str()?;
            let a = r.u32()?;
            exports.push((n, a));
        }
        let npend = r.u32()? as usize;
        let mut pending = Vec::with_capacity(npend.min(65536));
        for _ in 0..npend {
            let addr = r.u32()?;
            let kind = reloc_kind_from(r.u8()?)?;
            let symbol = r.str()?;
            let addend = r.i32()?;
            pending.push(ImageReloc {
                addr,
                kind,
                symbol,
                addend,
            });
        }
        let modules = r.str_list()?;
        let dirs = r.str_list()?;
        r.done()?;
        Ok(ModuleMeta {
            name,
            base,
            text_len,
            tramp_off,
            tramp_cap,
            tramp_used,
            data_off,
            data_len,
            bss_len,
            total_len,
            exports,
            pending,
            search: SearchSpec { modules, dirs },
        })
    }

    /// Persists the record for `ino`.
    ///
    /// Crash-ordering fence: resolution patches the instance through
    /// mapped stores, whose dirt only reaches the journal lazily — but
    /// this record *describes* those bytes ("these references are
    /// resolved"). Sync the instance first, so no journal prefix can
    /// recover the metadata without the patches it vouches for.
    pub fn save(&self, vfs: &mut Vfs, ino: Ino) -> Result<(), LinkError> {
        vfs.sync_shared_ino(ino);
        // The metadata record lives on the *root* file system, which is
        // a separate device from the shared partition — if the shared
        // device died before the fence transaction committed (fsync
        // reporting EIO), persisting the record now would vouch for
        // bytes the disk never saw. Keep the in-RAM state (this boot
        // still runs on its page cache) but skip the durable record;
        // recovery then re-derives link state instead of trusting it.
        if vfs.shared_device_dead() {
            return Ok(());
        }
        vfs.mkdir_all(META_DIR, 0o777, 0)?;
        vfs.write_file(&Self::path_for(ino), &self.encode(), 0o666, 0)?;
        Ok(())
    }

    /// Loads the record for `ino`, if one exists and decodes.
    pub fn load(vfs: &mut Vfs, ino: Ino) -> Option<ModuleMeta> {
        let bytes = vfs.read_all(&Self::path_for(ino)).ok()?;
        ModuleMeta::decode(&bytes).ok()
    }

    /// Removes the record for `ino` (segment destroyed).
    pub fn remove(vfs: &mut Vfs, ino: Ino) {
        let _ = vfs.unlink(&Self::path_for(ino));
    }
}

/// One module's link record: its metadata plus a hashed index over its
/// exports, built once. The registry hands the same `Arc` of it to
/// every process that maps the public module; a private instance owns
/// its own.
#[derive(Debug)]
pub struct ModuleRecord {
    /// The metadata the record was built from.
    pub meta: ModuleMeta,
    /// Export name → address (first definition wins, as in
    /// [`ModuleMeta::find_export`]'s scan).
    exports: HashMap<String, u32>,
}

impl ModuleRecord {
    /// Builds the record and its export index.
    pub fn new(meta: ModuleMeta) -> ModuleRecord {
        let mut exports = HashMap::with_capacity(meta.exports.len());
        for (name, addr) in &meta.exports {
            exports.entry(name.clone()).or_insert(*addr);
        }
        ModuleRecord { meta, exports }
    }

    /// O(1) export lookup through the index.
    pub fn export(&self, symbol: &str) -> Option<u32> {
        self.exports.get(symbol).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hobj::RelocKind;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        #[test]
        fn hashed_export_lookup_agrees_with_linear_scan(
            exports in proptest::collection::vec(("[a-c]{1,3}", any::<u32>()), 0..24),
            probe in "[a-c]{1,3}",
        ) {
            // Names drawn from a tiny alphabet so duplicates (where
            // first-definition-wins matters) and missing probes both
            // occur routinely.
            let meta = ModuleMeta { exports, ..ModuleMeta::default() };
            let record = ModuleRecord::new(meta.clone());
            for (name, _) in &meta.exports {
                prop_assert_eq!(record.export(name), meta.find_export(name));
            }
            prop_assert_eq!(record.export(&probe), meta.find_export(&probe));
        }
    }

    #[test]
    fn index_keeps_first_duplicate() {
        let meta = ModuleMeta {
            exports: vec![("f".to_string(), 0x10), ("f".to_string(), 0x20)],
            ..ModuleMeta::default()
        };
        assert_eq!(ModuleRecord::new(meta).export("f"), Some(0x10));
    }

    fn sample() -> ModuleMeta {
        ModuleMeta {
            name: "rwho_db".into(),
            base: 0x3010_0000,
            text_len: 0x100,
            tramp_off: 0x100,
            tramp_cap: 24,
            tramp_used: 12,
            data_off: 0x120,
            data_len: 0x40,
            bss_len: 0x80,
            total_len: 0x1000,
            exports: vec![
                ("db_insert".into(), 0x3010_0000),
                ("db".into(), 0x3010_0120),
            ],
            pending: vec![ImageReloc {
                addr: 0x3010_0004,
                kind: RelocKind::Jump26,
                symbol: "lock_acquire".into(),
                addend: 0,
            }],
            search: SearchSpec {
                modules: vec!["locks".into()],
                dirs: vec!["/shared/lib".into()],
            },
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        assert_eq!(ModuleMeta::decode(&m.encode()), Ok(m));
    }

    #[test]
    fn lazy_flag_follows_pendings() {
        let mut m = sample();
        assert!(m.needs_lazy_link());
        m.pending.clear();
        assert!(!m.needs_lazy_link());
    }

    #[test]
    fn save_load_remove_via_vfs() {
        let mut vfs = Vfs::new();
        let m = sample();
        m.save(&mut vfs, 17).unwrap();
        assert_eq!(ModuleMeta::load(&mut vfs, 17), Some(m));
        assert_eq!(ModuleMeta::load(&mut vfs, 18), None);
        ModuleMeta::remove(&mut vfs, 17);
        assert_eq!(ModuleMeta::load(&mut vfs, 17), None);
    }

    #[test]
    fn export_lookup() {
        let m = sample();
        assert_eq!(m.find_export("db"), Some(0x3010_0120));
        assert_eq!(m.find_export("nope"), None);
    }

    #[test]
    fn corrupt_record_rejected() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(ModuleMeta::decode(&bytes).is_err());
    }
}
