//! Module instantiation: turning a template into a linked (or lazily
//! linkable) instance at a concrete base address.
//!
//! Used three ways, per Table 1:
//!
//! * `lds` creates **static public** instances at link time, in place in
//!   the shared file system;
//! * `ldl` creates **dynamic public** instances on first use (under a
//!   file lock) and **dynamic private** instances per process, in the
//!   private portion of the address space.
//!
//! Instantiation relocates the module to its base ("finalizing absolute
//! references to internal symbols; some systems call this *loading*") and
//! leaves references to external symbols as *pending* relocations for the
//! linker's resolution pass.

use crate::error::LinkError;
use crate::meta::{ModuleMeta, ModuleRecord};
use crate::tramp::{reserve_for, TrampolineArea};
use hobj::reloc::patch_word;
use hobj::{binfmt, ImageReloc, Object, RelocKind, SectionId};
use hsfs::vfs::Mount;
use hsfs::{FsError, Ino, LockKind, SharedFs, Vfs, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::Arc;

/// Where each piece of a module lands relative to its base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModuleLayout {
    /// Text length.
    pub text_len: u32,
    /// Trampoline-area offset.
    pub tramp_off: u32,
    /// Trampoline-area capacity.
    pub tramp_cap: u32,
    /// Data offset.
    pub data_off: u32,
    /// Data length.
    pub data_len: u32,
    /// Bss offset.
    pub bss_off: u32,
    /// Bss length.
    pub bss_len: u32,
    /// Total page-rounded size.
    pub total_len: u32,
}

/// Computes the in-slot layout of a template.
pub fn layout_of(obj: &Object) -> ModuleLayout {
    let text_len = obj.text.len() as u32;
    let tramp_off = text_len;
    let jumps = obj
        .relocs
        .iter()
        .filter(|r| r.kind == RelocKind::Jump26)
        .count();
    let tramp_cap = reserve_for(jumps);
    let data_off = (tramp_off + tramp_cap).div_ceil(crate::MODULE_ALIGN) * crate::MODULE_ALIGN;
    let data_len = obj.data.len() as u32;
    let bss_off = data_off + data_len;
    let bss_len = obj.bss_size;
    let total = (bss_off + bss_len).max(4);
    let total_len = total.div_ceil(PAGE_SIZE) * PAGE_SIZE;
    ModuleLayout {
        text_len,
        tramp_off,
        tramp_cap,
        data_off,
        data_len,
        bss_off,
        bss_len,
        total_len,
    }
}

/// A relocated module instance, ready to be placed in memory or a file.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The full instance bytes (text, trampolines, data, zeroed bss),
    /// `layout.total_len` long.
    pub bytes: Vec<u8>,
    /// Metadata (exports at absolute addresses, pending relocations).
    pub meta: ModuleMeta,
    /// The layout used.
    pub layout: ModuleLayout,
}

/// The absolute address of a symbol defined in a module instance.
fn symbol_addr(layout: &ModuleLayout, base: u32, section: SectionId, offset: u32) -> u32 {
    match section {
        SectionId::Text => base + offset,
        SectionId::Data => base + layout.data_off + offset,
        SectionId::Bss => base + layout.bss_off + offset,
    }
}

/// Relocates `obj` to `base`: applies every relocation whose symbol is
/// defined in the module (routing out-of-range jumps through the
/// trampoline area) and records the rest as pending.
///
/// Rejects modules that use `$gp`-relative addressing, as `ldl` must.
pub fn instantiate(obj: &Object, base: u32) -> Result<Instance, LinkError> {
    if obj.requires_gp() {
        return Err(LinkError::ModuleUsesGp {
            name: obj.name.clone(),
        });
    }
    if let Err(errors) = obj.validate() {
        return Err(LinkError::InvalidTemplate {
            path: obj.name.clone(),
            errors,
        });
    }
    let layout = layout_of(obj);
    let mut bytes = vec![0u8; layout.total_len as usize];
    bytes[..layout.text_len as usize].copy_from_slice(&obj.text);
    bytes[layout.data_off as usize..(layout.data_off + layout.data_len) as usize]
        .copy_from_slice(&obj.data);

    let mut tramps = TrampolineArea::new(base + layout.tramp_off, layout.tramp_cap);
    let mut pending = Vec::new();
    for reloc in &obj.relocs {
        let site_off = match reloc.section {
            SectionId::Text => reloc.offset,
            SectionId::Data => layout.data_off + reloc.offset,
            SectionId::Bss => unreachable!("validated: no bss relocs"),
        };
        let site_addr = base + site_off;
        let sym = &obj.symbols[reloc.symbol as usize];
        match &sym.def {
            Some(def) => {
                let value = symbol_addr(&layout, base, def.section, def.offset)
                    .wrapping_add(reloc.addend as u32);
                apply_with_trampoline(
                    &mut bytes,
                    site_off,
                    site_addr,
                    reloc.kind,
                    value,
                    &mut tramps,
                )
                .map_err(|err| LinkError::Reloc {
                    module: obj.name.clone(),
                    err,
                })?;
            }
            None => pending.push(ImageReloc {
                addr: site_addr,
                kind: reloc.kind,
                symbol: sym.name.clone(),
                addend: reloc.addend,
            }),
        }
    }
    // Copy emitted trampolines into the reserved area.
    let tb = tramps.bytes();
    bytes[layout.tramp_off as usize..layout.tramp_off as usize + tb.len()].copy_from_slice(&tb);

    let exports = obj
        .exported_symbols()
        .map(|s| {
            // invariant: `exported_symbols` filters on `!is_undefined()`,
            // i.e. `def.is_some()`.
            let def = s.def.expect("exported symbols are defined");
            (
                s.name.clone(),
                symbol_addr(&layout, base, def.section, def.offset),
            )
        })
        .collect();
    let meta = ModuleMeta {
        name: obj.name.clone(),
        base,
        text_len: layout.text_len,
        tramp_off: layout.tramp_off,
        tramp_cap: layout.tramp_cap,
        tramp_used: tramps.used,
        data_off: layout.data_off,
        data_len: layout.data_len,
        bss_len: layout.bss_len,
        total_len: layout.total_len,
        exports,
        pending,
        search: obj.search.clone(),
    };
    Ok(Instance {
        bytes,
        meta,
        layout,
    })
}

/// Applies one relocation into a byte buffer, falling back to a
/// trampoline when a `Jump26` target is out of region.
pub fn apply_with_trampoline(
    bytes: &mut [u8],
    site_off: u32,
    site_addr: u32,
    kind: RelocKind,
    value: u32,
    tramps: &mut TrampolineArea,
) -> Result<(), hobj::RelocError> {
    match patch_word(bytes, site_off, kind, value, site_addr) {
        Ok(()) => Ok(()),
        Err(hobj::RelocError::JumpOutOfRange { .. }) => {
            let Some(tramp_addr) = tramps.get(value) else {
                return Err(hobj::RelocError::JumpOutOfRange {
                    pc: site_addr,
                    target: value,
                });
            };
            // Refresh the trampoline area bytes (the new fragment).
            let tb = tramps.bytes();
            let area_off = (tramps.base - (site_addr - site_off)) as usize;
            // The caller keeps the trampoline area inside `bytes`; when it
            // does not (runtime patching), it re-copies from `tramps`.
            if area_off + tb.len() <= bytes.len() {
                bytes[area_off..area_off + tb.len()].copy_from_slice(&tb);
            }
            patch_word(bytes, site_off, kind, tramp_addr, site_addr)
        }
        Err(e) => Err(e),
    }
}

/// A cache of public-module records keyed by shared-partition inode,
/// backed by the on-disk metadata in [`crate::meta::META_DIR`]. Each
/// record is built once, at load or put, and shared by every process
/// that maps the module.
#[derive(Debug, Default)]
pub struct ModuleRegistry {
    cache: HashMap<Ino, Arc<ModuleRecord>>,
}

impl ModuleRegistry {
    /// Creates an empty registry.
    pub fn new() -> ModuleRegistry {
        ModuleRegistry::default()
    }

    /// Loads (and caches) the shared record for `ino`.
    pub fn record(&mut self, vfs: &mut Vfs, ino: Ino) -> Option<&Arc<ModuleRecord>> {
        if let std::collections::hash_map::Entry::Vacant(e) = self.cache.entry(ino) {
            let meta = ModuleMeta::load(vfs, ino)?;
            e.insert(Arc::new(ModuleRecord::new(meta)));
        }
        self.cache.get(&ino)
    }

    /// Loads (and caches) the metadata for `ino`.
    pub fn get(&mut self, vfs: &mut Vfs, ino: Ino) -> Option<&ModuleMeta> {
        self.record(vfs, ino).map(|r| &r.meta)
    }

    /// Stores metadata for `ino` (persisting it) and returns the record
    /// that now stands for the module.
    pub fn put(
        &mut self,
        vfs: &mut Vfs,
        ino: Ino,
        meta: ModuleMeta,
    ) -> Result<Arc<ModuleRecord>, LinkError> {
        meta.save(vfs, ino)?;
        let record = Arc::new(ModuleRecord::new(meta));
        self.cache.insert(ino, record.clone());
        Ok(record)
    }

    /// Drops `ino` from cache and disk (segment destroyed).
    pub fn forget(&mut self, vfs: &mut Vfs, ino: Ino) {
        self.cache.remove(&ino);
        ModuleMeta::remove(vfs, ino);
    }

    /// Drops only the in-memory cache (simulating a reboot; the on-disk
    /// records survive, like the paper's scan-rebuildable table).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

/// The instance path of a public template: the template path "obtained by
/// dropping the final `.o`" (§2).
pub fn instance_path_of(template_path: &str) -> Result<String, LinkError> {
    let stripped = template_path
        .strip_suffix(".o")
        .ok_or_else(|| LinkError::TemplateNotDotO {
            path: template_path.to_string(),
        })?;
    if stripped.is_empty() || stripped.ends_with('/') {
        return Err(LinkError::TemplateNotDotO {
            path: template_path.to_string(),
        });
    }
    Ok(stripped.to_string())
}

/// Ensures a public module instance exists for `template_path`, creating
/// and initializing it from the template if necessary. Returns the
/// instance's inode and the registry's shared record of it.
///
/// Creation is serialized with an exclusive file lock on the template
/// ("Ldl uses file locking to synchronize the creation of shared
/// segments"); `lock_owner` identifies the creating process.
pub fn ensure_public_instance(
    vfs: &mut Vfs,
    registry: &mut ModuleRegistry,
    template_path: &str,
    lock_owner: u64,
) -> Result<(Ino, Arc<ModuleRecord>), LinkError> {
    // Follow symlinks: the Presto launcher publishes templates via
    // symlinks in a temporary directory.
    let template_vnode = vfs.resolve(template_path)?;
    let real_template = vfs.path_of(template_vnode)?;
    if template_vnode.mount != Mount::Shared {
        return Err(LinkError::TemplateNotShared {
            path: real_template,
        });
    }
    let instance_path = instance_path_of(&real_template)?;

    let lock_vnode = template_vnode;
    vfs.try_lock(lock_vnode, LockKind::Exclusive, lock_owner)
        .map_err(|_| LinkError::Fs(FsError::WouldBlock))?;
    let result = ensure_locked(vfs, registry, &real_template, &instance_path);
    let _ = vfs.unlock(lock_vnode, lock_owner);
    result
}

fn ensure_locked(
    vfs: &mut Vfs,
    registry: &mut ModuleRegistry,
    template_path: &str,
    instance_path: &str,
) -> Result<(Ino, Arc<ModuleRecord>), LinkError> {
    // Fast path: instance already exists.
    if let Ok(v) = vfs.resolve(instance_path) {
        if let Some(record) = registry.record(vfs, v.ino) {
            return Ok((v.ino, record.clone()));
        }
        // Instance file exists but has no metadata — treat as a plain
        // data segment created by someone else; not a module error here.
        return Err(LinkError::Fs(FsError::AlreadyExists));
    }
    let raw = vfs.read_all(template_path)?;
    let obj = binfmt::decode_object(&raw).map_err(|err| LinkError::BadTemplate {
        path: template_path.to_string(),
        err,
    })?;
    let vnode = vfs.create_file(instance_path, 0o666, 0).map_err(|e| {
        if e == FsError::NoSpace {
            LinkError::OutOfSegments
        } else {
            e.into()
        }
    })?;
    let base = SharedFs::addr_of_ino(vnode.ino);
    let inst = match instantiate(&obj, base) {
        Ok(i) => i,
        Err(e) => {
            // Roll back the slot on failure.
            let _ = vfs.unlink(instance_path);
            return Err(e);
        }
    };
    // Initialize the instance; a failure past this point (most notably
    // a torn write of the image bytes) must not leave a half-written
    // instance behind for other processes to map — unlink it and report
    // the error, so the caller can retry against a clean slate.
    let init = vfs
        .truncate_vnode(vnode, inst.layout.total_len as u64)
        .and_then(|()| vfs.write_vnode(vnode, 0, &inst.bytes))
        .map_err(LinkError::from)
        .and_then(|()| registry.put(vfs, vnode.ino, inst.meta));
    match init {
        Ok(record) => Ok((vnode.ino, record)),
        Err(e) => {
            registry.forget(vfs, vnode.ino);
            let _ = vfs.unlink(instance_path);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hobj::hasm::assemble;

    fn counter_obj() -> Object {
        assemble(
            "counter",
            r#"
            .text
            .globl incr
            incr:   la   r8, count
                    lw   r9, 0(r8)
                    addi r9, r9, 1
                    sw   r9, 0(r8)
                    jr   ra
            .data
            .globl count
            count:  .word 5
            next:   .ptr count
            "#,
        )
        .unwrap()
    }

    #[test]
    fn layout_is_page_rounded_and_ordered() {
        let obj = counter_obj();
        let l = layout_of(&obj);
        assert_eq!(l.text_len, 6 * 4); // la expands to 2 instructions
        assert_eq!(l.tramp_cap, 0); // no jump relocs
        assert!(l.data_off >= l.tramp_off + l.tramp_cap);
        assert_eq!(l.data_off % crate::MODULE_ALIGN, 0);
        assert_eq!(l.total_len, PAGE_SIZE);
    }

    #[test]
    fn instantiate_resolves_internal_refs() {
        let obj = counter_obj();
        let base = 0x3010_0000;
        let inst = instantiate(&obj, base).unwrap();
        assert!(inst.meta.pending.is_empty());
        // The la sequence must materialize &count = base + data_off.
        let count_addr = base + inst.layout.data_off;
        let w0 = u32::from_le_bytes(inst.bytes[0..4].try_into().unwrap());
        let w1 = u32::from_le_bytes(inst.bytes[4..8].try_into().unwrap());
        let hi = (w0 & 0xFFFF) << 16;
        let lo = (w1 & 0xFFFF) as i16 as i32 as u32;
        assert_eq!(hi.wrapping_add(lo), count_addr);
        // The data pointer cell must hold &count.
        let ptr_off = (inst.layout.data_off + 4) as usize;
        let ptr = u32::from_le_bytes(inst.bytes[ptr_off..ptr_off + 4].try_into().unwrap());
        assert_eq!(ptr, count_addr);
        // Exports.
        assert_eq!(inst.meta.find_export("incr"), Some(base));
        assert_eq!(inst.meta.find_export("count"), Some(count_addr));
    }

    #[test]
    fn instantiate_leaves_external_refs_pending() {
        let obj = assemble("m", ".text\njal helper\njr ra\n.uses helpers\n").unwrap();
        let inst = instantiate(&obj, 0x3020_0000).unwrap();
        assert_eq!(inst.meta.pending.len(), 1);
        assert_eq!(inst.meta.pending[0].symbol, "helper");
        assert_eq!(inst.meta.pending[0].addr, 0x3020_0000);
        assert!(inst.meta.needs_lazy_link());
        assert_eq!(inst.meta.search.modules, vec!["helpers"]);
    }

    #[test]
    fn gp_module_rejected() {
        let obj = assemble("fast", ".text\nlw r9, %gprel(v)(gp)\n.data\nv: .word 0\n").unwrap();
        assert!(matches!(
            instantiate(&obj, 0x3010_0000),
            Err(LinkError::ModuleUsesGp { .. })
        ));
    }

    #[test]
    fn internal_jump_within_slot_needs_no_trampoline() {
        let obj = assemble("m", ".text\nf: nop\njal f\njr ra\n").unwrap();
        let inst = instantiate(&obj, 0x3010_0000).unwrap();
        assert_eq!(inst.meta.tramp_used, 0);
        // But capacity was reserved in case the jump had been external.
        assert_eq!(inst.layout.tramp_cap, 12);
    }

    #[test]
    fn instance_path_rules() {
        assert_eq!(
            instance_path_of("/shared/lib/db.o").unwrap(),
            "/shared/lib/db"
        );
        assert!(instance_path_of("/shared/lib/db").is_err());
        assert!(instance_path_of(".o").is_err());
    }

    #[test]
    fn ensure_public_instance_creates_once() {
        let mut vfs = Vfs::new();
        let mut reg = ModuleRegistry::new();
        vfs.mkdir_all("/shared/lib", 0o777, 0).unwrap();
        let obj = counter_obj();
        vfs.write_file(
            "/shared/lib/counter.o",
            &binfmt::encode_object(&obj),
            0o666,
            0,
        )
        .unwrap();
        let (ino1, rec1) =
            ensure_public_instance(&mut vfs, &mut reg, "/shared/lib/counter.o", 1).unwrap();
        let meta1 = &rec1.meta;
        assert_eq!(meta1.base, SharedFs::addr_of_ino(ino1));
        // Second caller (different process) gets the same instance, and
        // the very record the first one got.
        let (ino2, rec2) =
            ensure_public_instance(&mut vfs, &mut reg, "/shared/lib/counter.o", 2).unwrap();
        assert_eq!(ino1, ino2);
        assert!(Arc::ptr_eq(&rec1, &rec2));
        // The instance file holds the relocated bytes.
        let content = vfs.read_all("/shared/lib/counter").unwrap();
        assert_eq!(content.len() as u32, meta1.total_len);
        let count_off = meta1.data_off as usize;
        assert_eq!(&content[count_off..count_off + 4], &5u32.to_le_bytes());
    }

    #[test]
    fn template_must_live_on_shared_partition() {
        let mut vfs = Vfs::new();
        let mut reg = ModuleRegistry::new();
        let obj = counter_obj();
        vfs.write_file("/counter.o", &binfmt::encode_object(&obj), 0o666, 0)
            .unwrap();
        assert!(matches!(
            ensure_public_instance(&mut vfs, &mut reg, "/counter.o", 1),
            Err(LinkError::TemplateNotShared { .. })
        ));
    }

    #[test]
    fn symlinked_template_instantiates_at_real_location() {
        // The Presto pattern: the parent symlinks the template into a
        // temp directory; the instance appears beside the *real* template.
        let mut vfs = Vfs::new();
        let mut reg = ModuleRegistry::new();
        vfs.mkdir_all("/shared/templates", 0o777, 0).unwrap();
        vfs.mkdir_all("/shared/tmp/job", 0o777, 0).unwrap();
        let obj = counter_obj();
        vfs.write_file(
            "/shared/templates/counter.o",
            &binfmt::encode_object(&obj),
            0o666,
            0,
        )
        .unwrap();
        vfs.symlink("/templates/counter.o", "/shared/tmp/job/counter.o", 0)
            .unwrap();
        let (_, rec) =
            ensure_public_instance(&mut vfs, &mut reg, "/shared/tmp/job/counter.o", 1).unwrap();
        assert_eq!(rec.meta.name, "counter");
        assert!(vfs.resolve("/shared/templates/counter").is_ok());
    }

    #[test]
    fn registry_cache_survives_and_clears() {
        let mut vfs = Vfs::new();
        let mut reg = ModuleRegistry::new();
        vfs.mkdir_all("/shared/lib", 0o777, 0).unwrap();
        let obj = counter_obj();
        vfs.write_file(
            "/shared/lib/counter.o",
            &binfmt::encode_object(&obj),
            0o666,
            0,
        )
        .unwrap();
        let (ino, rec) =
            ensure_public_instance(&mut vfs, &mut reg, "/shared/lib/counter.o", 1).unwrap();
        reg.clear_cache(); // "reboot"
        assert_eq!(reg.get(&mut vfs, ino), Some(&rec.meta));
    }
}
