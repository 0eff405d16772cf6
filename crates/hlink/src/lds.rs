//! `lds` — the static linker for sharing.
//!
//! "At static link time, lds creates a load image containing a new
//! instance of every private static module. It also creates any public
//! static modules that do not yet exist, but leaves them in separate
//! files; it does not copy them into the load image." (§2)
//!
//! Unlike the paper's first prototype (a wrapper around IRIX `ld`), this
//! is the stand-alone linker the authors describe as in progress, so it
//! resolves references to absolute addresses itself, retains relocation
//! information in the image, and supports scoped linking for static
//! modules too.

use crate::error::LinkError;
use crate::instance::{ensure_public_instance, ModuleRegistry};
use crate::search::SearchPath;
use crate::tramp::{patch, reserve_for, TrampolineArea};
use hkernel::layout::{DATA_BASE, TEXT_BASE};
use hobj::binfmt;
use hobj::{
    Binding, DynamicModule, ImageReloc, ImageSymbol, LoadImage, Object, RelocKind, SearchStrategy,
    SectionId, ShareClass, StaticModuleRecord,
};
use hsfs::Vfs;
use std::collections::HashMap;

/// One module argument to `lds`: a spec (name or path) plus its sharing
/// class, "specified on a module-by-module basis in the arguments to
/// lds".
#[derive(Clone, Debug)]
pub struct ModuleSpec {
    /// Module name or path.
    pub spec: String,
    /// Sharing class.
    pub class: ShareClass,
}

impl ModuleSpec {
    /// Convenience constructor.
    pub fn new(spec: impl Into<String>, class: ShareClass) -> ModuleSpec {
        ModuleSpec {
            spec: spec.into(),
            class,
        }
    }
}

/// Everything `lds` needs for one link.
#[derive(Clone, Debug)]
pub struct LdsInput {
    /// Output program name.
    pub program: String,
    /// Directory in which the link occurs (search root, recorded for
    /// `ldl`).
    pub cwd: String,
    /// `-L` directories.
    pub cli_dirs: Vec<String>,
    /// `LD_LIBRARY_PATH` at static link time.
    pub ld_library_path: Option<String>,
    /// The modules to link, in command-line order.
    pub modules: Vec<ModuleSpec>,
    /// The special start-up module (always linked first, static private);
    /// its `_start` becomes the entry point and calls `ldl` at run time.
    pub crt0: Object,
    /// Report duplicate global definitions as errors instead of letting
    /// the first definition win.
    pub strict_duplicates: bool,
}

/// The result of a successful link.
#[derive(Clone, Debug)]
pub struct LdsOutput {
    /// The load image (`a.out`).
    pub image: LoadImage,
    /// Non-fatal diagnostics (missing dynamic modules, duplicate
    /// symbols when not strict).
    pub warnings: Vec<String>,
}

/// The static linker.
pub struct Lds;

struct PrivateModule {
    obj: Object,
    text_base: u32,
    data_base: u32,
    bss_base: u32,
}

impl Lds {
    /// Performs a static link.
    pub fn link(
        vfs: &mut Vfs,
        registry: &mut ModuleRegistry,
        input: &LdsInput,
    ) -> Result<LdsOutput, LinkError> {
        let mut warnings = Vec::new();
        let search = SearchPath::for_lds(
            &input.cwd,
            &input.cli_dirs,
            input.ld_library_path.as_deref(),
        );

        // 1. Locate and load static modules; classify dynamics.
        let mut privates: Vec<Object> = vec![input.crt0.clone()];
        let mut public_paths: Vec<(String, String)> = Vec::new(); // (spec, template path)
        let mut dynamics: Vec<DynamicModule> = Vec::new();
        for spec in &input.modules {
            match spec.class {
                ShareClass::StaticPrivate => {
                    let path = search.locate(vfs, &input.cwd, &spec.spec).ok_or_else(|| {
                        LinkError::StaticModuleNotFound {
                            name: spec.spec.clone(),
                        }
                    })?;
                    privates.push(load_template(vfs, &path)?);
                }
                ShareClass::StaticPublic => {
                    let path = search.locate(vfs, &input.cwd, &spec.spec).ok_or_else(|| {
                        LinkError::StaticModuleNotFound {
                            name: spec.spec.clone(),
                        }
                    })?;
                    public_paths.push((spec.spec.clone(), path));
                }
                ShareClass::DynamicPrivate | ShareClass::DynamicPublic => {
                    // "It issues a warning message and continues linking
                    // if it cannot find a given dynamic module."
                    if search.locate(vfs, &input.cwd, &spec.spec).is_none() {
                        warnings.push(format!(
                            "lds: warning: dynamic module `{}` not found at link time",
                            spec.spec
                        ));
                    }
                    dynamics.push(DynamicModule {
                        name: spec.spec.clone(),
                        class: spec.class,
                    });
                }
            }
        }
        for obj in &privates {
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
        }

        // 2. Create any static-public instances that do not yet exist.
        let mut statics: Vec<StaticModuleRecord> = Vec::new();
        let mut public_metas = Vec::new();
        for (spec, path) in &public_paths {
            let (ino, record) = ensure_public_instance(vfs, registry, path, u64::MAX)?;
            statics.push(StaticModuleRecord {
                name: record.meta.name.clone(),
                path: crate::instance::instance_path_of(&vfs_real_path(vfs, path)?)?,
                base: record.meta.base,
                class: ShareClass::StaticPublic,
            });
            let _ = spec;
            public_metas.push((ino, record));
        }

        // 3. Lay out the private image: text blocks (crt0 first), then a
        //    trampoline area, then data blocks, then bss blocks.
        let align = |n: u32| n.div_ceil(crate::MODULE_ALIGN) * crate::MODULE_ALIGN;
        let mut text_cursor = TEXT_BASE;
        let mut placed: Vec<PrivateModule> = Vec::new();
        let mut jump_relocs = 0usize;
        for obj in &privates {
            jump_relocs += obj
                .relocs
                .iter()
                .filter(|r| r.kind == RelocKind::Jump26)
                .count();
        }
        for obj in privates {
            let text_base = text_cursor;
            text_cursor = align(text_cursor + obj.text.len() as u32);
            placed.push(PrivateModule {
                obj,
                text_base,
                data_base: 0,
                bss_base: 0,
            });
        }
        let tramp_offset = text_cursor - TEXT_BASE;
        let tramp_cap = reserve_for(jump_relocs);
        let text_total = tramp_offset + tramp_cap;
        let mut data_cursor = DATA_BASE;
        for pm in &mut placed {
            pm.data_base = data_cursor;
            data_cursor = align(data_cursor + pm.obj.data.len() as u32);
        }
        let data_total = data_cursor - DATA_BASE;
        let mut bss_cursor = data_cursor;
        for pm in &mut placed {
            pm.bss_base = bss_cursor;
            bss_cursor = align(bss_cursor + pm.obj.bss_size);
        }
        let bss_total = bss_cursor - data_cursor;
        if text_total > 0x0FFF_0000 || data_total as u64 + bss_total as u64 > 0x1FFF_0000 {
            return Err(LinkError::ImageTooLarge {
                bytes: text_total as u64 + data_total as u64 + bss_total as u64,
            });
        }

        // 4. Build the global symbol map: private exports at their image
        //    addresses, public exports at their global addresses.
        let mut symmap: HashMap<String, (u32, String)> = HashMap::new();
        let add_sym = |name: &str,
                       addr: u32,
                       module: &str,
                       symmap: &mut HashMap<String, (u32, String)>,
                       warnings: &mut Vec<String>|
         -> Result<(), LinkError> {
            if let Some((_, first)) = symmap.get(name) {
                if input.strict_duplicates {
                    return Err(LinkError::DuplicateSymbol {
                        symbol: name.to_string(),
                        first: first.clone(),
                        second: module.to_string(),
                    });
                }
                warnings.push(format!(
                    "lds: warning: `{name}` defined in both `{first}` and `{module}`; \
                     using the first"
                ));
                return Ok(());
            }
            symmap.insert(name.to_string(), (addr, module.to_string()));
            Ok(())
        };
        for pm in &placed {
            for sym in pm.obj.exported_symbols() {
                // invariant: `exported_symbols` filters on
                // `!is_undefined()`, i.e. `def.is_some()`.
                let def = sym.def.expect("exported");
                let addr = match def.section {
                    SectionId::Text => pm.text_base + def.offset,
                    SectionId::Data => pm.data_base + def.offset,
                    SectionId::Bss => pm.bss_base + def.offset,
                };
                add_sym(&sym.name, addr, &pm.obj.name, &mut symmap, &mut warnings)?;
            }
        }
        for (_, record) in &public_metas {
            let meta = &record.meta;
            for (name, addr) in &meta.exports {
                add_sym(name, *addr, &meta.name, &mut symmap, &mut warnings)?;
            }
        }

        // 5. Apply relocations in private modules; keep unresolved ones
        //    pending for ldl, exactly as the paper's lds "saves this in
        //    an explicit data structure".
        let mut text = vec![0u8; text_total as usize];
        let mut data = vec![0u8; data_total as usize];
        for pm in &placed {
            let toff = (pm.text_base - TEXT_BASE) as usize;
            text[toff..toff + pm.obj.text.len()].copy_from_slice(&pm.obj.text);
            let doff = (pm.data_base - DATA_BASE) as usize;
            data[doff..doff + pm.obj.data.len()].copy_from_slice(&pm.obj.data);
        }
        let mut tramps = TrampolineArea::new(TEXT_BASE + tramp_offset, tramp_cap);
        let mut pending: Vec<ImageReloc> = Vec::new();
        for pm in &placed {
            for reloc in &pm.obj.relocs {
                let (buf, buf_base, site_addr) = match reloc.section {
                    SectionId::Text => (&mut text, TEXT_BASE, pm.text_base + reloc.offset),
                    SectionId::Data => (&mut data, DATA_BASE, pm.data_base + reloc.offset),
                    SectionId::Bss => unreachable!("validated"),
                };
                let site_off = site_addr - buf_base;
                let sym = &pm.obj.symbols[reloc.symbol as usize];
                let value = match &sym.def {
                    Some(def) => Some(match def.section {
                        SectionId::Text => pm.text_base + def.offset,
                        SectionId::Data => pm.data_base + def.offset,
                        SectionId::Bss => pm.bss_base + def.offset,
                    }),
                    None => symmap.get(&sym.name).map(|&(a, _)| a),
                };
                let Some(v) = value else {
                    pending.push(ImageReloc {
                        addr: site_addr,
                        kind: reloc.kind,
                        symbol: sym.name.clone(),
                        addend: reloc.addend,
                    });
                    continue;
                };
                let v = v.wrapping_add(reloc.addend as u32);
                patch(buf, site_off, site_addr, reloc.kind, v, &mut tramps, || {
                    true
                })
                .map_err(|e| LinkError::from_patch(&pm.obj.name, e))?;
            }
        }
        // Copy the trampoline fragments emitted so far into the text.
        let tb = tramps.bytes();
        text[tramp_offset as usize..tramp_offset as usize + tb.len()].copy_from_slice(&tb);

        // 6. Resolve pendings of freshly created public instances against
        //    *public* exports (a shared module must never capture one
        //    program's private addresses).
        for (ino, record) in &public_metas {
            if record.meta.pending.is_empty() {
                continue;
            }
            let mut meta = record.meta.clone();
            let mut still = Vec::new();
            let mut inst_tramps = TrampolineArea::new(
                meta.base + meta.tramp_off + meta.tramp_used,
                meta.tramp_cap - meta.tramp_used,
            );
            for p in std::mem::take(&mut meta.pending) {
                match public_metas_lookup(&statics, registry, vfs, &p.symbol) {
                    Some(v) => {
                        let bytes = vfs.shared.fs.file_bytes_mut(*ino)?;
                        let v = v.wrapping_add(p.addend as u32);
                        let off = p.addr - meta.base;
                        patch(bytes, off, p.addr, p.kind, v, &mut inst_tramps, || true)
                            .map_err(|e| LinkError::from_patch(&meta.name, e))?;
                    }
                    None => still.push(p),
                }
            }
            meta.tramp_used += inst_tramps.used;
            // Write any new trampolines into the instance file.
            if inst_tramps.used > 0 {
                let off = (inst_tramps.base - meta.base) as u64;
                let vnode = vfs.resolve(&statics_path_for(&statics, &meta.name))?;
                vfs.write_vnode(vnode, off, &inst_tramps.bytes())?;
            }
            meta.pending = still;
            registry.put(vfs, *ino, meta)?;
        }

        // 7. Assemble the image.
        let entry = symmap
            .get(crate::START_SYMBOL)
            .map(|&(a, _)| a)
            .ok_or(LinkError::NoEntryPoint)?;
        let mut symbols: Vec<ImageSymbol> = symmap
            .iter()
            .map(|(name, &(addr, _))| ImageSymbol {
                name: name.clone(),
                binding: Binding::Global,
                addr: Some(addr),
            })
            .collect();
        symbols.sort_by(|a, b| a.name.cmp(&b.name));
        let mut undefined: Vec<&str> = pending.iter().map(|p| p.symbol.as_str()).collect();
        undefined.sort_unstable();
        undefined.dedup();
        for name in undefined {
            if !symmap.contains_key(name) {
                symbols.push(ImageSymbol {
                    name: name.to_string(),
                    binding: Binding::Global,
                    addr: None,
                });
            }
        }
        let mut all_statics = statics;
        for pm in &placed {
            all_statics.push(StaticModuleRecord {
                name: pm.obj.name.clone(),
                path: String::new(),
                base: pm.text_base,
                class: ShareClass::StaticPrivate,
            });
        }
        let strategy = SearchStrategy {
            link_cwd: input.cwd.clone(),
            cli_dirs: input.cli_dirs.clone(),
            env_dirs: input
                .ld_library_path
                .as_deref()
                .unwrap_or("")
                .split(':')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect(),
            default_dirs: crate::DEFAULT_LIB_DIRS
                .iter()
                .map(|s| s.to_string())
                .collect(),
        };
        let image = LoadImage {
            name: input.program.clone(),
            text_base: TEXT_BASE,
            text,
            data_base: DATA_BASE,
            data,
            bss_base: data_cursor,
            bss_size: bss_total,
            entry,
            tramp_offset,
            tramp_used: tramps.used,
            symbols,
            pending,
            dynamic: dynamics,
            statics: all_statics,
            strategy,
        };
        Ok(LdsOutput { image, warnings })
    }
}

/// Loads and decodes a template file.
pub fn load_template(vfs: &mut Vfs, path: &str) -> Result<Object, LinkError> {
    let raw = vfs.read_all(path)?;
    binfmt::decode_object(&raw).map_err(|err| LinkError::BadTemplate {
        path: path.to_string(),
        err,
    })
}

fn vfs_real_path(vfs: &mut Vfs, path: &str) -> Result<String, LinkError> {
    let v = vfs.resolve(path)?;
    Ok(vfs.path_of(v)?)
}

/// Looks up `symbol` among the public modules recorded in `statics`.
fn public_metas_lookup(
    statics: &[StaticModuleRecord],
    registry: &mut ModuleRegistry,
    vfs: &mut Vfs,
    symbol: &str,
) -> Option<u32> {
    for rec in statics {
        if rec.class != ShareClass::StaticPublic {
            continue;
        }
        let v = vfs.resolve(&rec.path).ok()?;
        if let Some(record) = registry.record(vfs, v.ino) {
            if let Some(addr) = record.export(symbol) {
                return Some(addr);
            }
        }
    }
    None
}

fn statics_path_for(statics: &[StaticModuleRecord], name: &str) -> String {
    statics
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.path.clone())
        .unwrap_or_default()
}
