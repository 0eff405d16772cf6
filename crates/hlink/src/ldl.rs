//! `ldl` — the run-time lazy dynamic linker and fault handler.
//!
//! `crt0` calls `ldl` before `main` (via the `SERVICE_LDL_INIT` service
//! call). `ldl` locates dynamic modules using the saved search strategy
//! (with the *run-time* `LD_LIBRARY_PATH` taking precedence), creates a
//! new instance of each dynamic-private module and of each dynamic-public
//! module that does not yet exist, maps everything, and resolves the main
//! image's undefined references. "If any module contains undefined
//! references ... ldl maps the module without access permissions, so that
//! the first reference will cause a segmentation fault" (§2).
//!
//! The fault path ([`Ldl::handle_fault`]) serves two purposes, as in the
//! paper: it finishes lazy links, and it lets processes follow raw
//! pointers into shared segments that are not yet mapped (translating the
//! address to a path with the new kernel call and mapping the file).

use crate::error::LinkError;
use crate::instance::{ensure_public_instance, instantiate, ModuleRegistry};
use crate::meta::{ModuleMeta, ModuleRecord};
use crate::scope::{LinkDag, ROOT};
use crate::search::SearchPath;
use crate::tramp::{patch, PatchError, TrampolineArea};
use hkernel::layout::{DATA_END, DYN_PRIVATE_BASE};
use hkernel::{Kernel, Pid, Prot, RepageOutcome, TraceEvent};
use hobj::reloc::RelocError;
use hobj::{binfmt, ImageReloc, LoadImage, RelocKind, SearchStrategy, ShareClass};
use hsfs::vfs::Mount;
use hsfs::{FsError, Ino, SharedFs, PAGE_SIZE};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The owner named for failures in the main image's own relocations.
const IMAGE: &str = "<image>";

/// One linked (or pending) module in a process: the module's record
/// plus what this process alone knows about its instance.
#[derive(Clone, Debug)]
pub struct ModuleInst {
    /// Name, exports and search information. A public module's record
    /// is the registry's, shared by every process that maps it; a
    /// private instance owns its own.
    record: Arc<ModuleRecord>,
    /// Sharing class.
    pub class: ShareClass,
    /// Base address of the instance.
    pub base: u32,
    /// Mapped length.
    pub total_len: u32,
    /// Unresolved relocations (nonempty ⇒ mapped without access).
    pub pending: Vec<ImageReloc>,
    /// Mapped without access permissions, awaiting its first touch.
    pub lazy: bool,
    /// Shared-partition inode (public modules only).
    pub ino: Option<Ino>,
    /// Trampoline area offset/capacity/used within the instance.
    pub tramp: (u32, u32, u32),
}

impl ModuleInst {
    /// An instance of `record` at the record's base, awaiting its first
    /// touch if references remain pending.
    pub fn new(record: Arc<ModuleRecord>, class: ShareClass, ino: Option<Ino>) -> ModuleInst {
        let meta = &record.meta;
        ModuleInst {
            class,
            base: meta.base,
            total_len: meta.total_len,
            pending: meta.pending.clone(),
            lazy: meta.needs_lazy_link(),
            ino,
            tramp: (meta.tramp_off, meta.tramp_cap, meta.tramp_used),
            record,
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.record.meta.name
    }

    /// Exported globals (definition order, as recorded by the linker).
    pub fn exports(&self) -> &[(String, u32)] {
        &self.record.meta.exports
    }

    /// The module's own scoped-linking search information.
    pub fn search(&self) -> &hobj::SearchSpec {
        &self.record.meta.search
    }

    /// O(1) export lookup through the record's index.
    pub fn export(&self, symbol: &str) -> Option<u32> {
        self.record.export(symbol)
    }

    /// The record this instance was made from.
    pub fn record(&self) -> &Arc<ModuleRecord> {
        &self.record
    }

    /// True if `addr` falls inside this instance.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && addr < self.base + self.total_len
    }
}

/// What the fault handler did with a SIGSEGV.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDisposition {
    /// The segment was mapped and/or linked; restart the instruction.
    Resolved,
    /// Hemlock could not resolve it; a guest-registered handler was
    /// invoked (the backward-compatible `signal()` path).
    DeliveredToGuest,
    /// No resolution and no guest handler: the process should be killed.
    Fatal,
}

/// Counters for the linking benchmarks (E2/E6).
#[derive(Clone, Copy, Debug, Default)]
pub struct LdlStats {
    /// Faults resolved by mapping or linking.
    pub faults_resolved: u64,
    /// Modules linked lazily (on first touch).
    pub lazy_links: u64,
    /// Modules linked eagerly at init.
    pub init_links: u64,
    /// Plain (non-module) segments mapped by pointer-following.
    pub segments_mapped: u64,
    /// Individual symbol resolutions performed.
    pub symbols_resolved: u64,
    /// Symbols that remained unresolved after scoped search.
    pub symbols_unresolved: u64,
    /// Trampolines synthesized at run time.
    pub trampolines: u64,
    /// Directories scanned during scoped symbol search.
    pub dir_scans: u64,
    /// Public (shared) instances patched with a *private* address — the
    /// §5 "Safety" hazard: the resolution is only meaningful in the
    /// resolving process's protection domain.
    pub cross_domain_resolutions: u64,
    /// Scoped resolutions answered by the memoized (module, symbol)
    /// cache without walking the escalation chain.
    pub resolve_cache_hits: u64,
    /// Transient failures absorbed by retrying the operation (chaos
    /// recovery: segment-address contention, torn template writes,
    /// lock contention).
    pub link_retries: u64,
    /// Simulated backoff charged across those retries, in exponential
    /// units (1 << attempt per retry) — the cost model's stand-in for
    /// the waiting a real process would have done.
    pub retry_backoff_steps: u64,
    /// Prelink snapshots validated and applied at init (DESIGN.md §15).
    pub snapshot_hits: u64,
    /// Snapshot load attempts that found no snapshot file.
    pub snapshot_misses: u64,
    /// Snapshots rejected as stale or corrupt (full resolution followed).
    pub snapshot_invalidations: u64,
    /// Snapshots (re)written after a successful resolve.
    pub snapshot_rebuilds: u64,
}

impl LdlStats {
    /// Adds `other`'s counters into `self` — the one place that knows
    /// every field, so the embedder's reap/fold sites cannot silently
    /// miss a counter added later.
    pub fn absorb(&mut self, other: &LdlStats) {
        self.faults_resolved += other.faults_resolved;
        self.lazy_links += other.lazy_links;
        self.init_links += other.init_links;
        self.segments_mapped += other.segments_mapped;
        self.symbols_resolved += other.symbols_resolved;
        self.symbols_unresolved += other.symbols_unresolved;
        self.trampolines += other.trampolines;
        self.dir_scans += other.dir_scans;
        self.cross_domain_resolutions += other.cross_domain_resolutions;
        self.resolve_cache_hits += other.resolve_cache_hits;
        self.link_retries += other.link_retries;
        self.retry_backoff_steps += other.retry_backoff_steps;
        self.snapshot_hits += other.snapshot_hits;
        self.snapshot_misses += other.snapshot_misses;
        self.snapshot_invalidations += other.snapshot_invalidations;
        self.snapshot_rebuilds += other.snapshot_rebuilds;
    }
}

/// Per-process dynamic-linking state (lives in the Hemlock runtime).
#[derive(Clone, Debug, Default)]
pub struct LinkState {
    /// Loaded modules by name.
    modules: HashMap<String, ModuleInst>,
    /// Module names by base address. Instances never overlap, so the
    /// one that can hold an address is the last based at or below it.
    by_base: BTreeMap<u32, String>,
    /// The link DAG for scoped resolution.
    pub dag: LinkDag,
    /// The main image's exports.
    pub image_exports: HashMap<String, u32>,
    /// The main image's still-unresolved references.
    pub image_pending: Vec<ImageReloc>,
    /// The image's trampoline area (base, cap, used).
    pub image_tramp: (u32, u32, u32),
    /// Search strategy recorded by `lds`.
    pub strategy: SearchStrategy,
    /// Cache of directory scans: dir → (symbol → template path).
    dir_cache: HashMap<String, HashMap<String, String>>,
    /// Memoized successful scoped resolutions: (module, symbol) →
    /// address. Only successes are cached — modules never unload and
    /// exports never move, so a hit can never go stale, while a failure
    /// may later succeed once more modules load.
    resolve_cache: HashMap<(String, String), u32>,
    /// Observable linker steps since the last drain; the embedder
    /// prices them and appends them to its trace ring.
    pub journal: Vec<TraceEvent>,
    /// Statistics.
    pub stats: LdlStats,
    /// Prelink-snapshot bookkeeping (DESIGN.md §15): where this image's
    /// snapshot lives (`None` ⇒ snapshots disabled for this process).
    snap_path: Option<String>,
    /// The scope hash the snapshot must carry to be applicable.
    snap_scope: u32,
    /// The image name, for snapshot trace records.
    snap_exe: String,
    /// Warnings init produced, replayed verbatim on a snapshot hit.
    snap_warnings: Vec<String>,
    /// Image-owned patches applied so far: (site, kind, final value).
    /// Recorded because the image is private memory — fresh every
    /// spawn — so a snapshot hit must replay them; shared instances
    /// keep their patched bytes on the partition instead.
    snap_image_patches: Vec<(u32, RelocKind, u32)>,
    /// Targets of image-owned runtime trampolines, in allocation order.
    snap_tramp_targets: Vec<u32>,
}

impl LinkState {
    /// The loaded module called `name`.
    pub fn module(&self, name: &str) -> Option<&ModuleInst> {
        self.modules.get(name)
    }

    /// Every loaded module, in no particular order.
    pub fn modules(&self) -> impl Iterator<Item = &ModuleInst> {
        self.modules.values()
    }

    /// Adds a module under its name and base; returns the name.
    fn insert_module(&mut self, inst: ModuleInst) -> String {
        let name = inst.name().to_string();
        self.by_base.insert(inst.base, name.clone());
        self.modules.insert(name.clone(), inst);
        name
    }

    /// The module instance containing `addr`, if any.
    pub fn module_at(&self, addr: u32) -> Option<&ModuleInst> {
        let (_, name) = self.by_base.range(..=addr).next_back()?;
        self.modules.get(name).filter(|m| m.contains(addr))
    }

    /// Looks up a symbol among the image and every loaded module
    /// (used for the image's own resolution at init, which the paper
    /// performs eagerly).
    pub fn lookup_global(&self, name: &str) -> Option<u32> {
        if let Some(&a) = self.image_exports.get(name) {
            return Some(a);
        }
        for m in self.modules.values() {
            if let Some(a) = m.export(name) {
                return Some(a);
            }
        }
        None
    }
}

/// The dynamic linker, operating on one process inside the kernel.
pub struct Ldl<'a> {
    /// The kernel (address spaces + file systems).
    pub kernel: &'a mut Kernel,
    /// The public-module metadata registry.
    pub registry: &'a mut ModuleRegistry,
    /// This process's link state.
    pub state: &'a mut LinkState,
    /// The process being linked.
    pub pid: Pid,
}

impl<'a> Ldl<'a> {
    /// Bundles the linker context.
    pub fn new(
        kernel: &'a mut Kernel,
        registry: &'a mut ModuleRegistry,
        state: &'a mut LinkState,
        pid: Pid,
    ) -> Ldl<'a> {
        Ldl {
            kernel,
            registry,
            state,
            pid,
        }
    }

    fn env(&self, name: &str) -> Option<String> {
        self.kernel
            .procs
            .get(&self.pid)
            .and_then(|p| p.env.get(name).cloned())
    }

    fn cwd(&self) -> String {
        self.kernel
            .procs
            .get(&self.pid)
            .map(|p| p.cwd.clone())
            .unwrap_or_else(|| "/".into())
    }

    fn uid(&self) -> u32 {
        self.kernel.procs.get(&self.pid).map(|p| p.uid).unwrap_or(0)
    }

    fn runtime_search(&self) -> SearchPath {
        SearchPath::for_ldl(self.env("LD_LIBRARY_PATH").as_deref(), &self.state.strategy)
    }

    /// Initializes dynamic linking for a fresh process: maps the static
    /// public modules `lds` recorded, locates and instantiates the
    /// dynamic modules, and resolves the image's undefined references.
    ///
    /// Returns warnings for dynamic modules that could not be found.
    pub fn init(&mut self, image: &LoadImage) -> Result<Vec<String>, LinkError> {
        let mut warnings = Vec::new();
        self.state.strategy = image.strategy.clone();
        self.state.image_tramp = (
            image.text_base + image.tramp_offset,
            (image.text.len() as u32).saturating_sub(image.tramp_offset),
            image.tramp_used,
        );
        for sym in &image.symbols {
            if let Some(addr) = sym.addr {
                self.state.image_exports.insert(sym.name.clone(), addr);
            }
        }
        // Snapshot-first (DESIGN.md §15): a valid prelink snapshot maps
        // the whole resolved link map for one flat validation charge,
        // skipping everything below. A miss or invalidation falls
        // through to full resolution, which rebuilds the snapshot. Each
        // executable's snapshot is consulted once per boot — later
        // same-boot inits ride the kernel's hot in-RAM registry through
        // the ordinary resolve path, pricing exactly as a snapshots-off
        // run (the bookkeeping stays set so they still refresh the
        // snapshot; the store skips byte-identical rewrites).
        if self.kernel.link_snapshots_enabled() {
            self.state.snap_path = Some(crate::snapshot::path_for(&self.kernel.vfs, &image.name));
            self.state.snap_scope = crate::snapshot::scope_hash(
                image,
                self.env("LD_LIBRARY_PATH").as_deref(),
                &self.cwd(),
            );
            self.state.snap_exe = image.name.clone();
            if self.kernel.first_snapshot_consult(&image.name) {
                if let Some(restored) = self.try_snapshot_init()? {
                    self.state.stats.init_links += 1;
                    return Ok(restored);
                }
            }
        }
        self.state.image_pending = image.pending.clone();

        // Map the static-public modules recorded by lds.
        for rec in &image.statics {
            if rec.class != ShareClass::StaticPublic {
                continue;
            }
            let ino = self.kernel.vfs.resolve(&rec.path)?.ino;
            let record = self
                .registry
                .record(&mut self.kernel.vfs, ino)
                .cloned()
                .ok_or(LinkError::Unresolvable {
                    addr: SharedFs::addr_of_ino(ino),
                })?;
            self.map_public_module(record, ino, ShareClass::StaticPublic, ROOT)?;
        }
        // Locate and link dynamic modules.
        let search = self.runtime_search();
        let cwd = self.cwd();
        for dynmod in &image.dynamic {
            match search.locate(&mut self.kernel.vfs, &cwd, &dynmod.name) {
                Some(template_path) => {
                    self.load_module(&template_path, dynmod.class, ROOT)?;
                }
                None => warnings.push(format!("ldl: cannot find dynamic module `{}`", dynmod.name)),
            }
        }
        // Resolve the image's own undefined references eagerly, as the
        // paper's ldl does before normal execution begins.
        let pendings = std::mem::take(&mut self.state.image_pending);
        let mut still = Vec::new();
        for p in pendings {
            // Chaos: a SymbolResolve injection hides the symbol from this
            // eager pass; the reference stays pending and the program
            // faults (and is cleanly killed) if it ever reaches it.
            let looked = if self
                .kernel
                .faults_handle()
                .should_inject(hfault::FaultSite::SymbolResolve)
            {
                None
            } else {
                self.state.lookup_global(&p.symbol)
            };
            match looked {
                Some(addr) => {
                    self.patch_site(None, p.addr, p.kind, addr.wrapping_add(p.addend as u32))?;
                    self.state.stats.symbols_resolved += 1;
                    self.state.journal.push(TraceEvent::SymbolResolved {
                        module: ROOT.to_string(),
                        symbol: p.symbol.clone(),
                        addr,
                    });
                }
                None => still.push(p),
            }
        }
        self.state.image_pending = still;
        self.state.stats.init_links += 1;
        self.state.snap_warnings = warnings.clone();
        self.rebuild_snapshot();
        Ok(warnings)
    }

    /// Attempts the snapshot fast path: load, validate, apply. Returns
    /// `Ok(Some(warnings))` on a hit (init is done), `Ok(None)` on a
    /// miss or invalidation (fall through to full resolution), `Err`
    /// only for failures the cold path would also surface (e.g. a
    /// mapping rejected mid-apply — the process dies cleanly, exactly
    /// as it would had the same failure hit the cold path).
    fn try_snapshot_init(&mut self) -> Result<Option<Vec<String>>, LinkError> {
        let Some(path) = self.state.snap_path.clone() else {
            return Ok(None);
        };
        let exe = self.state.snap_exe.clone();
        let mut loaded = crate::snapshot::load(&mut self.kernel.vfs, &path);
        // Chaos: the snapshot bytes read back corrupted — only drawn
        // when bytes were actually read (an absent file has no medium
        // to corrupt).
        if !matches!(loaded, Ok(None))
            && self
                .kernel
                .faults_handle()
                .should_inject(hfault::FaultSite::SnapshotCorrupt)
        {
            loaded = Err(LinkError::BadSnapshot {
                path: path.clone(),
                why: "envelope checksum mismatch (injected corruption)".into(),
            });
        }
        let snap = match loaded {
            Ok(Some(s)) => s,
            Ok(None) => {
                self.state.stats.snapshot_misses += 1;
                self.state.journal.push(TraceEvent::SnapshotMiss { exe });
                return Ok(None);
            }
            Err(LinkError::BadSnapshot { why, .. }) => {
                self.state.stats.snapshot_invalidations += 1;
                self.state
                    .journal
                    .push(TraceEvent::SnapshotInvalidated { exe, why });
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        let scope = self.state.snap_scope;
        if let Err(why) = self.kernel.vfs.unpriced(|v| snap.validate(v, scope)) {
            self.state.stats.snapshot_invalidations += 1;
            self.state
                .journal
                .push(TraceEvent::SnapshotInvalidated { exe, why });
            return Ok(None);
        }
        self.apply_snapshot(&snap)?;
        self.state.stats.snapshot_hits += 1;
        self.state.journal.push(TraceEvent::SnapshotHit {
            exe,
            modules: snap.modules.len() as u32,
        });
        Ok(Some(snap.warnings))
    }

    /// Applies a validated snapshot: maps every recorded instance at
    /// its slot address, rebuilds the in-process link bookkeeping, and
    /// replays the image-owned trampolines and patches into the fresh
    /// private image. No registry reads, no export searches, no symbol
    /// resolutions — that is the point.
    fn apply_snapshot(&mut self, snap: &crate::snapshot::PrelinkSnapshot) -> Result<(), LinkError> {
        for m in &snap.modules {
            let prot = if m.lazy { Prot::NONE } else { Prot::RWX };
            self.kernel
                .map_prelinked(self.pid, m.base, m.total_len, prot, m.ino)
                .map_err(LinkError::Fs)?;
        }
        for m in &snap.modules {
            let meta = ModuleMeta {
                name: m.name.clone(),
                base: m.base,
                total_len: m.total_len,
                tramp_off: m.tramp.0,
                tramp_cap: m.tramp.1,
                tramp_used: m.tramp.2,
                exports: m.exports.clone(),
                pending: m.pending.clone(),
                search: m.search.clone(),
                ..ModuleMeta::default()
            };
            let mut inst = ModuleInst::new(Arc::new(ModuleRecord::new(meta)), m.class, Some(m.ino));
            inst.lazy = m.lazy;
            self.state.insert_module(inst);
            for parent in &m.parents {
                self.state.dag.add_edge(&m.name, parent);
            }
        }
        // The image is private memory, fresh on every spawn: replay its
        // recorded trampolines (allocation order ⇒ addresses follow
        // from the base) and then its patches, which may target them.
        for &target in &snap.tramp_targets {
            let mut area = self.fresh_area(None)?;
            area.get(target, || true)
                .ok_or_else(|| LinkError::from_patch(IMAGE, PatchError::AreaFull))?;
            self.poke(area.base, &area.bytes())?;
            self.state.image_tramp.2 += area.used;
        }
        self.state.image_tramp.2 = self.state.image_tramp.2.max(snap.image_tramp_used);
        for &(addr, kind, value) in &snap.image_patches {
            self.patch_site(None, addr, kind, value)?;
        }
        self.state.image_pending = snap.image_pending.clone();
        // Future rebuilds (a lazy link after this hit) must re-record
        // the full image-side history, not just the increment.
        self.state.snap_image_patches = snap.image_patches.clone();
        self.state.snap_tramp_targets = snap.tramp_targets.clone();
        self.state.snap_warnings = snap.warnings.clone();
        Ok(())
    }

    /// Serializes the current link map into this image's snapshot file
    /// — called after every successful resolve (init, and each
    /// completed lazy link). All I/O is unpriced cache maintenance and
    /// every failure is absorbed: a skipped rebuild only costs the
    /// *next* run its warm path, never this run its correctness.
    pub fn rebuild_snapshot(&mut self) {
        let Some(path) = self.state.snap_path.clone() else {
            return;
        };
        // A private instance lives at a per-process address; its
        // resolved state means nothing to another process or a later
        // boot. Cache nothing rather than a partial link map — and drop
        // any stored record so it cannot validate against a world it no
        // longer describes.
        if self.state.modules.values().any(|m| m.ino.is_none()) {
            crate::snapshot::remove(&mut self.kernel.vfs, &path);
            return;
        }
        let mut insts: Vec<(String, Ino)> = self
            .state
            .modules
            .values()
            .filter_map(|m| m.ino.map(|i| (m.name().to_string(), i)))
            .collect();
        insts.sort();
        let mount = self.kernel.vfs.mount_point.clone();
        let mut modules = Vec::with_capacity(insts.len());
        for (name, ino) in &insts {
            let Ok(inner) = self.kernel.vfs.shared.fs.path_of(*ino) else {
                return;
            };
            let Some(m) = self.state.modules.get(name) else {
                return;
            };
            modules.push(crate::snapshot::SnapModule {
                name: name.clone(),
                class: m.class,
                path: format!("{mount}{inner}"),
                ino: *ino,
                base: m.base,
                total_len: m.total_len,
                lazy: m.lazy,
                tramp: m.tramp,
                exports: m.exports().to_vec(),
                pending: m.pending.clone(),
                search: m.search().clone(),
                parents: self.state.dag.parents_of(name).to_vec(),
                content_digest: 0,
                meta_digest: 0,
            });
        }
        for m in &mut modules {
            let (mpath, ino) = (m.path.clone(), m.ino);
            let content = self.kernel.vfs.unpriced(|v| v.read_all(&mpath).ok());
            let Some(content) = content else {
                return;
            };
            // The metadata digest comes from the *live* record, not the
            // on-disk file: if the device died before the record's
            // fence committed, `ModuleMeta::save` skipped the durable
            // write, and reading the file here would make the rebuild
            // (and hence the shared disk's write sequence) depend on
            // when the device died. Next boot's validation compares
            // this digest against the file that actually survived — a
            // skipped or stale record simply fails to validate.
            let Some(meta) = self.registry.get(&mut self.kernel.vfs, ino) else {
                return;
            };
            m.content_digest = binfmt::crc32(&content);
            m.meta_digest = binfmt::crc32(&meta.encode());
        }
        let count = modules.len() as u32;
        let snap = crate::snapshot::PrelinkSnapshot {
            scope_hash: self.state.snap_scope,
            stamp: self.kernel.vfs.shared.fs.content_stamp(),
            image_tramp_used: self.state.image_tramp.2,
            tramp_targets: self.state.snap_tramp_targets.clone(),
            image_patches: self.state.snap_image_patches.clone(),
            image_pending: self.state.image_pending.clone(),
            warnings: self.state.snap_warnings.clone(),
            modules,
        };
        if let crate::snapshot::StoreOutcome::Written =
            crate::snapshot::store(&mut self.kernel.vfs, &path, &snap)
        {
            self.state.stats.snapshot_rebuilds += 1;
            self.state.journal.push(TraceEvent::SnapshotRebuilt {
                exe: self.state.snap_exe.clone(),
                modules: count,
            });
        }
    }

    /// Loads a module from a template path with the given class and
    /// parent (scoped-linking DAG edge). Public instances are created on
    /// first use; private instances are fresh per process.
    pub fn load_module(
        &mut self,
        template_path: &str,
        class: ShareClass,
        parent: &str,
    ) -> Result<String, LinkError> {
        match class {
            ShareClass::DynamicPublic | ShareClass::StaticPublic => {
                let (ino, record) = self.ensure_public_with_retry(template_path)?;
                self.map_public_module(record, ino, class, parent)
            }
            ShareClass::DynamicPrivate | ShareClass::StaticPrivate => {
                self.load_private_module(template_path, parent)
            }
        }
    }

    /// True for failures a second attempt can cure: segment-address
    /// contention (`EBUSY`), a competing locker (`EWOULDBLOCK`), and a
    /// torn template write that was rolled back (`EIO`).
    fn is_transient(e: &LinkError) -> bool {
        matches!(
            e,
            LinkError::Fs(FsError::Busy | FsError::WouldBlock | FsError::ShortWrite)
        )
    }

    /// Creates (or finds) a public instance, absorbing transient
    /// failures with bounded retry and simulated exponential backoff.
    ///
    /// The backoff is *simulated*: there is no clock to sleep against,
    /// so each retry charges `1 << attempt` backoff units to
    /// [`LdlStats::retry_backoff_steps`], which the cost model prices.
    /// A success after ≥1 retry journals an `ldl-retry`
    /// [`TraceEvent::RecoveryTaken`] so the trace shows the recovery.
    fn ensure_public_with_retry(
        &mut self,
        template_path: &str,
    ) -> Result<(Ino, Arc<ModuleRecord>), LinkError> {
        const MAX_LINK_RETRIES: u32 = 4;
        let mut attempt = 0u32;
        loop {
            match ensure_public_instance(
                &mut self.kernel.vfs,
                self.registry,
                template_path,
                self.pid as u64,
            ) {
                Ok(found) => {
                    if attempt > 0 {
                        self.state.journal.push(TraceEvent::RecoveryTaken {
                            action: "ldl-retry",
                            retries: attempt,
                        });
                    }
                    return Ok(found);
                }
                Err(e) if attempt < MAX_LINK_RETRIES && Self::is_transient(&e) => {
                    attempt += 1;
                    self.state.stats.link_retries += 1;
                    self.state.stats.retry_backoff_steps += 1u64 << attempt;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Maps the public instance `ino`, described by `record`, into this
    /// process.
    fn map_public_module(
        &mut self,
        record: Arc<ModuleRecord>,
        ino: Ino,
        class: ShareClass,
        parent: &str,
    ) -> Result<String, LinkError> {
        let name = record.meta.name.as_str();
        if self.state.modules.contains_key(name) {
            // Already mapped; just record the additional DAG edge.
            self.state.dag.add_edge(name, parent);
            return Ok(name.to_string());
        }
        let inst = ModuleInst::new(record, class, Some(ino));
        let prot = if inst.lazy { Prot::NONE } else { Prot::RWX };
        let proc = self
            .kernel
            .procs
            .get_mut(&self.pid)
            .ok_or(LinkError::Internal {
                what: "process vanished while mapping a public module",
            })?;
        proc.aspace
            .map_shared(inst.base, inst.total_len, prot, ino, 0)
            .map_err(|_| LinkError::Fs(FsError::Busy))?;
        self.state.journal.push(TraceEvent::SegmentMapped {
            base: inst.base,
            module: Some(inst.name().to_string()),
        });
        let name = self.state.insert_module(inst);
        self.state.dag.add_edge(&name, parent);
        Ok(name)
    }

    /// Creates a fresh private instance of a template in this process's
    /// private region.
    fn load_private_module(
        &mut self,
        template_path: &str,
        parent: &str,
    ) -> Result<String, LinkError> {
        let raw = self.kernel.vfs.read_all(template_path)?;
        let obj = binfmt::decode_object(&raw).map_err(|err| LinkError::BadTemplate {
            path: template_path.to_string(),
            err,
        })?;
        if self.state.modules.contains_key(&obj.name) {
            self.state.dag.add_edge(&obj.name, parent);
            return Ok(obj.name);
        }
        let layout = crate::instance::layout_of(&obj);
        let proc = self
            .kernel
            .procs
            .get_mut(&self.pid)
            .ok_or(LinkError::Internal {
                what: "process vanished while loading a private module",
            })?;
        let base = proc
            .aspace
            .find_free(layout.total_len, DYN_PRIVATE_BASE, DATA_END)
            .ok_or_else(|| LinkError::OutOfPrivateSpace {
                name: obj.name.clone(),
            })?;
        let inst = instantiate(&obj, base)?;
        let prot = if inst.meta.needs_lazy_link() {
            Prot::NONE
        } else {
            Prot::RWX
        };
        proc.aspace
            .map_anon(base, layout.total_len, prot)
            .map_err(|_| LinkError::OutOfPrivateSpace {
                name: obj.name.clone(),
            })?;
        proc.aspace
            .write_bytes(&mut self.kernel.vfs.shared, base, &inst.bytes)
            .map_err(|_| LinkError::OutOfPrivateSpace {
                name: obj.name.clone(),
            })?;
        let record = Arc::new(ModuleRecord::new(inst.meta));
        let name =
            self.state
                .insert_module(ModuleInst::new(record, ShareClass::DynamicPrivate, None));
        self.state.dag.add_edge(&name, parent);
        Ok(name)
    }

    /// The user-level SIGSEGV handler (§2): finish a lazy link, or map a
    /// shared segment a pointer led into, or fall through to the guest's
    /// own handler.
    pub fn handle_fault(&mut self, addr: u32) -> Result<FaultDisposition, LinkError> {
        // Case 0: the address is a shared page the kernel evicted under
        // memory pressure. Page-granular: residency is restored in
        // place (no remap, no re-link) and the instruction restarts.
        // This runs before the module cases because an evicted page of
        // a linked module must repage, not re-map.
        if SharedFs::contains(addr) {
            if let Some(proc) = self.kernel.procs.get_mut(&self.pid) {
                match proc.aspace.repage_shared(self.pid, addr) {
                    RepageOutcome::Repaged => {
                        self.state.stats.faults_resolved += 1;
                        return Ok(FaultDisposition::Resolved);
                    }
                    // Chaos failed the backing read: surface as an
                    // unresolved fault (contained kill), like any other
                    // injected fault on the resolution path.
                    RepageOutcome::Injected => return self.fall_through(addr),
                    RepageOutcome::NotEvicted => {}
                }
            }
        }
        // Case 1: the address lies in a module. One mapped for lazy
        // linking links now. A fault inside an already-linked module
        // (e.g. an exec attempt on a data page) is a genuine error, not
        // a mapping request — falling into case 2 would uselessly
        // "re-map" it forever.
        if let Some(m) = self.state.module_at(addr) {
            if !m.lazy {
                return self.fall_through(addr);
            }
            let name = m.name().to_string();
            self.lazy_link(&name)?;
            self.state.stats.faults_resolved += 1;
            self.state.stats.lazy_links += 1;
            return Ok(FaultDisposition::Resolved);
        }
        // Case 2: a pointer into the shared region.
        if SharedFs::contains(addr) {
            match self.kernel.vfs.shared.addr_to_ino(addr) {
                Ok((ino, _off)) => {
                    // Access rights permitting, map the named segment.
                    let uid = self.uid();
                    let can = self
                        .kernel
                        .vfs
                        .shared
                        .fs
                        .access(ino, uid, false)
                        .unwrap_or(false);
                    if !can {
                        let path = self.kernel.vfs.shared.fs.path_of(ino).unwrap_or_default();
                        return Err(LinkError::AccessDenied { path });
                    }
                    self.state
                        .journal
                        .push(TraceEvent::AddrTranslated { addr, ino });
                    let record = self.registry.record(&mut self.kernel.vfs, ino).cloned();
                    if let Some(record) = record {
                        // The segment is a module: map it (possibly for
                        // lazy linking), attributing the DAG edge to the
                        // module whose code faulted.
                        let parent = self.faulting_parent();
                        self.map_public_module(record, ino, ShareClass::DynamicPublic, &parent)?;
                    } else {
                        self.map_plain_segment(ino)?;
                        self.state.stats.segments_mapped += 1;
                    }
                    self.state.stats.faults_resolved += 1;
                    return Ok(FaultDisposition::Resolved);
                }
                Err(_) => return self.fall_through(addr),
            }
        }
        self.fall_through(addr)
    }

    /// The module whose text the faulting PC lies in (for DAG edges).
    fn faulting_parent(&self) -> String {
        let pc = self
            .kernel
            .procs
            .get(&self.pid)
            .map(|p| p.cpu.pc)
            .unwrap_or(0);
        self.state
            .module_at(pc)
            .map(|m| m.name().to_string())
            .unwrap_or_else(|| ROOT.to_string())
    }

    /// Maps a plain (non-module) shared segment — the pointer-following
    /// case. The whole file is mapped read/write at its slot address.
    fn map_plain_segment(&mut self, ino: Ino) -> Result<(), LinkError> {
        let meta = self.kernel.vfs.shared.fs.metadata(ino)?;
        let len = (meta.size as u32).div_ceil(PAGE_SIZE).max(1) * PAGE_SIZE;
        // Grow the backing file to whole pages so mapped stores work.
        if (meta.size as u32) < len {
            self.kernel.vfs.shared.fs.truncate(ino, len as u64)?;
        }
        let base = SharedFs::addr_of_ino(ino);
        let proc = self
            .kernel
            .procs
            .get_mut(&self.pid)
            .ok_or(LinkError::Internal {
                what: "process vanished while mapping a plain segment",
            })?;
        proc.aspace
            .map_shared(base, len, Prot::RW, ino, 0)
            .map_err(|_| LinkError::Fs(FsError::Busy))?;
        self.state
            .journal
            .push(TraceEvent::SegmentMapped { base, module: None });
        Ok(())
    }

    /// Could not resolve: give the program's own handler a chance, per
    /// the paper's `signal()`-compatible fallback.
    fn fall_through(&mut self, addr: u32) -> Result<FaultDisposition, LinkError> {
        if self.kernel.deliver_segv(self.pid, addr) {
            Ok(FaultDisposition::DeliveredToGuest)
        } else {
            Ok(FaultDisposition::Fatal)
        }
    }

    /// Finishes the lazy link of `name`: resolves its pending references
    /// with scoped search (possibly mapping new modules, inaccessibly),
    /// then enables access.
    pub fn lazy_link(&mut self, name: &str) -> Result<(), LinkError> {
        let (pendings, ino) = {
            let m = self
                .state
                .modules
                .get_mut(name)
                .ok_or(LinkError::Internal {
                    what: "lazy module disappeared before linking",
                })?;
            (std::mem::take(&mut m.pending), m.ino)
        };
        let mut unresolved = Vec::new();
        for p in pendings {
            match self.resolve_scoped(name, &p.symbol)? {
                Some(addr) => {
                    // Per Figure 2, scoped resolution may climb to the
                    // root — the main program — so a *public* instance
                    // can end up patched with a private address. The
                    // bytes are shared: in every other protection domain
                    // that address means something else. This is the
                    // §5 "Safety" hazard the paper accepts ("a more
                    // defensive style of programming"); we keep the
                    // paper's semantics but count the event so tools
                    // and tests can see it happened.
                    if ino.is_some() && !SharedFs::contains(addr) {
                        self.state.stats.cross_domain_resolutions += 1;
                    }
                    let value = addr.wrapping_add(p.addend as u32);
                    self.patch_site(Some(name), p.addr, p.kind, value)?;
                    self.state.stats.symbols_resolved += 1;
                    self.state.journal.push(TraceEvent::SymbolResolved {
                        module: name.to_string(),
                        symbol: p.symbol.clone(),
                        addr,
                    });
                }
                None => {
                    self.state.stats.symbols_unresolved += 1;
                    unresolved.push(p);
                }
            }
        }
        let m = self
            .state
            .modules
            .get_mut(name)
            .ok_or(LinkError::Internal {
                what: "lazy module disappeared mid-link",
            })?;
        m.pending = unresolved.clone();
        m.lazy = false;
        let (base, len) = (m.base, m.total_len);
        let tramp = m.tramp;
        let proc = self
            .kernel
            .procs
            .get_mut(&self.pid)
            .ok_or(LinkError::Internal {
                what: "process vanished while enabling a linked module",
            })?;
        proc.aspace
            .set_prot(base, len, Prot::RWX)
            .map_err(|_| LinkError::Unresolvable { addr: base })?;
        // Persist the resolved state for public modules so other
        // processes (and later runs) see the link.
        // This process keeps the registry's new record, like any
        // process that maps the module from now on.
        if let Some(ino) = ino {
            if let Some(meta) = self.registry.get(&mut self.kernel.vfs, ino) {
                let mut meta = meta.clone();
                meta.pending = unresolved;
                meta.tramp_used = tramp.2;
                let record = self.registry.put(&mut self.kernel.vfs, ino, meta)?;
                if let Some(m) = self.state.modules.get_mut(name) {
                    m.record = record;
                }
            }
        }
        // The link map grew (or a module's pendings drained): re-record
        // the snapshot so the next boot starts from here.
        self.rebuild_snapshot();
        Ok(())
    }

    /// Scoped symbol resolution (§3, Figure 2): first the module's own
    /// module list and search path, then its parents', grandparents', up
    /// to the root (the image and the modules `lds` knew about).
    ///
    /// Successful resolutions are memoized per (module, symbol); repeat
    /// queries skip the escalation walk entirely.
    pub fn resolve_scoped(&mut self, module: &str, symbol: &str) -> Result<Option<u32>, LinkError> {
        let key = (module.to_string(), symbol.to_string());
        if let Some(&addr) = self.state.resolve_cache.get(&key) {
            self.state.stats.resolve_cache_hits += 1;
            return Ok(Some(addr));
        }
        let resolved = self.resolve_scoped_uncached(module, symbol)?;
        if let Some(addr) = resolved {
            self.state.resolve_cache.insert(key, addr);
        }
        Ok(resolved)
    }

    /// The uncached escalation walk behind [`Ldl::resolve_scoped`].
    fn resolve_scoped_uncached(
        &mut self,
        module: &str,
        symbol: &str,
    ) -> Result<Option<u32>, LinkError> {
        // Chaos: a SymbolResolve injection makes this lookup fail as if
        // the symbol were nowhere on the escalation chain. Failures are
        // never cached, so an organic retry may still succeed later.
        if self
            .kernel
            .faults_handle()
            .should_inject(hfault::FaultSite::SymbolResolve)
        {
            return Ok(None);
        }
        let chain = self.state.dag.escalation_chain(module);
        for node in chain {
            if node == ROOT {
                if let Some(&a) = self.state.image_exports.get(symbol) {
                    return Ok(Some(a));
                }
                // Modules loaded at the root (the lds command line).
                if let Some(addr) = self.exports_of_children(ROOT, symbol) {
                    return Ok(Some(addr));
                }
                // Finally the ldl search path directories.
                let search = self.runtime_search();
                if let Some(addr) = self.scan_dirs_for(symbol, search.dirs(), ROOT)? {
                    return Ok(Some(addr));
                }
                continue;
            }
            let Some(record) = self.state.modules.get(&node).map(|m| m.record.clone()) else {
                continue;
            };
            let (uses, dirs) = (&record.meta.search.modules, &record.meta.search.dirs);
            // (a) Modules on the node's module list: load on demand (the
            // "chain reaction" of recursive inclusion).
            for dep in uses {
                let dep_name = self.ensure_dep_loaded(dep, &node, dirs)?;
                if let Some(dep_name) = dep_name {
                    if let Some(addr) = self.export_of(&dep_name, symbol) {
                        return Ok(Some(addr));
                    }
                }
            }
            // (b) Modules already loaded as children of this node.
            if let Some(addr) = self.exports_of_children(&node, symbol) {
                return Ok(Some(addr));
            }
            // (c) Templates in the node's search directories.
            if !dirs.is_empty() {
                if let Some(addr) = self.scan_dirs_for(symbol, dirs, &node)? {
                    return Ok(Some(addr));
                }
            }
        }
        Ok(None)
    }

    fn export_of(&self, module: &str, symbol: &str) -> Option<u32> {
        self.state.modules.get(module)?.export(symbol)
    }

    /// Exports of modules whose DAG parent includes `node`.
    fn exports_of_children(&self, node: &str, symbol: &str) -> Option<u32> {
        for m in self.state.modules.values() {
            if self
                .state
                .dag
                .parents_of(m.name())
                .iter()
                .any(|p| p == node)
            {
                if let Some(a) = m.export(symbol) {
                    return Some(a);
                }
            }
        }
        None
    }

    /// Loads a module named on a `.uses` list, searching the owner's own
    /// directories first, then the global strategy. Returns the loaded
    /// module's name, or `None` if it cannot be found (a warning-level
    /// situation: the reference may still resolve higher up the chain).
    fn ensure_dep_loaded(
        &mut self,
        dep: &str,
        parent: &str,
        parent_dirs: &[String],
    ) -> Result<Option<String>, LinkError> {
        // Already loaded under this (module) name?
        if self.state.modules.contains_key(dep) {
            self.state.dag.add_edge(dep, parent);
            return Ok(Some(dep.to_string()));
        }
        let cwd = self.cwd();
        let own = SearchPath::of_dirs(parent_dirs);
        let path = own.locate(&mut self.kernel.vfs, &cwd, dep).or_else(|| {
            self.runtime_search()
                .locate(&mut self.kernel.vfs, &cwd, dep)
        });
        let Some(path) = path else { return Ok(None) };
        // Public if the template lives on the shared partition, private
        // otherwise.
        let class = match self.kernel.vfs.route_norm(&path) {
            Ok((Mount::Shared, _)) => ShareClass::DynamicPublic,
            _ => ShareClass::DynamicPrivate,
        };
        let name = self.load_module(&path, class, parent)?;
        Ok(Some(name))
    }

    /// Scans directories for a template exporting `symbol`; loads the
    /// first match (as a child of `parent`) and returns the address.
    fn scan_dirs_for(
        &mut self,
        symbol: &str,
        dirs: &[String],
        parent: &str,
    ) -> Result<Option<u32>, LinkError> {
        for dir in dirs {
            if !self.state.dir_cache.contains_key(dir) {
                self.state.stats.dir_scans += 1;
                let mut map = HashMap::new();
                if let Ok(names) = self.kernel.vfs.readdir(dir) {
                    for file in names {
                        if !file.ends_with(".o") {
                            continue;
                        }
                        let path = format!("{}/{}", dir.trim_end_matches('/'), file);
                        if let Ok(raw) = self.kernel.vfs.read_all(&path) {
                            if let Ok(obj) = binfmt::decode_object(&raw) {
                                for sym in obj.exported_symbols() {
                                    map.entry(sym.name.clone()).or_insert_with(|| path.clone());
                                }
                            }
                        }
                    }
                }
                self.state.dir_cache.insert(dir.clone(), map);
            }
            let hit = self.state.dir_cache[dir].get(symbol).cloned();
            if let Some(template) = hit {
                let class = match self.kernel.vfs.route_norm(&template) {
                    Ok((Mount::Shared, _)) => ShareClass::DynamicPublic,
                    _ => ShareClass::DynamicPrivate,
                };
                let name = self.load_module(&template, class, parent)?;
                if let Some(addr) = self.export_of(&name, symbol) {
                    return Ok(Some(addr));
                }
            }
        }
        Ok(None)
    }

    /// A fresh trampoline area past the bytes `owner`'s area has used
    /// (`None` ⇒ the image's). Each run-time trampoline takes one, so
    /// none is ever reused.
    fn fresh_area(&self, owner: Option<&str>) -> Result<TrampolineArea, LinkError> {
        let (base, cap, used) = match owner {
            Some(name) => {
                let m = self.state.modules.get(name).ok_or(LinkError::Internal {
                    what: "trampoline owner disappeared",
                })?;
                (m.base + m.tramp.0, m.tramp.1, m.tramp.2)
            }
            None => self.state.image_tramp,
        };
        Ok(TrampolineArea::new(base + used, cap.saturating_sub(used)))
    }

    /// Kernel-side write into this process's memory.
    fn poke(&mut self, addr: u32, bytes: &[u8]) -> Result<(), LinkError> {
        let proc = self
            .kernel
            .procs
            .get_mut(&self.pid)
            .ok_or(LinkError::Internal {
                what: "process vanished while patching",
            })?;
        proc.aspace
            .write_bytes(&mut self.kernel.vfs.shared, addr, bytes)
            .map_err(|_| LinkError::Unresolvable { addr })
    }

    /// Patches the relocation site at `addr` in guest memory (private
    /// or shared) with `value`: [`patch`] works on a copy of the word
    /// and takes any trampoline from a [`Ldl::fresh_area`] of `owner`'s
    /// (`None` ⇒ the image's); the trampoline is written before the site.
    fn patch_site(
        &mut self,
        owner: Option<&str>,
        addr: u32,
        kind: RelocKind,
        value: u32,
    ) -> Result<(), LinkError> {
        let module = owner.unwrap_or(IMAGE);
        let mut area = self.fresh_area(owner)?;
        let mut word = self
            .kernel
            .procs
            .get(&self.pid)
            .and_then(|p| p.aspace.read_bytes(&self.kernel.vfs.shared, addr, 4).ok())
            .ok_or_else(|| {
                LinkError::from_patch(
                    module,
                    PatchError::Reloc(RelocError::Misaligned { offset: addr }),
                )
            })?;
        // Chaos: the Trampoline injection refuses a trampoline that
        // fits — the overflow path must be survivable.
        let faults = self.kernel.faults_handle();
        patch(&mut word, 0, addr, kind, value, &mut area, || {
            !faults.should_inject(hfault::FaultSite::Trampoline)
        })
        .map_err(|e| LinkError::from_patch(module, e))?;
        let mut patched = value;
        if area.used > 0 {
            self.poke(area.base, &area.bytes())?;
            patched = area.base;
            self.state.stats.trampolines += 1;
            match owner {
                Some(name) => {
                    if let Some(m) = self.state.modules.get_mut(name) {
                        m.tramp.2 += area.used;
                    }
                }
                None => {
                    self.state.image_tramp.2 += area.used;
                    // Image-area trampolines are private memory; a
                    // snapshot hit re-synthesizes them from the targets.
                    self.state.snap_tramp_targets.push(value);
                }
            }
        }
        self.poke(addr, &word)?;
        // Image-owned patches go into private memory, which a snapshot
        // hit must replay; record the final value.
        if owner.is_none() {
            self.state.snap_image_patches.push((addr, kind, patched));
        }
        Ok(())
    }

    /// Maps the shared segment at `addr` read/write without any linking —
    /// used by the runtime's `map_segment` service for programs that want
    /// a raw shared segment by path.
    pub fn map_segment_by_path(&mut self, path: &str) -> Result<u32, LinkError> {
        let base = self.kernel.vfs.path_to_addr(path)?;
        let (ino, _) = self.kernel.vfs.shared.addr_to_ino(base)?;
        self.map_plain_segment(ino)?;
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn inst(name: &str, base: u32, total_len: u32) -> ModuleInst {
        let meta = ModuleMeta {
            name: name.into(),
            base,
            total_len,
            ..ModuleMeta::default()
        };
        ModuleInst::new(
            Arc::new(ModuleRecord::new(meta)),
            ShareClass::DynamicPrivate,
            None,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        /// The base-address index finds the same module as scanning
        /// every instance, inside, between and around the instances.
        #[test]
        fn module_at_agrees_with_a_linear_scan(
            extents in proptest::collection::vec((0u32..3, 1u32..4), 0..12),
            probes in proptest::collection::vec(0u32..64, 1..32),
            reversed in any::<bool>(),
        ) {
            const START: u32 = 0x3000_0000;
            let mut insts = Vec::new();
            let mut next = START;
            for (i, (gap, pages)) in extents.into_iter().enumerate() {
                let base = next + gap * PAGE_SIZE;
                insts.push(inst(&format!("m{i}"), base, pages * PAGE_SIZE));
                next = base + pages * PAGE_SIZE;
            }
            if reversed {
                insts.reverse();
            }
            let mut state = LinkState::default();
            for m in insts {
                state.insert_module(m);
            }
            for probe in probes {
                // Page-sized steps from just below the first instance,
                // plus an offset so both page edges get probed.
                let addr = START - PAGE_SIZE + probe * PAGE_SIZE / 2 + probe % 3;
                let scanned = state.modules().find(|m| m.contains(addr)).map(|m| m.name());
                prop_assert_eq!(state.module_at(addr).map(|m| m.name()), scanned);
            }
        }
    }
}
