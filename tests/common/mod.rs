//! Scaffolding shared by the integration suites: the test-run knobs the
//! CI chaos matrix sets, and the guest programs and helpers more than
//! one suite runs.
//!
//! The knobs are read here and nowhere else — `World::new` reads no
//! environment — so a suite that wants the matrix's coverage builds its
//! worlds with [`world`] and reads the rest from [`knobs`]. A test that
//! depends on one accelerator's toggle pins it through its setter after
//! [`world`], so the other knob still reaches it.

// Each suite compiles this module on its own and uses a different
// subset of it.
#![allow(dead_code)]

use hemlock::{
    FaultPlan, FaultSite, RaceRecord, ShareClass, TraceBuffer, TraceRecord, Unsettled, World,
    WorldExit, WorldStats,
};
use hkernel::Pid;
use std::ops::Range;
use std::sync::OnceLock;

// --- the test-run knobs ----------------------------------------------------

/// The knobs of one test run. Unset or unparsable values fall back to
/// the defaults a plain `cargo test` runs with.
pub struct Knobs {
    /// `CPUS=<n>`: simulated CPUs for the suites' CPU-count axis
    /// (default 1). Every property must hold at any CPU count.
    pub cpus: u32,
    /// `CHAOS_SEED=<n>`: entropy folded into every chaos plan seed, so
    /// the matrix's seed axis explores disjoint schedules while any one
    /// run stays reproducible (default 0).
    pub chaos_seed: u64,
    /// `CRASH_SEED=<n>`: the same for the seeded crash plans.
    pub crash_seed: u64,
    /// `PRESSURE_BUDGET=<frames>`: overrides a calibrated frame budget
    /// (`0` or unset: calibrate as usual).
    pub pressure_budget: Option<u64>,
    /// `CORRUPT_SITE=bit_rot|misdirected_write|lost_write`: restricts
    /// seeded corruption to one site; unset or unknown mixes all three.
    pub corrupt_sites: Vec<FaultSite>,
    /// `HVM_BBCACHE=off|0|false`: [`world`] disables the decoded-block
    /// cache, so each suite re-proves its properties cache-off.
    pub bbcache: bool,
    /// `LDL_SNAPSHOT=off|0|false`: [`world`] disables prelink
    /// snapshots, so each suite re-proves its properties snapshot-off.
    pub link_snapshots: bool,
}

/// The knobs, parsed from the environment once per test binary.
pub fn knobs() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(|| {
        let var = |k: &str| std::env::var(k).ok();
        let num = |k: &str| var(k).and_then(|s| s.trim().parse::<u64>().ok());
        let on = |k: &str| !matches!(var(k).as_deref(), Some("off" | "0" | "false"));
        Knobs {
            cpus: var("CPUS").and_then(|s| s.trim().parse().ok()).unwrap_or(1),
            chaos_seed: num("CHAOS_SEED").unwrap_or(0),
            crash_seed: num("CRASH_SEED").unwrap_or(0),
            pressure_budget: num("PRESSURE_BUDGET").filter(|b| *b > 0),
            corrupt_sites: match var("CORRUPT_SITE").as_deref() {
                Some("bit_rot") => vec![FaultSite::BitRot],
                Some("misdirected_write") => vec![FaultSite::MisdirectedWrite],
                Some("lost_write") => vec![FaultSite::LostWrite],
                _ => vec![
                    FaultSite::BitRot,
                    FaultSite::MisdirectedWrite,
                    FaultSite::LostWrite,
                ],
            },
            bbcache: on("HVM_BBCACHE"),
            link_snapshots: on("LDL_SNAPSHOT"),
        }
    })
}

/// A fresh world with the matrix's block-cache and snapshot knobs
/// applied through the `World` setters.
pub fn world() -> World {
    let k = knobs();
    let mut world = World::new();
    world.set_bbcache(k.bbcache);
    world.set_link_snapshots(k.link_snapshots);
    world
}

// --- run budgets and small helpers -----------------------------------------

/// Scheduler slices before a multi-process run counts as unsettled.
pub const SETTLE_SLICES: u64 = 400_000;

/// Scheduler slices before a single-program run counts as stuck.
pub const RUN_SLICES: u64 = 200_000;

/// Deterministic byte pattern: recognizable, offset-sensitive.
pub fn pat(tag: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| tag.wrapping_add((i as u8).wrapping_mul(131)))
        .collect()
}

/// Records of one kind published over the whole run (the world's
/// exact tallies: ring eviction and clearing do not lose any).
pub fn trace_count(world: &World, kind: &str) -> u64 {
    world.tallies().get(kind).count
}

/// Summed cost of one kind of trace record over the whole run.
pub fn trace_cost(world: &World, kind: &str) -> u64 {
    world.tallies().get(kind).cost_ns
}

// --- the persistent counter module -----------------------------------------

/// A public module with one exported counter and a bump function.
pub const COUNTER: &str = r#"
.module counter
.text
.globl bump
bump:   la   r8, count
        lw   r9, 0(r8)
        addi r9, r9, 1
        sw   r9, 0(r8)
        or   v0, r9, r0
        jr   ra
.data
.globl count
count:  .word 0
"#;

/// main: bump once, exit with the new count.
pub const MAIN: &str = r#"
.module main
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        jal  bump
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;

/// Installs the counter module and links `/bin/p` against it, public.
pub fn build_counter(world: &mut World) -> String {
    world
        .install_template("/shared/lib/counter.o", COUNTER)
        .unwrap();
    world.install_template("/src/main.o", MAIN).unwrap();
    world
        .link(
            "/bin/p",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/counter.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap()
}

/// Spawns `exe`, runs until everything exits, and returns its exit
/// code and console.
pub fn run_prog(world: &mut World, exe: &str) -> (i32, String) {
    let pid = world.spawn(exe).unwrap();
    assert_eq!(
        world.run(RUN_SLICES),
        WorldExit::AllExited,
        "log: {:?}",
        world.log
    );
    (world.exit_code(pid).unwrap(), world.console(pid))
}

// --- the racing counter (hsan's seeded bug) --------------------------------

/// Shared data of the counter application: the counter and the
/// spin-lock word that guards it (cf. `examples/parallel.rs`).
pub const SHCOUNT: &str = r#"
.module shcount
.data
.globl count
count:  .word 0
.globl lock
lock:   .word 0
"#;

/// A worker that increments `count` five times under the test-and-set
/// spin lock.
pub const SHCOUNT_LOCKED: &str = r#"
.module worker
.text
.globl main
main:   li   r16, 5            ; iterations
loop:
acq:    la   a0, lock
        li   a1, 1
        li   v0, 102           ; SVC_TAS
        syscall
        bne  v0, r0, acq       ; spin while old value was 1
        la   r8, count         ; critical section: count += 1
        lw   r9, 0(r8)
        addi r9, r9, 1
        sw   r9, 0(r8)
        la   r8, lock          ; unlock
        sw   r0, 0(r8)
        addi r16, r16, -1
        bgtz r16, loop
        li   v0, 0
        jr   ra
"#;

/// The same worker with the lock elided — the seeded race.
pub const SHCOUNT_ELIDED: &str = r#"
.module worker
.text
.globl main
main:   li   r16, 5            ; iterations
loop:   la   r8, count         ; unguarded: count += 1
        lw   r9, 0(r8)
        addi r9, r9, 1
        sw   r9, 0(r8)
        addi r16, r16, -1
        bgtz r16, loop
        li   v0, 0
        jr   ra
"#;

/// Installs the shared counter and links `/bin/worker` (built from
/// `worker`) against it.
pub fn build_shcount(world: &mut World, worker: &str) -> String {
    world
        .install_template("/shared/lib/shcount.o", SHCOUNT)
        .unwrap();
    world.install_template("/src/worker.o", worker).unwrap();
    world
        .link(
            "/bin/worker",
            &[
                ("/src/worker.o", ShareClass::StaticPrivate),
                ("/shared/lib/shcount.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap()
}

/// Runs `workers` copies of a counter worker on `cpus` CPUs with the
/// sanitizer armed, at quantum 50, and asserts that the world settles
/// and every copy exits 0.
pub fn run_sanitized(mut world: World, worker: &str, workers: usize, cpus: u32) -> World {
    let exe = build_shcount(&mut world, worker);
    world.set_cpus(cpus);
    world.arm_sanitizer();
    let pids: Vec<Pid> = (0..workers).map(|_| world.spawn(&exe).unwrap()).collect();
    world.quantum = 50;
    let exit = world.run_to_settle(SETTLE_SLICES).expect("world settles");
    assert_eq!(exit, WorldExit::AllExited);
    for pid in pids {
        assert_eq!(world.exit_code(pid), Some(0), "log: {:?}", world.log);
    }
    world
}

// --- the pressure scenario -------------------------------------------------

/// Workers in the pressure scenario.
pub const WORKERS: usize = 4;

/// Shared data of the pressure scenario: per-worker result slots, a
/// completion counter, and the spin-lock word guarding it. Workers dirty
/// this page, so eviction must take a writeback.
pub const SHARED_DATA: &str = r#"
.module shared_data
.data
.globl results
results: .space 64
.globl done_count
done_count: .word 0
.globl done_lock
done_lock: .word 0
"#;

/// The pressure worker: dirties its shared result slot *early* (so the
/// clock hand finds a dirty unreferenced shared page mid-churn), then
/// makes three passes over a 4-page private buffer — the anon working
/// set the pool must swap — and finally publishes its checksum and
/// bumps `done_count` under the test-and-set lock.
pub const WORKER: &str = r#"
.module worker
.text
.globl main
main:   la   r8, wid
        lw   r16, 0(r8)        ; worker id (patched by the launcher)
        la   r8, results       ; dirty results[id] now: the page ages
        sll  r12, r16, 2       ; out during the churn below and must be
        add  r8, r8, r12       ; written back before eviction
        sw   r0, 0(r8)
        li   r13, 3            ; passes over the private buffer
pass:   la   r8, buf
        li   r9, 0             ; byte offset
        li   r10, 16384        ; buffer size
fill:   add  r11, r8, r9
        add  r12, r9, r16      ; value = offset + id
        sw   r12, 0(r11)
        addi r9, r9, 256
        slt  r12, r9, r10
        bne  r12, r0, fill
        li   r17, 0            ; checksum the buffer back
        li   r9, 0
sum:    add  r11, r8, r9
        lw   r12, 0(r11)
        add  r17, r17, r12
        addi r9, r9, 256
        slt  r12, r9, r10
        bne  r12, r0, sum
        addi r13, r13, -1
        bgtz r13, pass
        la   r8, results       ; publish results[id]
        sll  r12, r16, 2
        add  r8, r8, r12
        sw   r17, 0(r8)
acq:    la   a0, done_lock     ; done_count += 1 under the TAS lock
        li   a1, 1
        li   v0, 102           ; SVC_TAS
        syscall
        bne  v0, r0, acq
        la   r8, done_count
        lw   r9, 0(r8)
        addi r9, r9, 1
        sw   r9, 0(r8)
        la   r8, done_lock
        sw   r0, 0(r8)
        or   a0, r17, r0
        li   v0, 106           ; print_int(checksum)
        syscall
        li   v0, 0
        jr   ra
.data
.globl wid
wid:    .word 0
.globl buf
buf:    .space 16384
"#;

/// The checksum worker `id` prints: Σ over its 64 buffer offsets (a
/// 256-byte stride over 16 KiB) of (offset + id).
pub fn expected_checksum(id: u32) -> u32 {
    let touches = 16_384 / 256;
    256 * (touches * (touches - 1) / 2) + touches * id
}

/// Installs the pressure scenario and links `/bin/worker` against it.
pub fn build_pressure(world: &mut World) -> String {
    world
        .install_template("/shared/lib/shared_data.o", SHARED_DATA)
        .unwrap();
    world.install_template("/src/worker.o", WORKER).unwrap();
    world
        .link(
            "/bin/worker",
            &[
                ("/src/worker.o", ShareClass::StaticPrivate),
                ("/shared/lib/shared_data.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap()
}

/// Spawns pressure workers `ids` from `exe`, patching each one's `wid`
/// word with its id.
pub fn spawn_workers(world: &mut World, exe: &str, ids: Range<usize>) -> Vec<Pid> {
    let wid = {
        let bytes = world.kernel.vfs.read_all(exe).unwrap();
        hobj::binfmt::decode_image(&bytes)
            .unwrap()
            .find_export("wid")
            .unwrap()
    };
    ids.map(|id| {
        let pid = world.spawn(exe).unwrap();
        let proc = world.kernel.procs.get_mut(&pid).unwrap();
        proc.aspace
            .write_bytes(
                &mut world.kernel.vfs.shared,
                wid,
                &(id as u32).to_le_bytes(),
            )
            .unwrap();
        pid
    })
    .collect()
}

/// Final shared memory of the corpus's public instances, skipping any
/// the run never instantiated: each counter's `count`, then the
/// pressure scenario's `done_count` and its first `workers` result
/// slots. Read through the registry like `examples/parallel.rs` does.
pub fn shared_words(world: &mut World, workers: usize) -> Vec<u32> {
    let mut words: Vec<u32> = ["/shared/lib/counter", "/shared/lib/shcount"]
        .iter()
        .filter_map(|inst| world.peek_shared_word(inst, "count").ok())
        .collect();
    let inst = "/shared/lib/shared_data";
    let Ok(done) = world.peek_shared_word(inst, "done_count") else {
        return words;
    };
    let ino = world.kernel.vfs.resolve(inst).unwrap().ino;
    let base = {
        let meta = world.registry.get(&mut world.kernel.vfs, ino).unwrap();
        meta.find_export("results").unwrap() - meta.base
    } as usize;
    let bytes = world.kernel.vfs.shared.fs.file_bytes(ino).unwrap();
    words.push(done);
    words.extend(
        (base..base + 4 * workers)
            .step_by(4)
            .map(|off| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())),
    );
    words
}

/// Everything a guest can observe of a multi-process run. Simulated
/// time is *not* here: pressure and contention are charged honestly,
/// so time legitimately differs between budgets and CPU counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observables {
    pub settled: Result<WorldExit, Unsettled>,
    pub exits: Vec<Option<i32>>,
    pub consoles: Vec<String>,
    /// See [`shared_words`].
    pub shared: Vec<u32>,
    /// The armed sanitizer's race reports (empty when unarmed).
    pub races: Vec<RaceRecord>,
}

/// Full fidelity for replay and free-toggle comparison: the
/// observables, the simulated clock, the trace stream, `WorldStats`,
/// and the shared partition's logical state. Two replays compare
/// modulo both capture masks; see [`Replay::view`] for any other set.
#[derive(Debug, Clone)]
pub struct Replay {
    pub obs: Observables,
    pub sim_ns: u64,
    trace: Vec<TraceRecord>,
    stats: WorldStats,
    digest: u64,
    mask: Mask,
}

/// A [`Replay`] as compared: whatever its masks forgive is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct View {
    pub obs: Observables,
    pub sim_ns: u64,
    pub trace: Vec<String>,
    /// `WorldStats` as a comparable string (the struct deliberately
    /// has no `PartialEq`).
    pub stats: String,
    /// `World::shared_digest`, unless forgiven.
    pub digest: Option<u64>,
}

impl Replay {
    /// The replay modulo `masks`. Unmasked, every trace record compares
    /// with its `seq`. Once a mask drops records, which occupy sequence
    /// slots, the rest compare as (pid, cost, event) in stream order.
    pub fn view(&self, masks: &[Mask]) -> View {
        let mut stats = self.stats;
        let mut view = View {
            obs: self.obs.clone(),
            sim_ns: self.sim_ns,
            trace: Vec::new(),
            stats: String::new(),
            digest: Some(self.digest),
        };
        let dropped: Vec<&str> = masks
            .iter()
            .flat_map(|m| m.forgive(&mut stats, &mut view))
            .copied()
            .collect();
        let trace = self.trace.iter();
        view.trace = if dropped.is_empty() {
            trace
                .map(|r| format!("{} {} {} {}", r.seq, r.pid, r.cost_ns, r.event))
                .collect()
        } else {
            trace
                .filter(|r| !dropped.contains(&r.event.kind()))
                .map(|r| format!("{} {} {}", r.pid, r.cost_ns, r.event))
                .collect()
        };
        view.stats = format!("{stats:?}");
        view
    }
}

impl PartialEq for Replay {
    fn eq(&self, other: &Replay) -> bool {
        let masks = [self.mask, other.mask];
        self.view(&masks) == other.view(&masks)
    }
}

/// The one list of what a comparison forgives. A replay of one
/// configuration forgives nothing; a differential run that toggles a
/// free subsystem forgives exactly that subsystem's own counters and
/// 0-cost trace diagnostics, and nothing of the others. A *priced*
/// record never appears here: one showing up where it should not is an
/// identity violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mask {
    Nothing,
    /// The block cache's three counters and its `BlockInvalidated`
    /// records.
    BbCache,
    /// Nothing: the journal and integrity stamping move no counter and
    /// publish no record on a run that neither crashes nor scrubs.
    Storage,
    /// The sanitizer's three counters, its three diagnostic records and
    /// its race reports.
    Sanitizer,
    /// The four snapshot counters (mirrors *and* the embedded `ldl`
    /// copies), the `SnapshotMiss`/`SnapshotRebuilt` records, and the
    /// partition digest, which covers the snapshot files.
    Snapshots,
}

impl Mask {
    /// Clears what this mask forgives in `s` and `view`, and returns the
    /// record kinds it forgives.
    fn forgive(self, s: &mut WorldStats, view: &mut View) -> &'static [&'static str] {
        match self {
            Mask::Nothing | Mask::Storage => &[],
            Mask::BbCache => {
                (s.bblocks_built, s.bblock_hits, s.bblock_invalidations) = (0, 0, 0);
                &["BlockInvalidated"]
            }
            Mask::Sanitizer => {
                (s.races_detected, s.sync_edges, s.shadow_bytes) = (0, 0, 0);
                view.obs.races.clear();
                &["RaceDetected", "LockOrderCycle", "ProtectionDrift"]
            }
            Mask::Snapshots => {
                (s.snapshot_hits, s.snapshot_misses) = (0, 0);
                (s.snapshot_invalidations, s.snapshot_rebuilds) = (0, 0);
                (s.ldl.snapshot_hits, s.ldl.snapshot_misses) = (0, 0);
                (s.ldl.snapshot_invalidations, s.ldl.snapshot_rebuilds) = (0, 0);
                view.digest = None;
                &["SnapshotMiss", "SnapshotRebuilt"]
            }
        }
    }
}

/// Runs the world until it settles and captures everything `pids` (in
/// slot order) and the machine can be judged on, forgiving what `mask`
/// names. Time is priced with `world.costs`, the model `World::audit`
/// checks against.
pub fn settle(world: &mut World, pids: &[Pid], mask: Mask) -> Replay {
    let settled = world.run_to_settle(SETTLE_SLICES);
    let shared = shared_words(world, pids.len());
    let stats = world.stats();
    Replay {
        obs: Observables {
            settled,
            exits: pids.iter().map(|p| world.exit_code(*p)).collect(),
            consoles: pids.iter().map(|p| world.console(*p)).collect(),
            shared,
            races: world.races().to_vec(),
        },
        sim_ns: world.costs.time(&stats).0,
        trace: world.trace().records().cloned().collect(),
        stats,
        digest: world.shared_digest(),
        mask,
    }
}

/// A frame budget that binds on `world`: half the peak working set of
/// an unbounded four-worker run on it.
pub fn half_budget(world: World) -> u64 {
    let (_, world) = run_pressured(world, WORKERS, 300, None, None);
    (world.stats().peak_resident_frames / 2).max(1)
}

/// Runs `workers` pressure workers at `quantum` on a world the caller
/// has configured (CPUs, accelerators), under `budget` frames and an
/// optional fault plan, and captures the run. The trace ring is
/// widened so thrash-scale runs evict no records.
pub fn run_pressured(
    mut world: World,
    workers: usize,
    quantum: u64,
    budget: Option<u64>,
    plan: Option<FaultPlan>,
) -> (Replay, World) {
    let exe = build_pressure(&mut world);
    *world.trace_mut() = TraceBuffer::new(1 << 20);
    if let Some(frames) = budget {
        world.set_frame_budget(frames);
    }
    if let Some(plan) = plan {
        world.arm_faults(plan);
    }
    let pids = spawn_workers(&mut world, &exe, 0..workers);
    world.quantum = quantum;
    let replay = settle(&mut world, &pids, Mask::Nothing);
    (replay, world)
}

// --- the configuration lattice ---------------------------------------------

/// The shared partition's storage stack. Integrity lives inside the
/// durability pipeline, so the axis has three values, not four.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Durability off: every write is immediately durable.
    Plain,
    /// The write pipeline and metadata journal, integrity off.
    Journal,
    /// The default: journal plus checksums, stamps and replicas.
    Integrity,
}

/// One configuration of the lattice. bbcache, storage and sanitizer
/// are claimed free in simulated time; CPU count and frame budget are
/// honestly priced, so they keep only the guest observables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub bbcache: bool,
    pub storage: Storage,
    pub sanitizer: bool,
    pub cpus: u32,
    /// Half the peak working set of the unbounded run, or unbounded.
    pub half_budget: bool,
}

impl Cell {
    /// All 48 cells. The free toggles vary fastest and start at their
    /// defaults, so each (cpus, budget) group opens with its reference,
    /// and each CPU count's unbounded group precedes its half one.
    pub fn lattice() -> Vec<Cell> {
        let storage = [Storage::Integrity, Storage::Journal, Storage::Plain];
        (0..48)
            .map(|i| Cell {
                bbcache: i % 2 == 0,
                storage: storage[i / 2 % 3],
                sanitizer: i / 6 % 2 == 1,
                half_budget: i / 12 % 2 == 1,
                cpus: [1, 4][i / 24],
            })
            .collect()
    }

    /// The cells of [`Cell::lattice`] that `keep` selects, in lattice
    /// order: the slice a suite sweeps to prove the one identity it
    /// names.
    pub fn slice(keep: impl Fn(&Cell) -> bool) -> Vec<Cell> {
        Cell::lattice().into_iter().filter(keep).collect()
    }

    /// What comparing this cell with `other` of the same group forgives:
    /// one mask per free toggle that differs.
    pub fn masks(&self, other: &Cell) -> Vec<Mask> {
        [
            (self.bbcache != other.bbcache, Mask::BbCache),
            (self.storage != other.storage, Mask::Storage),
            (self.sanitizer != other.sanitizer, Mask::Sanitizer),
        ]
        .into_iter()
        .filter_map(|(differs, mask)| differs.then_some(mask))
        .collect()
    }

    /// A fresh world with this cell's cache, storage and CPU count (the
    /// caller applies the budget and the sanitizer after building), its
    /// trace ring widened so no run evicts. With `default_cpus` a
    /// one-CPU cell never calls `set_cpus`, so replaying it also proves
    /// that one CPU is the default, not a separate mode.
    pub fn world(&self, default_cpus: bool) -> World {
        let mut world = world();
        world.set_bbcache(self.bbcache);
        match self.storage {
            Storage::Plain => world.set_durability(false),
            Storage::Journal => world.set_integrity(false),
            Storage::Integrity => {}
        }
        if !(default_cpus && self.cpus == 1) {
            world.set_cpus(self.cpus);
        }
        *world.trace_mut() = TraceBuffer::new(1 << 20);
        world
    }
}

/// The lattice's corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// E10's four pressure workers.
    Pressure,
    /// The same under e12's plan dropping every first shootdown IPI.
    DroppedShootdowns,
    /// hsan's counter, four workers under the test-and-set lock.
    Locked,
    /// The same with the lock elided: the seeded race.
    Elided,
    /// e13's crash-free multi-segment workload.
    Workload,
    /// e15's lazily linked three-module chain.
    Chain,
    /// The `fuzz_whole_stack` regression program.
    Fuzz,
    /// E1's rwho: readers scanning a small public host database.
    Rwho,
}

pub const SHAPES: [Shape; 8] = [
    Shape::Pressure,
    Shape::DroppedShootdowns,
    Shape::Locked,
    Shape::Elided,
    Shape::Workload,
    Shape::Chain,
    Shape::Fuzz,
    Shape::Rwho,
];

impl Shape {
    /// Installs and links the shape's programs.
    pub fn build(self, world: &mut World) -> String {
        match self {
            Shape::Pressure | Shape::DroppedShootdowns => build_pressure(world),
            Shape::Locked => build_shcount(world, SHCOUNT_LOCKED),
            Shape::Elided => build_shcount(world, SHCOUNT_ELIDED),
            Shape::Workload => String::new(),
            Shape::Chain => build_chain(world),
            Shape::Fuzz => {
                // Its prelink snapshot is this shape's only write to the
                // shared partition, so it keeps snapshots on whatever
                // `LDL_SNAPSHOT` says: the storage cells must not hold
                // vacuously.
                world.set_link_snapshots(true);
                let src = program(&[(0, 0, 0, 0)]);
                world.install_template("/src/fuzz.o", &src).unwrap();
                let modules = [("/src/fuzz.o", ShareClass::StaticPrivate)];
                world.link("/bin/fuzz", &modules).unwrap()
            }
            Shape::Rwho => build_rwho(world),
        }
    }

    /// Starts the shape on a configured world and returns the pids to
    /// settle (the workload runs its programs itself).
    pub fn start(self, world: &mut World, exe: &str) -> Vec<Pid> {
        match self {
            Shape::Pressure | Shape::DroppedShootdowns => spawn_workers(world, exe, 0..WORKERS),
            Shape::Locked | Shape::Elided => (0..4).map(|_| world.spawn(exe).unwrap()).collect(),
            Shape::Workload => {
                run_workload(world);
                Vec::new()
            }
            Shape::Chain | Shape::Fuzz => vec![world.spawn(exe).unwrap()],
            Shape::Rwho => (0..RWHO_READERS)
                .map(|_| world.spawn(exe).unwrap())
                .collect(),
        }
    }
}

/// Runs `shape` in `cell` under `budget` frames and captures it (see
/// [`Cell::world`] for `default_cpus`). Setup stays out of the budget,
/// the fault plan and the sanitizer's shadow: they apply after the
/// build.
pub fn run_cell(
    shape: Shape,
    cell: Cell,
    quantum: u64,
    budget: Option<u64>,
    default_cpus: bool,
) -> (Replay, World) {
    let mut world = cell.world(default_cpus);
    let exe = shape.build(&mut world);
    if let Some(frames) = budget {
        world.set_frame_budget(frames);
    }
    if cell.sanitizer {
        world.arm_sanitizer();
    }
    if shape == Shape::DroppedShootdowns {
        world.arm_faults(FaultPlan::new(7, 1_000_000).only(&[FaultSite::ShootdownDrop]));
    }
    world.quantum = quantum;
    let pids = shape.start(&mut world, &exe);
    (settle(&mut world, &pids, Mask::Nothing), world)
}

/// Asserts two views equal, naming the first part that differs rather
/// than printing whole traces.
pub fn assert_same(a: View, b: View, what: &str) {
    assert_eq!(a.obs, b.obs, "{what}: observables");
    assert_eq!(a.sim_ns, b.sim_ns, "{what}: simulated ns");
    let records = a.trace.len().max(b.trace.len());
    if let Some(i) = (0..records).find(|&i| a.trace.get(i) != b.trace.get(i)) {
        panic!(
            "{what}: record {i}: {:?} vs {:?}",
            a.trace.get(i),
            b.trace.get(i)
        );
    }
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.digest, b.digest, "{what}: shared digest");
}

/// Runs `shape` at `quantum` in every cell of `cells` (a subsequence
/// of [`Cell::lattice`], in its order) and holds each to the four
/// checks listed in `tests/lattice.rs`. A suite proves one identity by
/// sweeping the slice of the lattice that toggles it. Returns each
/// cell's `WorldStats`, in `cells` order.
pub fn sweep(shape: Shape, quantum: u64, cells: &[Cell]) -> Vec<WorldStats> {
    // Each (cpus, budget) group's reference, with its peak frames.
    let mut groups: Vec<(Cell, Replay, u64)> = Vec::new();
    let mut observed: Vec<((bool, Option<u32>), Observables)> = Vec::new();
    let mut stats = Vec::new();
    for &cell in cells {
        let name = format!("{shape:?} at quantum {quantum} in {cell:?}");
        let budget = cell.half_budget.then(|| {
            let unbounded = groups
                .iter()
                .find(|g| (g.0.cpus, g.0.half_budget) == (cell.cpus, false));
            (unbounded.expect("the unbounded group runs first").2 / 2).max(1)
        });
        let (replay, mut world) = run_cell(shape, cell, quantum, budget, false);
        let (again, _) = run_cell(shape, cell, quantum, budget, true);
        assert_same(
            replay.view(&[]),
            again.view(&[]),
            &format!("{name}: replay"),
        );
        world
            .audit()
            .unwrap_or_else(|e| panic!("{name}: audit: {e}"));

        // Every switch took effect, so no identity below holds vacuously.
        let (s, (data, stamps)) = (world.stats(), world.write_amplification());
        let took = (s.bblocks_built > 0, s.sync_edges > 0, data > 0, stamps > 0);
        let journal = cell.storage != Storage::Plain;
        let asked = (
            cell.bbcache,
            cell.sanitizer,
            journal,
            cell.storage == Storage::Integrity,
        );
        assert_eq!(took, asked, "{name}: a switch did not take effect");

        // The observable reference shares the sanitizer state and, for
        // the racy counter, the CPU count.
        let key = (
            cell.sanitizer,
            (shape == Shape::Elided).then_some(cell.cpus),
        );
        match observed.iter().find(|(k, _)| *k == key) {
            Some((_, obs)) => assert_eq!(&replay.obs, obs, "{name}: an observable moved"),
            None => observed.push((key, replay.obs.clone())),
        }

        let group = (cell.cpus, cell.half_budget);
        match groups.iter().find(|g| (g.0.cpus, g.0.half_budget) == group) {
            Some((reference, ref_replay, _)) => {
                let masks = cell.masks(reference);
                let what = format!("{name}: against {reference:?}");
                assert_same(replay.view(&masks), ref_replay.view(&masks), &what);
            }
            None => groups.push((cell, replay, s.peak_resident_frames)),
        }
        stats.push(s);
    }
    stats
}

// --- the chaos scenario ---------------------------------------------------

/// Installs the chaos scenario of E8 and E9 and links `/bin/chaos`: a
/// *pure* public module (no mutable shared state, so each process's
/// output is independent of the others' fate) and a main program that
/// calls into it and prints the result, 1121.
pub fn build_chaos(world: &mut World) -> String {
    world
        .install_template(
            "/shared/lib/mathmod.o",
            r#"
            .module mathmod
            .text
            .globl triple
            triple: add  v0, a0, a0
                    add  v0, v0, a0
                    jr   ra
            .globl offset
            offset: la   r8, base
                    lw   r9, 0(r8)
                    add  v0, a0, r9
                    jr   ra
            .globl combine
            combine: addi sp, sp, -8
                    sw   ra, 0(sp)
                    jal  helper         ; resolved up the scope chain
                    lw   ra, 0(sp)
                    addi sp, sp, 8
                    jr   ra
            .data
            .globl base
            base:   .word 100
            "#,
        )
        .unwrap();
    world
        .install_template(
            "/src/main.o",
            r#"
            .module main
            .text
            .globl main
            main:   addi sp, sp, -8
                    sw   ra, 0(sp)
                    li   a0, 7
                    jal  triple         ; 21
                    or   a0, v0, r0
                    jal  offset         ; 121
                    or   a0, v0, r0
                    jal  combine        ; 1121 (via helper below)
                    or   a0, v0, r0
                    li   v0, 106        ; print_int(1121)
                    syscall
                    lw   ra, 0(sp)
                    addi sp, sp, 8
                    li   v0, 0
                    jr   ra
            .globl helper
            helper: addi v0, a0, 1000
                    jr   ra
            "#,
        )
        .unwrap();
    world
        .link(
            "/bin/chaos",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/mathmod.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap()
}

// --- the crash-free multi-segment workload ---------------------------------

/// The canonical multi-segment workload: build and run the counter
/// program twice (mapped stores into a public module instance), write
/// two raw data segments, **barrier** (the acknowledgement point:
/// everything up to here must survive any later crash), then pile on an
/// unacknowledged suffix: a new segment, an extending overwrite, a
/// grow-truncate, and a create+write+unlink. Returns the disk write
/// index of the barrier.
///
/// On a world whose disk has been armed to die, the *live* run is
/// byte-identical (the death is invisible until `power_cut`), but the
/// returned barrier index freezes at the death point — crash-point
/// classification must use the crash-free reference run's index.
pub fn run_workload(world: &mut World) -> u64 {
    let exe = build_counter(world);
    assert_eq!(run_prog(world, &exe).0, 1);
    assert_eq!(run_prog(world, &exe).0, 2);
    let vfs = &mut world.kernel.vfs;
    vfs.mkdir_all("/shared/data", 0o755, 0).unwrap();
    vfs.create_file("/shared/data/a", 0o644, 0).unwrap();
    vfs.write("/shared/data/a", 2000, &pat(0xA1, 6000)).unwrap();
    vfs.create_file("/shared/data/b", 0o644, 0).unwrap();
    vfs.write("/shared/data/b", 0, &pat(0xB2, 3000)).unwrap();
    let ack = world.barrier();
    // Unacknowledged from here on: no barrier follows.
    let vfs = &mut world.kernel.vfs;
    vfs.create_file("/shared/data/c", 0o644, 0).unwrap();
    vfs.write("/shared/data/c", 0, &pat(0xC3, 5000)).unwrap();
    vfs.write("/shared/data/a", 8192, &pat(0xA9, 4100)).unwrap();
    let b = vfs.resolve("/shared/data/b").unwrap();
    vfs.truncate_vnode(b, 65_536).unwrap();
    vfs.create_file("/shared/data/tmp", 0o600, 0).unwrap();
    vfs.write("/shared/data/tmp", 0, &pat(0x77, 100)).unwrap();
    vfs.unlink("/shared/data/tmp").unwrap();
    ack
}

// --- the lazily linked pure-code chain (no data mutation) -----------------

const LIB2: &str = r#"
.module lib2
.text
.globl f2
f2:     li   v0, 42
        jr   ra
.data
.globl pad
pad:    .word 0
"#;

const LIB1: &str = r#"
.module lib1
.uses lib2
.text
.globl f1
f1:     addi sp, sp, -8
        sw   ra, 0(sp)
        jal  f2
        lw   ra, 0(sp)
        addi sp, sp, 8
        addi v0, v0, 1
        jr   ra
"#;

const CMAIN: &str = r#"
.module cmain
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        jal  f1
        or   r16, v0, r0
        or   a0, v0, r0
        li   v0, 106           ; print_int(result)
        syscall
        or   v0, r16, r0
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;

/// The chain's answer: f2's 42 plus f1's increment.
pub const CHAIN_ANSWER: i32 = 43;

/// Installs the three-module chain and links `/bin/chain`.
pub fn build_chain(world: &mut World) -> String {
    world.install_template("/shared/lib/lib1.o", LIB1).unwrap();
    world.install_template("/shared/lib/lib2.o", LIB2).unwrap();
    world.install_template("/src/cmain.o", CMAIN).unwrap();
    world
        .link(
            "/bin/chain",
            &[
                ("/src/cmain.o", ShareClass::StaticPrivate),
                ("/shared/lib/lib1.o", ShareClass::DynamicPublic),
                ("/shared/lib/lib2.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap()
}

// --- E1's rwho readers over a shared host database ------------------------

/// Readers the rwho shape spawns.
pub const RWHO_READERS: usize = 3;

/// Each reader's exit code: the sum of the database's host values.
pub const RWHO_SUM: i32 = 31;

/// Eight 32-byte host records, each with its value at offset 16.
const RWHO_DB: &str = r#"
.module rwho_db
.data
.globl nhosts
nhosts: .word 8
.globl hosts
hosts:  .word 0, 0, 0, 0, 3, 0, 0, 0
        .word 0, 0, 0, 0, 1, 0, 0, 0
        .word 0, 0, 0, 0, 4, 0, 0, 0
        .word 0, 0, 0, 0, 1, 0, 0, 0
        .word 0, 0, 0, 0, 5, 0, 0, 0
        .word 0, 0, 0, 0, 9, 0, 0, 0
        .word 0, 0, 0, 0, 2, 0, 0, 0
        .word 0, 0, 0, 0, 6, 0, 0, 0
"#;

/// The benchmark's rwho reader: three passes over the database, each a
/// two-block loop (bound check, then the record body), exiting with
/// the last pass's sum, [`RWHO_SUM`].
const RWHO_READER: &str = r#"
.module rwho
.text
.globl main
main:   li   r15, 3
outer:  la   r8, hosts
        la   r10, nhosts
        lw   r10, 0(r10)
        li   r16, 0
        li   r17, 0
loop:   slt  r9, r16, r10
        beq  r9, r0, done
        sll  r11, r16, 5
        add  r11, r8, r11
        lw   r12, 16(r11)
        add  r17, r17, r12
        xor  r14, r14, r12
        sll  r13, r12, 2
        add  r19, r19, r13
        slt  r9, r12, r17
        add  r20, r20, r9
        addi r16, r16, 1
        b    loop
done:   addi r15, r15, -1
        bgtz r15, outer
        or   v0, r17, r0
        jr   ra
"#;

/// Installs the host database and the reader, and links `/bin/rwho`.
pub fn build_rwho(world: &mut World) -> String {
    world
        .install_template("/shared/lib/rwho_db.o", RWHO_DB)
        .unwrap();
    world.install_template("/src/rwho.o", RWHO_READER).unwrap();
    world
        .link(
            "/bin/rwho",
            &[
                ("/src/rwho.o", ShareClass::StaticPrivate),
                ("/shared/lib/rwho_db.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap()
}

// --- the whole-stack fuzzer's programs ------------------------------------

/// One random instruction line from a mixed bag: arithmetic, memory,
/// branches (to one of a few labels), jumps, syscalls with random
/// numbers, and loads/stores through partially initialized registers.
fn instr_line(seed: (u8, u8, u8, u16)) -> String {
    let (op, a, b, imm) = seed;
    let ra = a % 24 + 8; // r8..r31
    let rb = b % 24 + 8;
    let simm = (imm as i16 as i32).clamp(-32768, 32767);
    match op % 14 {
        0 => format!("addi r{ra}, r{rb}, {simm}"),
        1 => format!("add r{ra}, r{rb}, r{ra}"),
        2 => format!("sub r{ra}, r{ra}, r{rb}"),
        3 => format!("sll r{ra}, r{rb}, {}", imm % 32),
        4 => format!("li r{ra}, {}", imm as u32 * 977),
        5 => format!("lw r{ra}, {}(r{rb})", (simm / 4) * 4),
        6 => format!("sw r{ra}, {}(r{rb})", (simm / 4) * 4),
        7 => format!("beq r{ra}, r{rb}, l{}", imm % 4),
        8 => format!("bne r{ra}, r{rb}, l{}", imm % 4),
        9 => "jal helper".to_string(),
        10 => format!("la r{ra}, shared_word"),
        11 => format!("div r{ra}, r{rb}"),
        12 => format!("li v0, {}\nsyscall", imm % 40), // random syscalls
        _ => "nop".to_string(),
    }
}

pub fn program(seeds: &[(u8, u8, u8, u16)]) -> String {
    let mut body = String::new();
    let mut emitted = [false; 4];
    for (i, s) in seeds.iter().enumerate() {
        // Sprinkle the branch-target labels through the body.
        let l = (i / 4) % 4;
        if i % 4 == 0 && !emitted[l] {
            emitted[l] = true;
            body.push_str(&format!("l{l}:\n"));
        }
        body.push_str(&instr_line(*s));
        body.push('\n');
    }
    // Ensure all labels exist even for short bodies.
    for (l, done) in emitted.iter().enumerate() {
        if !done {
            body.push_str(&format!("l{l}:\n"));
        }
    }
    format!(
        ".module fuzz\n.text\n.globl main\nmain:\n{body}\n\
         li v0, 1\nli a0, 0\nsyscall\n\
         .globl helper\nhelper: jr ra\n\
         .data\n.globl shared_word\nshared_word: .word 7\n"
    )
}
