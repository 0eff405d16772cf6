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
    CostModel, FaultPlan, FaultSite, ShareClass, TraceBuffer, Unsettled, World, WorldExit,
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

/// Final shared memory of the pressure scenario: `(done_count,
/// results[0..workers])`, or `None` if no worker lived long enough to
/// instantiate the segment. Read through the registry like
/// `examples/parallel.rs` does.
pub fn shared_words(world: &mut World, workers: usize) -> Option<(u32, Vec<u32>)> {
    let inst = "/shared/lib/shared_data";
    let ino = world.kernel.vfs.resolve(inst).ok()?.ino;
    let base = {
        let meta = world.registry.get(&mut world.kernel.vfs, ino)?;
        meta.find_export("results").unwrap() - meta.base
    };
    let done = world.peek_shared_word(inst, "done_count").unwrap();
    let bytes = world.kernel.vfs.shared.fs.file_bytes(ino).unwrap();
    let results = (0..workers)
        .map(|i| {
            let off = base as usize + 4 * i;
            u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
        })
        .collect();
    Some((done, results))
}

/// Everything a guest can observe of a multi-worker run. Simulated time
/// is *not* here: pressure and contention are charged honestly, so time
/// legitimately differs between budgets and CPU counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observables {
    pub settled: Result<WorldExit, Unsettled>,
    pub exits: Vec<Option<i32>>,
    pub consoles: Vec<String>,
    pub shared: Option<(u32, Vec<u32>)>,
}

/// Full fidelity for replay and accelerator-identity comparison: the
/// observables, the simulated clock, the trace stream, and `WorldStats`,
/// each modulo the footprint of at most one free accelerator (see
/// [`Mask`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    pub obs: Observables,
    pub sim_ns: u64,
    pub trace: Vec<String>,
    pub stats: String,
}

/// What a [`Replay`] forgives. A replay of one configuration forgives
/// nothing; a differential run that toggles one free accelerator
/// forgives exactly that accelerator's own counters and 0-cost trace
/// diagnostics, and nothing of the other one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mask {
    /// Every `WorldStats` field and every trace record, `seq` included.
    Nothing,
    /// The block cache's three counters and its `BlockInvalidated`
    /// records.
    BbCache,
    /// The four snapshot counters (mirrors *and* the embedded `ldl`
    /// copies) and the `SnapshotMiss`/`SnapshotRebuilt` records. The
    /// *priced* snapshot records stay in: one appearing where it should
    /// not is an identity violation.
    Snapshots,
}

impl Mask {
    /// `WorldStats` with the forgiven counters zeroed, as a comparable
    /// string (the struct deliberately has no `PartialEq`).
    pub fn stats(self, world: &World) -> String {
        let mut stats = world.stats();
        match self {
            Mask::Nothing => {}
            Mask::BbCache => {
                stats.bblocks_built = 0;
                stats.bblock_hits = 0;
                stats.bblock_invalidations = 0;
            }
            Mask::Snapshots => {
                stats.snapshot_hits = 0;
                stats.snapshot_misses = 0;
                stats.snapshot_invalidations = 0;
                stats.snapshot_rebuilds = 0;
                stats.ldl.snapshot_hits = 0;
                stats.ldl.snapshot_misses = 0;
                stats.ldl.snapshot_invalidations = 0;
                stats.ldl.snapshot_rebuilds = 0;
            }
        }
        format!("{stats:?}")
    }

    /// The trace stream for comparison. Unmasked, every record compares
    /// with its `seq`. Masked, the accelerator's own diagnostics are
    /// dropped; they occupy sequence slots, so the rest compare as
    /// (pid, cost, event) in stream order rather than by `seq`.
    pub fn trace(self, world: &World) -> Vec<String> {
        let records = world.trace().records();
        let forgiven: &[&str] = match self {
            Mask::Nothing => {
                return records
                    .map(|r| format!("{} {} {} {}", r.seq, r.pid, r.cost_ns, r.event))
                    .collect()
            }
            Mask::BbCache => &["BlockInvalidated"],
            Mask::Snapshots => &["SnapshotMiss", "SnapshotRebuilt"],
        };
        records
            .filter(|r| !forgiven.contains(&r.event.kind()))
            .map(|r| format!("{} {} {}", r.pid, r.cost_ns, r.event))
            .collect()
    }
}

/// Runs the world until it settles and captures everything `pids` (the
/// pressure workers, in id order) and the machine can be judged on,
/// forgiving what `mask` names.
pub fn settle(world: &mut World, pids: &[Pid], mask: Mask) -> Replay {
    let settled = world.run_to_settle(SETTLE_SLICES);
    let shared = shared_words(world, pids.len());
    Replay {
        obs: Observables {
            settled,
            exits: pids.iter().map(|p| world.exit_code(*p)).collect(),
            consoles: pids.iter().map(|p| world.console(*p)).collect(),
            shared,
        },
        sim_ns: CostModel::default().time(&world.stats()).0,
        trace: mask.trace(world),
        stats: mask.stats(world),
    }
}

/// A frame budget that binds on `world`: half the peak working set of
/// an unbounded four-worker run on it.
pub fn half_budget(world: World) -> u64 {
    let (_, world) = run_pressured(world, WORKERS, 300, None, None, Mask::Nothing);
    (world.stats().peak_resident_frames / 2).max(1)
}

/// Runs `workers` pressure workers at `quantum` on a world the caller
/// has configured (CPUs, accelerators), under `budget` frames and an
/// optional fault plan, and captures the run forgiving what `mask`
/// names. The trace ring is widened so thrash-scale runs evict no
/// records and journal reconciliation stays exact.
pub fn run_pressured(
    mut world: World,
    workers: usize,
    quantum: u64,
    budget: Option<u64>,
    plan: Option<FaultPlan>,
    mask: Mask,
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
    let replay = settle(&mut world, &pids, mask);
    (replay, world)
}
