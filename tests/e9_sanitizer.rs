//! E9 — the happens-before sanitizer (`crates/hsan`, DESIGN.md §9).
//!
//! Four claims are tested here:
//!
//! 1. **Soundness on disciplined code** (property): an N-worker shared
//!    counter guarded by the test-and-set trap reports zero races under
//!    any scheduling quantum.
//! 2. **Completeness on the seeded bug** (property + acceptance): the
//!    lock-elided variant of the same program reports the race, naming
//!    the shared segment's path, the offset of the counter word, and
//!    both racing PCs.
//! 3. **No false positives under chaos**: the E8 scenarios run armed
//!    with fault injection report no races, and the sanitizer does not
//!    perturb chaos determinism.
//! 4. **Identity**: arming the sanitizer changes nothing a guest or the
//!    cost model can observe, on one or four CPUs and under thrash.
//!    These are the sanitizer slices of the configuration lattice
//!    (`tests/lattice.rs` sweeps every cell).

mod common;

use common::{
    build_chaos, build_shcount, knobs, sweep, trace_count, Cell, Shape, Storage, SETTLE_SLICES,
    SHCOUNT_ELIDED, SHCOUNT_LOCKED,
};
use hemlock::{FaultPlan, World, WorldExit};
use proptest::prelude::*;

/// Runs `workers` copies of the worker with the given quantum,
/// optionally armed, until every copy exits, and returns the final
/// count.
fn run_counter(worker_src: &str, workers: usize, quantum: u64, armed: bool) -> (u32, World) {
    let mut world = common::world();
    let exe = build_shcount(&mut world, worker_src);
    world.set_cpus(knobs().cpus);
    if armed {
        world.arm_sanitizer();
    }
    for _ in 0..workers {
        world.spawn(&exe).unwrap();
    }
    world.quantum = quantum;
    let exit = world.run_to_settle(SETTLE_SLICES).expect("world settles");
    assert_eq!(exit, WorldExit::AllExited);
    let count = world.peek_shared_word("/shared/lib/shcount", "count");
    (count.unwrap(), world)
}

/// Byte offset of an exported word within its shared segment file.
fn export_offset(world: &mut World, instance: &str, symbol: &str) -> u32 {
    let vnode = world.kernel.vfs.resolve(instance).unwrap();
    let meta = world
        .registry
        .get(&mut world.kernel.vfs, vnode.ino)
        .unwrap();
    meta.find_export(symbol).unwrap() - meta.base
}

/// The unarmed fast path stays free: no sanitizer counters move.
#[test]
fn unarmed_world_reports_nothing() {
    let (_, world) = run_counter(SHCOUNT_ELIDED, 3, 50, false);
    let stats = world.stats();
    assert!(!world.sanitizer_armed());
    assert_eq!(stats.races_detected, 0);
    assert_eq!(stats.sync_edges, 0);
    assert_eq!(stats.shadow_bytes, 0);
    assert!(world.races().is_empty());
}

// --- 1 & 2. the property: locked clean, elided caught ----------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any scheduling quantum, any worker count: the TAS-guarded counter
    /// is race-free, sums correctly, and the lock-elided twin of the
    /// same schedule is reported — naming the segment and the counter's
    /// offset.
    #[test]
    fn lock_discipline_separates_clean_from_racy(
        quantum in 10u64..400,
        workers in 2usize..5,
    ) {
        // Disciplined: zero reports, correct sum.
        let (count, world) = run_counter(SHCOUNT_LOCKED, workers, quantum, true);
        prop_assert_eq!(world.stats().races_detected, 0, "log: {:?}", world.log);
        prop_assert!(world.races().is_empty());
        prop_assert_eq!(count, workers as u32 * 5);

        // Lock-elided: the race is reported and located.
        let (_, mut world) = run_counter(SHCOUNT_ELIDED, workers, quantum, true);
        let stats = world.stats();
        prop_assert!(stats.races_detected >= 1, "elided lock went unreported");
        let count_off = export_offset(&mut world, "/shared/lib/shcount", "count");
        let races = world.races();
        prop_assert!(!races.is_empty());
        let r = &races[0];
        prop_assert_eq!(&r.path[..], "/shared/lib/shcount");
        prop_assert_eq!(r.offset, count_off, "race must name the counter word");
        prop_assert!(r.first_pid != r.second_pid, "cross-process by definition");
    }
}

// --- 2b. the acceptance test: both PCs, precisely --------------------

/// The seeded race is reported with *both* racing PCs, and they are the
/// worker's actual load/store instructions — provable because every
/// worker runs the identical image, so the PCs must fall inside the
/// worker module's text and differ only by the access kind.
#[test]
fn race_report_names_both_pcs_and_the_segment() {
    let (_, world) = run_counter(SHCOUNT_ELIDED, 3, 50, true);
    let races = world.races();
    assert!(!races.is_empty(), "log: {:?}", world.log);
    let r = &races[0];
    assert_eq!(r.path, "/shared/lib/shcount");
    assert_ne!(r.first_pid, r.second_pid);
    assert_ne!(r.first_pc, 0, "first PC recorded");
    assert_ne!(r.second_pc, 0, "second PC recorded");
    assert!(r.second_is_write || r.first_is_write, "at least one store");
    // The trace ring carries the same finding at zero simulated cost.
    assert_eq!(trace_count(&world, "RaceDetected"), races.len() as u64);
    assert_eq!(common::trace_cost(&world, "RaceDetected"), 0);
    // And the log names the path for humans.
    assert!(world
        .log
        .iter()
        .any(|l| l.contains("data race on /shared/lib/shcount")));
}

/// Racing on one word must not silence a later race on a different
/// word, and each word is reported at most once.
#[test]
fn one_report_per_raced_word() {
    let (_, world) = run_counter(SHCOUNT_ELIDED, 4, 30, true);
    let races = world.races();
    let mut offsets: Vec<u32> = races.iter().map(|r| r.offset).collect();
    offsets.sort_unstable();
    offsets.dedup();
    assert_eq!(offsets.len(), races.len(), "duplicate report for a word");
}

// --- 3. chaos interaction --------------------------------------------

/// The E8 chaos scenario (a *pure* public module, so concurrent
/// processes share only read-only state), run with both the fault plan
/// and the sanitizer armed: injections kill victims and the sanitizer
/// must stay silent — dying processes, spawn refusals, and retries are
/// not data races. The armed run also replays chaos identically.
#[test]
fn chaos_with_sanitizer_has_no_false_positives() {
    let run = |seed: u64, sanitize: bool| {
        let mut world = common::world();
        let exe = build_chaos(&mut world);
        world.set_cpus(knobs().cpus);
        world.arm_faults(FaultPlan::new(seed, 50_000));
        if sanitize {
            world.arm_sanitizer();
        }
        let mut pids = Vec::new();
        for _ in 0..3 {
            pids.push(world.spawn(&exe).ok());
        }
        let settled = world.run_to_settle(SETTLE_SLICES);
        let stats = world.stats();
        let exits: Vec<Option<i32>> = pids
            .iter()
            .map(|p| p.and_then(|p| world.exit_code(p)))
            .collect();
        let consoles: Vec<Option<String>> =
            pids.iter().map(|p| p.map(|p| world.console(p))).collect();
        (world, settled, stats, exits, consoles)
    };
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let (_, plain_settled, plain_stats, plain_exits, plain_consoles) = run(seed, false);
        let (world, settled, stats, exits, consoles) = run(seed, true);
        // No false positives: reads of a pure module, injection victims,
        // and recovery paths are not races.
        assert_eq!(stats.races_detected, 0, "seed {seed}: log {:?}", world.log);
        assert!(world.races().is_empty());
        assert_eq!(trace_count(&world, "RaceDetected"), 0);
        // Counters reconcile exactly as in the unsanitized chaos run.
        assert_eq!(stats.faults_injected, plain_stats.faults_injected);
        assert_eq!(stats.faults_recovered, plain_stats.faults_recovered);
        assert!(stats.faults_recovered <= stats.faults_injected);
        // And the sanitizer did not perturb the chaos outcome at all.
        assert_eq!(settled, plain_settled, "seed {seed}");
        assert_eq!(exits, plain_exits, "seed {seed}");
        assert_eq!(consoles, plain_consoles, "seed {seed}");
        assert!(stats.sync_edges > 0, "lifecycle edges were observed");
    }
}

// --- 4. the differential harness ------------------------------------

/// Armed and unarmed runs of the *same* program, locked or elided, on
/// one or four CPUs, are identical in every guest observable (exits,
/// consoles, the counter), in simulated time, trace and `WorldStats`,
/// modulo the sanitizer's own counters, diagnostics and race reports.
/// The sanitizer watches; it never touches. The armed cells must also
/// record sync edges, so the identity is not vacuous.
#[test]
fn armed_run_is_observably_identical() {
    let cells = Cell::slice(|c| c.bbcache && c.storage == Storage::Integrity && !c.half_budget);
    assert_eq!(cells.len(), 4);
    for shape in [Shape::Locked, Shape::Elided] {
        sweep(shape, 50, &cells);
    }
}

/// The same harness under thrash (E10): with the frame budget squeezed
/// to half the unbounded peak, arming the sanitizer still changes
/// nothing, not a single eviction decision included. The monitor only
/// fires after a successful translation, so repage faults are observed
/// exactly once and the clock hand never sees the difference.
#[test]
fn armed_run_is_identical_under_thrash() {
    let cells = Cell::slice(|c| c.bbcache && c.storage == Storage::Integrity && c.cpus == 1);
    let stats = sweep(Shape::Locked, 50, &cells);
    for (cell, s) in cells.iter().zip(&stats) {
        let thrashed = s.page_evictions > 0;
        assert_eq!(thrashed, cell.half_budget, "{cell:?}: the budget must bind");
    }
    let (unarmed, armed) = (&stats[2], &stats[3]);
    assert_eq!(armed.page_evictions, unarmed.page_evictions);
}
