//! E11 — deterministic SMP (DESIGN.md §11): N simulated CPUs with
//! per-CPU TLBs, priced shootdowns, and a fixed, replayable interleave.
//!
//! Three claims are tested here. That any quantum on one or four CPUs
//! replays record for record and that the CPU count never changes a
//! guest answer are lattice checks (`tests/lattice.rs`).
//!
//! 1. **Single-CPU default**: a fresh world has one CPU, an explicit
//!    `set_cpus(1)` changes nothing (trace included), and a single-CPU
//!    run keeps the SMP counters exactly zero. The pre-SMP behavior is
//!    a special case, not a separate code path.
//! 2. **The priced protocol**: the CPU count changes *when* things
//!    happen and what they cost (shootdown IPIs, cold TLBs after
//!    steals). Under pressure the shootdown protocol demonstrably
//!    fires, idle CPUs steal, and `World::audit` reconciles both with
//!    the trace nanosecond by nanosecond.
//! 3. **Cross-CPU locking**: the TAS-guarded counter is race-free when
//!    its workers genuinely share instants on different CPUs, and the
//!    lock-elided twin of the same schedule is still caught by hsan.

mod common;

use common::{
    half_budget, run_pressured, run_sanitized, sweep, trace_count, Cell, Replay, Shape, Storage,
    SHCOUNT_ELIDED, SHCOUNT_LOCKED, WORKERS,
};
use hemlock::{FaultPlan, FaultSite, TraceEvent, World, WorldExit};

/// Runs `workers` pressure workers on `cpus` CPUs under `budget` frames
/// and collects every observable plus the trace.
fn run_smp(
    workers: usize,
    quantum: u64,
    cpus: u32,
    budget: Option<u64>,
    plan: Option<FaultPlan>,
) -> (Replay, World) {
    let mut world = common::world();
    world.set_cpus(cpus);
    run_pressured(world, workers, quantum, budget, plan)
}

// --- 1. the single-CPU default -------------------------------------

/// A fresh world has one CPU, and a single-CPU run moves none of the
/// SMP counters and emits none of the SMP trace records, pressured or
/// not.
#[test]
fn default_world_is_single_cpu_with_zero_smp_counters() {
    let world = World::new();
    assert_eq!(world.cpus(), 1);

    let budget = half_budget(common::world());
    let (_, world) = run_smp(WORKERS, 300, 1, Some(budget), None);
    let stats = world.stats();
    assert!(stats.page_evictions > 0, "budget {budget} must bind");
    assert_eq!(stats.shootdowns, 0);
    assert_eq!(stats.ipis, 0);
    assert_eq!(stats.cross_cpu_steals, 0);
    assert_eq!(trace_count(&world, "TlbShootdown"), 0);
    assert_eq!(trace_count(&world, "CpuSteal"), 0);
}

/// `set_cpus(1)` is the default, not a sibling mode: the one-CPU slice
/// of the lattice replays every cell against a run that never calls
/// `set_cpus`, down to the last trace record and simulated nanosecond,
/// unbounded and under a binding budget.
#[test]
fn explicit_single_cpu_is_trace_identical_to_default() {
    let cells = Cell::slice(|c| {
        c.bbcache && c.storage == Storage::Integrity && !c.sanitizer && c.cpus == 1
    });
    let stats = sweep(Shape::Pressure, 300, &cells);
    assert!(stats[1].page_evictions > 0, "the half budget must bind");
}

// --- 2. the priced protocol ----------------------------------------

/// Under binding pressure with the workers spread over N CPUs, the
/// shootdown protocol fires (reclaim runs on the boot CPU, victims sit
/// elsewhere), every IPI and page is billed, and the trace records
/// reconcile with the counters and the cost model exactly (`audit`).
#[test]
fn shootdowns_fire_and_reconcile_with_the_trace() {
    let budget = half_budget(common::world());
    for cpus in [2u32, 4] {
        let (replay, mut world) = run_smp(WORKERS, 300, cpus, Some(budget), None);
        assert_eq!(
            replay.obs.settled,
            Ok(WorldExit::AllExited),
            "log: {:?}",
            world.log
        );
        let stats = world.stats();
        assert!(stats.page_evictions > 0, "budget {budget} must bind");
        assert!(
            stats.shootdowns > 0,
            "cpus={cpus}: reclaim never crossed a CPU"
        );
        assert!(stats.ipis > 0);
        world.audit().unwrap();
        let shootdown_records = trace_count(&world, "TlbShootdown");
        assert!(shootdown_records > 0);
        assert_eq!(
            stats.ipis, shootdown_records,
            "without chaos, exactly one IPI per shootdown event"
        );
    }
}

/// An idle CPU steals when affinity collides (three workers on two
/// CPUs must collide every other round), the steal is counted and
/// traced, and it still changes no guest answer.
#[test]
fn steals_are_counted_and_traced() {
    let (replay, mut world) = run_smp(3, 200, 2, None, None);
    assert_eq!(replay.obs.settled, Ok(WorldExit::AllExited));
    assert!(
        world.stats().cross_cpu_steals > 0,
        "3 workers on 2 CPUs must steal"
    );
    world.audit().unwrap();

    let (single, _) = run_smp(3, 200, 1, None, None);
    assert_eq!(replay.obs, single.obs, "steals changed a guest observable");
}

/// The `ShootdownDrop` chaos site is pure cost noise: with every IPI's
/// first transmission dropped, the protocol retransmits — the page
/// count is unchanged, the IPI count doubles, the retried flag shows in
/// the trace, and no guest observable moves.
#[test]
fn dropped_shootdown_ipis_are_retransmitted_and_billed() {
    let budget = half_budget(common::world());
    let (plain, plain_world) = run_smp(WORKERS, 300, 4, Some(budget), None);
    let plan = FaultPlan::new(7, 1_000_000).only(&[FaultSite::ShootdownDrop]);
    let (chaos, chaos_world) = run_smp(WORKERS, 300, 4, Some(budget), Some(plan));

    assert_eq!(
        chaos.obs, plain.obs,
        "a dropped shootdown IPI must not change guest behavior"
    );
    let p = plain_world.stats();
    let c = chaos_world.stats();
    assert!(c.faults_injected > 0, "full rate must inject");
    assert_eq!(c.shootdowns, p.shootdowns, "same pages invalidated");
    assert_eq!(c.ipis, 2 * p.ipis, "every first IPI dropped, all resent");
    assert!(
        chaos_world
            .trace()
            .records()
            .any(|r| matches!(r.event, TraceEvent::TlbShootdown { retried: true, .. })),
        "retransmissions must be visible in the trace"
    );
}

// --- 3. cross-CPU locking --------------------------------------------

/// Runs `workers` counter workers on `cpus` CPUs with hsan armed and
/// returns the final count.
fn count_sanitized(worker_src: &str, workers: usize, cpus: u32) -> (u32, World) {
    let mut world = run_sanitized(common::world(), worker_src, workers, cpus);
    let count = world
        .peek_shared_word("/shared/lib/shcount", "count")
        .unwrap();
    (count, world)
}

/// The TAS acquire/release edges order memory accesses *across* CPUs:
/// four workers hammering the counter from four CPUs in the same
/// sub-quantum are race-free and sum exactly, while the lock-elided
/// twin of the very same schedule is flagged — racing accesses in the
/// same sub-quantum on different CPUs are unordered, and hsan sees it.
#[test]
fn tas_counter_is_race_free_across_cpus_and_elided_twin_is_not() {
    let (count, world) = count_sanitized(SHCOUNT_LOCKED, 4, 4);
    assert_eq!(count, 4 * 5, "locked counter must sum exactly");
    assert_eq!(world.stats().races_detected, 0, "log: {:?}", world.log);
    assert!(world.races().is_empty());
    let san = world.stats();
    assert!(san.sync_edges > 0, "TAS edges must be observed");

    let (_, world) = count_sanitized(SHCOUNT_ELIDED, 4, 4);
    assert!(
        world.stats().races_detected >= 1,
        "elided lock must be reported across CPUs"
    );
    let races = world.races();
    assert!(!races.is_empty());
    assert!(
        races[0].first_pid != races[0].second_pid,
        "cross-process by definition"
    );
}

/// Per-CPU observation streams: on a multi-CPU world the sanitizer
/// attributes shared accesses to more than one CPU; on a single-CPU
/// world everything lands on CPU 0.
#[test]
fn sanitizer_sees_accesses_from_every_cpu() {
    let (_, world) = count_sanitized(SHCOUNT_ELIDED, 4, 4);
    let san = world.sanitizer().expect("armed");
    let san = san.lock().unwrap();
    assert!(
        san.cpu_accesses().len() > 1,
        "4 workers on 4 CPUs must be observed from >1 CPU: {:?}",
        san.cpu_accesses()
    );

    let (_, world) = count_sanitized(SHCOUNT_ELIDED, 4, 1);
    let san = world.sanitizer().expect("armed");
    let san = san.lock().unwrap();
    assert_eq!(
        san.cpu_accesses().keys().copied().collect::<Vec<_>>(),
        vec![0],
        "single-CPU accesses all execute on CPU 0"
    );
}
