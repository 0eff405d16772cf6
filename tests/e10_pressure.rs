//! E10 — memory pressure: bounded frames, eviction, swap, and the
//! deterministic OOM path (DESIGN.md §10).
//!
//! Four claims are tested here:
//!
//! 1. **Semantic invisibility** (property): for *any* frame budget ≥ 1
//!    (the slice-boundary safety valve makes one frame the minimum
//!    working set) and any scheduling quantum, a pressured run produces
//!    bit-identical guest observables — exit codes, console output, and
//!    final shared memory — to the unbounded run. Eviction costs time;
//!    it never changes answers.
//! 2. **Accounting** (acceptance): a 4-worker run at roughly half its
//!    working-set budget really evicts, writes back, and swaps in, is
//!    slower by at least the pressure bill, and passes `World::audit`.
//!    (Its identity with the unbounded run is a lattice check.)
//! 3. **Deterministic OOM**: below the minimum working set with the
//!    swap area exhausted, exactly one victim (largest resident set,
//!    ties to the lowest pid) dies with exit 137, the survivors finish
//!    seed-identically, and the world settles.
//! 4. **Chaos on the swap path**: the `SwapWrite`/`SwapRead` fault
//!    sites — unreachable without pressure (see `e8_chaos`) — inject
//!    under thrash, stay contained, and replay exactly from the seed.

mod common;

use common::{
    build_pressure, expected_checksum, knobs, run_pressured, shared_words, spawn_workers,
    trace_cost, trace_count, Observables, SETTLE_SLICES, WORKERS,
};
use hemlock::{CostModel, FaultPlan, FaultSite, TraceBuffer, Unsettled, World, WorldExit};
use proptest::prelude::*;

/// Runs `workers` pressure workers on the matrix's CPU count and
/// collects every guest observable.
fn run_pressure(
    workers: usize,
    quantum: u64,
    budget: Option<u64>,
    plan: Option<FaultPlan>,
) -> (Observables, World) {
    let mut world = common::world();
    world.set_cpus(knobs().cpus);
    let (replay, world) = run_pressured(world, workers, quantum, budget, plan);
    (replay.obs, world)
}

/// A pressure world (with a widened trace ring) holding all four
/// workers, spawned but not yet run.
fn spawned_pressure_world() -> (World, Vec<hkernel::Pid>) {
    let mut world = common::world();
    world.set_cpus(knobs().cpus);
    let exe = build_pressure(&mut world);
    *world.trace_mut() = TraceBuffer::new(1 << 20);
    let pids = spawn_workers(&mut world, &exe, 0..WORKERS);
    (world, pids)
}

// --- 2. the acceptance scenario: half-budget thrash ------------------

/// Four workers at roughly half their working-set budget: the unbounded
/// run computes the right answers without evicting, the pressured run
/// really evicts, writes back and swaps, and `World::audit` reconciles
/// its counters with the journal, record by record and nanosecond by
/// nanosecond. (That the two runs' observables are identical is a
/// lattice check: `tests/lattice.rs`.)
#[test]
fn half_budget_thrash_is_identical_and_reconciles() {
    let (baseline, base_world) = run_pressure(WORKERS, 300, None, None);
    assert_eq!(baseline.settled, Ok(WorldExit::AllExited));
    assert_eq!(baseline.exits, vec![Some(0); WORKERS]);
    let expected_consoles: Vec<String> = (0..WORKERS as u32)
        .map(|id| format!("{}\n", expected_checksum(id)))
        .collect();
    assert_eq!(baseline.consoles, expected_consoles);
    let mut expected_words = vec![WORKERS as u32];
    expected_words.extend((0..WORKERS as u32).map(expected_checksum));
    assert_eq!(baseline.shared, expected_words);

    let base_stats = base_world.stats();
    assert_eq!(base_stats.page_evictions, 0, "default budget is generous");
    assert_eq!(base_stats.swap_ins, 0);
    let peak = base_stats.peak_resident_frames;
    assert!(peak >= 16, "scenario touches a real working set ({peak})");

    let budget = knobs().pressure_budget.unwrap_or((peak / 2).max(1));
    let (_, mut world) = run_pressure(WORKERS, 300, Some(budget), None);
    world.audit().unwrap();
    let stats = world.stats();
    assert_eq!(stats.frame_budget, budget);
    assert_eq!(stats.oom_kills, 0, "swap absorbs the pressure");
    if budget < peak {
        assert!(stats.page_evictions > 0, "over-budget run must evict");
        assert!(stats.swap_ins > 0, "re-touched pages must come back in");
        assert!(stats.page_writebacks > 0, "dirty shared pages age out");
        assert!(stats.swap_outs > 0, "anon pages go to the swap area");
    }
    assert!(
        stats.peak_resident_frames <= base_stats.peak_resident_frames,
        "pressured peak cannot exceed the unbounded peak"
    );

    // Pressure is charged, not hidden: the pressured run is slower in
    // simulated time by at least the pressure bill. (It is not *exactly*
    // the bill: every evicted-shared refault also pays the fault
    // protocol, and the shifted interleaving moves spin-lock work.)
    let charged: u64 = ["PageEvicted", "WritebackTaken", "PageSwappedIn"]
        .iter()
        .map(|kind| trace_cost(&world, kind))
        .sum();
    let m = &world.costs;
    let (base_time, time) = (m.time(&base_stats), m.time(&stats));
    assert!(time > base_time, "thrash must cost simulated time");
    if budget < peak {
        assert!(
            time.0 - base_time.0 >= charged,
            "slowdown ({}) below the pressure bill ({charged})",
            time.0 - base_time.0
        );
    }
}

// --- 1. the property: any budget is semantically invisible -----------

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Any worker count, any quantum, any budget ≥ 1 frame: guest
    /// observables are identical to the unbounded run. (One frame is
    /// the true minimum working set because pages touched within a
    /// slice are only reclaimed at the next slice boundary.) When the
    /// budget never binds, even simulated time is identical.
    #[test]
    fn any_budget_is_semantically_invisible(
        workers in 2usize..5,
        quantum in 40u64..400,
        budget_pct in 4u64..120,
    ) {
        let (baseline, base_world) = run_pressure(workers, quantum, None, None);
        prop_assert_eq!(&baseline.settled, &Ok(WorldExit::AllExited));
        let peak = base_world.stats().peak_resident_frames;
        let budget = (peak * budget_pct / 100).max(1);
        let (pressured, world) = run_pressure(workers, quantum, Some(budget), None);
        prop_assert_eq!(&pressured, &baseline, "budget {} of peak {}", budget, peak);
        let stats = world.stats();
        prop_assert_eq!(stats.oom_kills, 0);
        if stats.page_evictions == 0 {
            let m = CostModel::default();
            prop_assert_eq!(
                m.time(&stats),
                m.time(&base_world.stats()),
                "an unbinding budget must be entirely free"
            );
        }
    }
}

// --- 3. the deterministic OOM path -----------------------------------

/// Below the minimum working set with *no* swap to fall back on: the
/// anon image pages are unevictable, so the pool kills exactly one
/// victim — all four workers are byte-identical, so the tie breaks to
/// the lowest pid — with exit 137 before it retires a single
/// instruction. The survivors finish bit-identically to their slots in
/// the unbounded run, and the whole outcome replays.
#[test]
fn oom_kills_exactly_one_victim_deterministically() {
    let (baseline, _) = run_pressure(WORKERS, 300, None, None);

    let run_oom = || {
        let (mut world, pids) = spawned_pressure_world();
        // Calibrate from the spawned images themselves: every worker
        // holds the same anon resident set, so a budget of 3.5× one
        // image fits three workers but not four.
        let image_frames: Vec<u64> = pids
            .iter()
            .map(|p| world.kernel.procs[p].aspace.resident_pages())
            .collect();
        let per = image_frames[0];
        assert!(per >= 4, "image spans several pages ({per})");
        assert!(
            image_frames.iter().all(|f| *f == per),
            "identical images must have identical resident sets"
        );
        world.set_frame_budget(3 * per + per / 2);
        world.set_swap_pages(0);
        world.quantum = 300;
        let settled = world.run_to_settle(SETTLE_SLICES);
        let exits: Vec<Option<i32>> = pids.iter().map(|p| world.exit_code(*p)).collect();
        let consoles: Vec<String> = pids.iter().map(|p| world.console(*p)).collect();
        (world, pids, settled, exits, consoles)
    };

    let (mut world, pids, settled, exits, consoles) = run_oom();
    // The world settles: the kill reclaimed the victim's frames at once.
    assert_eq!(settled, Ok(WorldExit::AllExited), "log: {:?}", world.log);
    // Exactly one victim, and it is the lowest pid of the (all-equal)
    // candidates; it died before running, so its console is empty.
    assert_eq!(exits[0], Some(137), "victim exits with the OOM status");
    assert_eq!(consoles[0], "", "the victim never retired an instruction");
    assert_eq!(
        exits.iter().filter(|e| **e == Some(137)).count(),
        1,
        "exactly one OOM victim: {exits:?}"
    );
    for id in 1..WORKERS {
        assert_eq!(exits[id], Some(0), "survivor {id} unharmed");
        assert_eq!(
            consoles[id], baseline.consoles[id],
            "survivor {id} must finish seed-identically"
        );
    }
    let stats = world.stats();
    assert_eq!(stats.oom_kills, 1);
    assert_eq!(stats.swap_outs, 0, "no swap area to go to");
    assert_eq!(exits[0], world.exit_code(pids[0]));
    // The recovery is typed in the journal and explained in the log.
    assert_eq!(trace_count(&world, "RecoveryTaken"), 1);
    assert!(world.trace_dump().contains("oom-kill"));
    assert!(world.log.iter().any(|l| l.contains("out of memory")));
    // The survivors' work is in shared memory; the victim's slot is the
    // template's zero.
    let words = shared_words(&mut world, WORKERS);
    assert_eq!(words[0], WORKERS as u32 - 1, "survivors instantiated it");
    assert_eq!(words[1], 0);
    for id in 1..WORKERS as u32 {
        assert_eq!(words[1 + id as usize], expected_checksum(id));
    }

    // And the whole outcome replays exactly.
    let (_, _, settled2, exits2, consoles2) = run_oom();
    assert_eq!(settled2, settled);
    assert_eq!(exits2, exits);
    assert_eq!(consoles2, consoles);
}

/// A *tiny* swap area instead of none: eviction fills all four slots,
/// exhausts them, and the pool degrades to a deterministic OOM kill —
/// while slot recycling (a swap-in frees its slot) keeps the survivors
/// moving to completion.
#[test]
fn exhausted_swap_still_kills_deterministically() {
    let (mut world, pids) = spawned_pressure_world();
    let per = world.kernel.procs[&pids[0]].aspace.resident_pages();
    // Low enough that four slots of swap cannot absorb the overshoot
    // (cf. the no-swap test: 3.5× fits three workers *with* headroom).
    world.set_frame_budget(3 * per + 1);
    world.set_swap_pages(4);
    world.quantum = 300;
    let settled = world.run_to_settle(SETTLE_SLICES);
    assert_eq!(settled, Ok(WorldExit::AllExited), "log: {:?}", world.log);
    let exits: Vec<Option<i32>> = pids.iter().map(|p| world.exit_code(*p)).collect();
    let stats = world.stats();
    let victims = exits.iter().filter(|e| **e == Some(137)).count() as u64;
    assert!(victims >= 1, "exhaustion must kill: {exits:?}");
    assert!(victims < WORKERS as u64, "someone must survive: {exits:?}");
    assert_eq!(stats.oom_kills, victims, "every 137 is an OOM kill");
    assert!(
        stats.swap_outs > 0,
        "the swap area was used before it ran out"
    );
    // Slots recycle as pages come back in, so total swap-outs may
    // exceed four — but never four *at once*.
    let pool = world.frame_pool().stats();
    assert_eq!(pool.swap_pages, 4);
    assert!(pool.swap_used <= 4, "slot accounting overflowed the area");
    assert!(stats.swap_ins > 0, "recycling means pages came back in");
}

// --- 4. chaos on the swap path ---------------------------------------

/// The swap-path fault sites fire under pressure, stay contained —
/// victims die, survivors print their injection-free output, bounded
/// non-settles name the live processes — and replay from the seed.
#[test]
fn swap_chaos_is_contained_and_replays() {
    let (baseline, base_world) = run_pressure(WORKERS, 300, None, None);
    let budget = (base_world.stats().peak_resident_frames / 2).max(1);
    let plan = |seed: u64| {
        FaultPlan::new(seed, 150_000).only(&[FaultSite::SwapWrite, FaultSite::SwapRead])
    };
    let mut fired = 0u64;
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let (out, world) = run_pressure(WORKERS, 300, Some(budget), Some(plan(seed)));
        let stats = world.stats();
        fired += stats.faults_injected;
        match &out.settled {
            Ok(_) => {}
            Err(Unsettled { live, waits }) => {
                assert!(*live <= WORKERS, "unbounded unsettled state");
                assert_eq!(waits.len(), *live, "every live process names its wait");
            }
        }
        // Survivors are bit-identical to the injection-free run.
        for (slot, exit) in out.exits.iter().enumerate() {
            if *exit == Some(0) {
                assert_eq!(
                    out.consoles[slot], baseline.consoles[slot],
                    "seed {seed}: survivor in slot {slot} diverged"
                );
            }
        }
        if stats.faults_injected == 0 {
            assert_eq!(out, baseline, "no injections ⇒ the unpressured answer");
        }
        // The whole outcome replays exactly from the seed.
        let (replay, replay_world) = run_pressure(WORKERS, 300, Some(budget), Some(plan(seed)));
        assert_eq!(replay, out, "seed {seed}: chaos outcome must replay");
        assert_eq!(
            replay_world.stats().faults_injected,
            stats.faults_injected,
            "seed {seed}"
        );
    }
    assert!(
        fired > 0,
        "pressure makes the swap sites reachable (cf. e8's exemption)"
    );
}
