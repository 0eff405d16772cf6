//! Counters, trace records and the cost ledger come from one source and
//! reconcile exactly, even after the trace ring evicts.
//!
//! One run exercises every priced subsystem — prelink snapshots (miss,
//! hit, invalidation), crash recovery, scrub and repair, memory pressure
//! on four CPUs (evictions, writebacks, swap-ins, shootdowns, some of them
//! retried) and an OOM kill — and publishes far more records than the default
//! 4096-record ring holds. `World::audit` must still find every
//! `WorldStats` counter that mirrors a record kind equal to that kind's
//! tally, and every priced tally equal to its `CostModel::time` term.
//! Two smaller runs show that the oracle can fail, and that re-arming a
//! fault plan loses no injection.

mod common;

use common::{
    build_counter, build_pressure, half_budget, pat, run_pressured, run_prog, spawn_workers,
    trace_count, SETTLE_SLICES, WORKERS,
};
use hemlock::{FaultPlan, FaultSite, ShareClass, TraceBuffer, World};
use hkernel::layout::DEFAULT_SWAP_PAGES;
use hsfs::CorruptKind;

/// main: exit with the shared counter's value, leaving it untouched.
const READER: &str = r#"
.module reader
.text
.globl main
main:   la   r8, count
        lw   v0, 0(r8)
        jr   ra
"#;

/// The eventful run. Everything in it is seed-free and deterministic.
fn eventful_world() -> World {
    let mut world = common::world();
    world.set_link_snapshots(true);
    world.set_cpus(4);
    let counter = build_counter(&mut world);
    let pressure = build_pressure(&mut world);

    // Prelink snapshots of a program that only reads its module (so
    // the instance content, and with it the snapshot, stays valid): a
    // cold miss, a warm hit on the next boot, then an invalidation of a
    // stomped record on the boot after that.
    world.install_template("/src/reader.o", READER).unwrap();
    let reader = world
        .link(
            "/bin/reader",
            &[
                ("/src/reader.o", ShareClass::StaticPrivate),
                ("/shared/lib/counter.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    assert_eq!(run_prog(&mut world, &counter).0, 1);
    for _ in 0..2 {
        assert_eq!(run_prog(&mut world, &reader).0, 1);
        world.reboot();
    }
    let snap = hlink::snapshot::path_for(&world.kernel.vfs, &reader);
    world.kernel.vfs.write(&snap, 8, &[0xFF; 3]).unwrap();
    assert_eq!(run_prog(&mut world, &reader).0, 1);

    // Integrity: a lost write on the template is found and healed.
    assert!(world.corrupt_shared_block("/shared/lib/counter.o", 0, CorruptKind::LostWrite));
    let report = world.scrub().expect("integrity is on");
    assert_eq!(report.findings.len(), 1);

    // An OOM kill: no swap area, and a budget no worker fits in.
    world.set_swap_pages(0);
    world.set_frame_budget(4);
    spawn_workers(&mut world, &pressure, 0..2);
    world
        .run_to_settle(SETTLE_SLICES)
        .expect("the OOM kill settles");
    assert!(world.stats().oom_kills > 0);

    // Memory pressure on four CPUs, with a budget far below the working
    // set and half the shootdown IPIs dropped, until the ring has
    // overflowed.
    world.set_swap_pages(DEFAULT_SWAP_PAGES);
    world.arm_faults(FaultPlan::new(7, 500_000).only(&[FaultSite::ShootdownDrop]));
    world.quantum = 300;
    world.set_frame_budget(12);
    for _ in 0..100 {
        let pids = spawn_workers(&mut world, &pressure, 0..WORKERS);
        world
            .run_to_settle(SETTLE_SLICES)
            .expect("pressure settles");
        for pid in pids {
            assert_eq!(world.exit_code(pid), Some(0), "log: {:?}", world.log);
        }
        if world.trace().evicted() > 0 {
            break;
        }
    }

    // Crash recovery: un-checkpointed journal records replay at boot.
    world.set_frame_budget(1 << 20);
    assert_eq!(run_prog(&mut world, &counter).0, 2);
    world.power_cut();
    world.reboot();
    world
}

#[test]
fn counters_and_costs_reconcile_after_the_ring_evicts() {
    let mut world = eventful_world();
    assert!(
        world.trace().evicted() > 0,
        "the run must overflow the ring"
    );
    world.audit().unwrap();

    // Every subsystem the run was built for actually did work.
    let s = world.stats();
    for (what, n) in [
        ("recoveries", s.faults_recovered),
        ("crashes", s.crashes),
        ("journal replays", s.journal_replays),
        ("repairs", s.blocks_repaired),
        ("evictions", s.page_evictions),
        ("writebacks", s.page_writebacks),
        ("swap-outs", s.swap_outs),
        ("swap-ins", s.swap_ins),
        ("shootdowns", s.shootdowns),
        (
            "retried shootdowns",
            s.ipis - trace_count(&world, "TlbShootdown"),
        ),
        ("injections", s.faults_injected),
        ("snapshot hits", s.snapshot_hits),
        ("snapshot invalidations", s.snapshot_invalidations),
    ] {
        assert!(n > 0, "no {what}: {s:?}");
    }
}

/// The oracle is not vacuous: re-price one constant after a pressured
/// run and the pressure term no longer reconciles.
#[test]
fn audit_names_the_term_a_drifted_cost_model_breaks() {
    let budget = half_budget(common::world());
    let (_, mut world) = run_pressured(common::world(), WORKERS, 300, Some(budget), None);
    assert!(
        world.stats().page_evictions > 0,
        "budget {budget} must bind"
    );
    world.audit().unwrap();
    world.costs.evict_ns += 1;
    let err = world.audit().unwrap_err();
    assert!(err.starts_with("pressure term"), "{err}");
}

/// Re-arming a fault plan publishes the old plan's journal first, so
/// `faults_injected` (the `FaultInjected` tally) keeps every injection
/// and never decreases.
#[test]
fn rearming_a_fault_plan_keeps_its_injections() {
    let mut world = common::world();
    let corruptions = [
        FaultSite::BitRot,
        FaultSite::MisdirectedWrite,
        FaultSite::LostWrite,
    ];
    let first = world.arm_faults(FaultPlan::new(1, 200_000).only(&corruptions));
    let vfs = &mut world.kernel.vfs;
    vfs.mkdir_all("/shared/data", 0o755, 0).unwrap();
    for i in 0..6u8 {
        let path = format!("/shared/data/f{i}");
        vfs.create_file(&path, 0o644, 0).unwrap();
        vfs.write(&path, 0, &pat(i, 3 * hsfs::BLOCK_SIZE as usize))
            .unwrap();
    }
    assert!(first.injected() > 0, "a 20% plan must corrupt something");
    let mut seen = vec![world.stats().faults_injected];
    world.arm_faults(FaultPlan::new(1, 0));
    seen.push(world.stats().faults_injected);
    assert_eq!(seen[1], first.injected());
    assert_eq!(trace_count(&world, "FaultInjected"), first.injected());
    world.scrub().expect("integrity is on");
    seen.push(world.stats().faults_injected);
    let exe = build_counter(&mut world);
    run_prog(&mut world, &exe);
    seen.push(world.stats().faults_injected);
    assert!(seen.windows(2).all(|w| w[0] <= w[1]), "{seen:?}");
    assert_eq!(seen[3], first.injected(), "{seen:?}");
    world.audit().unwrap();
}

#[test]
fn tallies_survive_clearing_and_replacing_the_ring() {
    let mut world = eventful_world();
    let before = format!("{:?}", world.stats());
    let rescans = trace_count(&world, "ScrubPass");
    world.trace_mut().clear();
    *world.trace_mut() = TraceBuffer::new(8);
    assert_eq!(format!("{:?}", world.stats()), before);
    // And they keep counting into the new ring.
    world.scrub();
    assert_eq!(trace_count(&world, "ScrubPass"), rescans + 1);
    assert_eq!(world.trace().len(), 1);
}
