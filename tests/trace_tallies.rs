//! Counters, trace records and the cost ledger come from one source and
//! reconcile exactly, even after the trace ring evicts.
//!
//! One run exercises every priced subsystem — prelink snapshots (miss,
//! hit, invalidation), crash recovery, scrub and repair, memory pressure
//! on four CPUs (evictions, writebacks, swap-ins, shootdowns, some of them
//! retried) and an OOM kill — and publishes far more records than the default
//! 4096-record ring holds. Every `WorldStats` counter that mirrors a
//! record kind must still equal that kind's tally, and every priced
//! tally must equal the matching `CostModel::time` term.

mod common;

use common::{
    build_counter, build_pressure, run_prog, spawn_workers, trace_cost, trace_count, SETTLE_SLICES,
    WORKERS,
};
use hemlock::{CostModel, FaultPlan, FaultSite, ShareClass, TraceBuffer, World, WorldStats};
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

/// `CostModel::time` of only the counters `pick` copies out of `s`.
fn term(s: &WorldStats, pick: impl Fn(&WorldStats, &mut WorldStats)) -> u64 {
    let mut only = WorldStats::default();
    pick(s, &mut only);
    CostModel::default().time(&only).0
}

#[test]
fn counters_and_costs_reconcile_after_the_ring_evicts() {
    let world = eventful_world();
    let s = world.stats();
    assert!(
        world.trace().evicted() > 0,
        "the run must overflow the ring"
    );
    let count = |kind| trace_count(&world, kind);
    let cost = |kind| trace_cost(&world, kind);

    // Every counter that mirrors a record kind equals its tally.
    assert_eq!(s.faults_recovered, count("RecoveryTaken"));
    assert_eq!(s.crashes, count("CrashTaken"));
    assert_eq!(s.journal_replays, count("JournalReplayed"));
    assert_eq!(s.recovery_ns, cost("JournalReplayed"));
    assert_eq!(s.corruptions_detected, count("CorruptionDetected"));
    assert_eq!(s.blocks_repaired, count("BlockRepaired"));
    assert_eq!(s.blocks_scrubbed, world.tallies().blocks_scrubbed());
    assert_eq!(s.blocks_discarded, world.tallies().blocks_discarded());
    // So do the counters the layers keep themselves.
    assert_eq!(s.page_evictions, count("PageEvicted"));
    assert_eq!(s.page_writebacks, count("WritebackTaken"));
    assert_eq!(s.swap_ins, count("PageSwappedIn"));
    assert_eq!(s.cross_cpu_steals, count("CpuSteal"));
    assert_eq!(s.snapshot_hits, count("SnapshotHit"));
    assert_eq!(s.snapshot_misses, count("SnapshotMiss"));
    assert_eq!(s.snapshot_invalidations, count("SnapshotInvalidated"));
    assert_eq!(s.snapshot_rebuilds, count("SnapshotRebuilt"));
    assert_eq!(s.ldl.symbols_resolved, count("SymbolResolved"));
    assert_eq!(s.faults_injected, count("FaultInjected"));

    // Every subsystem the run was built for actually did work.
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
        ("retried shootdowns", s.ipis - count("TlbShootdown")),
        ("snapshot hits", s.snapshot_hits),
        ("snapshot invalidations", s.snapshot_invalidations),
    ] {
        assert!(n > 0, "no {what}: {s:?}");
    }

    // The priced tallies are exactly the clock's terms.
    let pressure = term(&s, |s, t| {
        t.page_evictions = s.page_evictions;
        t.page_writebacks = s.page_writebacks;
        t.swap_outs = s.swap_outs;
        t.swap_ins = s.swap_ins;
    });
    assert_eq!(
        cost("PageEvicted") + cost("WritebackTaken") + cost("PageSwappedIn"),
        pressure
    );
    let smp = term(&s, |s, t| {
        t.ipis = s.ipis;
        t.shootdowns = s.shootdowns;
    });
    assert_eq!(cost("TlbShootdown"), smp);
    let recovery = term(&s, |s, t| t.recovery_ns = s.recovery_ns);
    assert_eq!(cost("JournalReplayed"), recovery);
    let integrity = term(&s, |s, t| {
        t.blocks_scrubbed = s.blocks_scrubbed;
        t.blocks_repaired = s.blocks_repaired;
    });
    assert_eq!(cost("ScrubPass") + cost("BlockRepaired"), integrity);
    let snapshot = term(&s, |s, t| {
        t.snapshot_hits = s.snapshot_hits;
        t.snapshot_invalidations = s.snapshot_invalidations;
    });
    assert_eq!(cost("SnapshotHit") + cost("SnapshotInvalidated"), snapshot);
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
