//! E6 — the fault→link hot path made fast and observable.
//!
//! Two properties of the tentpole instrumentation, asserted end to end:
//!
//! 1. A *warm* second access to a page translates via the per-process
//!    software TLB — only the first touch walks the page table.
//! 2. The `htrace` ring records the paper's full §2 protocol in order:
//!    fault → translate → map → resolve → restart.

use hemlock::{ShareClass, TraceEvent, World, WorldExit};
use hkernel::{AddressSpace, KernelStats, MemBus, Prot};
use hsfs::{SharedFs, PAGE_SIZE};
use hvm::Bus;

fn run_ok(world: &mut World) {
    assert_eq!(
        world.run_to_completion(),
        WorldExit::AllExited,
        "log: {:?}",
        world.log
    );
}

/// A world with one raw shared segment and a program that loads from it
/// `touches` times; returns the world's final stats.
fn touch_stats(touches: u32) -> hemlock::WorldStats {
    let mut world = World::new();
    world
        .kernel
        .vfs
        .create_file("/shared/seg", 0o666, 1)
        .unwrap();
    let addr = world.kernel.vfs.path_to_addr("/shared/seg").unwrap();
    world
        .install_template(
            "/src/t.o",
            &format!(
                ".module t\n.text\n.globl main\nmain: li r8, {addr}\nli r16, {touches}\n\
                 loop: blez r16, done\nlw v0, 0(r8)\naddi r16, r16, -1\nb loop\n\
                 done: jr ra\n"
            ),
        )
        .unwrap();
    let exe = world
        .link("/bin/t", &[("/src/t.o", ShareClass::StaticPrivate)])
        .unwrap();
    world.spawn(&exe).unwrap();
    run_ok(&mut world);
    world.stats()
}

#[test]
fn warm_second_access_translates_via_tlb() {
    // Direct bus-level assertion: the first load of a page misses and
    // refills the TLB; the second load of the same page is a pure hit.
    let mut aspace = AddressSpace::new();
    let mut shared = SharedFs::new();
    let mut text = hvm::BlockTable::default();
    let base = 0x1000_0000;
    aspace.map_anon(base, PAGE_SIZE, Prot::RW).unwrap();
    assert!(!aspace.tlb_cached(base), "nothing cached before first use");
    let mut totals = KernelStats::default();
    let mut bus = MemBus::new(&mut aspace, &mut shared, &mut text, &mut totals);
    bus.load32(base).unwrap();
    assert_eq!(bus.totals.tlb_misses, 1, "cold access walks");
    assert_eq!(bus.totals.tlb_hits, 0);
    assert!(bus.aspace.tlb_cached(base), "first walk refilled the TLB");
    bus.load32(base + 4).unwrap();
    assert_eq!(bus.totals.tlb_misses, 1, "warm access must not walk");
    assert_eq!(bus.totals.tlb_hits, 1, "warm access hits the TLB");
}

#[test]
fn whole_world_extra_touches_never_walk_again() {
    // World-level version: a program touching the same shared page 50
    // times instead of once adds TLB hits but not a single extra page
    // walk — every additional guest access translates via the cache.
    let once = touch_stats(1);
    let many = touch_stats(50);
    assert_eq!(
        many.tlb_misses, once.tlb_misses,
        "extra touches of a mapped page must all be TLB hits"
    );
    assert!(many.tlb_hits > once.tlb_hits);
    assert!(many.tlb_hit_rate() > once.tlb_hit_rate());
}

#[test]
fn trace_records_fault_protocol_in_order() {
    // Pointer-following into a lazily-instantiated module: program A
    // lists mod0 on its dynamic-module list (so `ldl init` creates the
    // instance, mapped without access) but never calls it. Program B
    // then jumps into the segment through a *raw pointer* — the pure §2
    // protocol: fault, kernel address→name translation, map, lazy
    // resolution of mod0's reference to mod1_fn, restart.
    let mut world = World::new();
    world
        .install_template(
            "/shared/lib/mod0.o",
            ".module mod0\n.uses mod1\n.text\n.globl mod0_fn\n\
             mod0_fn: addi sp, sp, -8\nsw ra, 0(sp)\njal mod1_fn\n\
             lw ra, 0(sp)\naddi sp, sp, 8\njr ra\n",
        )
        .unwrap();
    world
        .install_template(
            "/shared/lib/mod1.o",
            ".module mod1\n.text\n.globl mod1_fn\nmod1_fn: li v0, 77\njr ra\n",
        )
        .unwrap();
    world
        .install_template(
            "/src/amain.o",
            ".module amain\n.text\n.globl main\nmain: li v0, 0\njr ra\n",
        )
        .unwrap();
    let exe_a = world
        .link(
            "/bin/a",
            &[
                ("/src/amain.o", ShareClass::StaticPrivate),
                ("/shared/lib/mod0.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let pa = world.spawn(&exe_a).unwrap();
    run_ok(&mut world);
    assert_eq!(world.exit_code(pa), Some(0), "log: {:?}", world.log);

    // The instance now exists at a globally agreed-upon address, with
    // its reference to mod1_fn still pending. mod0_fn sits at offset 0.
    let addr = world.kernel.vfs.path_to_addr("/shared/lib/mod0").unwrap();
    world
        .install_template(
            "/src/bmain.o",
            &format!(
                ".module bmain\n.text\n.globl main\nmain: addi sp, sp, -8\nsw ra, 0(sp)\n\
                 li r8, {addr}\njalr r8\nlw ra, 0(sp)\naddi sp, sp, 8\njr ra\n"
            ),
        )
        .unwrap();
    let exe_b = world
        .link("/bin/b", &[("/src/bmain.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe_b).unwrap();
    run_ok(&mut world);
    assert_eq!(world.exit_code(pid), Some(77), "log: {:?}", world.log);

    let kinds: Vec<&str> = world
        .trace()
        .records_for(pid)
        .map(|r| r.event.kind())
        .collect();
    // The protocol appears as an ordered subsequence of the trace.
    let expected = [
        "FaultTaken",
        "AddrTranslated",
        "SegmentMapped",
        "SymbolResolved",
        "InstructionRestarted",
    ];
    let mut it = kinds.iter();
    for want in expected {
        assert!(
            it.any(|k| *k == want),
            "`{want}` missing (or out of order) in trace: {kinds:?}\n{}",
            world.trace_dump()
        );
    }
    // Every step was billed simulated time from the cost model.
    // (`BlockInvalidated` is host-speed diagnostics and is 0-cost by
    // design — the block cache must not perturb simulated time; a
    // prelink-snapshot miss and rebuild are likewise free by design,
    // so a cold boot with snapshots on prices like one without. A
    // `SegmentMapped` record is free because the cost model bills no
    // separate map step: mapping rides the fault or service record
    // that triggered it, so stamping it too would over-report.)
    assert!(world
        .trace()
        .records_for(pid)
        .filter(|r| {
            !matches!(
                r.event.kind(),
                "BlockInvalidated" | "SnapshotMiss" | "SnapshotRebuilt" | "SegmentMapped"
            )
        })
        .all(|r| r.cost_ns > 0));
    // The structured events carry usable payloads.
    assert!(world.trace().records_for(pid).any(|r| matches!(
        &r.event,
        TraceEvent::SegmentMapped { module: Some(m), .. } if m == "mod0"
    )));
    // The translation names the inode of the segment that gets mapped.
    let mod0 = world.kernel.vfs.resolve("/shared/lib/mod0").unwrap().ino;
    assert!(world.trace().records_for(pid).any(|r| matches!(
        r.event,
        TraceEvent::AddrTranslated { addr: a, ino } if a == addr && ino == mod0
    )));
    assert!(world.trace().records_for(pid).any(|r| matches!(
        r.event,
        TraceEvent::SegmentMapped { base, .. } if base == SharedFs::addr_of_ino(mod0)
    )));
    // And the text dump names each protocol step, with the translated
    // segment's path.
    let dump = world.trace_dump();
    for want in expected {
        assert!(dump.contains(want), "dump lacks {want}:\n{dump}");
    }
    assert!(
        dump.contains(&format!(
            "AddrTranslated addr={addr:#010x} ino={mod0} path=/lib/mod0"
        )),
        "dump lacks the translated path:\n{dump}"
    );
}
