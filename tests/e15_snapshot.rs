//! E15 — persistent prelink snapshots (DESIGN.md §15) are a pure
//! cross-boot accelerator: semantically invisible, priced exactly, and
//! crash-safe.
//!
//! After a successful resolve, `ldl` serializes the resolved link map
//! into a checksummed snapshot on the shared partition; a later boot
//! validates it for one flat `snapshot_validate_ns` charge and maps the
//! pre-resolved segments directly instead of re-running scoped symbol
//! search. Five claims are tested here:
//!
//! 1. **Cold identity**: over quantum × cpus ∈ {1,4}, a snapshots-on
//!    cold run and a snapshots-off run of the same multi-worker SMP
//!    scenario are indistinguishable — identical observables, identical
//!    simulated time (misses and rebuilds are free by design), an
//!    identical trace stream (modulo the 0-cost `SnapshotMiss` /
//!    `SnapshotRebuilt` diagnostics), and identical `WorldStats` modulo
//!    the four snapshot counters.
//! 2. **Warm boots win**: across a clean reboot the snapshot world
//!    relinks for the flat validation charge — same exits, same
//!    consoles, zero symbols resolved, strictly less simulated time
//!    than the snapshots-off twin; and a *stale* snapshot (module bytes
//!    changed underneath it) costs exactly `snapshot_validate_ns` more
//!    than never having had one.
//! 3. **Counters reconcile**: each `LdlStats` snapshot counter folded
//!    into `WorldStats` equals the count of its `htrace` record kind.
//! 4. **Corruption never panics**: any stomped byte, truncation, or
//!    emptied snapshot file decodes to `LinkError::BadSnapshot`, is
//!    counted as an invalidation, and falls back to a full resolve that
//!    still computes the right answer (satellite: fuzzed-bytes
//!    regression).
//! 5. **Crashes never resurrect a stale snapshot**: for *every* disk
//!    write index across the first boot's link/rebuild window, killing
//!    the disk there, rebooting, and respawning behaves exactly like
//!    the same recovery with snapshots disabled — hits only when the
//!    record and every module it describes committed coherently.

mod common;

use common::{build_chain, CHAIN_ANSWER, SHARED_DATA, SHCOUNT_ELIDED, WORKER, WORKERS};
use common::{knobs, run_prog, run_sanitized, settle, spawn_workers, trace_count, Mask, Replay};
use hemlock::{CostModel, ShareClass, TraceBuffer, World};
use proptest::prelude::*;

/// A world with the matrix's knobs applied and prelink snapshots pinned
/// on or off: every test here depends on the snapshot toggle, while the
/// block-cache knob still reaches the whole suite.
fn snap_world(snapshots: bool) -> World {
    let mut world = common::world();
    world.set_link_snapshots(snapshots);
    world
}

fn sim_ns(world: &World) -> u64 {
    CostModel::default().time(&world.stats()).0
}

fn snap_path(world: &World) -> String {
    hlink::snapshot::path_for(&world.kernel.vfs, "/bin/chain")
}

// --- 1. cold identity (the differential property) ---------------------

/// Runs the pressure scenario cold, with the worker linked as four
/// *distinct* executables so the boot consults four distinct snapshot
/// records — four free misses, four free rebuilds — instead of
/// memoizing after the first, and collects every observable.
fn run_cold(snapshots: bool, quantum: u64, cpus: u32) -> (Replay, World) {
    let mut world = snap_world(snapshots);
    *world.trace_mut() = TraceBuffer::new(1 << 20);
    world.set_cpus(cpus);
    world
        .install_template("/shared/lib/shared_data.o", SHARED_DATA)
        .unwrap();
    world.install_template("/src/worker.o", WORKER).unwrap();
    let mut pids = Vec::new();
    for id in 0..WORKERS {
        let exe = world
            .link(
                &format!("/bin/worker{id}"),
                &[
                    ("/src/worker.o", ShareClass::StaticPrivate),
                    ("/shared/lib/shared_data.o", ShareClass::DynamicPublic),
                ],
            )
            .unwrap();
        pids.extend(spawn_workers(&mut world, &exe, id..id + 1));
    }
    world.quantum = quantum;
    let replay = settle(&mut world, &pids, Mask::Snapshots);
    (replay, world)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// For any quantum and cpus ∈ {1,4}: a snapshots-on cold run is
    /// indistinguishable from a snapshots-off run in every observable,
    /// the simulated clock, the trace stream, and `WorldStats` modulo
    /// the four snapshot counters — and the counters themselves show
    /// the free paths (miss, rebuild) were actually taken.
    #[test]
    fn cold_boot_with_snapshots_is_semantically_invisible(
        quantum in 100u64..500,
        four_cpus in 0u32..2,
    ) {
        let cpus = if four_cpus == 1 { 4 } else { 1 };
        let (on, mut on_world) = run_cold(true, quantum, cpus);
        let (off, mut off_world) = run_cold(false, quantum, cpus);
        prop_assert_eq!(&on, &off, "cold snapshots must be invisible (cpus={})", cpus);

        // The on-run exercised the free paths; the off-run never moved.
        let s = on_world.stats();
        prop_assert!(s.snapshot_misses >= WORKERS as u64, "{s:?}");
        prop_assert!(s.snapshot_rebuilds >= WORKERS as u64, "{s:?}");
        prop_assert_eq!(s.snapshot_hits, 0, "a cold run cannot hit");
        prop_assert_eq!(s.snapshot_invalidations, 0, "nothing to invalidate");
        let idle = off_world.stats();
        prop_assert_eq!(
            idle.snapshot_misses + idle.snapshot_rebuilds + idle.snapshot_hits,
            0,
            "disabled snapshots moved: {:?}",
            idle
        );
        // And only the on-run wrote snapshot files.
        for id in 0..WORKERS {
            let exe = format!("/bin/worker{id}");
            let path = hlink::snapshot::path_for(&on_world.kernel.vfs, &exe);
            prop_assert!(on_world.kernel.vfs.read_all(&path).is_ok(), "no snapshot for {}", exe);
            prop_assert!(
                off_world.kernel.vfs.read_all(&path).is_err(),
                "disabled snapshots wrote {}",
                path
            );
        }
    }

    /// Across a clean reboot, the snapshot world relinks from the
    /// cached record: same exits, same consoles, zero symbols resolved
    /// on the warm boot, and strictly less simulated time than the
    /// snapshots-off twin resolving from scratch.
    #[test]
    fn warm_boot_hits_and_outruns_full_resolution(
        quantum in 100u64..500,
        four_cpus in 0u32..2,
    ) {
        let cpus = if four_cpus == 1 { 4 } else { 1 };
        let boot_twice = |snapshots: bool| {
            let mut world = snap_world(snapshots);
            world.set_cpus(cpus);
            world.quantum = quantum;
            let exe = build_chain(&mut world);
            let first = run_prog(&mut world, &exe);
            world.reboot();
            let t0 = sim_ns(&world);
            let resolved0 = world.stats().ldl.symbols_resolved;
            let second = run_prog(&mut world, "/bin/chain");
            let stats = world.stats();
            (
                first,
                second,
                sim_ns(&world) - t0,
                stats.ldl.symbols_resolved - resolved0,
                stats,
            )
        };
        let (on1, on2, warm_on, resolved_on, on) = boot_twice(true);
        let (off1, off2, warm_off, resolved_off, _) = boot_twice(false);

        // Observable identity, both boots.
        prop_assert_eq!(&on1, &off1);
        prop_assert_eq!(&on2, &off2);
        prop_assert_eq!(on2.0, CHAIN_ANSWER);

        // The warm boot went through the snapshot: one hit, no symbol
        // search, and a cheaper second boot than full resolution.
        prop_assert!(on.snapshot_hits >= 1, "{on:?}");
        prop_assert_eq!(resolved_on, 0, "a hit must skip resolution");
        prop_assert!(resolved_off > 0, "the twin must actually resolve");
        prop_assert!(
            warm_on < warm_off,
            "warm boot must be cheaper: {} vs {}",
            warm_on,
            warm_off
        );
    }
}

// --- 2. exact pricing of the stale path --------------------------------

/// A stale snapshot (a module's bytes changed underneath it) costs
/// exactly one `snapshot_validate_ns` on top of the full resolution the
/// snapshots-off twin performs — the failed validation is the *only*
/// extra charge. The dirty word lands across a reboot because the
/// snapshot is consulted once per (executable, boot); a same-boot
/// respawn never re-reads it.
#[test]
fn stale_snapshot_costs_exactly_one_validation() {
    let run = |snapshots: bool| {
        let mut world = snap_world(snapshots);
        let exe = build_chain(&mut world);
        assert_eq!(run_prog(&mut world, &exe).0, CHAIN_ANSWER);
        world.reboot();
        // Dirty lib2's instance through its exported data word: the
        // code is untouched (same answer), but the content digest the
        // snapshot recorded no longer matches.
        world
            .poke_shared_word("/shared/lib/lib2", "pad", 0xDEAD_BEEF)
            .unwrap();
        assert_eq!(run_prog(&mut world, "/bin/chain").0, CHAIN_ANSWER);
        (sim_ns(&world), world.stats())
    };
    let (t_on, on) = run(true);
    let (t_off, off) = run(false);
    assert_eq!(on.snapshot_invalidations, 1, "{on:?}");
    assert_eq!(on.snapshot_hits, 0, "{on:?}");
    assert_eq!(off.snapshot_invalidations, 0, "{off:?}");
    assert_eq!(
        t_on,
        t_off + CostModel::default().snapshot_validate_ns,
        "stale run must cost exactly one flat validation more"
    );
}

// --- 3. counters reconcile with the trace ------------------------------

/// Every `LdlStats` snapshot counter folded into `WorldStats` equals
/// the number of `htrace` records of the matching kind — one priced
/// record per priced event, one free record per free event.
#[test]
fn snapshot_counters_match_trace_record_counts() {
    let mut world = snap_world(true);
    let exe = build_chain(&mut world);
    // Miss + rebuilds (cold), then a warm-boot hit, then an
    // invalidation (stomped record) followed by a fresh rebuild. Each
    // phase gets its own boot: the snapshot is consulted once per
    // (executable, boot), so only a reboot re-opens the record.
    assert_eq!(run_prog(&mut world, &exe).0, CHAIN_ANSWER);
    world.reboot();
    assert_eq!(run_prog(&mut world, &exe).0, CHAIN_ANSWER);
    let path = snap_path(&world);
    world
        .kernel
        .vfs
        .write(&path, 8, &[0xFF, 0xFF, 0xFF])
        .unwrap();
    world.reboot();
    assert_eq!(run_prog(&mut world, &exe).0, CHAIN_ANSWER);

    let s = world.stats();
    assert!(s.snapshot_misses >= 1, "{s:?}");
    assert!(s.snapshot_hits >= 1, "{s:?}");
    assert!(s.snapshot_invalidations >= 1, "{s:?}");
    assert!(s.snapshot_rebuilds >= 2, "{s:?}");
    let count = |kind: &str| trace_count(&world, kind);
    assert_eq!(s.snapshot_hits, count("SnapshotHit"));
    assert_eq!(s.snapshot_misses, count("SnapshotMiss"));
    assert_eq!(s.snapshot_invalidations, count("SnapshotInvalidated"));
    assert_eq!(s.snapshot_rebuilds, count("SnapshotRebuilt"));
    // And the WorldStats mirrors are the folded LdlStats, verbatim.
    assert_eq!(s.snapshot_hits, s.ldl.snapshot_hits);
    assert_eq!(s.snapshot_misses, s.ldl.snapshot_misses);
    assert_eq!(s.snapshot_invalidations, s.ldl.snapshot_invalidations);
    assert_eq!(s.snapshot_rebuilds, s.ldl.snapshot_rebuilds);
}

// --- 4. corruption never panics (fuzzed-bytes regression) --------------

/// One corrupted-snapshot round: stomp the file with `mutate`, reboot
/// (the once-per-boot consult memo means only a fresh boot re-reads the
/// record), respawn, and the world must fall back to a full resolve —
/// right answer, one more invalidation, never a panic.
fn corrupt_and_respawn(mutate: impl FnOnce(&mut World, &str)) {
    let mut world = snap_world(true);
    let exe = build_chain(&mut world);
    assert_eq!(run_prog(&mut world, &exe).0, CHAIN_ANSWER);
    let path = snap_path(&world);
    assert!(
        !world.kernel.vfs.read_all(&path).unwrap().is_empty(),
        "cold run must have written the snapshot"
    );
    mutate(&mut world, &path);
    world.reboot();
    let before = world.stats().snapshot_invalidations;
    assert_eq!(run_prog(&mut world, "/bin/chain").0, CHAIN_ANSWER);
    let s = world.stats();
    assert_eq!(
        s.snapshot_invalidations,
        before + 1,
        "corruption must be detected and counted: {s:?}"
    );
    assert_eq!(s.snapshot_hits, 0, "corrupt bytes must never validate");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Any single stomped byte anywhere in the stored snapshot — magic,
    /// version, body, checksum trailer — is rejected as `BadSnapshot`.
    #[test]
    fn fuzzed_snapshot_bytes_fall_back_cleanly(pos in 0usize..4096, flip in 1u8..255) {
        corrupt_and_respawn(|world, path| {
            let bytes = world.kernel.vfs.read_all(path).unwrap();
            let pos = pos % bytes.len();
            world
                .kernel
                .vfs
                .write(path, pos as u64, &[bytes[pos] ^ flip])
                .unwrap();
        });
    }

    /// Any truncation — including to zero bytes — is rejected too.
    #[test]
    fn truncated_snapshot_falls_back_cleanly(cut in 0u64..4096) {
        corrupt_and_respawn(|world, path| {
            let len = world.kernel.vfs.read_all(path).unwrap().len() as u64;
            let v = world.kernel.vfs.resolve(path).unwrap();
            world.kernel.vfs.truncate_vnode(v, cut % len).unwrap();
        });
    }
}

/// An *absent* snapshot is a miss, not an invalidation — removing the
/// file sends the next boot's spawn down the free cold path.
#[test]
fn removed_snapshot_is_a_miss_not_an_invalidation() {
    let mut world = snap_world(true);
    let exe = build_chain(&mut world);
    assert_eq!(run_prog(&mut world, &exe).0, CHAIN_ANSWER);
    let path = snap_path(&world);
    world.kernel.vfs.unlink(&path).unwrap();
    world.reboot();
    let before = world.stats();
    assert_eq!(run_prog(&mut world, "/bin/chain").0, CHAIN_ANSWER);
    let s = world.stats();
    assert_eq!(s.snapshot_misses, before.snapshot_misses + 1, "{s:?}");
    assert_eq!(
        s.snapshot_invalidations, before.snapshot_invalidations,
        "{s:?}"
    );
}

// --- 5. the crash sweep ------------------------------------------------

/// Builds the chain, barriers (so the module objects are acknowledged),
/// then runs the first boot — instances, metadata, and the snapshot all
/// flow through the journaled write pipeline after the barrier. The
/// sweep kills the disk at every write index in that window.
fn chain_boot1(world: &mut World) {
    let exe = build_chain(world);
    world.barrier();
    assert_eq!(run_prog(world, &exe).0, CHAIN_ANSWER);
}

/// One crash run: die at write `k`, reboot, optionally disable
/// snapshots for the respawn (the live run is identical either way, so
/// both twins recover from the byte-identical disk), and respawn.
fn crash_respawn(k: u64, tear: bool, cpus: u32, snapshots: bool) -> (World, (i32, String)) {
    let mut world = snap_world(true);
    world.set_cpus(cpus);
    world.set_crash_at(k, tear);
    chain_boot1(&mut world);
    world.power_cut();
    world.reboot();
    world.set_link_snapshots(snapshots);
    let out = run_prog(&mut world, "/bin/chain");
    (world, out)
}

/// The tentpole sweep: at *every* crash point across the first boot's
/// link window, a rebooted world that consults the (possibly partial,
/// torn, or missing) snapshot behaves exactly like one that resolves
/// from scratch off the same recovered disk — a snapshot can be hit,
/// invalidated, or missed, but never *believed wrongly*.
#[test]
fn crash_sweep_never_resurrects_a_stale_snapshot() {
    let cpus = knobs().cpus;
    // Crash-free reference: the write window of the first boot.
    let (ack, total) = {
        let mut world = snap_world(true);
        world.set_cpus(cpus);
        let exe = build_chain(&mut world);
        let ack = world.barrier();
        assert_eq!(run_prog(&mut world, &exe).0, CHAIN_ANSWER);
        (ack, world.disk_seq())
    };
    assert!(ack < total, "boot 1 must write after the barrier");

    let (mut hits, mut misses, mut invals) = (0u64, 0u64, 0u64);
    for k in ack..=total {
        let tear = k % 3 == 0;
        let (mut on_world, on) = crash_respawn(k, tear, cpus, true);
        let (mut off_world, off) = crash_respawn(k, tear, cpus, false);
        assert_eq!(
            on, off,
            "k={k} tear={tear}: snapshot respawn diverged from full resolve"
        );
        for w in [&on_world, &off_world] {
            assert!(
                !w.log.iter().any(|l| l.contains("UNREPAIRED")),
                "k={k}: fsck left damage unrepaired"
            );
        }
        // Surviving instances keep their addresses in both twins.
        for inst in ["/shared/lib/lib1", "/shared/lib/lib2"] {
            assert_eq!(
                on_world.kernel.vfs.path_to_addr(inst).ok(),
                off_world.kernel.vfs.path_to_addr(inst).ok(),
                "k={k}: {inst} recovered to different addresses"
            );
        }
        let s = on_world.stats();
        hits += s.snapshot_hits;
        misses += s.snapshot_misses;
        invals += s.snapshot_invalidations;
        // A hit is only legal when the record *and* every module it
        // describes committed coherently: believing one must yield the
        // crash-free answer. (A miss or invalidation merely falls back
        // to the cold path, whose outcome on a partially-recovered
        // disk — e.g. a committed-but-empty instance faulting into a
        // contained kill — the identity assert above already pinned to
        // the snapshots-off twin.)
        if s.snapshot_hits > 0 {
            assert_eq!(
                on.0, CHAIN_ANSWER,
                "k={k}: a validated snapshot mapped a wrong world"
            );
        }
        // Every snapshot consultation resolves to exactly one outcome.
        // With snapshots on, each `ldl` init consults exactly once —
        // including inits that then die on the cold path (a crash can
        // leave a committed instance without its metadata; the retry-
        // free "file exists" failure is logged), which consult without
        // ever completing into `init_links`.
        let failed_inits = on_world
            .log
            .iter()
            .filter(|l| l.contains("ldl init failed"))
            .count() as u64;
        assert_eq!(
            s.snapshot_hits + s.snapshot_misses + s.snapshot_invalidations,
            s.ldl.init_links + failed_inits,
            "k={k}: respawn outcomes must partition: {s:?}"
        );
    }
    // The sweep crossed the commit point: early deaths miss (or
    // invalidate a torn record), the late ones validate and hit.
    assert!(hits > 0, "no crash point produced a clean warm hit");
    assert!(
        misses + invals > 0,
        "no crash point produced a lost or torn snapshot"
    );
}

// --- 6. sanitizer + chaos independence ---------------------------------

/// hsan verdicts are snapshot-blind: the lock-elided racy counter
/// (cf. `e11_smp.rs`) reports the same races from the same PCs whether
/// the workers linked through a snapshot hit or a full resolve.
#[test]
fn sanitizer_verdicts_are_identical_with_snapshots_off() {
    let run = |snapshots: bool| {
        let world = run_sanitized(snap_world(snapshots), SHCOUNT_ELIDED, 4, 4);
        let races = world.races().to_vec();
        (world.stats().races_detected, races, world)
    };
    let (on_count, on_races, on_world) = run(true);
    let (off_count, off_races, _) = run(false);
    assert!(on_count >= 1, "elided lock must race");
    assert_eq!(on_count, off_count, "same verdict count");
    assert_eq!(on_races, off_races, "same races, same PCs");
    assert!(
        on_world.stats().snapshot_misses > 0,
        "the snapshot path must actually run"
    );
}
