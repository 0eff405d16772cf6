//! E13 — crash, reboot, recover (DESIGN.md §13): the journaled shared
//! file system proven by exhaustive crash-point testing.
//!
//! The shared partition is the paper's persistent heap — segments must
//! survive "even across system crashes" (PAPER.md §3). This suite
//! earns that word. A canonical multi-segment workload (a public
//! counter module bumped twice, then raw data segments written, with
//! an explicit acknowledgement barrier in the middle) is run once
//! crash-free to count its disk writes, then re-run *once per write
//! index k*, killing the simulated disk at write k — every one of them,
//! torn and clean — and after each `power_cut` + `reboot` the world
//! must prove:
//!
//! 1. **fsck self-heals**: boot-time fsck leaves zero unrepaired
//!    issues, at every k.
//! 2. **Replay converges**: recovering twice is recovering once — a
//!    second journal replay (and a second full crash/reboot cycle) is
//!    a digest-identical no-op, and the live tree equals the disk twin.
//! 3. **Addresses are stable**: every surviving segment keeps the
//!    address the crash-free run assigned (§3's crash-survivable
//!    table, rebuilt by scan).
//! 4. **Acknowledged data is intact**: everything written before a
//!    completed barrier — mapped counter stores included — reads back
//!    exactly, and survivors relink and keep counting.
//! 5. **Unacknowledged data is atomic**: each un-barriered operation
//!    is all-or-nothing after recovery; no torn sizes, no half-writes.
//! 6. **The outcome replays from the seed**: the same crash point
//!    recovers to the byte-identical state every time.
//!
//! Plus the satellite regressions: the `TornWrite` chaos site heals
//! across a reboot (the journal carries the full intended data), crash
//! under memory pressure reclaims orphaned swap files instead of
//! resurrecting them, and seeded chaos crash points (`CrashPoint` /
//! `CrashTear`) stay contained. And the pipeline adds *zero* simulated
//! cost, and changes no observable or logical state, on a crash-free
//! run: the storage slice of the configuration lattice
//! (`tests/lattice.rs` sweeps every cell).

mod common;

use common::{
    expected_checksum, knobs, pat, run_prog, run_workload, spawn_workers, sweep, Cell, Shape,
    SETTLE_SLICES, WORKERS,
};
use hemlock::{FaultPlan, FaultSite, World, WorldExit};
use hsfs::FsError;

// --- the canonical multi-segment workload ---

/// Paths whose recovery is judged (the unlinked `tmp` is judged by its
/// absence-or-atomicity, separately).
const SURVIVORS: &[&str] = &[
    "/shared/lib/counter.o",
    "/shared/lib/counter",
    "/shared/data/a",
    "/shared/data/b",
    "/shared/data/c",
];

/// The crash-free reference: write-index landmarks and the address
/// every segment must keep.
struct Reference {
    /// Disk write index when the workload starts (world-setup writes
    /// precede it; a crash armed below this dies at the first workload
    /// write anyway).
    baseline: u64,
    /// Disk write index of the completed barrier.
    ack: u64,
    /// Total disk writes of the full workload.
    total: u64,
    /// `(path, segment address)` for every surviving segment.
    addrs: Vec<(String, u32)>,
}

fn reference(cpus: u32) -> Reference {
    let mut world = common::world();
    world.set_cpus(cpus);
    let baseline = world.disk_seq();
    let ack = run_workload(&mut world);
    let total = world.disk_seq();
    assert!(
        baseline < ack && ack < total,
        "workload must write on both sides of the barrier ({baseline} / {ack} / {total})"
    );
    let addrs = SURVIVORS
        .iter()
        .map(|p| (p.to_string(), world.kernel.vfs.path_to_addr(p).unwrap()))
        .collect();
    Reference {
        baseline,
        ack,
        total,
        addrs,
    }
}

/// Everything a recovered world is judged on — and everything that
/// must replay byte-identically from the same crash point.
#[derive(Debug, PartialEq, Eq)]
struct Recovered {
    digest: u64,
    /// `(path, size)` per interesting path; `None` = absent.
    files: Vec<(String, Option<u64>)>,
    counter: Option<u32>,
    crashes: u64,
    journal_replays: u64,
    blocks_discarded: u64,
    recovery_ns: u64,
    fsck_lines: Vec<String>,
}

fn observe(world: &mut World) -> Recovered {
    let stats = world.stats();
    let mut files = Vec::new();
    for path in SURVIVORS.iter().chain(&["/shared/data/tmp"]) {
        let size = world.kernel.vfs.stat(path).ok().map(|m| m.size);
        files.push((path.to_string(), size));
    }
    Recovered {
        digest: world.shared_digest(),
        files,
        counter: world.peek_shared_word("/shared/lib/counter", "count").ok(),
        crashes: stats.crashes,
        journal_replays: stats.journal_replays,
        blocks_discarded: stats.blocks_discarded,
        recovery_ns: stats.recovery_ns,
        fsck_lines: world
            .log
            .iter()
            .filter(|l| l.starts_with("fsck:"))
            .cloned()
            .collect(),
    }
}

/// One full crash run: arm the disk to die at write `k`, run the
/// workload (live behavior is identical — the death is invisible),
/// pull the plug, reboot, and snapshot the recovered state.
fn crash_at(k: u64, tear: bool, cpus: u32) -> (World, Recovered) {
    let mut world = common::world();
    world.set_cpus(cpus);
    world.set_crash_at(k, tear);
    let _ = run_workload(&mut world);
    world.power_cut();
    world.reboot();
    let rec = observe(&mut world);
    (world, rec)
}

fn size_of(world: &mut World, path: &str) -> Option<u64> {
    world.kernel.vfs.stat(path).ok().map(|m| m.size)
}

fn read(world: &mut World, path: &str, off: u64, len: usize) -> Vec<u8> {
    world.kernel.vfs.read(path, off, len).unwrap()
}

/// Invariants that hold at *every* crash point.
fn check_invariants(world: &mut World, rec: &Recovered, reference: &Reference, k: u64) {
    // 1. fsck self-healed everything it found.
    assert!(
        !world.log.iter().any(|l| l.contains("UNREPAIRED")),
        "k={k}: fsck left damage unrepaired: {:?}",
        rec.fsck_lines
    );
    // 2. Replay converged: the live tree equals the disk twin, and a
    //    second replay of the surviving journal changes nothing.
    let d1 = world.shared_digest();
    assert_eq!(
        world.kernel.vfs.shared.fs.disk_digest(),
        Some(d1),
        "k={k}: live tree diverged from the disk image after recovery"
    );
    world.kernel.vfs.shared.fs.replay_journal();
    assert_eq!(
        world.shared_digest(),
        d1,
        "k={k}: journal replay is not idempotent"
    );
    // 3. Every surviving segment kept its address.
    for (path, addr) in &reference.addrs {
        if let Ok(a) = world.kernel.vfs.path_to_addr(path) {
            assert_eq!(a, *addr, "k={k}: segment address moved for {path}");
        }
    }
    // Exactly the writes past the death point were lost — the workload
    // is deterministic, so the discard count is too.
    assert_eq!(
        rec.blocks_discarded,
        reference.total.saturating_sub(k),
        "k={k}: unexpected discard count"
    );
    // 5. Unacknowledged operations recovered atomically.
    check_atomicity(world, k);
}

/// Each un-barriered operation is all-or-nothing after recovery: a
/// file exists with one of the sizes a committed transaction prefix
/// can produce, and whatever content is present is the full intended
/// content — never a torn half-write (replay re-applies the committed
/// block images over any torn home block).
fn check_atomicity(world: &mut World, k: u64) {
    match size_of(world, "/shared/data/c") {
        None | Some(0) => {}
        Some(5000) => {
            assert_eq!(
                read(world, "/shared/data/c", 0, 5000),
                pat(0xC3, 5000),
                "k={k}: segment c content torn"
            );
        }
        other => panic!("k={k}: segment c recovered to impossible size {other:?}"),
    }
    match size_of(world, "/shared/data/a") {
        None | Some(0) => {}
        Some(sz @ (8000 | 12292)) => {
            assert_eq!(
                read(world, "/shared/data/a", 2000, 6000),
                pat(0xA1, 6000),
                "k={k}: segment a base write torn"
            );
            assert!(
                read(world, "/shared/data/a", 0, 2000)
                    .iter()
                    .all(|b| *b == 0),
                "k={k}: segment a gap not zero-filled"
            );
            if sz == 12292 {
                assert_eq!(
                    read(world, "/shared/data/a", 8192, 4100),
                    pat(0xA9, 4100),
                    "k={k}: segment a extension torn"
                );
                assert!(
                    read(world, "/shared/data/a", 8000, 192)
                        .iter()
                        .all(|b| *b == 0),
                    "k={k}: segment a extension gap not zero-filled"
                );
            }
        }
        other => panic!("k={k}: segment a recovered to impossible size {other:?}"),
    }
    match size_of(world, "/shared/data/b") {
        None | Some(0) => {}
        Some(sz @ (3000 | 65_536)) => {
            assert_eq!(
                read(world, "/shared/data/b", 0, 3000),
                pat(0xB2, 3000),
                "k={k}: segment b content torn"
            );
            if sz == 65_536 {
                assert!(
                    read(world, "/shared/data/b", 3000, 1000)
                        .iter()
                        .all(|b| *b == 0),
                    "k={k}: segment b grow-truncate not zero-filled"
                );
            }
        }
        other => panic!("k={k}: segment b recovered to impossible size {other:?}"),
    }
    // The create+write+unlink triple: absent, empty, or fully written.
    match size_of(world, "/shared/data/tmp") {
        None | Some(0) | Some(100) => {}
        other => panic!("k={k}: tmp recovered to impossible size {other:?}"),
    }
}

/// The acknowledged-data guarantees: once the barrier completed before
/// the death point, everything before it — mapped counter stores
/// included — is intact, and the survivors relink and keep counting.
fn check_acknowledged(world: &mut World, k: u64) {
    assert_eq!(
        world.peek_shared_word("/shared/lib/counter", "count").ok(),
        Some(2),
        "k={k}: acknowledged counter value lost"
    );
    let a = size_of(world, "/shared/data/a");
    assert!(
        a == Some(8000) || a == Some(12292),
        "k={k}: acknowledged segment a lost (size {a:?})"
    );
    let b = size_of(world, "/shared/data/b");
    assert!(
        b == Some(3000) || b == Some(65_536),
        "k={k}: acknowledged segment b lost (size {b:?})"
    );
    // Survivors relink through ldl and the counter keeps counting.
    assert_eq!(
        run_prog(world, "/bin/p").0,
        3,
        "k={k}: survivor failed to relink and continue"
    );
}

/// The tentpole: every crash point, exhaustively.
fn exhaust(cpus: u32) {
    let reference = reference(cpus);
    for k in reference.baseline..=reference.total {
        // Deterministically mix torn and clean deaths across the range.
        let tear = k % 3 == 0;
        let (mut world, rec) = crash_at(k, tear, cpus);
        check_invariants(&mut world, &rec, &reference, k);
        // Recover twice ≡ once: an immediate second crash/reboot cycle
        // (a crash *during* recovery's aftermath) changes nothing.
        let d1 = world.shared_digest();
        world.power_cut();
        world.reboot();
        assert_eq!(
            world.shared_digest(),
            d1,
            "k={k}: a second crash/reboot cycle changed recovered state"
        );
        if k >= reference.ack {
            check_acknowledged(&mut world, k);
        }
        // Byte-identical replay from the crash point (sampled — each
        // probe doubles that point's cost).
        if k % 7 == 0 {
            let (_, again) = crash_at(k, tear, cpus);
            assert_eq!(rec, again, "k={k}: crash outcome did not replay");
        }
    }
}

#[test]
fn crash_point_exhaustion() {
    exhaust(1);
}

#[test]
fn crash_point_exhaustion_smp() {
    exhaust(4);
}

/// Seeded chaos crash sites: `CrashPoint` draws the death point and
/// `CrashTear` the torn-block coin at that moment. Every seed must
/// recover to a state satisfying the same invariants, and replay
/// byte-identically from its seed.
#[test]
fn seeded_chaos_crashes_recover() {
    let cpus = knobs().cpus;
    let reference = reference(cpus);
    let run = |seed: u64| -> (Recovered, bool) {
        let mut world = common::world();
        world.set_cpus(cpus);
        world.arm_faults(
            FaultPlan::new(seed, 30_000).only(&[FaultSite::CrashPoint, FaultSite::CrashTear]),
        );
        let _ = run_workload(&mut world);
        let died = world.kernel.vfs.shared.fs.device_dead();
        world.power_cut();
        world.reboot();
        let rec = observe(&mut world);
        assert!(
            !world.log.iter().any(|l| l.contains("UNREPAIRED")),
            "seed {seed}: fsck left damage unrepaired"
        );
        let d1 = world.shared_digest();
        assert_eq!(world.kernel.vfs.shared.fs.disk_digest(), Some(d1));
        world.kernel.vfs.shared.fs.replay_journal();
        assert_eq!(
            world.shared_digest(),
            d1,
            "seed {seed}: replay not idempotent"
        );
        for (path, addr) in &reference.addrs {
            if let Ok(a) = world.kernel.vfs.path_to_addr(path) {
                assert_eq!(a, *addr, "seed {seed}: address moved for {path}");
            }
        }
        check_atomicity(&mut world, seed);
        if !died {
            // The plan never fired: nothing was lost, everything holds.
            assert_eq!(rec.blocks_discarded, 0);
            check_acknowledged(&mut world, seed);
        }
        (rec, died)
    };
    let mut deaths = 0;
    for base in 0..8u64 {
        let seed = (base + 1) ^ knobs().crash_seed;
        let (rec, died) = run(seed);
        deaths += died as u64;
        let (again, _) = run(seed);
        assert_eq!(rec, again, "seed {seed}: chaos crash did not replay");
    }
    assert!(deaths > 0, "a 3%-per-write plan must kill the device");
}

// --- satellite: the TornWrite chaos site heals across reboot ---

/// The pre-§13 gap: a torn `write_at` leaves the *live* file half
/// written (the caller sees `ShortWrite`), and nothing could restore
/// it. Now the write-ahead journal carries the full intended block
/// images, so a crash–reboot cycle restores the write's atomicity at
/// exactly the chaos site that tears it.
#[test]
fn torn_write_heals_across_reboot() {
    let mut world = common::world();
    world
        .kernel
        .vfs
        .mkdir_all("/shared/data", 0o755, 0)
        .unwrap();
    world
        .kernel
        .vfs
        .create_file("/shared/data/t", 0o644, 0)
        .unwrap();
    world
        .kernel
        .vfs
        .write("/shared/data/t", 0, &pat(0x11, 8192))
        .unwrap();
    // One write, torn for certain.
    world.arm_faults(FaultPlan::new(7, 1_000_000).only(&[FaultSite::TornWrite]));
    let intended = pat(0x5A, 6000);
    assert_eq!(
        world.kernel.vfs.write("/shared/data/t", 1000, &intended),
        Err(FsError::ShortWrite)
    );
    world.arm_faults(FaultPlan::new(7, 0));
    // The live file really is torn: a prefix landed, the tail is stale.
    let live = read(&mut world, "/shared/data/t", 1000, 6000);
    assert_eq!(live[..3000], intended[..3000], "torn write lands a prefix");
    assert_ne!(
        live[3000..],
        intended[3000..],
        "torn write must not complete"
    );
    // Crash and reboot: the journaled full intent is replayed home.
    world.power_cut();
    world.reboot();
    assert_eq!(size_of(&mut world, "/shared/data/t"), Some(8192));
    assert_eq!(
        read(&mut world, "/shared/data/t", 1000, 6000),
        intended,
        "reboot recovery must restore the torn write's atomicity"
    );
    assert_eq!(
        read(&mut world, "/shared/data/t", 0, 1000),
        pat(0x11, 8192)[..1000],
        "bytes before the torn range are untouched"
    );
    assert!(!world.log.iter().any(|l| l.contains("UNREPAIRED")));
    let d = world.shared_digest();
    assert_eq!(world.kernel.vfs.shared.fs.disk_digest(), Some(d));
}

// --- satellite: crash under pressure recycles swap files ---

/// One pressured cycle on an already-built world: spawn the workers,
/// run to completion, assert every checksum. Swap traffic is forced by
/// the tight frame budget set at build time.
fn pressure_cycle(world: &mut World, exe: &str) {
    let pids = spawn_workers(world, exe, 0..WORKERS);
    world.quantum = 300;
    assert_eq!(world.run(SETTLE_SLICES), WorldExit::AllExited);
    for (id, pid) in pids.iter().enumerate() {
        assert_eq!(world.exit_code(*pid), Some(0));
        assert_eq!(
            world.console(*pid),
            format!("{}\n", expected_checksum(id as u32))
        );
    }
}

fn swap_entries(world: &mut World) -> Vec<String> {
    world
        .kernel
        .vfs
        .readdir("/shared")
        .unwrap()
        .into_iter()
        .filter(|e| e.starts_with(".kswap"))
        .collect()
}

/// The pre-§13 leak: a crash strands `/.kswap{N}` files whose content
/// is dead (the processes whose pages they held died with the power).
/// Boot-time fsck must *reclaim* them — and a fresh pressured run must
/// *recycle* the name with fresh content, not resurrect the old file.
#[test]
fn crash_under_pressure_recycles_swap_files() {
    let mut world = common::world();
    world.set_cpus(knobs().cpus);
    world.set_frame_budget(knobs().pressure_budget.unwrap_or(12));
    let exe = common::build_pressure(&mut world);
    pressure_cycle(&mut world, &exe);
    let s1 = world.stats();
    assert!(s1.swap_outs > 0, "the budget must force swap traffic");
    assert_eq!(s1.oom_kills, 0, "swap absorbs the pressure");
    assert!(
        !swap_entries(&mut world).is_empty(),
        "the thrash must leave a swap file on the shared partition"
    );
    // Pull the plug with the swap file in place.
    world.power_cut();
    world.reboot();
    // Reclaimed, not resurrected: the crash-orphaned swap inodes are
    // gone, fsck is clean, and nothing dangles in the address table.
    assert!(
        swap_entries(&mut world).is_empty(),
        "orphan swap files must not survive reboot"
    );
    assert!(
        world
            .log
            .iter()
            .any(|l| l.contains("reclaimed orphan swap file")),
        "fsck must report the reclaim: {:?}",
        world.log
    );
    assert!(hsfs::tools::fsck_boot(&mut world.kernel.vfs.shared).is_empty());
    assert!(!world.log.iter().any(|l| l.contains("UNREPAIRED")));
    // Recycled: the same world thrashes again from a cold start, and
    // the swap path works with a brand-new file under the old name.
    pressure_cycle(&mut world, &exe);
    let s2 = world.stats();
    assert!(s2.swap_outs > s1.swap_outs, "the re-run swaps again");
    // And a *crashed disk* mid-thrash still comes back clean: the swap
    // file's metadata may or may not have survived the death point,
    // but either way the reboot leaves no orphans.
    let k = world.disk_seq() + 3;
    world.set_crash_at(k, true);
    pressure_cycle(&mut world, &exe);
    world.power_cut();
    world.reboot();
    assert!(swap_entries(&mut world).is_empty());
    assert!(hsfs::tools::fsck_boot(&mut world.kernel.vfs.shared).is_empty());
    assert!(!world.log.iter().any(|l| l.contains("UNREPAIRED")));
}

// --- satellite: the pipeline is free when nothing crashes ---

/// The acceptance bar for the whole subsystem: with the journal on
/// (integrity on or off), a crash-free run costs *exactly* the same
/// simulated time as with it off, and produces the same guest
/// observables, trace, `WorldStats` and logical file-system state.
/// Durability is paid for only at recovery.
#[test]
fn pipeline_adds_zero_simulated_cost_when_crash_free() {
    let cells = Cell::slice(|c| c.bbcache && !c.sanitizer && c.cpus == 1 && !c.half_budget);
    assert_eq!(cells.len(), 3, "one cell per storage stack");
    for s in sweep(Shape::Workload, 300, &cells) {
        assert_eq!((s.crashes, s.journal_replays, s.recovery_ns), (0, 0, 0));
    }
}

// --- satellite: a clean reboot loses nothing ---

/// A clean reboot (no power cut) flushes the pipeline first: nothing
/// is lost, nothing needs replay at the next boot, and the un-barriered
/// suffix survives in full — the contract `persistence_and_admin`'s
/// reboot test has always relied on.
#[test]
fn clean_reboot_loses_nothing() {
    let mut world = common::world();
    let _ = run_workload(&mut world);
    let digest = world.shared_digest();
    world.reboot();
    assert_eq!(world.shared_digest(), digest, "clean reboot lost state");
    assert_eq!(
        world.peek_shared_word("/shared/lib/counter", "count").ok(),
        Some(2)
    );
    assert_eq!(size_of(&mut world, "/shared/data/c"), Some(5000));
    assert_eq!(size_of(&mut world, "/shared/data/a"), Some(12292));
    assert_eq!(size_of(&mut world, "/shared/data/b"), Some(65_536));
    assert_eq!(run_prog(&mut world, "/bin/p").0, 3);
}
