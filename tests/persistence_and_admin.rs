//! Persistence, crash survival, and the manual-cleanup facilities:
//! the paper's §3 crash-survivable address table and §5 garbage-collection
//! story, end to end through the whole stack.

mod common;

use common::{build_counter, run_prog, RUN_SLICES};
use hemlock::{ShareClass, World, WorldError, WorldExit};
use hsfs::tools;

#[test]
fn shared_state_survives_reboot() {
    let mut world = World::new();
    let exe = build_counter(&mut world);
    assert_eq!(run_prog(&mut world, &exe).0, 1);
    assert_eq!(run_prog(&mut world, &exe).0, 2);

    // Crash + reboot: in-kernel table and all caches are lost; the disk
    // survives; the boot scan rebuilds the mapping.
    world.reboot();

    // The module instance still exists, still at the same address, with
    // the counter value intact — and new processes keep counting.
    assert_eq!(
        world
            .peek_shared_word("/shared/lib/counter", "count")
            .unwrap(),
        2
    );
    assert_eq!(run_prog(&mut world, &exe).0, 3);
}

/// Module metadata lives in a world-writable root file, so a guest can
/// forge a record whose export lies below the instance base. After a
/// reboot drops the cached copy, reading or writing that symbol is a
/// typed error, not an arithmetic panic.
#[test]
fn forged_export_below_base_is_a_typed_error() {
    let mut world = World::new();
    let exe = build_counter(&mut world);
    assert_eq!(run_prog(&mut world, &exe).0, 1);
    let inst = "/shared/lib/counter";
    let ino = world.kernel.vfs.resolve(inst).unwrap().ino;
    let path = hlink::ModuleMeta::path_for(ino);
    let bytes = world.kernel.vfs.read_all(&path).unwrap();
    let mut meta = hlink::ModuleMeta::decode(&bytes).unwrap();
    let below = meta.base - 4;
    for (_, addr) in &mut meta.exports {
        *addr = below;
    }
    world
        .kernel
        .vfs
        .write_file(&path, &meta.encode(), 0o666, 1)
        .unwrap();
    world.reboot();
    let missing = Err(WorldError::NoSuchSymbol("count".into()));
    assert_eq!(world.peek_shared_word(inst, "count"), missing);
    assert_eq!(
        world.poke_shared_word(inst, "count", 7),
        missing.map(|_| ())
    );
}

#[test]
fn segments_are_perusable_and_cleanable() {
    let mut world = World::new();
    let exe = build_counter(&mut world);
    assert_eq!(run_prog(&mut world, &exe).0, 1);
    // Add a raw (non-module) data segment too.
    world
        .kernel
        .vfs
        .create_file("/shared/tmp/scratch", 0o666, 1)
        .unwrap();

    let listing = world.list_segments();
    // Module instance, its template, and the raw segment all enumerate.
    let by_path: Vec<(&str, bool)> = listing
        .iter()
        .map(|(info, exports)| (info.path.as_str(), exports.is_some()))
        .collect();
    assert!(by_path.contains(&("/lib/counter", true)), "{by_path:?}");
    assert!(by_path.contains(&("/lib/counter.o", false)));
    assert!(by_path.contains(&("/tmp/scratch", false)));
    // Module rows carry their exports.
    let (_, exports) = listing
        .iter()
        .find(|(i, _)| i.path == "/lib/counter")
        .unwrap();
    let exports = exports.as_ref().unwrap();
    assert!(exports.contains(&"bump".to_string()));
    assert!(exports.contains(&"count".to_string()));

    // Manual cleanup: remove the finished job's scratch area.
    let removed = tools::cleanup_prefix(&mut world.kernel.vfs.shared, "/tmp").unwrap();
    assert_eq!(removed, 1);
    assert!(world.kernel.vfs.resolve("/shared/tmp/scratch").is_err());
    // The partition stays consistent.
    assert!(tools::fsck_shared(&mut world.kernel.vfs.shared).is_empty());
}

/// A clean reboot prices nothing: the boot scan and boot fsck read the
/// address table without probing it, so neither its lookup and probe
/// counters nor the shared partition's I/O counters move.
#[test]
fn clean_reboot_leaves_priced_counters_unchanged() {
    let mut world = World::new();
    let exe = build_counter(&mut world);
    assert_eq!(run_prog(&mut world, &exe).0, 1);
    assert_eq!(run_prog(&mut world, &exe).0, 2);
    world
        .kernel
        .vfs
        .mkdir_all("/shared/jobs/a/b", 0o777, 1)
        .unwrap();
    for path in ["/shared/jobs/a/b/seg", "/shared/jobs/top", "/shared/solo"] {
        world.kernel.vfs.create_file(path, 0o666, 1).unwrap();
    }
    let segments = world.list_segments().len();
    assert!(segments >= 4, "{segments} segments");
    let sfs = &world.kernel.vfs.shared;
    let before = (sfs.addr_lookups, sfs.addr_probe_steps, sfs.slot_count());
    let fs_stats = sfs.fs.stats;
    world.reboot();
    let sfs = &world.kernel.vfs.shared;
    let after = (sfs.addr_lookups, sfs.addr_probe_steps, sfs.slot_count());
    assert_eq!(after, before, "(addr_lookups, addr_probe_steps, slots)");
    assert_eq!(sfs.fs.stats, fs_stats);
    assert!(tools::fsck_shared(&mut world.kernel.vfs.shared).is_empty());
    assert_eq!(run_prog(&mut world, &exe).0, 3);
}

#[test]
fn fsck_detects_and_boot_scan_repairs_crash_damage() {
    let mut world = World::new();
    let exe = build_counter(&mut world);
    assert_eq!(run_prog(&mut world, &exe).0, 1);
    let n_segments = world.list_segments().len();
    // Lose the table mid-flight (no reboot): fsck reports every segment.
    world.kernel.vfs.shared.clear_table();
    let issues = tools::fsck_shared(&mut world.kernel.vfs.shared);
    assert_eq!(issues.len(), n_segments);
    world.kernel.vfs.shared.boot_scan();
    assert!(tools::fsck_shared(&mut world.kernel.vfs.shared).is_empty());
}

#[test]
fn position_dependence_copying_a_segment_breaks_its_pointers() {
    // §5 "Position-Dependent Files": a segment with internal absolute
    // pointers cannot be copied to another slot — the pointers still
    // point into the *old* slot. Demonstrated at the system level.
    let mut world = World::new();
    world
        .kernel
        .vfs
        .create_file("/shared/orig", 0o666, 1)
        .unwrap();
    let orig = world.kernel.vfs.path_to_addr("/shared/orig").unwrap();
    // orig[0] = &orig[8]; orig[8] = 42 (self-referential pointer).
    world
        .kernel
        .vfs
        .write("/shared/orig", 0, &(orig + 8).to_le_bytes())
        .unwrap();
    world
        .kernel
        .vfs
        .write("/shared/orig", 8, &42u32.to_le_bytes())
        .unwrap();
    // "cp" the file to a new segment (new slot, new address).
    let content = world.kernel.vfs.read_all("/shared/orig").unwrap();
    world
        .kernel
        .vfs
        .create_file("/shared/copy", 0o666, 1)
        .unwrap();
    world.kernel.vfs.write("/shared/copy", 0, &content).unwrap();
    let copy = world.kernel.vfs.path_to_addr("/shared/copy").unwrap();
    assert_ne!(orig, copy);
    // A program reading through the copy's pointer lands in the ORIGINAL
    // segment — the copy's internal pointer is stale, exactly the hazard
    // the paper describes for cp/tar/mail.
    world
        .install_template(
            "/src/main.o",
            &format!(
                ".module main\n.text\n.globl main\nmain: li r8, {copy}\nlw r9, 0(r8)\nlw v0, 0(r9)\njr ra\n"
            ),
        )
        .unwrap();
    let exe = world
        .link("/bin/chase", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(world.run(RUN_SLICES), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(42));
    // The pointer it followed was orig's address, not copy's.
    let followed = u32::from_le_bytes(content[0..4].try_into().unwrap());
    assert_eq!(followed, orig + 8);
}

#[test]
fn slot_reuse_after_cleanup_gives_fresh_segments() {
    let mut world = World::new();
    world
        .kernel
        .vfs
        .create_file("/shared/old", 0o666, 1)
        .unwrap();
    let old_addr = world.kernel.vfs.path_to_addr("/shared/old").unwrap();
    world.kernel.vfs.write("/shared/old", 0, b"stale!").unwrap();
    world.kernel.vfs.unlink("/shared/old").unwrap();
    // The slot is recycled for a new segment at the same address...
    world
        .kernel
        .vfs
        .create_file("/shared/new", 0o666, 1)
        .unwrap();
    assert_eq!(
        world.kernel.vfs.path_to_addr("/shared/new").unwrap(),
        old_addr
    );
    // ...and the new segment does not leak the old contents.
    let content = world.kernel.vfs.read_all("/shared/new").unwrap();
    assert!(content.is_empty());
}
