//! E14 — disk integrity (DESIGN.md §14): what end-to-end checksums
//! cost.
//!
//! Three claims, each pinned by a gated row:
//!
//! 1. **Integrity is free until you scrub.** Checksumming, address
//!    stamps, and the replica region add *zero* simulated time to the
//!    E13 landmark workload — the `(scrub off, integrity off)` row is
//!    asserted equal, nanosecond for nanosecond, to the integrity-on
//!    row of the same workload.
//! 2. **Write amplification is bounded.** Every home data-block write
//!    pays one integrity-region write (checksum + claim + replica);
//!    the measured factor on the landmark workload is asserted ≤ 2.5×.
//! 3. **Scrub is linear in stamped blocks, repair priced per heal.**
//!    The rows sweep three disk-dirt levels and add one corrupt sweep
//!    whose bill is exactly `repairs × repair_ns` above the clean pass.

use bench::{report_detailed, run_ok, sim_time};
use hemlock::{ShareClass, SimTime, World};
use hsfs::CorruptKind;

const COUNTER: &str = r#"
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

const MAIN: &str = r#"
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

/// The E13 landmark workload (cf. `e13_recovery.rs`): counter program
/// twice, a raw segment, barrier. Returns the simulated time, the
/// shared digest, and the `(data, integrity)` block-write pair.
fn landmark(integrity: bool) -> (SimTime, u64, u64, u64) {
    let mut world = World::new();
    if !integrity {
        world.set_integrity(false);
    }
    world
        .install_template("/shared/lib/counter.o", COUNTER)
        .unwrap();
    world.install_template("/src/main.o", MAIN).unwrap();
    let exe = world
        .link(
            "/bin/p",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/counter.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    for _ in 0..2 {
        world.spawn(&exe).unwrap();
        run_ok(&mut world);
    }
    world
        .kernel
        .vfs
        .mkdir_all("/shared/data", 0o755, 0)
        .unwrap();
    world
        .kernel
        .vfs
        .create_file("/shared/data/d", 0o644, 0)
        .unwrap();
    world
        .kernel
        .vfs
        .write("/shared/data/d", 0, &vec![0x5A; 8192])
        .unwrap();
    world.barrier();
    let stats = world.stats();
    assert_eq!(stats.blocks_scrubbed, 0);
    assert_eq!(stats.corruptions_detected, 0);
    let (data, integ) = world.write_amplification();
    (sim_time(&world), world.shared_digest(), data, integ)
}

/// One scrub pass over a partition holding `blocks` stamped data
/// blocks, `corrupt` of them rotted. Returns the pass's simulated
/// bill and the `scanned/corrupt/repaired` shape.
fn scrub_cost(blocks: u64, corrupt: u64) -> (SimTime, String) {
    let mut world = World::new();
    world
        .kernel
        .vfs
        .mkdir_all("/shared/data", 0o755, 0)
        .unwrap();
    world
        .kernel
        .vfs
        .create_file("/shared/data/d", 0o644, 0)
        .unwrap();
    let block = vec![0x5A; 4096];
    for i in 0..blocks {
        world
            .kernel
            .vfs
            .write("/shared/data/d", i * 4096, &block)
            .unwrap();
    }
    for b in 0..corrupt {
        assert!(world.corrupt_shared_block("/shared/data/d", b, CorruptKind::BitRot));
    }
    let before = sim_time(&world);
    let report = world.scrub().expect("integrity on by default");
    assert_eq!(report.blocks_scanned, blocks);
    assert_eq!(report.findings.len() as u64, corrupt);
    let stats = world.stats();
    assert_eq!(stats.blocks_repaired, corrupt, "replicas heal everything");
    assert_eq!(world.poisoned_blocks(), 0);
    let bill = SimTime(sim_time(&world).0 - before.0);
    let detail = format!(
        "{} scanned, {} corrupt, {} repaired",
        report.blocks_scanned,
        report.findings.len(),
        stats.blocks_repaired
    );
    (bill, detail)
}

fn simulated_table() {
    let mut rows = Vec::new();
    // The zero-cost identity: integrity on vs. off, same workload,
    // same simulated time, same logical state — stamping is free
    // until a scrub pass is asked for.
    let (t_on, d_on, data, integ) = landmark(true);
    let (t_off, d_off, data_off, integ_off) = landmark(false);
    assert_eq!(t_on, t_off, "integrity must not move simulated time");
    assert_eq!(d_on, d_off, "integrity must not change logical state");
    assert_eq!(data, data_off, "same home writes either way");
    assert_eq!(integ_off, 0, "integrity off writes no integrity blocks");
    // The write-amplification gate: one integrity-region write per
    // data-block write, bounded well under the 2.5× bar.
    let amp = (data + integ) as f64 / data as f64;
    assert!(
        amp <= 2.5,
        "write amplification {amp:.2}x exceeds the 2.5x gate ({data} data + {integ} integrity)"
    );
    rows.push((
        "landmark workload, integrity on".to_string(),
        t_on,
        format!("{data} data + {integ} integrity blocks = {amp:.2}x amplification (gate 2.5x)"),
    ));
    rows.push((
        "landmark workload (scrub off, integrity off)".to_string(),
        t_off,
        "identical to integrity-on run".to_string(),
    ));
    // Scrub cost vs. disk dirt: linear in stamped blocks.
    for blocks in [8u64, 32, 128] {
        let (t, detail) = scrub_cost(blocks, 0);
        rows.push((format!("scrub pass, {blocks} stamped blocks"), t, detail));
    }
    // And the heal bill: the corrupt sweep pays exactly the clean
    // pass plus one priced repair per rotted block.
    let (t_clean, _) = scrub_cost(32, 0);
    let (t_heal, detail) = scrub_cost(32, 8);
    assert_eq!(
        t_heal.0 - t_clean.0,
        8 * hemlock::CostModel::default().repair_ns,
        "heal bill must be exactly repairs x repair_ns"
    );
    rows.push((
        "scrub pass, 32 stamped blocks, 8 rotted".to_string(),
        t_heal,
        detail,
    ));
    report_detailed(
        "E14",
        "disk integrity — free stamping; bounded amplification; linear scrub",
        &rows,
    );
}

fn main() {
    simulated_table();
}
