//! E13 — crash recovery (DESIGN.md §13): what durability costs.
//!
//! Two claims, each pinned by a gated row:
//!
//! 1. **Crash-free runs are free.** The write pipeline and the
//!    metadata journal add *zero* simulated time to a run that never
//!    crashes — the `(crash off)` row is asserted equal, nanosecond
//!    for nanosecond, to the journal-on row of the same workload.
//! 2. **Recovery is linear in the dirty suffix.** Journal replay at
//!    reboot costs one disk-block read per surviving record plus one
//!    write per block image replayed home; the rows sweep the number
//!    of un-checkpointed dirty blocks and record the replay bill.

use bench::{report_detailed, run_ok, sim_time};
use hemlock::{ShareClass, SimTime, World};

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

/// The crash-free workload: build and run the counter program twice
/// (mapped stores into a public module), write a raw segment, barrier.
/// Returns the run's total simulated time and the final shared digest.
fn crash_free(durable: bool) -> (SimTime, u64) {
    let mut world = World::new();
    if !durable {
        world.set_durability(false);
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
    assert_eq!(stats.crashes, 0);
    assert_eq!(stats.recovery_ns, 0);
    (sim_time(&world), world.shared_digest())
}

/// One crash/reboot cycle with exactly `nblocks` un-checkpointed dirty
/// blocks in the journal at the moment of death. Returns the recovery
/// bill and the replay shape for the detail field.
fn recovery(nblocks: u64) -> (SimTime, String) {
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
    // Checkpoint: the journal measures only the writes below.
    world.barrier();
    let block = vec![0x5A; 4096];
    for i in 0..nblocks {
        world
            .kernel
            .vfs
            .write("/shared/data/d", i * 4096, &block)
            .unwrap();
    }
    world.power_cut();
    world.reboot();
    let stats = world.stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.journal_replays, 1);
    let detail = world
        .log
        .iter()
        .find(|l| l.starts_with("journal replay:"))
        .unwrap()
        .trim_start_matches("journal replay: ")
        .to_string();
    (SimTime(stats.recovery_ns), detail)
}

fn simulated_table() {
    let mut rows = Vec::new();
    // The zero-cost identity: journal on vs. off, same workload, same
    // simulated time, same logical state.
    let (t_on, d_on) = crash_free(true);
    let (t_off, d_off) = crash_free(false);
    assert_eq!(t_on, t_off, "the journal must not move simulated time");
    assert_eq!(d_on, d_off, "the journal must not change logical state");
    rows.push((
        "crash-free workload, journal on".to_string(),
        t_on,
        String::new(),
    ));
    rows.push((
        "crash-free workload (crash off)".to_string(),
        t_off,
        "identical to journal-on run".to_string(),
    ));
    // Replay cost vs. dirty-suffix size: linear, and billed only at
    // reboot.
    for nblocks in [4u64, 16, 64] {
        let (t, detail) = recovery(nblocks);
        rows.push((format!("journal replay, {nblocks} dirty blocks"), t, detail));
    }
    report_detailed(
        "E13",
        "crash recovery — zero-cost pipeline; replay bill vs. dirty blocks",
        &rows,
    );
}

fn main() {
    simulated_table();
}
