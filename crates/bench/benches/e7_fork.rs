//! E7 — fork semantics (§5): copy-on-write fork vs. eager deep copy, as
//! a function of the private footprint; public pages are never copied.
//!
//! "The child process that results from a fork receives a copy of each
//! segment in the private portion of the parent's address space, and
//! shares the single copy of each segment in the public portion."

use bench::{report_detailed, sim_delta, sim_time};
use hemlock::{ShareClass, World, WorldExit};

/// A program with a `kb`-sized private bss that forks; the child touches
/// `touch_kb` of it and exits; the parent waits.
fn fork_world(kb: u32, touch_kb: u32) -> (World, String) {
    let mut world = World::new();
    world
        .install_template(
            "/src/main.o",
            &format!(
                r#"
                .module main
                .text
                .globl main
                main:   addi sp, sp, -8
                        sw   ra, 0(sp)
                        ; touch every page once so the parent owns them
                        la   r8, big
                        li   r9, {pages}
                warm:   blez r9, forkit
                        sw   r9, 0(r8)
                        addi r8, r8, 4096
                        addi r9, r9, -1
                        b    warm
                forkit: li   v0, 6
                        syscall
                        bne  v0, r0, parent
                        ; child: dirty the first touch_kb of the region
                        la   r8, big
                        li   r9, {touch_pages}
                dirty:  blez r9, cdone
                        sw   r9, 0(r8)
                        addi r8, r8, 4096
                        addi r9, r9, -1
                        b    dirty
                cdone:  li   v0, 1
                        li   a0, 0
                        syscall
                parent: li   v0, 16
                        li   a0, 0
                        syscall
                        lw   ra, 0(sp)
                        addi sp, sp, 8
                        li   v0, 0
                        jr   ra
                .bss
                big:    .space {bytes}
                "#,
                pages = kb / 4,
                touch_pages = touch_kb / 4,
                bytes = kb * 1024,
            ),
        )
        .unwrap();
    let exe = world
        .link("/bin/forker", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    (world, exe)
}

fn run_fork(kb: u32, touch_kb: u32) -> (hemlock::SimTime, u64) {
    let (mut world, exe) = fork_world(kb, touch_kb);
    let pid = world.spawn(&exe).unwrap();
    let t0 = sim_time(&world);
    assert_eq!(
        world.run(2_000_000),
        WorldExit::AllExited,
        "{:?}",
        world.log
    );
    assert_eq!(world.exit_code(pid), Some(0));
    (sim_delta(t0, sim_time(&world)), world.stats().cow_copies)
}

fn simulated_table() {
    let mut rows = Vec::new();
    for kb in [64u32, 256, 1024] {
        // COW: child touches 4 KB — almost nothing is copied. The copy
        // counts are measurements, not identity — detail column.
        let (t, copies) = run_fork(kb, 4);
        rows.push((
            format!("COW fork, {kb} KB private, child dirties 4 KB"),
            t,
            format!("{copies} copies"),
        ));
        // Deep-copy equivalent: child dirties everything.
        let (t, copies) = run_fork(kb, kb);
        rows.push((
            format!("deep-copy fork ({kb} KB all dirtied)"),
            t,
            format!("{copies} copies"),
        ));
    }
    report_detailed("E7", "fork — COW vs. deep copy by private footprint", &rows);
}

fn main() {
    simulated_table();
}
