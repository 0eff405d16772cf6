//! T1 — Table 1: creation and link times of the four sharing classes.
//!
//! Measures, per class: (a) static link time in `lds`, (b) process
//! start-to-`main` time (crt0 + `ldl` init), and (c) instance creation.
//! The shape to reproduce: static classes pay at link time, dynamic
//! classes at run time; private classes pay *per process*, public
//! classes once.

use bench::{report, run_ok, sim_time};
use hemlock::{ShareClass, World};

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

fn class_path(class: ShareClass) -> &'static str {
    if class.is_public() {
        "/shared/lib/counter.o"
    } else {
        "/src/counter.o"
    }
}

fn setup(class: ShareClass) -> (World, String) {
    let mut world = World::new();
    world.install_template("/src/main.o", MAIN).unwrap();
    world.install_template(class_path(class), COUNTER).unwrap();
    let exe = world
        .link(
            "/bin/p",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                (class_path(class), class),
            ],
        )
        .unwrap();
    (world, exe)
}

fn simulated_table() {
    let mut rows = Vec::new();
    for (name, class) in [
        ("static-private", ShareClass::StaticPrivate),
        ("dynamic-private", ShareClass::DynamicPrivate),
        ("static-public", ShareClass::StaticPublic),
        ("dynamic-public", ShareClass::DynamicPublic),
    ] {
        let (mut world, exe) = setup(class);
        // First process: includes any first-use instance creation.
        let t0 = sim_time(&world);
        let pid = world.spawn(&exe).unwrap();
        run_ok(&mut world);
        assert!(world.exit_code(pid).unwrap() >= 1);
        let t1 = sim_time(&world);
        // Second process: steady state.
        let pid = world.spawn(&exe).unwrap();
        run_ok(&mut world);
        assert!(world.exit_code(pid).unwrap() >= 1);
        let t2 = sim_time(&world);
        rows.push((format!("{name}: first process"), bench::sim_delta(t0, t1)));
        rows.push((format!("{name}: second process"), bench::sim_delta(t1, t2)));
    }
    report("T1", "sharing classes — per-process run cost", &rows);
}

fn main() {
    simulated_table();
}
