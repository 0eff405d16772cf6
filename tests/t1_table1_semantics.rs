//! T1 — Table 1: the four sharing classes.
//!
//! Table 1 of the paper defines the classes along three axes: *when
//! linked* (static link time vs. run time), *new instance
//! created/destroyed for each process* (yes for private, no for public),
//! and *default portion of address space* (private vs. public). These
//! tests verify each cell behaviorally, end to end.

mod common;

use common::COUNTER;
use hemlock::{ShareClass, World, WorldExit};
use hkernel::layout;

/// main: bump twice, return the second result.
const MAIN: &str = r#"
.module main
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        jal  bump
        jal  bump
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;

fn run_once(world: &mut World, exe: &str) -> i32 {
    let pid = world.spawn(exe).unwrap();
    let exit = world.run(100_000);
    assert_eq!(exit, WorldExit::AllExited, "log: {:?}", world.log);
    world.exit_code(pid).unwrap()
}

fn build(world: &mut World, class: ShareClass, counter_path: &str, exe: &str) -> String {
    world.install_template("/src/main.o", MAIN).unwrap();
    world.install_template(counter_path, COUNTER).unwrap();
    world
        .link(
            exe,
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                (counter_path, class),
            ],
        )
        .unwrap()
}

#[test]
fn static_private_new_instance_per_process() {
    let mut world = World::new();
    let exe = build(
        &mut world,
        ShareClass::StaticPrivate,
        "/src/counter.o",
        "/bin/p",
    );
    // Each run starts from a fresh copy: both runs return 2.
    assert_eq!(run_once(&mut world, &exe), 2);
    assert_eq!(run_once(&mut world, &exe), 2);
}

#[test]
fn dynamic_private_new_instance_per_process() {
    let mut world = World::new();
    let exe = build(
        &mut world,
        ShareClass::DynamicPrivate,
        "/src/counter.o",
        "/bin/p",
    );
    assert_eq!(run_once(&mut world, &exe), 2);
    assert_eq!(run_once(&mut world, &exe), 2);
    // The module was linked at *run* time into the private region.
    let warn_free = world.log.iter().all(|l| !l.contains("cannot find"));
    assert!(warn_free, "log: {:?}", world.log);
}

#[test]
fn static_public_persistent_shared_instance() {
    let mut world = World::new();
    let exe = build(
        &mut world,
        ShareClass::StaticPublic,
        "/shared/lib/counter.o",
        "/bin/p",
    );
    // The instance exists already at static link time, before any run —
    // "It also creates any public static modules that do not yet exist".
    assert_eq!(
        world
            .peek_shared_word("/shared/lib/counter", "count")
            .unwrap(),
        0
    );
    // Counts accumulate across processes: persistence.
    assert_eq!(run_once(&mut world, &exe), 2);
    assert_eq!(run_once(&mut world, &exe), 4);
    assert_eq!(
        world
            .peek_shared_word("/shared/lib/counter", "count")
            .unwrap(),
        4
    );
}

#[test]
fn dynamic_public_created_on_first_use() {
    let mut world = World::new();
    let exe = build(
        &mut world,
        ShareClass::DynamicPublic,
        "/shared/lib/counter.o",
        "/bin/p",
    );
    // Not created at link time (only on first use, by ldl).
    assert!(world.kernel.vfs.resolve("/shared/lib/counter").is_err());
    assert_eq!(run_once(&mut world, &exe), 2);
    assert!(world.kernel.vfs.resolve("/shared/lib/counter").is_ok());
    // Second process shares the same instance.
    assert_eq!(run_once(&mut world, &exe), 4);
}

#[test]
fn public_modules_live_in_public_address_region() {
    let mut world = World::new();
    let exe = build(
        &mut world,
        ShareClass::DynamicPublic,
        "/shared/lib/counter.o",
        "/bin/p",
    );
    let pid = world.spawn(&exe).unwrap();
    world.run(100_000);
    let base = {
        let state = world.link_state(pid).expect("link state exists");
        state.modules["counter"].base
    };
    assert!(layout::is_public(base), "module at {base:#x}");
    // And its address is the slot address of its backing file.
    let addr = world
        .kernel
        .vfs
        .path_to_addr("/shared/lib/counter")
        .unwrap();
    assert_eq!(addr, base);
}

#[test]
fn private_modules_live_in_private_address_region() {
    let mut world = World::new();
    let exe = build(
        &mut world,
        ShareClass::DynamicPrivate,
        "/src/counter.o",
        "/bin/p",
    );
    let pid = world.spawn(&exe).unwrap();
    world.run(100_000);
    let state = world.link_state(pid).expect("link state exists");
    let m = &state.modules["counter"];
    assert!(!layout::is_public(m.base), "module at {:#x}", m.base);
    assert!(m.base >= layout::DYN_PRIVATE_BASE && m.base < layout::DATA_END);
}

#[test]
fn same_template_different_classes_differ_in_persistence() {
    // The decisive Table 1 behavior: private = fresh per process,
    // public = one persistent instance. Same template, both ways.
    let mut world = World::new();
    world.install_template("/src/main.o", MAIN).unwrap();
    world.install_template("/src/counter.o", COUNTER).unwrap();
    world
        .install_template("/shared/lib/counter.o", COUNTER)
        .unwrap();
    let private = world
        .link(
            "/bin/private",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/src/counter.o", ShareClass::DynamicPrivate),
            ],
        )
        .unwrap();
    let public = world
        .link(
            "/bin/public",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/counter.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    assert_eq!(run_once(&mut world, &private), 2);
    assert_eq!(run_once(&mut world, &private), 2); // fresh again
    assert_eq!(run_once(&mut world, &public), 2);
    assert_eq!(run_once(&mut world, &public), 4); // persisted
}
