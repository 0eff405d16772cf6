//! F4 — run-time long-branch trampolines (§3: "lds and ldl arrange for
//! over-long branches to be replaced with jumps to new, nearby code
//! fragments").
//!
//! A `j`/`jal` reaches only its own 256 MB region. The image's text
//! (region 0), the private dynamic modules (`DYN_PRIVATE_BASE`, region
//! 2) and the shared partition (region 3) are all different regions,
//! so `ldl` must route such calls through a trampoline in the caller's
//! reserved area:
//!
//! 1. the image's call into a dynamic public module gets an image-area
//!    trampoline at init;
//! 2. a lazily linked private module's calls into a public module get
//!    trampolines in the module's own area at first touch, one fresh
//!    trampoline per call site;
//! 3. with the `Trampoline` fault site armed at full rate, exactly the
//!    programs that need a trampoline die, each with a logged overflow
//!    (a failed init exits 127, a failed lazy link 139), and the world
//!    settles.

mod common;

use common::{build_counter, SETTLE_SLICES};
use hemlock::{FaultPlan, FaultSite, ShareClass, World, WorldExit};
use hkernel::layout::DYN_PRIVATE_BASE;
use hkernel::Pid;
use hlink::tramp::trampoline_code;

/// A private module that bumps the public counter twice through two
/// `jal` sites and returns the second count.
const TWICE: &str = r#"
.module twice
.text
.globl twice
twice:  addi sp, sp, -8
        sw   ra, 0(sp)
        jal  bump
        jal  bump
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;

/// main: call `twice` through a register, so the image itself needs no
/// trampoline, and exit with what it returns.
const MAIN_TWICE: &str = r#"
.module main2
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        la   r8, twice
        jalr r8
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;

/// main: exit 5 without calling out of the image's region.
const BYSTANDER: &str = r#"
.module bystander
.text
.globl main
main:   li   v0, 5
        jr   ra
"#;

/// Links `/bin/twice`: [`MAIN_TWICE`] with [`TWICE`] as a dynamic
/// private module and the counter as a dynamic public one (installed
/// by [`build_counter`] first).
fn build_twice(world: &mut World) -> String {
    world.install_template("/src/twice.o", TWICE).unwrap();
    world.install_template("/src/main2.o", MAIN_TWICE).unwrap();
    world
        .link(
            "/bin/twice",
            &[
                ("/src/main2.o", ShareClass::StaticPrivate),
                ("/src/twice.o", ShareClass::DynamicPrivate),
                ("/shared/lib/counter.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap()
}

fn build_bystander(world: &mut World) -> String {
    world
        .install_template("/src/bystander.o", BYSTANDER)
        .unwrap();
    world
        .link(
            "/bin/bystander",
            &[("/src/bystander.o", ShareClass::StaticPrivate)],
        )
        .unwrap()
}

/// Runs one slice at a time until `done` holds for `pid`'s link state.
fn run_until(world: &mut World, pid: Pid, done: impl Fn(&hlink::ldl::LinkState) -> bool) {
    for _ in 0..1_000 {
        if world.link_state(pid).is_some_and(&done) {
            return;
        }
        world.run(1);
    }
    panic!("pid {pid} never reached the awaited link state");
}

/// `len` bytes of `pid`'s memory at `addr`.
fn peek(world: &World, pid: Pid, addr: u32, len: usize) -> Vec<u8> {
    let proc = world.kernel.procs.get(&pid).expect("process is live");
    proc.aspace
        .read_bytes(&world.kernel.vfs.shared, addr, len)
        .unwrap()
}

fn code_bytes(target: u32) -> Vec<u8> {
    trampoline_code(target)
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect()
}

#[test]
fn image_call_into_a_public_module_gets_an_init_time_trampoline() {
    let mut world = common::world();
    let exe = build_counter(&mut world);
    let pid = world.spawn(&exe).unwrap();
    run_until(&mut world, pid, |s| s.image_tramp.2 > 0);

    let state = world.link_state(pid).unwrap();
    let (base, cap, used) = state.image_tramp;
    let bump = state.module("counter").unwrap().export("bump").unwrap();
    assert!(
        !hvm::jump_in_range(base, bump),
        "the public module lies outside the image's jump region"
    );
    assert_eq!(used, hlink::tramp::TRAMP_BYTES, "one trampoline");
    assert!(used <= cap);
    assert_eq!(peek(&world, pid, base, used as usize), code_bytes(bump));

    assert_eq!(world.run_to_completion(), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(1), "bump returned the new count");
    assert_eq!(world.stats().ldl.trampolines, 1);
}

#[test]
fn lazily_linked_private_module_gets_trampolines_in_its_own_area() {
    let mut world = common::world();
    build_counter(&mut world);
    let exe = build_twice(&mut world);
    let pid = world.spawn(&exe).unwrap();
    run_until(&mut world, pid, |s| {
        s.module("twice").is_some_and(|m| !m.lazy)
    });

    let state = world.link_state(pid).unwrap();
    let m = state.module("twice").unwrap();
    assert_eq!(m.base, DYN_PRIVATE_BASE, "the first private module's slot");
    let (off, cap, used) = m.tramp;
    let area = m.base + off;
    let bump = state.module("counter").unwrap().export("bump").unwrap();
    assert!(!hvm::jump_in_range(area, bump));
    assert_eq!(state.image_tramp.2, 0, "main calls through a register");
    // Two call sites of one target: ldl places a fresh trampoline per
    // site and reuses none.
    assert_eq!((used, cap), (24, 24));
    let want = [code_bytes(bump), code_bytes(bump)].concat();
    assert_eq!(peek(&world, pid, area, used as usize), want);

    assert_eq!(world.run_to_completion(), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(2), "two bumps");
    assert_eq!(world.stats().ldl.trampolines, 2);
}

#[test]
fn full_rate_trampoline_faults_kill_only_the_programs_that_need_one() {
    let mut world = common::world();
    let image_caller = build_counter(&mut world);
    let module_caller = build_twice(&mut world);
    let bystander = build_bystander(&mut world);
    world.arm_faults(FaultPlan::new(9, 1_000_000).only(&[FaultSite::Trampoline]));
    let pids: Vec<Pid> = [&image_caller, &module_caller, &bystander]
        .into_iter()
        .map(|exe| world.spawn(exe).unwrap())
        .collect();
    assert_eq!(world.run_to_settle(SETTLE_SLICES), Ok(WorldExit::AllExited));
    world.audit().unwrap();
    // The image caller's link fails at init, which ends it with the
    // loader-failed status before `main` runs; the module caller's
    // fails on the lazy path, which keeps the paper's SEGV semantics.
    for (&victim, status) in pids[..2].iter().zip([127, 139]) {
        assert_eq!(
            world.exit_code(victim),
            Some(status),
            "pid {victim} needed a trampoline and must die"
        );
        let logged = format!("pid {victim}: ");
        assert!(
            world
                .log
                .iter()
                .any(|l| l.starts_with(&logged) && l.contains("trampoline area overflow")),
            "pid {victim}'s overflow is logged: {:?}",
            world.log
        );
    }
    let image_caller = format!("pid {}: ", pids[0]);
    assert!(
        !world
            .log
            .iter()
            .any(|l| l.starts_with(&image_caller) && l.contains("segmentation fault")),
        "a failed init is not followed by a wild jump: {:?}",
        world.log
    );
    assert_eq!(
        world.exit_code(pids[2]),
        Some(5),
        "the bystander is unharmed"
    );
    let stats = world.stats();
    assert_eq!(stats.ldl.trampolines, 0);
    assert_eq!(stats.faults_injected, 2, "one draw per needed trampoline");
    let failed: Vec<Pid> = world
        .trace()
        .records()
        .filter(|r| r.event.kind() == "LinkFailed")
        .map(|r| r.pid)
        .collect();
    assert_eq!(failed, pids[..2], "one LinkFailed record per failed link");
    assert_eq!(stats.link_failures, 2);
}

/// An overflow names the module whose area ran out: the image's as
/// `<image>`, a module's by its own name (not the called symbol's).
#[test]
fn overflow_names_the_owning_module() {
    let mut world = common::world();
    let image_caller = build_counter(&mut world);
    let module_caller = build_twice(&mut world);
    world.arm_faults(FaultPlan::new(9, 1_000_000).only(&[FaultSite::Trampoline]));
    let image_pid = world.spawn(&image_caller).unwrap();
    let module_pid = world.spawn(&module_caller).unwrap();
    assert_eq!(world.run_to_settle(SETTLE_SLICES), Ok(WorldExit::AllExited));
    for (pid, owner) in [(image_pid, "<image>"), (module_pid, "twice")] {
        let want = format!("trampoline area overflow in `{owner}`");
        assert!(
            world
                .log
                .iter()
                .any(|l| l.starts_with(&format!("pid {pid}: ")) && l.ends_with(&want)),
            "pid {pid}: {want:?} in {:?}",
            world.log
        );
    }
}
