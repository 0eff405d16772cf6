//! F1 — Figure 1: building a program with linked-in shared objects, and
//! the §2 run-time protocol (crt0 → ldl → lazy linking → fault-driven
//! resolution → pointer following).

use hemlock::{ShareClass, WaitReason, World, WorldExit};
use hobj::binfmt;

/// Module with an *external* reference: `deep_fn` is not defined here, so
/// the instance has pending relocations and must be mapped inaccessible.
const SHALLOW: &str = r#"
.module shallow
.text
.globl shallow_fn
shallow_fn:
        addi sp, sp, -8
        sw   ra, 0(sp)
        jal  deep_fn
        addi v0, v0, 100
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
.uses   deep
"#;

const DEEP: &str = r#"
.module deep
.text
.globl deep_fn
deep_fn:
        li   v0, 7
        jr   ra
"#;

#[test]
fn figure1_pipeline_produces_runnable_aout() {
    // cc (hasm) → lds → a.out with crt0 + ldl info → run.
    let mut world = World::new();
    world
        .install_template(
            "/src/main.o",
            ".module main\n.text\n.globl main\nmain: li v0, 5\njr ra\n",
        )
        .unwrap();
    let exe = world
        .link("/bin/a.out", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    // The executable is a decodable image with the special crt0 entry.
    let bytes = world.kernel.vfs.read_all(&exe).unwrap();
    let image = binfmt::decode_image(&bytes).unwrap();
    assert_eq!(image.entry, image.find_export("_start").unwrap());
    assert!(image.find_export("main").is_some());
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(world.run(100_000), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(5));
}

#[test]
fn shared_modules_stay_out_of_the_load_image() {
    // Figure 1: shared1.o..sharedN.o are *not* copied into a.out.
    let mut world = World::new();
    world.install_template("/shared/lib/deep.o", DEEP).unwrap();
    world
        .install_template(
            "/src/main.o",
            ".module main\n.text\n.globl main\nmain: addi sp, sp, -8\nsw ra, 0(sp)\njal deep_fn\nlw ra, 0(sp)\naddi sp, sp, 8\njr ra\n",
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/a.out",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/deep.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let bytes = world.kernel.vfs.read_all(&exe).unwrap();
    let image = binfmt::decode_image(&bytes).unwrap();
    // The dynamic list names the module; its code is not in the image.
    assert_eq!(image.dynamic.len(), 1);
    assert_eq!(image.dynamic[0].name, "/shared/lib/deep.o");
    assert!(image.find_export("deep_fn").is_none());
    // `main`'s call is a pending relocation recorded for ldl.
    assert!(image.pending.iter().any(|p| p.symbol == "deep_fn"));
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(world.run(100_000), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(7));
}

#[test]
fn lazy_linking_defers_module_resolution_until_first_touch() {
    // `shallow` has undefined refs (deep_fn) → mapped without access;
    // the first call faults, the handler links it (mapping `deep` in
    // turn), and the instruction restarts.
    let mut world = World::new();
    world
        .install_template("/shared/lib/shallow.o", SHALLOW)
        .unwrap();
    world.install_template("/shared/lib/deep.o", DEEP).unwrap();
    world
        .install_template(
            "/src/main.o",
            ".module main\n.text\n.globl main\nmain: addi sp, sp, -8\nsw ra, 0(sp)\njal shallow_fn\nlw ra, 0(sp)\naddi sp, sp, 8\njr ra\n",
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/a.out",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/shallow.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(
        world.run(200_000),
        WorldExit::AllExited,
        "log: {:?}",
        world.log
    );
    assert_eq!(world.exit_code(pid), Some(107), "log: {:?}", world.log);
    // The lazy path actually ran: at least one fault resolved by a lazy
    // link, and `deep` was brought in as part of the chain reaction.
    let stats = world.stats();
    assert!(stats.ldl.lazy_links >= 1, "{:?}", stats.ldl);
    assert!(stats.kernel.segv_faults >= 1);
    assert!(world.kernel.vfs.resolve("/shared/lib/deep").is_ok());
}

#[test]
fn unused_modules_are_never_linked() {
    // "linking only the portions of that graph that are actually used
    // during any particular run" — an unused lazy module stays lazy.
    let mut world = World::new();
    world
        .install_template("/shared/lib/shallow.o", SHALLOW)
        .unwrap();
    world.install_template("/shared/lib/deep.o", DEEP).unwrap();
    world
        .install_template(
            "/src/main.o",
            ".module main\n.text\n.globl main\nmain: li v0, 1\njr ra\n",
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/a.out",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/shallow.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(world.run(100_000), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(1));
    let stats = world.stats();
    assert_eq!(stats.ldl.lazy_links, 0);
    assert_eq!(stats.ldl.symbols_resolved, 0);
    // `deep` was never even located.
    assert!(world.kernel.vfs.resolve("/shared/lib/deep").is_err());
}

#[test]
fn pointer_following_maps_unmapped_segments() {
    // §2: "it allows the process to follow pointers into segments that
    // may or may not yet be mapped." A raw data segment holds a value;
    // the program computes its address with path_to_addr and just
    // dereferences it — the fault handler maps the file.
    let mut world = World::new();
    // A plain data segment (not a module).
    world
        .kernel
        .vfs
        .create_file("/shared/rawdata", 0o666, 1)
        .unwrap();
    let addr = world.kernel.vfs.path_to_addr("/shared/rawdata").unwrap();
    world
        .kernel
        .vfs
        .write("/shared/rawdata", 0, &0xABCDu32.to_le_bytes())
        .unwrap();
    world
        .install_template(
            "/src/main.o",
            &format!(
                ".module main\n.text\n.globl main\nmain: li r8, {addr}\nlw v0, 0(r8)\njr ra\n"
            ),
        )
        .unwrap();
    let exe = world
        .link("/bin/a.out", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(
        world.run(100_000),
        WorldExit::AllExited,
        "log: {:?}",
        world.log
    );
    assert_eq!(world.exit_code(pid), Some(0xABCD), "log: {:?}", world.log);
    let stats = world.stats();
    assert_eq!(stats.ldl.segments_mapped, 1);
}

#[test]
fn pointer_chains_across_segments() {
    // A pointer stored *inside* one shared segment leads to another
    // segment; both get mapped on demand as the program chases the chain.
    let mut world = World::new();
    world
        .kernel
        .vfs
        .create_file("/shared/seg_a", 0o666, 1)
        .unwrap();
    world
        .kernel
        .vfs
        .create_file("/shared/seg_b", 0o666, 1)
        .unwrap();
    let a = world.kernel.vfs.path_to_addr("/shared/seg_a").unwrap();
    let b = world.kernel.vfs.path_to_addr("/shared/seg_b").unwrap();
    // seg_a[0] = &seg_b[8]; seg_b[8] = 777.
    world
        .kernel
        .vfs
        .write("/shared/seg_a", 0, &(b + 8).to_le_bytes())
        .unwrap();
    world
        .kernel
        .vfs
        .write("/shared/seg_b", 8, &777u32.to_le_bytes())
        .unwrap();
    world
        .install_template(
            "/src/main.o",
            &format!(
                ".module main\n.text\n.globl main\nmain: li r8, {a}\nlw r9, 0(r8)\nlw v0, 0(r9)\njr ra\n"
            ),
        )
        .unwrap();
    let exe = world
        .link("/bin/a.out", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(
        world.run(100_000),
        WorldExit::AllExited,
        "log: {:?}",
        world.log
    );
    assert_eq!(world.exit_code(pid), Some(777), "log: {:?}", world.log);
    assert_eq!(world.stats().ldl.segments_mapped, 2);
}

#[test]
fn unresolvable_fault_reaches_guest_handler_then_kills() {
    // The backward-compatibility path: "When the dynamic linking system's
    // fault handler is unable to resolve a fault, a program-provided
    // handler for SIGSEGV is invoked, if one exists."
    let mut world = World::new();
    world
        .install_template(
            "/src/main.o",
            r#"
            .module main
            .text
            .globl main
            main:   li   v0, 15          ; sigaction(handler)
                    la   a0, handler
                    syscall
                    li   r8, 0x20000000  ; unmapped private address
                    lw   r9, 0(r8)       ; faults; Hemlock cannot resolve
                    li   v0, 0
                    jr   ra
            handler:
                    li   v0, 1           ; exit(55) from the handler
                    li   a0, 55
                    syscall
            "#,
        )
        .unwrap();
    let exe = world
        .link("/bin/a.out", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(
        world.run(100_000),
        WorldExit::AllExited,
        "log: {:?}",
        world.log
    );
    assert_eq!(world.exit_code(pid), Some(55), "log: {:?}", world.log);
}

#[test]
fn a_process_stuck_refaulting_awaits_its_fault() {
    // The handler returns to the same unresolvable load, so the process
    // refaults at one address. Short of the runtime's fault-loop limit
    // it is reported mid-fault, not as plain runnable; past the limit
    // it is killed.
    let mut world = World::new();
    world
        .install_template(
            "/src/main.o",
            r#"
            .module main
            .text
            .globl main
            main:   li   v0, 15          ; sigaction(handler)
                    la   a0, handler
                    syscall
                    li   r8, 0x20000000  ; unmapped private address
                    lw   r9, 0(r8)       ; faults again after each return
                    li   v0, 0
                    jr   ra
            handler:
                    li   v0, 31          ; sigreturn: retry the load
                    syscall
            "#,
        )
        .unwrap();
    let exe = world
        .link("/bin/a.out", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    let unsettled = world.run_to_settle(20).unwrap_err();
    assert_eq!(
        unsettled.waits,
        [(pid, WaitReason::AwaitingFault { addr: 0x2000_0000 })],
        "log: {:?}",
        world.log
    );
    assert_eq!(world.run(1_000), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(139));
    assert!(
        world
            .log
            .iter()
            .any(|l| l.contains("unresolvable fault loop")),
        "log: {:?}",
        world.log
    );
    world.audit().unwrap();
}

#[test]
fn unresolvable_fault_without_handler_kills() {
    let mut world = World::new();
    world
        .install_template(
            "/src/main.o",
            ".module main\n.text\n.globl main\nmain: li r8, 0x20000000\nlw r9, 0(r8)\nli v0, 0\njr ra\n",
        )
        .unwrap();
    let exe = world
        .link("/bin/a.out", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(world.run(100_000), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(139), "log: {:?}", world.log);
}
