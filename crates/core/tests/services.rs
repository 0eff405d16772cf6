//! Tests of the run-time library services (the user-level half of
//! Hemlock): map_segment, test-and-set, segment heaps, setenv,
//! link_module/lookup_symbol (the dlopen/dlsym analogues).

use hemlock::{ShareClass, World, WorldExit};

fn run(world: &mut World, exe: &str) -> i32 {
    let pid = world.spawn(exe).unwrap();
    assert_eq!(
        world.run(500_000),
        WorldExit::AllExited,
        "log: {:?}",
        world.log
    );
    world.exit_code(pid).unwrap()
}

#[test]
fn map_segment_by_name() {
    let mut world = World::new();
    world
        .kernel
        .vfs
        .create_file("/shared/data", 0o666, 1)
        .unwrap();
    world
        .kernel
        .vfs
        .write("/shared/data", 0, &31337u32.to_le_bytes())
        .unwrap();
    world
        .install_template(
            "/src/main.o",
            r#"
            .module main
            .text
            .globl main
            main:   li   v0, 101        ; map_segment(path) -> base
                    la   a0, path
                    syscall
                    lw   v0, 0(v0)      ; read the first word
                    jr   ra
            .data
            path:   .asciiz "/shared/data"
            "#,
        )
        .unwrap();
    let exe = world
        .link("/bin/m", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    assert_eq!(run(&mut world, &exe), 31337);
    // Explicit mapping avoids the fault path entirely.
    assert_eq!(world.stats().kernel.segv_faults, 0);
}

#[test]
fn map_segment_missing_path_fails() {
    let mut world = World::new();
    world
        .install_template(
            "/src/main.o",
            r#"
            .module main
            .text
            .globl main
            main:   li   v0, 101
                    la   a0, path
                    syscall
                    jr   ra             ; returns the (negative) errno
            .data
            path:   .asciiz "/shared/nope"
            "#,
        )
        .unwrap();
    let exe = world
        .link("/bin/m", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    assert!(run(&mut world, &exe) < 0);
}

#[test]
fn test_and_set_is_atomic_under_interleaving() {
    // Two processes race TAS on a shared lock word; exactly one may hold
    // it at a time. Each increments a shared counter 50 times under the
    // lock; any lost update would show in the final count.
    let mut world = World::new();
    world
        .install_template(
            "/shared/lib/sync.o",
            ".module sync\n.data\n.globl lock\nlock: .word 0\n.globl counter\ncounter: .word 0\n",
        )
        .unwrap();
    world
        .install_template(
            "/src/main.o",
            r#"
            .module main
            .text
            .globl main
            main:   addi sp, sp, -8
                    sw   ra, 0(sp)
                    li   v0, 6          ; fork: two workers
                    syscall
                    or   r20, v0, r0
                    li   r18, 50
            work:   blez r18, done
            acq:    la   a0, lock
                    li   a1, 1
                    li   v0, 102        ; TAS
                    syscall
                    bne  v0, r0, acq
                    la   r8, counter
                    lw   r9, 0(r8)
                    addi r9, r9, 1
                    sw   r9, 0(r8)
                    la   r8, lock
                    sw   r0, 0(r8)
                    addi r18, r18, -1
                    b    work
            done:   beq  r20, r0, cexit
                    li   v0, 16         ; parent reaps child
                    li   a0, 0
                    syscall
                    la   r8, counter
                    lw   a0, 0(r8)
                    li   v0, 1
                    syscall
            cexit:  li   v0, 1
                    li   a0, 0
                    syscall
            "#,
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/race",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/sync.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    world.quantum = 13; // interleave aggressively
    assert_eq!(run(&mut world, &exe), 100);
}

#[test]
fn segment_heap_services() {
    // Guest allocates two nodes from a segment heap, links them, frees
    // one, and returns the surviving payload.
    let mut world = World::new();
    world
        .kernel
        .vfs
        .create_file("/shared/heapseg", 0o666, 1)
        .unwrap();
    let seg = world.kernel.vfs.path_to_addr("/shared/heapseg").unwrap();
    world
        .install_template(
            "/src/main.o",
            &format!(
                r#"
                .module main
                .text
                .globl main
                main:   li   a0, {seg}
                        li   a1, 4096
                        li   v0, 103        ; heap_init(seg, 4096)
                        syscall
                        bltz v0, fail
                        li   a0, {seg}
                        li   a1, 16
                        li   v0, 104        ; a = alloc(16)
                        syscall
                        or   r16, v0, r0
                        beq  r16, r0, fail
                        li   a0, {seg}
                        li   a1, 16
                        li   v0, 104        ; b = alloc(16)
                        syscall
                        or   r17, v0, r0
                        beq  r17, r0, fail
                        ; b->payload = 424242 (stores fault-map the segment)
                        li   r9, 424242
                        sw   r9, 0(r17)
                        ; free(a)
                        li   a0, {seg}
                        or   a1, r16, r0
                        li   v0, 105
                        syscall
                        lw   v0, 0(r17)
                        jr   ra
                fail:   li   v0, 1
                        li   a0, -1
                        syscall
                "#
            ),
        )
        .unwrap();
    let exe = world
        .link("/bin/h", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    assert_eq!(run(&mut world, &exe), 424242);
    // The heap state persists in the file: a second process can attach
    // and allocate again (reusing the freed block).
    let exe2 = exe.clone();
    assert_eq!(run(&mut world, &exe2), 424242);
}

/// The heap services act with the caller's rights: a uid-1 guest can
/// neither initialise, allocate from nor free into a root-owned 0600
/// segment, and the segment is left as it was; root can.
#[test]
fn segment_heap_services_need_write_access() {
    let mut world = World::new();
    world
        .kernel
        .vfs
        .create_file("/shared/private", 0o600, 0)
        .unwrap();
    let seg = world.kernel.vfs.path_to_addr("/shared/private").unwrap();
    world
        .install_template(
            "/src/main.o",
            &format!(
                r#"
                .module main
                .text
                .globl main
                main:   li   a0, {seg}
                        li   a1, 4096
                        li   v0, 103        ; heap_init(seg, 4096)
                        syscall
                        or   a0, v0, r0
                        li   v0, 106        ; print_int
                        syscall
                        li   a0, {seg}
                        li   a1, 16
                        li   v0, 104        ; alloc(16)
                        syscall
                        sltu a0, r0, v0     ; print whether it allocated
                        li   v0, 106
                        syscall
                        li   a0, {seg}
                        li   a1, {seg}
                        li   v0, 105        ; free(seg)
                        syscall
                        or   a0, v0, r0
                        li   v0, 106
                        syscall
                        li   v0, 0
                        jr   ra
                "#
            ),
        )
        .unwrap();
    let exe = world
        .link("/bin/h", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    let mut run_as = |uid| {
        let pid = world.spawn_with(&exe, "/", uid, &[]).unwrap();
        assert_eq!(world.run(500_000), WorldExit::AllExited, "{:?}", world.log);
        assert_eq!(world.exit_code(pid), Some(0), "{:?}", world.log);
        (
            world.console(pid),
            world.kernel.vfs.read_all("/shared/private").unwrap(),
        )
    };
    let (denied, bytes) = run_as(1);
    assert_eq!(denied, "-13\n0\n-13\n", "EACCES, no block, EACCES");
    assert!(bytes.is_empty(), "a denied init grows nothing");
    let (root, bytes) = run_as(0);
    assert_eq!(bytes.len(), 4096, "root's init grows the segment");
    assert!(
        root.starts_with("0\n1\n"),
        "root initialises and allocates: {root}"
    );
}

/// A failed allocation is a null pointer, whatever failed: a heap never
/// initialised in its segment, or an address with no segment at all.
#[test]
fn segment_heap_alloc_failure_is_null() {
    let mut world = World::new();
    world
        .kernel
        .vfs
        .create_file("/shared/empty", 0o666, 1)
        .unwrap();
    let seg = world.kernel.vfs.path_to_addr("/shared/empty").unwrap();
    let nowhere = seg + 7 * hsfs::SLOT_SIZE;
    world
        .install_template(
            "/src/main.o",
            &format!(
                r#"
                .module main
                .text
                .globl main
                main:   li   a0, {seg}
                        li   a1, 16
                        li   v0, 104        ; alloc(16), no heap there
                        syscall
                        or   a0, v0, r0
                        li   v0, 106        ; print_int
                        syscall
                        li   a0, {nowhere}
                        li   a1, 16
                        li   v0, 104        ; alloc(16), no segment there
                        syscall
                        or   a0, v0, r0
                        li   v0, 106
                        syscall
                        li   v0, 0
                        jr   ra
                "#
            ),
        )
        .unwrap();
    let exe = world
        .link("/bin/h", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(world.run(500_000), WorldExit::AllExited, "{:?}", world.log);
    assert_eq!(world.console(pid), "0\n0\n");
}

#[test]
fn setenv_inherited_by_fork_children() {
    let mut world = World::new();
    world
        .install_template(
            "/src/main.o",
            r#"
            .module main
            .text
            .globl main
            main:   li   v0, 107        ; setenv("MARK", "7")
                    la   a0, name
                    la   a1, val
                    syscall
                    li   v0, 6          ; fork
                    syscall
                    bne  v0, r0, parent
                    ; child: getenv("MARK") into buf; exit(buf[0]-'0')
                    li   v0, 27
                    la   a0, name
                    la   a1, buf
                    li   a2, 8
                    syscall
                    la   r8, buf
                    lb   a0, 0(r8)
                    addi a0, a0, -48
                    li   v0, 1
                    syscall
            parent: li   v0, 16
                    li   a0, 0
                    syscall
                    or   a0, v1, r0
                    li   v0, 1
                    syscall
            .data
            name:   .asciiz "MARK"
            val:    .asciiz "7"
            buf:    .space 8
            "#,
        )
        .unwrap();
    let exe = world
        .link("/bin/env", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    assert_eq!(run(&mut world, &exe), 7);
}

#[test]
fn link_module_and_lookup_symbol() {
    // The explicit dlopen/dlsym-style interface: load a module by path at
    // run time, look up its export, call through the pointer.
    let mut world = World::new();
    world
        .install_template(
            "/shared/lib/plugin.o",
            ".module plugin\n.text\n.globl plugin_fn\nplugin_fn: li v0, 1234\njr ra\n",
        )
        .unwrap();
    world
        .install_template(
            "/src/main.o",
            r#"
            .module main
            .text
            .globl main
            main:   addi sp, sp, -8
                    sw   ra, 0(sp)
                    li   v0, 108        ; link_module(path, public)
                    la   a0, path
                    li   a1, 1
                    syscall
                    bltz v0, fail
                    li   v0, 109        ; lookup_symbol("plugin_fn")
                    la   a0, sym
                    syscall
                    beq  v0, r0, fail
                    jalr v0             ; call through the pointer
                    lw   ra, 0(sp)
                    addi sp, sp, 8
                    jr   ra
            fail:   li   v0, 1
                    li   a0, -1
                    syscall
            .data
            path:   .asciiz "/shared/lib/plugin.o"
            sym:    .asciiz "plugin_fn"
            "#,
        )
        .unwrap();
    let exe = world
        .link("/bin/dl", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    assert_eq!(run(&mut world, &exe), 1234);
}

#[test]
fn print_int_writes_console() {
    let mut world = World::new();
    world
        .install_template(
            "/src/main.o",
            ".module main\n.text\n.globl main\nmain: li a0, -42\nli v0, 106\nsyscall\nli v0, 0\njr ra\n",
        )
        .unwrap();
    let exe = world
        .link("/bin/p", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(world.run(100_000), WorldExit::AllExited);
    assert_eq!(world.console(pid), "-42\n");
}
