//! E7 — §5 fork semantics: "The child process that results from a fork
//! receives a copy of each segment in the private portion of the parent's
//! address space, and shares the single copy of each segment in the
//! public portion."
//!
//! Also the process lifecycle around it (DESIGN.md §10): an exited
//! process leaves the table and keeps only its exit record.

mod common;

use common::{build_counter, build_forkwait, run_prog, FORKWAIT_CHILDREN, FORKWAIT_SUM};
use hemlock::{ShareClass, World, WorldExit};
use std::sync::Arc;

/// A public module with a word both processes will touch.
const SHARED_CELL: &str = r#"
.module cell
.text
.globl cell_addr
cell_addr:
        la   v0, cell
        jr   ra
.data
.globl cell
cell:   .word 0
"#;

#[test]
fn fork_shares_public_and_copies_private() {
    // Parent writes 5 to a private word and 50 to the shared cell, forks;
    // child overwrites both (private→7, shared→70) and exits; parent then
    // reads: private must still be 5 (copied), shared must be 70
    // (genuinely shared). Exit code = private*100 + shared = 570.
    let mut world = World::new();
    world
        .install_template("/shared/lib/cell.o", SHARED_CELL)
        .unwrap();
    world
        .install_template(
            "/src/main.o",
            r#"
            .module main
            .text
            .globl main
            main:   addi sp, sp, -16
                    sw   ra, 0(sp)
                    jal  cell_addr
                    or   r16, v0, r0    ; r16 = &cell (public)
                    la   r17, priv      ; r17 = &priv (private)
                    li   r8, 5
                    sw   r8, 0(r17)
                    li   r8, 50
                    sw   r8, 0(r16)
                    li   v0, 6          ; fork
                    syscall
                    bne  v0, r0, parent
                    ; child: clobber both
                    li   r8, 7
                    sw   r8, 0(r17)
                    li   r8, 70
                    sw   r8, 0(r16)
                    li   v0, 1          ; exit(0)
                    li   a0, 0
                    syscall
            parent: li   v0, 16         ; waitpid(any)
                    li   a0, 0
                    syscall
                    lw   r8, 0(r17)     ; private: still 5
                    li   r9, 100
                    mult r8, r9
                    mflo r8
                    lw   r9, 0(r16)     ; shared: child's 70
                    add  a0, r8, r9
                    li   v0, 1
                    syscall
            .data
            priv:   .word 0
            "#,
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/forker",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/cell.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(
        world.run(300_000),
        WorldExit::AllExited,
        "log: {:?}",
        world.log
    );
    assert_eq!(world.exit_code(pid), Some(570), "log: {:?}", world.log);
    // COW actually copied at least one page (the child's private store).
    assert!(world.stats().cow_copies >= 1);
}

/// One shared record per public module: two processes and a fork
/// child that all map the same public module hold the registry's record
/// itself, not copies of it.
#[test]
fn processes_and_fork_children_share_one_module_record() {
    let mut world = World::new();
    world
        .install_template("/shared/lib/cell.o", SHARED_CELL)
        .unwrap();
    // Link the cell, fork, then both sides block forever on a fresh
    // semaphore, so every process is live when the world deadlocks.
    world
        .install_template(
            "/src/main.o",
            r#"
            .module main
            .text
            .globl main
            main:   jal  cell_addr
                    li   v0, 6          ; fork
                    syscall
                    li   v0, 12         ; sem_create(0)
                    li   a0, 0
                    syscall
                    or   a0, v0, r0
                    li   v0, 13         ; sem_p: never posted
                    syscall
            "#,
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/parked",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/cell.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let first = world.spawn(&exe).unwrap();
    world.spawn(&exe).unwrap();
    assert_eq!(
        world.run(300_000),
        WorldExit::Deadlock,
        "log: {:?}",
        world.log
    );
    let ino = world.kernel.vfs.resolve("/shared/lib/cell").unwrap().ino;
    let shared = world
        .registry
        .record(&mut world.kernel.vfs, ino)
        .unwrap()
        .clone();
    let pids: Vec<u32> = world.kernel.procs.keys().copied().collect();
    assert_eq!(pids.len(), 4, "two processes and their fork children");
    assert!(pids.iter().any(|p| world.kernel.procs[p].ppid == first));
    for pid in pids {
        let cell = world.link_state(pid).unwrap().module("cell").unwrap();
        assert!(
            Arc::ptr_eq(cell.record(), &shared),
            "pid {pid} holds a copy"
        );
    }
}

#[test]
fn parent_and_child_exit_fork_with_identical_pcs() {
    // "In all cases, the parent and child come out of the fork with
    // identical program counters" — both sides execute the same
    // instruction stream and are distinguished only by $v0.
    let mut world = World::new();
    world
        .install_template(
            "/src/main.o",
            r#"
            .module main
            .text
            .globl main
            main:   li   v0, 6
                    syscall
                    ; both run this; child returns 11, parent waits and
                    ; returns child_status + 1
                    beq  v0, r0, child
                    li   v0, 16
                    li   a0, 0
                    syscall
                    addi a0, v1, 1
                    li   v0, 1
                    syscall
            child:  li   v0, 1
                    li   a0, 11
                    syscall
            "#,
        )
        .unwrap();
    let exe = world
        .link("/bin/f", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(world.run(200_000), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(12));
}

#[test]
fn forked_child_inherits_lazy_module_mappings() {
    // A child forked *before* a lazy module's first touch must be able
    // to trigger and complete the lazy link itself (the link state is
    // inherited).
    let mut world = World::new();
    world
        .install_template(
            "/shared/lib/late.o",
            r#"
            .module late
            .text
            .globl late_fn
            late_fn:
                    addi sp, sp, -8
                    sw   ra, 0(sp)
                    jal  helper_fn
                    addi v0, v0, 1
                    lw   ra, 0(sp)
                    addi sp, sp, 8
                    jr   ra
            .uses   helper
            "#,
        )
        .unwrap();
    world
        .install_template(
            "/shared/lib/helper.o",
            ".module helper\n.text\n.globl helper_fn\nhelper_fn: li v0, 41\njr ra\n",
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
                    li   v0, 6          ; fork before any touch of `late`
                    syscall
                    bne  v0, r0, parent
                    jal  late_fn        ; child triggers the lazy link
                    or   a0, v0, r0
                    li   v0, 1
                    syscall
            parent: li   v0, 16
                    li   a0, 0
                    syscall
                    or   a0, v1, r0     ; propagate child's status (42)
                    li   v0, 1
                    syscall
            "#,
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/f",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/late.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(
        world.run(400_000),
        WorldExit::AllExited,
        "log: {:?}",
        world.log
    );
    assert_eq!(world.exit_code(pid), Some(42), "log: {:?}", world.log);
}

#[test]
fn concurrent_children_share_one_public_cell() {
    // N children each bump the shared cell through kernel semaphores for
    // mutual exclusion; the sum must equal the bump count.
    let mut world = World::new();
    world
        .install_template("/shared/lib/cell.o", SHARED_CELL)
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
                    jal  cell_addr
                    or   r16, v0, r0    ; &cell
                    li   v0, 12         ; sem_create(1) = mutex
                    li   a0, 1
                    syscall
                    or   r17, v0, r0
                    li   r18, 4         ; fork 4 children
            spawn:  blez r18, waitall
                    li   v0, 6
                    syscall
                    beq  v0, r0, work
                    addi r18, r18, -1
                    b    spawn
            work:   li   r19, 25        ; 25 bumps each
            loop:   blez r19, done
                    li   v0, 13         ; P(mutex)
                    or   a0, r17, r0
                    syscall
                    lw   r8, 0(r16)
                    addi r8, r8, 1
                    sw   r8, 0(r16)
                    li   v0, 14         ; V(mutex)
                    or   a0, r17, r0
                    syscall
                    addi r19, r19, -1
                    b    loop
            done:   li   v0, 1
                    li   a0, 0
                    syscall
            waitall:
                    li   r18, 4
            reap:   blez r18, finish
                    li   v0, 16
                    li   a0, 0
                    syscall
                    addi r18, r18, -1
                    b    reap
            finish: lw   a0, 0(r16)
                    li   v0, 1
                    syscall
            "#,
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/par",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/cell.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    // Small quantum to force interleaving between the children.
    world.quantum = 17;
    assert_eq!(
        world.run(2_000_000),
        WorldExit::AllExited,
        "log: {:?}",
        world.log
    );
    assert_eq!(world.exit_code(pid), Some(100), "log: {:?}", world.log);
}

#[test]
fn forked_children_start_with_zeroed_linker_stats() {
    // The parent links `counter` lazily before it forks. Each child
    // inherits the link (it takes no fault of its own), and the world's
    // one set of linker counters counts that link once, so every
    // linker counter still equals its record tally.
    let mut world = World::new();
    let exe = build_forkwait(&mut world);
    assert_eq!(run_prog(&mut world, &exe), (FORKWAIT_SUM, String::new()));
    world.audit().unwrap();
    let stats = world.stats();
    assert_eq!((stats.kernel.forks, stats.ldl.lazy_links), (3, 1));
}

#[test]
fn kill_leaves_exited_and_unknown_pids_alone() {
    let mut world = World::new();
    let san = world.arm_sanitizer();
    let exe = build_counter(&mut world);
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(world.run(300_000), WorldExit::AllExited);
    let edges = san.lock().unwrap().sync_edges();
    world.kill(pid, 9);
    world.kill(9999, 3);
    assert_eq!(world.exit_code(pid), Some(1), "an exit status is final");
    assert_eq!(
        world.exit_code(9999),
        None,
        "no status for a pid never spawned"
    );
    assert_eq!(
        san.lock().unwrap().sync_edges(),
        edges,
        "no second exit edge"
    );
}

#[test]
fn a_world_keeps_only_live_processes() {
    // One world runs the counter program many times, then the fork-wait
    // program: every exit leaves the process table and the runtime's
    // per-process state, while its status and console stay readable.
    let mut world = World::new();
    let exe = build_counter(&mut world);
    let mut pids = Vec::new();
    for run in 1..=2000 {
        let pid = world.spawn(&exe).unwrap();
        assert_eq!(world.run(300_000), WorldExit::AllExited);
        assert!(world.kernel.procs.is_empty(), "run {run}: table not empty");
        assert!(
            world.link_state(pid).is_none(),
            "run {run}: link state kept"
        );
        assert_eq!(world.exit_code(pid), Some(run), "run {run}");
        assert_eq!(world.console(pid), "", "run {run}");
        pids.push(pid);
    }
    for (run, pid) in (1..).zip(pids) {
        assert_eq!(world.exit_code(pid), Some(run));
    }
    // Fork children are born into and reaped from the same table: the
    // parent and every child it waited for leave no per-process state.
    let exe = build_forkwait(&mut world);
    for run in 1..=200 {
        let pid = world.spawn(&exe).unwrap();
        assert_eq!(world.run(300_000), WorldExit::AllExited);
        assert!(
            world.kernel.procs.is_empty(),
            "fork run {run}: table not empty"
        );
        let children = pid + 1..=pid + FORKWAIT_CHILDREN as u32;
        for p in std::iter::once(pid).chain(children.clone()) {
            assert!(
                world.link_state(p).is_none(),
                "fork run {run}: pid {p}'s link state kept"
            );
        }
        let sum = children
            .map(|child| world.exit_code(child).expect("the child exited"))
            .sum();
        assert_eq!(world.exit_code(pid), Some(sum), "fork run {run}");
    }
    world.audit().unwrap();
}
