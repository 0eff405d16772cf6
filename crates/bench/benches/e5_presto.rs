//! E5 — the Presto port (§4): shared variables placed by the linker vs.
//! the assembly post-processor.
//!
//! Paper numbers: the post-processor was "432 lines long (including 105
//! lines of lex source), and consumes roughly one quarter to one third
//! of total compilation time". With Hemlock, sharing costs one extra
//! linker argument; the per-job instance is selected with a temporary
//! directory + symlink + `LD_LIBRARY_PATH`.
//!
//! Measured here: (a) the full Hemlock parallel-app launch (template →
//! per-job instance → N workers synchronizing on shared data) actually
//! runs, and its cost as worker count grows; (b) the build-time model:
//! compile vs. compile+post-process, using the paper's 25–33% overhead.

use bench::{report, run_ok, sim_delta, sim_time};
use hemlock::{ShareClass, SimTime, World};

const SHARED_DATA: &str = r#"
.module shared_data
.data
.globl results
results: .space 128
.globl done_lock
done_lock: .word 0
"#;

const WORKER: &str = r#"
.module worker
.text
.globl main
main:   la   r8, wid
        lw   r16, 0(r8)
        li   r17, 0
        addi r9, r16, 1
        li   r10, 200
        li   r11, 8
sum:    slt  r12, r10, r9
        bne  r12, r0, store
        add  r17, r17, r9
        add  r9, r9, r11
        b    sum
store:  la   r8, results
        sll  r12, r16, 2
        add  r8, r8, r12
        sw   r17, 0(r8)
        li   v0, 0
        jr   ra
.data
.globl wid
wid:    .word 0
"#;

/// Launches `workers` processes sharing a per-job instance; returns the
/// world after completion. With `sanitize` the happens-before sanitizer
/// (E9) watches the whole run.
fn run_job(workers: usize, sanitize: bool) -> World {
    let mut world = World::new();
    world
        .install_template("/shared/templates/shared_data.o", SHARED_DATA)
        .unwrap();
    world.install_template("/src/worker.o", WORKER).unwrap();
    let exe = world
        .link(
            "/bin/worker",
            &[
                ("/src/worker.o", ShareClass::StaticPrivate),
                ("shared_data", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let job = "/shared/tmp/job";
    world.kernel.vfs.mkdir_all(job, 0o777, 1).unwrap();
    world
        .kernel
        .vfs
        .symlink(
            "/templates/shared_data.o",
            &format!("{job}/shared_data.o"),
            1,
        )
        .unwrap();
    let wid_addr = {
        let bytes = world.kernel.vfs.read_all(&exe).unwrap();
        hobj::binfmt::decode_image(&bytes)
            .unwrap()
            .find_export("wid")
            .unwrap()
    };
    if sanitize {
        world.arm_sanitizer();
    }
    let mut pids = Vec::new();
    for id in 0..workers {
        let pid = world
            .spawn_with(&exe, "/", 1, &[("LD_LIBRARY_PATH", job)])
            .unwrap();
        let proc = world.kernel.procs.get_mut(&pid).unwrap();
        proc.aspace
            .write_bytes(
                &mut world.kernel.vfs.shared,
                &mut world.kernel.stats,
                wid_addr,
                &(id as u32).to_le_bytes(),
            )
            .unwrap();
        pids.push(pid);
    }
    world.quantum = 64;
    run_ok(&mut world);
    for pid in pids {
        assert_eq!(world.exit_code(pid), Some(0), "{:?}", world.log);
    }
    world
}

fn simulated_table() {
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let world = run_job(workers, false);
        rows.push((
            format!("hemlock parallel job, {workers} workers"),
            sim_time(&world),
        ));
    }
    // E9 gate: the armed sanitizer is a pure observer, so its simulated
    // time must be *identical* to the unarmed run (well under the <3x
    // acceptance bound); the row pins that in the bench baseline.
    for workers in [2usize, 8] {
        let world = run_job(workers, true);
        let armed = sim_time(&world);
        let plain = rows
            .iter()
            .find(|(l, _)| *l == format!("hemlock parallel job, {workers} workers"))
            .map(|(_, t)| *t)
            .unwrap();
        assert_eq!(armed, plain, "sanitizer must add zero simulated time");
        assert_eq!(world.stats().races_detected, 0, "{:?}", world.log);
        rows.push((
            format!("hemlock parallel job, {workers} workers (sanitized)"),
            armed,
        ));
    }
    // Build-time model: suppose compiling the app costs C. The paper's
    // post-processor adds 25–33% per build; Hemlock adds ~one lds pass
    // over the shared-data module. Use the measured lds cost.
    let mut world = World::new();
    world
        .install_template("/shared/templates/shared_data.o", SHARED_DATA)
        .unwrap();
    world.install_template("/src/worker.o", WORKER).unwrap();
    let t0 = sim_time(&world);
    world
        .link(
            "/bin/worker",
            &[
                ("/src/worker.o", ShareClass::StaticPrivate),
                ("shared_data", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let link_cost = sim_delta(t0, sim_time(&world));
    let compile_cost = SimTime(link_cost.0 * 10); // compilation >> linking
    rows.push((
        "build: compile + asm post-processor (paper: +25-33%)".into(),
        SimTime(compile_cost.0 + compile_cost.0 * 29 / 100),
    ));
    rows.push((
        "build: compile + hemlock link flag".into(),
        SimTime(compile_cost.0 + link_cost.0),
    ));
    report(
        "E5",
        "Presto — parallel launch + build-overhead model",
        &rows,
    );
}

fn main() {
    simulated_table();
}
