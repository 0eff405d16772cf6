//! E1 — the rwho comparison (§4): file-based vs. shared-memory database.
//!
//! Paper claim: on 65 machines the shared-memory rwho "saves a little
//! over a second each time it is called". The shape to reproduce: per-
//! invocation cost of the file version grows linearly with machine count
//! (open+read+parse per machine); the shared version is flat and orders
//! of magnitude cheaper.

use baseline::rwho_files::{HostStatus, RwhoFilesBaseline};
use bench::{report, run_ok, sim_delta, sim_time};
use hemlock::{ShareClass, World};

const DB_MODULE: &str = r#"
.module rwho_db
.data
.globl nhosts
nhosts: .word 0
.globl hosts
hosts:  .space 8320        ; up to 260 records x 32 bytes
"#;

/// rwho utility reading the shared DB.
const RWHO: &str = r#"
.module rwho
.text
.globl main
main:   la   r8, hosts
        la   r10, nhosts
        lw   r10, 0(r10)
        li   r16, 0
        li   r17, 0
loop:   slt  r9, r16, r10
        beq  r9, r0, done
        sll  r11, r16, 5
        add  r11, r8, r11
        lw   r12, 16(r11)
        add  r17, r17, r12
        addi r16, r16, 1
        b    loop
done:   or   v0, r17, r0
        jr   ra
"#;

fn files_world(machines: u32) -> (World, RwhoFilesBaseline) {
    let mut world = World::new();
    let b = RwhoFilesBaseline::default();
    b.setup(&mut world.kernel.vfs).unwrap();
    for i in 0..machines {
        b.daemon_receive(&mut world.kernel.vfs, &HostStatus::synthetic(i, 42))
            .unwrap();
    }
    (world, b)
}

fn shared_world(machines: u32) -> (World, String) {
    let mut world = World::new();
    world
        .install_template("/shared/lib/rwho_db.o", DB_MODULE)
        .unwrap();
    world.install_template("/src/rwho.o", RWHO).unwrap();
    let exe = world
        .link(
            "/bin/rwho",
            &[
                ("/src/rwho.o", ShareClass::StaticPrivate),
                ("/shared/lib/rwho_db.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    // First run creates the instance; then populate the database
    // host-side (the daemon's steady state).
    let pid = world.spawn(&exe).unwrap();
    run_ok(&mut world);
    let _ = pid;
    let vnode = world.kernel.vfs.resolve("/shared/lib/rwho_db").unwrap();
    let (base, hosts_addr, n_addr) = {
        let meta = world
            .registry
            .get(&mut world.kernel.vfs, vnode.ino)
            .unwrap();
        (
            meta.base,
            meta.find_export("hosts").unwrap(),
            meta.find_export("nhosts").unwrap(),
        )
    };
    let bytes = world
        .kernel
        .vfs
        .shared
        .fs
        .file_bytes_mut(vnode.ino)
        .unwrap();
    let n_off = (n_addr - base) as usize;
    bytes[n_off..n_off + 4].copy_from_slice(&machines.to_le_bytes());
    for i in 0..machines {
        let off = (hosts_addr - base) as usize + (i as usize) * 32;
        bytes[off + 16..off + 20].copy_from_slice(&(i % 5 + 1).to_le_bytes());
    }
    (world, exe)
}

fn simulated_table() {
    let mut rows = Vec::new();
    for machines in [5u32, 20, 65, 200] {
        let (mut world, b) = files_world(machines);
        let t0 = sim_time(&world);
        b.rwho(&mut world.kernel.vfs).unwrap();
        let file_cost = sim_delta(t0, sim_time(&world));
        rows.push((format!("file-based rwho, {machines} machines"), file_cost));

        let (mut world, exe) = shared_world(machines);
        let t0 = sim_time(&world);
        let pid = world.spawn(&exe).unwrap();
        run_ok(&mut world);
        assert_eq!(
            world.exit_code(pid).unwrap() as u32,
            (0..machines).map(|i| i % 5 + 1).sum::<u32>()
        );
        let shared_cost = sim_delta(t0, sim_time(&world));
        rows.push((format!("hemlock rwho,    {machines} machines"), shared_cost));
    }
    // SMP rows: 8 concurrent rwho readers over the 65-machine database,
    // spread across N simulated CPUs. Reads of an established shared
    // segment need no shootdowns, so the contention cost is only the
    // cold TLBs of cross-CPU steals — the rows pin that the multi-CPU
    // schedule leaves the per-invocation economics intact.
    for cpus in [1u32, 2, 4, 8] {
        let (mut world, exe) = shared_world(65);
        world.set_cpus(cpus);
        let t0 = sim_time(&world);
        let expected: u32 = (0..65).map(|i| i % 5 + 1).sum();
        let pids: Vec<_> = (0..8).map(|_| world.spawn(&exe).unwrap()).collect();
        run_ok(&mut world);
        for pid in pids {
            assert_eq!(world.exit_code(pid).unwrap() as u32, expected);
        }
        let cost = sim_delta(t0, sim_time(&world));
        rows.push((format!("hemlock rwho x8, 65 machines, cpus={cpus}"), cost));
    }
    // Block-cache identity row: the same 65-machine scan with the
    // decoded-block cache disabled costs *identical* simulated time —
    // the cache is a host-side accelerator only (E12 property).
    {
        let (mut world, exe) = shared_world(65);
        world.set_bbcache(false);
        let t0 = sim_time(&world);
        let pid = world.spawn(&exe).unwrap();
        run_ok(&mut world);
        assert_eq!(
            world.exit_code(pid).unwrap() as u32,
            (0..65).map(|i| i % 5 + 1).sum::<u32>()
        );
        let off_cost = sim_delta(t0, sim_time(&world));
        let on_cost = rows
            .iter()
            .find(|(label, _)| label == "hemlock rwho,    65 machines")
            .map(|(_, t)| *t)
            .unwrap();
        assert_eq!(off_cost, on_cost, "bbcache must not move simulated time");
        rows.push((
            "hemlock rwho,    65 machines (bbcache off)".into(),
            off_cost,
        ));
    }
    report("E1", "rwho — per-invocation cost vs. fleet size", &rows);
}

fn main() {
    simulated_table();
}
