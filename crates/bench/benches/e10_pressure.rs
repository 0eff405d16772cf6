//! E10 — memory pressure (DESIGN.md §10): resident set vs. slowdown.
//!
//! The shape: the same 4-worker run under a shrinking frame budget. The
//! answers never change — eviction is semantically invisible — but the
//! simulated time grows by exactly the pressure traffic the cost model
//! charges (writebacks, swap-outs, swap-ins, and the refaults that
//! bring evicted pages back). The rows pin both axes: the peak resident
//! set each budget permits and the simulated time the thrash costs.

use bench::{report_detailed, run_ok, sim_delta, sim_time};
use hemlock::{ShareClass, SimTime, World, WorldStats};

/// Workers in the scenario (cf. `tests/e10_pressure.rs`).
const WORKERS: usize = 4;

/// Shared data: per-worker result slots, a completion counter, and the
/// spin-lock word guarding it. Workers dirty this page, so eviction
/// takes a writeback.
const SHARED_DATA: &str = r#"
.module shared_data
.data
.globl results
results: .space 64
.globl done_count
done_count: .word 0
.globl done_lock
done_lock: .word 0
"#;

/// The worker: dirties its shared result slot early, churns three
/// passes over a 4-page private buffer (the anon working set the pool
/// must swap), then publishes its checksum and bumps `done_count`
/// under the test-and-set lock.
const WORKER: &str = r#"
.module worker
.text
.globl main
main:   la   r8, wid
        lw   r16, 0(r8)
        la   r8, results
        sll  r12, r16, 2
        add  r8, r8, r12
        sw   r0, 0(r8)
        li   r13, 3
pass:   la   r8, buf
        li   r9, 0
        li   r10, 16384
fill:   add  r11, r8, r9
        add  r12, r9, r16
        sw   r12, 0(r11)
        addi r9, r9, 256
        slt  r12, r9, r10
        bne  r12, r0, fill
        li   r17, 0
        li   r9, 0
sum:    add  r11, r8, r9
        lw   r12, 0(r11)
        add  r17, r17, r12
        addi r9, r9, 256
        slt  r12, r9, r10
        bne  r12, r0, sum
        addi r13, r13, -1
        bgtz r13, pass
        la   r8, results
        sll  r12, r16, 2
        add  r8, r8, r12
        sw   r17, 0(r8)
acq:    la   a0, done_lock
        li   a1, 1
        li   v0, 102           ; SVC_TAS
        syscall
        bne  v0, r0, acq
        la   r8, done_count
        lw   r9, 0(r8)
        addi r9, r9, 1
        sw   r9, 0(r8)
        la   r8, done_lock
        sw   r0, 0(r8)
        or   a0, r17, r0
        li   v0, 106           ; print_int(checksum)
        syscall
        li   v0, 0
        jr   ra
.data
.globl wid
wid:    .word 0
.globl buf
buf:    .space 16384
"#;

fn build_world() -> (World, String) {
    let mut world = World::new();
    world
        .install_template("/shared/lib/shared_data.o", SHARED_DATA)
        .unwrap();
    world.install_template("/src/worker.o", WORKER).unwrap();
    let exe = world
        .link(
            "/bin/worker",
            &[
                ("/src/worker.o", ShareClass::StaticPrivate),
                ("/shared/lib/shared_data.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    (world, exe)
}

/// One pressured run: spawn `WORKERS` wid-patched workers under
/// `budget` frames (or unbounded) on `cpus` simulated CPUs, run to
/// completion, and return the stats, the simulated delta, and the
/// concatenated consoles (the cross-budget identity check — each
/// worker's console depends only on its own arithmetic, so it must
/// survive any budget and any CPU count).
fn run_budget(budget: Option<u64>, cpus: u32) -> (WorldStats, SimTime, String) {
    run_budget_cache(budget, cpus, true)
}

fn run_budget_cache(budget: Option<u64>, cpus: u32, cache: bool) -> (WorldStats, SimTime, String) {
    let (mut world, exe) = build_world();
    world.set_cpus(cpus);
    world.set_bbcache(cache);
    if let Some(frames) = budget {
        world.set_frame_budget(frames);
    }
    let image_wid = {
        let bytes = world.kernel.vfs.read_all(&exe).unwrap();
        hobj::binfmt::decode_image(&bytes)
            .unwrap()
            .find_export("wid")
            .unwrap()
    };
    let mut pids = Vec::new();
    for id in 0..WORKERS {
        let pid = world.spawn(&exe).unwrap();
        let proc = world.kernel.procs.get_mut(&pid).unwrap();
        proc.aspace
            .write_bytes(
                &mut world.kernel.vfs.shared,
                &mut world.kernel.stats,
                image_wid,
                &(id as u32).to_le_bytes(),
            )
            .unwrap();
        pids.push(pid);
    }
    world.quantum = 300;
    let t0 = sim_time(&world);
    run_ok(&mut world);
    let consoles: String = pids.iter().map(|p| world.console(*p)).collect();
    for pid in &pids {
        assert_eq!(world.exit_code(*pid), Some(0));
    }
    (world.stats(), sim_delta(t0, sim_time(&world)), consoles)
}

fn simulated_table() {
    let mut rows = Vec::new();
    // Calibration row: the unbounded run fixes the peak working set and
    // the answer every bounded run must reproduce. Labels are stable
    // keys for the bench gate; the volatile observables (peak frames,
    // eviction and swap traffic) ride in the detail field.
    let (base, t_base, consoles) = run_budget(None, 1);
    assert_eq!(base.page_evictions, 0, "default budget is generous");
    let peak = base.peak_resident_frames;
    assert!(peak >= 16, "scenario touches a real working set ({peak})");
    rows.push((
        format!("{WORKERS} workers, unbounded"),
        t_base,
        format!("peak {peak} frames"),
    ));
    // Bounded rows: ½ and ¼ of the peak. The traffic counts are
    // deterministic; they are recorded (not compared) by the gate.
    for (name, div) in [("peak/2", 2u64), ("peak/4", 4)] {
        let budget = (peak / div).max(1);
        let (s, t, c) = run_budget(Some(budget), 1);
        assert_eq!(c, consoles, "eviction changed a guest observable");
        assert_eq!(s.oom_kills, 0, "swap absorbs the pressure");
        assert!(s.page_evictions > 0, "budget {budget} must bind");
        assert!(
            s.peak_resident_frames <= peak,
            "bounded peak cannot exceed the unbounded peak"
        );
        rows.push((
            format!("budget {name}"),
            t,
            format!(
                "{budget} frames; {} evictions, {} wb, {} swap-ins",
                s.page_evictions, s.page_writebacks, s.swap_ins
            ),
        ));
    }
    // Block-cache identity row: peak/2 pressure with the decoded-block
    // cache disabled reproduces the consoles *and* the simulated time
    // exactly — eviction-driven block drops are host-side only (E12).
    {
        let budget = (peak / 2).max(1);
        let on_t = rows
            .iter()
            .find(|(label, _, _)| label == "budget peak/2")
            .map(|(_, t, _)| *t)
            .unwrap();
        let (s, t, c) = run_budget_cache(Some(budget), 1, false);
        assert_eq!(c, consoles, "bbcache changed a guest observable");
        assert_eq!(t, on_t, "bbcache must not move simulated time");
        assert!(s.page_evictions > 0, "budget {budget} must bind");
        rows.push((
            "budget peak/2 (bbcache off)".into(),
            t,
            format!("{budget} frames; identical to cache-on run"),
        ));
    }
    // SMP rows: the same peak/2 pressure with the workers spread over
    // N CPUs. The extra simulated time is pure contention cost — the
    // shootdown IPIs reclaim must send when a victim's translations
    // sit on a remote CPU, plus cold TLBs from cross-CPU steals.
    let budget = (peak / 2).max(1);
    for cpus in [2u32, 4, 8] {
        let (s, t, c) = run_budget(Some(budget), cpus);
        assert_eq!(c, consoles, "CPU count changed a guest observable");
        assert_eq!(s.oom_kills, 0, "swap absorbs the pressure");
        assert!(s.page_evictions > 0, "budget {budget} must bind");
        rows.push((
            format!("budget peak/2, cpus={cpus}"),
            t,
            format!(
                "{} evictions, {} shootdowns, {} ipis, {} steals",
                s.page_evictions, s.shootdowns, s.ipis, s.cross_cpu_steals
            ),
        ));
    }
    report_detailed(
        "E10",
        "memory pressure — resident set vs. slowdown under frame budgets",
        &rows,
    );
}

fn main() {
    simulated_table();
}
