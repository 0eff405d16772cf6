//! E12 — the decoded basic-block cache (DESIGN.md §12) is semantically
//! invisible.
//!
//! The cache is a host-speed optimization: `Cpu::run_block` executes
//! straight-line decoded runs instead of fetch→decode→dispatch per
//! instruction, and `hkernel` drops cached blocks on exactly the events
//! that already invalidate the TLB. Nothing the guest — or the cost
//! model, or the sanitizer, or the chaos engine — can observe is allowed
//! to change. That is a lattice check (`tests/lattice.rs`): cache-on
//! and cache-off cells, pressured or not, on one or four CPUs, armed or
//! under chaos, agree in observables, race reports, simulated time,
//! trace and `WorldStats`, modulo the three `bblock` counters and the
//! cache's own 0-cost `BlockInvalidated` records. Three claims are
//! tested here:
//!
//! 1. **Invisibility at any quantum**: the cache slice of the lattice,
//!    swept at a random quantum, CPU count and budget.
//! 2. **Invalidation edges**: a guest store into a cached executable
//!    page aborts the in-flight block (self-modifying code executes the
//!    *new* bytes), clock eviction under SMP pressure drops the victim's
//!    blocks, fork flushes the parent and starts the child cold, and a
//!    generation-counter wraparound flushes rather than ABA-matching.
//!    A block never outlives a text-epoch movement: the partial run
//!    retires exactly the instructions that executed and hands control
//!    back to the dispatch loop. The kernel's dispatch memo matches the
//!    cache-off run with more hot blocks than ways, colliding in one
//!    way, and a store into the loop's own text.
//! 3. **The switch** reconfigures live processes too.

mod common;

use common::{
    assert_same, half_budget, run_pressured, settle, sweep, Cell, Mask, Shape, Storage, WORKERS,
};
use hemlock::{ShareClass, World, WorldExit};
use proptest::prelude::*;

fn trace_cause_count(world: &World, cause: &str) -> u64 {
    world
        .trace()
        .records()
        .filter(|r| match &r.event {
            hemlock::TraceEvent::BlockInvalidated { cause: c, .. } => *c == cause,
            _ => false,
        })
        .count() as u64
}

// --- 1. the differential property -------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// For any quantum, cpus ∈ {1,4}, pressured or not: cache-on and
    /// cache-off cells are indistinguishable in every observable, the
    /// simulated clock, the trace stream, and `WorldStats` modulo the
    /// three `bblock` counters, and the fast path is really taken.
    #[test]
    fn cache_is_semantically_invisible(
        quantum in 100u64..500,
        four_cpus in 0u32..2,
        pressured in 0u32..2,
    ) {
        let cpus = if four_cpus == 1 { 4 } else { 1 };
        let cells = Cell::slice(|c| {
            c.storage == Storage::Integrity
                && !c.sanitizer
                && c.cpus == cpus
                && (pressured == 1 || !c.half_budget)
        });
        let stats = sweep(Shape::Pressure, quantum, &cells);
        for (cell, s) in cells.iter().zip(&stats) {
            prop_assert_eq!(s.bblock_hits > 0, cell.bbcache, "{:?}", cell);
            prop_assert!(s.bblock_invalidations <= s.bblocks_built, "{:?}", s);
        }
    }
}

// --- 2. invalidation edges --------------------------------------------

/// Self-modifying code: private text is W^X (a guest store into it
/// segfaults, cache or no cache), but a lazily-linked public module's
/// text is mapped RWX — so a guest can patch a function it has already
/// executed *and cached*. The store must drop the stale block (the
/// bus's W^X dirty hook) and abort the in-flight run (text epoch), so
/// the second call executes the *patched* bytes, exactly as it does
/// with the cache off. Without the hook the stale decoded `addi v0, 1`
/// would win and the run would exit 1.
#[test]
fn store_into_cached_executable_page_aborts_the_running_block() {
    const PATCHMOD: &str = r#"
.module patchmod
.text
.globl func
func:   addi v0, r0, 1
        jr   ra
.globl donor
donor:  addi v0, r0, 77
"#;
    const MAIN: &str = r#"
.module main
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        jal  func           ; warm the cache: v0 = 1
        la   r9, donor
        lw   r10, 0(r9)
        la   r8, func
        sw   r10, 0(r8)     ; patch func's first instruction
        jal  func           ; must run the patched bytes: v0 = 77
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;
    let run = |cache: bool| {
        let mut world = World::new();
        world.set_bbcache(cache);
        world
            .install_template("/shared/lib/patchmod.o", PATCHMOD)
            .unwrap();
        world.install_template("/src/main.o", MAIN).unwrap();
        let exe = world
            .link(
                "/bin/smc",
                &[
                    ("/src/main.o", ShareClass::StaticPrivate),
                    ("/shared/lib/patchmod.o", ShareClass::DynamicPublic),
                ],
            )
            .unwrap();
        let pid = world.spawn(&exe).unwrap();
        assert_eq!(world.run_to_completion(), WorldExit::AllExited);
        (world.exit_code(pid), world)
    };
    let (on_code, on_world) = run(true);
    let (off_code, _) = run(false);
    assert_eq!(off_code, Some(77), "reference semantics: patched byte wins");
    assert_eq!(on_code, off_code, "cached run executed stale bytes");
    // The W^X dirty hook fired and dropped the warmed block.
    assert!(
        trace_cause_count(&on_world, "store-exec") > 0,
        "store-exec invalidation missing:\n{}",
        on_world.trace_dump()
    );
    assert!(on_world.kernel.bb_stats().invalidations > 0);
}

/// Clock eviction under SMP pressure: the reclaim (running on the boot
/// CPU) evicts text pages whose blocks were built by victims on other
/// CPUs. The blocks drop with the page — visibly, via `BlockInvalidated
/// cause=evict` — and the victims re-fault, re-page, rebuild, and still
/// compute the same answers (a lattice check). Blocks are budget-capped so none is ever
/// mid-flight across a sub-quantum when a remote reclaim runs: the
/// "pinning" discipline is that eviction always lands between blocks.
#[test]
fn eviction_drops_cached_blocks_built_on_other_cpus() {
    let budget = half_budget(common::world());
    let mut world = common::world();
    world.set_bbcache(true);
    world.set_cpus(4);
    let (on, on_world) = run_pressured(world, WORKERS, 300, Some(budget), None);
    assert_eq!(on.obs.settled, Ok(WorldExit::AllExited));
    let stats = on_world.stats();
    assert!(stats.page_evictions > 0, "budget {budget} must bind");
    assert!(stats.shootdowns > 0, "reclaim must cross CPUs");
    assert!(
        trace_cause_count(&on_world, "evict") > 0,
        "evictions must drop cached blocks"
    );
    let bb = on_world.kernel.bb_stats();
    assert_eq!(bb.hits + bb.built, bb.entries, "{bb:?}");
    assert!(bb.invalidations <= bb.built, "{bb:?}");
}

/// `run_block` pins nothing across a text-epoch movement: the moment
/// the bus reports a moved epoch (here, the block's own store — the
/// same signal a cross-CPU invalidation raises), the partial run stops,
/// retires exactly the instructions that executed, and returns control
/// to the dispatch loop with no outcome pending.
#[test]
fn run_block_aborts_and_partially_retires_on_epoch_movement() {
    use hvm::{Bus, Cpu, Fault, Reg};

    /// 64 KB flat memory whose text epoch moves on every store.
    struct EpochBus {
        mem: Vec<u8>,
        epoch: u64,
    }
    impl Bus for EpochBus {
        fn fetch(&mut self, addr: u32) -> Result<u32, Fault> {
            self.load32(addr)
        }
        fn load8(&mut self, addr: u32) -> Result<u8, Fault> {
            Ok(self.mem[addr as usize])
        }
        fn load16(&mut self, addr: u32) -> Result<u16, Fault> {
            let a = addr as usize;
            Ok(u16::from_le_bytes(self.mem[a..a + 2].try_into().unwrap()))
        }
        fn load32(&mut self, addr: u32) -> Result<u32, Fault> {
            let a = addr as usize;
            Ok(u32::from_le_bytes(self.mem[a..a + 4].try_into().unwrap()))
        }
        fn store8(&mut self, addr: u32, val: u8) -> Result<(), Fault> {
            self.mem[addr as usize] = val;
            self.epoch += 1;
            Ok(())
        }
        fn store16(&mut self, addr: u32, val: u16) -> Result<(), Fault> {
            self.mem[addr as usize..addr as usize + 2].copy_from_slice(&val.to_le_bytes());
            self.epoch += 1;
            Ok(())
        }
        fn store32(&mut self, addr: u32, val: u32) -> Result<(), Fault> {
            self.mem[addr as usize..addr as usize + 4].copy_from_slice(&val.to_le_bytes());
            self.epoch += 1;
            Ok(())
        }
        fn text_epoch(&mut self) -> u64 {
            self.epoch
        }
    }

    // addi r8,r8,1 ×3; sw r8,0x100(r0); addi r8,r8,1 ×2; jr ra — the
    // store moves the epoch, so the block must stop after 4 retired.
    let asm = "\
.module t\n.text\n.globl main\n\
main: addi r8, r8, 1\naddi r8, r8, 1\naddi r8, r8, 1\n\
sw r8, 256(r0)\naddi r8, r8, 1\naddi r8, r8, 1\njr ra\n";
    let obj = hobj::hasm::assemble("t", asm).unwrap();
    let code = hvm::bbcache::decode_run(&obj.text);
    assert_eq!(code.len(), 7, "whole run decodes up to the terminator");

    let mut bus = EpochBus {
        mem: vec![0u8; 1 << 16],
        epoch: 0,
    };
    bus.mem[..obj.text.len()].copy_from_slice(&obj.text);
    let mut cpu = Cpu::new();
    cpu.pc = 0;
    let (ran, outcome) = cpu.run_block(&mut bus, &code, 1_000);
    assert_eq!(ran, 4, "3 addis + the store retire, then the abort");
    assert_eq!(outcome, None, "abort is not an outcome — redispatch");
    assert_eq!(cpu.reg(Reg(8)), 3, "post-store addis did not run");
    assert_eq!(cpu.pc, 16, "pc parked on the first unexecuted instruction");

    // The dispatch loop re-enters from the parked pc and finishes.
    let tail = hvm::bbcache::decode_run(&obj.text[16..]);
    let (ran2, outcome2) = cpu.run_block(&mut bus, &tail, 1_000);
    assert_eq!((ran2, outcome2), (3, None), "2 addis + the retiring jr");
}

/// Fork COW un-sharing: the parent's cache is flushed at the fork (its
/// pages un-share underneath it) and the child starts cold — and the
/// forked world still computes exactly what the cache-off twin does.
#[test]
fn fork_flushes_parent_blocks_and_matches_cache_off() {
    const SHARED_CELL: &str = r#"
.module cell
.data
.globl cell
cell:   .word 0
"#;
    // Parent spins enough to cache its loop, forks; child bumps the
    // shared cell and exits 7; parent waits and exits with cell+10.
    const FORKER: &str = r#"
.module main
.text
.globl main
main:   li   r16, 6
warm:   addi r16, r16, -1
        bgtz r16, warm
        li   v0, 6          ; fork
        syscall
        bne  v0, r0, parent
        la   r8, cell
        li   r9, 7
        sw   r9, 0(r8)
        li   v0, 1          ; exit(7)
        li   a0, 7
        syscall
parent: li   v0, 16         ; waitpid(any)
        li   a0, 0
        syscall
        la   r8, cell
        lw   r9, 0(r8)
        addi a0, r9, 10
        li   v0, 1          ; exit(cell + 10)
        syscall
"#;
    let run = |cache: bool| {
        let mut world = World::new();
        world.set_bbcache(cache);
        world
            .install_template("/shared/lib/cell.o", SHARED_CELL)
            .unwrap();
        world.install_template("/src/main.o", FORKER).unwrap();
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
        assert_eq!(world.run_to_completion(), WorldExit::AllExited);
        (world.exit_code(pid), world)
    };
    let (on_code, on_world) = run(true);
    let (off_code, _) = run(false);
    assert_eq!(off_code, Some(17), "child's 7 + 10");
    assert_eq!(on_code, off_code);
    assert!(
        trace_cause_count(&on_world, "fork") > 0,
        "fork must flush the parent's warmed cache:\n{}",
        on_world.trace_dump()
    );
}

/// Generation-counter wraparound: when a page's generation stamp wraps,
/// the cache must flush (epoch bump) rather than let a stale block
/// ABA-match the reset stamp. We warm the cache, pin the hot page's
/// generation to `u32::MAX` (restamping its live blocks), force one
/// more invalidation to wrap it, and the world still finishes correctly
/// with the whole cache demonstrably rebuilt.
#[test]
fn generation_wraparound_flushes_instead_of_aba_matching() {
    const SPINNER: &str = r#"
.module spin
.text
.globl main
main:   li   r16, 50000
loop:   addi r16, r16, -1
        bgtz r16, loop
        li   v0, 0
        jr   ra
"#;
    let mut world = World::new();
    world.install_template("/src/spin.o", SPINNER).unwrap();
    let exe = world
        .link("/bin/spin", &[("/src/spin.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    world.quantum = 50;
    assert_eq!(world.run(40), WorldExit::StepLimit, "still mid-loop");

    let proc = world.kernel.procs.get_mut(&pid).unwrap();
    let vp = proc.cpu.pc / hsfs::PAGE_SIZE;
    let bb = proc.aspace.bbcache_mut();
    assert!(!bb.is_empty(), "the loop must be cached by now");
    let epoch_before = bb.flush_epoch();
    let built_before = bb.stats().built;
    bb.force_gen(vp, u32::MAX);
    bb.invalidate_page(vp, "wrap-test"); // MAX + 1 wraps ⇒ full flush
    assert!(
        bb.flush_epoch() > epoch_before,
        "wraparound must bump the flush epoch"
    );
    assert!(bb.is_empty(), "nothing may survive the wrap");

    assert_eq!(world.run_to_completion(), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(0));
    let bb = world.kernel.bb_stats();
    assert!(
        bb.built > built_before,
        "the loop must have been rebuilt after the wrap: {bb:?}"
    );
    assert_eq!(bb.hits + bb.built, bb.entries);
}

/// The kernel's dispatch memo (four ways of block code, indexed by
/// entry pc) is only a shortcut for `lookup`. A public function loops
/// through six hot blocks: five with 16-aligned entry pcs, which share
/// one way and evict each other, and one at an offset of 4 with a way
/// to itself, which the memo serves every iteration. Partway through,
/// the loop stores into that block's text, which must stale every
/// memoized block on the page. Exits, consoles, simulated time, trace
/// and `WorldStats` match the cache-off run modulo the block counters,
/// at a quantum that splits blocks and at one that does not, and every
/// block entry is either a hit or a build.
#[test]
fn dispatch_memo_matches_cache_off_across_colliding_blocks_and_a_text_store() {
    const MEMO: &str = r#"
.module memo
.text
.globl spin
spin:   li   v0, 0
        li   r10, 12
        li   r12, 6
        la   r8, b3
        la   r9, donor
        lw   r9, 0(r9)
        j    b0
.align 16
.globl b0
b0:     addi v0, v0, 1
        addi v0, v0, 1
        addi v0, v0, 1
        j    b1
b1:     addi v0, v0, 2
        addi v0, v0, 2
        addi v0, v0, 2
        j    b2
b2:     addi v0, v0, 3
        addi v0, v0, 3
        addi v0, v0, 3
        j    b3
        or   r0, r0, r0     ; never runs: puts b3 in a way of its own
.globl b3
b3:     addi v0, v0, 4      ; patched to `addi v0, v0, 100`
        addi v0, v0, 4
        addi v0, v0, 4
        j    b4
.align 16
b4:     addi r10, r10, -1
        sub  r11, r10, r12
        or   r0, r0, r0
        bne  r11, r0, b6    ; the patch runs once, when r10 reaches 6
b5:     or   r0, r0, r0
        or   r0, r0, r0
        sw   r9, 0(r8)      ; the store aborts b5; it resumes in way 3
        j    b6
.globl b6
b6:     or   r0, r0, r0
        or   r0, r0, r0
        or   r0, r0, r0
        bgtz r10, b0
        jr   ra
donor:  addi v0, v0, 100
"#;
    const MAIN: &str = r#"
.module main
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        jal  spin
        or   r16, v0, r0
        or   a0, v0, r0
        li   v0, 106        ; print_int(result)
        syscall
        or   v0, r16, r0
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;
    let run = |cache: bool, quantum: u64| {
        let mut world = World::new();
        world.set_bbcache(cache);
        world.install_template("/shared/lib/memo.o", MEMO).unwrap();
        world.install_template("/src/main.o", MAIN).unwrap();
        let exe = world
            .link(
                "/bin/memo",
                &[
                    ("/src/main.o", ShareClass::StaticPrivate),
                    ("/shared/lib/memo.o", ShareClass::DynamicPublic),
                ],
            )
            .unwrap();
        world.quantum = quantum;
        let pid = world.spawn(&exe).unwrap();
        let replay = settle(&mut world, &[pid], Mask::Nothing);
        (replay, world)
    };
    for quantum in [7, 1000] {
        let (on, on_world) = run(true, quantum);
        let (off, mut off_world) = run(false, quantum);
        // Iterations 1–6 add 3·(1+2+3+4) each, 7–12 add 3·(1+2+3) + 108.
        assert_eq!(off.obs.exits, [Some(936)], "reference semantics");
        assert_eq!(off.obs.consoles, ["936\n"]);
        let what = format!("quantum {quantum}: cache on against off");
        assert_same(on.view(&[Mask::BbCache]), off.view(&[Mask::BbCache]), &what);

        // The layout the ways are chosen by: b0, b6 and the blocks
        // between them at multiples of 16 bytes, b3 at an offset of 4.
        let export = |world: &mut World, sym: &str| {
            let ino = world.kernel.vfs.resolve("/shared/lib/memo").unwrap().ino;
            let meta = world.registry.get(&mut world.kernel.vfs, ino).unwrap();
            meta.find_export(sym).unwrap() % 16
        };
        let offsets = ["b0", "b3", "b6"].map(|sym| export(&mut off_world, sym));
        assert_eq!(offsets, [0, 4, 0]);

        let bb = on_world.kernel.bb_stats();
        assert_eq!(bb.hits + bb.built, bb.entries, "{bb:?}");
        assert!(bb.hits > 0 && bb.invalidations > 0, "{bb:?}");
        assert!(trace_cause_count(&on_world, "store-exec") > 0);
    }
}

// --- 3. the switch ----------------------------------------------------

/// `World::set_bbcache(false)` reconfigures *live* processes too: a
/// world switched off mid-run stops building and still finishes with
/// the same answers.
#[test]
fn cache_can_be_disabled_mid_run() {
    let mut world = World::new();
    let exe = common::build_pressure(&mut world);
    let pid = world.spawn(&exe).unwrap();
    world.quantum = 50;
    assert_eq!(world.run(20), WorldExit::StepLimit);
    let warm = world.kernel.bb_stats();
    assert!(warm.entries > 0, "cache must be warm before the switch");
    world.set_bbcache(false);
    assert_eq!(world.run_to_completion(), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(0), "log: {:?}", world.log);
    let cold = world.kernel.bb_stats();
    assert_eq!(cold.entries, warm.entries, "no entries after the switch");
}
