//! E12 — the decoded basic-block cache (DESIGN.md §12) is semantically
//! invisible.
//!
//! The cache is a host-speed optimization: `Cpu::run_block` executes
//! straight-line decoded runs instead of fetch→decode→dispatch per
//! instruction, and `hkernel` keeps one table of them, keyed by text
//! source and checked at every entry against the source page's epoch.
//! Nothing the guest — or the cost
//! model, or the sanitizer, or the chaos engine — can observe is allowed
//! to change. That is a lattice check (`tests/lattice.rs`): cache-on
//! and cache-off cells, pressured or not, on one or four CPUs, armed or
//! under chaos, agree in observables, race reports, simulated time,
//! trace and `WorldStats`, modulo the three `bblock` counters and the
//! cache's own 0-cost `BlockInvalidated` records. Four claims are
//! tested here:
//!
//! 1. **Invisibility at any quantum**: the cache slice of the lattice,
//!    swept at a random quantum, CPU count and budget.
//! 2. **Invalidation edges**: a guest store into a cached executable
//!    page aborts the in-flight block (self-modifying code executes the
//!    *new* bytes), clock eviction and swap-in under SMP pressure keep
//!    the victims' blocks, fork keeps the parent's blocks and starts the
//!    child cold, and no block survives a renewal of its page's epoch,
//!    however often the page is renewed.
//!    A block never outlives a text-epoch movement: the partial run
//!    retires exactly the instructions that executed and hands control
//!    back to the dispatch loop. The kernel's dispatch memo matches the
//!    cache-off run with more hot blocks than ways, colliding in one
//!    way, and a store into the loop's own text.
//! 3. **Shared text is decoded once per boot**: blocks decoded from a
//!    public module's pages are keyed by file, so every process uses
//!    them. A store by one process reaches every later one, neither a
//!    power cut nor inode reuse can hand out a block decoded from other
//!    bytes, and once every process has exited only they remain.
//! 4. **The switch** reconfigures live processes too.

mod common;

use common::{
    assert_same, block_drop_pids, half_budget, run_pressured, settle, sweep, Cell, Mask, Shape,
    Storage, WORKERS,
};
use hemlock::{ShareClass, World, WorldExit, WorldStats};
use hvm::Source;
use proptest::prelude::*;

fn trace_cause_count(world: &World, cause: &str) -> u64 {
    block_drop_pids(world, cause).len() as u64
}

/// A public function and a donor instruction to patch its first word
/// with: `func` returns 1 until patched, 77 after.
const PATCHMOD: &str = r#"
.module patchmod
.text
.globl func
func:   addi v0, r0, 1
        jr   ra
.globl donor
donor:  addi v0, r0, 77
"#;

/// main: exit with what `func` returns. It reads `donor` first, which
/// links the module and makes its page resident, so the call enters
/// `func` through the block table rather than the fetch slow path.
const CALLER: &str = r#"
.module caller
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        la   r9, donor
        lw   r9, 0(r9)
        jal  func
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;

/// main: patch `func`'s first word with `donor` through the module's
/// RWX text, exit 0.
const PATCHER: &str = r#"
.module patcher
.text
.globl main
main:   la   r9, donor
        lw   r10, 0(r9)
        la   r8, func
        sw   r10, 0(r8)
        li   v0, 0
        jr   ra
"#;

/// Installs `module` as the public template `/shared/lib/<name>.o` and
/// links `/bin/<main>` from `source` against it.
fn link_against(world: &mut World, module: (&str, &str), main: (&str, &str)) -> String {
    let template = format!("/shared/lib/{}.o", module.0);
    if world.kernel.vfs.resolve(&template).is_err() {
        world.install_template(&template, module.1).unwrap();
    }
    let object = format!("/src/{}.o", main.0);
    world.install_template(&object, main.1).unwrap();
    world
        .link(
            &format!("/bin/{}", main.0),
            &[
                (&object, ShareClass::StaticPrivate),
                (&template, ShareClass::DynamicPublic),
            ],
        )
        .unwrap()
}

/// Runs `exe` alone to completion and returns its pid.
fn run_alone(world: &mut World, exe: &str) -> hkernel::Pid {
    let pid = world.spawn(exe).unwrap();
    assert_eq!(world.run_to_completion(), WorldExit::AllExited);
    pid
}

/// The public instance's inode and `symbol`'s offset in it: the key of
/// the kernel's shared-text table.
fn text_key(world: &mut World, instance: &str, symbol: &str) -> (u32, u32) {
    let ino = world.kernel.vfs.resolve(instance).unwrap().ino;
    let meta = world.registry.get(&mut world.kernel.vfs, ino).unwrap();
    (ino, meta.find_export(symbol).unwrap() - meta.base)
}

/// The first instruction of the kernel's block at `key`, if it has one.
fn table_head(world: &World, key: (u32, u32)) -> Option<hvm::Instr> {
    let table = world.kernel.block_table();
    table.get(Source::file(key.0), key.1).map(|code| code[0])
}

/// `addi v0, r0, imm`: the first instruction of `func`, or of `donor`.
fn ret(imm: u16) -> hvm::Instr {
    hvm::Instr::Addi {
        rt: hvm::Reg::V0,
        rs: hvm::Reg::ZERO,
        imm,
    }
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
    assert!(on_world.stats().bblock_invalidations > 0);
}

/// Clock eviction under SMP pressure: the reclaim (running on the boot
/// CPU) swaps out private text pages whose blocks were built by victims
/// on other CPUs. Eviction and swap-in move the bytes to swap and back
/// unchanged, so they keep the page's text epoch and drop nothing: the
/// victims' next touches swap their text back in, their entries find
/// the blocks they built before (none is found stale or dropped), and
/// they still compute the same answers (a lattice check). Blocks are
/// budget-capped so none is ever mid-flight across a sub-quantum when a
/// remote reclaim runs: the "pinning" discipline is that eviction always
/// lands between blocks.
#[test]
fn evicted_text_is_entered_again_without_a_rebuild() {
    let budget = half_budget(common::world());
    let mut world = common::world();
    world.set_bbcache(true);
    world.set_cpus(4);
    let (on, on_world) = run_pressured(world, WORKERS, 300, Some(budget), None);
    assert_eq!(on.obs.settled, Ok(WorldExit::AllExited));
    let stats = on_world.stats();
    assert!(stats.page_evictions > 0, "budget {budget} must bind");
    assert!(stats.shootdowns > 0, "reclaim must cross CPUs");
    let text = hkernel::layout::TEXT_BASE..hkernel::layout::TEXT_END;
    let text_swap_ins = on_world
        .trace()
        .records()
        .filter_map(|r| match r.event {
            hemlock::TraceEvent::PageSwappedIn { addr } => Some(addr),
            _ => None,
        })
        .filter(|addr| text.contains(addr))
        .count();
    assert!(text_swap_ins > 0, "private text must swap back in");
    assert!(stats.bblock_hits > 0, "{stats:?}");
    assert_eq!(
        stats.bblock_invalidations,
        0,
        "eviction and swap-in drop no block:\n{}",
        on_world.trace_dump()
    );
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

/// Fork COW sharing leaves the parent's decoded blocks exact: COW keeps
/// its bytes, and a store into its text would renew the page's epoch
/// anyway. So
/// the fork drops nothing (no `fork` record), the parent re-enters the
/// loop it decoded before the fork as hits, never decoding a block
/// twice, the child starts cold, and the forked world matches its
/// cache-off twin.
#[test]
fn fork_flushes_parent_blocks_and_matches_cache_off() {
    const SHARED_CELL: &str = r#"
.module cell
.data
.globl cell
cell:   .word 0
"#;
    // Parent runs `spin`, forks and runs `spin` again; the child bumps
    // the shared cell and exits 7; the parent waits and exits with
    // cell+10.
    const FORKER: &str = r#"
.module main
.text
.globl main
main:   li   r16, 6
        jal  spin
        li   v0, 6          ; fork
        syscall
        bne  v0, r0, parent
        la   r8, cell
        li   r9, 7
        sw   r9, 0(r8)
        li   v0, 1          ; exit(7)
        li   a0, 7
        syscall
parent: li   r16, 6
        jal  spin           ; the loop decoded before the fork
        li   v0, 16         ; waitpid(any)
        li   a0, 0
        syscall
        la   r8, cell
        lw   r9, 0(r8)
        addi a0, r9, 10
        li   v0, 1          ; exit(cell + 10)
        syscall
.globl spin
spin:   addi r16, r16, -1
        bgtz r16, spin
        jr   ra
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
        // Run until the fork: the parent's slice ends in `waitpid`,
        // after its second pass through `spin`.
        while world.kernel.procs.len() < 2 {
            assert_eq!(world.run(1), WorldExit::StepLimit, "the parent forks");
        }
        let table = world.kernel.block_table();
        let image = &world.link_state(pid).unwrap().image_exports;
        assert_eq!(image["main"] / 4096, image["spin"] / 4096, "one text page");
        let cached = ["main", "spin"].map(|s| table.get(Source::space(pid), image[s]).is_some());
        let replay = settle(&mut world, &[pid], Mask::Nothing);
        (cached, replay, world)
    };
    let (cached, on, on_world) = run(true);
    let (_, off, _) = run(false);
    assert_eq!(off.obs.exits, vec![Some(17)], "child's 7 + 10");
    assert_same(
        on.view(&[Mask::BbCache]),
        off.view(&[Mask::BbCache]),
        "fork, cache on against off",
    );
    assert_eq!(
        trace_cause_count(&on_world, "fork"),
        0,
        "fork drops no block:\n{}",
        on_world.trace_dump()
    );
    // `main`'s first block ran only before the fork and is still
    // cached, so nothing dropped the page, and the second pass through
    // `spin`, on the same page, hit the blocks the first pass built.
    assert_eq!(cached, [true, true], "main's and spin's blocks survive");
}

/// Repeated renewal of a hot page's text epoch: the page's epoch only
/// moves up, so no block decoded before a renewal matches after it,
/// however often the page is renewed — no ABA match, the hazard of a
/// wrapping per-page generation that the test name recalls. We warm the
/// loop, then three times rewrite its page in place with its own bytes
/// (a host poke, as the linkers make) and run on: each time the loop's
/// next entry finds its block stale, drops it and decodes the page
/// again, and the world still finishes correctly.
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
    assert_eq!(world.run(20), WorldExit::StepLimit, "still mid-loop");
    for round in 0..3 {
        let kernel = &mut world.kernel;
        let proc = kernel.procs.get_mut(&pid).unwrap();
        let page = proc.cpu.pc & !(hsfs::PAGE_SIZE - 1);
        let shared = &mut kernel.vfs.shared;
        let bytes = proc
            .aspace
            .read_bytes(shared, page, hsfs::PAGE_SIZE as usize)
            .unwrap();
        proc.aspace
            .write_bytes(shared, &mut kernel.stats, page, &bytes)
            .unwrap();
        let (built, stale) = (
            world.stats().bblocks_built,
            trace_cause_count(&world, "stale"),
        );
        assert_eq!(world.run(20), WorldExit::StepLimit, "still mid-loop");
        assert!(
            trace_cause_count(&world, "stale") > stale,
            "round {round}: the loop's block outlived its page's renewal"
        );
        assert!(
            world.stats().bblocks_built > built,
            "round {round}: the loop must be decoded again"
        );
    }
    assert_eq!(world.run_to_completion(), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(0));
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

        let s = on_world.stats();
        assert!(s.bblock_hits > 0 && s.bblock_invalidations > 0, "{s:?}");
        assert!(trace_cause_count(&on_world, "store-exec") > 0);
    }
}

// --- 3. shared text -----------------------------------------------------

/// Process A runs a lazily linked public function, B patches its first
/// word through its own RWX text, and a fresh C calls it. B's store
/// drops the block A decoded from the kernel-wide table at once,
/// journaled under B's pid, so C's first entry misses the table and
/// decodes the patched bytes. Cache on and off agree modulo the cache's
/// own counters and records.
#[test]
fn a_store_into_shared_text_reaches_every_later_process() {
    let run = |cache: bool| {
        let mut world = World::new();
        world.set_bbcache(cache);
        let caller = link_against(&mut world, ("patchmod", PATCHMOD), ("caller", CALLER));
        let patcher = link_against(&mut world, ("patchmod", PATCHMOD), ("patcher", PATCHER));
        let a = run_alone(&mut world, &caller);
        let key = text_key(&mut world, "/shared/lib/patchmod", "func");
        let after_a = table_head(&world, key);
        let b = run_alone(&mut world, &patcher);
        let after_b = table_head(&world, key);
        let c = world.spawn(&caller).unwrap();
        let replay = settle(&mut world, &[a, b, c], Mask::Nothing);
        let after_c = table_head(&world, key);
        (replay, world, [a, b, c], [after_a, after_b, after_c])
    };
    let (on, on_world, [_, b, _], heads) = run(true);
    let (off, _, _, off_heads) = run(false);
    assert_eq!(off.obs.exits, [Some(1), Some(0), Some(77)], "reference");
    assert_same(
        on.view(&[Mask::BbCache]),
        off.view(&[Mask::BbCache]),
        "cache on against off",
    );
    // A decoded `func` into the table; B's store dropped it, so C's
    // first entry was a table miss that decoded the patched word.
    assert_eq!(heads, [Some(ret(1)), None, Some(ret(77))]);
    assert_eq!(off_heads, [None; 3], "cache off decodes nothing");
    assert_eq!(block_drop_pids(&on_world, "store-exec"), [b]);
    assert!(
        block_drop_pids(&on_world, "stale").is_empty(),
        "nothing was left for a lazy epoch check to find"
    );
}

/// Power cut: a public module's text is decoded, an un-barriered host
/// write patches that page, a process decodes the patched bytes, and
/// the power fails. The cut restarts the file system's write epochs, so
/// the kernel's table must go with it: after the reboot every process
/// runs what the disk holds, cache on equal to cache off.
#[test]
fn a_power_cut_empties_the_shared_text_table() {
    let run = |cache: bool| {
        let mut world = World::new();
        world.set_bbcache(cache);
        let caller = link_against(&mut world, ("patchmod", PATCHMOD), ("caller", CALLER));
        let a = run_alone(&mut world, &caller);
        world.barrier();
        let (ino, func) = text_key(&mut world, "/shared/lib/patchmod", "func");
        let donor = text_key(&mut world, "/shared/lib/patchmod", "donor").1;
        let bytes = world.kernel.vfs.shared.fs.file_bytes(ino).unwrap();
        let patch = bytes[donor as usize..donor as usize + 4].to_vec();
        world
            .kernel
            .vfs
            .write("/shared/lib/patchmod", u64::from(func), &patch)
            .unwrap();
        let b = run_alone(&mut world, &caller);
        let before_cut = table_head(&world, (ino, func));
        let kept = |s: WorldStats| {
            let bblocks = (s.bblocks_built, s.bblock_hits, s.bblock_invalidations);
            (bblocks, s.ldl)
        };
        let totals = kept(world.stats());
        world.power_cut();
        assert!(world.kernel.block_table().is_empty(), "the cut empties it");
        world.reboot();
        assert_eq!(kept(world.stats()), totals, "the totals outlive the cut");
        let on_disk = world.kernel.vfs.shared.fs.file_bytes(ino).unwrap()
            [func as usize..func as usize + 4]
            .to_vec();
        let c = world.spawn(&caller).unwrap();
        let replay = settle(&mut world, &[a, b, c], Mask::Nothing);
        (replay, before_cut, on_disk == patch)
    };
    let (on, before_cut, patched_on_disk) = run(true);
    let (off, _, _) = run(false);
    assert_same(
        on.view(&[Mask::BbCache]),
        off.view(&[Mask::BbCache]),
        "cache on against off",
    );
    assert_eq!(before_cut, Some(ret(77)), "B decoded the live patch");
    let after = if patched_on_disk { 77 } else { 1 };
    assert_eq!(off.obs.exits, [Some(1), Some(77), Some(after)]);
}

/// Inode reuse: a public module is run, its instance removed, and a
/// different module installed whose instance gets the same inode and
/// so the same global address. The table still holds the old module's
/// block under that `(ino, offset)`; the new module's first entry must
/// find it stale, drop it and decode the new bytes.
#[test]
fn a_reused_inode_never_returns_the_old_block() {
    const TWOMOD: &str = r#"
.module twomod
.text
.globl func
func:   addi v0, r0, 2
        jr   ra
.globl donor
donor:  .word 0
"#;
    let run = |cache: bool| {
        let mut world = World::new();
        world.set_bbcache(cache);
        let one = link_against(&mut world, ("patchmod", PATCHMOD), ("one", CALLER));
        let a = run_alone(&mut world, &one);
        let old = text_key(&mut world, "/shared/lib/patchmod", "func");
        world
            .install_template("/shared/lib/twomod.o", TWOMOD)
            .unwrap();
        world.registry.forget(&mut world.kernel.vfs, old.0);
        world.kernel.vfs.unlink("/shared/lib/patchmod").unwrap();
        let held = table_head(&world, old);
        let two = link_against(&mut world, ("twomod", TWOMOD), ("two", CALLER));
        let b = world.spawn(&two).unwrap();
        let replay = settle(&mut world, &[a, b], Mask::Nothing);
        let new = text_key(&mut world, "/shared/lib/twomod", "func");
        assert_eq!(new, old, "the new instance reuses the inode");
        let stale = block_drop_pids(&world, "stale");
        (replay, [held, table_head(&world, new)], stale, b)
    };
    let (on, heads, stale, b) = run(true);
    let (off, _, _, _) = run(false);
    assert_eq!(off.obs.exits, [Some(1), Some(2)], "reference");
    assert_same(
        on.view(&[Mask::BbCache]),
        off.view(&[Mask::BbCache]),
        "cache on against off",
    );
    assert_eq!(heads, [Some(ret(1)), Some(ret(2))]);
    assert_eq!(stale, [b], "the old block was found stale and dropped");
}

/// An exit takes the process's private blocks with it: once every
/// process has exited, the table holds only blocks decoded from the
/// public module's file, which a later process may still enter, and
/// none keyed by a dead pid.
#[test]
fn after_every_exit_the_table_holds_only_file_blocks() {
    let mut world = World::new();
    let caller = link_against(&mut world, ("patchmod", PATCHMOD), ("caller", CALLER));
    let pids = [0; 2].map(|_| run_alone(&mut world, &caller));
    assert_eq!(pids.map(|pid| world.exit_code(pid)), [Some(1); 2]);
    let keys: Vec<_> = world.kernel.block_table().keys().collect();
    assert!(!keys.is_empty(), "func's block stays for later callers");
    assert!(keys.iter().all(|(src, _)| src.is_file()), "{keys:?}");
    let built = world.stats().bblocks_built;
    assert!(built > keys.len() as u64, "private blocks were built too");
}

// --- 4. the switch ----------------------------------------------------

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
    let entries = |world: &World| {
        let s = world.stats();
        s.bblock_hits + s.bblocks_built
    };
    let warm = entries(&world);
    assert!(warm > 0, "cache must be warm before the switch");
    world.set_bbcache(false);
    assert_eq!(world.run_to_completion(), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(0), "log: {:?}", world.log);
    assert_eq!(entries(&world), warm, "no entries after the switch");
}
