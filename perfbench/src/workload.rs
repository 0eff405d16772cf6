//! The three seeded workloads, each driven through the public `World`
//! API one op at a time (closed loop, one benchmark thread: the simulator
//! is single-threaded).
//!
//! A *plan* is the seeded op sequence; a *pass* builds a fresh world
//! (the timed set-up) and replays the whole plan on it. Every pass of
//! one plan must produce identical counters and simulated time.

use crate::trace::Tracer;
use hemlock::{ShareClass, World, WorldExit, WorldStats};
use std::time::Duration;

/// Guest slices one op may take before it counts as `Unsettled`.
const SETTLE_SLICES: u64 = 2_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// §4 rwho readers scanning a shared host database on two CPUs.
    RwhoScan,
    /// Lazy and eager spawns of a 40-module chain across clean reboots.
    LinkBoot,
    /// Mapped stores, host writes, barriers, scrubs and power cuts.
    DurableUpdate,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::RwhoScan, Kind::LinkBoot, Kind::DurableUpdate];

    pub fn name(self) -> &'static str {
        match self {
            Kind::RwhoScan => "rwho_scan",
            Kind::LinkBoot => "link_boot",
            Kind::DurableUpdate => "durable_update",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One unit of work the benchmark times.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Set the database to `hosts` records, then run `count` concurrent
    /// readers to completion.
    Readers {
        count: u32,
        hosts: u32,
    },
    /// Spawn a chain executable and run it to completion.
    Spawn(Chain),
    /// Clean reboot; `poke` then stores that value into a shared word
    /// every chain snapshot depends on, making the snapshots stale.
    Reboot {
        poke: Option<u32>,
    },
    /// One writer process: bump the shared counter, stamp its log pages.
    Writer,
    /// Host-side write into a data file.
    VfsWrite(Write),
    Barrier,
    Scrub,
    /// `barrier()`, then a host write that only the journal holds when
    /// `power_cut()` strikes, then `reboot()`.
    PowerCycle(Write),
}

/// A host write of `blocks` 4 KiB blocks at block `block` of data file
/// `file`; every byte is derived from `fill`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Write {
    file: u32,
    block: u32,
    blocks: u32,
    fill: u8,
}

/// The chain executables. `Lazy` and `Eager` run in set-up, so every
/// timed spawn of theirs is warm: a boot's first spawn consults
/// the prelink snapshot, later ones respawn in the same boot. The
/// `Fresh*` ones are linked in set-up but first run in boot `b`: a
/// warm machine linking a program it has no snapshot for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chain {
    /// Lazily linked, touching this many modules.
    Lazy(u32),
    /// Eagerly linked, touching every module.
    Eager,
    FreshLazy {
        boot: u32,
        depth: u32,
    },
    FreshEager {
        boot: u32,
    },
}

impl Chain {
    fn exe(self) -> String {
        match self {
            Chain::Lazy(depth) => format!("/bin/lazy{depth}"),
            Chain::Eager => "/bin/eager".into(),
            Chain::FreshLazy { boot, .. } => format!("/bin/fresh_lazy{boot}"),
            Chain::FreshEager { boot } => format!("/bin/fresh_eager{boot}"),
        }
    }

    fn depth(self) -> u32 {
        match self {
            Chain::Lazy(depth) | Chain::FreshLazy { depth, .. } => depth,
            Chain::Eager | Chain::FreshEager { .. } => CHAIN,
        }
    }

    fn eager(self) -> bool {
        matches!(self, Chain::Eager | Chain::FreshEager { .. })
    }
}

/// How an eager chain spawn was linked, read from its counter deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkClass {
    SnapshotHit,
    FullResolve,
    SameBoot,
}

/// The seeded inputs of one run.
pub struct Plan {
    pub kind: Kind,
    /// Ops per world: a pass sets up a fresh world for each run of this
    /// many ops.
    pub segment: usize,
    /// rwho: the per-record value each host reports.
    pub values: Vec<u32>,
    /// durable_update: initial byte of each data file block.
    pub fill: u8,
    pub ops: Vec<Op>,
}

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Deals values from a fixed set in seeded order, reshuffling when the
/// set runs out, so every seed draws the same mix in a different order.
/// This keeps each workload's totals, and so its metrics, nearly the
/// same from seed to seed.
pub struct Deck<T> {
    cards: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    pub fn new(cards: Vec<T>) -> Deck<T> {
        Deck {
            cards,
            left: Vec::new(),
        }
    }

    pub fn deal(&mut self, rng: &mut Rng) -> T {
        if self.left.is_empty() {
            self.left = self.cards.clone();
            rng.shuffle(&mut self.left);
        }
        self.left.pop().expect("a deck holds at least one card")
    }
}

// --- rwho_scan -----------------------------------------------------------

/// Database capacity (records of 32 bytes; value at offset 16).
const RWHO_MAX_HOSTS: u32 = 260;
const RWHO_MIN_HOSTS: u32 = 65;
/// Reader batches per pass, and per world: a world keeps host state
/// for every process it has run, so a longer history would slow each
/// op and shift the cost away from interpretation.
const RWHO_BATCHES: usize = 1000;
const RWHO_SEGMENT: usize = 250;
/// Scan passes each reader makes over the database (cf. `RWHO_LOOP` in
/// the E1 bench): enough that interpretation, not spawn, dominates.
const RWHO_PASSES: u32 = 12;

const RWHO_DB: &str = r#"
.module rwho_db
.data
.globl nhosts
nhosts: .word 0
.globl hosts
hosts:  .space 8320
"#;

fn rwho_reader() -> String {
    format!(
        r#"
.module rwho
.text
.globl main
main:   li   r15, {RWHO_PASSES}
outer:  la   r8, hosts
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
        xor  r14, r14, r12
        sll  r13, r12, 2
        add  r19, r19, r13
        slt  r9, r12, r17
        add  r20, r20, r9
        addi r16, r16, 1
        b    loop
done:   addi r15, r15, -1
        bgtz r15, outer
        or   v0, r17, r0
        jr   ra
"#
    )
}

fn plan_rwho(rng: &mut Rng) -> Plan {
    let values = (0..RWHO_MAX_HOSTS)
        .map(|_| 1 + rng.below(9) as u32)
        .collect();
    // Host counts: an even grid over 65..=260, one batch each.
    let span = RWHO_MAX_HOSTS - RWHO_MIN_HOSTS;
    let mut hosts = Deck::new(
        (0..RWHO_BATCHES as u32)
            .map(|i| RWHO_MIN_HOSTS + i * span / (RWHO_BATCHES as u32 - 1))
            .collect(),
    );
    let mut counts = Deck::new(vec![1u32, 2, 3, 4]);
    let ops = (0..RWHO_BATCHES)
        .map(|_| Op::Readers {
            count: counts.deal(rng),
            hosts: hosts.deal(rng),
        })
        .collect();
    Plan {
        kind: Kind::RwhoScan,
        segment: RWHO_SEGMENT,
        values,
        fill: 0,
        ops,
    }
}

// --- link_boot -----------------------------------------------------------

const CHAIN: u32 = 40;
/// Touch depths of the fresh lazy executables.
const DEPTHS: [u32; 10] = [1, 2, 4, 7, 10, 14, 19, 25, 32, 40];
/// Touch depths of the warm lazy executables. They stop short of the
/// poked tail module: a warm consult of a snapshot that covers it can
/// take several times longer, and how many such consults a pass holds
/// would then hinge on the seed.
const WARM_DEPTHS: [u32; 9] = [1, 2, 4, 7, 10, 14, 19, 25, 32];
/// Boots per pass. Each boot is a clean reboot, one `FreshEager` and one
/// `FreshLazy` spawn, then two `Eager` and `LAZY_PER_BOOT` `Lazy` spawns
/// in seeded order.
const BOOTS: u32 = 125;
const LAZY_PER_BOOT: usize = 3;
/// One reboot in this many pokes the chain stale.
const STALE_EVERY: u32 = 3;

fn chain_module(i: u32) -> String {
    if i + 1 < CHAIN {
        format!(
            ".module mod{i}\n.uses mod{next}\n.text\n.globl mod{i}_fn\n\
             mod{i}_fn: addi sp, sp, -8\nsw ra, 0(sp)\n\
             addi a0, a0, -1\nblez a0, stop\njal mod{next}_fn\n\
             b out\nstop: li v0, {i}\nout: lw ra, 0(sp)\naddi sp, sp, 8\njr ra\n",
            next = i + 1
        )
    } else {
        format!(
            ".module mod{i}\n.text\n.globl mod{i}_fn\nmod{i}_fn: li v0, {i}\njr ra\n\
             .data\n.globl pad\npad: .word 0\n"
        )
    }
}

fn chain_main(name: &str, depth: u32) -> String {
    format!(
        ".module {name}\n.text\n.globl main\nmain: addi sp, sp, -8\nsw ra, 0(sp)\n\
         li a0, {depth}\njal mod0_fn\nlw ra, 0(sp)\naddi sp, sp, 8\njr ra\n"
    )
}

fn plan_link(rng: &mut Rng) -> Plan {
    let mut fresh_depths = Deck::new(DEPTHS.to_vec());
    let mut depths = Deck::new(WARM_DEPTHS.to_vec());
    let mut ops = Vec::new();
    let mut stale_slot = 0;
    for boot in 0..BOOTS {
        let k = boot % STALE_EVERY;
        if k == 0 {
            stale_slot = rng.below(u64::from(STALE_EVERY)) as u32;
        }
        ops.push(Op::Reboot {
            poke: (k == stale_slot).then_some(boot + 1),
        });
        // The fresh programs run first: their links write shared
        // metadata, so every warm consult after them in the boot sees a
        // changed disk, whatever the seeded order.
        ops.push(Op::Spawn(Chain::FreshEager { boot }));
        ops.push(Op::Spawn(Chain::FreshLazy {
            boot,
            depth: fresh_depths.deal(rng),
        }));
        let mut spawns = vec![Op::Spawn(Chain::Eager), Op::Spawn(Chain::Eager)];
        for _ in 0..LAZY_PER_BOOT {
            spawns.push(Op::Spawn(Chain::Lazy(depths.deal(rng))));
        }
        rng.shuffle(&mut spawns);
        ops.extend(spawns);
    }
    Plan {
        kind: Kind::LinkBoot,
        segment: ops.len(),
        values: Vec::new(),
        fill: 0,
        ops,
    }
}

// --- durable_update ------------------------------------------------------

const DATA_FILES: u32 = 4;
const DATA_BLOCKS: u32 = 32;
const BLOCK: usize = 4096;
/// Epochs per pass; each holds 4 writers, 4 host writes, a barrier and
/// a scrub, and every second one ends in a power cycle.
const EPOCHS: usize = 96;
/// Frame budget: low enough that the clock evicts (and writes back)
/// the writers' dirty shared pages. Swap is off, so only shared pages
/// are evicted and no swap file outlives a power cut.
const FRAME_BUDGET: u64 = 4;
/// Guest instructions per scheduler slice: short, so a writer's dirty
/// pages are still resident at the slice boundaries where the budget
/// is enforced.
const WRITER_QUANTUM: u64 = 24;
/// Pages of the counter module's log each writer stamps.
const LOG_PAGES: u32 = 8;

const COUNTER: &str = r#"
.module counter
.text
.globl bump
bump:   la   r8, count
        lw   r9, 0(r8)
        addi r9, r9, 1
        sw   r9, 0(r8)
        la   r10, log
        li   r11, 0
        li   r12, 32768
stamp:  add  r13, r10, r11
        sw   r9, 0(r13)
        addi r11, r11, 4096
        slt  r13, r11, r12
        bne  r13, r0, stamp
        or   v0, r9, r0
        jr   ra
.data
.globl count
count:  .word 0
.globl log
log:    .space 32768
"#;

const WRITER: &str = r#"
.module writer
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        jal  bump
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;

fn data_path(file: u32) -> String {
    format!("/shared/data/f{file}")
}

/// A seeded write of `blocks` blocks somewhere in one data file.
fn seeded_write(rng: &mut Rng, blocks: u32) -> Write {
    Write {
        file: rng.below(u64::from(DATA_FILES)) as u32,
        block: rng.below(u64::from(DATA_BLOCKS - blocks + 1)) as u32,
        blocks,
        fill: rng.next() as u8,
    }
}

fn plan_durable(rng: &mut Rng) -> Plan {
    // The 384 host writes deal 1..=16 blocks 24 times over. The 48
    // writes a power cut leaves in the journal deal from 1..=13, not a
    // whole number of times, so the seed moves the replay bill a little.
    let mut sizes = Deck::new((1..=16).collect());
    let mut suffixes = Deck::new((1..=13).collect());
    let mut ops = Vec::new();
    for epoch in 0..EPOCHS {
        let mut batch = vec![Op::Writer; 4];
        for _ in 0..4 {
            let blocks = sizes.deal(rng);
            batch.push(Op::VfsWrite(seeded_write(rng, blocks)));
        }
        batch.push(Op::Barrier);
        batch.push(Op::Scrub);
        rng.shuffle(&mut batch);
        ops.extend(batch);
        if epoch % 2 == 1 {
            let blocks = suffixes.deal(rng);
            ops.push(Op::PowerCycle(seeded_write(rng, blocks)));
        }
    }
    Plan {
        kind: Kind::DurableUpdate,
        segment: ops.len(),
        values: Vec::new(),
        fill: rng.next() as u8,
        ops,
    }
}

pub fn plan(kind: Kind, seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    match kind {
        Kind::RwhoScan => plan_rwho(&mut rng),
        Kind::LinkBoot => plan_link(&mut rng),
        Kind::DurableUpdate => plan_durable(&mut rng),
    }
}

// --- the rig: one world set up for a plan --------------------------------

/// A world built for one plan, plus the host-side model every op's
/// result is checked against.
pub struct Rig {
    pub world: World,
    kind: Kind,
    values: Vec<u32>,
    /// Byte offsets of `nhosts` / `count` and `hosts` / `log` in the
    /// public instance, and its inode.
    instance: u32,
    word_off: usize,
    array_off: usize,
    /// durable_update: committed counter value and data-file contents.
    counter: u32,
    files: Vec<Vec<u8>>,
    last_seq: u64,
    /// Added to every expected value; nonzero only to prove that a
    /// wrong expectation is counted as a failure.
    pub skew: u32,
}

/// What one op did: its host time split, counter deltas and verdict.
pub struct Outcome {
    /// Host time inside the program's calls (the op latency).
    pub time: Duration,
    /// Host time inside `run_to_settle`.
    pub run: Duration,
    pub delta: WorldStats,
    pub error: Option<String>,
    /// Eager chain spawns only.
    pub class: Option<LinkClass>,
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

impl Rig {
    /// Builds the world for `ops`, a segment of `plan` (the timed
    /// set-up), spans included.
    pub fn setup(plan: &Plan, ops: &[Op], tr: &mut Tracer) -> Result<Rig, String> {
        let (world, _) = tr.span("core.world_new", World::new);
        let mut rig = Rig {
            world,
            kind: plan.kind,
            values: plan.values.clone(),
            instance: 0,
            word_off: 0,
            array_off: 0,
            counter: 0,
            files: Vec::new(),
            last_seq: 0,
            skew: 0,
        };
        match plan.kind {
            Kind::RwhoScan => rig.setup_rwho(tr)?,
            Kind::LinkBoot => rig.setup_link(ops, tr)?,
            Kind::DurableUpdate => rig.setup_durable(plan.fill, tr)?,
        }
        Ok(rig)
    }

    fn install(&mut self, tr: &mut Tracer, path: &str, src: &str) -> Result<(), String> {
        tr.span("hobj.install_template", || {
            self.world.install_template(path, src)
        })
        .0
        .map_err(|e| format!("install {path}: {e}"))
    }

    fn link(&mut self, tr: &mut Tracer, exe: &str, main: &str, public: &str) -> Result<(), String> {
        tr.span("hlink.lds.link", || {
            self.world.link(
                exe,
                &[
                    (main, ShareClass::StaticPrivate),
                    (public, ShareClass::DynamicPublic),
                ],
            )
        })
        .0
        .map(|_| ())
        .map_err(|e| format!("link {exe}: {e}"))
    }

    /// Spawns `n` copies of `exe` and runs the world until they settle.
    /// Returns their exit codes and the host time of spawn and run.
    fn spawn_run(
        &mut self,
        tr: &mut Tracer,
        exe: &str,
        n: u32,
    ) -> Result<(Vec<i32>, Duration, Duration), String> {
        let mut pids = Vec::new();
        let mut spawn = Duration::ZERO;
        for _ in 0..n {
            let (pid, t) = tr.span("core.spawn", || self.world.spawn(exe));
            spawn += t;
            pids.push(pid.map_err(|e| format!("spawn {exe}: {e}"))?);
        }
        let (settled, run) = tr.span("core.run", || self.world.run_to_settle(SETTLE_SLICES));
        match settled {
            Ok(WorldExit::AllExited) => {}
            Ok(other) => return Err(format!("{exe}: world ended {other:?}")),
            Err(u) => return Err(format!("{exe}: {u}")),
        }
        let codes = pids
            .iter()
            .map(|&p| self.world.exit_code(p).unwrap_or(i32::MIN))
            .collect();
        Ok((codes, spawn, run))
    }

    /// Locates the public instance at `path` and the byte offsets of
    /// two of its exports.
    fn locate(&mut self, path: &str, word: &str, array: &str) -> Result<(), String> {
        let w = &mut self.world;
        let ino = w
            .kernel
            .vfs
            .resolve(path)
            .map_err(|e| format!("{path}: {e}"))?
            .ino;
        let meta = w
            .registry
            .get(&mut w.kernel.vfs, ino)
            .ok_or_else(|| format!("{path}: no module metadata"))?;
        let off = |sym: &str| {
            meta.find_export(sym)
                .map(|a| (a - meta.base) as usize)
                .ok_or_else(|| format!("{path}: no export `{sym}`"))
        };
        self.word_off = off(word)?;
        self.array_off = off(array)?;
        self.instance = ino;
        Ok(())
    }

    /// Applies `f` to the public instance's bytes, as a host-side
    /// daemon would: a content change, but no priced I/O.
    fn with_instance<R>(&mut self, f: impl FnOnce(&mut [u8]) -> R) -> Result<R, String> {
        let fs = &mut self.world.kernel.vfs.shared.fs;
        let bytes = fs
            .file_bytes_mut(self.instance)
            .map_err(|e| format!("instance: {e}"))?;
        Ok(f(bytes))
    }

    /// A file's bytes, read without billing the simulated clock.
    fn read_unpriced(&mut self, path: &str) -> Result<Vec<u8>, String> {
        self.world
            .kernel
            .vfs
            .unpriced(|v| v.read_all(path))
            .map_err(|e| format!("{path}: {e}"))
    }

    fn setup_rwho(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.world.set_cpus(2);
        self.install(tr, "/shared/lib/rwho_db.o", RWHO_DB)?;
        self.install(tr, "/src/rwho.o", &rwho_reader())?;
        self.link(tr, "/bin/rwho", "/src/rwho.o", "/shared/lib/rwho_db.o")?;
        // The first reader creates the instance; the daemon then fills
        // every record host-side.
        let (codes, _, _) = self.spawn_run(tr, "/bin/rwho", 1)?;
        check(codes == [0], || {
            format!("empty rwho_db scan exited {codes:?}")
        })?;
        self.locate("/shared/lib/rwho_db", "nhosts", "hosts")?;
        let (values, at) = (self.values.clone(), self.array_off);
        self.with_instance(|b| {
            for (i, v) in values.iter().enumerate() {
                let off = at + i * 32 + 16;
                b[off..off + 4].copy_from_slice(&v.to_le_bytes());
            }
        })
    }

    fn setup_link(&mut self, ops: &[Op], tr: &mut Tracer) -> Result<(), String> {
        for i in 0..CHAIN {
            self.install(tr, &format!("/shared/lib/mod{i}.o"), &chain_module(i))?;
        }
        let warm: Vec<Chain> = WARM_DEPTHS
            .iter()
            .map(|&d| Chain::Lazy(d))
            .chain([Chain::Eager])
            .collect();
        let fresh = ops.iter().filter_map(|op| match op {
            Op::Spawn(c @ (Chain::FreshLazy { .. } | Chain::FreshEager { .. })) => Some(*c),
            _ => None,
        });
        for chain in warm.iter().copied().chain(fresh) {
            let exe = chain.exe();
            let name = exe.trim_start_matches("/bin/").to_string();
            let src = format!("/src/{name}.o");
            self.install(tr, &src, &chain_main(&name, chain.depth()))?;
            self.link(tr, &exe, &src, "/shared/lib/mod0.o")?;
        }
        // Two set-up boots: the cold one creates the instances and the
        // snapshots; the second revalidates each snapshot against the
        // metadata the cold boot's later links rewrote. Timed boots
        // then start from valid snapshots.
        for boot in 0..2 {
            if boot > 0 {
                tr.span("hsfs.reboot", || self.world.reboot());
            }
            for &chain in &warm {
                self.run_chain(tr, chain)?;
            }
        }
        Ok(())
    }

    /// Spawns one chain executable, runs it and checks its exit code.
    /// Returns the host time of spawn and run.
    fn run_chain(&mut self, tr: &mut Tracer, chain: Chain) -> Result<(Duration, Duration), String> {
        self.world.eager = chain.eager();
        let r = self.spawn_run(tr, &chain.exe(), 1);
        self.world.eager = false;
        let (codes, spawn, run) = r?;
        let want = chain.depth() as i32 - 1 + self.skew as i32;
        check(codes == [want], || {
            format!("{chain:?}: exit {codes:?}, want {want}")
        })?;
        Ok((spawn, run))
    }

    fn setup_durable(&mut self, fill: u8, tr: &mut Tracer) -> Result<(), String> {
        self.world.set_frame_budget(FRAME_BUDGET);
        self.world.set_swap_pages(0);
        self.world.quantum = WRITER_QUANTUM;
        self.install(tr, "/shared/lib/counter.o", COUNTER)?;
        self.install(tr, "/src/writer.o", WRITER)?;
        self.link(tr, "/bin/writer", "/src/writer.o", "/shared/lib/counter.o")?;
        let (codes, _, _) = self.spawn_run(tr, "/bin/writer", 1)?;
        check(codes == [1], || format!("first writer exited {codes:?}"))?;
        self.counter = 1;
        self.locate("/shared/lib/counter", "count", "log")?;
        let vfs = &mut self.world.kernel.vfs;
        vfs.mkdir_all("/shared/data", 0o755, 0)
            .map_err(|e| format!("/shared/data: {e}"))?;
        for f in 0..DATA_FILES {
            let bytes: Vec<u8> = (0..DATA_BLOCKS as usize * BLOCK)
                .map(|i| fill ^ (i / BLOCK) as u8 ^ f as u8)
                .collect();
            tr.span("hsfs.vfs_write", || {
                vfs.write_file(&data_path(f), &bytes, 0o644, 0)
            })
            .0
            .map_err(|e| format!("{}: {e}", data_path(f)))?;
            self.files.push(bytes);
        }
        self.last_seq = tr.span("hsfs.barrier", || self.world.barrier()).0;
        Ok(())
    }

    /// Runs one op, timing only the program's calls, then checks its
    /// result against the host model. Never panics on a wrong result.
    pub fn exec(&mut self, op: &Op, tr: &mut Tracer) -> Outcome {
        let before = self.world.stats();
        let mut out = Outcome {
            time: Duration::ZERO,
            run: Duration::ZERO,
            delta: WorldStats::default(),
            error: None,
            class: None,
        };
        if let Err(e) = self.exec_checked(op, tr, &mut out) {
            out.error = Some(e);
        }
        out.delta = crate::ledger::diff(&before, &self.world.stats());
        if let Op::Spawn(chain) = op {
            if chain.eager() {
                let d = &out.delta;
                out.class = Some(if d.snapshot_hits > 0 {
                    LinkClass::SnapshotHit
                } else if d.snapshot_misses + d.snapshot_invalidations > 0 {
                    LinkClass::FullResolve
                } else {
                    LinkClass::SameBoot
                });
            }
        }
        out
    }

    fn exec_checked(&mut self, op: &Op, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
        let skew = self.skew;
        match *op {
            Op::Readers { count, hosts } => {
                let off = self.word_off;
                self.with_instance(|b| b[off..off + 4].copy_from_slice(&hosts.to_le_bytes()))?;
                let (codes, spawn, run) = self.spawn_run(tr, "/bin/rwho", count)?;
                out.time = spawn + run;
                out.run = run;
                let want = self.values[..hosts as usize].iter().sum::<u32>() + skew;
                check(codes.iter().all(|&c| c as u32 == want), || {
                    format!("rwho over {hosts} hosts: exits {codes:?}, want {want}")
                })
            }
            Op::Spawn(chain) => {
                let (spawn, run) = self.run_chain(tr, chain)?;
                out.time = spawn + run;
                out.run = run;
                Ok(())
            }
            Op::Reboot { poke } => {
                out.time += tr.span("hsfs.reboot", || self.world.reboot()).1;
                check(self.world.powered(), || "machine down after reboot".into())?;
                if let Some(value) = poke {
                    let (r, t) = tr.span("core.poke", || {
                        self.world.poke_shared_word(
                            &format!("/shared/lib/mod{}", CHAIN - 1),
                            "pad",
                            value,
                        )
                    });
                    out.time += t;
                    r.map_err(|e| format!("poke pad: {e}"))?;
                }
                Ok(())
            }
            Op::Writer => {
                let (codes, spawn, run) = self.spawn_run(tr, "/bin/writer", 1)?;
                out.time = spawn + run;
                out.run = run;
                let want = self.counter as i32 + 1 + skew as i32;
                check(codes == [want], || {
                    format!("writer exit {codes:?}, want {want}")
                })?;
                self.counter += 1;
                Ok(())
            }
            Op::VfsWrite(w) => {
                out.time = self.write_blocks(tr, w)?;
                Ok(())
            }
            Op::Barrier => {
                let (seq, t) = tr.span("hsfs.barrier", || self.world.barrier());
                out.time = t;
                let last = self.last_seq;
                self.last_seq = seq;
                check(seq >= last, || {
                    format!("disk write index went back: {last} -> {seq}")
                })
            }
            Op::Scrub => {
                let (report, t) = tr.span("hsfs.scrub", || self.world.scrub());
                out.time = t;
                let report = report.ok_or("scrub unavailable (integrity off?)")?;
                check(report.findings.is_empty(), || {
                    format!("scrub found {} corrupt blocks", report.findings.len())
                })
            }
            Op::PowerCycle(w) => {
                let (seq, t) = tr.span("hsfs.barrier", || self.world.barrier());
                out.time += t;
                self.last_seq = seq;
                out.time += self.write_blocks(tr, w)?;
                let digest = self.world.shared_digest();
                out.time += tr.span("core.power_cut", || self.world.power_cut()).1;
                out.time += tr.span("hsfs.reboot", || self.world.reboot()).1;
                // A reboot starts a fresh disk write stream.
                self.last_seq = self.world.disk_seq();
                self.check_durable(digest)
            }
        }
    }

    /// Applies `w` to its data file and to the host model; returns the
    /// host time of the write.
    fn write_blocks(&mut self, tr: &mut Tracer, w: Write) -> Result<Duration, String> {
        let at = w.block as usize * BLOCK;
        let data: Vec<u8> = (0..w.blocks as usize * BLOCK)
            .map(|i| w.fill ^ (i / 7) as u8)
            .collect();
        let path = data_path(w.file);
        let vfs = &mut self.world.kernel.vfs;
        let (r, t) = tr.span("hsfs.vfs_write", || vfs.write(&path, at as u64, &data));
        r.map_err(|e| format!("write {path}: {e}"))?;
        self.files[w.file as usize][at..at + data.len()].copy_from_slice(&data);
        Ok(t)
    }

    /// After a power cycle: the shared partition must be exactly what
    /// it was before the cut (the barrier plus the journaled write),
    /// the counter and every log page must hold the committed count,
    /// and each data file must match the model.
    fn check_durable(&mut self, digest: u64) -> Result<(), String> {
        let after = self.world.shared_digest();
        check(after == digest, || {
            format!("shared digest {after:#x} after reboot, {digest:#x} before the cut")
        })?;
        let want = self.counter + self.skew;
        let inst = self
            .world
            .kernel
            .vfs
            .shared
            .fs
            .file_bytes(self.instance)
            .map_err(|e| format!("instance: {e}"))?;
        let word = |off: usize| {
            inst.get(off..off + 4)
                .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
        };
        let pages = (0..LOG_PAGES as usize).map(|p| self.array_off + p * BLOCK);
        for off in [self.word_off].into_iter().chain(pages) {
            let got = word(off);
            check(got == Some(want), || {
                format!("counter word at {off:#x} holds {got:?} after reboot, want {want}")
            })?;
        }
        for f in 0..DATA_FILES {
            let path = data_path(f);
            let bytes = self.read_unpriced(&path)?;
            check(bytes == self.files[f as usize], || {
                format!("{path} differs from the bytes written")
            })?;
        }
        Ok(())
    }

    /// The executable whose prelink snapshot the load/validate probe
    /// times.
    pub fn probe_exe(&self) -> &'static str {
        match self.kind {
            Kind::RwhoScan => "/bin/rwho",
            Kind::LinkBoot => "/bin/eager",
            Kind::DurableUpdate => "/bin/writer",
        }
    }
}
