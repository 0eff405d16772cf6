//! The `World`: a complete simulated Hemlock machine.
//!
//! A `World` owns the kernel (processes, address spaces, file systems),
//! the public-module registry, and per-process dynamic-linking state. It
//! runs the event loop that the paper distributes between the kernel and
//! the user-level run-time library: SIGSEGV-class faults go to Hemlock's
//! fault handler (`ldl`), service traps go to the run-time library, and
//! everything else is ordinary execution.

use crate::costs::{CostModel, WorldStats};
use crate::crt0::crt0_object;
use crate::htrace::{TraceBuffer, TraceEvent, TraceTallies};
use crate::segheap::SegHeap;
use crate::services::*;
use hfault::{FaultHandle, FaultPlan};
use hkernel::kernel::ExecImage;
use hkernel::{Kernel, Lifecycle, Pid, ProcState, RunEvent};
use hlink::ldl::{FaultDisposition, LdlStats};
use hlink::{Ldl, Lds, LdsInput, LinkError, LinkState, ModuleRegistry, ModuleSpec};
use hobj::binfmt::{self, BinError};
use hobj::hasm::{assemble, AsmError};
use hobj::{LoadImage, ShareClass};
use hsan::{Report, Sanitizer};
use hsfs::path as fspath;
use hsfs::vfs::{Mount, Vnode};
use hsfs::FsError;
use hvm::Reg;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Why [`World::run`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorldExit {
    /// Every process has exited.
    AllExited,
    /// Live processes remain but none can run.
    Deadlock,
    /// The slice budget ran out.
    StepLimit,
}

/// Returned by [`World::run_to_settle`] when the slice budget ran out
/// before the world reached a stable state (all exited or deadlocked).
/// Under chaos testing this is the *bounded* failure mode: the caller
/// knows exactly how many processes were still live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsettled {
    /// Live processes remaining at the step limit.
    pub live: usize,
    /// What each live process was doing (pid order), so livelocks —
    /// pressure thrash, lock convoys, fault loops — are diagnosable
    /// from the error alone.
    pub waits: Vec<(Pid, WaitReason)>,
}

/// What a live process was waiting on when the slice budget ran out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaitReason {
    /// Eligible to run — still working (or starved of slices).
    Runnable,
    /// Runnable, but its last observed event was a fault at this
    /// address that the runtime was still resolving (a process stuck
    /// re-faulting shows up here, not as plain `Runnable`).
    AwaitingFault {
        /// The faulting address.
        addr: u32,
    },
    /// Blocked acquiring a file lock.
    BlockedOnLock {
        /// Path of the locked file.
        path: String,
    },
    /// Blocked in P() on a kernel semaphore.
    BlockedOnSem {
        /// The semaphore id.
        sem: u32,
    },
    /// Blocked in `waitpid`.
    AwaitingChild {
        /// The specific child awaited, or `None` for any.
        child: Option<Pid>,
    },
}

impl std::fmt::Display for WaitReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitReason::Runnable => write!(f, "runnable"),
            WaitReason::AwaitingFault { addr } => {
                write!(f, "awaiting-fault {addr:#010x}")
            }
            WaitReason::BlockedOnLock { path } => write!(f, "blocked-on-lock {path}"),
            WaitReason::BlockedOnSem { sem } => write!(f, "blocked-on-sem #{sem}"),
            WaitReason::AwaitingChild { child: Some(pid) } => {
                write!(f, "awaiting-child {pid}")
            }
            WaitReason::AwaitingChild { child: None } => write!(f, "awaiting-child any"),
        }
    }
}

impl std::fmt::Display for Unsettled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "world did not settle: {} process(es) still live",
            self.live
        )?;
        for (i, (pid, reason)) in self.waits.iter().enumerate() {
            write!(
                f,
                "{}pid {pid}: {reason}{}",
                if i == 0 { " (" } else { ", " },
                if i + 1 == self.waits.len() { ")" } else { "" }
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for Unsettled {}

/// A race the armed sanitizer reported, decorated with the raced
/// segment's shared-partition path (see DESIGN.md §9).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceRecord {
    /// Path of the raced segment (e.g. `/shared/lib/counter#1`).
    pub path: String,
    /// Byte offset of the first overlapping byte within the segment.
    pub offset: u32,
    /// The earlier access.
    pub first_pid: Pid,
    /// PC of the earlier access.
    pub first_pc: u32,
    /// Whether the earlier access was a store.
    pub first_is_write: bool,
    /// The later access (the one that exposed the race).
    pub second_pid: Pid,
    /// PC of the later access.
    pub second_pc: u32,
    /// Whether the later access was a store.
    pub second_is_write: bool,
}

/// Errors from the host-level `World` API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorldError {
    /// Assembly failed.
    Asm(Vec<AsmError>),
    /// Linking failed.
    Link(LinkError),
    /// A file operation failed.
    Fs(FsError),
    /// An executable failed to decode.
    Bin(BinError),
    /// The pid does not name a live process.
    NoSuchProcess,
    /// A symbol was not found where expected.
    NoSuchSymbol(String),
    /// The machine is between a power cut and the next reboot.
    PoweredOff,
}

impl From<LinkError> for WorldError {
    fn from(e: LinkError) -> WorldError {
        WorldError::Link(e)
    }
}
impl From<FsError> for WorldError {
    fn from(e: FsError) -> WorldError {
        WorldError::Fs(e)
    }
}
impl From<Vec<AsmError>> for WorldError {
    fn from(e: Vec<AsmError>) -> WorldError {
        WorldError::Asm(e)
    }
}
impl From<BinError> for WorldError {
    fn from(e: BinError) -> WorldError {
        WorldError::Bin(e)
    }
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::Asm(errs) => {
                write!(f, "assembly failed:")?;
                for e in errs {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            WorldError::Link(e) => write!(f, "link failed: {e}"),
            WorldError::Fs(e) => write!(f, "file system: {e}"),
            WorldError::Bin(e) => write!(f, "bad executable: {e}"),
            WorldError::NoSuchProcess => write!(f, "no such process"),
            WorldError::NoSuchSymbol(s) => write!(f, "no such symbol `{s}`"),
            WorldError::PoweredOff => write!(f, "machine is powered off"),
        }
    }
}

impl std::error::Error for WorldError {}

/// What the runtime keeps for one live process. Born by
/// [`World::spawn_with`] or a journaled fork, reaped by a journaled
/// exit or a halt.
struct ProcRuntime {
    link: LinkState,
    /// The image `ldl` init links; gone once init has run.
    image: Option<LoadImage>,
    /// The last fault address and how many times in a row it refaulted.
    fault_guard: Option<(u32, u32)>,
}

/// The complete simulated machine.
pub struct World {
    /// The kernel (public for inspection by tests and benches).
    pub kernel: Kernel,
    /// The public-module metadata registry.
    pub registry: ModuleRegistry,
    /// One record per live process (see [`ProcRuntime`]).
    runtime: BTreeMap<Pid, ProcRuntime>,
    /// Runtime diagnostics (linker warnings, kill reasons).
    pub log: Vec<String>,
    /// Scheduler quantum in instructions.
    pub quantum: u64,
    /// Force a full transitive link at `ldl`-init time instead of lazy,
    /// fault-driven linking (the eager baseline for experiment E2).
    pub eager: bool,
    /// The linker's counters, machine-wide: every [`Ldl`] counts here.
    ldl_stats: LdlStats,
    /// The linker's records since the last drain, published under the
    /// pid it was bound to.
    ldl_journal: Vec<TraceEvent>,
    /// Fault-path trace ring (see [`crate::htrace`]).
    trace: TraceBuffer,
    /// Exact per-kind totals of every record published to the ring;
    /// the counters that mirror a record kind are read from here.
    tallies: TraceTallies,
    /// Cost constants; [`CostModel::price`] stamps every trace record.
    pub costs: CostModel,
    /// Chaos handle shared with the kernel, file systems, and linker
    /// (unarmed — and free — unless [`World::arm_faults`] is called).
    faults: FaultHandle,
    /// The happens-before sanitizer (None — and free — unless
    /// [`World::arm_sanitizer`] is called). The kernel holds a second
    /// handle as its installed [`hkernel::Monitor`].
    sanitizer: Option<Arc<Mutex<Sanitizer>>>,
    /// Races drained from the sanitizer, decorated with segment paths.
    races: Vec<RaceRecord>,
    /// False between a [`World::power_cut`] and the next
    /// [`World::reboot`] — the machine is off; nothing can run.
    powered: bool,
    /// Run a scrub pass every N scheduler slices (`None` = never).
    scrub_interval: Option<u64>,
    /// Slices since the last interval-driven scrub pass.
    slices_since_scrub: u64,
}

impl Default for World {
    fn default() -> Self {
        World::new()
    }
}

/// How many identical consecutive faults a process may take before the
/// runtime concludes the fault is unresolvable and kills it.
const FAULT_LOOP_LIMIT: u32 = 64;

impl World {
    /// Creates a world with the conventional directory skeleton and
    /// every subsystem at its default. The environment is never read:
    /// the same program behaves the same from any shell, and the
    /// setters below are the only switches.
    pub fn new() -> World {
        let mut kernel = Kernel::new();
        for dir in [
            "/src",
            "/bin",
            "/tmp",
            "/home",
            "/etc",
            "/usr/hemlock/lib",
            "/var/hemlock/meta",
            "/shared/lib",
            "/shared/templates",
            "/shared/tmp",
        ] {
            kernel
                .vfs
                .mkdir_all(dir, 0o777, 0)
                .expect("fresh namespace");
        }
        World {
            kernel,
            registry: ModuleRegistry::new(),
            runtime: BTreeMap::new(),
            log: Vec::new(),
            quantum: 10_000,
            eager: false,
            ldl_stats: LdlStats::default(),
            ldl_journal: Vec::new(),
            trace: TraceBuffer::default(),
            tallies: TraceTallies::default(),
            costs: CostModel::default(),
            faults: FaultHandle::unarmed(),
            sanitizer: None,
            races: Vec::new(),
            powered: true,
            scrub_interval: None,
            slices_since_scrub: 0,
        }
    }

    // --- chaos ---

    /// Arms a fault-injection plan across the whole stack (kernel,
    /// address spaces, both file systems, and — via the kernel — the
    /// dynamic linker). Returns a clone of the shared handle so callers
    /// can inspect counters mid-run. Arm *after* building and installing
    /// programs if setup should stay failure-free. Injections the
    /// previous plan journaled are published first, so re-arming never
    /// loses one.
    pub fn arm_faults(&mut self, plan: FaultPlan) -> FaultHandle {
        self.drain_injections(0);
        let handle = FaultHandle::armed(plan);
        self.kernel.arm_faults(handle.clone());
        self.faults = handle.clone();
        handle
    }

    /// Moves injections journaled by the plan into the trace ring,
    /// attributed to `pid` (0 for world-level work);
    /// `WorldStats::faults_injected` is the `FaultInjected` tally.
    fn drain_injections(&mut self, pid: Pid) {
        for site in self.faults.drain_journal() {
            self.publish(pid, TraceEvent::FaultInjected { site: site.name() });
        }
    }

    /// Publishes one recovery action (`WorldStats::faults_recovered` is
    /// the `RecoveryTaken` tally).
    fn record_recovery(&mut self, pid: Pid, action: &'static str) {
        self.publish(pid, TraceEvent::RecoveryTaken { action, retries: 0 });
    }

    /// The one way a record reaches the trace ring: priced, counted in the
    /// never-evicting tallies and appended by [`TraceBuffer::publish`].
    fn publish(&mut self, pid: Pid, event: TraceEvent) {
        self.trace
            .publish(&self.costs, &mut self.tallies, pid, event);
    }

    // --- memory pressure ---

    /// Bounds the physical frame pool to `frames` pages. The default
    /// (`hkernel::layout::DEFAULT_FRAME_BUDGET`) is generous enough
    /// that ordinary workloads never evict; lower it to simulate
    /// pressure. Takes effect at the next scheduling slice.
    pub fn set_frame_budget(&mut self, frames: u64) {
        self.kernel.frame_pool().set_capacity(frames);
    }

    /// Bounds the kernel swap area to `pages` pages of anonymous
    /// memory. When pool *and* swap are exhausted, the deterministic
    /// OOM killer fires.
    pub fn set_swap_pages(&mut self, pages: u32) {
        self.kernel.frame_pool().set_swap_pages(pages);
    }

    /// The world's frame pool (budget configuration and statistics).
    pub fn frame_pool(&self) -> &hkernel::FramePool {
        self.kernel.frame_pool()
    }

    // --- SMP ---

    /// Gives the kernel `n` simulated CPUs (clamped to 1..=64). The
    /// default of 1 reproduces the classic one-process-per-slice
    /// schedule byte for byte; with more, each scheduling round binds up
    /// to `n` runnable processes (affinity + steal-on-idle) and
    /// advances them in lockstep sub-quanta of `quantum / n`
    /// instructions — a fixed interleave, so any seed replays exactly
    /// (DESIGN.md §11). Takes effect at the next round boundary.
    pub fn set_cpus(&mut self, n: u32) {
        self.kernel.set_cpus(n);
    }

    /// Number of simulated CPUs (1 unless [`World::set_cpus`] raised it).
    pub fn cpus(&self) -> u32 {
        self.kernel.cpus()
    }

    /// Enables or disables the decoded basic-block cache at runtime
    /// (on by default; the differential suite and the `(bbcache off)`
    /// bench rows run the same workload both ways).
    pub fn set_bbcache(&mut self, enabled: bool) {
        self.kernel.set_bbcache(enabled);
    }

    /// Enables or disables persistent prelink snapshots at runtime
    /// (on by default; the identity suite and the `(snapshot off)`
    /// bench rows run the same workload both ways). Affects processes
    /// spawned afterwards.
    pub fn set_link_snapshots(&mut self, enabled: bool) {
        self.kernel.set_link_snapshots(enabled);
    }

    // --- sanitizer ---

    /// Arms the happens-before sanitizer (see `crates/hsan` and
    /// DESIGN.md §9): every guest load/store reaching a shared-file page
    /// and every kernel-mediated synchronization edge is observed from
    /// now on, and data races, lock-order cycles, and protection drift
    /// are reported through [`World::races`], the trace ring, and the
    /// log. Returns a clone of the shared handle for direct inspection.
    ///
    /// The sanitizer is an observer: it adds zero simulated time, and an
    /// unarmed world pays only one `Option` branch per shared access.
    /// Arm *after* building and installing programs so setup traffic
    /// (host-level pokes are invisible anyway) stays out of the shadow.
    pub fn arm_sanitizer(&mut self) -> Arc<Mutex<Sanitizer>> {
        let san = Arc::new(Mutex::new(Sanitizer::new()));
        self.kernel.set_monitor(san.clone());
        self.sanitizer = Some(san.clone());
        san
    }

    /// True if [`World::arm_sanitizer`] has been called.
    pub fn sanitizer_armed(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// The armed sanitizer's shared handle, if any — for direct
    /// inspection (per-CPU access streams, shadow sizes) without
    /// having kept the clone [`World::arm_sanitizer`] returned.
    pub fn sanitizer(&self) -> Option<Arc<Mutex<Sanitizer>>> {
        self.sanitizer.clone()
    }

    /// Races reported by the armed sanitizer so far, oldest first.
    pub fn races(&self) -> &[RaceRecord] {
        &self.races
    }

    /// The shared-partition path of inode `ino`, for report decoration.
    fn shared_path(&self, ino: u32) -> String {
        self.kernel
            .vfs
            .path_of(Vnode {
                mount: Mount::Shared,
                ino,
            })
            .unwrap_or_else(|_| format!("/shared/#{ino}"))
    }

    /// Moves findings out of the armed sanitizer into the trace ring
    /// (at zero cost — diagnostics, not simulation), the log, and the
    /// decorated race list. Trace records are attributed to the pid
    /// each finding names.
    fn drain_sanitizer(&mut self) {
        let Some(san) = &self.sanitizer else {
            return;
        };
        let reports = san.lock().unwrap().drain_reports();
        for rep in reports {
            match rep {
                Report::Race {
                    ino,
                    off,
                    first,
                    second,
                } => {
                    let path = self.shared_path(ino);
                    let rw = |w: bool| if w { "write" } else { "read" };
                    self.log.push(format!(
                        "sanitizer: data race on {path}+{off:#x}: pid {} {} at {:#010x} \
                         vs pid {} {} at {:#010x}",
                        first.pid,
                        rw(first.is_write),
                        first.pc,
                        second.pid,
                        rw(second.is_write),
                        second.pc,
                    ));
                    self.publish(
                        second.pid,
                        TraceEvent::RaceDetected {
                            path: path.clone(),
                            offset: off,
                            first: (first.pid, first.pc, first.is_write),
                            second: (second.pid, second.pc, second.is_write),
                        },
                    );
                    self.races.push(RaceRecord {
                        path,
                        offset: off,
                        first_pid: first.pid,
                        first_pc: first.pc,
                        first_is_write: first.is_write,
                        second_pid: second.pid,
                        second_pc: second.pc,
                        second_is_write: second.is_write,
                    });
                }
                Report::LockOrderCycle {
                    pid: culprit,
                    chain,
                } => {
                    let chain: Vec<String> = chain.iter().map(|l| l.to_string()).collect();
                    self.log.push(format!(
                        "sanitizer: lock-order cycle closed by pid {culprit}: {}",
                        chain.join(" -> ")
                    ));
                    self.publish(
                        culprit,
                        TraceEvent::LockOrderCycle {
                            pid: culprit,
                            chain,
                        },
                    );
                }
                Report::ProtectionViolation {
                    pid: writer,
                    pc,
                    uid,
                    ino,
                    off,
                } => {
                    let path = self.shared_path(ino);
                    self.log.push(format!(
                        "sanitizer: pid {writer} (uid {uid}) wrote {path}+{off:#x} at \
                         {pc:#010x} but the current mode denies it (stale mapping)"
                    ));
                    self.publish(
                        writer,
                        TraceEvent::ProtectionDrift {
                            path,
                            offset: off,
                            uid,
                        },
                    );
                }
            }
        }
    }

    // --- building programs ---

    /// Assembles `source` and installs the object file at `path`. The
    /// module name defaults to the file stem.
    pub fn install_template(&mut self, path: &str, source: &str) -> Result<(), WorldError> {
        let stem = fspath::split_parent(path)
            .map(|(_, name)| name.trim_end_matches(".o").to_string())
            .unwrap_or_else(|| "module".to_string());
        let obj = assemble(&stem, source)?;
        let bytes = binfmt::encode_object(&obj);
        self.kernel.vfs.write_file(path, &bytes, 0o666, 0)?;
        Ok(())
    }

    /// Links a program from `(module spec, sharing class)` pairs and
    /// writes the executable to `out_path`. Warnings go to `self.log`.
    pub fn link(
        &mut self,
        out_path: &str,
        modules: &[(&str, ShareClass)],
    ) -> Result<String, WorldError> {
        self.link_with(out_path, modules, "/", &[], None)
    }

    /// Full-control variant of [`World::link`].
    pub fn link_with(
        &mut self,
        out_path: &str,
        modules: &[(&str, ShareClass)],
        cwd: &str,
        cli_dirs: &[String],
        ld_library_path: Option<&str>,
    ) -> Result<String, WorldError> {
        let input = LdsInput {
            program: out_path.to_string(),
            cwd: cwd.to_string(),
            cli_dirs: cli_dirs.to_vec(),
            ld_library_path: ld_library_path.map(str::to_string),
            modules: modules
                .iter()
                .map(|(spec, class)| ModuleSpec::new(*spec, *class))
                .collect(),
            crt0: crt0_object(),
            strict_duplicates: false,
        };
        let out = Lds::link(&mut self.kernel.vfs, &mut self.registry, &input)?;
        self.log.extend(out.warnings);
        let bytes = binfmt::encode_image(&out.image);
        self.kernel.vfs.write_file(out_path, &bytes, 0o777, 0)?;
        Ok(out_path.to_string())
    }

    // --- running programs ---

    /// Spawns a process from an executable, with defaults (uid 1, cwd
    /// `/`, empty environment).
    pub fn spawn(&mut self, exe_path: &str) -> Result<Pid, WorldError> {
        self.spawn_with(exe_path, "/", 1, &[])
    }

    /// Spawns with explicit cwd, uid, and environment.
    pub fn spawn_with(
        &mut self,
        exe_path: &str,
        cwd: &str,
        uid: u32,
        env: &[(&str, &str)],
    ) -> Result<Pid, WorldError> {
        if !self.powered {
            return Err(WorldError::PoweredOff);
        }
        let bytes = self.kernel.vfs.read_all(exe_path)?;
        let image = binfmt::decode_image(&bytes)?;
        let injected_before = self.faults.injected();
        let pid = self.kernel.spawn(uid);
        let exec = ExecImage {
            name: image.name.clone(),
            text_base: image.text_base,
            text: image.text.clone(),
            data_base: image.data_base,
            data: image.data.clone(),
            bss_size: (image.bss_base + image.bss_size)
                .saturating_sub(image.data_base + image.data.len() as u32),
            entry: image.entry,
        };
        if self.kernel.exec_image(pid, &exec).is_err() {
            // The image never ran; reap the half-built process so the
            // rest of the world can still settle, and tell the caller.
            self.kernel.finalize_exit(pid, -1);
            if self.faults.injected() > injected_before {
                self.record_recovery(pid, "spawn-refused");
            }
            self.drain_injections(pid);
            return Err(WorldError::Fs(FsError::NoSpace));
        }
        {
            let proc = self.kernel.procs.get_mut(&pid).expect("just spawned");
            proc.cwd = cwd.to_string();
            for (k, v) in env {
                proc.env.insert(k.to_string(), v.to_string());
            }
        }
        let runtime = ProcRuntime {
            link: LinkState::default(),
            image: Some(image),
            fault_guard: None,
        };
        self.runtime.insert(pid, runtime);
        Ok(pid)
    }

    /// Runs the world for up to `max_slices` scheduler slices.
    pub fn run(&mut self, max_slices: u64) -> WorldExit {
        for _ in 0..max_slices {
            let ev = self.kernel.step_system(self.quantum);
            let ev_pid = match &ev {
                RunEvent::Quantum(pid) | RunEvent::Blocked(pid) | RunEvent::Exited(pid, _) => *pid,
                RunEvent::AllExited | RunEvent::Deadlock => 0,
                RunEvent::Break { pid, .. }
                | RunEvent::Fatal { pid, .. }
                | RunEvent::Service { pid, .. }
                | RunEvent::Segv { pid, .. }
                | RunEvent::OomKill { pid, .. } => *pid,
            };
            match ev {
                RunEvent::Quantum(_) | RunEvent::Blocked(_) | RunEvent::Exited(..) => {}
                RunEvent::AllExited => {
                    self.drain_journals(0);
                    return WorldExit::AllExited;
                }
                RunEvent::Deadlock => {
                    self.drain_journals(0);
                    return WorldExit::Deadlock;
                }
                RunEvent::Break { pid, code } => {
                    self.log.push(format!("pid {pid}: break {code}; killed"));
                    self.kill(pid, 128 + code as i32);
                }
                RunEvent::Fatal { pid, fault } => {
                    self.log.push(format!("pid {pid}: fatal fault: {fault}"));
                    if let hvm::Fault::Eio { addr, .. } = fault {
                        // The SIGBUS-analog: a mapped page's backing
                        // block is uncorrectably corrupt. Only the
                        // touching process dies — the typed exit code
                        // (128 + SIGBUS) is the containment contract
                        // e14 pins.
                        self.publish(pid, TraceEvent::EioKilled { addr });
                        self.kill(pid, 135);
                    } else {
                        self.kill(pid, -1);
                    }
                }
                RunEvent::Service { pid, num } => self.service(pid, num),
                RunEvent::Segv { pid, fault } => self.segv(pid, fault.addr()),
                RunEvent::OomKill { pid, resident } => {
                    // The kernel already finalized the victim's exit and
                    // reclaimed its frames; record the typed recovery.
                    self.log.push(format!(
                        "pid {pid}: out of memory (pool and swap exhausted); \
                         killed holding {resident} resident pages"
                    ));
                    self.record_recovery(pid, "oom-kill");
                }
            }
            // Publish injections decided during this slice (kernel
            // syscalls inject outside the linker's journal), then any
            // pressure and shootdown work the rebalance pass did.
            self.drain_journals(ev_pid);
            self.pump_scrub();
        }
        self.drain_journals(0);
        WorldExit::StepLimit
    }

    /// Applies the kernel's fork/exit journal, then moves every
    /// subsystem journal into the trace ring, in a fixed order:
    /// injections (attributed to `pid`), pressure, SMP, block cache
    /// (each record attributed to the pid its layer named), sanitizer.
    fn drain_journals(&mut self, pid: Pid) {
        self.drain_lifecycle();
        self.drain_injections(pid);
        let journaled = [
            self.kernel.frame_pool().drain_events(),
            self.kernel.drain_smp_events(),
            self.kernel.drain_bb_events(),
        ];
        for (owner, event) in journaled.into_iter().flatten() {
            self.publish(owner, event);
        }
        self.drain_sanitizer();
    }

    /// Runs until everything exits (or a generous slice cap).
    pub fn run_to_completion(&mut self) -> WorldExit {
        self.run(2_000_000)
    }

    /// Runs until the world reaches a *stable* state — every process has
    /// exited, or the survivors are deadlocked and can make no further
    /// progress. [`Err(Unsettled)`](Unsettled) is the bounded failure
    /// mode: the slice budget ran out with processes still live.
    pub fn run_to_settle(&mut self, max_slices: u64) -> Result<WorldExit, Unsettled> {
        match self.run(max_slices) {
            WorldExit::StepLimit => {
                let waits: Vec<(Pid, WaitReason)> = self
                    .kernel
                    .procs
                    .iter()
                    .map(|(&pid, p)| (pid, self.wait_reason(pid, p)))
                    .collect();
                Err(Unsettled {
                    live: waits.len(),
                    waits,
                })
            }
            exit => Ok(exit),
        }
    }

    /// Classifies what a live process is waiting on (the per-process
    /// snapshot [`Unsettled`] carries).
    fn wait_reason(&self, pid: Pid, proc: &hkernel::Process) -> WaitReason {
        use hkernel::process::Block;
        match proc.state {
            ProcState::Blocked(Block::Lock { vnode, .. }) => WaitReason::BlockedOnLock {
                path: self
                    .kernel
                    .vfs
                    .path_of(vnode)
                    .unwrap_or_else(|_| format!("#{}", vnode.ino)),
            },
            ProcState::Blocked(Block::Sem(sem)) => WaitReason::BlockedOnSem { sem },
            ProcState::Blocked(Block::Wait(child)) => WaitReason::AwaitingChild { child },
            // Runnable, but mid-fault-resolution per the guard: the
            // last event we saw from it was a fault at this address.
            _ => match self.runtime.get(&pid).and_then(|rt| rt.fault_guard) {
                Some((addr, n)) if n > 0 => WaitReason::AwaitingFault { addr },
                _ => WaitReason::Runnable,
            },
        }
    }

    /// Kills a live process with a synthetic exit status. An exited or
    /// unknown pid is left alone.
    pub fn kill(&mut self, pid: Pid, code: i32) {
        self.kernel.finalize_exit(pid, code);
    }

    /// The recorded exit status of a process (`None` while it runs).
    pub fn exit_code(&self, pid: Pid) -> Option<i32> {
        self.kernel.exit_code(pid)
    }

    /// A process's console output.
    pub fn console(&self, pid: Pid) -> String {
        self.kernel.console_of(pid)
    }

    /// Link state of a live process (for tests and diagnostics).
    pub fn link_state(&self, pid: Pid) -> Option<&LinkState> {
        self.runtime.get(&pid).map(|rt| &rt.link)
    }

    /// The fault-path trace ring (see [`crate::htrace`]).
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Mutable access to the trace ring (clearing between experiment
    /// phases, resizing). The tallies are not affected.
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Exact per-kind totals of every record published since the world
    /// was created, including those the ring has evicted or dropped.
    pub fn tallies(&self) -> &TraceTallies {
        &self.tallies
    }

    /// The trace ring rendered as text, for debugging E6-style runs.
    /// An `AddrTranslated` row also names the path its inode has now.
    pub fn trace_dump(&self) -> String {
        let fs = &self.kernel.vfs.shared.fs;
        self.trace.dump_with(|event| match event {
            TraceEvent::AddrTranslated { ino, .. } => {
                let path = fs.path_of(*ino).unwrap_or_else(|_| "?".into());
                format!("{event} path={path}")
            }
            _ => event.to_string(),
        })
    }

    // --- event handlers ---

    /// Gives each process forked since the last drain its runtime record
    /// (its parent's links and no image: crt0 ran init in the parent
    /// before `main` could fork) and reaps each one that died, in
    /// occurrence order, so a child is adopted before a parent that
    /// died in the same slice is dropped.
    fn drain_lifecycle(&mut self) {
        for entry in self.kernel.drain_lifecycle() {
            match entry {
                Lifecycle::Forked { parent, child } => {
                    if let Some(parent) = self.runtime.get(&parent) {
                        let runtime = ProcRuntime {
                            link: parent.link.clone(),
                            image: None,
                            fault_guard: None,
                        };
                        self.runtime.insert(child, runtime);
                    }
                }
                Lifecycle::Exited(pid) => {
                    self.runtime.remove(&pid);
                }
            }
        }
    }

    /// The linker bound to `pid`'s runtime record.
    fn ldl(&mut self, pid: Pid) -> Ldl<'_> {
        // invariant: only live pids surface events, and every live pid
        // has a record from the moment its spawn or fork was drained.
        let rt = self.runtime.get_mut(&pid).expect("live pid has a record");
        Ldl {
            kernel: &mut self.kernel,
            registry: &mut self.registry,
            state: &mut rt.link,
            stats: &mut self.ldl_stats,
            journal: &mut self.ldl_journal,
            pid,
        }
    }

    /// Drains the linker's journal into the trace ring, under `pid`.
    fn drain_linker(&mut self, pid: Pid) {
        for event in std::mem::take(&mut self.ldl_journal) {
            self.publish(pid, event);
        }
    }

    fn segv(&mut self, pid: Pid, addr: u32) {
        // A refault on a page the clock hand evicted is legitimate
        // forward progress — the guest ran long enough between the two
        // faults for the page to age out — not a resolution loop. Under
        // a tight frame budget one hot shared word can fault at the same
        // address hundreds of times, so it must not count toward
        // FAULT_LOOP_LIMIT.
        let evicted_refault = self
            .kernel
            .procs
            .get(&pid)
            .and_then(|p| p.aspace.entry(addr))
            .map(|e| e.was_evicted())
            .unwrap_or(false);
        // invariant: as in `ldl`, the faulting pid is live.
        let rt = self.runtime.get_mut(&pid).expect("live pid has a record");
        let guard = rt.fault_guard.get_or_insert((addr, 0));
        if evicted_refault {
            *guard = (addr, 0);
        } else if guard.0 == addr {
            guard.1 += 1;
            if guard.1 > FAULT_LOOP_LIMIT {
                self.log.push(format!(
                    "pid {pid}: unresolvable fault loop at {addr:#010x}; killed"
                ));
                self.kill(pid, 139);
                return;
            }
        } else {
            *guard = (addr, 0);
        }
        self.publish(pid, TraceEvent::FaultTaken { addr });
        let injected_before = self.faults.injected();
        let result = self.ldl(pid).handle_fault(addr);
        if let Err(e) = &result {
            let module = self.runtime[&pid]
                .link
                .module_at(addr)
                .map(|m| m.name().to_string());
            self.ldl_journal.push(TraceEvent::LinkFailed {
                module: module.unwrap_or_else(|| format!("{addr:#010x}")),
                cause: e.to_string(),
            });
        }
        self.drain_linker(pid);
        self.drain_injections(pid);
        // Did the handler hit an injected failure on this fault?
        let hit_injection = self.faults.injected() > injected_before;
        match result {
            Ok(FaultDisposition::Resolved) => {
                self.publish(pid, TraceEvent::InstructionRestarted { addr });
            }
            Ok(FaultDisposition::DeliveredToGuest) => {}
            Ok(FaultDisposition::Fatal) => {
                self.log.push(format!(
                    "pid {pid}: segmentation fault at {addr:#010x} (unresolvable)"
                ));
                if hit_injection {
                    self.record_recovery(pid, "killed-victim");
                }
                self.kill(pid, 139);
            }
            Err(e) => {
                self.log
                    .push(format!("pid {pid}: fault at {addr:#010x}: {e}"));
                if !self.kernel.deliver_segv(pid, addr) {
                    if hit_injection {
                        self.record_recovery(pid, "killed-victim");
                    }
                    self.kill(pid, 139);
                }
            }
        }
    }

    fn reg(&self, pid: Pid, r: Reg) -> u32 {
        self.kernel
            .procs
            .get(&pid)
            .map(|p| p.cpu.reg(r))
            .unwrap_or(0)
    }

    fn guest_str(&self, pid: Pid, addr: u32) -> Result<String, i32> {
        let proc = self.kernel.procs.get(&pid).ok_or(-14)?;
        let raw = proc
            .aspace
            .read_cstr(&self.kernel.vfs.shared, addr)
            .map_err(|_| -14)?;
        let cwd = proc.cwd.clone();
        fspath::absolutize(&raw, &cwd).map_err(|e| -e.errno())
    }

    fn guest_str_raw(&self, pid: Pid, addr: u32) -> Result<String, i32> {
        let proc = self.kernel.procs.get(&pid).ok_or(-14)?;
        proc.aspace
            .read_cstr(&self.kernel.vfs.shared, addr)
            .map_err(|_| -14)
    }

    fn service(&mut self, pid: Pid, num: u32) {
        let a0 = self.reg(pid, Reg::A0);
        let a1 = self.reg(pid, Reg::A1);
        let result: i32 = match num {
            SVC_LDL_INIT => self.svc_ldl_init(pid),
            SVC_MAP_SEGMENT => match self.guest_str(pid, a0) {
                Ok(path) => {
                    let result = self.ldl(pid).map_segment_by_path(&path);
                    self.link_reply(pid, "map_segment", &path, result)
                }
                Err(e) => e,
            },
            SVC_TAS => {
                let proc = self.kernel.procs.get_mut(&pid);
                match proc {
                    Some(p) => match p.aspace.read_bytes(&self.kernel.vfs.shared, a0, 4) {
                        Ok(old) => {
                            let oldv = u32::from_le_bytes([old[0], old[1], old[2], old[3]]);
                            match p.aspace.write_bytes(
                                &mut self.kernel.vfs.shared,
                                &mut self.kernel.stats,
                                a0,
                                &a1.to_le_bytes(),
                            ) {
                                Ok(()) => {
                                    if let Some(san) = &self.sanitizer {
                                        if hsfs::SharedFs::contains(a0) {
                                            // Invert the fixed slot layout
                                            // arithmetically; `addr_to_ino`
                                            // would bill address-table probes
                                            // to the guest.
                                            let rel = a0 - hsfs::SHARED_BASE;
                                            let ino = rel / hsfs::SLOT_SIZE;
                                            let off = rel % hsfs::SLOT_SIZE;
                                            let pc = p.cpu.pc.wrapping_sub(4);
                                            san.lock().unwrap().tas(pid, pc, ino, off, oldv, a1);
                                        }
                                    }
                                    oldv as i32
                                }
                                Err(_) => -14,
                            }
                        }
                        Err(_) => -14,
                    },
                    None => -14,
                }
            }
            SVC_HEAP_INIT => self.svc_heap(pid, a0, a1, HeapOp::Init),
            SVC_HEAP_ALLOC => self.svc_heap(pid, a0, a1, HeapOp::Alloc),
            SVC_HEAP_FREE => self.svc_heap(pid, a0, a1, HeapOp::Free),
            SVC_PRINT_INT => {
                let text = format!("{}\n", a0 as i32);
                if let Some(p) = self.kernel.procs.get_mut(&pid) {
                    p.console.extend_from_slice(text.as_bytes());
                }
                0
            }
            SVC_SETENV => match (self.guest_str_raw(pid, a0), self.guest_str_raw(pid, a1)) {
                (Ok(name), Ok(value)) => {
                    if let Some(p) = self.kernel.procs.get_mut(&pid) {
                        p.env.insert(name, value);
                    }
                    0
                }
                (Err(e), _) | (_, Err(e)) => e,
            },
            SVC_LINK_MODULE => match self.guest_str(pid, a0) {
                Ok(path) => {
                    let class = if a1 == 1 {
                        ShareClass::DynamicPublic
                    } else {
                        ShareClass::DynamicPrivate
                    };
                    let mut ldl = self.ldl(pid);
                    let result = ldl
                        .load_module(&path, class, hlink::scope::ROOT)
                        .map(|name| ldl.state.module(&name).map(|m| m.base).unwrap_or(0));
                    self.link_reply(pid, "link_module", &path, result)
                }
                Err(e) => e,
            },
            SVC_LOOKUP_SYMBOL => match self.guest_str_raw(pid, a0) {
                Ok(name) => self.ldl(pid).state.lookup_global(&name).unwrap_or(0) as i32,
                Err(e) => e,
            },
            other => {
                self.log.push(format!("pid {pid}: unknown service {other}"));
                -38
            }
        };
        // Several services run the linker; publish whatever it journaled.
        self.drain_linker(pid);
        self.kernel.set_reg(pid, Reg::V0, result as u32);
    }

    /// A linker service's `v0`: the address it returned, or its error,
    /// logged as `call(path): error` and returned as a negated errno.
    fn link_reply(&mut self, pid: Pid, call: &str, path: &str, r: Result<u32, LinkError>) -> i32 {
        let e = match r {
            Ok(addr) => return addr as i32,
            Err(e) => e,
        };
        self.log.push(format!("pid {pid}: {call}({path}): {e}"));
        match e {
            LinkError::Fs(fs) => -fs.errno(),
            LinkError::AccessDenied { .. } => -13,
            _ => -14,
        }
    }

    /// `ldl` init: links the image the record holds, then drops it. A
    /// link failure ends the process with status 127, the conventional
    /// "loader failed" status, before `main` can run unlinked code.
    fn svc_ldl_init(&mut self, pid: Pid) -> i32 {
        // The image is gone once init has run (crt0 runs only in fresh
        // processes, and a fork child inherits its parent's links).
        let Some(image) = self.runtime.get_mut(&pid).and_then(|rt| rt.image.take()) else {
            return 0;
        };
        let eager = self.eager;
        let mut ldl = self.ldl(pid);
        let result = ldl.init(&image).and_then(|warnings| {
            if eager {
                // Eager baseline: keep linking until no module is
                // still awaiting its first touch (transitive).
                loop {
                    let lazy: Vec<String> = ldl
                        .state
                        .modules()
                        .filter(|m| m.lazy)
                        .map(|m| m.name().to_string())
                        .collect();
                    if lazy.is_empty() {
                        break;
                    }
                    for name in lazy {
                        ldl.lazy_link(&name)?;
                    }
                }
            }
            Ok(warnings)
        });
        match result {
            Ok(warnings) => {
                for w in warnings {
                    self.log.push(format!("pid {pid}: {w}"));
                }
                0
            }
            Err(e) => {
                self.log.push(format!("pid {pid}: ldl init failed: {e}"));
                self.ldl_journal.push(TraceEvent::LinkFailed {
                    module: image.name,
                    cause: e.to_string(),
                });
                self.kill(pid, 127);
                -1
            }
        }
    }

    /// The segment-heap services act with the caller's rights: every
    /// one of them writes the segment, so a caller without write access
    /// is denied. A failed `Alloc` answers a null pointer, the others a
    /// negative errno.
    fn svc_heap(&mut self, pid: Pid, region_addr: u32, arg: u32, op: HeapOp) -> i32 {
        let fail = |errno: i32| if let HeapOp::Alloc = op { 0 } else { -errno };
        let (ino, off) = match self.kernel.vfs.shared.addr_to_ino(region_addr) {
            Ok(x) => x,
            Err(e) => return fail(e.errno()),
        };
        let fs = &self.kernel.vfs.shared.fs;
        let caller = self.kernel.procs.get(&pid);
        if !caller.is_some_and(|p| matches!(fs.access(ino, p.uid, true), Ok(true))) {
            return fail(FsError::PermissionDenied.errno());
        }
        if let HeapOp::Init = op {
            // Grow the file so the heap region is materialized.
            let need = off as u64 + arg as u64;
            let size = self
                .kernel
                .vfs
                .shared
                .fs
                .metadata(ino)
                .map(|m| m.size)
                .unwrap_or(0);
            if size < need {
                if let Err(e) = self.kernel.vfs.shared.fs.truncate(ino, need) {
                    return -e.errno();
                }
            }
        }
        let bytes = match self.kernel.vfs.shared.fs.file_bytes_mut(ino) {
            Ok(b) => b,
            Err(e) => return fail(e.errno()),
        };
        if off as usize >= bytes.len() {
            // The region address lies beyond the backing file (possible
            // for alloc/free on a never-initialized heap address).
            return fail(22);
        }
        let region = &mut bytes[off as usize..];
        match op {
            HeapOp::Init => {
                if region.len() < arg as usize {
                    return -22;
                }
                match SegHeap::init(&mut region[..arg as usize], region_addr) {
                    Ok(_) => 0,
                    Err(_) => -22,
                }
            }
            HeapOp::Alloc => match SegHeap::attach(region, region_addr) {
                Ok(mut h) => h.alloc(arg).map(|p| p as i32).unwrap_or(0),
                Err(_) => 0,
            },
            HeapOp::Free => match SegHeap::attach(region, region_addr) {
                Ok(mut h) => match h.free(arg) {
                    Ok(()) => 0,
                    Err(_) => -22,
                },
                Err(_) => -22,
            },
        }
    }

    // --- system administration ---

    /// Everything that dies when the machine stops, cleanly or not:
    /// processes, their runtime records, semaphores, the scheduler
    /// round, frame and swap residency, all advisory locks, the
    /// in-kernel address table, and the module-metadata cache. On a
    /// clean halt the shared partition is flushed first, so nothing in
    /// the write pipeline is lost; on a crash the un-flushed suffix is
    /// discarded (and counted).
    fn halt(&mut self, crash: bool) {
        // Get pending diagnostics into the ring before the state that
        // produced them disappears.
        self.drain_journals(0);
        if !crash {
            self.kernel.vfs.shared.fs.barrier();
        }
        self.runtime.clear();
        let discarded = self.kernel.vfs.shared.fs.power_cut();
        self.kernel.power_cut();
        self.kernel.vfs.shared.clear_table();
        self.registry.clear_cache();
        self.powered = false;
        if crash {
            self.publish(
                0,
                TraceEvent::CrashTaken {
                    blocks_discarded: discarded,
                },
            );
            self.log.push(format!(
                "power cut: {discarded} un-flushed block writes lost"
            ));
        }
    }

    /// Pulls the plug (DESIGN.md §13): every process dies mid-
    /// instruction, all volatile kernel state — TLBs, the block table,
    /// advisory locks, frame pool, swap slots, the in-kernel address
    /// table — vanishes, and any disk write not yet flushed by a
    /// barrier is discarded. The simulated disk (the flushed prefix of
    /// the write stream plus the on-disk journal) survives for
    /// [`World::reboot`]. Nothing can run until then.
    pub fn power_cut(&mut self) {
        self.halt(true);
    }

    /// Brings the machine back up: replays the metadata journal onto
    /// the surviving disk image (idempotent — a reboot that crashes
    /// during recovery just replays again), rebuilds the address table
    /// by the boot-time scan of §3, then runs `fsck` and self-heals any
    /// residual damage (including crash-orphaned swap files). Called on
    /// a running machine it is a *clean* reboot: the pipeline is
    /// flushed first, so no journal replay is needed and nothing is
    /// lost. Public module instances and their on-disk metadata
    /// survive; programs can be spawned again immediately.
    pub fn reboot(&mut self) {
        if self.powered {
            self.halt(false);
        }
        let rs = self.kernel.vfs.shared.fs.replay_journal();
        if rs.records > 0 {
            // Recovery is billed once, here, by the record's price.
            self.publish(
                0,
                TraceEvent::JournalReplayed {
                    records: rs.records,
                    blocks: rs.blocks,
                },
            );
            self.log.push(format!(
                "journal replay: {} records ({} block images) applied",
                rs.records, rs.blocks
            ));
        }
        self.kernel.vfs.shared.boot_scan();
        self.fsck_at_boot();
        // A new boot re-validates each executable's prelink snapshot
        // exactly once (DESIGN.md §15).
        self.kernel.clear_snapshot_consults();
        self.powered = true;
        self.log
            .push("system rebooted; address table rebuilt by scan".to_string());
    }

    /// True unless a [`World::power_cut`] has not yet been followed by a
    /// [`World::reboot`].
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Flushes the shared partition's write pipeline (mapped-store dirt
    /// included) and checkpoints its journal — the machine-level
    /// `sync`. Data flushed by a completed barrier survives any later
    /// crash. Returns the disk write index after the flush.
    pub fn barrier(&mut self) -> u64 {
        self.kernel.vfs.shared.fs.barrier()
    }

    /// The shared disk's write index: how many block writes the device
    /// has accepted. Crash-point enumeration runs the workload once to
    /// learn the final index, then re-runs killing the device at each
    /// earlier index.
    pub fn disk_seq(&self) -> u64 {
        self.kernel.vfs.shared.fs.disk_seq()
    }

    /// Arms a deterministic crash point: the shared disk dies at write
    /// `k` (0-based), discarding that write and everything after it.
    /// With `tear`, the first discarded write is half-applied — the
    /// torn-block case. The death is invisible until [`World::power_cut`]
    /// makes it matter.
    pub fn set_crash_at(&mut self, k: u64, tear: bool) {
        self.kernel.vfs.shared.fs.set_crash_at(k, tear);
    }

    /// Enables or disables the shared partition's durability pipeline
    /// (on by default). Disabling makes every write immediately
    /// durable — the pre-§13 behavior.
    pub fn set_durability(&mut self, on: bool) {
        self.kernel.vfs.shared.fs.set_durability(on);
    }

    // --- disk integrity (DESIGN.md §14) ---

    /// Enables or disables the end-to-end integrity machinery — block
    /// checksums, self-describing address stamps, the replica region,
    /// and scrub — on the shared partition. On by default with the
    /// durability pipeline.
    pub fn set_integrity(&mut self, on: bool) {
        self.kernel.vfs.shared.fs.set_integrity(on);
    }

    /// Whether the integrity machinery is on.
    pub fn integrity_enabled(&self) -> bool {
        self.kernel.vfs.shared.fs.integrity_enabled()
    }

    /// Runs a scrub pass every `every` scheduler slices during
    /// [`World::run`] (`None` disables the hook — the default).
    pub fn set_scrub_interval(&mut self, every: Option<u64>) {
        self.scrub_interval = every;
        self.slices_since_scrub = 0;
    }

    /// `(data blocks written, integrity-region blocks written)` on the
    /// shared partition — the write-amplification pair the e14 bench
    /// gates.
    pub fn write_amplification(&self) -> (u64, u64) {
        self.kernel.vfs.shared.fs.write_amplification()
    }

    /// Pages of the shared partition currently poisoned (uncorrectable
    /// corruption contained; 0 in every healthy run).
    pub fn poisoned_blocks(&self) -> u64 {
        self.kernel.vfs.shared.fs.poisoned_blocks()
    }

    /// The every-N-slices scrub hook of [`World::run`].
    fn pump_scrub(&mut self) {
        let Some(every) = self.scrub_interval else {
            return;
        };
        self.slices_since_scrub += 1;
        if self.slices_since_scrub >= every {
            self.slices_since_scrub = 0;
            self.scrub();
        }
    }

    /// One deterministic scrub pass over the shared partition: verify
    /// every stamped block against the checksum region, heal each
    /// corrupt one from the replica region or the journal, poison what
    /// cannot be healed. Priced per verified block plus per repair;
    /// every finding is journaled and counted. `None` when the
    /// durability pipeline or integrity is off.
    pub fn scrub(&mut self) -> Option<hsfs::ScrubReport> {
        let report = self.kernel.vfs.shared.fs.scrub()?;
        let corrupt = report.findings.len() as u64;
        let mut repaired = 0u64;
        for f in &report.findings {
            self.record_corruption(f.ino, f.offset, f.reason, f.repaired_from);
            let outcome = match f.repaired_from {
                Some(source) => {
                    repaired += 1;
                    format!("healed from {}", source.name())
                }
                None => "uncorrectable; page poisoned".to_string(),
            };
            self.log.push(format!(
                "scrub: ino {} block {} ({}) {outcome}",
                f.ino, f.offset, f.reason
            ));
        }
        self.publish(
            0,
            TraceEvent::ScrubPass {
                blocks: report.blocks_scanned,
                corrupt,
                repaired,
            },
        );
        Some(report)
    }

    /// Counts and traces one corrupt block found by a scrub pass or
    /// boot fsck: a free `CorruptionDetected` record, plus a
    /// `BlockRepaired` record priced at `repair_ns` when it healed from
    /// `source`.
    fn record_corruption(
        &mut self,
        ino: hsfs::Ino,
        block: u64,
        reason: &'static str,
        source: Option<hsfs::tools::RepairSource>,
    ) {
        self.publish(0, TraceEvent::CorruptionDetected { ino, block, reason });
        if let Some(source) = source {
            self.publish(
                0,
                TraceEvent::BlockRepaired {
                    ino,
                    block,
                    source: source.name(),
                },
            );
        }
    }

    /// Resolves `path` to a shared-partition inode without perturbing
    /// any priced counter — corruption is a disk phenomenon; injecting
    /// it must be invisible to the cost model (cf. `fsck_at_boot`).
    fn resolve_shared_unpriced(&mut self, path: &str) -> Option<hsfs::Ino> {
        match self.kernel.vfs.unpriced(|v| v.resolve(path)) {
            Ok(Vnode {
                mount: Mount::Shared,
                ino,
            }) => Some(ino),
            _ => None,
        }
    }

    /// Deterministically corrupts one block of a shared segment on the
    /// simulated disk (chaos-site mirror for tests and experiments).
    /// `block` is a block index, not a byte offset. False when the path
    /// does not name a stamped shared file block.
    pub fn corrupt_shared_block(
        &mut self,
        path: &str,
        block: u64,
        kind: hsfs::CorruptKind,
    ) -> bool {
        let Some(ino) = self.resolve_shared_unpriced(path) else {
            return false;
        };
        let offset = block * u64::from(hsfs::BLOCK_SIZE);
        self.kernel
            .vfs
            .shared
            .fs
            .corrupt_block_for_test(ino, offset, kind)
    }

    /// Corrupts the replica-region copy of one shared-segment block
    /// (tests; with the journal checkpointed this makes the block
    /// uncorrectable — the double-corruption case of e14).
    pub fn corrupt_shared_replica(&mut self, path: &str, block: u64) -> bool {
        let Some(ino) = self.resolve_shared_unpriced(path) else {
            return false;
        };
        let offset = block * u64::from(hsfs::BLOCK_SIZE);
        self.kernel
            .vfs
            .shared
            .fs
            .corrupt_replica_for_test(ino, offset)
    }

    /// Order-insensitive digest of the shared partition's logical state
    /// (metadata + bytes; locks and counters excluded). Two worlds with
    /// equal digests relink identically.
    pub fn shared_digest(&self) -> u64 {
        self.kernel.vfs.shared.fs.state_digest()
    }

    /// Boot-time `fsck`: after the address-table scan, check the shared
    /// partition for residual crash damage and self-heal it before the
    /// first map, surfacing each repair as an [`TraceEvent::FsckRepaired`]
    /// record (at zero cost — administrative work is not billed to
    /// guests). The check reads the address table without probing it;
    /// the repairs resolve paths, so the file-system counters they move
    /// are restored afterward and simulated time is unchanged.
    fn fsck_at_boot(&mut self) {
        let fs_stats = self.kernel.vfs.shared.fs.stats;
        let issues = hsfs::tools::fsck_boot(&mut self.kernel.vfs.shared);
        for issue in &issues {
            use hsfs::tools::RepairVerdict;
            let verdict = hsfs::tools::fsck_repair(&mut self.kernel.vfs.shared, issue);
            // Corrupt blocks get the same bookkeeping as a scrub finding
            // (the scan itself rides fsck for free).
            if let hsfs::tools::FsckIssue::CorruptBlock {
                ino,
                offset,
                reason,
            } = *issue
            {
                let source = match verdict {
                    RepairVerdict::Healed(source, _) => Some(source),
                    _ => None,
                };
                self.record_corruption(ino, offset, reason, source);
            }
            let detail = match verdict {
                RepairVerdict::Repaired(d) | RepairVerdict::Healed(_, d) => d,
                RepairVerdict::Unrepaired(d) => format!("UNREPAIRED: {d}"),
            };
            self.log.push(format!("fsck: {detail}"));
            self.publish(0, TraceEvent::FsckRepaired { detail });
        }
        self.kernel.vfs.shared.fs.stats = fs_stats;
    }

    /// Enumerates every shared segment, annotated with whether it is a
    /// linked module (has linker metadata) and its exported symbols —
    /// the "peruse all of the segments in existence" facility of §5,
    /// module-aware.
    pub fn list_segments(&mut self) -> Vec<(hsfs::tools::SegmentInfo, Option<Vec<String>>)> {
        let infos = hsfs::tools::list_segments(&mut self.kernel.vfs.shared);
        infos
            .into_iter()
            .map(|info| {
                let exports = self
                    .registry
                    .get(&mut self.kernel.vfs, info.ino)
                    .map(|m| m.exports.iter().map(|(n, _)| n.clone()).collect());
                (info, exports)
            })
            .collect()
    }

    // --- inspection helpers ---

    /// The instance inode and the byte range of the word at an exported
    /// symbol of a public module instance. The metadata file is
    /// guest-writable, so a forged export may lie anywhere, including
    /// below the instance base.
    fn shared_word_slot(
        &mut self,
        instance_path: &str,
        symbol: &str,
    ) -> Result<(hsfs::Ino, std::ops::Range<usize>), WorldError> {
        let no_such = || WorldError::NoSuchSymbol(symbol.to_string());
        let ino = self.kernel.vfs.resolve(instance_path)?.ino;
        let meta = self
            .registry
            .get(&mut self.kernel.vfs, ino)
            .ok_or_else(no_such)?;
        let addr = meta.find_export(symbol).ok_or_else(no_such)?;
        let off = addr.checked_sub(meta.base).ok_or_else(no_such)? as usize;
        Ok((ino, off..off + 4))
    }

    /// Reads the word at an exported symbol of a public module instance.
    pub fn peek_shared_word(
        &mut self,
        instance_path: &str,
        symbol: &str,
    ) -> Result<u32, WorldError> {
        let (ino, slot) = self.shared_word_slot(instance_path, symbol)?;
        let bytes = self.kernel.vfs.shared.fs.file_bytes(ino)?;
        // A crash can recover the instance with its metadata committed
        // but its content still short of this symbol's slot.
        let word = bytes
            .get(slot)
            .ok_or_else(|| WorldError::NoSuchSymbol(symbol.to_string()))?;
        Ok(u32::from_le_bytes(word.try_into().unwrap()))
    }

    /// Writes the word at an exported symbol of a public module instance.
    pub fn poke_shared_word(
        &mut self,
        instance_path: &str,
        symbol: &str,
        value: u32,
    ) -> Result<(), WorldError> {
        let (ino, slot) = self.shared_word_slot(instance_path, symbol)?;
        let bytes = self.kernel.vfs.shared.fs.file_bytes_mut(ino)?;
        let slot = bytes
            .get_mut(slot)
            .ok_or_else(|| WorldError::NoSuchSymbol(symbol.to_string()))?;
        slot.copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Gathers all counters for the cost model.
    pub fn stats(&self) -> WorldStats {
        let kernel = self.kernel.stats;
        let (races_detected, sync_edges, shadow_bytes) = match &self.sanitizer {
            Some(san) => {
                let s = san.lock().unwrap();
                (s.races_detected(), s.sync_edges(), s.shadow_bytes())
            }
            None => (0, 0, 0),
        };
        let pool = self.kernel.frame_pool().stats();
        let blocks = self.kernel.block_table();
        let ldl = self.ldl_stats;
        WorldStats {
            kernel,
            root_fs: self.kernel.vfs.root.stats,
            shared_fs: self.kernel.vfs.shared.fs.stats,
            addr_lookups: self.kernel.vfs.shared.addr_lookups,
            addr_probe_steps: self.kernel.vfs.shared.addr_probe_steps,
            ldl,
            cow_copies: kernel.cow_copies,
            tlb_hits: kernel.tlb_hits,
            tlb_misses: kernel.tlb_misses,
            faults_injected: self.tallies.get("FaultInjected").count,
            faults_recovered: self.tallies.get("RecoveryTaken").count,
            races_detected,
            sync_edges,
            shadow_bytes,
            page_evictions: self.tallies.get("PageEvicted").count,
            page_writebacks: self.tallies.get("WritebackTaken").count,
            swap_outs: self.tallies.swap_outs(),
            swap_ins: self.tallies.get("PageSwappedIn").count,
            resident_frames: pool.resident,
            peak_resident_frames: pool.peak_resident,
            frame_budget: pool.capacity,
            oom_kills: self.tallies.oom_kills(),
            shootdowns: kernel.shootdowns,
            ipis: kernel.ipis,
            cross_cpu_steals: kernel.cross_cpu_steals,
            bblocks_built: blocks.built,
            bblock_hits: blocks.hits,
            bblock_invalidations: self.tallies.blocks_invalidated(),
            crashes: self.tallies.get("CrashTaken").count,
            journal_replays: self.tallies.get("JournalReplayed").count,
            blocks_discarded: self.tallies.blocks_discarded(),
            recovery_ns: self.tallies.get("JournalReplayed").cost_ns,
            blocks_scrubbed: self.tallies.blocks_scrubbed(),
            corruptions_detected: self.tallies.get("CorruptionDetected").count,
            blocks_repaired: self.tallies.get("BlockRepaired").count,
            eio_kills: self.tallies.get("EioKilled").count,
            link_failures: self.tallies.get("LinkFailed").count,
            snapshot_hits: ldl.snapshot_hits,
            snapshot_misses: ldl.snapshot_misses,
            snapshot_invalidations: ldl.snapshot_invalidations,
            snapshot_rebuilds: ldl.snapshot_rebuilds,
        }
    }

    /// The conservation oracle. Drains every pending journal, then
    /// checks that each counter a layer keeps beside its records equals
    /// that record kind's tally, and that each priced tally group equals
    /// its [`CostModel::time`] term priced with `self.costs`, and that
    /// every live pid has a runtime record and no record outlives its
    /// pid. The error names every relation that failed. `run` and
    /// `stats` never call it, so it costs nothing unless asked for.
    pub fn audit(&mut self) -> Result<(), String> {
        self.drain_journals(0);
        let s = self.stats();
        let count = |kind| self.tallies.get(kind).count;
        let mut failed = Vec::new();
        for (counter, n, kind) in [
            ("cross_cpu_steals", s.cross_cpu_steals, "CpuSteal"),
            (
                "ldl.symbols_resolved",
                s.ldl.symbols_resolved,
                "SymbolResolved",
            ),
            ("snapshot_hits", s.snapshot_hits, "SnapshotHit"),
            ("snapshot_misses", s.snapshot_misses, "SnapshotMiss"),
            (
                "snapshot_invalidations",
                s.snapshot_invalidations,
                "SnapshotInvalidated",
            ),
            ("snapshot_rebuilds", s.snapshot_rebuilds, "SnapshotRebuilt"),
        ] {
            if n != count(kind) {
                failed.push(format!(
                    "{counter} is {n} but {} {kind} records",
                    count(kind)
                ));
            }
        }
        let procs = &self.kernel.procs;
        for pid in procs.keys().filter(|pid| !self.runtime.contains_key(pid)) {
            failed.push(format!("pid {pid} is live without a runtime record"));
        }
        for pid in self.runtime.keys().filter(|pid| !procs.contains_key(pid)) {
            failed.push(format!("pid {pid} exited but its runtime record remains"));
        }
        // The live plan counts only itself; the tally spans every plan.
        if self.faults.injected() > s.faults_injected {
            let live = self.faults.injected();
            failed.push(format!(
                "the armed plan injected {live}, the tally holds {}",
                s.faults_injected
            ));
        }
        // A group's term is what `time` bills for its counters alone.
        let term = |clear: fn(&mut WorldStats)| {
            let mut rest = s;
            clear(&mut rest);
            self.costs.time(&s).0 - self.costs.time(&rest).0
        };
        type Clear = fn(&mut WorldStats);
        let groups: [(&str, &[&str], Clear); 5] = [
            (
                "pressure",
                &["PageEvicted", "WritebackTaken", "PageSwappedIn"],
                |t| (t.page_evictions, t.page_writebacks, t.swap_outs, t.swap_ins) = (0, 0, 0, 0),
            ),
            ("smp", &["TlbShootdown"], |t| {
                (t.ipis, t.shootdowns) = (0, 0)
            }),
            ("recovery", &["JournalReplayed"], |t| t.recovery_ns = 0),
            ("integrity", &["ScrubPass", "BlockRepaired"], |t| {
                (t.blocks_scrubbed, t.blocks_repaired) = (0, 0)
            }),
            ("snapshot", &["SnapshotHit", "SnapshotInvalidated"], |t| {
                (t.snapshot_hits, t.snapshot_invalidations) = (0, 0)
            }),
        ];
        for (group, kinds, clear) in groups {
            let traced: u64 = kinds.iter().map(|k| self.tallies.get(k).cost_ns).sum();
            let billed = term(clear);
            if traced != billed {
                failed.push(format!(
                    "{group} term: records carry {traced} ns, time bills {billed}"
                ));
            }
        }
        if failed.is_empty() {
            Ok(())
        } else {
            Err(failed.join("; "))
        }
    }
}

enum HeapOp {
    Init,
    Alloc,
    Free,
}
