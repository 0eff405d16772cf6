//! Processes: CPU context, address space, descriptors, environment.

use crate::mem::AddressSpace;
use hsfs::fs::LockKind;
use hsfs::vfs::Vnode;
use hvm::Cpu;
use std::collections::BTreeMap;

/// A process identifier.
pub type Pid = u32;

/// Why a process is not runnable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Block {
    /// `waitpid` — waiting for a child (`None` = any child).
    Wait(Option<Pid>),
    /// P() on a semaphore.
    Sem(u32),
    /// Blocking `flock`.
    Lock { vnode: Vnode, kind: LockKind },
}

/// Scheduler state of a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Eligible to run.
    Runnable,
    /// Waiting on a resource.
    Blocked(Block),
}

/// An open-file descriptor.
#[derive(Clone, Debug)]
pub struct FileDesc {
    /// The open vnode.
    pub vnode: Vnode,
    /// Current byte offset.
    pub offset: u64,
    /// Opened with write permission.
    pub writable: bool,
}

/// One simulated process.
#[derive(Clone, Debug)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent process id (0 for the initial process).
    pub ppid: Pid,
    /// Owning user.
    pub uid: u32,
    /// Current working directory (absolute).
    pub cwd: String,
    /// Environment (`LD_LIBRARY_PATH` steers `ldl`'s search).
    pub env: BTreeMap<String, String>,
    /// CPU context.
    pub cpu: Cpu,
    /// Page table.
    pub aspace: AddressSpace,
    /// Scheduler state.
    pub state: ProcState,
    /// Open files.
    pub fds: BTreeMap<i32, FileDesc>,
    next_fd: i32,
    /// Heap break (top of the private data region in use).
    pub brk: u32,
    /// End of the mapped heap, page-aligned and never below `brk`: a
    /// shrinking `sbrk` leaves its pages mapped, so regrowth maps only
    /// what lies past this.
    pub(crate) heap_end: u32,
    /// Captured console output (writes to fd 1/2).
    pub console: Vec<u8>,
    /// Guest-registered SIGSEGV handler entry point, if any. Installed via
    /// the `sigaction` syscall — the "program-provided handler" that
    /// Hemlock's library falls back to when its own handler cannot
    /// resolve a fault.
    pub segv_handler: Option<u32>,
    /// Saved context while a guest signal handler runs.
    pub sig_saved: Option<Box<Cpu>>,
    /// Name of the image this process is executing (diagnostics).
    pub image_name: String,
}

impl Process {
    /// Creates an empty process shell (no mappings, PC 0).
    pub fn new(pid: Pid, ppid: Pid, uid: u32) -> Process {
        Process {
            pid,
            ppid,
            uid,
            cwd: "/".to_string(),
            env: BTreeMap::new(),
            cpu: Cpu::new(),
            aspace: AddressSpace::new(),
            state: ProcState::Runnable,
            fds: BTreeMap::new(),
            next_fd: 3,
            brk: 0,
            heap_end: 0,
            console: Vec::new(),
            segv_handler: None,
            sig_saved: None,
            image_name: String::new(),
        }
    }

    /// Allocates a descriptor for `vnode`.
    pub fn alloc_fd(&mut self, vnode: Vnode, writable: bool) -> i32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(
            fd,
            FileDesc {
                vnode,
                offset: 0,
                writable,
            },
        );
        fd
    }

    /// The fork copy: same CPU context (so parent and child "come out of
    /// the fork with identical program counters", §5), copy-on-write
    /// private pages, shared public pages, duplicated descriptors.
    pub fn fork_into(&mut self, pid: Pid) -> Process {
        Process {
            pid,
            ppid: self.pid,
            uid: self.uid,
            cwd: self.cwd.clone(),
            env: self.env.clone(),
            cpu: self.cpu.clone(),
            aspace: self.aspace.fork_clone(),
            state: ProcState::Runnable,
            fds: self.fds.clone(),
            next_fd: self.next_fd,
            brk: self.brk,
            heap_end: self.heap_end,
            console: Vec::new(),
            segv_handler: self.segv_handler,
            sig_saved: None,
            image_name: self.image_name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvm::Reg;

    #[test]
    fn fork_copies_context() {
        let mut p = Process::new(1, 0, 5);
        p.cwd = "/home/u".into();
        p.env.insert("LD_LIBRARY_PATH".into(), "/tmp/x".into());
        p.cpu.pc = 0x1234;
        p.cpu.set_reg(Reg::SP, 0x7FFE_0000);
        let c = p.fork_into(2);
        assert_eq!(c.pid, 2);
        assert_eq!(c.ppid, 1);
        assert_eq!(c.cpu.pc, 0x1234);
        assert_eq!(c.cpu.reg(Reg::SP), 0x7FFE_0000);
        assert_eq!(c.env["LD_LIBRARY_PATH"], "/tmp/x");
        assert_eq!(c.state, ProcState::Runnable);
        assert!(c.console.is_empty());
    }

    #[test]
    fn fd_allocation() {
        let mut p = Process::new(1, 0, 0);
        let v = Vnode {
            mount: hsfs::vfs::Mount::Root,
            ino: 9,
        };
        let a = p.alloc_fd(v, false);
        let b = p.alloc_fd(v, true);
        assert_eq!(a, 3);
        assert_eq!(b, 4);
        assert!(!p.fds[&a].writable);
        assert!(p.fds[&b].writable);
    }
}
