//! `htrace` — a bounded ring buffer of structured fault-path events.
//!
//! The paper's central mechanism is invisible when it works: a program
//! touches an unmapped shared segment, the kernel turns the SIGSEGV into
//! a user-level fault, `ldl` translates the address to a file, maps the
//! segment, resolves symbols, and the instruction restarts — all between
//! two guest instructions. This module records that protocol as explicit
//! events so tests can assert the sequence and humans can read it when
//! an experiment (E6 in particular) misbehaves.
//!
//! The vocabulary is [`TraceEvent`], defined in `hkernel` so every layer
//! journals it directly. Every record carries the simulated-time cost of
//! its step, decided by [`crate::CostModel::price`] alone, so a dump
//! doubles as a cost breakdown of the fault path. Beside the bounded
//! ring, [`TraceTallies`] keep exact per-kind totals that never evict.

use hkernel::Pid;
pub use hkernel::TraceEvent;
use std::collections::{BTreeMap, VecDeque};

/// Default capacity of a [`TraceBuffer`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A recorded event with its context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic sequence number (never reused, survives eviction).
    pub seq: u64,
    /// The process the event belongs to.
    pub pid: Pid,
    /// Simulated-nanosecond cost of this step (cost-model units).
    pub cost_ns: u64,
    /// The event.
    pub event: TraceEvent,
}

/// A bounded ring of [`TraceRecord`]s; the oldest records are evicted
/// once the capacity is reached.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    next_seq: u64,
    evicted: u64,
}

impl Default for TraceBuffer {
    fn default() -> TraceBuffer {
        TraceBuffer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceBuffer {
    /// An empty buffer holding at most `capacity` records.
    pub fn new(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            records: VecDeque::with_capacity(capacity.min(DEFAULT_TRACE_CAPACITY)),
            capacity: capacity.max(1),
            next_seq: 0,
            evicted: 0,
        }
    }

    /// Appends a record, evicting the oldest if full.
    pub fn record(&mut self, pid: Pid, cost_ns: u64, event: TraceEvent) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back(TraceRecord {
            seq: self.next_seq,
            pid,
            cost_ns,
            event,
        });
        self.next_seq += 1;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Retained records for one process, oldest first.
    pub fn records_for(&self, pid: Pid) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| r.pid == pid)
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The buffer's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted by the ring since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Drops all retained records (sequence numbers keep counting).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Renders the retained records as a text table for debugging.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        if self.evicted > 0 {
            out.push_str(&format!("... {} older records evicted ...\n", self.evicted));
        }
        for r in &self.records {
            out.push_str(&format!(
                "[{:>6}] pid {:<3} +{:>8} ns  {}\n",
                r.seq, r.pid, r.cost_ns, r.event
            ));
        }
        out
    }
}

/// Records of one kind: how many were published and their summed cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Records published.
    pub count: u64,
    /// Their summed simulated-nanosecond cost.
    pub cost_ns: u64,
}

/// Exact running totals of every record ever published. Unlike the
/// ring, tallies never evict and survive [`TraceBuffer::clear`] and a
/// replaced ring, so counters read from them reconcile with the records
/// for runs of any length.
#[derive(Clone, Debug, Default)]
pub struct TraceTallies {
    kinds: BTreeMap<&'static str, Tally>,
    blocks_discarded: u64,
    blocks_scrubbed: u64,
}

impl TraceTallies {
    /// Counts one published record.
    pub(crate) fn add(&mut self, event: &TraceEvent, cost_ns: u64) {
        let tally = self.kinds.entry(event.kind()).or_default();
        tally.count += 1;
        tally.cost_ns += cost_ns;
        match *event {
            TraceEvent::CrashTaken { blocks_discarded } => {
                self.blocks_discarded += blocks_discarded
            }
            TraceEvent::ScrubPass { blocks, .. } => self.blocks_scrubbed += blocks,
            _ => {}
        }
    }

    /// The tally of one record kind ([`TraceEvent::kind`]).
    pub fn get(&self, kind: &str) -> Tally {
        self.kinds.get(kind).copied().unwrap_or_default()
    }

    /// `blocks_discarded` summed over `CrashTaken` records.
    pub fn blocks_discarded(&self) -> u64 {
        self.blocks_discarded
    }

    /// `blocks` summed over `ScrubPass` records.
    pub fn blocks_scrubbed(&self) -> u64 {
        self.blocks_scrubbed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut t = TraceBuffer::new(2);
        t.record(1, 10, TraceEvent::FaultTaken { addr: 0x100 });
        t.record(1, 20, TraceEvent::InstructionRestarted { addr: 0x100 });
        t.record(1, 30, TraceEvent::FaultTaken { addr: 0x200 });
        assert_eq!(t.len(), 2);
        assert_eq!(t.evicted(), 1);
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn per_pid_filter_and_dump() {
        let mut t = TraceBuffer::new(8);
        t.record(1, 120_000, TraceEvent::FaultTaken { addr: 0x3000_0000 });
        t.record(
            2,
            5_000,
            TraceEvent::AddrTranslated {
                addr: 0x3000_0000,
                path: "/shared/db".into(),
            },
        );
        assert_eq!(t.records_for(1).count(), 1);
        assert_eq!(t.records_for(2).count(), 1);
        let dump = t.dump();
        assert!(dump.contains("FaultTaken addr=0x30000000"));
        assert!(dump.contains("/shared/db"));
    }

    /// Exactly-capacity fill: nothing is evicted, ordering is oldest
    /// first, and the dump carries no eviction banner.
    #[test]
    fn exactly_capacity_keeps_everything_in_order() {
        let cap = 5;
        let mut t = TraceBuffer::new(cap);
        for i in 0..cap as u32 {
            t.record(1, u64::from(i), TraceEvent::FaultTaken { addr: i * 16 });
        }
        assert_eq!(t.len(), cap);
        assert_eq!(t.evicted(), 0);
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..cap as u64).collect::<Vec<_>>());
        let dump = t.dump();
        assert!(!dump.contains("evicted"), "no banner at exact capacity");
        // Rows appear oldest-first in the dump.
        let first = dump.find("addr=0x00000000").unwrap();
        let last = dump.find("addr=0x00000040").unwrap();
        assert!(first < last);
    }

    /// Over-capacity: the ring wraps, seq numbers stay monotonic and
    /// gap-free across the wrap, and the dump reports the eviction count.
    #[test]
    fn over_capacity_wraps_with_monotonic_seq_and_banner() {
        let cap = 4;
        let total = 11u64;
        let mut t = TraceBuffer::new(cap);
        for i in 0..total {
            t.record(
                (i % 3 + 1) as hkernel::Pid,
                i,
                TraceEvent::FaultTaken { addr: i as u32 },
            );
        }
        assert_eq!(t.len(), cap);
        assert_eq!(t.evicted(), total - cap as u64);
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "newest `cap` records survive");
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
        let dump = t.dump();
        assert!(dump.contains("... 7 older records evicted ..."));
        // The dump lists survivors oldest-first after the banner.
        let banner = dump.find("evicted").unwrap();
        let first_row = dump.find("[     7]").unwrap();
        assert!(banner < first_row);
    }

    #[test]
    fn chaos_event_pair_renders() {
        let mut t = TraceBuffer::new(4);
        t.record(
            3,
            0,
            TraceEvent::FaultInjected {
                site: "inode_alloc",
            },
        );
        t.record(
            3,
            0,
            TraceEvent::RecoveryTaken {
                action: "killed-victim",
                retries: 0,
            },
        );
        let dump = t.dump();
        assert!(dump.contains("FaultInjected site=inode_alloc"));
        assert!(dump.contains("RecoveryTaken action=killed-victim"));
        assert_eq!(
            TraceEvent::FaultInjected { site: "x" }.kind(),
            "FaultInjected"
        );
        assert_eq!(
            TraceEvent::RecoveryTaken {
                action: "x",
                retries: 0
            }
            .kind(),
            "RecoveryTaken"
        );
    }

    #[test]
    fn integrity_events_render() {
        let mut t = TraceBuffer::new(4);
        t.record(
            0,
            0,
            TraceEvent::CorruptionDetected {
                ino: 3,
                block: 4096,
                reason: "address-stamp",
            },
        );
        t.record(
            0,
            4_000_000,
            TraceEvent::BlockRepaired {
                ino: 3,
                block: 4096,
                source: "replica",
            },
        );
        t.record(
            0,
            0,
            TraceEvent::ScrubPass {
                blocks: 12,
                corrupt: 1,
                repaired: 1,
            },
        );
        let dump = t.dump();
        assert!(dump.contains("CorruptionDetected ino=3 block=4096 reason=address-stamp"));
        assert!(dump.contains("BlockRepaired ino=3 block=4096 source=replica"));
        assert!(dump.contains("ScrubPass blocks=12 corrupt=1 repaired=1"));
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(TraceEvent::FaultTaken { addr: 0 }.kind(), "FaultTaken");
        assert_eq!(
            TraceEvent::SegmentMapped {
                base: 0,
                module: None
            }
            .kind(),
            "SegmentMapped"
        );
    }
}
