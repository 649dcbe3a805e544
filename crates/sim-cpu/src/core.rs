//! The cycle-level out-of-order core model.
//!
//! A timing-first OoO model: µops flow through fetch → dispatch → issue →
//! commit under the Table I resource constraints. True data dependencies
//! are honored exactly (the trace carries register operands; renaming is
//! implicit since every dynamic µop is a fresh ROB entry), structural
//! hazards are modelled by widths, the RS window, LDQ/STQ occupancy,
//! memory ports and an unpipelined divider, and control hazards by the
//! TAGE predictor with frontend redirect stalls. L1 caches/TLBs are
//! looked up inline; misses ask the [`MemoryBackend`] for a completion
//! cycle, which naturally captures LLC capacity/latency, MSHR and
//! bandwidth contention when the backend is the shared uncore.
//!
//! Simplifications relative to a real machine (all standard for
//! trace-driven simulators, and shared by the paper's framing since both
//! of its simulators plug into the same uncore): no wrong-path fetch
//! (mispredictions stall fetch until resolve + redirect penalty), L1 fills
//! update tags immediately, and stores never forward to loads (the
//! generators use disjoint load/store address streams, so forwarding
//! would not trigger anyway).

use crate::backend::MemoryBackend;
use crate::branch::Tage;
use crate::config::CoreConfig;
use crate::record::{ReqEvent, RunRecording};
use crate::tlb::Tlb;
use mps_uncore::{AccessType, Cache, PolicyKind};
use mps_workloads::{Reg, TraceSource, UopKind};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Per-core performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// µops committed.
    pub committed: u64,
    /// Dynamic branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// L1D demand accesses.
    pub dl1_accesses: u64,
    /// L1D demand misses.
    pub dl1_misses: u64,
    /// L1I line fetches.
    pub il1_accesses: u64,
    /// L1I misses.
    pub il1_misses: u64,
    /// DTLB misses.
    pub dtlb_misses: u64,
    /// ITLB misses.
    pub itlb_misses: u64,
}

/// One in-flight µop.
#[derive(Debug, Clone, Copy)]
struct RobEntry {
    /// Dynamic µop index: sequence numbers are assigned in fetch order,
    /// which equals commit order on the correct path.
    seq: u64,
    kind: UopKind,
    addr: u64,
    pc: u64,
    issued: bool,
    complete: u64,
    mispredicted: bool,
    /// Latest completion cycle among the producers that have issued.
    ready_at: u64,
    /// Producers not yet issued; the entry wakes when this reaches 0.
    waits: u8,
}

impl RobEntry {
    /// The contents of a ROB slot no µop has used yet.
    const EMPTY: RobEntry = RobEntry {
        seq: 0,
        kind: UopKind::IntAlu,
        addr: 0,
        pc: 0,
        issued: false,
        complete: 0,
        mispredicted: false,
        ready_at: 0,
        waits: 0,
    };
}

/// End of an intrusive list (dependents, calendar buckets).
const NIL: u32 = u32::MAX;

/// Cycles the wake-up calendar's buckets span (a power of two).
const WINDOW: usize = 512;

/// Entries waiting for their operands, keyed by the cycle the last of them
/// completes: a calendar of intrusive per-ROB-slot lists, one bucket per
/// cycle over a window of [`WINDOW`] cycles, with an occupancy bitmap.
/// Cycles beyond the window wait in a small `overflow` heap.
///
/// Every pending cycle is later than the last drain, and the bucketed
/// ones lie in `[base, base + WINDOW)`, so bucket `t % WINDOW` holds
/// exactly the entries waking at `t`, and the first occupied bucket
/// from `base` onwards is the earliest wake-up in the window.
#[derive(Debug)]
struct WakeCalendar {
    /// Per bucket, the first ROB slot of its list.
    head: Vec<u32>,
    /// Per ROB slot, the next slot of the same bucket.
    next: Vec<u32>,
    /// Bit `b % 64` of word `b / 64` is set iff bucket `b` is non-empty.
    occupied: [u64; WINDOW / 64],
    /// No bucketed entry wakes before this cycle.
    base: u64,
    /// `(cycle, slot)` of the entries waking at or after `base + WINDOW`
    /// when they were pushed.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
}

impl WakeCalendar {
    fn new(slots: usize, cap: usize) -> Self {
        WakeCalendar {
            head: vec![NIL; WINDOW],
            next: vec![NIL; slots],
            occupied: [0; WINDOW / 64],
            base: 0,
            // At most `cap` entries wait at once: no reallocation.
            overflow: BinaryHeap::with_capacity(cap),
        }
    }

    /// Schedules ROB slot `slot` to wake at cycle `at`. Called at `now`
    /// with every pending entry, this one included, waking after `now`.
    fn push(&mut self, now: u64, at: u64, slot: usize) {
        debug_assert!(at > now);
        // Nothing pending wakes at or before `now`, so the window can
        // start at `now + 1`.
        self.base = self.base.max(now + 1);
        if at - self.base >= WINDOW as u64 {
            self.overflow.push(Reverse((at, slot as u32)));
            return;
        }
        let b = at as usize % WINDOW;
        self.next[slot] = self.head[b];
        self.head[b] = slot as u32;
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// Hands every slot waking at or before `now` to `wake`, in no
    /// particular order.
    fn drain(&mut self, now: u64, mut wake: impl FnMut(usize)) {
        let last = now.min(self.base + WINDOW as u64 - 1);
        let mut t = self.base;
        while t <= last {
            let b = t as usize % WINDOW;
            let bits = self.occupied[b / 64] >> (b % 64);
            if bits == 0 {
                t += 64 - (b % 64) as u64;
                continue;
            }
            t += u64::from(bits.trailing_zeros());
            if t > last {
                break;
            }
            let b = t as usize % WINDOW;
            let mut slot = std::mem::replace(&mut self.head[b], NIL);
            self.occupied[b / 64] &= !(1 << (b % 64));
            while slot != NIL {
                wake(slot as usize);
                slot = self.next[slot as usize];
            }
            t += 1;
        }
        self.base = self.base.max(now + 1);
        while let Some(&Reverse((at, slot))) = self.overflow.peek() {
            if at > now {
                break;
            }
            self.overflow.pop();
            wake(slot as usize);
        }
    }

    /// The earliest pending wake-up cycle; `u64::MAX` if none.
    fn earliest(&self) -> u64 {
        let mut best = self.overflow.peek().map_or(u64::MAX, |r| r.0 .0);
        let start = self.base as usize % WINDOW;
        // Scan the words cyclically from `base`'s; the first word is
        // visited again at the end for the buckets before `base`'s.
        for i in 0..=WINDOW / 64 {
            let word = (start / 64 + i) % (WINDOW / 64);
            let mut bits = self.occupied[word];
            if i == 0 {
                bits &= u64::MAX << (start % 64);
            }
            if bits != 0 {
                let b = word * 64 + bits.trailing_zeros() as usize;
                let t = self.base + ((b + WINDOW - start) % WINDOW) as u64;
                best = best.min(t);
                break;
            }
        }
        best
    }
}

/// A capacity-limited queue whose entries free at scheduled cycles
/// (models LDQ/STQ occupancy).
///
/// Releases are collected only when the queue looks full: until then a
/// reservation succeeds whether or not some are due, so `used` may count
/// entries already released, but never when it is compared with `cap`.
#[derive(Debug, Default)]
struct ReleaseQueue {
    cap: usize,
    /// Reservations not yet seen released.
    used: usize,
    /// Scheduled release cycles, in no particular order.
    releases: Vec<u64>,
    /// The earliest of `releases`; `u64::MAX` when there are none.
    earliest: u64,
}

impl ReleaseQueue {
    fn new(cap: usize) -> Self {
        ReleaseQueue {
            cap,
            used: 0,
            // At most `cap` entries are ever queued: no reallocation in
            // the steady state.
            releases: Vec::with_capacity(cap),
            earliest: u64::MAX,
        }
    }

    /// Whether a reservation at `now` would succeed, without reserving.
    /// A full-looking queue first drops the releases due by `now`.
    fn has_room(&mut self, now: u64) -> bool {
        if self.used >= self.cap && now >= self.earliest {
            let before = self.releases.len();
            self.releases.retain(|&t| t > now);
            self.used -= before - self.releases.len();
            self.earliest = self.releases.iter().copied().min().unwrap_or(u64::MAX);
        }
        self.used < self.cap
    }

    fn try_reserve(&mut self, now: u64) -> bool {
        let room = self.has_room(now);
        self.used += usize::from(room);
        room
    }

    fn schedule_release(&mut self, t: u64) {
        self.releases.push(t);
        self.earliest = self.earliest.min(t);
    }

    /// Earliest scheduled (future) release, if any, once `has_room` has
    /// reported a full queue at `now`. Entries reserved but not yet
    /// scheduled (dispatched µops that have not issued) are not visible
    /// here — their release is created by a future issue event.
    fn earliest_release(&self) -> Option<u64> {
        (self.earliest != u64::MAX).then_some(self.earliest)
    }
}

/// A fetched µop waiting to dispatch: the fields of its
/// [`Uop`](mps_workloads::Uop) that dispatch reads, and whether it was
/// mispredicted.
#[derive(Debug, Clone, Copy)]
struct FetchedUop {
    kind: UopKind,
    srcs: [Option<Reg>; 2],
    dst: Option<Reg>,
    mispredicted: bool,
    addr: u64,
    pc: u64,
}

/// Capacity of the in-flight data-prefetch table (`pf_pending`).
const PF_PENDING_CAP: usize = 64;

/// One out-of-order core bound to a trace.
pub struct Core {
    cfg: CoreConfig,
    id: usize,
    trace: Box<dyn TraceSource>,
    /// Length of the trace slice; fetch restarts the trace at this many
    /// µops (the paper's thread-restart rule), and IPC is measured over
    /// the first slice.
    trace_len: u64,

    // Frontend.
    fetch_buffer: VecDeque<FetchedUop>,
    fetch_stall_until: u64,
    /// Fetch is blocked on an unresolved mispredicted branch.
    fetch_blocked: bool,
    last_fetch_line: Option<u64>,
    /// `log2(line_bytes)` (`CoreConfig::validate` requires a power of
    /// two): a line number is the address shifted right.
    line_shift: u32,
    bp: Tage,
    il1: Cache,
    itlb: Tlb,
    il1_next_pf: mps_uncore::NextLinePrefetcher,
    fetched: u64,
    fetched_in_slice: u64,

    // Backend.
    /// The ROB as a ring: in-flight entry `seq` lives in slot
    /// `seq & slot_mask`, and the in-flight entries are
    /// `head_seq..next_seq`.
    rob: Vec<RobEntry>,
    head_seq: u64,
    next_seq: u64,
    /// Entries in the ROB not yet issued (the RS occupancy), maintained
    /// incrementally so dispatch does not rescan the ROB every cycle.
    unissued: usize,
    /// The mask spans at least `rob_entries` slots, so in-flight entries
    /// never share a slot.
    slot_mask: u64,
    /// Per ROB slot, the first link node of the entry's dependents list.
    /// Node `2 * slot + k` links the entry in `slot` through its source
    /// `k`, so each unissued producer chains its waiting consumers without
    /// allocating.
    dep_head: Vec<u32>,
    /// Per link node, the next node of the same dependents list.
    dep_next: Vec<u32>,
    /// Entries whose producers have all issued, keyed by the cycle the
    /// last of them completes.
    wakeups: WakeCalendar,
    /// The entries whose operands are available by the next select: the
    /// candidates `issue_stage` selects from, as a bitmap over ROB slots
    /// (bit `s % 64` of word `s / 64`; the word count is a power of two).
    /// Walking the slots cyclically from the head's visits them oldest
    /// first.
    ready: Vec<u64>,
    /// Earliest cycle `issue_stage` can issue anything: `now + 1` after
    /// any issue or dispatch, otherwise the earlier of the first of
    /// `wakeups` and the divider freeing for a ready divide. Until then
    /// `issue_stage` returns at once.
    issue_wake: u64,
    reg_producer: [Option<u64>; mps_workloads::uop::NUM_REGS],
    ldq: ReleaseQueue,
    stq: ReleaseQueue,
    dl1: Cache,
    dtlb: Tlb,
    dl1_stride_pf: mps_uncore::IpStridePrefetcher,
    dl1_next_pf: mps_uncore::NextLinePrefetcher,
    /// Data lines with an in-flight prefetch: `(line, ready cycle)` pairs.
    /// The line enters the DL1 only when a demand access arrives at/after
    /// its ready cycle (a demand arriving earlier waits for it). Bounded
    /// at [`PF_PENDING_CAP`] entries, so a linear scan of a flat vector
    /// beats a hash map — no hashing, no heap traffic, one cache stream.
    pf_pending: Vec<(u64, u64)>,
    div_free: u64,

    committed: u64,
    finish_cycle: Option<u64>,
    stats: CoreStats,
    recorder: Option<RunRecording>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("committed", &self.committed)
            .field("finish_cycle", &self.finish_cycle)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core with the given id, trace, and slice length.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `trace_len` is zero.
    pub fn new(cfg: CoreConfig, id: usize, trace: Box<dyn TraceSource>, trace_len: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid CoreConfig: {e}");
        }
        assert!(trace_len > 0, "trace slice must be non-empty");
        let il1_sets = (cfg.il1_size / (cfg.il1_ways as u64 * cfg.line_bytes)) as usize;
        let dl1_sets = (cfg.dl1_size / (cfg.dl1_ways as u64 * cfg.line_bytes)) as usize;
        let slots = cfg.rob_entries.next_power_of_two();
        Core {
            id,
            trace,
            trace_len,
            fetch_buffer: VecDeque::with_capacity(cfg.fetch_buffer),
            fetch_stall_until: 0,
            fetch_blocked: false,
            last_fetch_line: None,
            line_shift: cfg.line_bytes.trailing_zeros(),
            bp: Tage::new(),
            il1: Cache::new(il1_sets, cfg.il1_ways, PolicyKind::Lru),
            itlb: Tlb::new(
                cfg.itlb_entries,
                cfg.itlb_ways,
                cfg.page_bytes,
                cfg.tlb_miss_penalty,
            ),
            il1_next_pf: mps_uncore::NextLinePrefetcher::new(),
            fetched: 0,
            fetched_in_slice: 0,
            rob: vec![RobEntry::EMPTY; slots],
            head_seq: 0,
            next_seq: 0,
            unissued: 0,
            slot_mask: slots as u64 - 1,
            dep_head: vec![NIL; slots],
            dep_next: vec![NIL; 2 * slots],
            // Only unissued entries wait, and dispatch keeps at most
            // `rs_entries` unissued: the overflow heap never reallocates.
            wakeups: WakeCalendar::new(slots, cfg.rs_entries),
            ready: vec![0; slots.div_ceil(64)],
            issue_wake: 0,
            reg_producer: [None; mps_workloads::uop::NUM_REGS],
            ldq: ReleaseQueue::new(cfg.ldq_entries),
            stq: ReleaseQueue::new(cfg.stq_entries),
            dl1: Cache::new(dl1_sets, cfg.dl1_ways, PolicyKind::Lru),
            dtlb: Tlb::new(
                cfg.dtlb_entries,
                cfg.dtlb_ways,
                cfg.page_bytes,
                cfg.tlb_miss_penalty,
            ),
            dl1_stride_pf: mps_uncore::IpStridePrefetcher::new(64, 2, cfg.line_bytes),
            dl1_next_pf: mps_uncore::NextLinePrefetcher::new(),
            pf_pending: Vec::with_capacity(PF_PENDING_CAP),
            div_free: 0,
            committed: 0,
            finish_cycle: None,
            stats: CoreStats::default(),
            recorder: None,
            cfg,
        }
    }

    /// Enables recording of commit times and backend requests (for BADCO
    /// model training). Must be called before the first cycle.
    pub fn enable_recording(&mut self) {
        assert_eq!(self.committed, 0, "recording must start at cycle 0");
        self.recorder = Some(RunRecording::with_capacity(self.trace_len as usize));
    }

    /// Takes the recording out of the core.
    pub fn take_recording(&mut self) -> Option<RunRecording> {
        self.recorder.take()
    }

    /// Cycle at which the first `trace_len` µops had all committed.
    pub fn finish_cycle(&self) -> Option<u64> {
        self.finish_cycle
    }

    /// Whether the measured slice is complete.
    pub fn done(&self) -> bool {
        self.finish_cycle.is_some()
    }

    /// µops committed so far (including restarted slices).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Performance counters.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// This core's id (its port on the uncore).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Advances the core by one cycle against the given memory backend.
    pub fn tick<B: MemoryBackend>(&mut self, now: u64, backend: &mut B) {
        self.commit_stage(now);
        self.issue_stage(now, backend);
        self.dispatch_stage(now);
        self.fetch_stage(now, backend);
    }

    /// Conservative lower bound, strictly greater than `now`, on the next
    /// cycle at which [`Core::tick`] could change architectural state or
    /// touch the memory backend. Called *after* the tick at `now`.
    ///
    /// [`crate::MulticoreSim::run`] uses this to jump the machine's clock
    /// over runs of provably-no-op cycles, and to let a core sit out
    /// executed cycles before its own bound; executing every skipped tick
    /// anyway performs no state change and no backend call, which is why
    /// the skip is bit-identical. Per stage:
    ///
    /// * **commit** — an issued ROB front commits at its recorded
    ///   completion time; an unissued front is the issue bound's problem.
    /// * **issue** — `issue_wake` is already a sound lower bound on the
    ///   next possible issue, and a zero-issue select is a pure no-op.
    ///   With nothing unissued the select cannot act until dispatch
    ///   refills it, and dispatch pulls `issue_wake` down when it does.
    /// * **dispatch** — needs a fetched µop, a ROB slot and a window
    ///   slot; the full-ROB / full-window cases unblock only via commit /
    ///   issue events, bounded above. A front Load/Store facing a full
    ///   LDQ/STQ waits for the queue's earliest scheduled release; a full
    ///   queue with no scheduled release means the freeing entry has not
    ///   issued yet, so the issue bound covers it.
    /// * **fetch** — blocked on a mispredicted branch (freed by issue) or
    ///   a full fetch buffer (freed by dispatch), both bounded above;
    ///   otherwise it fetches again as soon as any I-side stall expires.
    ///
    /// `u64::MAX` (every stage permanently blocked) is a genuine deadlock:
    /// the driver's deadlock guard fires on it.
    pub fn next_event_bound(&mut self, now: u64) -> u64 {
        let mut bound = u64::MAX;

        if self.head_seq < self.next_seq {
            let front = &self.rob[(self.head_seq & self.slot_mask) as usize];
            if front.issued {
                bound = bound.min(front.complete.max(now + 1));
            }
        }

        if self.unissued > 0 {
            bound = bound.min(self.issue_wake.max(now + 1));
        }

        if !self.fetch_buffer.is_empty()
            && self.rob_len() < self.cfg.rob_entries
            && self.unissued < self.cfg.rs_entries
        {
            let front_kind = self.fetch_buffer.front().map(|fu| fu.kind);
            let queue_block = match front_kind {
                Some(UopKind::Load) if !self.ldq.has_room(now) => Some(self.ldq.earliest_release()),
                Some(UopKind::Store) if !self.stq.has_room(now) => {
                    Some(self.stq.earliest_release())
                }
                _ => None,
            };
            match queue_block {
                None => bound = bound.min(now + 1),
                Some(Some(t)) => bound = bound.min(t.max(now + 1)),
                Some(None) => {} // frees via a future issue event
            }
        }

        if !self.fetch_blocked && self.fetch_buffer.len() < self.cfg.fetch_buffer {
            bound = bound.min(self.fetch_stall_until.max(now + 1));
        }

        bound
    }

    /// µops in flight between dispatch and commit.
    fn rob_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    fn commit_stage(&mut self, now: u64) {
        for _ in 0..self.cfg.commit_width {
            if self.head_seq == self.next_seq {
                break;
            }
            let front = &self.rob[(self.head_seq & self.slot_mask) as usize];
            if !front.issued || front.complete > now {
                break;
            }
            self.head_seq += 1;
            self.committed += 1;
            self.stats.committed += 1;
            if let Some(rec) = &mut self.recorder {
                rec.commit_cycles.push(now);
            }
            if self.committed == self.trace_len && self.finish_cycle.is_none() {
                self.finish_cycle = Some(now);
            }
        }
    }

    /// Issues the ready entries that fit this cycle's width, memory-port
    /// and divider limits, oldest first.
    ///
    /// Wake-up is event-driven: dispatch and each producer's issue keep
    /// every entry's `waits` and `ready_at` current, so an entry becomes a
    /// candidate exactly when its last producer has completed. The result
    /// is the select a scan of the whole window would make: every latency
    /// is at least one cycle, so nothing issued here readies a dependent
    /// for this same cycle, and dispatch holds `unissued ≤ rs_entries`, so
    /// every unissued entry is inside the scheduling window.
    fn issue_stage<B: MemoryBackend>(&mut self, now: u64, backend: &mut B) {
        if now < self.issue_wake {
            return;
        }
        debug_assert!(self.unissued <= self.cfg.rs_entries);
        let ready = &mut self.ready;
        self.wakeups
            .drain(now, |slot| ready[slot / 64] |= 1 << (slot % 64));
        let (mut issued, mut mem_issued) = (0, 0);
        let mut div_wake = u64::MAX;
        // Visit the ready slots oldest first: from the head's slot to the
        // end of its word and on through the other words, then the head
        // word's slots before the head's. The select stops at the issue
        // width; entries it holds back keep their bit.
        let words = self.ready.len();
        let head = (self.head_seq & self.slot_mask) as usize;
        'select: for k in 0..=words {
            let w = (head / 64 + k) & (words - 1);
            let mut bits = self.ready[w];
            if k == 0 {
                bits &= u64::MAX << (head % 64);
            } else if k == words {
                bits &= !(u64::MAX << (head % 64));
            }
            while bits != 0 {
                if issued >= self.cfg.issue_width {
                    break 'select;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = w * 64 + bit;
                let kind = self.rob[slot].kind;
                if kind.is_memory() && mem_issued >= self.cfg.mem_ports {
                    continue;
                }
                if matches!(kind, UopKind::IntDiv | UopKind::FpDiv) && self.div_free > now {
                    div_wake = div_wake.min(self.div_free);
                    continue;
                }
                self.ready[w] &= !(1 << bit);
                self.issue(slot, now, backend);
                issued += 1;
                mem_issued += usize::from(kind.is_memory());
            }
        }
        // After an issue, entries the width or port limits held back can
        // go next cycle; otherwise nothing can issue before the next
        // wake-up or the divider freeing (dispatch also pulls this down).
        // A select that issued nothing visited every ready entry, so
        // `div_wake` covers every waiting divide.
        self.issue_wake = if issued > 0 {
            now + 1
        } else {
            self.wakeups.earliest().min(div_wake)
        };
    }

    /// Executes the entry in ROB slot `slot` at `now` and wakes its
    /// dependents.
    fn issue<B: MemoryBackend>(&mut self, slot: usize, now: u64, backend: &mut B) {
        let entry = self.rob[slot];
        let complete = match entry.kind {
            UopKind::Load => self.execute_load(&entry, now, backend),
            UopKind::Store => self.execute_store(&entry, now, backend),
            UopKind::Branch => now + 1,
            k => now + u64::from(k.latency()),
        };
        debug_assert!(
            complete > now,
            "a dependent would wake in its producer's cycle"
        );
        if matches!(entry.kind, UopKind::IntDiv | UopKind::FpDiv) {
            self.div_free = complete;
        }
        if entry.kind == UopKind::Branch && entry.mispredicted {
            // Frontend redirect: fetch resumes after resolve + penalty.
            self.fetch_stall_until = self
                .fetch_stall_until
                .max(complete + self.cfg.mispredict_penalty);
            self.fetch_blocked = false;
        }
        let e = &mut self.rob[slot];
        e.issued = true;
        e.complete = complete;
        self.unissued -= 1;
        let mut node = self.dep_head[slot];
        while node != NIL {
            let dep = (node >> 1) as usize;
            let d = &mut self.rob[dep];
            d.ready_at = d.ready_at.max(complete);
            d.waits -= 1;
            if d.waits == 0 {
                self.wakeups.push(now, d.ready_at, dep);
            }
            node = self.dep_next[node as usize];
        }
    }

    fn record_request(&mut self, index: u64, addr: u64, write: bool, instruction: bool) {
        if let Some(rec) = &mut self.recorder {
            rec.requests.push(ReqEvent {
                uop_index: index,
                addr,
                write,
                instruction,
            });
        }
    }

    fn execute_load<B: MemoryBackend>(&mut self, e: &RobEntry, now: u64, backend: &mut B) -> u64 {
        let extra = self.dtlb.translate(e.addr);
        if extra > 0 {
            self.stats.dtlb_misses += 1;
        }
        self.stats.dl1_accesses += 1;
        let line = e.addr >> self.line_shift;
        let t0 = now + extra + self.cfg.dl1_latency;
        let complete = match self.dl1.access(line, AccessType::Read) {
            mps_uncore::AccessOutcome::Hit => t0,
            mps_uncore::AccessOutcome::Miss { writeback } => {
                self.stats.dl1_misses += 1;
                // The line is fetched from the uncore either way (demand
                // or prefetch): it is part of the core's visible request
                // stream and must be in the BADCO training recording.
                self.record_request(e.seq, e.addr, false, false);
                if let Some(victim) = writeback {
                    // Posted dirty writeback to the LLC.
                    let _ = backend.demand(self.id, victim * self.cfg.line_bytes, true, t0);
                }
                if let Some(p) = self.pf_pending.iter().position(|&(l, _)| l == line) {
                    // An in-flight prefetch covers this line: wait for it
                    // instead of issuing a new request.
                    let (_, ready) = self.pf_pending.swap_remove(p);
                    t0.max(ready)
                } else {
                    backend.demand(self.id, e.addr, false, t0)
                }
            }
        };
        self.train_data_prefetchers(e.pc, e.addr, now, backend);
        self.ldq.schedule_release(complete);
        complete
    }

    fn execute_store<B: MemoryBackend>(&mut self, e: &RobEntry, now: u64, backend: &mut B) -> u64 {
        let extra = self.dtlb.translate(e.addr);
        if extra > 0 {
            self.stats.dtlb_misses += 1;
        }
        self.stats.dl1_accesses += 1;
        let line = e.addr >> self.line_shift;
        let t0 = now + extra + self.cfg.dl1_latency;
        let drained = match self.dl1.access(line, AccessType::Write) {
            mps_uncore::AccessOutcome::Hit => t0,
            mps_uncore::AccessOutcome::Miss { writeback } => {
                self.stats.dl1_misses += 1;
                self.record_request(e.seq, e.addr, true, false);
                if let Some(victim) = writeback {
                    let _ = backend.demand(self.id, victim * self.cfg.line_bytes, true, t0);
                }
                if let Some(p) = self.pf_pending.iter().position(|&(l, _)| l == line) {
                    let (_, ready) = self.pf_pending.swap_remove(p);
                    t0.max(ready)
                } else {
                    // Write-allocate: fetch the line.
                    backend.demand(self.id, e.addr, true, t0)
                }
            }
        };
        self.train_data_prefetchers(e.pc, e.addr, now, backend);
        // The store occupies its STQ slot until the line is written.
        self.stq.schedule_release(drained);
        // Dependents (none — stores produce no register) and commit do not
        // wait for the write to drain.
        now + 1
    }

    fn train_data_prefetchers<B: MemoryBackend>(
        &mut self,
        pc: u64,
        addr: u64,
        now: u64,
        backend: &mut B,
    ) {
        let line = addr >> self.line_shift;
        let mut candidates = self.dl1_stride_pf.on_access(pc, addr);
        let nl = self.dl1_next_pf.on_access(line);
        if candidates[0].is_none() {
            candidates[0] = nl;
        } else if candidates[1].is_none() {
            candidates[1] = nl;
        }
        for pf_line in candidates.into_iter().flatten() {
            if !self.dl1.probe(pf_line) && !self.pf_pending.iter().any(|&(l, _)| l == pf_line) {
                if let Some(ready) = backend.prefetch(self.id, pf_line * self.cfg.line_bytes, now) {
                    // Bounded prefetch buffer; stale entries expire lazily.
                    if self.pf_pending.len() >= PF_PENDING_CAP {
                        self.pf_pending.retain(|&(_, r)| r > now);
                    }
                    if self.pf_pending.len() < PF_PENDING_CAP {
                        self.pf_pending.push((pf_line, ready));
                    }
                }
            }
        }
    }

    fn dispatch_stage(&mut self, now: u64) {
        // `self.unissued` is maintained incrementally (incremented here,
        // decremented in `issue_stage`) — same value the old full-ROB scan
        // computed, without the per-cycle O(rob_entries) walk.
        let mut window_free = self.cfg.rs_entries.saturating_sub(self.unissued);
        for _ in 0..self.cfg.decode_width {
            if self.rob_len() >= self.cfg.rob_entries || window_free == 0 {
                break;
            }
            let Some(&fu) = self.fetch_buffer.front() else {
                break;
            };
            // Queue reservations.
            match fu.kind {
                UopKind::Load if !self.ldq.try_reserve(now) => {
                    break;
                }
                UopKind::Store if !self.stq.try_reserve(now) => {
                    break;
                }
                _ => {}
            }
            self.fetch_buffer.pop_front();
            let seq = self.next_seq;
            self.next_seq += 1;
            let slot = (seq & self.slot_mask) as usize;
            self.dep_head[slot] = NIL;
            // Resolve each producer once: a committed one is ignored, an
            // issued one bounds `ready_at`, and an unissued one gets this
            // entry linked onto its dependents list.
            let (mut ready_at, mut waits) = (0, 0);
            for (k, src) in fu.srcs.into_iter().enumerate() {
                let Some(p) = src.and_then(|r| self.reg_producer[r as usize]) else {
                    continue;
                };
                if p < self.head_seq {
                    continue;
                }
                let producer = &self.rob[(p & self.slot_mask) as usize];
                if producer.issued {
                    ready_at = ready_at.max(producer.complete);
                } else {
                    let node = 2 * slot + k;
                    let head = &mut self.dep_head[(p & self.slot_mask) as usize];
                    self.dep_next[node] = *head;
                    *head = node as u32;
                    waits += 1;
                }
            }
            if let Some(d) = fu.dst {
                self.reg_producer[d as usize] = Some(seq);
            }
            self.rob[slot] = RobEntry {
                seq,
                kind: fu.kind,
                addr: fu.addr,
                pc: fu.pc,
                issued: false,
                complete: 0,
                mispredicted: fu.mispredicted,
                ready_at,
                waits,
            };
            if waits == 0 {
                // The next select runs at `now + 1` at the earliest: an
                // entry ready by then skips the calendar.
                if ready_at <= now + 1 {
                    self.ready[slot / 64] |= 1 << (slot % 64);
                } else {
                    self.wakeups.push(now, ready_at, slot);
                }
            }
            self.unissued += 1;
            window_free -= 1;
            // The new entry may be immediately issuable, and dispatch runs
            // after issue within a tick — make sure next cycle selects it.
            self.issue_wake = self.issue_wake.min(now + 1);
        }
    }

    fn fetch_stage<B: MemoryBackend>(&mut self, now: u64, backend: &mut B) {
        if self.fetch_blocked || now < self.fetch_stall_until {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_buffer.len() >= self.cfg.fetch_buffer {
                break;
            }
            let uop = self.trace.next_uop();
            let index = self.fetched;
            self.fetched += 1;
            self.fetched_in_slice += 1;
            if self.fetched_in_slice == self.trace_len {
                // Thread restart rule: replay the same slice.
                self.trace.reset();
                self.fetched_in_slice = 0;
                self.last_fetch_line = None;
            }

            // Instruction-side cache/TLB on line change.
            let line = uop.pc >> self.line_shift;
            let mut stall_after = None;
            if self.last_fetch_line != Some(line) {
                self.last_fetch_line = Some(line);
                let extra = self.itlb.translate(uop.pc);
                if extra > 0 {
                    self.stats.itlb_misses += 1;
                    stall_after = Some(now + extra);
                }
                self.stats.il1_accesses += 1;
                if !self.il1.access(line, AccessType::Read).is_hit() {
                    self.stats.il1_misses += 1;
                    self.record_request(index, uop.pc, false, true);
                    let done = backend.demand(self.id, uop.pc, false, now + self.cfg.il1_latency);
                    stall_after = Some(stall_after.map_or(done, |s| s.max(done)));
                }
                if let Some(pl) = self.il1_next_pf.on_access(line) {
                    // Fill the L1I only when the uncore accepts the
                    // prefetch (instruction footprints are small, so the
                    // timely-fill approximation is harmless here).
                    if !self.il1.probe(pl)
                        && backend
                            .prefetch(self.id, pl * self.cfg.line_bytes, now)
                            .is_some()
                    {
                        self.il1.access(pl, AccessType::Prefetch);
                    }
                }
            }

            let mut mispredicted = false;
            if uop.kind == UopKind::Branch {
                self.stats.branches += 1;
                let pred = self.bp.resolve(uop.pc, uop.taken);
                if pred != uop.taken {
                    self.stats.mispredicts += 1;
                    mispredicted = true;
                }
            }

            self.fetch_buffer.push_back(FetchedUop {
                kind: uop.kind,
                srcs: uop.srcs,
                dst: uop.dst,
                mispredicted,
                addr: uop.addr,
                pc: uop.pc,
            });

            if mispredicted {
                // Stop fetching until the branch resolves.
                self.fetch_blocked = true;
                break;
            }
            if let Some(s) = stall_after {
                // I-cache/ITLB miss: the rest of this fetch group waits.
                self.fetch_stall_until = self.fetch_stall_until.max(s);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FixedLatencyBackend;
    use mps_workloads::{SynthParams, SyntheticTrace};

    fn run_core(params: SynthParams, n: u64, latency: u64) -> (Core, u64) {
        let mut core = Core::new(
            CoreConfig::ispass2013(),
            0,
            Box::new(SyntheticTrace::new(params)),
            n,
        );
        let mut backend = FixedLatencyBackend::new(latency);
        let mut cycle = 0;
        while !core.done() {
            core.tick(cycle, &mut backend);
            cycle += 1;
            assert!(cycle < n * 1000, "runaway simulation");
        }
        let finish = core.finish_cycle().unwrap();
        (core, finish)
    }

    fn alu_only() -> SynthParams {
        SynthParams {
            load_frac: 0.0,
            store_frac: 0.0,
            branch_frac: 0.0,
            longlat_frac: 0.0,
            dep_chain: 0.0,
            ..SynthParams::default()
        }
    }

    #[test]
    fn alu_stream_reaches_high_ipc() {
        let (_, cycles) = run_core(alu_only(), 20_000, 6);
        let ipc = 20_000.0 / cycles as f64;
        // Independent single-cycle ALU ops: bounded by commit width 4,
        // should comfortably exceed 2.
        assert!(ipc > 2.0, "ipc={ipc}");
        assert!(ipc <= 4.05, "ipc={ipc} exceeds commit width");
    }

    #[test]
    fn dependence_chain_serializes() {
        let chained = SynthParams {
            dep_chain: 1.0,
            ..alu_only()
        };
        let (_, chained_cycles) = run_core(chained, 10_000, 6);
        let (_, free_cycles) = run_core(alu_only(), 10_000, 6);
        assert!(
            chained_cycles > free_cycles,
            "dependences must cost cycles: {chained_cycles} vs {free_cycles}"
        );
    }

    #[test]
    fn long_latency_ops_cost_cycles() {
        let divs = SynthParams {
            longlat_frac: 0.3,
            fp_frac: 0.0,
            ..alu_only()
        };
        let (_, div_cycles) = run_core(divs, 5_000, 6);
        let (_, alu_cycles) = run_core(alu_only(), 5_000, 6);
        assert!(div_cycles > 2 * alu_cycles, "{div_cycles} vs {alu_cycles}");
    }

    #[test]
    fn memory_latency_hurts_pointer_chase() {
        let chase = SynthParams {
            pattern: mps_workloads::AccessPattern::PointerChase,
            load_frac: 0.3,
            hot_fraction: 0.0,
            hot_bytes: 0,
            footprint: 4 << 20,
            ..SynthParams::default()
        };
        let (_, fast) = run_core(chase.clone(), 5_000, 6);
        let (_, slow) = run_core(chase, 5_000, 236);
        assert!(
            slow as f64 > fast as f64 * 2.0,
            "chase must be memory-latency-bound: {fast} vs {slow}"
        );
    }

    #[test]
    fn l1_hits_do_not_touch_backend() {
        let tiny = SynthParams {
            footprint: 4 << 10, // fits L1D
            hot_bytes: 2 << 10,
            load_frac: 0.4,
            store_frac: 0.0,
            branch_frac: 0.0,
            longlat_frac: 0.0,
            code_footprint: 1 << 10, // fits L1I
            ..SynthParams::default()
        };
        let mut core = Core::new(
            CoreConfig::ispass2013(),
            0,
            Box::new(SyntheticTrace::new(tiny)),
            20_000,
        );
        let mut backend = FixedLatencyBackend::new(100);
        let mut cycle = 0;
        while !core.done() {
            core.tick(cycle, &mut backend);
            cycle += 1;
        }
        let s = core.stats();
        // Only cold misses reach the backend.
        assert!(s.dl1_misses < 200, "dl1 misses: {}", s.dl1_misses);
        assert!(
            backend.requests() < 400,
            "backend requests: {}",
            backend.requests()
        );
    }

    #[test]
    fn unpredictable_branches_cost_cycles() {
        let easy = SynthParams {
            branch_frac: 0.2,
            branch_predictability: 1.0,
            ..alu_only()
        };
        let hard = SynthParams {
            branch_frac: 0.2,
            branch_predictability: 0.0,
            ..alu_only()
        };
        let (ce, easy_cycles) = run_core(easy, 10_000, 6);
        let (ch, hard_cycles) = run_core(hard, 10_000, 6);
        assert!(ch.stats().mispredicts > 10 * ce.stats().mispredicts.max(1));
        assert!(
            hard_cycles as f64 > 1.5 * easy_cycles as f64,
            "{easy_cycles} vs {hard_cycles}"
        );
    }

    #[test]
    fn committed_counts_match_target() {
        let (core, _) = run_core(alu_only(), 7_777, 6);
        assert!(core.committed() >= 7_777);
        assert!(core.done());
    }

    #[test]
    fn recording_captures_every_commit() {
        let mut core = Core::new(
            CoreConfig::ispass2013(),
            0,
            Box::new(SyntheticTrace::new(SynthParams::default())),
            2_000,
        );
        core.enable_recording();
        let mut backend = FixedLatencyBackend::new(20);
        let mut cycle = 0;
        while !core.done() {
            core.tick(cycle, &mut backend);
            cycle += 1;
        }
        let rec = core.take_recording().unwrap();
        assert!(rec.len() >= 2_000);
        // Commit cycles are non-decreasing.
        assert!(rec.commit_cycles.windows(2).all(|w| w[0] <= w[1]));
        // Some requests were recorded (cold misses at minimum).
        assert!(!rec.requests.is_empty());
        // Request indices refer to real µops.
        for r in &rec.requests {
            assert!((r.uop_index as usize) < rec.len() + 10_000);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let p = SynthParams::default();
        let (_, a) = run_core(p.clone(), 5_000, 30);
        let (_, b) = run_core(p, 5_000, 30);
        assert_eq!(a, b);
    }

    #[test]
    fn ipc_sensitive_to_backend_latency() {
        let memory_heavy = SynthParams {
            load_frac: 0.35,
            footprint: 8 << 20,
            hot_fraction: 0.0,
            hot_bytes: 0,
            pattern: mps_workloads::AccessPattern::Random,
            ..SynthParams::default()
        };
        let (_, fast) = run_core(memory_heavy.clone(), 5_000, 6);
        let (_, slow) = run_core(memory_heavy, 5_000, 236);
        assert!(slow > fast, "{fast} vs {slow}");
    }
}
