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
use mps_workloads::{TraceSource, Uop, UopKind};
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
    seq: u64,
    kind: UopKind,
    producers: [Option<u64>; 2],
    addr: u64,
    pc: u64,
    issued: bool,
    complete: u64,
    mispredicted: bool,
}

/// `scan_key` flag bit for an issued ROB entry: the issue scan skips it
/// with a single compare (`key >= KEY_ISSUED`), and the low 63 bits carry
/// the entry's completion cycle so dependent entries' producer lookups
/// ([`Core::producer_ready_at`]) read this same dense packed word instead
/// of the wide `RobEntry`.
const KEY_ISSUED: u64 = 1 << 63;
/// `scan_key` flag bit marking "blocked on an unissued producer"; the
/// low 62 bits carry the `issue_epoch` the entry was stamped at.
const KEY_CHAIN: u64 = 1 << 62;

/// A capacity-limited queue whose entries free at scheduled cycles
/// (models LDQ/STQ occupancy).
#[derive(Debug, Default)]
struct ReleaseQueue {
    cap: usize,
    used: usize,
    releases: BinaryHeap<std::cmp::Reverse<u64>>,
}

impl ReleaseQueue {
    fn new(cap: usize) -> Self {
        ReleaseQueue {
            cap,
            used: 0,
            // At most `cap` entries are ever queued: no reallocation in
            // the steady state.
            releases: BinaryHeap::with_capacity(cap),
        }
    }

    fn drain(&mut self, now: u64) {
        while let Some(&std::cmp::Reverse(t)) = self.releases.peek() {
            if t <= now {
                self.releases.pop();
                self.used -= 1;
            } else {
                break;
            }
        }
    }

    fn try_reserve(&mut self, now: u64) -> bool {
        self.drain(now);
        if self.used < self.cap {
            self.used += 1;
            true
        } else {
            false
        }
    }

    fn schedule_release(&mut self, t: u64) {
        self.releases.push(std::cmp::Reverse(t));
    }

    /// Whether a reservation at `now` would succeed, without reserving.
    /// Drains entries whose release time has passed — the same lazy,
    /// timing-neutral cleanup `try_reserve` performs.
    fn has_room(&mut self, now: u64) -> bool {
        self.drain(now);
        self.used < self.cap
    }

    /// Earliest scheduled (future) release, if any. Entries reserved but
    /// not yet scheduled (dispatched µops that have not issued) are not
    /// visible here — their release is created by a future issue event.
    fn earliest_release(&self) -> Option<u64> {
        self.releases.peek().map(|&std::cmp::Reverse(t)| t)
    }
}

/// A fetched µop waiting to dispatch.
#[derive(Debug, Clone, Copy)]
struct FetchedUop {
    uop: Uop,
    mispredicted: bool,
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
    bp: Tage,
    il1: Cache,
    itlb: Tlb,
    il1_next_pf: mps_uncore::NextLinePrefetcher,
    fetched: u64,
    fetched_in_slice: u64,

    // Backend.
    rob: VecDeque<RobEntry>,
    /// Ring parallel to `rob`, one packed word per entry, holding exactly
    /// what the issue scan's hot path needs: [`KEY_ISSUED`]`| complete`
    /// for issued entries (so producer lookups read this same dense word),
    /// [`KEY_CHAIN`]`| epoch` for entries blocked on an unissued
    /// producer, or the memoized finite producer-readiness cycle. The
    /// scan walks this dense array and only touches the wide `RobEntry`
    /// when a readiness recompute or an issue is actually due (see the
    /// cache-validity argument in `issue_stage`).
    scan_key: VecDeque<u64>,
    head_seq: u64,
    next_seq: u64,
    /// Entries in the ROB not yet issued (the RS occupancy), maintained
    /// incrementally so dispatch does not rescan the ROB every cycle.
    unissued: usize,
    /// Lowest sequence number not yet issued: every ROB entry below it is
    /// issued, so the issue scan starts there instead of at the ROB head
    /// (which is O(ROB) per cycle while a long-latency miss blocks commit).
    first_unissued_seq: u64,
    /// Earliest cycle the issue scan can possibly issue anything: the
    /// minimum over every in-window wake source (producer completion
    /// times, the divider freeing, `now + 1` after any issue or
    /// dispatch). Until then `issue_stage` returns immediately — during a
    /// memory-miss stall this turns hundreds of fruitless window scans
    /// into one comparison, with identical issue timing.
    issue_wake: u64,
    /// Monotonic count of cycles on which this core issued at least one
    /// µop; epoch-stamps [`KEY_CHAIN`] `scan_key`s ("blocked on an
    /// unissued producer"), which can only change after an issue event.
    issue_epoch: u64,
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
        Core {
            id,
            trace,
            trace_len,
            fetch_buffer: VecDeque::with_capacity(cfg.fetch_buffer),
            fetch_stall_until: 0,
            fetch_blocked: false,
            last_fetch_line: None,
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
            rob: VecDeque::with_capacity(cfg.rob_entries),
            scan_key: VecDeque::with_capacity(cfg.rob_entries),
            head_seq: 0,
            next_seq: 0,
            unissued: 0,
            first_unissued_seq: 0,
            issue_wake: 0,
            issue_epoch: 0,
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
    ///   next possible issue (the PR 3 event-driven-skip invariant); a
    ///   zero-issue scan is a pure no-op. With nothing unissued the scan
    ///   cannot act until dispatch refills it, and dispatch pulls
    ///   `issue_wake` down when it does.
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

        if let Some(front) = self.rob.front() {
            if front.issued {
                bound = bound.min(front.complete.max(now + 1));
            }
        }

        if self.unissued > 0 {
            bound = bound.min(self.issue_wake.max(now + 1));
        }

        if !self.fetch_buffer.is_empty()
            && self.rob.len() < self.cfg.rob_entries
            && self.unissued < self.cfg.rs_entries
        {
            let front_kind = self.fetch_buffer.front().map(|fu| fu.uop.kind);
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

    fn commit_stage(&mut self, now: u64) {
        for _ in 0..self.cfg.commit_width {
            let Some(front) = self.rob.front() else { break };
            if !front.issued || front.complete > now {
                break;
            }
            let entry = self.rob.pop_front().expect("checked non-empty");
            self.scan_key.pop_front();
            self.head_seq = entry.seq + 1;
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

    /// Earliest cycle the value produced by `seq` can be available:
    /// `0` once committed, the recorded completion time once issued,
    /// `u64::MAX` while unissued (it needs a future issue event first).
    ///
    /// Reads the dense `scan_key` ring, not the wide `RobEntry`: an
    /// issued entry's key is `KEY_ISSUED | complete` (written at the one
    /// place `issued` is set), and every unissued encoding — `0`, a
    /// finite hint, or a chain stamp — sorts below [`KEY_ISSUED`].
    fn producer_ready_at(&self, seq: u64) -> u64 {
        if seq < self.head_seq {
            return 0; // already committed
        }
        let idx = (seq - self.head_seq) as usize;
        let key = self.scan_key[idx];
        if key >= KEY_ISSUED {
            key - KEY_ISSUED
        } else {
            u64::MAX
        }
    }

    fn issue_stage<B: MemoryBackend>(&mut self, now: u64, backend: &mut B) {
        // Event-driven skip: `issue_wake` is a lower bound on the first
        // cycle the scan below could issue anything (and a zero-issue scan
        // is a pure no-op — it recomputes the same `first_unissued_seq`),
        // so returning early is timing-identical to running it.
        if now < self.issue_wake {
            return;
        }
        let mut issued = 0usize;
        let mut mem_issued = 0usize;
        let mut considered = 0usize;
        // Earliest future cycle any in-window entry could become
        // issuable, gathered from the wake sources seen during the scan:
        // producer completion times, the divider freeing, and `now + 1`
        // whenever structural contention blocked a ready entry.
        let mut next_wake = u64::MAX;
        // Every entry older than `first_unissued_seq` is already issued, so
        // the select scan can skip the (often long) issued prefix outright.
        // Entries merely continue'd over in the original full scan, so
        // starting past them is timing-identical.
        let mut i =
            (self.first_unissued_seq.saturating_sub(self.head_seq) as usize).min(self.rob.len());
        // First index (if any) left unissued — including entries we stop
        // scanning at — becomes next cycle's scan start.
        let mut new_first: Option<usize> = None;
        while i < self.rob.len() {
            if issued >= self.cfg.issue_width {
                new_first.get_or_insert(i);
                next_wake = next_wake.min(now + 1);
                break;
            }
            // Fast path: one packed word per entry answers "can this
            // possibly issue now?" without touching the wide `RobEntry`.
            // The wide entry is only read on the (rare) paths that
            // recompute readiness or actually issue.
            let key = self.scan_key[i];
            if key >= KEY_ISSUED {
                i += 1;
                continue;
            }
            considered += 1;
            if considered > self.cfg.rs_entries {
                new_first.get_or_insert(i);
                // Out-of-window entries only enter the window after an
                // issue, which already forces a `now + 1` rescan.
                break; // beyond the scheduling window
            }
            // Dependences: earliest cycle every producer is available
            // (`u64::MAX` = some producer is unissued). A memoized
            // `scan_key` can stand in for the fold verbatim:
            //
            // * a **finite** key still in the future was driven by an
            //   issued producer whose `complete > now`, so that producer
            //   cannot have committed and its completion time is fixed —
            //   recomputing would reproduce the same value;
            // * a [`KEY_CHAIN`] key means some producer was unissued,
            //   which can only change at an issue event on this core
            //   (and producers are always older, i.e. scanned earlier, so
            //   a mid-scan issue is visible to every later recompute) —
            //   the key holds while its stamped epoch matches
            //   `issue_epoch`.
            //
            // Either way the fold would return the cached answer, so
            // skipping it is timing-identical; it only saves the two
            // random-access producer lookups per blocked entry per scan.
            if key >= KEY_CHAIN {
                if key - KEY_CHAIN == self.issue_epoch {
                    new_first.get_or_insert(i);
                    i += 1;
                    continue;
                }
            } else if key > now {
                next_wake = next_wake.min(key);
                new_first.get_or_insert(i);
                i += 1;
                continue;
            }
            let entry = self.rob[i];
            let ready_at = entry
                .producers
                .iter()
                .flatten()
                .fold(0u64, |t, &p| t.max(self.producer_ready_at(p)));
            if ready_at > now {
                new_first.get_or_insert(i);
                self.scan_key[i] = if ready_at == u64::MAX {
                    KEY_CHAIN | self.issue_epoch
                } else {
                    next_wake = next_wake.min(ready_at);
                    ready_at
                };
                i += 1;
                continue;
            }
            // Structural hazards.
            let is_mem = entry.kind.is_memory();
            if is_mem && mem_issued >= self.cfg.mem_ports {
                new_first.get_or_insert(i);
                next_wake = next_wake.min(now + 1);
                i += 1;
                continue;
            }
            let is_div = matches!(entry.kind, UopKind::IntDiv | UopKind::FpDiv);
            if is_div && self.div_free > now {
                new_first.get_or_insert(i);
                next_wake = next_wake.min(self.div_free);
                i += 1;
                continue;
            }

            // Execute.
            let complete = match entry.kind {
                UopKind::Load => self.execute_load(&entry, now, backend),
                UopKind::Store => self.execute_store(&entry, now, backend),
                UopKind::Branch => now + 1,
                k => now + u64::from(k.latency()),
            };
            if is_div {
                self.div_free = complete;
            }
            if entry.kind == UopKind::Branch && entry.mispredicted {
                // Frontend redirect: fetch resumes after resolve + penalty.
                self.fetch_stall_until = self
                    .fetch_stall_until
                    .max(complete + self.cfg.mispredict_penalty);
                self.fetch_blocked = false;
            }
            let e = &mut self.rob[i];
            e.issued = true;
            e.complete = complete;
            debug_assert!(complete < KEY_CHAIN, "cycle overflows scan_key packing");
            self.scan_key[i] = KEY_ISSUED | complete;
            self.unissued -= 1;
            issued += 1;
            if is_mem {
                mem_issued += 1;
            }
            i += 1;
        }
        self.first_unissued_seq = self.head_seq + new_first.unwrap_or(self.rob.len()) as u64;
        // Anything issued this cycle may wake dependents and shifts the
        // scheduling window, so rescan next cycle; otherwise sleep until
        // the earliest gathered wake source (dispatch also wakes us).
        if issued > 0 {
            self.issue_epoch += 1;
        }
        self.issue_wake = if issued > 0 { now + 1 } else { next_wake };
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
        let line = e.addr / self.cfg.line_bytes;
        let t0 = now + extra + self.cfg.dl1_latency;
        let complete = match self.dl1.access(line, AccessType::Read) {
            mps_uncore::AccessOutcome::Hit => t0,
            mps_uncore::AccessOutcome::Miss { writeback } => {
                self.stats.dl1_misses += 1;
                // The line is fetched from the uncore either way (demand
                // or prefetch): it is part of the core's visible request
                // stream and must be in the BADCO training recording.
                self.record_request(e.seq_index(), e.addr, false, false);
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
        let line = e.addr / self.cfg.line_bytes;
        let t0 = now + extra + self.cfg.dl1_latency;
        let drained = match self.dl1.access(line, AccessType::Write) {
            mps_uncore::AccessOutcome::Hit => t0,
            mps_uncore::AccessOutcome::Miss { writeback } => {
                self.stats.dl1_misses += 1;
                self.record_request(e.seq_index(), e.addr, true, false);
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
        let line = addr / self.cfg.line_bytes;
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
            if self.rob.len() >= self.cfg.rob_entries || window_free == 0 {
                break;
            }
            let Some(&fu) = self.fetch_buffer.front() else {
                break;
            };
            // Queue reservations.
            match fu.uop.kind {
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
            let mut producers = [None, None];
            for (slot, src) in producers.iter_mut().zip(fu.uop.srcs) {
                if let Some(r) = src {
                    *slot = self.reg_producer[r as usize];
                }
            }
            if let Some(d) = fu.uop.dst {
                self.reg_producer[d as usize] = Some(seq);
            }
            self.rob.push_back(RobEntry {
                seq,
                kind: fu.uop.kind,
                producers,
                addr: fu.uop.addr,
                pc: fu.uop.pc,
                issued: false,
                complete: 0,
                mispredicted: fu.mispredicted,
            });
            // 0 = "readiness unknown": the scan recomputes on first look.
            self.scan_key.push_back(0);
            self.unissued += 1;
            window_free -= 1;
            // The new entry may be immediately issuable, and dispatch runs
            // after issue within a tick — make sure next cycle scans it.
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
            let line = uop.pc / self.cfg.line_bytes;
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

            self.fetch_buffer
                .push_back(FetchedUop { uop, mispredicted });

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

impl RobEntry {
    /// Dynamic µop index for recording (sequence numbers are assigned in
    /// fetch order which equals commit order on the correct path).
    fn seq_index(&self) -> u64 {
        self.seq
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
