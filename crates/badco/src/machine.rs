//! The BADCO machine: an abstract core that fetches and executes nodes.

use crate::model::{BadcoModel, MAX_OUTSTANDING};
use mps_uncore::Uncore;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

/// Runahead window in µops (the detailed core's ROB size).
const LOOKAHEAD_UOPS: u64 = 128;

/// Sentinel for a request that has not been issued in the current pass.
const NOT_ISSUED: u64 = u64::MAX;

/// Trace-driven abstract core executing a [`BadcoModel`] against the
/// shared uncore.
///
/// Execution is node-by-node: a node starts once the previous node has
/// finished and all its blocking dependences have returned from the
/// uncore; it then issues its own requests (address-dependent requests
/// wait for their parents) and completes `weight` cycles later. The
/// thread-restart rule wraps to node 0 with fresh request state, exactly
/// like the detailed simulator restarts its trace.
///
/// While a node executes, requests of the nodes within a ROB's worth of
/// µops ahead of it (the *window*) issue early once their address parents
/// have completed. The window is tracked event by event rather than
/// rescanned: a request entering it counts its unissued address parents,
/// each issue wakes the issuing request's dependents, and a request whose
/// parents have all issued waits in a min-heap on the last parent's
/// completion until it becomes *ready*. See `DESIGN.md` §7 for why this
/// issues exactly what a scan of the window in id order would.
#[derive(Debug, Clone)]
pub struct BadcoMachine {
    model: Arc<BadcoModel>,
    core: usize,
    node_idx: usize,
    time: u64,
    committed: u64,
    target: u64,
    finish_cycle: Option<u64>,
    /// The window of the node about to execute.
    window: Window,
    requests: RequestState,
}

impl BadcoMachine {
    /// Binds a model to uncore port `core`, measuring IPC over `target`
    /// µops (normally one pass over the model).
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero.
    pub fn new(model: Arc<BadcoModel>, core: usize, target: u64) -> Self {
        assert!(target > 0, "need a positive measurement target");
        BadcoMachine {
            core,
            node_idx: 0,
            time: 0,
            committed: 0,
            target,
            finish_cycle: None,
            window: Window::default(),
            requests: RequestState::new(&model),
            model,
        }
    }

    /// Cycle at which the machine's `target` µops had committed.
    pub fn finish_cycle(&self) -> Option<u64> {
        self.finish_cycle
    }

    /// Whether the measured slice is complete.
    pub fn done(&self) -> bool {
        self.finish_cycle.is_some()
    }

    /// µops committed so far (including restarted passes).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The measurement target (µops).
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Current local time: the cycle at which the next node may start.
    pub fn next_event_time(&self) -> u64 {
        self.time
    }

    /// The uncore port this machine drives.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Executes one node against the uncore; returns the node's finish
    /// cycle.
    pub fn step(&mut self, uncore: &mut Uncore) -> u64 {
        let model = &*self.model;
        let i = self.node_idx;
        let st = &mut self.requests;

        // Wait for dependences from earlier nodes, scaled by how much of
        // that wait the training runs showed the core actually exposes.
        // Every dependence names a request of an earlier node, so it has
        // issued in this pass.
        let dep_ready = model
            .node_deps(i)
            .iter()
            .map(|&d| st.completions[d as usize])
            .max()
            .unwrap_or(0);
        let mut start = if dep_ready > self.time {
            let exposed = (dep_ready - self.time) as f64 * model.node_stall_factor(i);
            self.time + exposed.round() as u64
        } else {
            self.time
        };

        // Outstanding-request limit (the L1 MSHR file): new requests wait
        // for slots, which bounds memory-level parallelism and makes
        // bandwidth saturation propagate into machine time.
        let own = model.node_requests(i);
        if !own.is_empty() {
            st.outstanding.retain(|&done| done > start);
            while st.outstanding.len() + own.len() > MAX_OUTSTANDING {
                let earliest = st
                    .outstanding
                    .iter()
                    .copied()
                    .min()
                    .expect("outstanding non-empty when over limit");
                start = start.max(earliest);
                st.outstanding.retain(|&done| done > start);
            }
        }

        // The runahead window: the detailed core's out-of-order window and
        // prefetchers launch misses up to a ROB's worth of µops early.
        // Requests of nodes joining it start waiting on their parents.
        self.window.slide(model, i, |j| {
            for r in model.node_requests(j) {
                st.enter(model, r, start);
            }
        });
        let now = Now {
            start,
            wake: own.end..model.first_request(self.window.end),
        };

        // Issue this node's requests (unless a lookahead pass already did).
        for r in own.clone() {
            if st.completions[r as usize] != NOT_ISSUED {
                continue;
            }
            let issue_at = model
                .request_addr_deps(r)
                .iter()
                .map(|&p| st.completions[p as usize])
                .max()
                .unwrap_or(0)
                .max(start);
            st.issue(model, uncore, self.core, r, issue_at, &now);
        }
        let executed = st.ready.partition_point(|&r| r < own.end);
        st.ready.drain(..executed);

        // Runahead issue: windowed requests whose parents completed by
        // `start` issue now, oldest first, within the remaining
        // outstanding-request budget.
        while let Some(&Reverse((ready_at, r))) = st.wakeups.peek() {
            if ready_at > start {
                break;
            }
            st.wakeups.pop();
            if st.completions[r as usize] == NOT_ISSUED {
                st.make_ready(r);
            }
        }
        let mut k = 0;
        while k < st.ready.len() && st.outstanding.len() < MAX_OUTSTANDING {
            let r = st.ready[k];
            st.issue(model, uncore, self.core, r, start, &now);
            k += 1;
        }
        st.ready.drain(..k);

        let end = start + model.node_weight(i);
        self.time = end;
        self.committed += u64::from(model.node_uops(i));
        if self.committed >= self.target && self.finish_cycle.is_none() {
            self.finish_cycle = Some(end);
        }

        self.window.retire(model, i);
        self.node_idx += 1;
        if self.node_idx == model.node_count() {
            // Thread restart: replay the model.
            self.node_idx = 0;
            self.window = Window::default();
            st.restart();
        }
        end
    }
}

/// The lookahead window of the node being executed: nodes
/// `node + 1 .. end` whose µops, counted from the node itself, stay
/// within [`LOOKAHEAD_UOPS`]. Both ends only move forward within a pass.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    end: usize,
    /// µops of nodes `node .. end`.
    uops: u64,
}

impl Window {
    /// Moves the window to node `i`'s, calling `enter` on each node that
    /// joins it, in order.
    fn slide(&mut self, model: &BadcoModel, i: usize, mut enter: impl FnMut(usize)) {
        if self.end <= i {
            self.end = i + 1;
            self.uops = u64::from(model.node_uops(i));
        }
        while self.end < model.node_count() && self.uops < LOOKAHEAD_UOPS {
            enter(self.end);
            self.uops += u64::from(model.node_uops(self.end));
            self.end += 1;
        }
    }

    /// Drops node `i`, which has executed, from the µop count.
    fn retire(&mut self, model: &BadcoModel, i: usize) {
        self.uops -= u64::from(model.node_uops(i));
    }
}

/// The most requests any node's window holds: no more are ever waiting
/// or ready at once. Computed once per model by
/// [`BadcoModel::from_parts`].
pub(crate) fn widest_window(model: &BadcoModel) -> usize {
    let mut window = Window::default();
    let mut widest = 0;
    for i in 0..model.node_count() {
        window.slide(model, i, |_| {});
        let held = model.first_request(window.end) - model.first_request(i + 1);
        widest = widest.max(held as usize);
        window.retire(model, i);
    }
    widest
}

/// The node being executed, as issuing sees it.
struct Now {
    /// The node's start cycle.
    start: u64,
    /// Ids of the windowed requests not in the node: the ones an issue
    /// wakes.
    wake: Range<u32>,
}

/// Per-pass request state: completions, the reads in flight, and the
/// wake-up structures of the windowed requests.
#[derive(Debug, Clone)]
struct RequestState {
    /// Completion cycle of each request issued in the current pass,
    /// indexed by request id; `NOT_ISSUED` when not yet issued. Writes are
    /// posted: their visible completion is their issue cycle.
    completions: Vec<u64>,
    /// Completion cycles of in-flight reads (bounded by
    /// [`MAX_OUTSTANDING`]).
    outstanding: Vec<u64>,
    /// Per windowed request: its address parents not yet issued.
    waiting_on: Vec<u32>,
    /// Per windowed request: the latest completion among its issued
    /// address parents.
    parents_done: Vec<u64>,
    /// Windowed requests whose parents have all issued, keyed by the last
    /// parent's completion. It may still hold requests their own node has
    /// since issued: those are skipped when popped and purged when the
    /// heap is full.
    wakeups: BinaryHeap<Reverse<(u64, u32)>>,
    /// Unissued windowed requests whose parents all completed by the
    /// current node's start, ascending by id.
    ready: Vec<u32>,
}

impl RequestState {
    /// Fresh state for `model`, with every wake-up structure sized once.
    fn new(model: &BadcoModel) -> Self {
        let requests = model.requests_total() as usize;
        let widest = model.widest_window();
        RequestState {
            completions: vec![NOT_ISSUED; requests],
            outstanding: Vec::with_capacity(MAX_OUTSTANDING),
            waiting_on: vec![0; requests],
            parents_done: vec![0; requests],
            wakeups: BinaryHeap::with_capacity(widest),
            ready: Vec::with_capacity(widest),
        }
    }

    /// Forgets the pass: every request is unissued again.
    fn restart(&mut self) {
        self.completions.fill(NOT_ISSUED);
        self.outstanding.clear();
        self.wakeups.clear();
        self.ready.clear();
    }

    /// Request `r` joins the window while the node starting at `start`
    /// executes.
    fn enter(&mut self, model: &BadcoModel, r: u32, start: u64) {
        let (mut waiting, mut done) = (0, 0);
        for &p in model.request_addr_deps(r) {
            match self.completions[p as usize] {
                NOT_ISSUED => waiting += 1,
                c => done = done.max(c),
            }
        }
        if waiting == 0 {
            self.release(r, done, start);
        } else {
            self.waiting_on[r as usize] = waiting;
            self.parents_done[r as usize] = done;
        }
    }

    /// Issues request `r` at cycle `at` and wakes its windowed
    /// dependents.
    fn issue(
        &mut self,
        model: &BadcoModel,
        uncore: &mut Uncore,
        core: usize,
        r: u32,
        at: u64,
        now: &Now,
    ) {
        let write = model.request_write(r);
        let done = uncore.access(core, model.request_addr(r), write, at);
        // Writes are posted: dependents never wait on them.
        let visible = if write { at } else { done };
        self.completions[r as usize] = visible;
        if !write {
            self.outstanding.push(done);
        }
        for &c in model.request_dependents(r) {
            if c < now.wake.start {
                continue;
            }
            if c >= now.wake.end {
                break;
            }
            let c = c as usize;
            self.waiting_on[c] -= 1;
            self.parents_done[c] = self.parents_done[c].max(visible);
            if self.waiting_on[c] == 0 {
                self.release(c as u32, self.parents_done[c], now.start);
            }
        }
    }

    /// Request `r`'s parents have all issued, the last completing at
    /// `ready_at`: it is ready now or waits in the heap.
    fn release(&mut self, r: u32, ready_at: u64, start: u64) {
        if ready_at <= start {
            self.make_ready(r);
            return;
        }
        if self.wakeups.len() == self.wakeups.capacity() {
            let completions = &self.completions;
            self.wakeups
                .retain(|&Reverse((_, r))| completions[r as usize] == NOT_ISSUED);
        }
        self.wakeups.push(Reverse((ready_at, r)));
    }

    /// Inserts `r` into the ready list in id order.
    fn make_ready(&mut self, r: u32) {
        let at = self.ready.partition_point(|&x| x < r);
        self.ready.insert(at, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BadcoModel, BadcoTiming};
    use mps_sim_cpu::CoreConfig;
    use mps_uncore::{PolicyKind, UncoreConfig};
    use mps_workloads::benchmark_by_name;

    fn model(name: &str, n: u64) -> Arc<BadcoModel> {
        let bench = benchmark_by_name(name).unwrap();
        let timing = BadcoTiming::from_uncore(&UncoreConfig::ispass2013(2, PolicyKind::Lru));
        Arc::new(BadcoModel::build(
            name,
            &CoreConfig::ispass2013(),
            &bench.trace(),
            n,
            timing,
        ))
    }

    #[test]
    fn machine_runs_to_completion() {
        let m = model("gcc", 2_000);
        let mut uncore = Uncore::new(UncoreConfig::ispass2013(2, PolicyKind::Lru), 1);
        let mut machine = BadcoMachine::new(m, 0, 2_000);
        let mut steps = 0;
        while !machine.done() {
            machine.step(&mut uncore);
            steps += 1;
            assert!(steps < 1_000_000, "runaway machine");
        }
        assert!(machine.committed() >= 2_000);
        let ipc = 2_000.0 / machine.finish_cycle().unwrap() as f64;
        assert!(ipc > 0.01 && ipc < 4.0, "ipc={ipc}");
    }

    #[test]
    fn machine_time_is_monotonic() {
        let m = model("soplex", 1_500);
        let mut uncore = Uncore::new(UncoreConfig::ispass2013(2, PolicyKind::Lru), 1);
        let mut machine = BadcoMachine::new(m, 0, 1_500);
        let mut last = 0;
        for _ in 0..200 {
            let t = machine.step(&mut uncore);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn restart_wraps_and_keeps_running() {
        let m = model("hmmer", 500);
        let nodes = m.node_count();
        let mut uncore = Uncore::new(UncoreConfig::ispass2013(2, PolicyKind::Lru), 1);
        // Target twice the model's µops: forces a restart.
        let mut machine = BadcoMachine::new(m, 0, 1_000);
        let mut steps = 0;
        while !machine.done() {
            machine.step(&mut uncore);
            steps += 1;
        }
        assert!(steps > nodes, "must have wrapped: {steps} vs {nodes}");
        assert!(machine.committed() >= 1_000);
    }
}
