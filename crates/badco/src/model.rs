//! BADCO model construction from two detailed training runs.
//!
//! Dependences come from register dataflow over the training slice, and
//! two fan-in caps of `MAX_DEPS` (six) request ids keep them bounded:
//!
//! - A register's taint is the first-seen union of its sources' taints,
//!   sources in operand order, cut to the union's last `MAX_DEPS` ids: the
//!   ids merged in last, which are the second source's when both sources
//!   are tainted. A load that issued a read taints its destination with
//!   that read alone (the last of its reads in address order).
//! - A node's dependences are the `MAX_DEPS` newest (largest) distinct
//!   ids among its µops' taint reads.

use mps_sim_cpu::{record_run, CoreConfig, FixedLatencyBackend, RunRecording};
use mps_uncore::UncoreConfig;
use mps_workloads::{TraceSource, UopKind};
use std::ops::Range;

#[cfg(test)]
mod reference;

/// Timing assumptions of the two training runs. Training needs
/// `miss_latency > hit_latency`: stall factors are scaled by the
/// difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadcoTiming {
    /// Latency of the ideal run (every request hits the LLC).
    pub hit_latency: u64,
    /// Latency of the pessimal run (every request goes to DRAM).
    pub miss_latency: u64,
}

impl BadcoTiming {
    /// Panics unless the pessimal run's latency exceeds the ideal run's:
    /// stall factors are scaled by the difference.
    fn assert_trainable(self) {
        assert!(
            self.miss_latency > self.hit_latency,
            "invalid BadcoTiming: miss_latency {} must exceed hit_latency {}",
            self.miss_latency,
            self.hit_latency
        );
    }

    /// Derives the training latencies from an uncore configuration.
    pub fn from_uncore(cfg: &UncoreConfig) -> Self {
        BadcoTiming {
            hit_latency: cfg.llc_latency,
            miss_latency: cfg.llc_latency
                + cfg.memory.fsb_cycles_per_line
                + cfg.memory.dram_latency,
        }
    }
}

/// One uncore request of a model, borrowed from its columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelRequest<'a> {
    /// Global request id within the model (issue order).
    pub id: u32,
    /// Core-local byte address.
    pub addr: u64,
    /// Store / writeback rather than load or instruction fetch.
    pub write: bool,
    /// Earlier reads whose data this request's *address* depends on
    /// (pointer chasing); issue waits for them.
    pub addr_deps: &'a [u32],
}

/// One node of a model, borrowed from its columns: a group of consecutive
/// µops ending at a request-bearing µop.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelNode<'a> {
    /// Number of µops the node retires.
    pub uops: u32,
    /// Execution weight in cycles (from the ideal training run).
    pub weight: u64,
    /// How much of the wait for `deps` the node actually exposes, in
    /// [0, 1]: calibrated from the pessimal training run. 0 means the
    /// out-of-order window fully hid the upstream misses; 1 means the node
    /// serialized on them.
    pub stall_factor: f64,
    /// Earlier requests whose completion this node consumes.
    pub deps: &'a [u32],
    /// Ids of the requests issued when the node executes (see
    /// [`BadcoModel::request`]).
    pub requests: Range<u32>,
}

/// Compressed sparse rows of request ids: row `i` is
/// `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq)]
struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    fn with_capacity(rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr {
            offsets,
            items: Vec::new(),
        }
    }

    fn push_row(&mut self, row: &[u32]) {
        self.items.extend_from_slice(row);
        self.offsets.push(self.items.len() as u32);
    }

    fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.items.shrink_to_fit();
    }

    /// The transpose over `cols` columns: row `c` lists, in ascending
    /// order, every row that names `c`.
    fn transpose(&self, cols: usize) -> Csr {
        let mut offsets = vec![0u32; cols + 1];
        for &c in &self.items {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..cols {
            offsets[c + 1] += offsets[c];
        }
        let mut next = offsets.clone();
        let mut items = vec![0u32; self.items.len()];
        for r in 0..self.rows() {
            for &c in self.row(r) {
                items[next[c as usize] as usize] = r as u32;
                next[c as usize] += 1;
            }
        }
        Csr { offsets, items }
    }
}

/// A model's columns before validation: nodes and their requests appended
/// in program order, the input of [`BadcoModel::from_parts`].
#[derive(Debug, Clone)]
pub struct ModelParts {
    node_uops: Vec<u32>,
    node_weight: Vec<u64>,
    node_stall_factor: Vec<f64>,
    node_deps: Csr,
    /// Index of each node's first request.
    node_first_request: Vec<u32>,
    request_id: Vec<u32>,
    request_addr: Vec<u64>,
    request_write: Vec<bool>,
    request_addr_deps: Csr,
}

impl ModelParts {
    /// Empty columns with room for `nodes` nodes and `requests` requests.
    pub fn with_capacity(nodes: usize, requests: usize) -> Self {
        ModelParts {
            node_uops: Vec::with_capacity(nodes),
            node_weight: Vec::with_capacity(nodes),
            node_stall_factor: Vec::with_capacity(nodes),
            node_deps: Csr::with_capacity(nodes),
            node_first_request: Vec::with_capacity(nodes + 1),
            request_id: Vec::with_capacity(requests),
            request_addr: Vec::with_capacity(requests),
            request_write: Vec::with_capacity(requests),
            request_addr_deps: Csr::with_capacity(requests),
        }
    }

    /// Appends a node; the requests pushed after it are its own.
    pub fn push_node(&mut self, uops: u32, weight: u64, stall_factor: f64, deps: &[u32]) {
        self.node_uops.push(uops);
        self.node_weight.push(weight);
        self.node_stall_factor.push(stall_factor);
        self.node_deps.push_row(deps);
        self.node_first_request.push(self.request_id.len() as u32);
    }

    /// Appends a request to the last pushed node.
    pub fn push_request(&mut self, id: u32, addr: u64, write: bool, addr_deps: &[u32]) {
        self.request_id.push(id);
        self.request_addr.push(addr);
        self.request_write.push(write);
        self.request_addr_deps.push_row(addr_deps);
    }
}

/// Why [`BadcoModel::from_parts`] refused a set of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidModel(pub String);

impl std::fmt::Display for InvalidModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for InvalidModel {}

/// A behavioral core model for one benchmark, stored as columns: one
/// entry per node, one per request, and compressed sparse rows for the
/// dependence lists, so a model is a dozen allocations however long it is.
#[derive(Debug, Clone, PartialEq)]
pub struct BadcoModel {
    /// Benchmark name the model was trained on.
    pub name: String,
    node_uops: Vec<u32>,
    node_weight: Vec<u64>,
    node_stall_factor: Vec<f64>,
    node_deps: Csr,
    /// Node `i` issues requests `node_requests[i]..node_requests[i + 1]`.
    node_requests: Vec<u32>,
    request_addr: Vec<u64>,
    request_write: Vec<bool>,
    request_addr_deps: Csr,
    /// The transpose of `request_addr_deps`: each request's address
    /// dependents, ascending.
    request_dependents: Csr,
    uops_total: u64,
    /// The most requests any node's lookahead window holds, which sizes
    /// a machine's wake-up structures. Derived from the columns above
    /// once, when the model is assembled.
    widest_window: usize,
}

/// Maximum taint/dependence fan-in tracked per register and node.
const MAX_DEPS: usize = 6;
/// Maximum outstanding read requests a BADCO machine keeps in flight
/// (mirrors the detailed core's L1 MSHR file): beyond this, issuing a new
/// request waits for the oldest to return — this is what makes
/// bandwidth-bound streams bandwidth-bound in the behavioral model too.
pub const MAX_OUTSTANDING: usize = 16;

impl BadcoModel {
    /// Builds a model for one benchmark.
    ///
    /// Runs the detailed core twice (ideal + pessimal backend) over the
    /// first `n` µops of `trace`, then derives nodes, weights, dataflow
    /// dependences and blocking flags. The trace is reset between uses.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or if `timing.miss_latency` does not exceed
    /// `timing.hit_latency`, before either training run.
    pub fn build<T: TraceSource + Clone + 'static>(
        name: &str,
        core_cfg: &CoreConfig,
        trace: &T,
        n: u64,
        timing: BadcoTiming,
    ) -> BadcoModel {
        assert!(n > 0, "model needs a non-empty trace slice");
        timing.assert_trainable();
        let _span = mps_obs::span("badco.model.build");
        mps_obs::counter("badco.model.builds").incr();
        mps_obs::counter("badco.model.training_uops").add(2 * n);
        let mut ideal = FixedLatencyBackend::new(timing.hit_latency);
        let (hit_rec, _) = record_run(core_cfg.clone(), Box::new(trace.clone()), n, &mut ideal);
        let mut pessimal = FixedLatencyBackend::new(timing.miss_latency);
        let (miss_rec, _) = record_run(core_cfg.clone(), Box::new(trace.clone()), n, &mut pessimal);
        let mut replay = trace.clone();
        Self::from_recordings(name, &mut replay, n, &hit_rec, &miss_rec, timing)
    }

    /// Assembles a model from existing training recordings (exposed for
    /// tests and for callers that cache recordings).
    ///
    /// One pass over the first `n` µops of `trace` assigns every request
    /// its id, propagates register taint, cuts nodes and pushes them with
    /// their requests straight into the model's columns; it allocates
    /// nothing per µop.
    ///
    /// # Panics
    ///
    /// Panics if a recording does not hold `n` µops or if
    /// `timing.miss_latency` does not exceed `timing.hit_latency`.
    pub fn from_recordings(
        name: &str,
        trace: &mut dyn TraceSource,
        n: u64,
        hit_rec: &RunRecording,
        miss_rec: &RunRecording,
        timing: BadcoTiming,
    ) -> BadcoModel {
        timing.assert_trainable();
        assert_eq!(hit_rec.len(), n as usize, "hit recording length mismatch");
        assert_eq!(miss_rec.len(), n as usize, "miss recording length mismatch");

        // Requests in µop order (they are recorded in issue order, which
        // is out of order). Request `k` of this list gets id `k`.
        let mut reqs: Vec<(u64, u64, bool)> = hit_rec
            .requests
            .iter()
            .map(|r| (r.uop_index, r.addr, r.write))
            .collect();
        reqs.sort_unstable();
        // Every request-bearing µop ends a node, and so does the last µop.
        let bearing = reqs.chunk_by(|x, y| x.0 == y.0);
        let nodes = 1 + bearing.filter(|uop_reqs| uop_reqs[0].0 + 1 < n).count();

        let extra_per_miss = (timing.miss_latency - timing.hit_latency) as f64;
        let mut parts = ModelParts::with_capacity(nodes, reqs.len());
        let mut reg_taint = [Taint::EMPTY; mps_workloads::uop::NUM_REGS];
        // The node's dependences, and for each request id the node
        // (counted from 1) that last offered it to them: a second offer
        // would change nothing, so an id is offered once per node.
        let mut node_deps = NewestIds::EMPTY;
        let mut offered = vec![0u32; reqs.len()];
        let mut node_no = 1u32;
        let mut deps_buf = [0u32; MAX_DEPS];
        let (mut node_start, mut prev_hit, mut prev_miss) = (0u64, 0u64, 0u64);
        let mut cursor = 0usize;
        trace.reset();
        for i in 0..n {
            let uop = trace.next_uop();
            let [a, b] = uop
                .srcs
                .map(|src| src.map_or(Taint::EMPTY, |r| reg_taint[r as usize]));
            let reads = Taint::union(&a, &b);

            // The µop's requests, `reqs[first..cursor]`; a Load produces
            // the last of its reads.
            let first = cursor;
            let mut produced = None;
            while cursor < reqs.len() && reqs[cursor].0 == i {
                if !reqs[cursor].2 && uop.kind == UopKind::Load {
                    produced = Some(cursor as u32);
                }
                cursor += 1;
            }
            if let Some(dst) = uop.dst {
                reg_taint[dst as usize] = match produced {
                    Some(id) => Taint::one(id),
                    None => reads,
                };
            }

            for &r in reads.ids() {
                if offered[r as usize] != node_no {
                    offered[r as usize] = node_no;
                    node_deps.offer_new(r);
                }
            }
            if cursor == first && i + 1 != n {
                continue;
            }
            // Node covering µops [node_start, i]. Its reads were handed
            // out before its own requests' ids, so none of them is its own.
            let deps = node_deps.write_to(&mut deps_buf);
            debug_assert!(deps.iter().all(|&d| (d as usize) < first));
            let (hit, miss) = (
                hit_rec.commit_cycles[i as usize],
                miss_rec.commit_cycles[i as usize],
            );
            let weight = hit.saturating_sub(prev_hit);
            // How much extra time did the node take in the pessimal run
            // relative to the ideal one? Scaling by the injected latency
            // difference gives the fraction of one full-miss wait the node
            // actually exposed — the OoO window hides the rest.
            let observed_extra = miss.saturating_sub(prev_miss).saturating_sub(weight) as f64;
            let stall_factor = if deps.is_empty() {
                0.0
            } else {
                (observed_extra / extra_per_miss).clamp(0.0, 1.0)
            };
            parts.push_node((i + 1 - node_start) as u32, weight, stall_factor, deps);
            for (id, &(_, addr, write)) in reqs[first..cursor].iter().enumerate() {
                let addr_deps = if write { &[][..] } else { reads.ids() };
                parts.push_request((first + id) as u32, addr, write, addr_deps);
            }
            node_deps = NewestIds::EMPTY;
            node_no += 1;
            (node_start, prev_hit, prev_miss) = (i + 1, hit, miss);
        }
        trace.reset();

        BadcoModel::from_parts(name, parts, n, cursor as u32)
            .expect("a model built from recordings is well-formed")
    }

    /// Assembles a model from its columns — the artifact-store
    /// deserialization path (`mps-harness` persists trained models across
    /// processes) and the last step of [`BadcoModel::build`].
    ///
    /// # Errors
    ///
    /// [`InvalidModel`] unless the parts describe a model the machine can
    /// run exactly: at least one node; node µops summing to `uops_total`;
    /// `requests_total` requests with ids `0, 1, 2, …` in node order; node
    /// dependences naming only requests of earlier nodes; address
    /// dependences naming only earlier reads; stall factors finite and in
    /// `[0, 1]`.
    pub fn from_parts(
        name: &str,
        parts: ModelParts,
        uops_total: u64,
        requests_total: u32,
    ) -> Result<BadcoModel, InvalidModel> {
        let bad = |detail: String| Err(InvalidModel(format!("model {name:?}: {detail}")));
        let ModelParts {
            mut node_uops,
            mut node_weight,
            mut node_stall_factor,
            mut node_deps,
            node_first_request: mut node_requests,
            request_id,
            mut request_addr,
            mut request_write,
            mut request_addr_deps,
        } = parts;
        if node_uops.is_empty() {
            return bad("no nodes".to_owned());
        }
        let sum: u64 = node_uops.iter().map(|&u| u64::from(u)).sum();
        if sum != uops_total {
            return bad(format!("node µops {sum} disagree with total {uops_total}"));
        }
        if node_requests[0] != 0 {
            return bad("requests precede the first node".to_owned());
        }
        if request_id.len() != requests_total as usize {
            return bad(format!(
                "{} requests, header says {requests_total}",
                request_id.len()
            ));
        }
        if let Some(k) = request_id.iter().zip(0..).position(|(&id, k)| id != k) {
            return bad(format!("request {k} has id {}", request_id[k]));
        }
        node_requests.push(requests_total);
        for (i, &sf) in node_stall_factor.iter().enumerate() {
            if !(0.0..=1.0).contains(&sf) {
                return bad(format!("node {i} has stall factor {sf}"));
            }
            let first = node_requests[i];
            if let Some(&d) = node_deps.row(i).iter().find(|&&d| d >= first) {
                return bad(format!(
                    "node {i} depends on request {d}, not issued before it"
                ));
            }
        }
        for r in 0..request_addr_deps.rows() {
            let earlier_read = |p: u32| (p as usize) < r && !request_write[p as usize];
            if let Some(&p) = request_addr_deps.row(r).iter().find(|&&p| !earlier_read(p)) {
                return bad(format!(
                    "request {r} has address parent {p}, not an earlier read"
                ));
            }
        }
        let request_dependents = request_addr_deps.transpose(request_addr.len());
        node_uops.shrink_to_fit();
        node_weight.shrink_to_fit();
        node_stall_factor.shrink_to_fit();
        node_deps.shrink_to_fit();
        node_requests.shrink_to_fit();
        request_addr.shrink_to_fit();
        request_write.shrink_to_fit();
        request_addr_deps.shrink_to_fit();
        let mut model = BadcoModel {
            name: name.to_owned(),
            node_uops,
            node_weight,
            node_stall_factor,
            node_deps,
            node_requests,
            request_addr,
            request_write,
            request_addr_deps,
            request_dependents,
            uops_total,
            widest_window: 0,
        };
        model.widest_window = crate::machine::widest_window(&model);
        Ok(model)
    }

    /// A copy with every trained coefficient scaled by `factor`: node
    /// weights (rounded) and stall-exposure factors (clamped back to
    /// `[0, 1]`). `factor == 1.0` is the identity.
    ///
    /// This is a **validation-only** hook: `mps-harness validate
    /// --perturb` and the differential tests use it to prove the
    /// error-bound gate notices coefficient drift (see
    /// `docs/validation.md`). It must never feed a model used for
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn perturbed(&self, factor: f64) -> BadcoModel {
        assert!(
            factor.is_finite() && factor > 0.0,
            "perturbation factor must be finite and positive: {factor}"
        );
        let mut m = self.clone();
        for w in &mut m.node_weight {
            *w = ((*w as f64) * factor).round() as u64;
        }
        for sf in &mut m.node_stall_factor {
            *sf = (*sf * factor).clamp(0.0, 1.0);
        }
        m
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_uops.len()
    }

    /// Node `i` (in program order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.node_count()`.
    pub fn node(&self, i: usize) -> ModelNode<'_> {
        ModelNode {
            uops: self.node_uops[i],
            weight: self.node_weight[i],
            stall_factor: self.node_stall_factor[i],
            deps: self.node_deps.row(i),
            requests: self.node_requests(i),
        }
    }

    /// The model's nodes, in program order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = ModelNode<'_>> {
        (0..self.node_count()).map(|i| self.node(i))
    }

    /// Request `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.requests_total()`.
    pub fn request(&self, id: u32) -> ModelRequest<'_> {
        let r = id as usize;
        ModelRequest {
            id,
            addr: self.request_addr[r],
            write: self.request_write[r],
            addr_deps: self.request_addr_deps.row(r),
        }
    }

    /// µops covered by one pass over the model (the trace slice length).
    pub fn uops_total(&self) -> u64 {
        self.uops_total
    }

    /// Total requests issued per pass.
    pub fn requests_total(&self) -> u32 {
        self.request_addr.len() as u32
    }

    /// Sum of node weights: the model's ideal-uncore execution time.
    pub fn ideal_cycles(&self) -> u64 {
        self.node_weight.iter().sum()
    }

    // Column access for the machine's inner loop.

    #[inline]
    pub(crate) fn node_uops(&self, i: usize) -> u32 {
        self.node_uops[i]
    }

    #[inline]
    pub(crate) fn node_weight(&self, i: usize) -> u64 {
        self.node_weight[i]
    }

    #[inline]
    pub(crate) fn node_stall_factor(&self, i: usize) -> f64 {
        self.node_stall_factor[i]
    }

    #[inline]
    pub(crate) fn node_deps(&self, i: usize) -> &[u32] {
        self.node_deps.row(i)
    }

    #[inline]
    pub(crate) fn node_requests(&self, i: usize) -> Range<u32> {
        self.first_request(i)..self.first_request(i + 1)
    }

    /// Id of node `i`'s first request; `requests_total` for
    /// `i == node_count`.
    #[inline]
    pub(crate) fn first_request(&self, i: usize) -> u32 {
        self.node_requests[i]
    }

    #[inline]
    pub(crate) fn request_addr(&self, r: u32) -> u64 {
        self.request_addr[r as usize]
    }

    #[inline]
    pub(crate) fn request_write(&self, r: u32) -> bool {
        self.request_write[r as usize]
    }

    #[inline]
    pub(crate) fn request_addr_deps(&self, r: u32) -> &[u32] {
        self.request_addr_deps.row(r as usize)
    }

    #[inline]
    pub(crate) fn request_dependents(&self, r: u32) -> &[u32] {
        self.request_dependents.row(r as usize)
    }

    /// The most requests any node's lookahead window holds.
    pub(crate) fn widest_window(&self) -> usize {
        self.widest_window
    }
}

/// A register's taint: at most [`MAX_DEPS`] distinct request ids in fixed
/// slots, in first-seen order. Unused slots hold `u32::MAX`, which is
/// never a request id, so a membership test may read every slot and equal
/// taints compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Taint {
    ids: [u32; MAX_DEPS],
    len: usize,
}

impl Taint {
    const EMPTY: Taint = Taint {
        ids: [u32::MAX; MAX_DEPS],
        len: 0,
    };

    fn one(id: u32) -> Self {
        let mut t = Taint::EMPTY;
        t.ids[0] = id;
        t.len = 1;
        t
    }

    fn ids(&self) -> &[u32] {
        &self.ids[..self.len]
    }

    /// The union of two sources' taints in first-seen order, `a`'s ids
    /// first, truncated to its last [`MAX_DEPS`] ids. Each taint holds
    /// distinct ids, so only `b`'s ids need testing against `a`'s; the
    /// test and the append are branch-free.
    fn union(a: &Taint, b: &Taint) -> Taint {
        if b.len == 0 || a == b {
            return *a;
        }
        if a.len == 0 {
            return *b;
        }
        let mut all = [u32::MAX; 2 * MAX_DEPS];
        all[..MAX_DEPS].copy_from_slice(&a.ids);
        let mut len = a.len;
        for &t in b.ids() {
            let seen = a.ids.iter().fold(false, |seen, &x| seen | (x == t));
            all[len] = t;
            len += usize::from(!seen);
        }
        let kept = len.min(MAX_DEPS);
        let mut out = Taint::EMPTY;
        out.ids[..kept].copy_from_slice(&all[len - kept..len]);
        out.len = kept;
        out
    }
}

/// The [`MAX_DEPS`] largest distinct ids offered so far, ascending. Slot
/// `k` holds an id plus one, or 0 while fewer ids have been offered, so
/// the empty slots sort first.
#[derive(Debug, Clone, Copy)]
struct NewestIds([u32; MAX_DEPS]);

impl NewestIds {
    const EMPTY: NewestIds = NewestIds([0; MAX_DEPS]);

    /// Adds `id`, which must not have been offered before. Slot `k`
    /// becomes the median of old slots `k` and `k + 1` and the new value:
    /// the slots below the new value shift down by one, dropping the
    /// smallest, and a value below every slot changes nothing.
    fn offer_new(&mut self, id: u32) {
        let (v, old) = (id + 1, self.0);
        for k in 0..MAX_DEPS - 1 {
            self.0[k] = old[k].max(v).min(old[k + 1]);
        }
        self.0[MAX_DEPS - 1] = old[MAX_DEPS - 1].max(v);
    }

    /// The ids, ascending, written to the front of `buf`.
    fn write_to<'a>(&self, buf: &'a mut [u32; MAX_DEPS]) -> &'a [u32] {
        let mut len = 0;
        for &v in self.0.iter().filter(|&&v| v != 0) {
            buf[len] = v - 1;
            len += 1;
        }
        &buf[..len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_uncore::PolicyKind;
    use mps_workloads::{benchmark_by_name, AccessPattern, SynthParams, SyntheticTrace};

    fn timing() -> BadcoTiming {
        BadcoTiming::from_uncore(&UncoreConfig::ispass2013(2, PolicyKind::Lru))
    }

    #[test]
    fn timing_from_uncore() {
        let t = timing();
        assert_eq!(t.hit_latency, 5);
        assert_eq!(t.miss_latency, 5 + 30 + 200);
    }

    #[test]
    fn model_accounts_for_every_uop() {
        let trace = benchmark_by_name("gcc").unwrap().trace();
        let m = BadcoModel::build("gcc", &CoreConfig::ispass2013(), &trace, 3_000, timing());
        let uops: u64 = m.nodes().map(|n| u64::from(n.uops)).sum();
        assert_eq!(uops, 3_000);
        assert_eq!(m.uops_total(), 3_000);
        assert!(m.ideal_cycles() > 0);
    }

    #[test]
    fn request_ids_are_dense_and_ordered() {
        let trace = benchmark_by_name("soplex").unwrap().trace();
        let m = BadcoModel::build("soplex", &CoreConfig::ispass2013(), &trace, 2_000, timing());
        let mut expected = 0u32;
        for node in m.nodes() {
            for id in node.requests {
                assert_eq!(m.request(id).id, expected);
                expected += 1;
            }
        }
        assert_eq!(expected, m.requests_total());
        assert!(expected > 0, "a High benchmark must issue requests");
    }

    #[test]
    fn deps_point_backwards_only() {
        let trace = benchmark_by_name("mcf").unwrap().trace();
        let m = BadcoModel::build("mcf", &CoreConfig::ispass2013(), &trace, 2_000, timing());
        let mut issued = 0u32;
        for node in m.nodes() {
            for &d in node.deps {
                assert!(d < issued, "dep {d} not yet issued at node boundary");
            }
            for r in node.requests.clone().map(|id| m.request(id)) {
                for &d in r.addr_deps {
                    assert!(d < r.id);
                    assert!(!m.request(d).write, "address parents are reads");
                }
            }
            issued += node.requests.len() as u32;
        }
    }

    #[test]
    fn compute_bound_benchmark_has_few_nodes() {
        // Long enough that the steady-state rate dominates the cold start.
        let hot = benchmark_by_name("hmmer").unwrap();
        let low = BadcoModel::build(
            "hmmer",
            &CoreConfig::ispass2013(),
            &hot.trace(),
            20_000,
            timing(),
        );
        let stream = benchmark_by_name("libquantum").unwrap();
        let high = BadcoModel::build(
            "libquantum",
            &CoreConfig::ispass2013(),
            &stream.trace(),
            20_000,
            timing(),
        );
        assert!(
            low.node_count() * 2 < high.node_count(),
            "hmmer {} nodes vs libquantum {}",
            low.node_count(),
            high.node_count()
        );
    }

    #[test]
    fn pointer_chase_requests_carry_address_deps() {
        let params = SynthParams {
            pattern: AccessPattern::PointerChase,
            load_frac: 0.3,
            hot_fraction: 0.0,
            hot_bytes: 0,
            footprint: 8 << 20,
            store_frac: 0.0,
            branch_frac: 0.0,
            longlat_frac: 0.0,
            ..SynthParams::default()
        };
        let trace = SyntheticTrace::new(params);
        let m = BadcoModel::build("chase", &CoreConfig::ispass2013(), &trace, 3_000, timing());
        let with_deps = (0..m.requests_total())
            .filter(|&id| !m.request(id).addr_deps.is_empty())
            .count();
        assert!(
            with_deps > 10,
            "chase loads depend on one another: {with_deps}"
        );
        // And the chain should make many nodes expose most of their wait.
        let blocking = m.nodes().filter(|n| n.stall_factor > 0.5).count();
        assert!(blocking > m.node_count() / 4, "blocking nodes: {blocking}");
    }

    #[test]
    fn streaming_benchmark_overlaps_misses() {
        // Independent sequential loads: the OoO window hides most misses,
        // so few nodes should be blocking.
        let params = SynthParams {
            pattern: AccessPattern::Sequential { stride: 64 },
            load_frac: 0.3,
            hot_fraction: 0.0,
            hot_bytes: 0,
            footprint: 8 << 20,
            store_frac: 0.0,
            branch_frac: 0.0,
            longlat_frac: 0.0,
            dep_chain: 0.0,
            ..SynthParams::default()
        };
        let trace = SyntheticTrace::new(params);
        let m = BadcoModel::build("stream", &CoreConfig::ispass2013(), &trace, 3_000, timing());
        let mean_stall: f64 =
            m.nodes().map(|n| n.stall_factor).sum::<f64>() / m.node_count() as f64;
        assert!(
            mean_stall < 0.5,
            "stream should be mostly non-blocking: mean stall {mean_stall}"
        );
    }

    #[test]
    fn perturbed_identity_and_scaling() {
        let trace = benchmark_by_name("mcf").unwrap().trace();
        let m = BadcoModel::build("mcf", &CoreConfig::ispass2013(), &trace, 2_000, timing());
        assert_eq!(m.perturbed(1.0), m, "factor 1.0 must be the identity");
        let half = m.perturbed(0.5);
        assert_eq!(half.uops_total(), m.uops_total());
        assert_eq!(half.requests_total(), m.requests_total());
        assert!(half.ideal_cycles() < m.ideal_cycles());
        for (a, b) in half.nodes().zip(m.nodes()) {
            assert!((0.0..=1.0).contains(&a.stall_factor));
            assert!(a.weight <= b.weight, "halved weights cannot grow");
            assert_eq!(a.requests, b.requests, "only coefficients change");
            assert_eq!(a.deps, b.deps);
        }
        for id in 0..m.requests_total() {
            assert_eq!(half.request(id), m.request(id));
        }
    }

    /// Two nodes: node 0 issues read 0 and write 1; node 1 depends on
    /// request 0 and issues read 2, whose address comes from read 0.
    fn small_parts() -> ModelParts {
        let mut p = ModelParts::with_capacity(2, 3);
        p.push_node(3, 4, 0.0, &[]);
        p.push_request(0, 0x40, false, &[]);
        p.push_request(1, 0x80, true, &[]);
        p.push_node(2, 5, 0.5, &[0]);
        p.push_request(2, 0xc0, false, &[0]);
        p
    }

    #[test]
    fn from_parts_accepts_a_well_formed_model() {
        let m = BadcoModel::from_parts("t", small_parts(), 5, 3).unwrap();
        assert_eq!(m.node_count(), 2);
        assert_eq!(m.node(1).requests, 2..3);
        assert_eq!(m.node(1).deps, &[0]);
        assert_eq!(m.request(2).addr_deps, &[0]);
        assert_eq!(m.request_dependents(0), &[2]);
        assert!(m.request_dependents(1).is_empty());
        assert_eq!(m.ideal_cycles(), 9);
    }

    #[test]
    fn from_parts_rejects_broken_invariants() {
        let reject = |p: ModelParts, uops: u64, reqs: u32, why: &str| {
            let err = BadcoModel::from_parts("t", p, uops, reqs).unwrap_err();
            assert!(err.0.contains(why), "{why:?} not in {err}");
        };
        reject(ModelParts::with_capacity(0, 0), 0, 0, "no nodes");
        reject(small_parts(), 6, 3, "disagree with total");
        reject(small_parts(), 5, 4, "header says 4");

        let mut early = ModelParts::with_capacity(1, 1);
        early.push_request(0, 0, false, &[]);
        early.push_node(1, 1, 0.0, &[]);
        reject(early, 1, 1, "precede the first node");

        let mut ids = small_parts();
        ids.request_id[2] = 7;
        reject(ids, 5, 3, "request 2 has id 7");

        for sf in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let mut p = small_parts();
            p.node_stall_factor[1] = sf;
            reject(p, 5, 3, "stall factor");
        }

        // A node may not wait on its own request or a later one.
        let mut own = ModelParts::with_capacity(2, 3);
        own.push_node(3, 4, 0.0, &[]);
        own.push_request(0, 0x40, false, &[]);
        own.push_request(1, 0x80, true, &[]);
        own.push_node(2, 5, 0.5, &[2]);
        own.push_request(2, 0xc0, false, &[0]);
        reject(own, 5, 3, "depends on request 2");

        // Address parents must be earlier reads: not a write, not itself,
        // not a later request, not out of range.
        for parent in [1, 2, 9] {
            let mut p = ModelParts::with_capacity(2, 3);
            p.push_node(3, 4, 0.0, &[]);
            p.push_request(0, 0x40, false, &[]);
            p.push_request(1, 0x80, true, &[]);
            p.push_node(2, 5, 0.5, &[0]);
            p.push_request(2, 0xc0, false, &[parent]);
            reject(p, 5, 3, "not an earlier read");
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn perturbed_rejects_nonpositive_factor() {
        let trace = benchmark_by_name("gcc").unwrap().trace();
        let m = BadcoModel::build("gcc", &CoreConfig::ispass2013(), &trace, 500, timing());
        let _ = m.perturbed(0.0);
    }

    fn latencies(hit_latency: u64, miss_latency: u64) -> BadcoTiming {
        BadcoTiming {
            hit_latency,
            miss_latency,
        }
    }

    #[test]
    #[should_panic(expected = "miss_latency 5 must exceed hit_latency 5")]
    fn build_rejects_equal_latencies() {
        let trace = benchmark_by_name("gcc").unwrap().trace();
        let _ = BadcoModel::build(
            "gcc",
            &CoreConfig::ispass2013(),
            &trace,
            500,
            latencies(5, 5),
        );
    }

    #[test]
    #[should_panic(expected = "miss_latency 5 must exceed hit_latency 235")]
    fn build_rejects_inverted_latencies() {
        let trace = benchmark_by_name("gcc").unwrap().trace();
        let timing = latencies(235, 5);
        let _ = BadcoModel::build("gcc", &CoreConfig::ispass2013(), &trace, 500, timing);
    }

    #[test]
    #[should_panic(expected = "miss_latency 5 must exceed hit_latency 5")]
    fn from_recordings_rejects_equal_latencies() {
        let rec = RunRecording {
            commit_cycles: vec![1],
            requests: Vec::new(),
        };
        let mut trace = benchmark_by_name("gcc").unwrap().trace();
        let _ = BadcoModel::from_recordings("gcc", &mut trace, 1, &rec, &rec, latencies(5, 5));
    }

    #[test]
    fn newest_ids_keep_the_largest_distinct_ids() {
        let mut rng = mps_stats::rng::Rng::new(7);
        for round in 0..200 {
            let mut set = NewestIds::EMPTY;
            let mut offered: Vec<u32> = Vec::new();
            for _ in 0..round % 20 {
                let id = rng.index(40) as u32;
                if !offered.contains(&id) {
                    offered.push(id);
                    set.offer_new(id);
                }
            }
            offered.sort_unstable();
            let newest = &offered[offered.len().saturating_sub(MAX_DEPS)..];
            assert_eq!(set.write_to(&mut [0; MAX_DEPS]), newest);
        }
    }

    #[test]
    fn model_build_is_deterministic() {
        let bench = benchmark_by_name("astar").unwrap();
        let t1 = bench.trace();
        let a = BadcoModel::build("astar", &CoreConfig::ispass2013(), &t1, 1_500, timing());
        let t2 = bench.trace();
        let b = BadcoModel::build("astar", &CoreConfig::ispass2013(), &t2, 1_500, timing());
        assert_eq!(a, b);
    }
}
