//! The multi-pass model derivation that [`BadcoModel::from_recordings`]
//! must reproduce exactly, kept as a test oracle.
//!
//! It is the straightforward form of the rules the module doc states:
//! one pass collects every µop's requests and register reads, a second
//! cuts nodes and gathers their dependences, a third assembles the
//! columns. The tests below compare it with the production derivation on
//! the whole suite and on hand-made slices that reach each rule's edge.

use super::{BadcoModel, BadcoTiming, ModelParts, MAX_DEPS};
use mps_sim_cpu::RunRecording;
use mps_workloads::{TraceSource, UopKind};

/// The reference derivation of [`BadcoModel::from_recordings`].
pub(super) fn from_recordings(
    name: &str,
    trace: &mut dyn TraceSource,
    n: u64,
    hit_rec: &RunRecording,
    miss_rec: &RunRecording,
    timing: BadcoTiming,
) -> BadcoModel {
    assert_eq!(hit_rec.len(), n as usize, "hit recording length mismatch");
    assert_eq!(miss_rec.len(), n as usize, "miss recording length mismatch");

    // Requests in µop order (they are recorded in issue order, which
    // is out of order).
    let mut reqs: Vec<(u64, u64, bool)> = hit_rec
        .requests
        .iter()
        .map(|r| (r.uop_index, r.addr, r.write))
        .collect();
    reqs.sort_by_key(|&(u, a, w)| (u, a, w));

    // Walk the trace computing register taint (which request's data
    // flows into each register) and assign requests/deps to µops.
    trace.reset();
    let mut reg_taint: Vec<Vec<u32>> = vec![Vec::new(); mps_workloads::uop::NUM_REGS];
    let mut req_cursor = 0usize;
    let mut next_req_id: u32 = 0;

    // Per-µop: the requests it issues as `(id, addr, write)` and the
    // earlier requests it reads, which are also its reads' address
    // dependences.
    struct UopInfo {
        requests: Vec<(u32, u64, bool)>,
        reads: Vec<u32>,
    }
    let mut uop_infos: Vec<UopInfo> = Vec::with_capacity(n as usize);

    for i in 0..n {
        let uop = trace.next_uop();
        let mut src_taints: Vec<u32> = Vec::new();
        for src in uop.srcs.iter().flatten() {
            for &t in &reg_taint[*src as usize] {
                if !src_taints.contains(&t) {
                    src_taints.push(t);
                }
            }
        }
        truncate_recent(&mut src_taints);

        let mut requests = Vec::new();
        let mut produced: Option<u32> = None;
        while req_cursor < reqs.len() && reqs[req_cursor].0 == i {
            let (_, addr, write) = reqs[req_cursor];
            let id = next_req_id;
            next_req_id += 1;
            requests.push((id, addr, write));
            if !write && uop.kind == UopKind::Load {
                produced = Some(id);
            }
            req_cursor += 1;
        }

        // Propagate taint through the destination register.
        if let Some(dst) = uop.dst {
            let slot = &mut reg_taint[dst as usize];
            slot.clear();
            match produced {
                Some(id) => slot.push(id),
                None => {
                    slot.extend(src_taints.iter().copied());
                    truncate_recent(slot);
                }
            }
        }

        uop_infos.push(UopInfo {
            requests,
            reads: src_taints,
        });
    }
    trace.reset();

    // Cut nodes at request-bearing µops; compute weights from the
    // ideal run and blocking flags from the pessimal run.
    let mut node_start_uop: usize = 0;
    let mut pending_reads: Vec<u32> = Vec::new();
    let mut raw_nodes = Vec::new();
    for (i, info) in uop_infos.iter().enumerate() {
        for &r in &info.reads {
            if !pending_reads.contains(&r) {
                pending_reads.push(r);
            }
        }
        if !info.requests.is_empty() || i == n as usize - 1 {
            // Node covering µops [node_start_uop, i].
            let first = node_start_uop;
            let prev_commit_hit = if first == 0 {
                0
            } else {
                hit_rec.commit_cycles[first - 1]
            };
            let prev_commit_miss = if first == 0 {
                0
            } else {
                miss_rec.commit_cycles[first - 1]
            };
            let weight = hit_rec.commit_cycles[i].saturating_sub(prev_commit_hit);
            let delta_miss = miss_rec.commit_cycles[i].saturating_sub(prev_commit_miss);
            let mut deps = std::mem::take(&mut pending_reads);
            // Own requests are not dependencies.
            deps.retain(|d| !info.requests.iter().any(|r| r.0 == *d));
            deps.sort_unstable();
            deps.dedup();
            truncate_recent(&mut deps);
            raw_nodes.push((first, i, weight, delta_miss, deps));
            node_start_uop = i + 1;
        }
    }

    let extra_per_miss = (timing.miss_latency - timing.hit_latency) as f64;
    let mut parts = ModelParts::with_capacity(raw_nodes.len(), next_req_id as usize);
    for (first, upto, weight, delta_miss, deps) in raw_nodes {
        let uops = (upto - first + 1) as u32;
        let observed_extra = delta_miss.saturating_sub(weight) as f64;
        let stall_factor = if deps.is_empty() {
            0.0
        } else {
            (observed_extra / extra_per_miss).clamp(0.0, 1.0)
        };
        parts.push_node(uops, weight, stall_factor, &deps);
        let info = &uop_infos[upto];
        for &(id, addr, write) in &info.requests {
            let addr_deps: &[u32] = if write { &[] } else { &info.reads };
            parts.push_request(id, addr, write, addr_deps);
        }
    }

    BadcoModel::from_parts(name, parts, n, next_req_id)
        .expect("a model built from recordings is well-formed")
}

fn truncate_recent(v: &mut Vec<u32>) {
    if v.len() > MAX_DEPS {
        let excess = v.len() - MAX_DEPS;
        v.drain(..excess);
    }
}

mod tests {
    use super::*;
    use mps_sim_cpu::{record_run, CoreConfig, FixedLatencyBackend, ReqEvent};
    use mps_uncore::{PolicyKind, UncoreConfig};
    use mps_workloads::{suite, Reg, TraceBuffer, Uop};
    use std::sync::Arc;

    /// The study's trace length at the scale the study bench measures.
    const TL: u64 = 1_000;

    /// Derives the model both ways, asserts they are equal and returns it.
    fn derive_both(
        name: &str,
        trace: &mut dyn TraceSource,
        n: u64,
        hit: &RunRecording,
        miss: &RunRecording,
        timing: BadcoTiming,
    ) -> BadcoModel {
        let fast = BadcoModel::from_recordings(name, trace, n, hit, miss, timing);
        let slow = from_recordings(name, trace, n, hit, miss, timing);
        assert_eq!(
            fast, slow,
            "{name}: one-pass derivation differs from the reference"
        );
        fast
    }

    #[test]
    fn suite_models_match_the_reference_at_two_and_four_cores() {
        let core = CoreConfig::ispass2013();
        let bufs: Vec<Arc<TraceBuffer>> = suite()
            .iter()
            .map(|s| Arc::new(TraceBuffer::capture(&mut s.trace(), TL)))
            .collect();
        for cores in [2, 4] {
            let timing = BadcoTiming::from_uncore(&UncoreConfig::ispass2013_scaled(
                cores,
                PolicyKind::Lru,
                16,
            ));
            for (spec, buf) in suite().iter().zip(&bufs) {
                let mut ideal = FixedLatencyBackend::new(timing.hit_latency);
                let (hit, _) = record_run(core.clone(), Box::new(buf.cursor()), TL, &mut ideal);
                let mut pessimal = FixedLatencyBackend::new(timing.miss_latency);
                let (miss, _) = record_run(core.clone(), Box::new(buf.cursor()), TL, &mut pessimal);
                let name = format!("{} at {cores} cores", spec.name());
                derive_both(&name, &mut buf.cursor(), TL, &hit, &miss, timing);
            }
        }
    }

    /// A hand-written µop slice, replayed cyclically.
    struct Slice {
        uops: Vec<Uop>,
        pos: usize,
    }

    impl TraceSource for Slice {
        fn next_uop(&mut self) -> Uop {
            let u = self.uops[self.pos % self.uops.len()];
            self.pos += 1;
            u
        }

        fn reset(&mut self) {
            self.pos = 0;
        }
    }

    fn uop(kind: UopKind, srcs: [Option<Reg>; 2], dst: Option<Reg>) -> Uop {
        Uop {
            kind,
            srcs,
            dst,
            ..Uop::nop_like(0x1000)
        }
    }

    fn load(src: Option<Reg>, dst: Reg) -> Uop {
        uop(UopKind::Load, [src, None], Some(dst))
    }

    fn alu(a: Reg, b: Option<Reg>, dst: Reg) -> Uop {
        uop(UopKind::IntAlu, [Some(a), b], Some(dst))
    }

    fn read(uop_index: u64, addr: u64) -> ReqEvent {
        ReqEvent {
            uop_index,
            addr,
            write: false,
            instruction: false,
        }
    }

    /// Recordings for `uops` µops: the ideal run commits one µop per
    /// cycle, the pessimal run `stall` extra cycles after every request-
    /// bearing µop. `reqs` is given in issue order.
    fn recordings(uops: usize, reqs: &[ReqEvent], stall: u64) -> (RunRecording, RunRecording) {
        let hit = RunRecording {
            commit_cycles: (1..=uops as u64).collect(),
            requests: reqs.to_vec(),
        };
        let mut miss = hit.clone();
        let mut extra = 0;
        for (i, c) in miss.commit_cycles.iter_mut().enumerate() {
            if reqs.iter().any(|r| r.uop_index == i as u64) {
                extra += stall;
            }
            *c += extra;
        }
        (hit, miss)
    }

    fn timing() -> BadcoTiming {
        BadcoTiming {
            hit_latency: 5,
            miss_latency: 235,
        }
    }

    fn derive(uops: Vec<Uop>, reqs: &[ReqEvent]) -> BadcoModel {
        let n = uops.len() as u64;
        let (hit, miss) = recordings(uops.len(), reqs, 90);
        derive_both(
            "slice",
            &mut Slice { uops, pos: 0 },
            n,
            &hit,
            &miss,
            timing(),
        )
    }

    #[test]
    fn a_slice_without_requests_is_one_node() {
        let uops = (0..5).map(|i| alu(i, Some(i + 1), i + 2)).collect();
        let m = derive(uops, &[]);
        assert_eq!(m.node_count(), 1);
        assert_eq!(m.requests_total(), 0);
        let node = m.node(0);
        assert_eq!((node.uops, node.weight), (5, 5));
        assert!(node.deps.is_empty());
        assert_eq!(node.stall_factor, 0.0);
    }

    #[test]
    fn a_register_chain_saturates_its_taint() {
        // Eight loads taint r1..r8 with requests 0..7. A chain merges them
        // into r9, then r9 feeds the address of a final load. A merge
        // keeps the last six of the first-seen union, sources in order,
        // so an id merged in through the first source can be the one
        // dropped.
        let mut uops: Vec<Uop> = (1..=8).map(|r| load(None, r)).collect();
        uops.push(alu(5, Some(6), 9)); // r9: [4, 5]
        uops.push(alu(9, Some(7), 9)); // [4, 5, 6]
        uops.push(alu(8, Some(9), 9)); // [7, 4, 5, 6]
        uops.push(alu(9, Some(1), 9)); // [7, 4, 5, 6, 0]
        uops.push(alu(2, Some(9), 9)); // [1, 7, 4, 5, 6, 0]
        uops.push(alu(3, Some(9), 9)); // [2, 1, 7, 4, 5, 6, 0] drops 2
        uops.push(alu(9, Some(9), 9)); // unchanged
        uops.push(alu(4, Some(9), 9)); // drops 3
        uops.push(load(Some(9), 10));
        let mut reqs: Vec<ReqEvent> = (0..8).map(|i| read(i, 0x40 * (i + 1))).collect();
        reqs.push(read(16, 0x1000));
        reqs.reverse();
        let m = derive(uops, &reqs);
        assert_eq!(m.request(8).addr_deps, &[1, 7, 4, 5, 6, 0]);
        assert_eq!(m.node(m.node_count() - 1).deps, &[0, 1, 4, 5, 6, 7]);
    }

    #[test]
    fn a_node_reading_many_requests_keeps_the_newest() {
        // Nine loads, then nine request-free µops each reading one of them
        // (oldest last), then a store: the store's node reads nine ids.
        let mut uops: Vec<Uop> = (1..=9).map(|r| load(None, r)).collect();
        for r in [5, 9, 2, 8, 1, 7, 3, 6, 4] {
            uops.push(alu(r, Some(r), 20 + r));
        }
        uops.push(uop(UopKind::Store, [Some(1), Some(2)], None));
        let mut reqs: Vec<ReqEvent> = (0..9).map(|i| read(i, 0x40 * (i + 1))).collect();
        reqs.push(ReqEvent {
            write: true,
            ..read(18, 0x2000)
        });
        let m = derive(uops, &reqs);
        let node = m.node(m.node_count() - 1);
        assert_eq!(node.uops, 10);
        assert_eq!(node.deps, &[3, 4, 5, 6, 7, 8]);
        assert!(node.stall_factor > 0.0);
        assert!(m.request(9).write && m.request(9).addr_deps.is_empty());
    }

    #[test]
    fn a_load_with_a_fetch_taints_its_destination_with_the_last_read() {
        // µop 1 is a load with an instruction fetch and a data read; µop 2
        // reads its destination as an address. The load produces the last
        // of its reads in (µop, address, write) order, so the fetch
        // decides when its address is the larger.
        for (fetch, data) in [(0x9000, 0x100), (0x100, 0x9000)] {
            let uops = vec![alu(1, None, 2), load(Some(2), 3), load(Some(3), 4)];
            let reqs = [
                read(1, data),
                ReqEvent {
                    instruction: true,
                    ..read(1, fetch)
                },
                read(2, 0x5000),
            ];
            let m = derive(uops, &reqs);
            assert_eq!(m.requests_total(), 3);
            assert_eq!(m.request(1).addr, fetch.max(data));
            assert_eq!(m.request(2).addr_deps, &[1]);
            assert_eq!(m.node(1).deps, &[1]);
        }
    }
}
