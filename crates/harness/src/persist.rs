//! Artifact (de)serialization: domain types ⇄ store payload bytes.
//!
//! Every codec here is *exact*: floats travel as IEEE-754 bit patterns,
//! so an artifact loaded from the store is bit-identical to the one the
//! simulators computed — the property the kill-and-rerun tests assert
//! end to end. Decoders never panic on malformed input; they return
//! [`Error::Corrupt`], which the store layer answers by quarantining the
//! file and recomputing.

use mps_badco::{BadcoModel, ModelParts};
use mps_metrics::{PerfTable, WorkloadPerf};
use mps_sampling::{Population, Workload};
use mps_store::{Dec, Enc, Error, Result};
use mps_workloads::{TraceBuffer, TraceColumns, UopKind};
use std::sync::Arc;

/// All µop kinds, indexed by their wire byte.
const UOP_KINDS: [UopKind; 9] = [
    UopKind::IntAlu,
    UopKind::IntMul,
    UopKind::IntDiv,
    UopKind::FpAdd,
    UopKind::FpMul,
    UopKind::FpDiv,
    UopKind::Load,
    UopKind::Store,
    UopKind::Branch,
];

fn kind_byte(k: UopKind) -> u8 {
    UOP_KINDS.iter().position(|&x| x == k).unwrap() as u8
}

/// A little-endian `u32` field.
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("a 4-byte field"))
}

/// A little-endian `u64` field.
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("an 8-byte field"))
}

/// Encodes a reference-IPC vector (or any plain `f64` table).
pub fn encode_f64s(vals: &[f64]) -> Vec<u8> {
    let mut e = Enc::new();
    e.f64s(vals);
    e.into_bytes()
}

/// Decodes [`encode_f64s`] output.
pub fn decode_f64s(bytes: &[u8]) -> Result<Vec<f64>> {
    let mut d = Dec::new(bytes, "f64-table");
    let v = d.f64s()?;
    d.finish()?;
    Ok(v)
}

/// Encodes a population table (space dimensions + rank-ordered workloads).
pub fn encode_population(pop: &Population) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(pop.space().benchmarks() as u32);
    e.u32(pop.space().cores() as u32);
    e.bool(pop.is_full());
    e.len(pop.len());
    for w in pop.workloads() {
        for &b in w.benchmarks() {
            e.u8(b as u8);
        }
    }
    e.into_bytes()
}

/// Decodes [`encode_population`] output.
pub fn decode_population(bytes: &[u8]) -> Result<Population> {
    let mut d = Dec::new(bytes, "population");
    let b = d.u32()? as usize;
    let k = d.u32()? as usize;
    let full = d.bool()?;
    let n = d.len(k.max(1))?;
    if n == 0 || k == 0 || b == 0 || b > u8::MAX as usize {
        return Err(Error::Corrupt {
            path: "population".to_owned(),
            detail: format!("implausible dimensions b={b} k={k} n={n}"),
        });
    }
    let mut workloads = Vec::with_capacity(n);
    for _ in 0..n {
        let mut benches = Vec::with_capacity(k);
        for _ in 0..k {
            let id = d.u8()?;
            if id as usize >= b {
                return Err(Error::Corrupt {
                    path: "population".to_owned(),
                    detail: format!("benchmark id {id} out of range (suite has {b})"),
                });
            }
            benches.push(u16::from(id));
        }
        workloads.push(Workload::new(benches));
    }
    d.finish()?;
    Ok(Population::from_parts(b, k, workloads, full))
}

/// Encodes a performance table (reference IPCs + per-workload rows).
pub fn encode_perf_table(table: &PerfTable) -> Vec<u8> {
    let mut e = Enc::new();
    e.f64s(table.ref_ipcs());
    e.len(table.len());
    for row in table.rows() {
        e.len(row.benchmarks.len());
        for &b in &row.benchmarks {
            e.u8(b as u8);
        }
        for &ipc in &row.ipcs {
            e.f64(ipc);
        }
    }
    e.into_bytes()
}

/// Decodes [`encode_perf_table`] output.
pub fn decode_perf_table(bytes: &[u8]) -> Result<PerfTable> {
    let mut d = Dec::new(bytes, "perf-table");
    let refs = d.f64s()?;
    let nrefs = refs.len();
    let rows = d.len(2)?;
    let mut table = PerfTable::new(refs);
    for _ in 0..rows {
        let cores = d.len(1)?;
        if cores == 0 || cores > 64 {
            return Err(Error::Corrupt {
                path: "perf-table".to_owned(),
                detail: format!("implausible core count {cores}"),
            });
        }
        let mut benches = Vec::with_capacity(cores);
        for _ in 0..cores {
            let b = d.u8()? as usize;
            if b >= nrefs {
                return Err(Error::Corrupt {
                    path: "perf-table".to_owned(),
                    detail: format!("benchmark {b} has no reference IPC (have {nrefs})"),
                });
            }
            benches.push(b);
        }
        let mut ipcs = Vec::with_capacity(cores);
        for _ in 0..cores {
            ipcs.push(d.f64()?);
        }
        table.push(WorkloadPerf::new(benches, ipcs));
    }
    d.finish()?;
    Ok(table)
}

/// Encodes a trained BADCO model set (one model per suite benchmark).
pub fn encode_models(models: &[Arc<BadcoModel>]) -> Vec<u8> {
    let mut e = Enc::new();
    e.len(models.len());
    for m in models {
        e.str(&m.name);
        e.u64(m.uops_total());
        e.u32(m.requests_total());
        e.len(m.node_count());
        for n in m.nodes() {
            e.u32(n.uops);
            e.u64(n.weight);
            e.f64(n.stall_factor);
            e.u32s(n.deps);
            e.len(n.requests.len());
            for r in n.requests.map(|id| m.request(id)) {
                e.u32(r.id);
                e.u64(r.addr);
                e.bool(r.write);
                e.u32s(r.addr_deps);
            }
        }
    }
    e.into_bytes()
}

/// Bytes of a node's fixed fields: µops, weight, stall factor and the
/// length of its dependence list.
const NODE_HEAD: usize = 4 + 8 + 8 + 4;

/// Smallest encoded node: its fixed fields, no dependences, no requests.
const MIN_NODE_BYTES: usize = NODE_HEAD + 4;

/// Bytes of a request's fixed fields: id, address, write flag and the
/// length of its address-dependence list; also its smallest encoding.
const REQUEST_HEAD: usize = 4 + 8 + 1 + 4;

/// Decodes [`encode_models`] output. Records that break a model invariant
/// (see [`BadcoModel::from_parts`]) are [`Error::Corrupt`].
///
/// Fixed-size field groups are read with one bounds check each, and
/// dependence lists as one slice each.
pub fn decode_models(bytes: &[u8]) -> Result<Vec<Arc<BadcoModel>>> {
    let mut d = Dec::new(bytes, "badco-models");
    let count = d.len(16)?;
    let mut models = Vec::with_capacity(count);
    let mut deps = Vec::new();
    for _ in 0..count {
        let name = d.str()?;
        let totals = d.array::<12>()?;
        let (uops_total, requests_total) = (le_u64(&totals[..8]), le_u32(&totals[8..]));
        let nnodes = d.len(MIN_NODE_BYTES)?;
        let requests = (requests_total as usize).min(d.remaining() / REQUEST_HEAD);
        let mut parts = ModelParts::with_capacity(nnodes, requests);
        for _ in 0..nnodes {
            let node = d.array::<NODE_HEAD>()?;
            read_u32s(&mut d, le_u32(&node[20..]), &mut deps)?;
            parts.push_node(
                le_u32(&node[..4]),
                le_u64(&node[4..12]),
                f64::from_bits(le_u64(&node[12..20])),
                &deps,
            );
            for _ in 0..d.u32()? {
                let req = d.array::<REQUEST_HEAD>()?;
                let write = match req[12] {
                    0 => false,
                    1 => true,
                    b => {
                        return Err(Error::Corrupt {
                            path: "badco-models".to_owned(),
                            detail: format!("invalid bool byte {b}"),
                        })
                    }
                };
                read_u32s(&mut d, le_u32(&req[13..]), &mut deps)?;
                parts.push_request(le_u32(&req[..4]), le_u64(&req[4..12]), write, &deps);
            }
        }
        let model =
            BadcoModel::from_parts(&name, parts, uops_total, requests_total).map_err(|e| {
                Error::Corrupt {
                    path: "badco-models".to_owned(),
                    detail: e.to_string(),
                }
            })?;
        models.push(Arc::new(model));
    }
    d.finish()?;
    Ok(models)
}

/// Reads `n` little-endian `u32`s as one slice into `out`, reusing its
/// buffer.
fn read_u32s(d: &mut Dec<'_>, n: u32, out: &mut Vec<u32>) -> Result<()> {
    let (words, _) = d.bytes((n as usize).saturating_mul(4))?.as_chunks::<4>();
    out.clear();
    out.extend(words.iter().map(|w| u32::from_le_bytes(*w)));
    Ok(())
}

/// Bytes of one encoded µop: kind, two sources, destination, address,
/// size, PC, taken flag, target.
const UOP_BYTES: usize = 30;

/// Encodes a captured SoA trace buffer µop by µop.
pub fn encode_trace(buf: &TraceBuffer) -> Vec<u8> {
    let mut e = Enc::new();
    e.len(buf.len());
    for i in 0..buf.len() {
        let u = buf.uop(i);
        e.u8(kind_byte(u.kind));
        e.u8(u.srcs[0].map_or(u8::MAX, |r| r));
        e.u8(u.srcs[1].map_or(u8::MAX, |r| r));
        e.u8(u.dst.map_or(u8::MAX, |r| r));
        e.u64(u.addr);
        e.u8(u.size);
        e.u64(u.pc);
        e.bool(u.taken);
        e.u64(u.target);
    }
    e.into_bytes()
}

/// One column of a trace: `field` of every µop record.
fn column<T>(records: &[[u8; UOP_BYTES]], field: impl Fn(&[u8; UOP_BYTES]) -> T) -> Vec<T> {
    records.iter().map(field).collect()
}

/// Decodes [`encode_trace`] output back into a shareable buffer: a
/// `u32` count `n > 0` and exactly `n` µop records. After one pass checks
/// every kind and taken byte, each column is filled in one pass of its
/// own.
pub fn decode_trace(bytes: &[u8]) -> Result<Arc<TraceBuffer>> {
    let corrupt = |detail: String| Error::Corrupt {
        path: "trace-buffer".to_owned(),
        detail,
    };
    let body = bytes.get(4..).unwrap_or_default();
    let n = bytes.get(..4).map_or(0, le_u32) as usize;
    let (records, rest) = body.as_chunks::<UOP_BYTES>();
    if n == 0 || records.len() != n || !rest.is_empty() {
        return Err(corrupt(format!(
            "{} bytes cannot hold {n} µops: a trace is 4 + {UOP_BYTES}·n bytes, n > 0",
            bytes.len()
        )));
    }
    let bad = |r: &[u8; UOP_BYTES]| usize::from(r[0]) >= UOP_KINDS.len() || r[21] > 1;
    if let Some(i) = records.iter().position(bad) {
        return Err(corrupt(format!(
            "µop {i}: kind byte {} or taken byte {} out of range",
            records[i][0], records[i][21]
        )));
    }
    let columns = TraceColumns {
        kind: column(records, |r| UOP_KINDS[usize::from(r[0])]),
        src0: column(records, |r| r[1]),
        src1: column(records, |r| r[2]),
        dst: column(records, |r| r[3]),
        addr: column(records, |r| le_u64(&r[4..12])),
        size: column(records, |r| r[12]),
        pc: column(records, |r| le_u64(&r[13..21])),
        taken: column(records, |r| r[21] == 1),
        target: column(records, |r| le_u64(&r[22..30])),
    };
    TraceBuffer::from_columns(columns)
        .map(Arc::new)
        .ok_or_else(|| corrupt("ragged trace columns".to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::experiment_uncore;
    use mps_badco::{BadcoMulticoreSim, BadcoTiming};
    use mps_sim_cpu::CoreConfig;
    use mps_store::fnv1a64;
    use mps_uncore::{PolicyKind, Uncore};
    use mps_workloads::{benchmark_by_name, suite};

    #[test]
    fn f64s_round_trip() {
        let v = vec![1.0, -0.0, f64::NAN, 0.3333333333333333];
        let got = decode_f64s(&encode_f64s(&v)).unwrap();
        let bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn population_round_trip() {
        let pop = Population::full(6, 3);
        let got = decode_population(&encode_population(&pop)).unwrap();
        assert_eq!(got.workloads(), pop.workloads());
        assert_eq!(got.is_full(), pop.is_full());
        assert_eq!(got.space().benchmarks(), 6);
        assert_eq!(got.space().cores(), 3);
    }

    #[test]
    fn perf_table_round_trip() {
        let mut t = PerfTable::new(vec![2.0, 1.0, 0.5]);
        t.push(WorkloadPerf::new(vec![0, 1], vec![1.25, 0.5]));
        t.push(WorkloadPerf::new(vec![2, 2], vec![0.25, 0.125]));
        let got = decode_perf_table(&encode_perf_table(&t)).unwrap();
        assert_eq!(got, t);
    }

    #[test]
    fn trace_round_trip_is_stream_identical() {
        let spec = &suite()[0];
        let mut src = spec.trace();
        let buf = TraceBuffer::capture(&mut src, 200);
        let got = decode_trace(&encode_trace(&buf)).unwrap();
        assert_eq!(got.len(), buf.len());
        for i in 0..buf.len() {
            assert_eq!(got.uop(i), buf.uop(i), "µop {i}");
        }
    }

    /// Three trained models at 500 µops: a pointer chaser, a streamer and
    /// a compute-bound benchmark, so every record field takes varied values.
    fn small_model_set() -> Vec<Arc<BadcoModel>> {
        let timing = BadcoTiming::from_uncore(&experiment_uncore(2, PolicyKind::Lru));
        ["mcf", "libquantum", "hmmer"]
            .iter()
            .map(|name| {
                let trace = benchmark_by_name(name).unwrap().trace();
                let core = CoreConfig::ispass2013();
                Arc::new(BadcoModel::build(name, &core, &trace, 500, timing))
            })
            .collect()
    }

    #[test]
    fn model_store_format_is_pinned() {
        // Existing stores hold records in this exact layout: a change to
        // the in-memory model must not move a byte of them.
        let bytes = encode_models(&small_model_set());
        assert_eq!(fnv1a64(&bytes), 0xfefd_6a70_c16d_f8fc);
        let decoded = decode_models(&bytes).unwrap();
        assert_eq!(encode_models(&decoded), bytes);
    }

    /// A hand-written one-model record: node 0 reads request 0 and writes
    /// request 1; node 1 depends on request `dep` and reads request `id2`,
    /// whose address comes from request `addr_dep`.
    struct Record {
        requests_total: u32,
        dep: u32,
        id2: u32,
        addr_dep: u32,
        stall: f64,
    }

    const GOOD: Record = Record {
        requests_total: 3,
        dep: 0,
        id2: 2,
        addr_dep: 0,
        stall: 0.5,
    };

    fn record(r: &Record) -> Vec<u8> {
        let mut e = Enc::new();
        e.len(1);
        e.str("hand");
        e.u64(5);
        e.u32(r.requests_total);
        e.len(2);
        for (uops, weight, stall, deps, reqs) in [
            (
                3,
                4,
                0.0,
                vec![],
                vec![(0, false, vec![]), (1, true, vec![])],
            ),
            (
                2,
                5,
                r.stall,
                vec![r.dep],
                vec![(r.id2, false, vec![r.addr_dep])],
            ),
        ] {
            e.u32(uops);
            e.u64(weight);
            e.f64(stall);
            e.u32s(&deps);
            e.len(reqs.len());
            for (id, write, addr_deps) in reqs {
                e.u32(id);
                e.u64(0x40 * u64::from(id + 1));
                e.bool(write);
                e.u32s(&addr_deps);
            }
        }
        e.into_bytes()
    }

    #[test]
    fn hand_written_model_record_decodes_and_runs() {
        let models = decode_models(&record(&GOOD)).unwrap();
        assert_eq!(encode_models(&models), record(&GOOD));
        let uncore = Uncore::new(experiment_uncore(2, PolicyKind::Lru), 1);
        let r = BadcoMulticoreSim::new(uncore, models).run();
        assert_eq!(r.instructions, 5);
    }

    #[test]
    fn model_records_breaking_invariants_are_corrupt() {
        let cases = [
            ("id past the total", Record { id2: 7, ..GOOD }),
            (
                "ids not dense",
                Record {
                    requests_total: 4,
                    ..GOOD
                },
            ),
            ("dep past the total", Record { dep: 9, ..GOOD }),
            ("dep on the node's own request", Record { dep: 2, ..GOOD }),
            (
                "address dep past the total",
                Record {
                    addr_dep: 9,
                    ..GOOD
                },
            ),
            (
                "address dep on itself",
                Record {
                    addr_dep: 2,
                    ..GOOD
                },
            ),
            (
                "address dep on a write",
                Record {
                    addr_dep: 1,
                    ..GOOD
                },
            ),
            (
                "NaN stall factor",
                Record {
                    stall: f64::NAN,
                    ..GOOD
                },
            ),
            ("stall factor above 1", Record { stall: 1.5, ..GOOD }),
            (
                "negative stall factor",
                Record {
                    stall: -0.5,
                    ..GOOD
                },
            ),
        ];
        for (what, rec) in cases {
            match decode_models(&record(&rec)) {
                Err(Error::Corrupt { path, .. }) => assert_eq!(path, "badco-models", "{what}"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// Decodes every truncation of `bytes` (all must fail) and every
    /// single-byte corruption of it under a few substitutions. No input
    /// may panic, and a corruption that decodes must re-encode to exactly
    /// the corrupted bytes: the decoder rejects or represents, never
    /// guesses.
    fn assert_rejects_or_represents<V>(
        bytes: &[u8],
        decode: impl Fn(&[u8]) -> Result<V>,
        encode: impl Fn(&V) -> Vec<u8>,
    ) {
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut changed = bytes.to_vec();
        for at in 0..bytes.len() {
            let b = bytes[at];
            for v in [b ^ 0x01, b ^ 0x80, 0x00, 0xFF]
                .into_iter()
                .filter(|&v| v != b)
            {
                changed[at] = v;
                if let Ok(value) = decode(&changed) {
                    assert_eq!(encode(&value), changed, "byte {at} set to {v:#x}");
                }
            }
            changed[at] = b;
        }
    }

    #[test]
    fn trace_records_reject_or_represent_every_corruption() {
        let mut src = benchmark_by_name("mcf").unwrap().trace();
        let bytes = encode_trace(&TraceBuffer::capture(&mut src, 40));
        assert_eq!(bytes.len(), 4 + 30 * 40);
        assert_rejects_or_represents(&bytes, decode_trace, |v| encode_trace(v));
        // Trailing bytes and a zero count are corrupt too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_trace(&long).is_err());
        assert!(decode_trace(&[0; 4]).is_err());
    }

    #[test]
    fn model_records_reject_or_represent_every_corruption() {
        let timing = BadcoTiming::from_uncore(&experiment_uncore(2, PolicyKind::Lru));
        let trace = benchmark_by_name("mcf").unwrap().trace();
        let model = BadcoModel::build("mcf", &CoreConfig::ispass2013(), &trace, 60, timing);
        assert!(model.node_count() > 2 && model.requests_total() > 2);
        let bytes = encode_models(&[Arc::new(model)]);
        assert_rejects_or_represents(&bytes, decode_models, |v| encode_models(v));
        assert_rejects_or_represents(&record(&GOOD), decode_models, |v| encode_models(v));
    }

    #[test]
    fn corrupt_payloads_error_not_panic() {
        assert!(decode_population(b"junk").is_err());
        assert!(decode_perf_table(&[1, 2, 3]).is_err());
        assert!(decode_models(&[0xFF; 7]).is_err());
        assert!(decode_trace(&[9u8; 11]).is_err());
        // Valid prefix, truncated tail.
        let pop = Population::full(5, 2);
        let bytes = encode_population(&pop);
        assert!(decode_population(&bytes[..bytes.len() - 3]).is_err());
    }
}
