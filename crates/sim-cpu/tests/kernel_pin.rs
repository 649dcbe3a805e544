//! Bit-exact pins of the detailed kernel's observable behaviour.
//!
//! Each case folds every [`SimResult`] field except `wall_seconds` (or,
//! for the training case, a whole [`record_run`] recording) into a 64-bit
//! digest and compares it with a constant recorded from the simulator.
//! Any change to issue timing, memory ordering or statistics moves a
//! digest, so a refactor of the core or the uncore that claims to be
//! timing-identical must leave every constant in place. A deliberate
//! behaviour change re-records them and says why.

use mps_sim_cpu::{
    record_run, Core, CoreConfig, CoreStats, FixedLatencyBackend, MulticoreSim, SimResult,
};
use mps_uncore::{PolicyKind, Uncore, UncoreConfig};
use mps_workloads::{benchmark_by_name, suite, TraceSource};

/// Instructions per thread in every case.
const N: u64 = 2_000;

/// FNV-1a over little-endian 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn words(&mut self, xs: impl IntoIterator<Item = u64>) {
        for x in xs {
            for b in x.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn core_stats(&mut self, s: &CoreStats) {
        self.words([
            s.committed,
            s.branches,
            s.mispredicts,
            s.dl1_accesses,
            s.dl1_misses,
            s.il1_accesses,
            s.il1_misses,
            s.dtlb_misses,
            s.itlb_misses,
        ]);
    }
}

fn digest(r: &SimResult) -> u64 {
    let mut d = Digest::new();
    d.words(r.ipc.iter().map(|x| x.to_bits()));
    d.words(r.finish_cycles.iter().copied());
    d.words([r.total_cycles, r.instructions]);
    for s in &r.core_stats {
        d.core_stats(s);
    }
    d.words(r.llc_misses_per_core.iter().copied());
    d.words(r.llc_prefetches_per_core.iter().copied());
    d.words(r.midpoint_traffic.iter().flat_map(|&(t, i)| [t, i]));
    d.words(r.finish_traffic.iter().flat_map(|&(t, i)| [t, i]));
    let u = r.uncore_stats;
    d.words([
        u.requests,
        u.llc_hits,
        u.llc_misses,
        u.mshr_merges,
        u.mshr_stall_cycles,
        u.wb_stall_cycles,
        u.prefetches,
    ]);
    d.0
}

fn trace(name: &str) -> Box<dyn TraceSource> {
    Box::new(benchmark_by_name(name).expect("suite benchmark").trace())
}

/// One `MulticoreSim::run` of `names` on the Table II uncore under
/// `policy`, or on a 16 kB LLC where the policy decides most victims.
fn run(policy: PolicyKind, tiny_llc: bool, names: &[&str]) -> SimResult {
    let cores = names.len();
    let cfg = if tiny_llc {
        UncoreConfig::tiny_for_tests(policy)
    } else {
        UncoreConfig::ispass2013(cores.max(2), policy)
    };
    let traces = names.iter().map(|n| trace(n)).collect();
    MulticoreSim::new(CoreConfig::ispass2013(), Uncore::new(cfg, cores), traces).run(N)
}

/// Compares every `(label, got)` with its recorded digest and reports all
/// mismatches at once.
fn check(cases: &[(String, u64)], want: &[u64]) {
    assert_eq!(cases.len(), want.len(), "one recorded digest per case");
    let bad: Vec<String> = cases
        .iter()
        .zip(want)
        .filter(|((_, got), want)| got != *want)
        .map(|((label, got), want)| format!("{label}: got {got:#018x}, want {want:#018x}"))
        .collect();
    assert!(bad.is_empty(), "kernel digests moved:\n{}", bad.join("\n"));
}

#[test]
fn every_benchmark_solo_is_pinned() {
    let cases: Vec<(String, u64)> = suite()
        .iter()
        .map(|b| {
            (
                b.name().to_owned(),
                digest(&run(PolicyKind::Lru, false, &[b.name()])),
            )
        })
        .collect();
    check(
        &cases,
        &[
            0x56ddb790d4554b4b,
            0x6263577514f049f5,
            0x98e9011715d968b4,
            0xf684ee501392ff8e,
            0x559a9b2e136cd8f9,
            0x9ea69d2d4ffe06d0,
            0x86ea99817fa5dfe2,
            0x88f69a2a8a7e5091,
            0xfcd5d31bfa5037dd,
            0x9454cc6fea6c2b0a,
            0x411898c479a12c45,
            0x6172acf26787443e,
            0xba08447dcddcad98,
            0x56e3d2245dd7a7aa,
            0x527de4accbe858fb,
            0x0fa000a822c0b8da,
            0xbabfd4045b32a53c,
            0x8e5db9d2e35bd92e,
            0x944f412a4e05d365,
            0x81af6e3818e16c4c,
            0x472709ea233ee548,
            0x02887fe4e714929c,
        ],
    );
}

#[test]
fn shared_llc_mixes_are_pinned() {
    let mixes: [&[&str]; 8] = [
        &["cactusADM", "mcf"],
        &["gcc", "mcf"],
        &["povray", "libquantum"],
        &["soplex", "milc"],
        &["bwaves", "leslie3d"],
        &["astar", "omnetpp"],
        &["mcf", "libquantum", "gcc", "povray"],
        &["soplex", "bzip2", "zeusmp", "hmmer"],
    ];
    // At this length the Table II LLC is mostly cold, so LRU and DRRIP
    // can coincide there; the 16 kB LLC makes them differ.
    let mut cases = Vec::new();
    for tiny_llc in [false, true] {
        for policy in [PolicyKind::Lru, PolicyKind::Drrip] {
            for names in mixes {
                let label = format!("{policy} tiny_llc={tiny_llc} {names:?}");
                cases.push((label, digest(&run(policy, tiny_llc, names))));
            }
        }
    }
    check(
        &cases,
        &[
            0x7e50b670f63b4484,
            0xc50bdae45df61cbc,
            0x7f3e5b9d4dfbac84,
            0xdd61b78ed1d755bc,
            0x85770abe154790f1,
            0x67813fb732d6aada,
            0x1a8ef597f7baa2fb,
            0x8fb1a1db2a8a5db5,
            0x7e50b670f63b4484,
            0xc50bdae45df61cbc,
            0x7f3e5b9d4dfbac84,
            0xdd61b78ed1d755bc,
            0x85770abe154790f1,
            0x67813fb732d6aada,
            0x1a8ef597f7baa2fb,
            0x8fb1a1db2a8a5db5,
            0x8741fd34119ce70c,
            0xcab232845dc0f49b,
            0xf25bb223220e97ae,
            0x909a2fa1f7178f6d,
            0x08a17faa589c40b1,
            0xd732341da0cfcdf9,
            0x635721d670c0fbe4,
            0xed631202bc263b95,
            0x2e6412756cc25934,
            0x7119ce6cbbd03de2,
            0x5f94651346b6bd3f,
            0xdc8e28211bb0cb0c,
            0xe2bacbc38ba9dda4,
            0x2bc1fd3e519264c2,
            0x56bdf711b4c9aab7,
            0x060c803959618cd0,
        ],
    );
}

#[test]
fn training_recording_is_pinned() {
    let mut backend = FixedLatencyBackend::pessimal(6, 30, 200);
    let (rec, stats) = record_run(CoreConfig::ispass2013(), trace("mcf"), N, &mut backend);
    let mut d = Digest::new();
    d.words(rec.commit_cycles.iter().copied());
    d.words(rec.requests.iter().flat_map(|r| {
        [
            r.uop_index,
            r.addr,
            u64::from(r.write),
            u64::from(r.instruction),
        ]
    }));
    d.core_stats(&stats);
    check(&[("mcf recording".to_owned(), d.0)], &[0x040c8bfc9e114996]);
}

#[test]
fn far_future_wakeups_are_pinned() {
    // A 5000-cycle memory latency puts a miss's dependents further ahead
    // than any wake-up structure sized for DRAM latencies looks.
    let mut backend = FixedLatencyBackend::new(5000);
    let (rec, stats) = record_run(CoreConfig::ispass2013(), trace("mcf"), N, &mut backend);
    let mut d = Digest::new();
    d.words(rec.commit_cycles.iter().copied());
    d.words(rec.requests.iter().flat_map(|r| {
        [
            r.uop_index,
            r.addr,
            u64::from(r.write),
            u64::from(r.instruction),
        ]
    }));
    d.core_stats(&stats);
    d.words([backend.requests()]);
    check(
        &[("mcf at latency 5000".to_owned(), d.0)],
        &[0xdefcf9197c6fc011],
    );
}

#[test]
fn non_default_core_geometries_are_pinned() {
    // Narrow issue with one memory port, a ROB that is not a power of
    // two, and a window larger than the ROB: each exercises a different
    // edge of the select rules.
    let narrow = CoreConfig {
        issue_width: 2,
        mem_ports: 1,
        rs_entries: 12,
        rob_entries: 100,
        ..CoreConfig::ispass2013()
    };
    let window_over_rob = CoreConfig {
        rs_entries: 64,
        rob_entries: 48,
        ..CoreConfig::ispass2013()
    };
    let mut cases = Vec::new();
    for (tag, cfg) in [("narrow", narrow), ("window>rob", window_over_rob)] {
        for name in ["gcc", "mcf", "povray"] {
            let mut core = Core::new(cfg.clone(), 0, trace(name), N);
            let mut backend = FixedLatencyBackend::new(60);
            let mut cycle = 0;
            while !core.done() {
                core.tick(cycle, &mut backend);
                cycle += 1;
            }
            let mut d = Digest::new();
            d.words([core.finish_cycle().unwrap(), core.committed(), cycle]);
            d.core_stats(&core.stats());
            cases.push((format!("{tag} {name}"), d.0));
        }
    }
    check(
        &cases,
        &[
            0x7efafae6c4969cac,
            0xbeebfaeefb0621c2,
            0x9de1b22fb4a03df4,
            0x649e5fe9feb72d36,
            0xe5f1342a8d7ac622,
            0x3d517494b7ac8c3a,
        ],
    );
}
