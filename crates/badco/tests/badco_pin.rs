//! Bit-exact pins of the BADCO simulator's observable behaviour.
//!
//! Each case folds every [`BadcoSimResult`] field except `wall_seconds`
//! (or, for the restart case, every step of a bare [`BadcoMachine`]) into
//! a 64-bit digest and compares it with a constant recorded from the
//! simulator. Any change to node timing, lookahead issue order, the
//! outstanding-request cap or the uncore traffic moves a digest, so a
//! refactor of the machine or the model layout that claims to be
//! cycle-identical must leave every constant in place. A deliberate
//! behaviour change re-records them and says why.

use mps_badco::{BadcoMachine, BadcoModel, BadcoMulticoreSim, BadcoSimResult, BadcoTiming};
use mps_sim_cpu::CoreConfig;
use mps_uncore::{PolicyKind, Uncore, UncoreConfig, UncoreStats};
use mps_workloads::{benchmark_by_name, suite};
use std::collections::HashMap;
use std::sync::Arc;

/// µops per model (one pass; the measurement target of every thread).
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

    fn uncore_stats(&mut self, u: &UncoreStats) {
        self.words([
            u.requests,
            u.llc_hits,
            u.llc_misses,
            u.mshr_merges,
            u.mshr_stall_cycles,
            u.wb_stall_cycles,
            u.prefetches,
        ]);
    }
}

fn digest(r: &BadcoSimResult) -> u64 {
    let mut d = Digest::new();
    d.words(r.ipc.iter().map(|x| x.to_bits()));
    d.words(r.finish_cycles.iter().copied());
    d.words([r.total_cycles, r.instructions]);
    d.uncore_stats(&r.uncore_stats);
    d.words(r.llc_misses_per_core.iter().copied());
    d.0
}

/// Models trained with the scaled Table II timing of one core count,
/// built once per benchmark.
struct Models {
    cores: usize,
    built: HashMap<String, Arc<BadcoModel>>,
}

impl Models {
    fn new(cores: usize) -> Self {
        Models {
            cores,
            built: HashMap::new(),
        }
    }

    fn get(&mut self, name: &str) -> Arc<BadcoModel> {
        let cores = self.cores;
        Arc::clone(self.built.entry(name.to_owned()).or_insert_with(|| {
            let timing = BadcoTiming::from_uncore(&scaled(cores, PolicyKind::Lru));
            let trace = benchmark_by_name(name).expect("suite benchmark").trace();
            Arc::new(BadcoModel::build(
                name,
                &CoreConfig::ispass2013(),
                &trace,
                N,
                timing,
            ))
        }))
    }
}

/// The capacity-scaled Table II uncore the experiments use.
fn scaled(cores: usize, policy: PolicyKind) -> UncoreConfig {
    UncoreConfig::ispass2013_scaled(cores, policy, 16)
}

/// One `BadcoMulticoreSim::run` of `models` on the scaled Table II uncore
/// of `cores` under `policy`, or on a 16 kB LLC where the policy decides
/// most victims.
fn run(cores: usize, policy: PolicyKind, tiny_llc: bool, models: Vec<Arc<BadcoModel>>) -> u64 {
    let cfg = if tiny_llc {
        UncoreConfig::tiny_for_tests(policy)
    } else {
        scaled(cores, policy)
    };
    let n = models.len();
    digest(&BadcoMulticoreSim::new(Uncore::new(cfg, n), models).run())
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
    assert!(bad.is_empty(), "BADCO digests moved:\n{}", bad.join("\n"));
}

#[test]
fn every_benchmark_solo_is_pinned() {
    let mut models = Models::new(2);
    let cases: Vec<(String, u64)> = suite()
        .iter()
        .map(|b| {
            let m = models.get(b.name());
            (b.name().to_owned(), run(2, PolicyKind::Lru, false, vec![m]))
        })
        .collect();
    check(
        &cases,
        &[
            0x04a9edefd9f94ee7,
            0x8a1edb716fb22cc2,
            0x758dc274332b270c,
            0xef0e448597d051ce,
            0x10b82f2fbb3c556c,
            0x445cfc6f02dd8222,
            0xd045be8ecc208f8c,
            0x9d4f117b77564e4d,
            0x4b9da40754a9821a,
            0xd103139e2ef08566,
            0x25bb7bb6ab9e714d,
            0xcc0f224177093ae2,
            0x6ad5ded1d7a50687,
            0x48f036211054ffdb,
            0xa706f78007057cfa,
            0xf5c66837dfef9258,
            0x980906a9a1e3b82f,
            0x0356ce3b4291ac68,
            0xa597eb90aedf2905,
            0x85e176a60e50dda2,
            0x2f6044498c61774f,
            0xc88501d6da1227c3,
        ],
    );
}

#[test]
fn shared_llc_mixes_are_pinned() {
    let mixes: [&[&str]; 8] = [
        &["cactusADM", "mcf"],
        &["gcc", "soplex"],
        &["povray", "libquantum"],
        &["omnetpp", "omnetpp"],
        &["mcf", "libquantum", "gcc", "povray"],
        &["soplex", "bzip2", "zeusmp", "hmmer"],
        &[
            "mcf",
            "libquantum",
            "gcc",
            "povray",
            "soplex",
            "bzip2",
            "zeusmp",
            "hmmer",
        ],
        &[
            "astar", "omnetpp", "milc", "bwaves", "leslie3d", "astar", "gobmk", "namd",
        ],
    ];
    let mut sets: HashMap<usize, Models> = HashMap::new();
    let mut cases = Vec::new();
    for tiny_llc in [false, true] {
        for policy in PolicyKind::PAPER_POLICIES {
            for names in mixes {
                let cores = names.len();
                let set = sets.entry(cores).or_insert_with(|| Models::new(cores));
                let bound = names.iter().map(|n| set.get(n)).collect();
                let label = format!("{policy} tiny_llc={tiny_llc} {names:?}");
                cases.push((label, run(cores, policy, tiny_llc, bound)));
            }
        }
    }
    check(
        &cases,
        &[
            0x92ee562fc4857d3c,
            0xf718e0aba6a4cf00,
            0x1c8fde53c7b694c8,
            0x7f7c10f0fbaab449,
            0xf62440e9ada5642c,
            0x0d5c633bb334a91f,
            0x0daa79bfc1df0b8e,
            0x65381fcc65c62124,
            0x2c04f9af7edce8bd,
            0xeea1bd12edd6fb84,
            0x1c8fde53c7b694c8,
            0x3bbb1f18bacd2769,
            0xf62440e9ada5642c,
            0x5d36cc3c9416e340,
            0x1402689c3aa0b6ec,
            0xb3696a1b9b7b3e76,
            0x92ee562fc4857d3c,
            0xf718e0aba6a4cf00,
            0x1c8fde53c7b694c8,
            0x60871433eb56ddf7,
            0xf62440e9ada5642c,
            0x67a1f8a98b1d991c,
            0x0daa79bfc1df0b8e,
            0x65381fcc65c62124,
            0xfecb6fb00f71a71b,
            0x0f9dc8913b1e7f6e,
            0x1c8fde53c7b694c8,
            0x6c2f1ec5c7fd06a0,
            0xf62440e9ada5642c,
            0x0d5c633bb334a91f,
            0x0daa79bfc1df0b8e,
            0x929fae03e5bd6b82,
            0x92ee562fc4857d3c,
            0xf718e0aba6a4cf00,
            0x1c8fde53c7b694c8,
            0x37dfe0613ac87f91,
            0xf62440e9ada5642c,
            0x67a1f8a98b1d991c,
            0x0daa79bfc1df0b8e,
            0xc2df25c19a1ff2f3,
            0xb805e1f95a951bb1,
            0xebcfd0d3ae8bdeae,
            0x0042edfd75a9ff40,
            0xb782aa9c293f8f5e,
            0xb0a5b6d49dad5749,
            0xc52ce06beee252f7,
            0x2bc353742ca3861d,
            0xb99fb2be369a002b,
            0x1df5ca001e47bce1,
            0xab01ac6a00331f52,
            0x5bb8e1d08c3b6363,
            0xc8b74c9586350d4b,
            0x81be9349175611fb,
            0x34af826ecb97a479,
            0xfe68fe4e1c397371,
            0x87712afc905806be,
            0xb805e1f95a951bb1,
            0xebcfd0d3ae8bdeae,
            0x0042edfd75a9ff40,
            0xb782aa9c293f8f5e,
            0x75f26c989a33c126,
            0xd52ef254a8e9ced9,
            0x79096d121773fe3f,
            0xd0f6b4f627911872,
            0x83f2b3dfd8424fa3,
            0x2687148a35dddcab,
            0xe9493b9fd32d73cf,
            0xbeb57fb6ddceec24,
            0x85f2a3098d226d7f,
            0x941b548d3a450ff4,
            0x6b4b9852b5627230,
            0xad57230d9172d0a6,
            0x15b639790711bed9,
            0x81d3ddb4c4fe3316,
            0x0f6e3ff9565d856e,
            0x50a0adc5cba134f4,
            0xc2ac274dfa83651b,
            0x387492ac794764a5,
            0xd0fe9e440501bbfd,
            0x320a7b157be12dac,
        ],
    );
}

#[test]
fn restart_path_is_pinned() {
    // A target of two passes makes every machine wrap to node 0 with
    // fresh request state at least once.
    let mut models = Models::new(2);
    let mut cases = Vec::new();
    for name in ["mcf", "libquantum", "hmmer", "omnetpp"] {
        let m = models.get(name);
        let target = 2 * m.uops_total();
        let mut uncore = Uncore::new(scaled(2, PolicyKind::Drrip), 1);
        let mut machine = BadcoMachine::new(m, 0, target);
        let mut d = Digest::new();
        while !machine.done() {
            d.words([machine.step(&mut uncore)]);
        }
        d.words([machine.finish_cycle().unwrap(), machine.committed()]);
        d.uncore_stats(&uncore.stats());
        d.words([uncore.core_misses(0)]);
        cases.push((format!("{name} x2"), d.0));
    }
    check(
        &cases,
        &[
            0x430fa13813c31210,
            0xce560954be63b6b1,
            0xe8b0057d4cffee85,
            0x97c52c2c642ae94d,
        ],
    );
}

#[test]
fn perturbed_model_is_pinned() {
    let mut models = Models::new(2);
    let half = |m: Arc<BadcoModel>| Arc::new(m.perturbed(0.5));
    let mut cases = Vec::new();
    for name in ["mcf", "soplex", "gcc"] {
        let m = half(models.get(name));
        cases.push((
            format!("{name} solo"),
            run(2, PolicyKind::Lru, false, vec![m]),
        ));
    }
    let pair = vec![half(models.get("mcf")), half(models.get("soplex"))];
    cases.push((
        "mcf+soplex".to_owned(),
        run(2, PolicyKind::Drrip, true, pair),
    ));
    check(
        &cases,
        &[
            0xca3fa535b7705841,
            0x9a0b42cd09d32560,
            0x781dab35a1a79280,
            0xd09dce964f7fe59a,
        ],
    );
}
