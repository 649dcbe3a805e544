//! A table built after other policies' tables on one context is bitwise
//! the table built alone on a fresh one. Whatever a context reuses
//! between the tables of different replacement policies, each row must
//! stay the row its own policy's run gives.

use mps_harness::persist::encode_perf_table;
use mps_harness::{Scale, StudyContext};
use mps_metrics::PerfTable;
use mps_sampling::Workload;
use mps_uncore::PolicyKind;

fn context() -> StudyContext {
    StudyContext::builder()
        .scale(Scale::test())
        .jobs(2)
        .build()
        .expect("an in-memory context")
}

/// The table's bytes as the store would record them: every IPC and
/// reference IPC as its bit pattern.
fn bits(t: &PerfTable) -> Vec<u8> {
    encode_perf_table(t)
}

/// `policies` rotated to start at index `k`.
fn rotated(policies: &[PolicyKind], k: usize) -> Vec<PolicyKind> {
    policies[k..]
        .iter()
        .chain(&policies[..k])
        .copied()
        .collect()
}

/// Builds the `cores`-core BADCO table of every policy in `order` on
/// `ctx`, in that order.
fn badco_tables(ctx: &StudyContext, cores: usize, order: &[PolicyKind]) -> Vec<Vec<u8>> {
    order
        .iter()
        .map(|&p| bits(&ctx.badco_table(cores, p).expect("badco table")))
        .collect()
}

#[test]
fn badco_tables_do_not_depend_on_the_tables_built_before() {
    use PolicyKind::{Dip, Drrip, Fifo, Lru, Random};
    let paper = PolicyKind::PAPER_POLICIES;
    // Each of the five contexts builds the 4-core tables in a rotated
    // order, so every policy is built once first, alone, and once last,
    // after every other policy. The first two contexts do the same for
    // fig3's 2-core DIP and DRRIP tables.
    let two_core = [
        [Dip, Lru, Random, Fifo, Drrip],
        [Drrip, Lru, Random, Fifo, Dip],
    ];
    // `(cores, policy, table bits)` of each context's first and last table.
    let mut alone = Vec::new();
    let mut after = Vec::new();
    for k in 0..paper.len() {
        let ctx = context();
        let mut orders = vec![(4, rotated(&paper, k))];
        if let Some(order) = two_core.get(k) {
            orders.push((2, order.to_vec()));
        }
        for (cores, order) in orders {
            let mut built = badco_tables(&ctx, cores, &order);
            after.push((cores, order[4], built.pop().expect("five tables")));
            alone.push((cores, order[0], built.swap_remove(0)));
        }
    }
    assert_eq!(alone.len(), paper.len() + two_core.len());
    for (cores, p, table) in &alone {
        let (.., last) = after
            .iter()
            .find(|(c, q, _)| c == cores && q == p)
            .expect("every first policy is also built last");
        assert!(
            table == last,
            "{cores}-core {p} table depends on build order"
        );
    }
}

#[test]
fn detailed_tables_do_not_depend_on_the_tables_built_before() {
    // Every 16th 2-core workload: the list holds both runs whose LLC
    // evicts and runs whose LLC never does at this scale.
    let workloads: Vec<Workload> = context()
        .population(2)
        .expect("2-core population")
        .workloads()
        .iter()
        .step_by(16)
        .cloned()
        .collect();
    let build = |order: [PolicyKind; 2]| {
        let ctx = context();
        order.map(|p| {
            bits(
                &ctx.detailed_table(2, p, &workloads)
                    .expect("detailed table"),
            )
        })
    };
    let [lru_alone, dip_after] = build([PolicyKind::Lru, PolicyKind::Dip]);
    let [dip_alone, lru_after] = build([PolicyKind::Dip, PolicyKind::Lru]);
    assert!(lru_alone == lru_after, "LRU table depends on build order");
    assert!(dip_alone == dip_after, "DIP table depends on build order");
}
