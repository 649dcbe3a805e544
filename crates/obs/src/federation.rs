//! Fleet telemetry federation: merging worker metric deltas into one view.
//!
//! A distributed run (see `docs/distributed.md`) shards grid cells across
//! worker processes, each with its own process-global instrument registry.
//! Workers periodically capture an [`InstrumentSnapshot`] of their local
//! counters / gauges / histograms / estimators, diff it against the
//! previous capture with [`delta_since`], and ship the resulting
//! [`TelemetryDelta`] to the coordinator as a `dist.telemetry` line-JSON
//! event (encoded by [`TelemetryDelta::to_fields`]). The coordinator folds
//! every delta into the process-global [`Federation`] registry, which the
//! live `/metrics` server renders as `mps_*{…,worker="<id>"}` series plus
//! `worker="fleet"` aggregates.
//!
//! # Merge contract
//!
//! Applying deltas must be **order-invariant across workers and
//! re-chunkings** (the obs proptests assert this):
//!
//! * **counters** — deltas are non-negative increments; federation sums
//!   them (associative, commutative);
//! * **gauges** — deltas carry the *absolute* value plus the worker's
//!   monotone sequence number; the highest-seq value wins per worker, so
//!   replays and reorderings of one worker's stream converge to its last
//!   reported level. The fleet aggregate is the per-worker sum;
//! * **histograms** — sparse bucket-count increments, summed bucket-wise
//!   ([`HistogramSnapshot::merge`] is associative and commutative);
//! * **estimators** — a delta is the Welford accumulation of *only the
//!   observations since the previous capture* (the un-merge of Chan's
//!   update, computed by [`delta_since`]); federation re-merges them with
//!   [`Moments::merge`], so counts are exact and moments match a single
//!   accumulator up to floating-point rounding.
//!
//! This module is feature-independent (like `jsonl` and `hist`): an
//! `obs`-less build can still parse and merge telemetry, it simply never
//! produces any.

use crate::hist::{HistogramSnapshot, BUCKETS};
use mps_stats::Moments;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A point-in-time capture of one process's instrument registry, the
/// input to [`delta_since`]. All vectors are sorted by name (the order
/// the registry snapshot functions already guarantee).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InstrumentSnapshot {
    /// `(name, total)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// Full bucket arrays per histogram.
    pub hists: Vec<HistogramSnapshot>,
    /// Raw Welford accumulators per estimator.
    pub estimators: Vec<(String, Moments)>,
}

/// One shipped chunk of a worker's telemetry stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryDelta {
    /// Worker id the chunk came from (the `dist.hello` id).
    pub worker: String,
    /// Monotone per-worker sequence number (1-based) — orders gauge
    /// levels; counters/histograms/estimators merge order-free.
    pub seq: u64,
    /// Counter increments since the previous capture (nonzero only).
    pub counters: Vec<(String, u64)>,
    /// Absolute gauge levels that changed since the previous capture.
    pub gauges: Vec<(String, i64)>,
    /// Sparse `(bucket, increment)` lists per histogram (nonzero only).
    pub hists: Vec<(String, Vec<(usize, u64)>)>,
    /// Welford accumulation of the observations since the previous
    /// capture, per estimator.
    pub estimators: Vec<(String, Moments)>,
}

/// Lowercase 16-digit hex of an `f64`'s bit pattern — the same lossless
/// float transport `dist.config` uses.
fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_unhex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

impl TelemetryDelta {
    /// True when the chunk carries no instrument changes (nothing worth
    /// shipping).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.estimators.is_empty()
    }

    /// Encodes the delta as `dist.telemetry` event fields:
    /// `worker`, `seq`, then `c.<name>` (decimal increment), `g.<name>`
    /// (decimal level), `h.<name>` (`bucket:count,…`), `e.<name>`
    /// (`count:<mean hex>:<m2 hex>`).
    #[must_use]
    pub fn to_fields(&self) -> Vec<(String, String)> {
        let mut out = Vec::with_capacity(
            2 + self.counters.len() + self.gauges.len() + self.hists.len() + self.estimators.len(),
        );
        out.push(("worker".to_owned(), self.worker.clone()));
        out.push(("seq".to_owned(), self.seq.to_string()));
        for (name, v) in &self.counters {
            out.push((format!("c.{name}"), v.to_string()));
        }
        for (name, v) in &self.gauges {
            out.push((format!("g.{name}"), v.to_string()));
        }
        for (name, buckets) in &self.hists {
            let sparse: Vec<String> = buckets.iter().map(|(i, c)| format!("{i}:{c}")).collect();
            out.push((format!("h.{name}"), sparse.join(",")));
        }
        for (name, m) in &self.estimators {
            out.push((
                format!("e.{name}"),
                format!("{}:{}:{}", m.count(), f64_hex(m.mean()), f64_hex(m.m2())),
            ));
        }
        out
    }

    /// Decodes event fields produced by [`Self::to_fields`]. Returns `None`
    /// when the required `worker`/`seq` fields are missing or any typed
    /// field is malformed — a garbled chunk is dropped whole rather than
    /// half-applied.
    #[must_use]
    pub fn from_fields(fields: &BTreeMap<String, String>) -> Option<TelemetryDelta> {
        let worker = fields.get("worker")?.clone();
        let seq = fields.get("seq")?.parse().ok()?;
        let mut d = TelemetryDelta {
            worker,
            seq,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            estimators: Vec::new(),
        };
        for (key, val) in fields {
            if let Some(name) = key.strip_prefix("c.") {
                d.counters.push((name.to_owned(), val.parse().ok()?));
            } else if let Some(name) = key.strip_prefix("g.") {
                d.gauges.push((name.to_owned(), val.parse().ok()?));
            } else if let Some(name) = key.strip_prefix("h.") {
                let mut sparse = Vec::new();
                for pair in val.split(',').filter(|p| !p.is_empty()) {
                    let (i, c) = pair.split_once(':')?;
                    let i: usize = i.parse().ok()?;
                    if i >= BUCKETS {
                        return None;
                    }
                    sparse.push((i, c.parse().ok()?));
                }
                d.hists.push((name.to_owned(), sparse));
            } else if let Some(name) = key.strip_prefix("e.") {
                let mut parts = val.splitn(3, ':');
                let count: u64 = parts.next()?.parse().ok()?;
                let mean = f64_unhex(parts.next()?)?;
                let m2 = f64_unhex(parts.next()?)?;
                d.estimators
                    .push((name.to_owned(), Moments::from_parts(count, mean, m2)));
            }
        }
        Some(d)
    }
}

/// Computes the telemetry chunk between two captures of the same
/// process's registry: counter/histogram increments, changed gauge
/// levels, and the Welford un-merge of each estimator (the accumulation
/// of exactly the observations made between `prev` and `cur`).
#[must_use]
pub fn delta_since(
    prev: &InstrumentSnapshot,
    cur: &InstrumentSnapshot,
    worker: &str,
    seq: u64,
) -> TelemetryDelta {
    let prev_counters: BTreeMap<&str, u64> = prev
        .counters
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    let counters = cur
        .counters
        .iter()
        .filter_map(|(n, v)| {
            let d = v.saturating_sub(prev_counters.get(n.as_str()).copied().unwrap_or(0));
            (d > 0).then(|| (n.clone(), d))
        })
        .collect();

    let prev_gauges: BTreeMap<&str, i64> =
        prev.gauges.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let gauges = cur
        .gauges
        .iter()
        .filter(|(n, v)| prev_gauges.get(n.as_str()) != Some(v))
        .cloned()
        .collect();

    let prev_hists: BTreeMap<&str, &HistogramSnapshot> =
        prev.hists.iter().map(|h| (h.name.as_str(), h)).collect();
    let hists = cur
        .hists
        .iter()
        .filter_map(|h| {
            let old = prev_hists.get(h.name.as_str());
            let sparse: Vec<(usize, u64)> = h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, &c)| {
                    let d = c.saturating_sub(old.map_or(0, |o| o.buckets[i]));
                    (d > 0).then_some((i, d))
                })
                .collect();
            (!sparse.is_empty()).then(|| (h.name.clone(), sparse))
        })
        .collect();

    let prev_est: BTreeMap<&str, Moments> = prev
        .estimators
        .iter()
        .map(|(n, m)| (n.as_str(), *m))
        .collect();
    let estimators = cur
        .estimators
        .iter()
        .filter_map(|(n, m)| moments_delta(prev_est.get(n.as_str()), m).map(|d| (n.clone(), d)))
        .collect();

    TelemetryDelta {
        worker: worker.to_owned(),
        seq,
        counters,
        gauges,
        hists,
        estimators,
    }
}

/// Inverts Chan's merge: the accumulation of the observations `cur` saw
/// after `prev`. `None` when nothing was observed in between (or the
/// count went backwards, which a live registry never does).
fn moments_delta(prev: Option<&Moments>, cur: &Moments) -> Option<Moments> {
    let (n1, mean1, m21) = match prev {
        Some(p) if p.count() > 0 => (p.count(), p.mean(), p.m2()),
        _ => return (cur.count() > 0).then_some(*cur),
    };
    let n2 = cur.count().checked_sub(n1)?;
    if n2 == 0 {
        return None;
    }
    let total = cur.count() as f64;
    let mean2 = (total * cur.mean() - n1 as f64 * mean1) / n2 as f64;
    let delta = mean2 - mean1;
    let m22 = cur.m2() - m21 - delta * delta * (n1 as f64) * (n2 as f64) / total;
    Some(Moments::from_parts(n2, mean2, m22))
}

/// Telemetry folded in from one worker.
#[derive(Debug, Clone, Default)]
struct WorkerTelemetry {
    counters: BTreeMap<String, u64>,
    /// `name → (last applied seq, level)`.
    gauges: BTreeMap<String, (u64, i64)>,
    hists: BTreeMap<String, [u64; BUCKETS]>,
    estimators: BTreeMap<String, Moments>,
}

/// The coordinator-side registry of federated worker telemetry.
#[derive(Debug, Clone, Default)]
pub struct Federation {
    workers: BTreeMap<String, WorkerTelemetry>,
}

impl Federation {
    /// An empty federation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no worker has reported anything yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Worker ids that have reported, sorted.
    #[must_use]
    pub fn worker_ids(&self) -> Vec<String> {
        self.workers.keys().cloned().collect()
    }

    /// Folds one shipped chunk into the federated view (see the module
    /// docs for the per-instrument merge contract).
    pub fn apply(&mut self, d: &TelemetryDelta) {
        let w = self.workers.entry(d.worker.clone()).or_default();
        for (name, inc) in &d.counters {
            *w.counters.entry(name.clone()).or_insert(0) += inc;
        }
        for (name, level) in &d.gauges {
            let entry = w.gauges.entry(name.clone()).or_insert((0, 0));
            if d.seq >= entry.0 {
                *entry = (d.seq, *level);
            }
        }
        for (name, sparse) in &d.hists {
            let buckets = w.hists.entry(name.clone()).or_insert([0; BUCKETS]);
            for &(i, c) in sparse {
                buckets[i] = buckets[i].saturating_add(c);
            }
        }
        for (name, m) in &d.estimators {
            w.estimators.entry(name.clone()).or_default().merge(m);
        }
    }

    /// The federated instruments of one worker, sorted by name.
    #[must_use]
    pub fn worker_snapshot(&self, worker: &str) -> Option<InstrumentSnapshot> {
        self.workers.get(worker).map(|w| InstrumentSnapshot {
            counters: w.counters.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            gauges: w.gauges.iter().map(|(n, (_, v))| (n.clone(), *v)).collect(),
            hists: w
                .hists
                .iter()
                .map(|(n, b)| HistogramSnapshot {
                    name: n.clone(),
                    buckets: *b,
                })
                .collect(),
            estimators: w.estimators.iter().map(|(n, m)| (n.clone(), *m)).collect(),
        })
    }

    /// Fleet-wide aggregate across all workers: counters and gauges
    /// summed, histogram buckets added, estimators merged.
    #[must_use]
    pub fn fleet_snapshot(&self) -> InstrumentSnapshot {
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<&str, i64> = BTreeMap::new();
        let mut hists: BTreeMap<&str, [u64; BUCKETS]> = BTreeMap::new();
        let mut estimators: BTreeMap<&str, Moments> = BTreeMap::new();
        for w in self.workers.values() {
            for (n, v) in &w.counters {
                *counters.entry(n).or_insert(0) += v;
            }
            for (n, (_, v)) in &w.gauges {
                *gauges.entry(n).or_insert(0) += v;
            }
            for (n, b) in &w.hists {
                let acc = hists.entry(n).or_insert([0; BUCKETS]);
                for (a, c) in acc.iter_mut().zip(b.iter()) {
                    *a = a.saturating_add(*c);
                }
            }
            for (n, m) in &w.estimators {
                estimators.entry(n).or_default().merge(m);
            }
        }
        InstrumentSnapshot {
            counters: counters
                .into_iter()
                .map(|(n, v)| (n.to_owned(), v))
                .collect(),
            gauges: gauges.into_iter().map(|(n, v)| (n.to_owned(), v)).collect(),
            hists: hists
                .into_iter()
                .map(|(n, b)| HistogramSnapshot {
                    name: n.to_owned(),
                    buckets: b,
                })
                .collect(),
            estimators: estimators
                .into_iter()
                .map(|(n, m)| (n.to_owned(), m))
                .collect(),
        }
    }
}

/// The process-global federation the coordinator folds worker telemetry
/// into and the `/metrics` renderer reads.
pub fn global() -> MutexGuard<'static, Federation> {
    static GLOBAL: OnceLock<Mutex<Federation>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| Mutex::new(Federation::new()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Clears the process-global federation (tests and registry resets).
pub fn reset_global() {
    *global() = Federation::new();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(
        counters: &[(&str, u64)],
        gauges: &[(&str, i64)],
        hist_values: &[(&str, &[u64])],
        est_values: &[(&str, &[f64])],
    ) -> InstrumentSnapshot {
        InstrumentSnapshot {
            counters: counters.iter().map(|&(n, v)| (n.to_owned(), v)).collect(),
            gauges: gauges.iter().map(|&(n, v)| (n.to_owned(), v)).collect(),
            hists: hist_values
                .iter()
                .map(|&(n, vals)| {
                    let mut h = HistogramSnapshot::new(n);
                    for &v in vals {
                        h.record(v);
                    }
                    h
                })
                .collect(),
            estimators: est_values
                .iter()
                .map(|&(n, vals)| (n.to_owned(), vals.iter().collect()))
                .collect(),
        }
    }

    #[test]
    fn delta_fields_round_trip() {
        let prev = snap(&[("a", 2)], &[("g", 1)], &[("h", &[5])], &[("e", &[1.0])]);
        let cur = snap(
            &[("a", 7), ("b", 3)],
            &[("g", -4)],
            &[("h", &[5, 5, 900])],
            &[("e", &[1.0, 2.0, 6.0])],
        );
        let d = delta_since(&prev, &cur, "w1", 3);
        assert_eq!(d.counters, vec![("a".to_owned(), 5), ("b".to_owned(), 3)]);
        assert_eq!(d.gauges, vec![("g".to_owned(), -4)]);
        assert_eq!(d.hists.len(), 1);
        assert_eq!(d.estimators.len(), 1);

        let fields: BTreeMap<String, String> = d.to_fields().into_iter().collect();
        let back = TelemetryDelta::from_fields(&fields).expect("round trip");
        assert_eq!(back, d);
    }

    #[test]
    fn empty_delta_when_nothing_changed() {
        let s = snap(&[("a", 2)], &[("g", 1)], &[("h", &[5])], &[("e", &[1.0])]);
        let d = delta_since(&s, &s, "w1", 1);
        assert!(d.is_empty());
    }

    #[test]
    fn estimator_unmerge_recovers_the_increment() {
        let all: &[f64] = &[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let prev = snap(&[], &[], &[], &[("e", &all[..3])]);
        let cur = snap(&[], &[], &[], &[("e", all)]);
        let d = delta_since(&prev, &cur, "w", 1);
        let (_, got) = &d.estimators[0];
        let expect: Moments = all[3..].iter().collect();
        assert_eq!(got.count(), expect.count());
        assert!((got.mean() - expect.mean()).abs() < 1e-9);
        assert!((got.m2() - expect.m2()).abs() < 1e-9);
    }

    #[test]
    fn apply_federates_per_worker_and_fleet() {
        let mut f = Federation::new();
        let before = snap(&[], &[], &[], &[]);
        let w1 = snap(
            &[("c", 4)],
            &[("g", 2)],
            &[("h", &[10])],
            &[("e", &[1.0, 3.0])],
        );
        let w2 = snap(&[("c", 6)], &[("g", 5)], &[("h", &[900])], &[("e", &[5.0])]);
        f.apply(&delta_since(&before, &w1, "w1", 1));
        f.apply(&delta_since(&before, &w2, "w2", 1));
        assert_eq!(f.worker_ids(), vec!["w1".to_owned(), "w2".to_owned()]);
        let fleet = f.fleet_snapshot();
        assert_eq!(fleet.counters, vec![("c".to_owned(), 10)]);
        assert_eq!(fleet.gauges, vec![("g".to_owned(), 7)]);
        assert_eq!(fleet.hists[0].count(), 2);
        let (_, m) = &fleet.estimators[0];
        assert_eq!(m.count(), 3);
        assert!((m.mean() - 3.0).abs() < 1e-12);
        let w1v = f.worker_snapshot("w1").expect("w1 present");
        assert_eq!(w1v.counters, vec![("c".to_owned(), 4)]);
        assert!(f.worker_snapshot("nope").is_none());
    }

    #[test]
    fn gauges_converge_to_highest_seq_in_any_order() {
        let base = snap(&[], &[], &[], &[]);
        let at = |v: i64| snap(&[], &[("g", v)], &[], &[]);
        let d1 = delta_since(&base, &at(10), "w", 1);
        let d2 = delta_since(&at(10), &at(20), "w", 2);
        let d3 = delta_since(&at(20), &at(15), "w", 3);
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let mut f = Federation::new();
            for i in order {
                f.apply([&d1, &d2, &d3][i]);
            }
            assert_eq!(f.fleet_snapshot().gauges, vec![("g".to_owned(), 15)]);
        }
    }

    #[test]
    fn garbled_fields_are_rejected_whole() {
        let mut fields = BTreeMap::new();
        fields.insert("worker".to_owned(), "w".to_owned());
        fields.insert("seq".to_owned(), "1".to_owned());
        fields.insert("c.ok".to_owned(), "5".to_owned());
        fields.insert("h.bad".to_owned(), "99999:1".to_owned());
        assert!(TelemetryDelta::from_fields(&fields).is_none());
        fields.remove("h.bad");
        assert!(TelemetryDelta::from_fields(&fields).is_some());
        fields.remove("seq");
        assert!(TelemetryDelta::from_fields(&fields).is_none());
    }

    #[test]
    fn global_reset_clears_state() {
        {
            let mut g = global();
            g.apply(&TelemetryDelta {
                worker: "w".to_owned(),
                seq: 1,
                counters: vec![("c".to_owned(), 1)],
                gauges: vec![],
                hists: vec![],
                estimators: vec![],
            });
            assert!(!g.is_empty());
        }
        reset_global();
        assert!(global().is_empty());
    }
}
