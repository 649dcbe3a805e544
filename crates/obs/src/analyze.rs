//! Offline trace analysis: turn a `--trace` JSONL file into answers.
//!
//! Three consumers, all pure functions over parsed [`Record`]s (so they
//! compile and run regardless of the `obs` feature — a trace produced by
//! an instrumented build is analyzable by any build):
//!
//! * [`summarize`] — a span-*tree* summary: spans aggregated by their
//!   name-path (root;child;…), with **inclusive** wall time (the span's
//!   own duration) and **exclusive** wall time (inclusive minus the
//!   inclusive time of direct children), plus event tallies and the
//!   trace-wide counter totals;
//! * [`TraceSummary::folded`] — folded-stack output (`a;b;c 1234` lines,
//!   exclusive µs per path) ready for `flamegraph.pl` / speedscope;
//! * [`diff`] — cross-run comparison of two summaries: per-span-name
//!   wall-time deltas and counter-delta regressions, with a configurable
//!   regression threshold backing the CLI's `--fail-on-regress` exit
//!   code.
//!
//! # What counts as a regression
//!
//! *Wall time*: a span name whose total inclusive time grew by more than
//! the threshold percentage — ignored for spans under
//! [`MIN_REGRESS_WALL_US`] total (timer noise dominates below that).
//! *Counters*: any trace-wide counter total that grew by more than the
//! threshold. Counters under the `par.` prefix are reported but never
//! classified as regressions by default: they describe *scheduling*
//! (steals, worker counts), which legitimately varies with `--jobs`,
//! while the determinism contract holds for every other counter — this
//! is exactly the carve-out `docs/observability.md` documents for the
//! thread-invariance suite.

use crate::jsonl::Record;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Wall-time regressions are only judged for span names with at least
/// this much total inclusive time (µs) in the baseline.
pub const MIN_REGRESS_WALL_US: u64 = 1_000;

/// Counter prefixes describing scheduling rather than work; excluded
/// from regression classification (still shown in diff output).
pub const SCHEDULING_PREFIXES: [&str; 1] = ["par."];

/// One node of the path-aggregated span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name at this tree position.
    pub name: String,
    /// Finished spans aggregated into this node.
    pub calls: u64,
    /// Summed inclusive wall time (µs).
    pub inclusive_us: u64,
    /// Summed exclusive wall time (µs): inclusive minus direct children.
    pub exclusive_us: u64,
    /// Child nodes, sorted by inclusive time, descending.
    pub children: Vec<SpanNode>,
}

/// Everything [`summarize`] extracts from one trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Root nodes of the span tree (spans with no parent in the trace),
    /// sorted by inclusive time, descending.
    pub roots: Vec<SpanNode>,
    /// Per-span-name totals: `name → (calls, inclusive µs, exclusive µs)`.
    pub by_name: BTreeMap<String, (u64, u64, u64)>,
    /// Trace-wide counter totals. Summed over root spans only (deltas
    /// are inclusive, so roots already cover all descendants), and among
    /// roots only those not time-contained in another root: counters are
    /// process-global, so a worker-thread root running *inside* another
    /// root's window would re-count the same increments.
    pub counters: BTreeMap<String, u64>,
    /// Event occurrences per event name.
    pub events: BTreeMap<String, u64>,
    /// Span counts per worker tag for distributed traces (spans shipped
    /// by workers into the coordinator's trace); untagged
    /// locally-recorded spans are not listed.
    pub workers: BTreeMap<String, u64>,
    /// Number of span records.
    pub span_count: u64,
    /// Number of event records.
    pub event_count: u64,
    /// Wall-clock extent of the trace (µs): latest span end − earliest
    /// span start.
    pub wall_us: u64,
}

/// Builds the summary from parsed records (one trace file).
#[must_use]
pub fn summarize(records: &[Record]) -> TraceSummary {
    struct SpanRec<'a> {
        parent: Option<u64>,
        name: &'a str,
        start_us: u64,
        dur_us: u64,
        counters: &'a BTreeMap<String, u64>,
    }
    let mut spans: BTreeMap<u64, SpanRec> = BTreeMap::new();
    let mut summary = TraceSummary::default();

    for rec in records {
        match rec {
            Record::Span {
                id,
                parent,
                name,
                start_us,
                dur_us,
                counters,
                worker,
            } => {
                summary.span_count += 1;
                if let Some(w) = worker {
                    *summary.workers.entry(w.clone()).or_insert(0) += 1;
                }
                spans.insert(
                    *id,
                    SpanRec {
                        parent: *parent,
                        name,
                        start_us: *start_us,
                        dur_us: *dur_us,
                        counters,
                    },
                );
            }
            Record::Event { name, .. } => {
                summary.event_count += 1;
                *summary.events.entry(name.clone()).or_insert(0) += 1;
            }
        }
    }
    if spans.is_empty() {
        return summary;
    }

    let mut min_start = u64::MAX;
    let mut max_end = 0u64;
    // Children's inclusive time per parent id, for exclusive times.
    let mut child_incl: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.values() {
        min_start = min_start.min(s.start_us);
        max_end = max_end.max(s.start_us.saturating_add(s.dur_us));
        if let Some(p) = s.parent {
            if spans.contains_key(&p) {
                *child_incl.entry(p).or_insert(0) += s.dur_us;
            }
        }
    }
    summary.wall_us = max_end.saturating_sub(min_start);

    // Name-path of every span (root;…;name), memoized bottom-up. An id
    // referenced as parent but absent from the file (truncated trace)
    // promotes the child to a root.
    let mut paths: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    fn path_of<'a>(
        id: u64,
        spans: &BTreeMap<u64, SpanRec<'a>>,
        paths: &mut BTreeMap<u64, Vec<String>>,
    ) -> Vec<String> {
        if let Some(p) = paths.get(&id) {
            return p.clone();
        }
        let s = &spans[&id];
        let mut path = match s.parent.filter(|p| spans.contains_key(p)) {
            Some(p) => path_of(p, spans, paths),
            None => Vec::new(),
        };
        path.push(s.name.to_owned());
        paths.insert(id, path.clone());
        path
    }

    // Aggregate by path into a nested tree.
    #[derive(Default)]
    struct Agg {
        calls: u64,
        incl: u64,
        excl: u64,
        children: BTreeMap<String, Agg>,
    }
    let mut root = Agg::default();
    let ids: Vec<u64> = spans.keys().copied().collect();
    for id in ids {
        let path = path_of(id, &spans, &mut paths);
        let s = &spans[&id];
        let excl = s
            .dur_us
            .saturating_sub(child_incl.get(&id).copied().unwrap_or(0));
        let mut node = &mut root;
        for seg in &path {
            node = node.children.entry(seg.clone()).or_default();
        }
        node.calls += 1;
        node.incl += s.dur_us;
        node.excl += excl;

        let by = summary
            .by_name
            .entry(s.name.to_owned())
            .or_insert((0, 0, 0));
        by.0 += 1;
        by.1 += s.dur_us;
        by.2 += excl;
    }

    // Counter totals: roots only, and only roots whose window is not
    // contained in another root's. Spans started on pool worker threads
    // have no parent (the thread-local stack is per-thread) yet run
    // *during* the span that spawned them; since counter deltas read the
    // same process-global atomics, adding such a root would count the
    // concurrent work twice. Identical windows keep the oldest id —
    // ids are allocation-ordered, so that is the outermost span.
    let roots: Vec<u64> = spans
        .iter()
        .filter(|(_, s)| s.parent.filter(|p| spans.contains_key(p)).is_none())
        .map(|(id, _)| *id)
        .collect();
    for &id in &roots {
        let s = &spans[&id];
        let (rs, re) = (s.start_us, s.start_us.saturating_add(s.dur_us));
        let covered = roots.iter().any(|&oid| {
            if oid == id {
                return false;
            }
            let o = &spans[&oid];
            let (os, oe) = (o.start_us, o.start_us.saturating_add(o.dur_us));
            os <= rs && re <= oe && (os < rs || re < oe || oid < id)
        });
        if !covered {
            for (k, v) in s.counters {
                *summary.counters.entry(k.clone()).or_insert(0) += v;
            }
        }
    }

    fn into_nodes(agg: BTreeMap<String, Agg>) -> Vec<SpanNode> {
        let mut out: Vec<SpanNode> = agg
            .into_iter()
            .map(|(name, a)| SpanNode {
                name,
                calls: a.calls,
                inclusive_us: a.incl,
                exclusive_us: a.excl,
                children: into_nodes(a.children),
            })
            .collect();
        // Descending by inclusive time; name breaks ties deterministically.
        out.sort_by(|a, b| {
            b.inclusive_us
                .cmp(&a.inclusive_us)
                .then(a.name.cmp(&b.name))
        });
        out
    }
    summary.roots = into_nodes(root.children);
    summary
}

fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{:.3} s", us as f64 / 1e6)
    }
}

impl TraceSummary {
    /// Folded-stack lines (`root;child;leaf <exclusive µs>`), sorted by
    /// path — feed them to `flamegraph.pl` or speedscope. Zero-exclusive
    /// paths are skipped.
    #[must_use]
    pub fn folded(&self) -> String {
        fn walk(prefix: &str, nodes: &[SpanNode], out: &mut Vec<String>) {
            for n in nodes {
                let path = if prefix.is_empty() {
                    n.name.clone()
                } else {
                    format!("{prefix};{}", n.name)
                };
                if n.exclusive_us > 0 {
                    out.push(format!("{path} {}", n.exclusive_us));
                }
                walk(&path, &n.children, out);
            }
        }
        let mut lines = Vec::new();
        walk("", &self.roots, &mut lines);
        lines.sort();
        let mut s = lines.join("\n");
        if !s.is_empty() {
            s.push('\n');
        }
        s
    }

    /// Human-readable report: the span tree, per-name totals, counter
    /// totals and event tallies.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== trace summary: {} spans, {} events, wall {} ==",
            self.span_count,
            self.event_count,
            fmt_us(self.wall_us)
        );
        if !self.workers.is_empty() {
            out.push_str("\n-- spans per worker --\n");
            let name_w = self
                .workers
                .keys()
                .map(String::len)
                .max()
                .unwrap_or(6)
                .max(6);
            for (k, v) in &self.workers {
                let _ = writeln!(out, "{k:<name_w$}  ×{v}");
            }
        }
        if !self.roots.is_empty() {
            out.push_str("\n-- span tree (inclusive / exclusive) --\n");
            fn walk(out: &mut String, nodes: &[SpanNode], depth: usize) {
                for n in nodes {
                    let _ = writeln!(
                        out,
                        "{:indent$}{}  ×{}  {} / {}",
                        "",
                        n.name,
                        n.calls,
                        fmt_us(n.inclusive_us),
                        fmt_us(n.exclusive_us),
                        indent = depth * 2
                    );
                    walk(out, &n.children, depth + 1);
                }
            }
            walk(&mut out, &self.roots, 0);

            out.push_str("\n-- by span name --\n");
            let mut rows: Vec<(&String, &(u64, u64, u64))> = self.by_name.iter().collect();
            rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
            let name_w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(4).max(4);
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>7}  {:>12}  {:>12}",
                "name", "calls", "inclusive", "exclusive"
            );
            for (name, (calls, incl, excl)) in rows {
                let _ = writeln!(
                    out,
                    "{name:<name_w$}  {calls:>7}  {:>12}  {:>12}",
                    fmt_us(*incl),
                    fmt_us(*excl)
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("\n-- counter totals --\n");
            let name_w = self
                .counters
                .keys()
                .map(String::len)
                .max()
                .unwrap_or(4)
                .max(4);
            for (k, v) in &self.counters {
                let _ = writeln!(out, "{k:<name_w$}  {v}");
            }
        }
        if !self.events.is_empty() {
            out.push_str("\n-- events --\n");
            let name_w = self
                .events
                .keys()
                .map(String::len)
                .max()
                .unwrap_or(4)
                .max(4);
            for (k, v) in &self.events {
                let _ = writeln!(out, "{k:<name_w$}  ×{v}");
            }
        }
        out
    }
}

/// One compared quantity in a [`TraceDiff`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Span or counter name.
    pub name: String,
    /// Value in the baseline trace (µs for spans, count for counters).
    pub before: u64,
    /// Value in the contender trace.
    pub after: u64,
    /// Signed percent change (`+` is growth); `None` when `before` is 0.
    pub pct: Option<f64>,
    /// Whether this row exceeds the regression threshold.
    pub regressed: bool,
}

/// Result of [`diff`]: wall-time rows, counter rows, and the subset that
/// regressed beyond the threshold.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceDiff {
    /// Per-span-name inclusive wall-time comparison, worst growth first.
    pub wall: Vec<DiffRow>,
    /// Trace-wide counter-total comparison, worst growth first.
    pub counters: Vec<DiffRow>,
    /// Regression threshold used (percent growth).
    pub threshold_pct: f64,
}

impl TraceDiff {
    /// Rows (wall + counter) classified as regressions.
    #[must_use]
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.wall
            .iter()
            .chain(self.counters.iter())
            .filter(|r| r.regressed)
            .collect()
    }

    /// Counter rows classified as regressions (the deterministic half).
    #[must_use]
    pub fn counter_regressions(&self) -> Vec<&DiffRow> {
        self.counters.iter().filter(|r| r.regressed).collect()
    }

    /// Human-readable comparison report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== trace diff (regression threshold {:.1}%) ==",
            self.threshold_pct
        );
        let table = |out: &mut String, title: &str, rows: &[DiffRow], unit: &str| {
            if rows.is_empty() {
                return;
            }
            let _ = writeln!(out, "\n-- {title} --");
            let name_w = rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max(4);
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>14}  {:>14}  {:>9}",
                "name",
                format!("before ({unit})"),
                format!("after ({unit})"),
                "change"
            );
            for r in rows {
                let pct = match r.pct {
                    Some(p) => format!("{p:+.1}%"),
                    None if r.after > 0 => "new".to_owned(),
                    None => "-".to_owned(),
                };
                let mark = if r.regressed { "  << REGRESSED" } else { "" };
                let _ = writeln!(
                    out,
                    "{:<name_w$}  {:>14}  {:>14}  {pct:>9}{mark}",
                    r.name, r.before, r.after
                );
            }
        };
        table(
            &mut out,
            "inclusive wall time by span name",
            &self.wall,
            "µs",
        );
        table(&mut out, "counter totals", &self.counters, "count");
        let n = self.regressions().len();
        let _ = writeln!(
            out,
            "\n{} wall-time regression(s), {} counter regression(s)",
            self.wall.iter().filter(|r| r.regressed).count(),
            self.counter_regressions().len()
        );
        debug_assert_eq!(
            n,
            self.regressions().len(),
            "regression count is a pure function of the rows"
        );
        out
    }

    /// Machine-readable JSON form of the diff (one object, stable key
    /// order) for CI tooling and dashboards:
    ///
    /// ```json
    /// {"schema":1,"threshold_pct":10.0,
    ///  "wall_regressions":1,"counter_regressions":0,
    ///  "wall":[{"name":"sim.run","before":100,"after":130,"pct":30.0,"regressed":true}],
    ///  "counters":[…]}
    /// ```
    ///
    /// `schema` versions the object's shape for CI tooling (bumped on any
    /// incompatible key change); `pct` is `null` when the baseline was
    /// zero (a "new" row).
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows = |rows: &[DiffRow]| {
            let mut out = String::from("[");
            for (i, r) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"before\":{},\"after\":{},\"pct\":{},\"regressed\":{}}}",
                    crate::jsonl::escape(&r.name),
                    r.before,
                    r.after,
                    r.pct.map_or_else(|| "null".to_owned(), |p| format!("{p}")),
                    r.regressed
                );
            }
            out.push(']');
            out
        };
        format!(
            "{{\"schema\":1,\"threshold_pct\":{},\"wall_regressions\":{},\"counter_regressions\":{},\"wall\":{},\"counters\":{}}}",
            self.threshold_pct,
            self.wall.iter().filter(|r| r.regressed).count(),
            self.counter_regressions().len(),
            rows(&self.wall),
            rows(&self.counters)
        )
    }
}

fn pct_change(before: u64, after: u64) -> Option<f64> {
    (before > 0).then(|| (after as f64 - before as f64) / before as f64 * 100.0)
}

fn is_scheduling(name: &str) -> bool {
    SCHEDULING_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Compares two summaries (`before` = baseline, `after` = contender).
///
/// A wall-time row regresses when the span name's total inclusive time
/// grew by more than `threshold_pct` percent (baselines under
/// [`MIN_REGRESS_WALL_US`] are exempt). A counter row regresses when its
/// trace-wide total grew by more than `threshold_pct` percent, or
/// appeared from zero — except `par.*` scheduling counters, which vary
/// with worker count by design and are never classified as regressions.
#[must_use]
pub fn diff(before: &TraceSummary, after: &TraceSummary, threshold_pct: f64) -> TraceDiff {
    let mut wall = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        before.by_name.keys().chain(after.by_name.keys()).collect();
    for name in names {
        let b = before.by_name.get(name).map_or(0, |v| v.1);
        let a = after.by_name.get(name).map_or(0, |v| v.1);
        let pct = pct_change(b, a);
        let regressed = b >= MIN_REGRESS_WALL_US && pct.is_some_and(|p| p > threshold_pct);
        wall.push(DiffRow {
            name: name.clone(),
            before: b,
            after: a,
            pct,
            regressed,
        });
    }

    let mut counters = Vec::new();
    let cnames: std::collections::BTreeSet<&String> = before
        .counters
        .keys()
        .chain(after.counters.keys())
        .collect();
    for name in cnames {
        let b = before.counters.get(name).copied().unwrap_or(0);
        let a = after.counters.get(name).copied().unwrap_or(0);
        let pct = pct_change(b, a);
        let grew = match pct {
            Some(p) => p > threshold_pct,
            None => a > 0, // appeared from zero
        };
        let regressed = grew && !is_scheduling(name);
        counters.push(DiffRow {
            name: name.clone(),
            before: b,
            after: a,
            pct,
            regressed,
        });
    }

    // Worst growth first; ties by name for deterministic output.
    let worst_first = |rows: &mut Vec<DiffRow>| {
        rows.sort_by(|x, y| {
            let px = x.pct.unwrap_or(f64::INFINITY);
            let py = y.pct.unwrap_or(f64::INFINITY);
            py.partial_cmp(&px)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.name.cmp(&y.name))
        });
    };
    worst_first(&mut wall);
    worst_first(&mut counters);

    TraceDiff {
        wall,
        counters,
        threshold_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::{encode_event, encode_span, parse_all};

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &str,
        start: u64,
        dur: u64,
        counters: &[(&str, u64)],
    ) -> String {
        let map: BTreeMap<String, u64> = counters.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
        encode_span(id, parent, name, start, dur, &map)
    }

    fn trace(lines: &[String]) -> Vec<Record> {
        parse_all(&lines.join("\n")).expect("test trace parses")
    }

    fn sample() -> Vec<Record> {
        trace(&[
            span(1, None, "root", 0, 1000, &[("sim.instructions", 500)]),
            span(2, Some(1), "child", 100, 300, &[("sim.instructions", 300)]),
            span(3, Some(1), "child", 500, 200, &[]),
            span(4, Some(2), "leaf", 150, 50, &[]),
            encode_event("note", &[("k", "v".to_owned())]),
        ])
    }

    #[test]
    fn worker_tagged_spans_merge_into_one_tree_and_are_tallied() {
        use crate::jsonl::encode_span_tagged;
        let lines = vec![
            span(1, None, "root", 0, 1000, &[]),
            encode_span_tagged(Some("w1"), 1 << 48, None, "root", 0, 400, &BTreeMap::new()),
            encode_span_tagged(
                Some("w1"),
                (1 << 48) | 2,
                Some(1 << 48),
                "child",
                100,
                200,
                &BTreeMap::new(),
            ),
            encode_span_tagged(Some("w2"), 2 << 48, None, "root", 0, 600, &BTreeMap::new()),
        ];
        let s = summarize(&trace(&lines));
        assert_eq!(s.span_count, 4);
        assert_eq!(s.workers.get("w1"), Some(&2));
        assert_eq!(s.workers.get("w2"), Some(&1));
        // All three `root` spans (local + both workers) aggregate into one
        // tree node; the namespaced parent link still resolves.
        assert_eq!(s.roots.len(), 1);
        assert_eq!(s.roots[0].calls, 3);
        assert_eq!(s.roots[0].children[0].name, "child");
        assert!(s.render().contains("spans per worker"), "{}", s.render());
    }

    #[test]
    fn tree_aggregates_inclusive_and_exclusive() {
        let s = summarize(&sample());
        assert_eq!(s.span_count, 4);
        assert_eq!(s.event_count, 1);
        assert_eq!(s.wall_us, 1000);
        assert_eq!(s.roots.len(), 1);
        let root = &s.roots[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.inclusive_us, 1000);
        assert_eq!(root.exclusive_us, 500, "1000 − (300+200) child time");
        // The two `child` spans merge into one tree node.
        assert_eq!(root.children.len(), 1);
        let child = &root.children[0];
        assert_eq!(child.calls, 2);
        assert_eq!(child.inclusive_us, 500);
        assert_eq!(child.exclusive_us, 450, "500 − 50 leaf time");
        // Counter totals come from roots only (no double counting).
        assert_eq!(s.counters["sim.instructions"], 500);
        assert_eq!(s.by_name["child"], (2, 500, 450));
        let rendered = s.render();
        assert!(rendered.contains("span tree"), "{rendered}");
        assert!(rendered.contains("child"), "{rendered}");
    }

    #[test]
    fn concurrent_worker_roots_do_not_double_count_counters() {
        // A parallel run: the main root covers [0, 1000); two spans
        // started on pool worker threads have no parent (per-thread span
        // stack) and run inside that window. Their deltas observe the
        // same process-global counters, so only the covering root may
        // contribute — while a second, *sequential* root still counts.
        let s = summarize(&trace(&[
            span(1, None, "fig3", 0, 1000, &[("sim.instructions", 500)]),
            span(2, None, "worker", 100, 300, &[("sim.instructions", 280)]),
            span(3, None, "worker", 400, 600, &[("sim.instructions", 320)]),
            span(4, None, "fig4", 1000, 500, &[("sim.instructions", 200)]),
        ]));
        assert_eq!(s.roots.len(), 3, "tree still shows every root name");
        assert_eq!(s.counters["sim.instructions"], 700, "fig3 + fig4 only");
    }

    #[test]
    fn identical_root_windows_count_once() {
        // Degenerate tie: two roots with the exact same window. The
        // oldest id (allocation order = outermost span) wins.
        let s = summarize(&trace(&[
            span(7, None, "outer", 0, 100, &[("c", 5)]),
            span(8, None, "inner", 0, 100, &[("c", 4)]),
        ]));
        assert_eq!(s.counters["c"], 5);
    }

    #[test]
    fn orphaned_parents_promote_to_roots() {
        // Parent id 99 never appears (truncated trace): the span still
        // shows up, as a root, and contributes its counters.
        let s = summarize(&trace(&[span(5, Some(99), "orphan", 0, 10, &[("c", 1)])]));
        assert_eq!(s.roots.len(), 1);
        assert_eq!(s.roots[0].name, "orphan");
        assert_eq!(s.counters["c"], 1);
    }

    #[test]
    fn folded_output_has_paths_and_exclusive_values() {
        let s = summarize(&sample());
        let folded = s.folded();
        assert!(folded.contains("root 500\n"), "{folded}");
        assert!(folded.contains("root;child 450\n"), "{folded}");
        assert!(folded.contains("root;child;leaf 50\n"), "{folded}");
    }

    #[test]
    fn diff_classifies_wall_and_counter_regressions() {
        let before = summarize(&trace(&[span(
            1,
            None,
            "work",
            0,
            10_000,
            &[("sim.steps", 1000), ("par.steals", 3)],
        )]));
        let after = summarize(&trace(&[span(
            1,
            None,
            "work",
            0,
            15_000,
            &[("sim.steps", 1200), ("par.steals", 30)],
        )]));
        let d = diff(&before, &after, 10.0);
        let wall = d.wall.iter().find(|r| r.name == "work").unwrap();
        assert!(wall.regressed, "50% wall growth over a 10% threshold");
        let steps = d.counters.iter().find(|r| r.name == "sim.steps").unwrap();
        assert!(steps.regressed, "20% counter growth over 10%");
        let steals = d.counters.iter().find(|r| r.name == "par.steals").unwrap();
        assert!(
            !steals.regressed,
            "par.* scheduling counters are exempt by design"
        );
        assert_eq!(d.regressions().len(), 2);
        assert!(d.render().contains("REGRESSED"));
    }

    #[test]
    fn diff_json_is_parseable_and_complete() {
        let before = summarize(&trace(&[span(1, None, "work", 0, 10_000, &[("c.new", 0)])]));
        let after = summarize(&trace(&[span(1, None, "work", 0, 15_000, &[("c.new", 7)])]));
        let d = diff(&before, &after, 10.0);
        let json = d.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.starts_with("{\"schema\":1,"), "{json}");
        assert!(json.contains("\"threshold_pct\":10"), "{json}");
        assert!(json.contains("\"wall_regressions\":1"), "{json}");
        assert!(
            json.contains(
                "\"name\":\"work\",\"before\":10000,\"after\":15000,\"pct\":50,\"regressed\":true"
            ),
            "{json}"
        );
        // A from-zero counter has pct null (rendered "new" in the table).
        assert!(json.contains("\"pct\":null"), "{json}");
        // Identical inputs → identical bytes (CI diffs depend on it).
        assert_eq!(json, diff(&before, &after, 10.0).to_json());
    }

    #[test]
    fn identical_traces_have_zero_regressions() {
        let s1 = summarize(&sample());
        let s2 = summarize(&sample());
        let d = diff(&s1, &s2, 0.0);
        assert!(d.regressions().is_empty(), "{:?}", d.regressions());
    }

    #[test]
    fn tiny_wall_baselines_are_noise_exempt() {
        let before = summarize(&trace(&[span(1, None, "blip", 0, 10, &[])]));
        let after = summarize(&trace(&[span(1, None, "blip", 0, 900, &[])]));
        let d = diff(&before, &after, 5.0);
        assert!(
            !d.wall.iter().any(|r| r.regressed),
            "sub-millisecond spans never flag wall regressions"
        );
    }
}
