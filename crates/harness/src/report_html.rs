//! The self-contained HTML study dashboard.
//!
//! [`render_dashboard`] turns a slice of ledger [`RunRecord`]s into one
//! HTML page with zero external dependencies: styling is an inline
//! `<style>` block, every chart is inline SVG (run-over-run duration
//! trend, per-experiment duration bars, store hit-ratio sparkline,
//! worker lanes) and the §VII convergence diagnostics appear as a plain
//! table. The output is a pure function of the records — no
//! timestamps, hostnames or RNG at render time — so the same ledger
//! produces a byte-identical page whatever machine or `--jobs` setting
//! renders it (the CLI's `report` command and CI both rely on that).

use mps_store::RunRecord;
use std::fmt::Write as _;

/// Chart geometry shared by the SVG helpers.
const CHART_W: f64 = 560.0;
const CHART_H: f64 = 120.0;
const PAD: f64 = 8.0;

/// Escapes text for an HTML body or attribute.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a chart coordinate with fixed precision (deterministic and
/// compact; SVG does not care about trailing zeros).
fn coord(v: f64) -> String {
    format!("{v:.1}")
}

/// An SVG polyline over `values`, scaled to the chart box. Returns an
/// empty string when there is nothing to plot.
fn sparkline(values: &[f64], stroke: &str) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let max = finite.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
    let min = finite.iter().copied().fold(f64::MAX, f64::min).min(0.0);
    let span = (max - min).max(1e-9);
    let n = values.len().max(2) - 1;
    let mut points = String::new();
    for (i, v) in values.iter().enumerate() {
        if !v.is_finite() {
            continue;
        }
        let x = PAD + (CHART_W - 2.0 * PAD) * i as f64 / n as f64;
        let y = CHART_H - PAD - (CHART_H - 2.0 * PAD) * (v - min) / span;
        let _ = write!(points, "{},{} ", coord(x), coord(y));
    }
    let mut svg = format!(
        "<svg viewBox=\"0 0 {CHART_W} {CHART_H}\" width=\"{CHART_W}\" height=\"{CHART_H}\" role=\"img\">"
    );
    let _ = write!(
        svg,
        "<polyline fill=\"none\" stroke=\"{stroke}\" stroke-width=\"2\" points=\"{}\"/>",
        points.trim_end()
    );
    // Mark the data points so single-run ledgers still show something.
    for (i, v) in values.iter().enumerate() {
        if !v.is_finite() {
            continue;
        }
        let x = PAD + (CHART_W - 2.0 * PAD) * i as f64 / n as f64;
        let y = CHART_H - PAD - (CHART_H - 2.0 * PAD) * (v - min) / span;
        let _ = write!(
            svg,
            "<circle cx=\"{}\" cy=\"{}\" r=\"2.5\" fill=\"{stroke}\"/>",
            coord(x),
            coord(y)
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Horizontal labelled bars (label, value, display text), scaled to the
/// longest bar.
fn hbars(rows: &[(String, f64, String)], fill: &str) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let max = rows
        .iter()
        .map(|(_, v, _)| *v)
        .fold(f64::MIN, f64::max)
        .max(1e-9);
    let row_h = 18.0;
    let label_w = 170.0;
    let h = rows.len() as f64 * row_h + PAD;
    let mut svg = format!(
        "<svg viewBox=\"0 0 {CHART_W} {}\" width=\"{CHART_W}\" height=\"{}\" role=\"img\">",
        coord(h),
        coord(h)
    );
    for (i, (label, v, text)) in rows.iter().enumerate() {
        let y = i as f64 * row_h + 4.0;
        let w = (CHART_W - label_w - 80.0) * v / max;
        let _ = write!(
            svg,
            "<text x=\"{}\" y=\"{}\" font-size=\"11\" text-anchor=\"end\">{}</text>",
            coord(label_w - 6.0),
            coord(y + 10.0),
            esc(label)
        );
        let _ = write!(
            svg,
            "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"12\" fill=\"{fill}\"/>",
            coord(label_w),
            coord(y),
            coord(w.max(0.5))
        );
        let _ = write!(
            svg,
            "<text x=\"{}\" y=\"{}\" font-size=\"11\">{}</text>",
            coord(label_w + w.max(0.5) + 6.0),
            coord(y + 10.0),
            esc(text)
        );
    }
    svg.push_str("</svg>");
    svg
}

/// `exp.{name}.ms` fields of one record, in field order.
fn experiment_durations(rec: &RunRecord) -> Vec<(String, f64)> {
    rec.fields
        .iter()
        .filter_map(|(k, v)| {
            let name = k.strip_prefix("exp.")?.strip_suffix(".ms")?;
            Some((name.to_owned(), v.parse().ok()?))
        })
        .collect()
}

/// Distinct `conv.{estimator}.…` estimator names of one record.
fn convergence_names(rec: &RunRecord) -> Vec<String> {
    let mut names: Vec<String> = rec
        .fields
        .keys()
        .filter_map(|k| {
            let rest = k.strip_prefix("conv.")?;
            let (name, _leaf) = rest.rsplit_once('.')?;
            Some(name.to_owned())
        })
        .collect();
    names.dedup();
    names
}

/// One `(grid, worker)` attribution lane from a record's distributed
/// provenance fields (`dist.<grid>.<worker>.{cells,renewals,wall_us}`).
struct WorkerLane {
    grid: String,
    worker: String,
    cells: u64,
    renewals: u64,
    wall_us: u64,
}

/// Extracts the worker lanes of one record, in field (BTreeMap) order.
fn worker_lanes(rec: &RunRecord) -> Vec<WorkerLane> {
    rec.fields
        .iter()
        .filter_map(|(k, v)| {
            let rest = k.strip_prefix("dist.")?.strip_suffix(".cells")?;
            let (grid, worker) = rest.split_once('.')?;
            let leaf = |name: &str| {
                rec.get(&format!("dist.{grid}.{worker}.{name}"))
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0)
            };
            Some(WorkerLane {
                grid: grid.to_owned(),
                worker: worker.to_owned(),
                cells: v.parse().ok()?,
                renewals: leaf("renewals"),
                wall_us: leaf("wall_us"),
            })
        })
        .collect()
}

/// Renders the dashboard for the given ledger records (oldest first).
///
/// Deterministic: the output is byte-identical for identical records.
pub fn render_dashboard(records: &[RunRecord]) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str(
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>mps study dashboard</title>\n<style>\n\
         body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:640px;color:#1a1a2e}\n\
         h1{font-size:1.4rem} h2{font-size:1.1rem;margin-top:2rem;border-bottom:1px solid #ddd}\n\
         table{border-collapse:collapse;width:100%} td,th{padding:2px 8px;text-align:right;\
         border-bottom:1px solid #eee} th{background:#f6f6fa} td:first-child,th:first-child{text-align:left}\n\
         .meta{color:#555} svg{display:block;margin:.5rem 0}\n\
         </style></head><body>\n<h1>mps study dashboard</h1>\n",
    );

    if records.is_empty() {
        out.push_str("<p class=\"meta\">The ledger is empty: no completed runs recorded yet.</p>\n</body></html>\n");
        return out;
    }

    let latest = records.last().expect("non-empty");
    let _ = writeln!(
        out,
        "<p class=\"meta\">{} run(s) in the ledger. Latest: scale <code>{}</code>, \
         {} jobs, config <code>{}</code>, kernel rev {}, schema {}.</p>",
        records.len(),
        esc(latest.get("scale").unwrap_or("?")),
        esc(latest.get("jobs").unwrap_or("?")),
        esc(latest.get("config_hash").unwrap_or("?")),
        esc(latest.get("kernel_rev").unwrap_or("?")),
        esc(latest.get("schema").unwrap_or("?")),
    );

    // Run-over-run wall-clock trend.
    out.push_str("<h2>Run duration trend</h2>\n");
    let walls: Vec<f64> = records
        .iter()
        .map(|r| r.f64("wall_ms").unwrap_or(f64::NAN) / 1000.0)
        .collect();
    let finite_walls: Vec<f64> = walls.iter().copied().filter(|v| v.is_finite()).collect();
    if finite_walls.is_empty() {
        out.push_str("<p class=\"meta\">No wall-clock data recorded.</p>\n");
    } else {
        let last = finite_walls.last().expect("non-empty");
        let _ = writeln!(
            out,
            "<p class=\"meta\">Total wall seconds per run, oldest → newest (latest {last:.1} s).</p>"
        );
        out.push_str(&sparkline(&walls, "#3b5bdb"));
        out.push('\n');
    }

    // Per-experiment durations of the latest run.
    out.push_str("<h2>Latest run: per-experiment duration</h2>\n");
    let mut durs = experiment_durations(latest);
    durs.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    if durs.is_empty() {
        out.push_str("<p class=\"meta\">No per-experiment durations recorded.</p>\n");
    } else {
        let rows: Vec<(String, f64, String)> = durs
            .iter()
            .map(|(n, ms)| (n.clone(), *ms, format!("{:.1} s", ms / 1000.0)))
            .collect();
        out.push_str(&hbars(&rows, "#5f3dc4"));
        out.push('\n');
    }

    // Store hit ratio across runs.
    out.push_str("<h2>Store hit ratio</h2>\n");
    let ratios: Vec<f64> = records
        .iter()
        .map(|r| r.f64("store.hit_ratio").unwrap_or(f64::NAN))
        .collect();
    if ratios.iter().any(|v| v.is_finite()) {
        let latest_ratio = ratios
            .iter()
            .rev()
            .find(|v| v.is_finite())
            .copied()
            .unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "<p class=\"meta\">Artifact-store hit ratio per run (latest {latest_ratio:.3}; \
             1.0 means every expensive artifact was reused).</p>"
        );
        out.push_str(&sparkline(&ratios, "#2b8a3e"));
        out.push('\n');
    } else {
        out.push_str(
            "<p class=\"meta\">No store statistics recorded (runs without --store).</p>\n",
        );
    }

    // Convergence diagnostics of the latest run.
    out.push_str("<h2>Latest run: convergence diagnostics (&sect;VII)</h2>\n");
    let conv = convergence_names(latest);
    if conv.is_empty() {
        out.push_str("<p class=\"meta\">No convergence estimators recorded.</p>\n");
    } else {
        out.push_str(
            "<p class=\"meta\">Per estimator: observations n, running cv of d(w), the required \
             random-sample size W = 8&middot;cv&sup2; and the confidence reached at n.</p>\n\
             <table><tr><th>estimator</th><th>n</th><th>cv</th><th>required W</th><th>confidence</th></tr>\n",
        );
        for name in &conv {
            let get = |leaf: &str| latest.get(&format!("conv.{name}.{leaf}"));
            let fmt_f = |v: Option<&str>, prec: usize| {
                v.and_then(|s| s.parse::<f64>().ok())
                    .map_or_else(|| "-".to_owned(), |x| format!("{x:.prec$}"))
            };
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                esc(name),
                esc(get("n").unwrap_or("-")),
                fmt_f(get("cv"), 3),
                esc(get("required_w").unwrap_or("-")),
                fmt_f(get("confidence"), 4),
            );
        }
        out.push_str("</table>\n");
    }

    // Worker lanes: distributed provenance of the latest run.
    out.push_str("<h2>Latest run: worker lanes</h2>\n");
    let lanes = worker_lanes(latest);
    if lanes.is_empty() {
        out.push_str(
            "<p class=\"meta\">No distributed provenance recorded (single-process run).</p>\n",
        );
    } else {
        out.push_str(
            "<p class=\"meta\">Coordinator-observed wall time per (grid, worker) lane; \
             a lane much longer than its peers at a similar cell count is the \
             straggler.</p>\n",
        );
        let rows: Vec<(String, f64, String)> = lanes
            .iter()
            .map(|l| {
                (
                    format!("{}/{}", l.grid, l.worker),
                    l.wall_us as f64,
                    format!(
                        "{} cells, {:.2} s, {} renewals",
                        l.cells,
                        l.wall_us as f64 / 1e6,
                        l.renewals
                    ),
                )
            })
            .collect();
        out.push_str(&hbars(&rows, "#1098ad"));
        out.push('\n');
    }

    // Run history table.
    out.push_str("<h2>Run history</h2>\n<table><tr><th>#</th><th>scale</th><th>jobs</th><th>experiments</th><th>wall s</th><th>hit ratio</th><th>failures</th></tr>\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            i + 1,
            esc(r.get("scale").unwrap_or("-")),
            esc(r.get("jobs").unwrap_or("-")),
            esc(r.get("experiments").unwrap_or("-")),
            r.f64("wall_ms")
                .map_or_else(|| "-".to_owned(), |ms| format!("{:.1}", ms / 1000.0)),
            r.f64("store.hit_ratio")
                .map_or_else(|| "-".to_owned(), |v| format!("{v:.3}")),
            esc(r.get("failures").unwrap_or("0")),
        );
    }
    out.push_str("</table>\n</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(wall_ms: u64, hit_ratio: f64) -> RunRecord {
        let mut r = RunRecord::new();
        r.set("scale", "tl=1000,seed=42");
        r.set("jobs", "4");
        r.set("config_hash", "00deadbeef00");
        r.set("kernel_rev", "3");
        r.set("schema", "2");
        r.set("experiments", "fig3,fig6");
        r.set("failures", "0");
        r.set("wall_ms", wall_ms.to_string());
        r.set("exp.fig3.ms", (wall_ms / 2).to_string());
        r.set("exp.fig6.ms", (wall_ms / 3).to_string());
        r.set("store.hit_ratio", format!("{hit_ratio}"));
        r.set("conv.convergence.fig3.c2.n", "28");
        r.set("conv.convergence.fig3.c2.cv", "0.4");
        r.set("conv.convergence.fig3.c2.required_w", "2");
        r.set("conv.convergence.fig3.c2.confidence", "0.9999997133484281");
        r.set("dist.fig3.w0.cells", "7");
        r.set("dist.fig3.w0.renewals", "2");
        r.set("dist.fig3.w0.wall_us", "1500000");
        r.set("dist.fig3.coordinator.cells", "1");
        r.set("dist.fig3.coordinator.renewals", "0");
        r.set("dist.fig3.coordinator.wall_us", "400000");
        r
    }

    #[test]
    fn empty_ledger_renders_a_valid_page() {
        let html = render_dashboard(&[]);
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("ledger is empty"));
        assert!(html.ends_with("</html>\n"));
    }

    #[test]
    fn dashboard_contains_all_sections_and_svgs() {
        let records = vec![sample_record(9000, 0.2), sample_record(5000, 0.9)];
        let html = render_dashboard(&records);
        assert!(html.contains("<svg"), "charts are inline SVG");
        assert!(html.contains("Run duration trend"));
        assert!(html.contains("per-experiment duration"));
        assert!(html.contains("Store hit ratio"));
        assert!(html.contains("convergence.fig3.c2"));
        assert!(html.contains("0.400"), "cv formatted");
        assert!(html.contains("worker lanes"));
        assert!(html.contains("fig3/w0"), "per-worker lane labeled");
        assert!(html.contains("7 cells, 1.50 s, 2 renewals"));
        assert!(html.contains("Run history"));
        assert!(
            !html.contains("<script"),
            "dependency-free: no scripts at all"
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let records = vec![sample_record(9000, 0.2), sample_record(5000, 0.9)];
        assert_eq!(
            render_dashboard(&records),
            render_dashboard(&records),
            "byte-identical across calls"
        );
    }

    #[test]
    fn a_retired_latency_histogram_field_changes_nothing() {
        // Ledgers written before the field was retired still carry it.
        let mut old = sample_record(5000, 0.9);
        old.set("hist.grid.cell.latency_us", "3:5,7:12,9:1");
        let records = [sample_record(9000, 0.2), sample_record(5000, 0.9)];
        let with_field = [sample_record(9000, 0.2), old];
        assert_eq!(render_dashboard(&with_field), render_dashboard(&records));
    }

    #[test]
    fn record_text_is_escaped() {
        let mut r = sample_record(100, 1.0);
        r.set("scale", "<script>alert(1)</script>");
        let html = render_dashboard(&[r]);
        assert!(!html.contains("<script>alert"));
        assert!(html.contains("&lt;script&gt;"));
    }
}
