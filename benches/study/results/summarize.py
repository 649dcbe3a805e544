"""Tabulates the runs in a results directory as Markdown.

    python3 benches/study/results/summarize.py benches/study/results > summary.md

Quartiles are Python's `statistics.quantiles(values, n=4)`, and a spread is
(q3 - q1) / median, as the acceptance checks compute them.
"""

import json
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
HEADER = re.compile(r"study-bench workload=(\S+) seed=(\S+)")


def runs(path):
    """Every workload run in a file: (workload, seed, report lines, result)."""
    out, cur = [], None
    for line in path.read_text().splitlines():
        m = HEADER.match(line)
        if m:
            cur = (m.group(1), m.group(2), [])
        elif cur and line.startswith("{"):
            out.append((*cur, json.loads(line)))
            cur = None
        elif cur:
            cur[2].append(line.strip())
    return out


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / med


def values(rs, workload, metric):
    return [r[3]["metrics"][metric]["value"] for r in rs if r[0] == workload]


def lines(rs, workload, prefix):
    return {tuple(l for l in r[2] if l.startswith(prefix)) for r in rs if r[0] == workload}


def g(x):
    return "%.4g" % x


def main(root):
    root = Path(root)
    out = []
    a, b = runs(root / "untraced-a.txt"), runs(root / "untraced-b.txt")
    out += [
        "## Two sets of %d `--workload all` passes (seed c0ffee)\n" % (len(a) // len(WORKLOADS)),
        "Each set's median and quartiles per (workload, metric), and set B's median against set A's.\n",
        "| workload | metric | bound | A median | A q1–q3 | A spread | B median | B q1–q3 | B spread | B vs A |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for w in WORKLOADS:
        for k, bound in BOUNDS.items():
            qa, qb = quartiles(values(a, w, k)), quartiles(values(b, w, k))
            out.append(
                "| %s | %s | %.2f | %s | %s–%s | %.1f%% | %s | %s–%s | %.1f%% | %+.1f%% |"
                % (w, k, bound, g(qa[1]), g(qa[0]), g(qa[2]), spread(values(a, w, k)) * 100,
                   g(qb[1]), g(qb[0]), g(qb[2]), spread(values(b, w, k)) * 100,
                   (qb[1] / qa[1] - 1) * 100)
            )
    failed = sum(r[3]["failed"] for r in a + b)
    same = all(
        len(lines(a + b, w, p)) == 1 for w in WORKLOADS for p in ("digest", "work per op", "accuracy")
    )
    out.append("\nFailed units over both sets: %d. Digests, work per op and accuracy identical "
               "in every pass: %s.\n" % (failed, "yes" if same else "NO"))

    s = runs(root / "stability.txt")
    out += [
        "## Ten seeds per workload\n",
        "Seeds 0x11–0x1a, workloads interleaved, one process each.\n",
        "| workload | metric | bound | median | q1 | q3 | spread | spread / bound |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for w in WORKLOADS:
        for k, bound in BOUNDS.items():
            v = values(s, w, k)
            q1, med, q3 = quartiles(v)
            out.append("| %s | %s | %.2f | %s | %s | %s | %.2f%% | %.2f |"
                       % (w, k, bound, g(med), g(q1), g(q3), spread(v) * 100, spread(v) / bound))
    out.append("\nFailed units: %d.\n" % sum(r[3]["failed"] for r in s))

    seeds = runs(root / "seeds.txt")
    out += [
        "## `badco-grid` and `warm-store` at seeds 1–5\n",
        "| workload | seed | artifact_s | work per op as at seed 1 |",
        "|---|---|---|---|",
    ]
    for w in ("badco-grid", "warm-store"):
        rs = [r for r in seeds if r[0] == w]
        work = lambda r: [l for l in r[2] if l.startswith("work per op")]
        for r in rs:
            out.append("| %s | %s | %.4f | %s |" % (
                w, r[1], r[3]["metrics"]["artifact_s"]["value"], "yes" if work(r) == work(rs[0]) else "NO"))
        out.append("| %s | spread | %.2f%% | |" % (w, spread(values(rs, w, "artifact_s")) * 100))
    print("\n".join(out))


if __name__ == "__main__":
    main(sys.argv[1])
