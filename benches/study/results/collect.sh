#!/bin/bash
# Re-measures every file in this directory with a built study-bench binary.
#
#   cargo build --release --offline --manifest-path benches/study/Cargo.toml
#   benches/study/results/collect.sh target/release/study-bench benches/study/results
#   python3 benches/study/results/summarize.py benches/study/results > summary.md
#
# Run it from the repository root on an otherwise idle host; it takes about
# 40 minutes. The JSONL traces of the traced pass go to $OUT/trace.jsonl.*.
set -eu
BIN=$(realpath "$1")
OUT=$(realpath "$2")
SECS=25

header() {
    local cpu
    cpu=$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | xargs)
    echo "# commit $(git rev-parse --short HEAD 2>/dev/null || echo unknown); nproc=$(nproc)" \
        "($cpu); $(rustc --version); $*"
}

untraced_set() {
    local f=$OUT/$1
    header "5 passes of: study-bench --workload all --seed c0ffee --seconds $SECS --trace 0" > "$f"
    for p in 1 2 3 4 5; do
        echo "## pass $p" >> "$f"
        "$BIN" --workload all --seed c0ffee --seconds $SECS --trace 0 >> "$f"
    done
}

untraced_set untraced-a.txt

header "study-bench --workload all --seed c0ffee --seconds $SECS --trace 1 --trace-file FILE" \
    > "$OUT/traced.txt"
"$BIN" --workload all --seed c0ffee --seconds $SECS --trace 1 \
    --trace-file "$OUT/trace.jsonl" >> "$OUT/traced.txt"

header "study-bench --workload W --seed S --seconds $SECS --trace 0," \
    "W in badco-grid, warm-store and S in 1..5" > "$OUT/seeds.txt"
for s in 1 2 3 4 5; do
    for w in badco-grid warm-store; do
        echo "## $w seed $s" >> "$OUT/seeds.txt"
        "$BIN" --workload $w --seed $s --seconds $SECS --trace 0 >> "$OUT/seeds.txt"
    done
done

untraced_set untraced-b.txt

header "study-bench --workload W --seed S --seconds $SECS --trace 0," \
    "ten seeds per workload, workloads interleaved" > "$OUT/stability.txt"
for s in 11 12 13 14 15 16 17 18 19 1a; do
    for w in badco-grid detailed-grid scalar-accuracy warm-store; do
        echo "## $w seed $s" >> "$OUT/stability.txt"
        "$BIN" --workload $w --seed $s --seconds $SECS --trace 0 >> "$OUT/stability.txt"
    done
done
