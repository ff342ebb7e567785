#!/usr/bin/env bash
# The benchmark's one command.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       Build (offline, release) and run one workload; the last line of
#       standard output is the result object. This is what BENCHMARK.json
#       names and what the driver calls.
#
#   bash benchmark/run.sh --set <file.jsonl> [--seed <n>] [--seconds <s>] [--quick]
#       Run all four workloads, then the four traced runs, each as a child
#       process under a hard timeout, and append one line per run to
#       <file.jsonl> — the input of `compare`. --quick is --seconds 2.
#
#   bash benchmark/run.sh compare <A.jsonl> <B.jsonl>
#       Medians, spreads and a verdict per workload and end-to-end metric,
#       against the bounds in BENCHMARK.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/benchmark"

if [[ "${1:-}" == "compare" ]]; then
    shift
    exec "$bin" compare "$@" --spec "$here/../BENCHMARK.json"
fi

if [[ "${1:-}" != "--set" ]]; then
    exec "$bin" "$@" --out "$here/out"
fi

set_file="$2"
shift 2
seed=42
seconds=30
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --quick) seconds=2; shift ;;
        *) echo "run.sh: unknown flag $1" >&2; exit 2 ;;
    esac
done
{
    echo "# nproc=$(nproc) cpu=$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | xargs)"
    echo "# $(rustc --version) git=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo none)"
} >&2
# A run takes about seconds + 5 s; three times that is the hard limit.
limit=$(( (${seconds%.*} + 5) * 3 ))
for trace in 0 1; do
    for workload in fanin-small-paced model-large-sat wan-durable-paced federation-sat; do
        echo "== $workload trace=$trace seed=$seed seconds=$seconds" >&2
        result="$(timeout "$limit" "$bin" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" --out "$here/out" | tail -n 1)"
        printf '{"workload": "%s", "seed": %s, "trace": %s, "result": %s}\n' \
            "$workload" "$seed" "$trace" "$result" >> "$set_file"
    done
done
