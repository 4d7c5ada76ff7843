#!/usr/bin/env bash
# Offline build, the benchmark's own unit tests, then a --quick smoke of every
# workload in both modes (2 s of measurement each, validity guards on) and a
# check that the line the driver reads names exactly what BENCHMARK.json
# declares. Exit status is the verdict. Run from anywhere; honours
# CARGO_TARGET_DIR (default: benchmark/target, which is git-ignored).
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"

for workload in serve_hot serve_miss eval_rob retrieve_large; do
  for trace in 0 1; do
    line=$(cargo run --release --offline --quiet --manifest-path "$manifest" -- \
      --workload "$workload" --quick --trace "$trace" --allow-dirty | tail -n 1)
    python3 - "$workload" "$trace" "$line" <<'PY'
import json, sys
workload, trace, line = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
manifest = json.load(open("BENCHMARK.json"))
declared = {m["name"]: m["unit"] for m in manifest["per_layer" if trace == "1" else "end_to_end"]}
assert sorted(line) == ["attempted", "correct", "failed", "metrics"], sorted(line)
printed = {name: m["unit"] for name, m in line["metrics"].items()}
assert printed == declared, set(printed) ^ set(declared)
assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, line
print(f"ok {workload} trace={trace}: {len(printed)} metrics, {line['attempted']} ops")
PY
  done
done
