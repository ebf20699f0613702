#!/usr/bin/env bash
# Builds everything, runs the full test suite, and regenerates every paper
# exhibit into results/. Usage: scripts/reproduce.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

cmake -B "$BUILD_DIR" -G Ninja
cmake --build "$BUILD_DIR"

mkdir -p results

echo "== tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure 2>&1 | tee results/tests.txt

# Every bench must exist, be runnable, and exit zero — a bench that
# silently vanishes or crashes is a coverage loss, so the script fails
# loudly instead of skipping it (pipefail makes the tee pipelines honor
# the program's exit status).
failures=()

run_bench() {  # usage: run_bench NAME COMMAND...
  local name="$1"
  shift
  echo "-- $name"
  if ! "$@" | tee "results/$name.txt"; then
    echo "ERROR: $name exited non-zero"
    failures+=("$name")
  fi
}

# qadist_bench runs the paper exhibits and extension studies by name;
# one call per bench keeps a text table per exhibit. A missing program
# fails the assignment, and set -e stops the script there.
echo "== benches =="
BENCH="$BUILD_DIR/bench/qadist_bench"
bench_names="$("$BENCH" --help | awk '/^benches:/ {on = 1; next} on {print $1}')"
for name in $bench_names; do
  run_bench "bench_$name" "$BENCH" "$name"
done
for b in "$BUILD_DIR"/bench/bench_micro_*; do
  run_bench "$(basename "$b")" "$b"
done

echo "== examples =="
for e in "$BUILD_DIR"/examples/*; do
  [ -f "$e" ] || continue
  name="$(basename "$e")"
  case "$name" in *.cmake | Makefile | *.ninja*) continue ;; esac
  if [ ! -x "$e" ]; then
    echo "ERROR: example $name exists but is not executable"
    failures+=("example_$name (not executable)")
    continue
  fi
  echo "-- $name"
  if ! "$e" | tee "results/example_$name.txt"; then
    echo "ERROR: example $name exited non-zero"
    failures+=("example_$name")
  fi
done

# Structured twins: benches emit machine-readable BENCH_<name>.json
# (schema qadist-bench-v1) next to the text tables, and fig7_traces
# exports TRACE_*.jsonl / TRACE_*.chrome.json (open the latter in
# https://ui.perfetto.dev). List and sanity-check them.
echo "== structured results =="
json_count=0
for j in results/BENCH_*.json; do
  [ -f "$j" ] || continue
  json_count=$((json_count + 1))
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$j" > /dev/null || echo "WARNING: invalid JSON: $j"
  fi
  echo "-- $j"
done
echo "$json_count bench JSON reports in results/."

# One index over all structured reports: results/INDEX.json lists every
# BENCH_*.json with its bench name, schema, and metric names, plus the
# pinned adversarial scenario corpus (results/scenarios/*.json, replayed
# by the adversarial bench), so tooling can discover the exhibits without
# globbing.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'PY'
import datetime
import glob
import json
import os

benches = []
for path in sorted(glob.glob("results/BENCH_*.json")):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"WARNING: skipping {path}: {err}")
        continue
    metrics = sorted({m.get("name", "") for m in doc.get("metrics", [])})
    mtime = os.path.getmtime(path)
    benches.append({
        "file": path,
        "bench": doc.get("bench", ""),
        "schema": doc.get("schema", ""),
        "metrics": metrics,
        "mtime": datetime.datetime.fromtimestamp(
            mtime, datetime.timezone.utc).isoformat(),
    })

scenarios = []
for path in sorted(glob.glob("results/scenarios/*.json")):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"WARNING: skipping {path}: {err}")
        continue
    pin = doc.get("pin", {})
    scenarios.append({
        "file": path,
        "name": doc.get("name", ""),
        "schema": doc.get("schema", ""),
        "nodes": doc.get("nodes", 0),
        "pinned_p99_seconds": pin.get("p99_seconds", 0.0),
        "pinned_degraded_fraction": pin.get("degraded_fraction", 0.0),
        "baseline_p99_seconds": pin.get("baseline_p99_seconds", 0.0),
    })

index = {
    "schema": "qadist-bench-index-v1",
    "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    "benches": benches,
    "adversarial_scenarios": scenarios,
}
with open("results/INDEX.json", "w") as f:
    json.dump(index, f, indent=2)
    f.write("\n")
print(f"results/INDEX.json indexes {len(benches)} reports and "
      f"{len(scenarios)} pinned adversarial scenarios.")
PY
else
  echo "python3 not found; skipping results/INDEX.json."
fi

if [ "${#failures[@]}" -gt 0 ]; then
  echo "REPRODUCE FAILED — ${#failures[@]} bench(es) or example(s) missing or broken:"
  printf '  %s\n' "${failures[@]}"
  exit 1
fi

echo "All outputs written to results/."
