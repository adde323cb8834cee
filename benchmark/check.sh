#!/usr/bin/env bash
# Repeatability check: two sets of full runs of the same build, alternating.
#
#   benchmark/check.sh [runs-per-set]      (default 5; ~19 minutes)
#
# Run i of set A and run i of set B use the same seed, so a deterministic
# metric must read bit-for-bit the same in both, and a wall-clock metric's
# median in set B must not be worse than in set A by more than its bound
# (the driver's acceptance rule). Also checks that every run
# printed exactly the end-to-end metrics BENCHMARK.json names, with their
# units. Writes benchmark/out/repeat.json; exits non-zero on any failure.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$target" >&2
mkdir -p benchmark/out

exec python3 - "$target/release/dl-bench" "${1:-5}" <<'PY'
import json, statistics, subprocess, sys

binary, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
deterministic = {"update_sim_s", "wan_bytes_ratio", "write_amp", "space_amp"}
ok = True
report = {"runs_per_set": runs, "workloads": {}}

def run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])

for w in (w["name"] for w in spec["workloads"]):
    sets = {"a": [], "b": []}
    for i in range(runs):
        for name in sets:  # alternate the sets
            result = run(w, 1 + i)
            if result["failed"] or not result["correct"]:
                print(f"FAIL {w} seed {1 + i}: failed={result['failed']} correct={result['correct']}")
                ok = False
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            if got != want:
                print(f"FAIL {w}: printed metrics {got} differ from BENCHMARK.json {want}")
                ok = False
            sets[name].append(result["metrics"])
    rows = {}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r[name]["value"] for r in sets["a"]]
        b = [r[name]["value"] for r in sets["b"]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        if name in deterministic:
            agree = a == b
        elif m["better"] == "lower":
            agree = med_b <= med_a * (1 + bound)
        else:
            agree = med_b >= med_a * (1 - bound)
        quartiles = lambda v: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        rows[name] = {
            "unit": m["unit"], "bound": bound, "deterministic": name in deterministic,
            "median_a": med_a, "median_b": med_b,
            "quartiles_a": quartiles(a), "quartiles_b": quartiles(b), "agree": agree,
        }
        mark = "ok  " if agree else "FAIL"
        print(f"{mark} {w:14} {name:18} a {med_a:12.4f} b {med_b:12.4f} {m['unit']}")
        ok = ok and agree
    report["workloads"][w] = rows

report["ok"] = ok
json.dump(report, open("benchmark/out/repeat.json", "w"), indent=2)
print("repeat.json written;", "all sets agree" if ok else "SETS DISAGREE")
sys.exit(0 if ok else 1)
PY
