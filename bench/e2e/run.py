#!/usr/bin/env python3
"""End-to-end benchmark of the ACBM codec: builds bench_e2e, runs workloads,
reduces their raw timings to metrics and checks correctness.

One workload (the form BENCHMARK.json's command takes):

    python3 bench/e2e/run.py --workload qcif_paper_serial --seed 7 \\
        --seconds 20 --trace 0

prints every metric as `workload/metric value unit`, then as its last line
one JSON object {"correct", "attempted", "failed", "metrics"} holding the
BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1).

Every workload (each in its own process), with merged JSON:

    python3 bench/e2e/run.py --seed 2005 [--trace 1] [--repeat N]

--repeat N runs the set N times with seeds seed, seed+1, ... and prints each
metric's median, min, max, max/min and interquartile spread per workload.
Traced runs write <trace-dir>/<workload>.trace.json (validated with
scripts/validate_trace.py) and <workload>.layers.json.

Exit status 1 when the build fails, a run fails, or any correctness check
failed. See bench/e2e/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = [
    "qcif_paper_serial",
    "cif_fullsearch_mt",
    "live_qcif_service",
    "decode_cif_lossy",
]
MB_BLOCKS = 6  # 4 luma + 2 chroma 8x8 blocks per macroblock

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_EFFECTS = {
    "me.us_per_mb": "fps on cif_fullsearch_mt strongly, on qcif_paper_serial "
                    "slightly; nothing on decode_cif_lossy",
    "me.positions_per_mb": "equals positions_per_mb on every workload",
    "me.critical_pct": "positions_per_mb and fps on the ACBM workloads",
    "sad.ns_per_call": "fps on cif_fullsearch_mt",
    "transform.fwd_ns_per_block": "fps on qcif_paper_serial",
    "transform.inv_ns_per_block": "fps on qcif_paper_serial and "
                                  "decode_cif_lossy",
    "mc.ns_per_mb": "fps on decode_cif_lossy and qcif_paper_serial",
    "entropy.ns_per_block": "fps on qcif_paper_serial",
    "entropy.bits_per_mb": "kbps on the encode workloads",
    "model.explained_pct": "diagnostic: the layer replays' share of the "
                           "serial encode time (target >= 90%)",
    "pool.efficiency_pct": "fps on cif_fullsearch_mt and latency_ms_p90 on "
                           "live_qcif_service",
    "cpu.busy_pct": "latency_ms_p90 on live_qcif_service",
    "trace.overhead_pct": "none: the cost of tracing itself",
}


class BenchError(Exception):
    """A build or run failure: no result can be reported."""


# ---------------------------------------------------------------- reducers


def best_of_k(passes: list[list[float]]) -> list[float]:
    """Each item's minimum over the passes (every pass times every item)."""
    if not passes or any(len(p) != len(passes[0]) for p in passes):
        raise BenchError("passes disagree on the item count")
    return [min(samples) for samples in zip(*passes)]


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share q
    of the values at or below it."""
    if not values:
        raise BenchError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# ------------------------------------------------------------- derivations


def _series(raw: dict, name: str) -> list[list[float]]:
    passes = raw["series"].get(name)
    if not passes:
        raise BenchError(f"{raw['workload']}: no '{name}' series")
    return passes


def _busy_pct(raw: dict) -> float:
    workers = raw["values"]["workers"]
    shares = [c[0] / (workers * w[0])
              for c, w in zip(_series(raw, "cpu"), _series(raw, "wall"))]
    return 100.0 * statistics.median(shares)


def e2e_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of one untraced (or traced) run."""
    v = raw["values"]
    items = best_of_k(_series(raw, "item"))
    # Set-up is not an item: the median of every set-up in the run.
    setup = statistics.median(x for p in _series(raw, "setup") for x in p)
    if raw["workload"] == "live_qcif_service":
        # Open loop: frames delivered per second of the best pass.
        fps = len(items) / min(w[0] for w in _series(raw, "wall"))
    else:
        fps = len(items) / sum(items)
    return {
        "setup_s": (setup, "s"),
        "fps": (fps, "frames/s"),
        "latency_ms_p50": (1e3 * nearest_rank(items, 0.50), "ms"),
        # p90: the highest percentile with ten items beyond it on every
        # workload (cif_fullsearch_mt has 118 items).
        "latency_ms_p90": (1e3 * nearest_rank(items, 0.90), "ms"),
        "peak_rss_mb": (v["peak_rss_mb"], "MB"),
        "psnr_y_db": (v["psnr_y_db"], "dB"),
        "kbps": (v["kbps"], "kbit/s"),
        "positions_per_mb": (v["positions_per_mb"], "count"),
    }


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run."""
    v = raw["values"]
    mbs = v["replay_mbs"]
    blocks = MB_BLOCKS * mbs
    layer_s = {name: sum(best_of_k(_series(raw, name)))
               for name in ("me", "sad", "mc", "fwd", "inv", "entropy")}
    serial_s = sum(best_of_k(_series(raw, "serial")))
    explained = sum(layer_s[n] for n in ("me", "mc", "fwd", "inv", "entropy"))
    pool_serial = sum(best_of_k(_series(raw, "pool_serial")))
    pool_threaded = sum(best_of_k(_series(raw, "pool_threaded")))
    items = best_of_k(_series(raw, "item"))
    traced = best_of_k(_series(raw, "item_traced"))
    if raw["workload"] == "live_qcif_service":
        overhead = nearest_rank(traced, 0.5) / nearest_rank(items, 0.5)
    else:
        overhead = sum(traced) / sum(items)
    return {
        "me.us_per_mb": (1e6 * layer_s["me"] / mbs, "us"),
        "me.positions_per_mb": (v["replay_positions"] / mbs, "count"),
        "me.critical_pct": (100.0 * v["replay_critical"] / mbs, "%"),
        "sad.ns_per_call": (1e9 * layer_s["sad"] / mbs, "ns"),
        "transform.fwd_ns_per_block": (1e9 * layer_s["fwd"] / blocks, "ns"),
        "transform.inv_ns_per_block": (1e9 * layer_s["inv"] / blocks, "ns"),
        "mc.ns_per_mb": (1e9 * layer_s["mc"] / mbs, "ns"),
        "entropy.ns_per_block": (1e9 * layer_s["entropy"] / blocks, "ns"),
        "entropy.bits_per_mb": (v["replay_entropy_bits"] / mbs, "bit"),
        "model.explained_pct": (100.0 * explained / serial_s, "%"),
        "pool.efficiency_pct": (
            100.0 * pool_serial / (v["nproc"] * pool_threaded), "%"),
        "cpu.busy_pct": (_busy_pct(raw), "%"),
        "trace.overhead_pct": (100.0 * (overhead - 1.0), "%"),
    }


def extra_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Run facts and workload-specific diagnostics (printed, not gated)."""
    v = raw["values"]
    out = {
        "gen_s": (v["gen_s"], "s"),
        "run_s": (v["run_s"], "s"),
        "fail_pct": (100.0 * raw["failed"] / max(raw["attempted"], 1), "%"),
        "passes": (len(_series(raw, "item")), "count"),
        "items": (len(_series(raw, "item")[0]), "count"),
        "nproc": (v["nproc"], "count"),
        "latency_ms_p99": (
            1e3 * nearest_rank(best_of_k(_series(raw, "item")), 0.99), "ms"),
    }
    if raw["workload"] == "live_qcif_service":
        late = [x for p in _series(raw, "late") for x in p]
        out["service.rate_per_session"] = (v["rate_per_session"], "frames/s")
        out["service.busy_pct"] = (_busy_pct(raw), "%")
        out["service.backlog_max"] = (v["backlog_max"], "count")
        out["generator.late_ms_p99"] = (1e3 * nearest_rank(late, 0.99), "ms")
        if raw["trace"]:
            # Latency minus the best serial encode of the same frame; session
            # s encodes sequence s mod 4, so serial items repeat cyclically.
            latency = best_of_k(_series(raw, "item"))
            serial = best_of_k(_series(raw, "serial"))
            wait = [lat - serial[j % len(serial)]
                    for j, lat in enumerate(latency)]
            out["service.wait_ms_p50"] = (1e3 * nearest_rank(wait, 0.5), "ms")
            out["service.wait_ms_p99"] = (1e3 * nearest_rank(wait, 0.99), "ms")
    if raw["workload"] == "decode_cif_lossy":
        out["decoder.concealed_slice_pct"] = (v["concealed_slice_pct"], "%")
        out["decoder.resync_skips"] = (v["resync_skips"], "count")
    return out


def all_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    metrics = e2e_metrics(raw)
    if raw["trace"]:
        metrics.update(layer_metrics(raw))
    metrics.update(extra_metrics(raw))
    return metrics


# ------------------------------------------------------------ build + run


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build(build_dir: Path) -> Path:
    """Configures and builds bench_e2e (both no-ops when up to date);
    cmake's chatter goes to stderr so stdout ends with the result line."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "bench_e2e",
              "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step failed: {e}") from e
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")
    return build_dir / "bench_e2e"


def run_workload(binary: Path, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool, out_dir: Path) -> dict:
    """Runs one workload in its own process and returns its raw JSON."""
    out_dir.mkdir(parents=True, exist_ok=True)
    raw_path = out_dir / f"{workload}.raw.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(raw_path)]
    if trace:
        cmd += ["--trace", "--trace-out", str(out_dir / f"{workload}.trace.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60 + 5 * seconds, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{workload}: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"{workload}: bench_e2e exited {done.returncode}")
    with open(raw_path, encoding="utf-8") as f:
        return json.load(f)


def validate_trace(path: Path) -> list[str]:
    """Problems scripts/validate_trace.py finds in `path`."""
    script = ROOT / "scripts" / "validate_trace.py"
    spec = importlib.util.spec_from_file_location("validate_trace", script)
    if spec is None or not script.exists():
        return [f"{script} not found"]
    module = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True  # leave scripts/ as checked out
    spec.loader.exec_module(module)
    return module.validate_file(str(path))


def measure(binary: Path, workload: str, seed: int, seconds: float,
            trace: bool, smoke: bool, out_dir: Path) -> dict:
    """One workload run, reduced: {metrics, attempted, failed, failures}."""
    raw = run_workload(binary, workload, seed, seconds, trace, smoke, out_dir)
    failures = list(raw["failures"])
    failed = raw["failed"]
    metrics = all_metrics(raw)
    if trace:
        problems = validate_trace(out_dir / f"{workload}.trace.json")
        if problems:
            failed += 1
            failures += [f"trace: {p}" for p in problems[:5]]
        if metrics["me.positions_per_mb"][0] != metrics["positions_per_mb"][0]:
            failed += 1
            failures.append("replayed ME positions differ from the encode's")
        layers = {name: {"value": metrics[name][0], "unit": metrics[name][1],
                         "moves": moves}
                  for name, moves in LAYER_EFFECTS.items()}
        with open(out_dir / f"{workload}.layers.json", "w",
                  encoding="utf-8") as f:
            json.dump(layers, f, indent=2)
    for name, (value, unit) in metrics.items():
        print(f"{workload}/{name} {value!r} {unit}")
    for failure in failures:
        print(f"{workload}/FAILED {failure}")
    return {"metrics": metrics, "attempted": raw["attempted"],
            "failed": failed, "failures": failures}


def contract_line(result: dict, names: list[dict]) -> str:
    """The result line: exactly the listed metrics, units checked."""
    metrics = {}
    for entry in names:
        if entry["name"] not in result["metrics"]:
            raise BenchError(f"metric {entry['name']} was not measured")
        value, unit = result["metrics"][entry["name"]]
        if unit != entry["unit"]:
            raise BenchError(f"{entry['name']}: unit {unit} != {entry['unit']}")
        if not math.isfinite(value):
            raise BenchError(f"{entry['name']}: {value} is not finite")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def spread_table(runs: list[dict]) -> None:
    """Median, min, max, max/min and IQR/median of every metric."""
    print("\nworkload/metric median min max max/min iqr/median (n)")
    for workload in WORKLOADS:
        per_run = [r[workload]["metrics"] for r in runs if workload in r]
        if not per_run:
            continue
        for name, (_, unit) in per_run[0].items():
            values = [m[name][0] for m in per_run]
            med = statistics.median(values)
            lo, hi = min(values), max(values)
            ratio = hi / lo if lo > 0 else float("nan")
            iqr = float("nan")
            if len(values) >= 2 and med != 0:
                q = statistics.quantiles(values, n=4)
                iqr = (q[2] - q[0]) / abs(med)
            print(f"{workload}/{name} {med:.6g} {lo:.6g} {hi:.6g} "
                  f"{ratio:.4f} {iqr:.4f} ({len(values)}) {unit}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print the result line")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--build", default=".bench_build",
                        help="build directory (relative to the repo root)")
    parser.add_argument("--trace-dir", default=None,
                        help="where traced runs write traces (default: "
                             "<build>/traces)")
    parser.add_argument("--out", default=None,
                        help="merged JSON of every run (default: "
                             "<build>/e2e_results.json)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="warm-up plus two passes per workload")
    args = parser.parse_args(argv)

    try:
        contract = load_contract()
        seconds = args.seconds or contract["run_seconds"]
        build_dir = ROOT / args.build
        binary = build(build_dir)
        out_dir = Path(args.trace_dir) if args.trace_dir else build_dir / "traces"
        if args.workload:
            result = measure(binary, args.workload, args.seed, seconds,
                             bool(args.trace), args.smoke, out_dir)
            names = contract["per_layer" if args.trace else "end_to_end"]
            print(contract_line(result, names))
            return 0 if result["failed"] == 0 else 1

        runs = []
        for i in range(args.repeat):
            seed = args.seed + i
            runs.append({w: measure(binary, w, seed, seconds, bool(args.trace),
                                    args.smoke, out_dir) for w in WORKLOADS})
        if args.repeat > 1:
            spread_table(runs)
    except BenchError as e:
        print(f"bench_e2e: {e}", file=sys.stderr)
        return 1

    out = Path(args.out) if args.out else build_dir / "e2e_results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"seed": args.seed, "seconds": seconds, "runs": runs}, f,
                  indent=1)
    failed = sum(r[w]["failed"] for r in runs for w in r)
    print(f"[json] {out}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
