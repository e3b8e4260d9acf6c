"""Layered benchmark of gtfaces: end-to-end metrics per workload, and
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run starts every pass in a fresh interpreter (perfbench/worker.py), one
after another, so the memos of gtfaces start cold in each pass and no two
passes compete for the CPU.  It repeats the timed pass until --seconds
have passed, each after SETUPS_PER_PASS interpreters that stop at the
first timed call.  Times are scaled to a reference host speed, measured
by probes between items (see worker.calibrate).  With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones; the ratio of their wall times is the tracing
overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Full results, run metadata and
the traced spans go to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("wide", "families", "oracle")
SETUPS_PER_PASS = 2
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.f_calls": "count",
    "engine.nodes_expanded": "count",
    "engine.children": "count",
    "engine.children_distinct": "count",
    "engine.child_dedup_ratio": "ratio",
    "engine.enum_s": "s",
    "engine.fiber_child_s": "s",
    "engine.self_s": "s",
    "signatures.canonicalize_calls": "count",
    "signatures.canonicalize_s": "s",
    "poly.mul_calls": "count",
    "poly.mul_s": "s",
    "poly.mul_coeff_products": "count",
    "poly.add_calls": "count",
    "poly.add_s": "s",
    "poly.shift_s": "s",
    "poly.max_coeff_bits": "bits",
    "families.phi_s": "s",
    "families.closed_s": "s",
    "families.matrix_s": "s",
    "families.series_s": "s",
    "lattice.vertex_s": "s",
    "lattice.vertices": "count",
    "lattice.closure_rank_s": "s",
    "lattice.faces": "count",
    "lattice.fiber_check_s": "s",
    "setup.import_s": "s",
    "setup.generate_s": "s",
    "bench.other_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.spans": "count",
    "trace.wall_ratio": "ratio",
}

# self-time metrics summed into a layer's share of the traced item time
LAYER_TIMES = {
    "engine": ("engine.enum_s", "engine.fiber_child_s", "engine.self_s"),
    "signatures": ("signatures.canonicalize_s",),
    "poly": ("poly.mul_s", "poly.add_s", "poly.shift_s"),
    "families": ("families.phi_s", "families.closed_s", "families.matrix_s",
                 "families.series_s"),
    "lattice": ("lattice.vertex_s", "lattice.closure_rank_s", "lattice.fiber_check_s"),
    "bench": ("bench.other_s",),
}


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def launch(workload: str, seed: int, mode: str, smoke: bool,
           spans_out: Path | None = None) -> dict[str, Any]:
    """Run one pass in a fresh interpreter and wait for it to end."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if smoke:
        cmd.append("--smoke")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    cmd += ["--launched-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} pass exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} pass exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_ms(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    level: the 11th-largest latency, percentile 100 * (1 - 10/n)."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (1 - 10 / len(ordered))


def median_of(passes: list[dict], fn) -> float:
    return statistics.median(fn(p) for p in passes)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "commit": git_commit(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    """One run: timed passes until ``seconds`` elapse, each after
    SETUPS_PER_PASS interpreters that stop at the first timed call."""
    RESULTS.mkdir(exist_ok=True)
    if trace:
        for old in RESULTS.glob(f"{workload}-pass*.spans.tsv.gz"):
            old.unlink()
    modes = ("plain", "traced") if trace else ("plain",)
    setups: list[dict] = []
    passes: list[dict] = []
    start = time.monotonic()
    while len(passes) < len(modes) or time.monotonic() - start < seconds:
        # set-up runs spread over the run, so that their median is not
        # taken in one phase of the machine's other load
        setups += [launch(workload, seed, "setup", smoke) for _ in range(SETUPS_PER_PASS)]
        mode = modes[len(passes) % len(modes)]
        spans = RESULTS / f"{workload}-pass{len(passes)}.spans.tsv.gz"
        passes.append(launch(workload, seed, mode, smoke,
                             spans if mode == "traced" else None))

    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    children = setups + passes
    # Every pass runs the same items in the same order; an item's latency is
    # its mean over the passes, at the reference host speed (worker.py).
    item_ms = [statistics.fmean(r) for r in zip(*(p["latencies_ref_ms"] for p in plain))]
    raw_ms = [statistics.fmean(r) for r in zip(*(p["latencies_ms"] for p in plain))]
    notes: dict[str, str] = {}
    if trace:
        metrics = {name: median_of(traced, lambda p, n=name: p["layers"][n])
                   for name in PER_LAYER_UNITS
                   if not name.startswith(("setup.", "trace.wall_ratio"))}
        metrics["setup.import_s"] = median_of(children, lambda p: p["import_s"])
        metrics["setup.generate_s"] = median_of(children, lambda p: p["generate_s"])
        metrics["trace.wall_ratio"] = (
            statistics.fmean(sum(p["latencies_ref_ms"]) for p in traced)
            / statistics.fmean(sum(p["latencies_ref_ms"]) for p in plain))
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "items_per_s": len(item_ms) / (sum(item_ms) / 1e3),
            "item_ms_p50": statistics.median(item_ms),
            "item_ms_tail": tail_ms(item_ms)[0],
            "setup_s": median_of(children, lambda p: p["setup_ref_s"]),
            "peak_rss_mb": median_of(plain, lambda p: p["peak_rss_mb"]),
        }
        units = END_TO_END_UNITS
        notes["items_per_s"] = f"raw {len(raw_ms) / (sum(raw_ms) / 1e3):.6g}"
        notes["item_ms_p50"] = f"raw {statistics.median(raw_ms):.6g}"
        notes["item_ms_tail"] = (f"raw {tail_ms(raw_ms)[0]:.6g}; p{tail_ms(item_ms)[1]:.1f} "
                                 f"of {len(item_ms)} items, each the mean of {len(plain)} passes")
        notes["setup_s"] = (f"raw {median_of(children, lambda p: p['setup_s']):.6g}; "
                            f"median of {len(children)} interpreters")
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mismatches = [m for p in passes for m in p["mismatches"]]
    warm = [p["pid"] for p in children if not p["cold"]]
    problems = ([m for p in passes for m in p["raised"]] + mismatches
                + [f"pid {pid} started with a warm memo" for pid in warm])
    correct = not mismatches and not warm
    notes["failed_frac"] = f"{failed / attempted:.4g} ({failed} of {attempted} items)"
    summary = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    meta = run_metadata(workload, seed, seconds, trace, smoke)
    meta["passes"] = {"plain": len(plain), "traced": len(traced), "setup": len(setups)}
    meta["host_probe_ms"] = median_of(children, lambda p: p["probe_ms"])
    (RESULTS / f"{workload}-trace{trace}.json").write_text(json.dumps(
        {"meta": meta, "summary": summary, "notes": notes, "problems": problems,
         "children": children}, indent=1) + "\n")
    report(meta, summary, notes, problems)
    return summary


def report(meta: dict, summary: dict, notes: dict, problems: list[str]) -> None:
    """Human-readable lines; the JSON line is printed by the caller."""
    print("# " + " ".join(f"{k}={json.dumps(v)}" for k, v in meta.items()))
    metrics = summary["metrics"]
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{meta['workload']:9s} {name:30s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"{meta['workload']:9s} {'failed_frac':30s} {notes['failed_frac']}")
    if meta["trace"]:
        total = sum(metrics[n]["value"] for names in LAYER_TIMES.values() for n in names)
        shares = ", ".join(
            f"{layer} {sum(metrics[n]['value'] for n in names) / total:.1%}"
            for layer, names in LAYER_TIMES.items()) if total else "no traced time"
        print(f"{meta['workload']:9s} self-time shares: {shares}")
    for msg in problems[:10]:
        print(f"{meta['workload']:9s} PROBLEM {msg}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both, with --workload all)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args()
    # a terminated run still stops and waits for the pass it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "gtfaces" / "__init__.py").is_file():
        print(f"run.py: no gtfaces source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (args.trace,) if args.trace is not None else (
        (0, 1) if args.workload == "all" else (0,))
    try:
        runs = {(w, t): measure(w, args.seed, args.seconds, t, args.smoke)
                for w in workloads for t in traces}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(runs) == 1:
        summary = next(iter(runs.values()))
    else:
        summary = {
            "correct": all(s["correct"] for s in runs.values()),
            "attempted": sum(s["attempted"] for s in runs.values()),
            "failed": sum(s["failed"] for s in runs.values()),
            "metrics": {f"{w}.{name}": m for (w, _), s in runs.items()
                        for name, m in s["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
