"""One benchmark pass in a fresh interpreter.

The pass imports gtfaces from the checkout's src/, builds the seeded inputs
of one workload, times every item, and only then checks every output,
outside the timed region.  Between items it runs a host-speed probe
(``calibrate``), by which each latency is also scaled to a reference host
speed.  It prints one JSON object as its last line of standard output.  perfbench/run.py starts one of these per pass, so the
module-level memos of gtfaces (``engine._DEFAULT_ENGINE``,
``families.phi``) start cold in every pass, as they do for every CLI call.

Modes:
  setup   import and generate, then stop at the first timed call
  plain   the timed pass, with no tracing
  traced  the same pass with spans around the public functions of every
          layer; spans are written to --spans-out
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from array import array
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Sizes of each workload; the smoke sizes serve the benchmark's self-tests.
SIZES = {
    False: {"wide_s": (7, 8, 9), "wide_n": 112, "families_k": 70, "oracle_max_s": 5},
    True: {"wide_s": (4, 5, 6), "wide_n": 14, "families_k": 8, "oracle_max_s": 3},
}
FAMILIES = ("12k3", "123k", "223k")
# Host-speed probe: a fixed pure-Python loop, about 2 ms, run between items.
CAL_ITERATIONS = 600
# Times are reported as on a host where the probe takes CAL_REF_NS.
CAL_REF_NS = 2_000_000
# An item's host speed is the mean of the probes within this many items.
CAL_WINDOW = 5
# GZ(2^2 3^3), whose h-vector `verify --adjudicate-223-k3` settles
ADJUDICATED = (2, 3)


def load_gtfaces() -> Any:
    """Import gtfaces and its CLI from the checkout; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    gt = importlib.import_module("gtfaces")
    importlib.import_module("gtfaces.cli")
    if Path(gt.__file__).resolve().parent != SRC / "gtfaces":
        raise SystemExit(f"gtfaces imported from {gt.__file__}, not from {SRC}")
    return gt


def compositions(total: int) -> list[tuple[int, ...]]:
    """All compositions of ``total`` into positive parts, lexicographically."""
    if total == 0:
        return [()]
    return [(first,) + rest for first in range(1, total + 1)
            for rest in compositions(total - first)]


def reverse_normal(mults: tuple[int, ...]) -> tuple[int, ...]:
    return min(mults, mults[::-1])


def load_reference() -> dict[tuple[int, ...], dict[str, Any]]:
    raw = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return {tuple(int(x) for x in key.split(",")): row for key, row in raw.items()}


def calibrate() -> int:
    """Nanoseconds this host takes for a fixed pure-Python loop of the kind
    gtfaces runs: Fractions, tuples, dict updates."""
    t0 = time.perf_counter_ns()
    acc: dict[int, int] = {}
    for i in range(CAL_ITERATIONS):
        key = (i % 97, Fraction(i, 7) + Fraction(1, 2))
        acc[key[0]] = acc.get(key[0], 0) + key[1].numerator % 5
    return time.perf_counter_ns() - t0


# --------------------------------------------------------------- checks
# Written without gtfaces, so that a defect there cannot hide in the check.

def dimension(mults: tuple[int, ...]) -> int:
    s = sum(mults)
    return (s * s - sum(m * m for m in mults)) // 2


def h_to_f(h: tuple[int, ...]) -> tuple[int, ...]:
    """f(t) = h(t + 1)."""
    f = tuple(sum(h[j] * comb(j, d) for j in range(d, len(h))) for d in range(len(h)))
    return f[:max((i + 1 for i, c in enumerate(f) if c), default=0)]


def f_to_h(f: tuple[int, ...]) -> tuple[int, ...]:
    """h(t) = f(t - 1)."""
    h = tuple(sum(f[d] * comb(d, j) * (-1) ** (d - j) for d in range(j, len(f)))
              for j in range(len(f)))
    return h[:max((i + 1 for i, c in enumerate(h) if c), default=0)]


# ------------------------------------------------------------ workloads
# Each workload has generate(gt, seed, size) -> items, run(gt, item, state)
# -> output (timed), and check(item, output, reference) -> error or None.

def wide_generate(gt: Any, seed: int, size: dict) -> list:
    """Stratified sample of wide_n compositions of the lengths wide_s.

    The population, ordered by the cold work the seed engine spent on each
    composition (committed in reference.json), is cut into wide_n strata of
    equal size, and the seed picks one composition in each.  Every
    composition has the same inclusion probability, and every seed gets the
    same mix of cheap and expensive signatures."""
    ref = load_reference()
    rng = random.Random(f"wide:{seed}")
    population = sorted((m for s in size["wide_s"] for m in compositions(s)),
                        key=lambda m: (ref[reverse_normal(m)]["cold_fiber_children"], m))
    per, rest = divmod(len(population), size["wide_n"])
    if rest:
        raise ValueError(f"{size['wide_n']} does not divide {len(population)} compositions")
    sample = [rng.choice(population[i:i + per]) for i in range(0, len(population), per)]
    rng.shuffle(sample)
    return [gt.Signature(m) for m in sample]


def wide_run(gt: Any, sig: Any, state: dict) -> Any:
    # a fresh engine per item, like separate `gtfaces f` calls
    return gt.engine.FaceCountEngine().f_polynomial(sig)


def wide_check(sig: Any, f: Any, ref: dict) -> str | None:
    got = f.coeffs
    want = tuple(ref[reverse_normal(sig.mults)]["f"])
    if got != want:
        return f"{sig.mults}: f {got} != reference {want}"
    if sum(c * (-1) ** d for d, c in enumerate(got)) != 1:
        return f"{sig.mults}: f(-1) != 1"
    if len(got) - 1 != dimension(sig.mults):
        return f"{sig.mults}: deg f {len(got) - 1} != dimension {dimension(sig.mults)}"
    return None


def families_generate(gt: Any, seed: int, size: dict) -> list:
    """Every k in 0..K for each family, ascending in k as `family --check`
    runs them.  At each k the seed orders the three families, which decides
    which of them pays for the engine nodes they share."""
    rng = random.Random(f"families:{seed}")
    kmax = size["families_k"]
    return [(fam, k, kmax) for k in range(kmax + 1)
            for fam in rng.sample(FAMILIES, len(FAMILIES))]


def families_run(gt: Any, item: tuple, state: dict) -> dict:
    fam, k, kmax = item
    fm = gt.families
    out = {"closed": fm.family_h(fam, k)}
    if fam == "12k3":
        out["f_12k3"] = fm.f_12k3(k)
    else:
        pair = fm.h_pair_matrix(k)
        out["matrix"] = pair.h_123k if fam == "123k" else pair.h_223k
        if fam not in state:
            # once per family up to K, paid by its first item
            state[fam] = gt.poly.series_coeffs(fm.generating_function(fam), kmax)
        out["series"] = state[fam][k]
    # the engine's memo is shared across k, as `family --check` shares it
    out["engine"] = gt.engine.h_polynomial(fm.family_signature(fam, k))
    return out


def families_check(item: tuple, out: dict, ref: dict) -> str | None:
    fam, k, _ = item
    vectors = {route: p.coeffs for route, p in out.items() if route != "f_12k3"}
    if len(set(vectors.values())) != 1:
        return f"{fam} k={k}: routes disagree: {vectors}"
    if "f_12k3" in out and out["f_12k3"].coeffs != h_to_f(vectors["closed"]):
        return f"{fam} k={k}: f_12k3 {out['f_12k3'].coeffs} != f from h"
    return None


def oracle_generate(gt: Any, seed: int, size: dict) -> list:
    """The `verify` sweep in its order: the face lattice of every signature
    by ascending length up to oracle_max_s, then the fiber checks of
    cli.FIBER_CHECK_SIGNATURES that fit, then the GZ(2^2 3^3) adjudication.
    The seed orders the items within each length and the fiber checks.
    By ascending length the shared engine has every child of a signature
    cached when it gets there, as under `verify`."""
    rng = random.Random(f"oracle:{seed}")
    items = []
    for s in range(1, size["oracle_max_s"] + 1):
        items += [("lattice", m) for m in rng.sample(compositions(s), 2 ** (s - 1))]
    fibers = [m for m in gt.cli.FIBER_CHECK_SIGNATURES if sum(m) <= size["oracle_max_s"]]
    items += [("fiber", m) for m in rng.sample(fibers, len(fibers))]
    items.append(("adjudicate", ADJUDICATED))
    return items


def oracle_run(gt: Any, item: tuple, state: dict) -> tuple:
    kind, mults = item
    sig = gt.Signature(mults)
    if kind == "lattice":
        return gt.lattice.face_lattice(sig).f_vector, gt.engine.f_polynomial(sig).coeffs
    if kind == "fiber":
        report = gt.lattice.fiber_decomposition_check(sig)
        return report.ok, report.failures[:1]
    closed = gt.families.h_223k(mults[1])
    return (closed.coeffs, gt.engine.h_polynomial(sig).coeffs,
            gt.lattice.face_lattice(sig).f_vector)


def oracle_check(item: tuple, out: tuple, ref: dict) -> str | None:
    kind, mults = item
    if kind == "lattice":
        oracle, engine = out
        return None if oracle == engine else f"{mults}: oracle {oracle} != engine {engine}"
    if kind == "fiber":
        ok, failures = out
        return None if ok else f"{mults}: fiber check failed: {failures}"
    closed, engine, oracle_f = out
    oracle = f_to_h(oracle_f)
    if not closed == engine == oracle:
        return f"{mults}: closed {closed}, engine {engine}, oracle {oracle} disagree"
    return None


WORKLOADS: dict[str, tuple[Callable, Callable, Callable]] = {
    "wide": (wide_generate, wide_run, wide_check),
    "families": (families_generate, families_run, families_check),
    "oracle": (oracle_generate, oracle_run, oracle_check),
}


# -------------------------------------------------------------- tracing

class Tracer:
    """In-memory spans around the public functions of each layer.

    A span records its name, start, end, parent span and item id.  Self
    time (duration minus the time covered by child spans) is accumulated
    per name as spans close.  The tracer's own bookkeeping after a span
    closes is charged to ``trace.bookkeeping`` instead of the parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {}
        self.stack: list[list[int]] = []  # [span id, ns covered by children]
        self.item = -1
        self.next_id = 0
        self.bookkeeping_ns = 0
        self.spans = {field: array("q") for field in
                      ("span", "parent", "item", "name", "start", "end")}
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable,
             post: Callable[[tuple, Any], None] | None = None) -> Callable:
        if name not in self.names:
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        nid = self.names.index(name)
        clock = time.perf_counter_ns
        stack, self_ns, calls = self.stack, self.self_ns, self.calls
        rec = self.spans
        rec_span, rec_parent, rec_item = rec["span"], rec["parent"], rec["item"]
        rec_name, rec_start, rec_end = rec["name"], rec["start"], rec["end"]
        tracer = self
        missing = object()

        def traced(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            result = missing
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                self_ns[nid] += t1 - t0 - frame[1]
                calls[nid] += 1
                rec_span.append(sid)
                rec_parent.append(parent)
                rec_item.append(tracer.item)
                rec_name.append(nid)
                rec_start.append(t0)
                rec_end.append(t1)
                if post is not None and result is not missing:
                    post(args, result)
                t2 = clock()
                tracer.bookkeeping_ns += t2 - t1
                if stack:
                    stack[-1][1] += t2 - t0

        return traced

    def patch(self, obj: Any, attr: str, name: str,
              post: Callable[[tuple, Any], None] | None = None) -> None:
        original = getattr(obj, attr)
        self._restore.append((obj, attr, original))
        setattr(obj, attr, self.wrap(name, original, post))

    def unpatch(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key: str, n: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), n)

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns[self.names.index(n)] for n in names if n in self.names) / 1e9

    def n_calls(self, name: str) -> int:
        return self.calls[self.names.index(name)] if name in self.names else 0

    def write(self, path: Path) -> None:
        cols = self.spans
        origin = cols["start"][0] if cols["start"] else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tparent\titem\tname\tstart_ns\tend_ns\n")
            for sid, parent, item, nid, start, end in zip(
                    cols["span"], cols["parent"], cols["item"], cols["name"],
                    cols["start"], cols["end"]):
                out.write(f"{sid}\t{parent}\t{item}\t{self.names[nid]}\t"
                          f"{start - origin}\t{end - origin}\n")


def instrument(gt: Any, tracer: Tracer) -> None:
    """Wrap the public functions and methods the modules call by name."""
    eng, fam, lat, poly = gt.engine, gt.families, gt.lattice, gt.poly
    IntPoly = poly.IntPoly

    def children(args: tuple, result: list) -> None:
        tracer.count("engine.children", len(result))
        tracer.count("engine.children_distinct", len(
            {(fc.cube_dim, reverse_normal(fc.child.mults)) for fc in result}))

    def mul(args: tuple, result: Any) -> None:
        a, b = args
        tracer.count("poly.mul_coeff_products",
                     len(a.coeffs) * (len(b.coeffs) if isinstance(b, IntPoly) else 1))
        if result.coeffs:
            tracer.maximum("poly.max_coeff_bits",
                           max(abs(c) for c in result.coeffs).bit_length())

    tracer.patch(eng.FaceCountEngine, "f_polynomial", "engine.f_polynomial")
    tracer.patch(eng, "cube_children", "engine.cube_children", children)
    tracer.patch(lat, "cube_children", "engine.cube_children", children)
    tracer.patch(eng, "fiber_child", "engine.fiber_child")
    tracer.patch(eng, "canonicalize", "signatures.canonicalize")
    for attr in ("__mul__", "__rmul__"):
        tracer.patch(IntPoly, attr, "poly.mul", mul)
    for attr in ("__add__", "__radd__"):
        tracer.patch(IntPoly, attr, "poly.add")
    tracer.patch(IntPoly, "shift", "poly.shift")
    tracer.patch(fam, "phi", "families.phi")
    for attr in ("family_h", "f_12k3", "h_12k3", "h_123k", "h_223k"):
        tracer.patch(fam, attr, "families.closed")
    tracer.patch(fam, "h_pair_matrix", "families.matrix")
    tracer.patch(fam, "generating_function", "families.series")
    tracer.patch(poly, "series_coeffs", "families.series")
    tracer.patch(lat, "enumerate_vertices", "lattice.enumerate_vertices",
                 lambda args, result: tracer.count("lattice.vertices", len(result)))
    tracer.patch(lat, "face_lattice", "lattice.face_lattice",
                 lambda args, result: tracer.count("lattice.faces", len(result.faces)))
    tracer.patch(lat, "fiber_decomposition_check", "lattice.fiber_check")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass; times are self times."""
    c = tracer.counts
    children = c.get("engine.children", 0)
    return {
        "engine.f_calls": tracer.n_calls("engine.f_polynomial"),
        "engine.nodes_expanded": tracer.n_calls("engine.cube_children"),
        "engine.children": children,
        "engine.children_distinct": c.get("engine.children_distinct", 0),
        "engine.child_dedup_ratio":
            c.get("engine.children_distinct", 0) / children if children else 0.0,
        "engine.enum_s": tracer.self_s("engine.cube_children"),
        "engine.fiber_child_s": tracer.self_s("engine.fiber_child"),
        "engine.self_s": tracer.self_s("engine.f_polynomial"),
        "signatures.canonicalize_calls": tracer.n_calls("signatures.canonicalize"),
        "signatures.canonicalize_s": tracer.self_s("signatures.canonicalize"),
        "poly.mul_calls": tracer.n_calls("poly.mul"),
        "poly.mul_s": tracer.self_s("poly.mul"),
        "poly.mul_coeff_products": c.get("poly.mul_coeff_products", 0),
        "poly.add_calls": tracer.n_calls("poly.add"),
        "poly.add_s": tracer.self_s("poly.add"),
        "poly.shift_s": tracer.self_s("poly.shift"),
        "poly.max_coeff_bits": c.get("poly.max_coeff_bits", 0),
        "families.phi_s": tracer.self_s("families.phi"),
        "families.closed_s": tracer.self_s("families.closed"),
        "families.matrix_s": tracer.self_s("families.matrix"),
        "families.series_s": tracer.self_s("families.series"),
        "lattice.vertex_s": tracer.self_s("lattice.enumerate_vertices"),
        "lattice.vertices": c.get("lattice.vertices", 0),
        "lattice.closure_rank_s": tracer.self_s("lattice.face_lattice"),
        "lattice.faces": c.get("lattice.faces", 0),
        "lattice.fiber_check_s": tracer.self_s("lattice.fiber_check"),
        "bench.other_s": tracer.self_s("bench.item"),
        "trace.bookkeeping_s": tracer.bookkeeping_ns / 1e9,
        "trace.spans": tracer.next_id,
    }


# ----------------------------------------------------------------- pass

def is_cold(gt: Any) -> bool:
    """True while no module-level memo of gtfaces holds a computed value."""
    return len(gt.families.phi._cache) == 2 and not gt.engine._DEFAULT_ENGINE._cache


def run_pass(workload: str, seed: int, smoke: bool, mode: str,
             launched_ns: int | None = None, spans_out: Path | None = None) -> dict:
    """Run one pass in this interpreter and return its raw measurements."""
    t_start = time.monotonic_ns()
    gt = load_gtfaces()
    t_imported = time.monotonic_ns()
    generate, run, check = WORKLOADS[workload]
    size = SIZES[smoke]
    items = generate(gt, seed, size)
    t_generated = time.monotonic_ns()
    result: dict[str, Any] = {
        "mode": mode,
        "pid": os.getpid(),
        "import_s": (t_imported - t_start) / 1e9,
        "generate_s": (t_generated - t_imported) / 1e9,
        "setup_s": (t_generated - launched_ns) / 1e9 if launched_ns else None,
        "cold": is_cold(gt),
        "items": len(items),
    }
    # host speed right after set-up; the probes do not count as set-up
    probes = [calibrate() for _ in range(2 * CAL_WINDOW + 1)]
    result["probe_ms"] = statistics.fmean(probes) / 1e6
    result["setup_ref_s"] = result["setup_s"] and (
        result["setup_s"] * CAL_REF_NS / statistics.fmean(probes))
    if mode == "setup":
        return result

    tracer = None
    call = run
    if mode == "traced":
        tracer = Tracer()
        instrument(gt, tracer)
        call = tracer.wrap("bench.item", run)
    state: dict = {}
    outputs: list = []
    errors: list[str] = []
    latencies_ms: list[float] = []
    clock = time.perf_counter_ns
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        try:
            out = call(gt, item, state)
        except Exception as exc:  # an item that raises is a failed item
            out = None
            errors.append(f"{item}: {type(exc).__name__}: {exc}")
        elapsed = clock() - t0
        probes.append(calibrate())
        latencies_ms.append(elapsed / 1e6)
        outputs.append(out)
    # probes[2 * CAL_WINDOW + i] ran just before item i, the next one just after
    latencies_ref_ms = [
        ms * CAL_REF_NS / statistics.fmean(probes[i + CAL_WINDOW:i + 3 * CAL_WINDOW + 2])
        for i, ms in enumerate(latencies_ms)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.unpatch()

    ref = load_reference() if workload == "wide" else {}
    mismatches = [msg for item, out in zip(items, outputs) if out is not None
                  for msg in [check(item, out, ref)] if msg]
    result.update({
        "latencies_ms": latencies_ms,
        "latencies_ref_ms": latencies_ref_ms,
        "probe_ms": statistics.fmean(probes) / 1e6,
        "probes_ns": probes,
        "raised": errors,
        "mismatches": mismatches,
        "failed": len(errors) + len(mismatches),
        "peak_rss_mb": rss_kb / 1024,
    })
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        if spans_out is not None:
            tracer.write(spans_out)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--launched-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before the launch")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.smoke, args.mode,
                      args.launched_ns, args.spans_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
