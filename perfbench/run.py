"""The surfgraph benchmark: seeded workloads run through the command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the library is imported from `src/`
and nothing is installed.  `--workload all` runs every workload in turn,
each in its own process.
The workloads, metrics and checks are described in perfbench/README.md.

With `--trace 0` the run sets up several times, then repeats passes of
the workload until `--seconds` have gone, each operation in a fresh
interpreter, and reports the end-to-end metrics.  With `--trace 1` it
also makes one traced pass (perfbench/tracer.py) and reports the
per-layer metrics instead.  Outputs are checked against references the
timed code did not produce.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from maps import Shape, class_counts, proper_colourings, workload_maps  # noqa: E402
from tracer import CHARGED_TO_CALLER, LAYERS  # noqa: E402

ROOT = Path.cwd()
KINDS = ("tension", "flow", "local-tension", "balanced-flow")
CLASSES = ("ao", "tco", "bao", "tbo")
# |p(-1)| of each polynomial counts one orientation class.
CLASS_OF_KIND = {"tension": "ao", "flow": "tco", "local-tension": "bao", "balanced-flow": "tbo"}

CENSUS_MAPS = 107
CENSUS_IDENTITIES = 1926
SETUP_TRIALS = 7
# Wall budget of one frontier call: well above the slowest 7-edge call
# (about 4 s) and well below the 16-34 s the 8-edge scans run before
# their guard fires.
FRONTIER_BUDGET_S = 10.0
# Wall budget of one whole ladder, which keeps a run inside its time
# limit however slowly the rungs pass.
FRONTIER_PASS_BUDGET_S = 60.0

# Per-layer metric -> the end-to-end metric and workload it should move.
MOVES = {
    "generator.generate.self_s": "wall_s, ops_per_s on census4; zero elsewhere",
    "generator.labelings": "wall_s, ops_per_s on census4 (computed: (2m)! per generate call)",
    "generator.maps_yielded": "ops_per_s on census4",
    "generator.yield_ratio": "wall_s on census4",
    "ribbonmap.surgery.calls": "wall_s on census4",
    "ribbonmap.surgery.self_s": "wall_s on census4",
    "ribbonmap.dual.self_s": "wall_s on census4",
    "ribbonmap.build.self_s": "wall_s on census4",
    "orientations.count_class.<cls>.self_s": "wall_s, op_p50_s on classes14; then wall_s on census4",
    "orientations.count_class.<cls>.calls": "wall_s, op_p50_s on classes14; then wall_s on census4",
    "orientations.orientations_scanned": "wall_s, op_p50_s on classes14 (computed: 2^E per scan)",
    "orientations.enumerate_class.self_s": "wall_s on classes14 and census4",
    "orientations.tbo_histogram.self_s": "wall_s, op_p50_s on classes14",
    "orientations.tbo_generating_poly_formula.self_s": "wall_s, op_p50_s on classes14",
    "enumeration.count.<kind>.self_s": "wall_s, max_edges_poly on frontier",
    "enumeration.count.<kind>.calls": "wall_s, max_edges_poly on frontier",
    "enumeration.assignment_rows": "wall_s, max_edges_poly on frontier "
    "(computed: base^E per scan)",
    "enumeration.poly.<kind>.self_s": "wall_s, max_edges_poly on frontier",
    "enumeration.pairs.<kind>.self_s": "wall_s on census4 (mostly cache hits)",
    "enumeration.pairs.surgeries": "wall_s on census4",
    "enumeration.pairs.class_cache_hit_ratio": "wall_s on census4",
    "enumeration.quasi.self_s": "wall_s on census4",
    "enumeration.integral_pairs.self_s": "wall_s on census4",
    "polynomials.lagrange.self_s": "wall_s on census4 and frontier",
    "polynomials.lagrange.calls": "wall_s on census4 and frontier",
    "polynomials.fit_quasipolynomial.self_s": "wall_s on census4",
    "guards.refusals": "max_edges_poly on frontier; zero elsewhere",
    "guards.budget_kills": "max_edges_poly, wall_s on frontier; zero elsewhere",
    "guards.time_to_refusal_s": "wall_s on frontier; zero elsewhere",
    "cli.verify.calls": "ops_per_s on census4",
    "cli.verify.p50_s": "wall_s on census4",
    "cli.verify.p90_s": "wall_s on census4",
    "cli.batch.generate_s": "wall_s on census4",
    "cli.batch.sum_map_s": "wall_s on census4 (untraced; compare with wall_s)",
    "<layer>.self_s": "wall_s on the workloads where that layer works",
    "trace.wall_s": "none: traced wall time, the sum of every self time and outside_spans_s",
    "trace.outside_spans_s": "none: interpreter start, imports and argument parsing",
    "trace.overhead_s": "none: traced wall minus untraced wall of the same operations",
}


# -- running the command line -------------------------------------------------


def _env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _spawn(argv: list[str], stdin: str | None, timeout: float | None) -> dict:
    """Run one process to completion, or kill it at the timeout; time it."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    killed = False
    try:
        out, err = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    wall = time.perf_counter() - t0
    return {"wall": wall, "rc": proc.returncode, "out": out, "err": err, "killed": killed}


class Op:
    """One command-line call: the unit a user waits for."""

    def __init__(self, label: str, args: list[str], doc: dict | None, edges: int):
        self.label, self.args, self.doc, self.edges = label, args, doc, edges

    def run(self, traced: bool, budget: float | None = None) -> dict:
        stdin = json.dumps(self.doc) if self.doc is not None else ""
        if not traced:
            r = _spawn([sys.executable, "-m", "surfgraph", *self.args], stdin, budget)
            r["trace"] = None
            return r
        pre = ["--budget", str(budget)] if budget else []
        r = _spawn(
            [sys.executable, str(HERE / "tracer.py"), *pre, "--", *self.args],
            stdin,
            budget + 30 if budget else None,
        )
        r["trace"] = None
        if r["rc"] == 0 and r["out"].strip():
            rec = json.loads(r["out"].strip().splitlines()[-1])
            r.update(trace=rec, rc=rec["rc"], out=rec["stdout"], killed=rec["killed"])
        return r


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# -- workloads ------------------------------------------------------------------


class Workload:
    """Ops, the checks on their outputs, and what the workload reports."""

    name = ""
    # The median op latency is reported where each op is timed on its own:
    # census4 times whole batches, and the frontier ladder ends in its stop call.
    reports_op_p50 = False

    def __init__(self, seed: int):
        self.seed = seed
        self.docs = workload_maps(self.name, seed)
        self.shapes = [Shape(d) for d in self.docs]
        self._refs: dict[int, dict] = {}

    def ref(self, i: int) -> dict:
        """Reference class counts of input i, computed once, outside the timed passes."""
        if i not in self._refs:
            self._refs[i] = class_counts(self.shapes[i])
        return self._refs[i]

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def run_pass(self, traced: bool) -> list[tuple[Op, dict]]:
        return [(op, op.run(traced)) for op in self.ops()]

    def check(self, op: Op, r: dict) -> str | None:
        """None when the output is right, else what is wrong."""
        raise NotImplementedError

    def op_count(self, results) -> int:
        """Operations completed."""
        return len(results)

    def attempted(self, results) -> int:
        return len(results)

    def failed(self, results) -> tuple[int, list[str]]:
        """Operations that raised, were refused or gave a wrong answer."""
        problems = []
        for op, r in results:
            msg = self.check(op, r)
            if msg:
                problems.append(f"{op.label}: {msg}")
        return len(problems), problems


class Census4(Workload):
    name = "census4"

    def __init__(self, seed: int, jobs: int = 1):
        super().__init__(seed)
        self.jobs = jobs

    def ops(self):
        args = ["batch", "--edges", "4", "--kmax", "3", "--jobs", str(self.jobs)]
        return [Op("batch", args, None, 4)]

    def check(self, op, r):
        if r["rc"] != 0:
            return f"exit code {r['rc']}"
        rep = json.loads(r["out"])
        if rep["graphs"] != CENSUS_MAPS or rep["identities_checked"] != CENSUS_IDENTITIES:
            return f"{rep['graphs']} maps and {rep['identities_checked']} identities"
        if not rep["all_pass"] or rep["failures"]:
            return f"{len(rep['failures'])} identities failed"
        return None

    def op_count(self, results):
        return CENSUS_MAPS * len(results)

    attempted = op_count

    def failed(self, results):
        # A batch that goes wrong loses all of its maps.
        n, problems = super().failed(results)
        return CENSUS_MAPS * n, problems


class Classes14(Workload):
    name = "classes14"
    reports_op_p50 = True

    def ops(self):
        out = []
        for d, s in zip(self.docs, self.shapes):
            for cls in CLASSES:
                out.append(Op(f"count {cls} E={s.edges}", ["count", "--class", cls, "-"], d, s.edges))
            out.append(Op(f"cw-hist E={s.edges}", ["cw-hist", "-"], d, s.edges))
        return out

    def check(self, op, r):
        if r["rc"] != 0:
            return f"exit code {r['rc']}"
        rep = json.loads(r["out"])
        ref = self.ref(self.docs.index(op.doc))
        if op.args[0] == "count":
            cls = op.args[2]
            if rep["count"] != ref[cls] or ref[cls] == 0:
                return f"{cls} count {rep['count']} != reference {ref[cls]}"
            return None
        if not rep["match"] or sum(rep["histogram"].values()) != ref["tbo"]:
            return "cw-face histogram does not sum to the TBO reference or misses the formula"
        return None


class Frontier(Workload):
    """The edge ladder: the largest E at which all four polynomials finish."""

    name = "frontier"

    def ops(self):
        return [
            Op(f"poly {kind} E={s.edges}", ["poly", "--kind", kind, "-"], d, s.edges)
            for d, s in zip(self.docs, self.shapes)
            for kind in KINDS
        ]

    def run_pass(self, traced):
        results = []
        deadline = time.perf_counter() + FRONTIER_PASS_BUDGET_S
        for op in self.ops():
            budget = min(FRONTIER_BUDGET_S, deadline - time.perf_counter())
            if budget <= 0:
                break
            r = op.run(traced, budget)
            results.append((op, r))
            if r["rc"] != 0 or r["killed"]:
                break
        return results

    @staticmethod
    def is_stop(r: dict) -> bool:
        return r["killed"] or r["rc"] == 3

    def check(self, op, r):
        if self.is_stop(r):
            return None
        if r["rc"] != 0:
            return f"exit code {r['rc']}"
        i = self.docs.index(op.doc)
        coeffs = json.loads(r["out"])["coefficients"]
        kind = op.args[2]

        def value(k):
            return sum(c * k**j for j, c in enumerate(coeffs))

        if abs(value(-1)) != self.ref(i)[CLASS_OF_KIND[kind]]:
            return f"|{kind}(-1)| != reference {CLASS_OF_KIND[kind]} count"
        if kind == "tension":
            s = self.shapes[i]
            for k in (1, 2, 3):
                if value(k) * k != proper_colourings(s.vertices, s.ends, k):
                    return f"tension({k}) disagrees with the colouring count"
        return None

    def op_count(self, results):
        return sum(1 for _, r in results if not self.is_stop(r))


WORKLOADS = {w.name: w for w in (Census4, Classes14, Frontier)}


# -- measurement ------------------------------------------------------------------


def measure_setup(w: Workload) -> tuple[float, str]:
    """Median wall time of a fresh interpreter importing the library and
    constructing the seeded inputs, over SETUP_TRIALS trials."""
    walls = []
    numpy_version = "unknown"
    docs = json.dumps(w.docs)
    for _ in range(SETUP_TRIALS):
        r = _spawn([sys.executable, str(HERE / "setup_probe.py")], docs, 120)
        if r["rc"] != 0:
            raise RuntimeError(f"set-up failed: {r['err'].strip()}")
        walls.append(r["wall"])
        numpy_version = json.loads(r["out"])["numpy"]
    return statistics.median(walls), numpy_version


def timed_passes(w: Workload, seconds: float) -> list[dict]:
    """Untraced passes filling `seconds` (at least one).

    Another pass starts only if, at the mean pass time so far, it would
    end less than half a pass after the deadline.  A run then lasts
    about `seconds` however long a pass is.
    """
    passes = []
    t_start = time.perf_counter()
    while True:
        cpu0 = _children_cpu()
        t0 = time.perf_counter()
        results = w.run_pass(traced=False)
        wall = time.perf_counter() - t0
        passes.append({"wall": wall, "cpu": _children_cpu() - cpu0, "results": results})
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes


def max_edges_poly(w: Workload, passes: list[dict]) -> int:
    """Largest E such that, at it and every smaller E of the workload, every
    op (each computes polynomials) finished and checked out, in every pass."""
    expected = Counter(op.edges for op in w.ops())
    best = None
    for p in passes:
        ok = Counter(
            op.edges
            for op, r in p["results"]
            if not (isinstance(w, Frontier) and Frontier.is_stop(r)) and w.check(op, r) is None
        )
        top = 0
        for e in sorted(expected):
            if ok[e] != expected[e]:
                break
            top = e
        best = top if best is None else min(best, top)
    return best


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


# -- tracing ------------------------------------------------------------------


def per_layer(w: Workload, traced: list[tuple[Op, dict]], untraced_wall: float, sum_map_s: float) -> dict:
    spans: dict[str, dict] = {}
    work: dict[str, float] = {}
    verify = []
    budget_kills = 0
    time_to_refusal = 0.0
    traced_wall = 0.0
    for op, r in traced:
        traced_wall += r["wall"]
        rec = r["trace"]
        if isinstance(w, Frontier) and Frontier.is_stop(r):
            budget_kills += r["killed"]
            time_to_refusal += r["wall"]
        if rec is None:
            continue
        for name, s in rec["spans"].items():
            acc = spans.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
            for key in acc:
                acc[key] += s[key]
        for name, n in rec["work"].items():
            work[name] = work.get(name, 0) + n
        verify += rec["verify_durations_s"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    m: dict[str, float] = {}
    labelings = work.get("generator.labelings", 0)
    m["generator.generate.self_s"] = self_s("generator.generate")
    m["generator.labelings"] = labelings
    m["generator.maps_yielded"] = work.get("generator.maps_yielded", 0)
    m["generator.yield_ratio"] = m["generator.maps_yielded"] / labelings if labelings else 0.0
    m["ribbonmap.surgery.calls"] = calls("ribbonmap.surgery")
    m["ribbonmap.surgery.self_s"] = self_s("ribbonmap.surgery")
    m["ribbonmap.dual.self_s"] = self_s("ribbonmap.dual")
    m["ribbonmap.build.self_s"] = self_s("ribbonmap.build")
    for cls in CLASSES:
        m[f"orientations.count_class.{cls}.self_s"] = self_s(f"orientations.count_class.{cls}")
        m[f"orientations.count_class.{cls}.calls"] = calls(f"orientations.count_class.{cls}")
    m["orientations.orientations_scanned"] = work.get("orientations.orientations_scanned", 0)
    for fn in ("enumerate_class", "tbo_histogram", "tbo_generating_poly_formula"):
        m[f"orientations.{fn}.self_s"] = self_s(f"orientations.{fn}")
    for kind in KINDS:
        m[f"enumeration.count.{kind}.self_s"] = self_s(f"enumeration.count.{kind}")
        m[f"enumeration.count.{kind}.calls"] = calls(f"enumeration.count.{kind}")
    m["enumeration.assignment_rows"] = work.get("enumeration.assignment_rows", 0)
    for kind in KINDS:
        m[f"enumeration.poly.{kind}.self_s"] = self_s(f"enumeration.poly.{kind}")
    for kind in KINDS:
        m[f"enumeration.pairs.{kind}.self_s"] = self_s(f"enumeration.pairs.{kind}")
    surgeries = work.get("enumeration.pairs.surgeries", 0)
    m["enumeration.pairs.surgeries"] = surgeries
    m["enumeration.pairs.class_cache_hit_ratio"] = (
        1 - work.get("enumeration.pairs.class_counts", 0) / surgeries if surgeries else 0.0
    )
    m["enumeration.quasi.self_s"] = self_s("enumeration.quasi")
    m["enumeration.integral_pairs.self_s"] = self_s("enumeration.integral_pairs")
    m["polynomials.lagrange.self_s"] = self_s("polynomials.lagrange")
    m["polynomials.lagrange.calls"] = calls("polynomials.lagrange")
    m["polynomials.fit_quasipolynomial.self_s"] = self_s("polynomials.fit_quasipolynomial")
    m["guards.refusals"] = work.get("guards.refusals", 0)
    m["guards.budget_kills"] = budget_kills
    m["guards.time_to_refusal_s"] = time_to_refusal
    m["cli.verify.calls"] = len(verify)
    m["cli.verify.p50_s"] = statistics.median(verify) if verify else 0.0
    m["cli.verify.p90_s"] = (
        statistics.quantiles(verify, n=10, method="inclusive")[-1] if len(verify) > 1 else sum(verify)
    )
    m["cli.batch.generate_s"] = spans.get("generator.generate", {}).get("incl_s", 0.0)
    m["cli.batch.sum_map_s"] = sum_map_s
    total_self = 0.0
    for layer in LAYERS:
        layer_self = sum(s["self_s"] for n, s in spans.items() if n.split(".", 1)[0] == layer)
        m[f"{layer}.self_s"] = layer_self
        total_self += layer_self
    m["trace.wall_s"] = traced_wall
    m["trace.outside_spans_s"] = traced_wall - total_self
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


# -- the record -----------------------------------------------------------------


def environment(seed: int, numpy_version: str) -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_rev = r.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    w = WORKLOADS[name](seed)
    setup_s, numpy_version = measure_setup(w)
    passes = timed_passes(w, seconds)
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        attempted += w.attempted(p["results"])
        n, bad = w.failed(p["results"])
        failed += n
        problems += bad

    walls = [p["wall"] for p in passes]
    record = {
        "workload": name,
        "trace": int(trace),
        "run_seconds": seconds,
        **environment(seed, numpy_version),
        "inputs": [s.record() for s in w.shapes],
        "passes": [
            {
                "wall_s": p["wall"],
                "cpu_s": p["cpu"],
                "ops": [[op.label, r["wall"], r["rc"]] for op, r in p["results"]],
            }
            for p in passes
        ],
        "spread": {
            "passes": len(passes),
            "wall_min_s": min(walls),
            "wall_max_s": max(walls),
            "wall_quartile_spread": quartile_spread(walls),
        },
    }

    if not trace:
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "ops_per_s": statistics.median(w.op_count(p["results"]) / p["wall"] for p in passes),
            "peak_rss_mb": peak_kb / 1024,
            "max_edges_poly": max_edges_poly(w, passes),
        }
        if w.reports_op_p50:
            lat = [r["wall"] for p in passes for _, r in p["results"]]
            record["op_p50_s"] = statistics.median(lat)
            record["op_latency_samples"] = len(lat)
    else:
        untraced_wall = statistics.median(walls)
        sum_map_s = 0.0
        if isinstance(w, Census4):
            sum_map_s = statistics.median(
                [json.loads(r["out"])["elapsed_s"] for p in passes for _, r in p["results"] if r["rc"] == 0]
                or [0.0]
            )
            traced = w.run_pass(traced=True)
            # The report must not depend on --jobs: compare a pooled batch with the traced one.
            pooled = Census4(seed, jobs=2).run_pass(traced=False)
            n, bad = w.failed(pooled + traced)
            attempted += w.attempted(pooled + traced)
            if not bad and _without_elapsed(json.loads(pooled[0][1]["out"])) != _without_elapsed(
                json.loads(traced[0][1]["out"])
            ):
                bad.append("traced --jobs 1 report differs from the --jobs 2 report")
                n += CENSUS_MAPS
        else:
            traced = w.run_pass(traced=True)
            n, bad = w.failed(traced)
            attempted += w.attempted(traced)
        failed += n
        problems += bad
        metrics = per_layer(w, traced, untraced_wall, sum_map_s)
        record["untraced_wall_s"] = untraced_wall
        record["traced_ops"] = [[op.label, r["wall"], r["rc"]] for op, r in traced]
        record["span_count"] = sum(r["trace"]["span_count"] for _, r in traced if r["trace"])
        record["charged_to_caller"] = CHARGED_TO_CALLER
        record["moves"] = MOVES

    record["problems"] = problems
    record["attempted"] = attempted
    record["failed"] = failed
    record["failed_frac"] = failed / attempted
    record["metrics"] = {k: {"value": v, "unit": units.get(k)} for k, v in metrics.items()}
    return record


def _without_elapsed(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "elapsed_s"}


def _print_human(rec: dict) -> None:
    print(f"{rec['workload']} seed={rec['seed']} trace={rec['trace']} passes={rec['spread']['passes']}")
    for name, m in rec["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "op_p50_s" in rec:
        print(f"  op_p50_s = {rec['op_p50_s']:.6g} s ({rec['op_latency_samples']} samples)")
    print(f"  failed_frac = {rec['failed_frac']:.6g} ratio ({rec['failed']}/{rec['attempted']})")
    for p in rec["problems"]:
        print(f"  PROBLEM {p}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "surfgraph" / "__init__.py").is_file():
        print("run from the root of a surfgraph checkout: src/surfgraph is missing", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}

    if args.workload == "all":
        return run_all(args)
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), units)
    if set(rec["metrics"]) != set(units):
        print(f"metrics of {rec['workload']} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    _print_human(rec)
    print(json.dumps(rec))
    result = {
        "correct": rec["failed"] == 0 and not rec["problems"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload;
    the metrics of the last line are prefixed by workload."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        result["correct"] &= last["correct"]
        result["attempted"] += last["attempted"]
        result["failed"] += last["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
