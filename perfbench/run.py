"""The superinv benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Four closed-loop workloads, each driven by one client in one process with
no threads; every pass runs in a fresh interpreter, one at a time:

- oracle: brute-force invariant spaces (Bareiss, nullspace, weight
  pre-filter, the derivation action), with verification on;
- generation: generated spans and relation kernels (incremental
  SpanTracker reduction, polynomial products);
- symmetrizer: Young symmetrizers, e*e and the word action (group-algebra
  products), checked against the hook-length scalar;
- catalog: the 17 claim ids through the command-line entry point, one
  fresh interpreter per id, as a user runs them.

With --trace 0 the command runs untraced passes, starting another only while
it is expected to end within --seconds, and prints the end-to-end metrics:
the median pass wall time, the median and 90th percentile over the ops of
each op's median latency across the passes, the median set-up time (spawn
to end of set-up, over at least 15 interpreters) and the peak resident set
of any pass.  With --trace 1 it runs one untraced and one traced pass and
prints the per-layer metrics of the traced pass and the ratio of the two
pass times.

Every time in the metrics is normalised to a nominal host speed, measured
all through each pass by a probe (see hostspeed.py), because the shared
host's speed drifts far more than the bounds allow.  The raw median pass
and set-up times and the host's slowdown are printed above the result.
Per-layer self times are raw and include the probes' share, a few per
cent.

Every op's output is checked, against reference.json or, for the
symmetrizer, against the hook-length formula; an op that raises, exits
non-zero or disagrees counts as failed, and the pass goes on.  The summary
line gives the error rate (failed/attempted); the last line of standard
output is the JSON result.  Span files of traced passes and the catalog's
reports are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("oracle", "generation", "symmetrizer", "catalog")
# The catalog ids are fixed here, not read from the package.
CATALOG_IDS = [
    "T2.1", "T2.2", "T3.3", "T3.4", "T3.6", "T3.8", "T4.3", "T4.4", "T4.5",
    "T5.1", "T5.2", "T6.2", "T6.3.1", "T6.3.2", "L7.1", "T7.2", "T7.3",
]
MIN_SETUPS = 15
CHILD_TIMEOUT_S = 150

END_TO_END = [
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

_SPANS = [
    "linalg.bareiss_echelon", "linalg.nullspace", "invariants.invariant_space_bruteforce",
    "invariants.check_generation", "invariants.generated_subspace",
    "invariants.kernel_dimension_at_degree", "invariants.SubstitutionMap.apply",
    "liealgebras.act_on_polynomial", "liealgebras.build_family",
    "polynomials.Polynomial.mul", "polynomials.monomials_of_degree",
    "permutations.GroupAlgebraElement.mul", "permutations.young_symmetrizer",
    "named_polynomials.P_t", "named_polynomials.Pf_t", "named_polynomials.PPf_t",
    "generators.spe_ppf_literal", "generators.spe_ppf_polynomials",
    "tensors.apply_group_algebra", "tensors.act_on_tensor", "cli.main",
]
_CALLS = [
    "linalg.bareiss_echelon", "linalg.SpanTracker.add", "linalg.SpanTracker.contains",
    "liealgebras.act_on_polynomial", "polynomials.Polynomial.mul", "polynomials.Polynomial.init",
    "permutations.GroupAlgebraElement.mul", "permutations.young_symmetrizer",
    "permutations.row_group", "permutations.column_group", "permutations.cocycle",
    "named_polynomials.P_t", "tensors.apply_group_algebra",
]
_COUNTS = [
    "linalg.bareiss_echelon.entries", "invariants.monomials", "invariants.blocks",
    "permutations.GroupAlgebraElement.mul.term_pairs", "permutations.young_symmetrizer.terms",
]
_RATIOS = {
    "linalg.SpanTracker.useful_ratio": ("linalg.SpanTracker.add.useful", "linalg.SpanTracker.add.calls"),
    "invariants.weight_kept_ratio": ("linalg.nullspace.ncols", "invariants.monomials"),
    "named_polynomials.P_t.repeat_ratio": ("named_polynomials.P_t.repeats", "named_polynomials.P_t.calls"),
}
PER_LAYER = (
    [(n + ".calls", "count") for n in _CALLS]
    + [(n, "count") for n in _COUNTS]
    + [(n + ".self_s", "s") for n in _SPANS]
    + [("linalg.SpanTracker.self_s", "s")]
    + [(n, "ratio") for n in _RATIOS]
    + [(f"claims.{c}.s", "s") for c in CATALOG_IDS]
    + [("trace.overhead_ratio", "ratio")]
)


def _child_env() -> dict:
    env = dict(os.environ)
    # cli reads this as the --cap default; larger caps are passed explicitly
    env.pop("SUPERINV_MONOMIAL_CAP", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, mode: int, claim: str | None = None) -> dict:
    """Run one child interpreter to completion; returns its result, whose
    `setup_s` runs from spawn to end of set-up, or {"error": ...}."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(mode), str(OUT),
           repr(spawned)]
    if claim is not None:
        cmd.append(claim)
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}"}
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def catalog_order(seed: int) -> list[str]:
    order = list(CATALOG_IDS)
    random.Random(seed).shuffle(order)
    return order


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """One pass of all ops: one child, or one child per claim for catalog."""
    if workload != "catalog":
        return collect(workload, [spawn(workload, seed, int(traced))])
    order = catalog_order(seed)
    children = [spawn(workload, seed, int(traced), c) for c in order]
    result = collect(workload, children)
    result["elapsed"] = {c: ch["elapsed_s"] for c, ch in zip(order, children) if "error" not in ch}
    return result


def fill_catalog(seed: int, last_pass: dict, deadline: float) -> dict:
    """Spend what is left of a catalog run on more one-claim interpreters,
    in the seeded order, for each claim whose last run still fits before
    the deadline, so that the short claims, whose latencies are the
    noisiest, get more samples."""
    elapsed = dict.fromkeys(CATALOG_IDS, float("inf"))
    elapsed.update(last_pass["elapsed"])
    children = []
    fits = True
    while fits:
        fits = False
        for claim in catalog_order(seed):
            if time.monotonic() + elapsed[claim] <= deadline:
                children.append(spawn("catalog", seed, 0, claim))
                elapsed[claim] = children[-1].get("elapsed_s", elapsed[claim])
                fits = True
    return collect("catalog", children)


def collect(workload: str, children: list[dict]) -> dict:
    ops, trace = [], Counter()
    for child in children:
        if "error" in child:
            ops.append({"id": f"{workload}:child", "ms": None, "records": None,
                        "error": child["error"]})
            continue
        ops.extend(child["ops"])
        trace.update(child.get("trace", {}))
    ok = [c for c in children if "error" not in c]
    return {
        "ops": ops,
        "wall_s": sum(c["wall_s"] for c in ok),
        "raw_wall_s": sum(c["raw_wall_s"] for c in ok),
        "setups": [c["setup_s"] for c in ok],
        "raw_setups": [c["raw_setup_s"] for c in ok],
        "maxrss_kb": max((c["maxrss_kb"] for c in ok), default=0),
        "trace": trace,
    }


def op_ok(workload: str, op: dict, reference: dict) -> bool:
    if op["error"] is not None or op["records"] is None:
        return False
    if workload == "symmetrizer":
        return all(r[1] == "pass" for r in op["records"])
    return op["records"] == reference[workload].get(op["id"])


def end_to_end(passes: list[dict], extra: dict, setups: list[float]) -> dict:
    """`passes` are the complete passes; `extra` holds the catalog's extra
    one-claim runs, which add latency samples but make no pass."""
    by_op: dict[str, list[float]] = {}
    for op in [op for p in passes for op in p["ops"]] + extra["ops"]:
        if op["ms"] is not None:
            by_op.setdefault(op["id"], []).append(op["ms"])
    # each op's median over its samples, so that one slow pass moves no percentile
    latencies = [statistics.median(ms) for ms in by_op.values()]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes + [extra]) / 1024,
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    c = traced["trace"]
    out = {}
    for name, _ in PER_LAYER:
        if name in _RATIOS:
            num, den = _RATIOS[name]
            out[name] = c[num] / c[den] if c[den] else 0.0
        elif name == "linalg.SpanTracker.self_s":
            out[name] = c["linalg.SpanTracker.add.self_s"] + c["linalg.SpanTracker.contains.self_s"]
        elif name == "trace.overhead_ratio":
            out[name] = traced["wall_s"] / untraced["wall_s"]
        else:
            out[name] = c[name]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "superinv" / "__init__.py").is_file():
        print(f"error: no superinv source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    started = time.monotonic()
    if args.trace:
        passes = [run_pass(args.workload, args.seed, False), run_pass(args.workload, args.seed, True)]
    else:
        passes = []
        while True:
            t = time.monotonic()
            passes.append(run_pass(args.workload, args.seed, False))
            now = time.monotonic()
            if now + (now - t) > started + args.seconds:
                break
    extra = collect(args.workload, [])
    if args.workload == "catalog" and not args.trace:
        extra = fill_catalog(args.seed, passes[-1], started + args.seconds)
    setups = [s for p in passes + [extra] for s in p["setups"]]
    raw_setups = [s for p in passes + [extra] for s in p["raw_setups"]]
    while not args.trace and len(setups) < MIN_SETUPS:
        child = spawn(args.workload, args.seed, -1)
        if "error" in child:
            break
        setups.append(child["setup_s"])
        raw_setups.append(child["raw_setup_s"])

    ops = [op for p in passes + [extra] for op in p["ops"]]
    failed = [op for op in ops if not op_ok(args.workload, op, reference)]
    for op in failed:
        print(f"FAILED {op['id']}: {op['error'] or 'output differs from the reference'}")
    timed = [p for p in passes if p["ops"] and all(op["ms"] is not None for op in p["ops"])]
    if args.trace:
        values = per_layer(passes[1], passes[0]) if len(timed) == 2 else {}
        units = dict(PER_LAYER)
    else:
        values = end_to_end(timed, extra, setups) if timed and setups else {}
        units = dict(END_TO_END)
    samples = sum(len(p["ops"]) for p in timed + [extra])
    print(f"workload {args.workload}: {len(passes)} pass(es), {samples} op samples "
          f"({len(timed[0]['ops']) if timed else 0} ops a pass), "
          f"{len(setups)} set-ups, error_rate {len(failed) / len(ops)} ({len(failed)}/{len(ops)})")
    if timed:
        print(f"raw host times: pass {statistics.median(p['raw_wall_s'] for p in timed)} s, "
              f"set-up {statistics.median(raw_setups)} s; host slowdown "
              f"{statistics.median(p['raw_wall_s'] / p['wall_s'] for p in timed)}x nominal")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": not failed and bool(values),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
