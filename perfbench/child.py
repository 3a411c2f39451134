"""One pass of a workload in a fresh interpreter (started by run.py).

Usage: child.py WORKLOAD SEED MODE OUT_DIR SPAWNED [CLAIM]

MODE is 0 for an untraced pass, 1 for a traced pass and -1 for set-up
only.  SPAWNED is the parent's time.monotonic() when it started the child.
The catalog workload runs one CLAIM per interpreter.  The child samples
the host's speed from its start (see hostspeed.py) and writes a single
JSON line to its standard output: the set-up time, and for a pass every
op's latency and records, the pass wall time, the peak resident set and,
when traced, the layer counters.  Times are normalised to the nominal host
speed; the raw set-up and pass times are given too.  Anything superinv
itself prints goes to standard error.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

from hostspeed import Sampler


def main(argv: list[str]) -> int:
    workload, seed, mode, out_dir = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    spawned = float(argv[4])
    claim = argv[5] if len(argv) > 5 else None
    host = Sampler()
    host.start()
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    import workloads

    tracer = None
    if mode == 1:
        from tracer import TARGETS, Tracer

        tracer = Tracer()
        tracer.install(TARGETS, extra_modules=[workloads])
    if workload == "catalog":
        ops = [workloads.catalog_op(claim, str(out_dir / f"catalog-{claim}.json"))]
    else:
        ops = workloads.WORKLOAD_OPS[workload](seed)
    ready = time.monotonic()
    if mode >= 0:
        spans, results = [], []
        started = time.monotonic()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            # start every op from the same collector state, whatever ran before
            gc.collect()
            # probes right before and after each op pin down the host speed
            # for short ops, which the timer's probes may miss
            host.sample()
            t = time.monotonic()
            try:
                raw = op.run()
                spans.append((t, time.monotonic()))
                records, error = op.records(raw), None
            except Exception as exc:  # a failed op is counted and the pass goes on
                spans.append((t, time.monotonic()))
                records, error = None, f"{type(exc).__name__}: {exc}"
            host.sample()
            results.append({"id": op.id, "records": records, "error": error})
        ended = time.monotonic()
    host.stop()
    out: dict = {
        "setup_s": host.normalised(spawned, ready),
        "raw_setup_s": host.busy(spawned, ready),
    }
    if mode >= 0:
        for result, (t, t_end) in zip(results, spans):
            result["ms"] = host.normalised(t, t_end) * 1000
        out["wall_s"] = host.normalised(started, ended)
        out["raw_wall_s"] = host.busy(started, ended)
        out["ops"] = results
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            out["trace"] = tracer.summary()
            tag = f"{workload}-{claim}" if claim else workload
            tracer.write_spans(out_dir / f"spans-{tag}.tsv")
    channel.write(json.dumps(out) + "\n")
    channel.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
