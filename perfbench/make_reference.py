"""Regenerate reference.json: the (check id, status, dims) records of every
oracle, generation and catalog op, from one untraced pass of the current
source tree.  Run from the repository root at the commit that defines the
reference:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.OUT.mkdir(exist_ok=True)
    reference = {}
    for workload in ("oracle", "generation", "catalog"):
        ops = run.run_pass(workload, 0, traced=False)["ops"]
        bad = [op["id"] for op in ops if op["error"] is not None]
        if bad:
            raise SystemExit(f"ops failed, no reference written: {bad}")
        reference[workload] = {op["id"]: op["records"] for op in sorted(ops, key=lambda o: o["id"])}
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
