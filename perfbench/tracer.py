"""Outside-in tracer for the superinv layers.

The tracer wraps public functions and methods of the ``superinv`` modules
from outside the package.  A module-level function is replaced in every
``superinv.*`` module whose attribute *is* the original function, so the
``from .x import f`` aliases that other modules hold are traced too (for
example ``invariants.nullspace``).  Methods are replaced on their class.

Spans (name, parent span, op index, start, end) are kept in flat arrays in
memory and written out once, after the traced pass.  A span's self time is
its duration minus the durations of its direct child spans.  Very hot
helpers are wrapped as counters only, so their cost stays in the caller's
self time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seen: set = set()
        self.op = -1

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.span_end[i] = perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.names[self.span_name[self.stack[-1]]] if self.stack else None

    # -- wrappers ----------------------------------------------------------

    def spanned(self, name, fn, before=None, after=None):
        """Wrap fn in a span; `name` may be a function of the call arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            i = tracer.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def counted(self, name, fn, after=None):
        """Count calls only, for helpers too hot for a span."""
        counts, key, tracer = self.counts, name + ".calls", self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def install(self, targets, extra_modules=()) -> None:
        """Wrap every target: (module, class or None, attribute, mode, name,
        before, after), with mode "span" or "count".  Aliases are rebound in
        every superinv module and in `extra_modules` (the benchmark's own)."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "superinv" or n.startswith("superinv."))
        ] + list(extra_modules)
        for module, cls, attr, mode, name, before, after in targets:
            owner = sys.modules[module]
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            if mode == "span":
                wrapper = self.spanned(name, original, before, after)
            else:
                wrapper = self.counted(name, original, after)
            if cls is not None:
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Flat counters: <span>.calls, <span>.self_s, <span>.s (inclusive)
        for every span name, plus the raw counts."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: Counter = Counter(self.counts)
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            out[name + ".calls"] += 1
            out[name + ".s"] += dur
            out[name + ".self_s"] += dur - child[i]
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )


# -- the layer map ---------------------------------------------------------


def _bareiss_entries(tr, args, kwargs):
    rows = args[0]
    tr.counts["linalg.bareiss_echelon.entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _nullspace_cols(tr, args, kwargs):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    tr.counts["linalg.nullspace.ncols"] += ncols


def _span_add_useful(tr, grew):
    if grew:
        tr.counts["linalg.SpanTracker.add.useful"] += 1


def _oracle_blocks(tr, blocks):
    if tr.current() == "invariants.invariant_space_bruteforce":
        tr.counts["invariants.blocks"] += len(blocks)
        tr.counts["invariants.monomials"] += sum(len(v) for v in blocks.values())


def _ga_term_pairs(tr, args, kwargs):
    tr.counts["permutations.GroupAlgebraElement.mul.term_pairs"] += len(args[0]) * len(args[1])


def _symmetrizer_terms(tr, e):
    tr.counts["permutations.young_symmetrizer.terms"] += len(e)


def _p_t_repeat(tr, args, kwargs):
    variant = args[4] if len(args) > 4 else kwargs.get("variant", "plain")
    key = (args[1], variant)
    if key in tr.seen:
        tr.counts["named_polynomials.P_t.repeats"] += 1
    else:
        tr.seen.add(key)


def _claim_name(args) -> str:
    key = args[0].strip()
    if key.endswith("(constructive)"):
        key = key[: -len("(constructive)")]
    return "claims." + key


S = "superinv."
TARGETS = [
    (S + "linalg", None, "bareiss_echelon", "span", "linalg.bareiss_echelon", _bareiss_entries, None),
    (S + "linalg", None, "nullspace", "span", "linalg.nullspace", _nullspace_cols, None),
    (S + "linalg", "SpanTracker", "add", "span", "linalg.SpanTracker.add", None, _span_add_useful),
    (S + "linalg", "SpanTracker", "contains", "span", "linalg.SpanTracker.contains", None, None),
    (S + "invariants", None, "invariant_space_bruteforce", "span",
     "invariants.invariant_space_bruteforce", None, None),
    (S + "invariants", None, "blocked_monomials", "count", "invariants.blocked_monomials",
     None, _oracle_blocks),
    (S + "invariants", None, "check_generation", "span", "invariants.check_generation", None, None),
    (S + "invariants", None, "generated_subspace", "span", "invariants.generated_subspace",
     None, None),
    (S + "invariants", None, "kernel_dimension_at_degree", "span",
     "invariants.kernel_dimension_at_degree", None, None),
    (S + "invariants", "SubstitutionMap", "apply", "span", "invariants.SubstitutionMap.apply",
     None, None),
    (S + "liealgebras", None, "act_on_polynomial", "span", "liealgebras.act_on_polynomial",
     None, None),
    (S + "liealgebras", None, "build_family", "span", "liealgebras.build_family", None, None),
    (S + "polynomials", "Polynomial", "__mul__", "span", "polynomials.Polynomial.mul", None, None),
    (S + "polynomials", "Polynomial", "__init__", "count", "polynomials.Polynomial.init",
     None, None),
    (S + "polynomials", None, "monomials_of_degree", "span", "polynomials.monomials_of_degree",
     None, None),
    (S + "permutations", "GroupAlgebraElement", "__mul__", "span",
     "permutations.GroupAlgebraElement.mul", _ga_term_pairs, None),
    (S + "permutations", None, "young_symmetrizer", "span", "permutations.young_symmetrizer",
     None, _symmetrizer_terms),
    (S + "permutations", None, "row_group", "count", "permutations.row_group", None, None),
    (S + "permutations", None, "column_group", "count", "permutations.column_group", None, None),
    (S + "permutations", None, "cocycle", "count", "permutations.cocycle", None, None),
    (S + "named_polynomials", None, "P_t", "span", "named_polynomials.P_t", _p_t_repeat, None),
    (S + "named_polynomials", None, "Pf_t", "span", "named_polynomials.Pf_t", None, None),
    (S + "named_polynomials", None, "PPf_t", "span", "named_polynomials.PPf_t", None, None),
    (S + "generators", None, "spe_ppf_literal", "span", "generators.spe_ppf_literal", None, None),
    (S + "generators", None, "spe_ppf_polynomials", "span", "generators.spe_ppf_polynomials",
     None, None),
    (S + "tensors", None, "apply_group_algebra", "span", "tensors.apply_group_algebra",
     None, None),
    (S + "tensors", None, "act_on_tensor", "span", "tensors.act_on_tensor", None, None),
    (S + "claims", None, "run_claim", "span", _claim_name, None, None),
    (S + "cli", None, "main", "span", "cli.main", None, None),
]
