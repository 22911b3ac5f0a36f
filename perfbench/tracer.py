"""Layer tracing from outside the library.

The tracer rebinds public conich1 functions to wrappers in every conich1
module namespace that holds them (and on the class, for methods), so calls
between modules and inside a module both pass through the wrappers.  No
library file changes.  Spanned functions record (function, start, end,
parent span) in memory; count-only functions just bump a counter, so their
time stays in the caller's self time.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

# (module, qualified name, the statistics reported for it).  A function
# reporting only calls is count-only and gets no span.  Entry points whose
# own work is small report their inclusive time (total_s), not self time.
TARGETS = (
    ("signedperm", "SignedPerm.__mul__", "calls"),
    ("signedperm", "SignedPerm.from_enc", "calls"),
    ("signedperm", "parse_element", "calls"),
    ("picard", "phi", "calls self_s"),
    ("picard", "fixed_sublattice_of", "calls self_s"),
    ("intlinalg", "kernel_of_rows", "calls self_s rows_in"),
    ("intlinalg", "quotient_invariants", "calls self_s"),
    ("intlinalg", "smith_normal_form", "calls self_s"),
    ("intlinalg", "LatticeBasis.from_vectors", "calls self_s"),
    ("groups", "enc_mul", "calls"),
    ("groups", "enc_closure", "calls self_s useful_ratio"),
    ("groups", "all_subgroups", "calls self_s subgroups_out"),
    ("groups", "sylow2", "calls self_s"),
    ("groups", "conjugating_element", "calls self_s found_ratio"),
    ("groups", "fingerprint", "calls self_s"),
    ("groups", "canonical_form", "calls self_s"),
    ("groups", "FiniteGroup.from_enc_set", "calls self_s"),
    ("groups", "closure", "calls self_s"),
    ("groups", "abelian_invariants", "calls self_s"),
    ("cohomology", "h1_oracle", "calls self_s"),
    ("cohomology", "h1_halfsum", "calls self_s"),
    ("cohomology", "h1_cyclic", "calls"),
    ("cohomology", "h1_condition", "calls self_s total_s false_ratio subgroups_checked"),
    ("cohomology", "h1_condition_cyclic", "calls self_s"),
    ("conditions", "project", "calls self_s"),
    ("conditions", "relative_minimality", "calls self_s"),
    ("conditions", "check_conditions", "calls total_s"),
    ("classes", "verify_class", "calls total_s"),
    ("classes", "build_group", "calls total_s"),
    ("enumeration", "clean_elements", "calls self_s"),
    ("enumeration", "enumerate_wdn", "total_s"),
    ("enumeration", "match_table_row", "calls self_s"),
    ("enumeration", "verify_tables", "calls total_s"),
    ("cli", "main", "calls self_s"),
)

# Per-call amounts summed beyond calls and time, from (args, result).  A
# *_ratio is the sum over calls.
TALLIES = {
    "useful_ratio": lambda args, out: out is not None,  # the closure did not abort
    "found_ratio": lambda args, out: out is not None,  # a conjugator exists
    "false_ratio": lambda args, out: out.ok is False,
    "subgroups_checked": lambda args, out: out.subgroups_checked,
    "subgroups_out": lambda args, out: len(out.subgroups),
    "rows_in": lambda args, out: len(args[0]),
}


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in a fixed order."""
    return [f"{module}.{qual}.{stat}" for module, qual, stats in TARGETS for stat in stats.split()]


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{m}.{q}" for m, q, _ in TARGETS]
        self.counts = [0] * len(TARGETS)
        self.tallies = {f"{m}.{q}.{s}": 0 for m, q, stats in TARGETS for s in stats.split() if s in TALLIES}
        # one span per call of a spanned function: function index, parent
        # span index (-1 at top level), start and end in perf_counter seconds
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "conich1" or name.startswith("conich1.")]
        for fid, (module, qual, stats) in enumerate(TARGETS):
            owner = sys.modules[f"conich1.{module}"]
            *cls_path, attr = qual.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapper = self._count_wrapper(fid, fn) if stats == "calls" else self._span_wrapper(fid, fn, stats)
            if cls_path:
                self._rebind(owner, attr, raw, classmethod(wrapper) if is_classmethod else wrapper)
            else:
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, name, value, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _count_wrapper(self, fid: int, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[fid] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fid: int, fn, stats: str):
        counts, tallies, stack = self.counts, self.tallies, self._stack
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        clock = time.perf_counter
        mine = [(f"{self.names[fid]}.{s}", TALLIES[s]) for s in stats.split() if s in TALLIES]

        def spanned(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            counts[fid] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            for key, amount in mine:
                tallies[key] += amount(args, out)
            return out

        return spanned

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of metric_names(); self time is span time minus child spans."""
        total = [0.0] * len(TARGETS)
        self_time = [0.0] * len(TARGETS)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        for i in range(len(fids)):
            d = ends[i] - starts[i]
            total[fids[i]] += d
            self_time[fids[i]] += d
            if parents[i] >= 0:
                self_time[fids[parents[i]]] -= d
        values: dict[str, float] = {}
        for fid, (name, (_, _, stats)) in enumerate(zip(self.names, TARGETS)):
            calls = self.counts[fid]
            for stat in stats.split():
                key = f"{name}.{stat}"
                if stat == "calls":
                    values[key] = calls
                elif stat == "self_s":
                    values[key] = self_time[fid]
                elif stat == "total_s":
                    values[key] = total[fid]
                elif stat.endswith("_ratio"):
                    values[key] = self.tallies[key] / calls if calls else 0.0
                else:
                    values[key] = self.tallies[key]
        return values

    def write_spans(self, path: str) -> None:
        """Spans as text lines ``function parent start end``, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write("# " + " ".join(self.names) + "\n")
            for i in range(len(self.fid)):
                fh.write(f"{self.fid[i]} {self.parent[i]} {self.start[i]:.9f} {self.end[i]:.9f}\n")
