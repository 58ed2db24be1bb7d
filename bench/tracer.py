"""Outside-in tracing of mimo3way's layers.

`Tracer.install` swaps every traced function for a timing wrapper in the
module that defines it and in every mimo3way module that imported it by
name, so calls between layers are caught without editing the package. The
five numpy.linalg entry points the package uses are counted, not timed.
Spans (name, start, end, parent, op) stay in memory until `write_spans`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

TRACED = {
    "lp": ("solve_inequality_min", "verify_duality"),
    "allocation": (
        "optimal_unicast_enumerated",
        "genie_subproblem",
        "optimal_unicast_closed_form",
        "optimal_unicast_bruteforce",
        "optimal_broadcast",
    ),
    "bounds": ("genie_bound_unicast", "cutset_bound_unicast", "cutset_bound_broadcast"),
    "cli": ("main",),
    "rational": ("frac_str",),
    "channel": ("draw_channels", "receive"),
    "linalg": ("null_space_basis", "random_orthonormal", "complex_gaussian"),
    "schemes": ("scheme_split", "build_scheme", "verify_scheme"),
    "rates": ("estimate_dof", "sum_rate", "ablated_sum_rate"),
}
NUMPY_LINALG = ("svd", "norm", "solve", "qr", "slogdet")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns
        outcome = {
            "lp.solve_inequality_min": lambda r: counts.update(feasible=r is not None),
            "schemes.verify_scheme": lambda r: counts.update(valid=bool(r.valid)),
            "cli.main": lambda r: counts.update(nonzero_exit=r != 0),
            "rates.estimate_dof": lambda r: counts.update(trials=r.trials, invalid_trials=r.invalid_trials),
        }.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op)
            if outcome is not None:
                outcome(result)
            return result

        return traced

    def _count(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["numpy_linalg"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items() if key == "mimo3way" or key.startswith("mimo3way.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"mimo3way.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        import numpy.linalg

        for name in NUMPY_LINALG:
            setattr(numpy.linalg, name, self._count(getattr(numpy.linalg, name)))

    def summary(self, n_ops: int, scale: float) -> dict:
        """Per-layer metrics per op, self times multiplied by `scale` (the
        run's machine-speed factor), plus a raw table of calls and times."""
        calls = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        child_ns = [0] * len(self.spans)
        # children close before their parent, so a reverse pass sees every
        # child's duration before it reaches the parent
        for idx in range(len(self.spans) - 1, -1, -1):
            name_id, start, end, parent, _ = self.spans[idx]
            dur = end - start
            calls[name_id] += 1
            total_ns[name_id] += dur
            self_ns[name_id] += dur - child_ns[idx]
            if parent >= 0:
                child_ns[parent] += dur
        per_op = max(n_ops, 1)
        metrics, table = {}, []
        for name_id, name in enumerate(self.names):
            metrics[f"{name}.calls_per_op"] = calls[name_id] / per_op
            metrics[f"{name}.self_ms_per_op"] = scale * self_ns[name_id] / 1e6 / per_op
            table.append((name, calls[name_id], total_ns[name_id] / 1e6, self_ns[name_id] / 1e6))
        c = self.counts
        metrics["lp.solve_inequality_min.feasible_ratio"] = _ratio(
            c["feasible"], calls[self.names.index("lp.solve_inequality_min")]
        )
        metrics["schemes.verify_scheme.valid_ratio"] = _ratio(c["valid"], calls[self.names.index("schemes.verify_scheme")])
        metrics["cli.main.nonzero_exit_ratio"] = _ratio(c["nonzero_exit"], calls[self.names.index("cli.main")])
        metrics["rates.valid_trial_ratio"] = 1.0 - c["invalid_trials"] / c["trials"] if c["trials"] else 0.0
        metrics["linalg.numpy_calls_per_op"] = c["numpy_linalg"] / per_op
        return {"metrics": metrics, "table": table, "spans": len(self.spans)}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name_id, start, end, parent, op in self.spans:
                fh.write(f"{self.names[name_id]}\t{start}\t{end}\t{parent}\t{op}\n")


def _ratio(hits: int, calls: int) -> float:
    """hits/calls; a layer the workload never calls reports 0."""
    return hits / calls if calls else 0.0
