"""Spans around the package's public functions, installed from outside.

Each traced function is replaced by a wrapper under every name an nsgames
module binds it to (`lp_solve` in `values`, `repair`, `polytopes`, ...), so
calls between modules are seen as well as the benchmark's own. A span is
(name, start, end, parent index, op id); spans stay in memory until the run
ends. Counts are read off arguments and results; that bookkeeping runs in a
span of its own, so it is not charged to any traced function's self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute). The prefix drops the leading
# underscore of nsgames._symmetry, because metric names start with a letter.
TRACED = {
    "values.value_ns": ("nsgames.values", "value_ns"),
    "values.value_snos": ("nsgames.values", "value_snos"),
    "values.value_classical": ("nsgames.values", "value_classical"),
    "symmetry.symmetry_group": ("nsgames._symmetry", "symmetry_group"),
    "exact_lp.LpProblem": ("nsgames.exact_lp", "LpProblem"),
    "exact_lp.lp_solve": ("nsgames.exact_lp", "lp_solve"),
    "polytopes.is_ns": ("nsgames.polytopes", "is_ns"),
    "polytopes.is_snos": ("nsgames.polytopes", "is_snos"),
    "game_model.repeat_game": ("nsgames.game_model", "repeat_game"),
    "game_model.threshold_game": ("nsgames.game_model", "threshold_game"),
    "game_model.tensor_power": ("nsgames.game_model", "tensor_power"),
    "game_model.winning_probability": ("nsgames.game_model", "winning_probability"),
    "repair.reconstruct_snos": ("nsgames.repair", "reconstruct_snos"),
    "repair.coupling_adjust": ("nsgames.repair", "coupling_adjust"),
    "repair.bump_up": ("nsgames.repair", "bump_up"),
    "repair.nearest_ns": ("nsgames.repair", "nearest_ns"),
    "bounds.verify_sandwich": ("nsgames.bounds", "verify_sandwich"),
    "bounds.verify_domination": ("nsgames.bounds", "verify_domination"),
    "bounds.repeated_value": ("nsgames.bounds", "repeated_value"),
    "cli.main": ("nsgames.cli", "main"),
}

COUNTS = (
    "exact_lp.vars",
    "exact_lp.rows",
    "exact_lp.nonzeros",
    "exact_lp.artificials",
    "exact_lp.max_input_bits",
    "symmetry.group_order",
    "cli.report_bytes",
)

OP = "op"  # root span of one benchmark op
BOOKKEEPING = "trace.bookkeeping"


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _count_lp(counts, args, kwargs, result) -> None:
    problem = args[0] if args else kwargs["problem"]
    counts["exact_lp.vars"] += problem.n_vars
    counts["exact_lp.rows"] += len(problem.constraints)
    bits = max(map(_bits, problem.objective), default=0)
    for coeffs, relation, bound in problem.constraints:
        counts["exact_lp.nonzeros"] += sum(1 for c in coeffs if c)
        if bound < 0:  # the solver flips the row to make the right-hand side nonnegative
            relation = {"<=": ">=", ">=": "<=", "=": "="}[relation]
        if relation != "<=":  # these rows start phase 1 with an artificial
            counts["exact_lp.artificials"] += 1
        bits = max(bits, _bits(bound), *map(_bits, coeffs))
    counts["exact_lp.max_input_bits"] = max(counts["exact_lp.max_input_bits"], bits)


def _count_group(counts, args, kwargs, result) -> None:
    counts["symmetry.group_order"] += len(result)


_COUNTERS = {"exact_lp.lp_solve": _count_lp, "symmetry.symmetry_group": _count_group}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.op_id = -1
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every TRACED function under each name the nsgames modules bind."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "nsgames"]
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, _COUNTERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                with self.span(BOOKKEEPING):
                    counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def add_counts(self, counts: dict[str, int]) -> None:
        for key, value in counts.items():
            self.counts[key] += value

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def metrics(self) -> dict[str, float | int]:
        self_s = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        out: dict[str, float | int] = {}
        for name in TRACED:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
        out.update(self.counts)
        return out


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        stack = tracer._stack
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
