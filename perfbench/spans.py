"""Spans around k3count's public functions, recorded from outside the package.

Each public function is wrapped where another module (or the benchmark)
imported it, by replacing that module's name for it for the length of a
traced pass.  Calls a module makes to its own functions stay unwrapped,
so a recursive parser gains no extra frames.  The package source is not
edited.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter
from functools import cached_property
from time import perf_counter

MODULES = ("qseries", "numsg", "semimodule", "invariants", "cli")

# Exception families k3count documents as input errors (the CLI maps them
# to exit codes 1 and 2); anything else leaving a layer is unexpected.
EXPECTED_ERRORS = (ValueError, OSError)


class Tracer:
    """In-memory span recorder: name, start, end, parent span and item id."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.item = None
        self._counted: set[tuple[str, int]] = set()

    def begin_item(self, item_id) -> None:
        self.item = item_id
        self.stack.clear()
        self._counted.clear()

    def wrap(self, name: str, fn, measure=None):
        tracer = self
        module = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(module, exc)
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.item)
            if measure is not None:
                measure(tracer.counts, args, result)
            return result

        return traced

    def _error(self, module: str, exc: BaseException) -> None:
        if module == "cli":
            unexpected = not isinstance(exc, SystemExit)
        else:
            unexpected = not isinstance(exc, EXPECTED_ERRORS)
        key = (module, id(exc))
        if unexpected and key not in self._counted:
            self._counted.add(key)
            self.errors[module] += 1


def _count_series(counts, args, result) -> None:
    counts["qseries.coeffs"] += len(result)
    counts["qseries.result_bits"] += sum(c.bit_length() for c in result)


def _count_semigroup(counts, args, result) -> None:
    counts["numsg.sieve_span"] += result.frobenius + result.generators[0]


def _count_enumeration(counts, args, result) -> None:
    s = args[0]
    counts["semimodule.enumerate.modules"] += len(result)
    counts["semimodule.enumerate.window"] += s.frobenius + s.genus


def _count_generators(counts, args, result) -> None:
    counts["semimodule.minimal_generators.gens"] += len(result)


COUNTERS = (
    "qseries.coeffs",
    "qseries.result_bits",
    "numsg.sieve_span",
    "semimodule.enumerate.modules",
    "semimodule.enumerate.window",
    "semimodule.minimal_generators.gens",
)

# public function -> (span name, counter hook)
SPANS = {
    "yau_zaslow_coefficients": ("qseries", _count_series),
    "semigroup_from_generators": ("numsg", _count_semigroup),
    "enumerate_delta_sets": ("semimodule.enumerate", _count_enumeration),
    "minimal_generators": ("semimodule.minimal_generators", _count_generators),
    "necklace_to_delta": ("semimodule.necklace_to_delta", None),
    "delta_to_necklace": ("semimodule.delta_to_necklace", None),
    "parse_singularity": ("invariants.parse", None),
    "parse_curve": ("invariants.parse", None),
    "parse_curve_file": ("invariants.parse", None),
    "epsilon_pq": ("invariants.epsilon", None),
    "epsilon_semigroup": ("invariants.epsilon", None),
    "check_genus_sum": ("invariants.check_genus_sum", None),
    "main": ("cli.main", None),
}


class Patched:
    """Swap traced wrappers into import sites; restore them on exit."""

    def __init__(self, tracer: Tracer, namespaces) -> None:
        self.tracer = tracer
        self.namespaces = namespaces
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patched":
        from k3count import invariants

        for ns in self.namespaces:
            home = getattr(ns, "__name__", None)
            for attr, (name, measure) in SPANS.items():
                fn = getattr(ns, attr, None)
                # only names imported from another module: a module's calls
                # to its own functions are not layer boundaries
                if fn is not None and fn.__module__ != home:
                    self._swap(ns, attr, self.tracer.wrap(name, fn, measure))
        # Singularity.epsilon is a cached property read by the CLI and by
        # curve multiplicities; wrap the function behind it on each class.
        for cls in (invariants.PlanarPQ, invariants.Ade, invariants.SemigroupPoint, invariants.MultiBranch):
            original = cls.__dict__["epsilon"]
            replacement = cached_property(self.tracer.wrap("invariants.epsilon", original.func))
            replacement.__set_name__(cls, "epsilon")
            self._swap(cls, "epsilon", replacement)
        return self

    def _swap(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc_info) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def import_sites(bench_namespace):
    """Every namespace through which one layer reaches another."""
    from k3count import cli, invariants, semimodule

    return (bench_namespace, cli, invariants, semimodule)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, busy time (union of spans) and self time."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _item in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Counter = Counter()
    for name in {name for name, _ in SPANS.values()}:
        out.update({name + ".calls": 0, name + ".self_s": 0.0, name + ".busy_s": 0.0})
    out.update(dict.fromkeys(COUNTERS, 0))
    for index, (name, start, end, parent, _item) in enumerate(spans):
        out[name + ".calls"] += 1
        out[name + ".self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[name + ".busy_s"] += end - start
    main_total = [end - start for name, start, end, _p, _i in spans if name == "cli.main"]
    main_self = [
        (end - start) - child_time[i] for i, (name, start, end, _p, _i) in enumerate(spans) if name == "cli.main"
    ]
    out["cli.main_s"] = statistics.median(main_total) if main_total else 0.0
    out["cli.overhead_s"] = statistics.median(main_self) if main_self else 0.0
    out.update(tracer.counts)
    for module in MODULES:
        out[module + ".errors"] = tracer.errors[module]
    return dict(out)


def write_spans(path, tracer: Tracer, summary: dict) -> None:
    """Write every span, relative to the first, plus the run summary."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [
        [name, round(start - origin, 9), round(end - origin, 9), parent, item]
        for name, start, end, parent, item in tracer.spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"summary": summary, "columns": ["name", "start_s", "end_s", "parent", "item"], "spans": rows}, handle)
