"""Span and counter tracer installed from outside the library.

The tracer wraps the public functions of each wildforms layer at every
binding a ``wildforms.*`` module holds (modules import each other's
functions by name, so patching only the defining module would miss
calls).  Each wrapped call records a span (id, name, start, end,
parent, job) and the span's self time, which is its duration minus the
durations of the wrapped calls made inside it.  Counters are taken
from arguments and return values at the same boundaries.

Spans are kept in memory; ``write_spans`` writes them out once the
traced pass is over.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns
from typing import Callable

# (module, attribute, span name).  ``CatalecticantSlice.kernel_basis``
# is a cached_property; its getter function is wrapped in place.
TARGETS: list[tuple[str, str, str]] = [
    ("wildforms.cli", "main", "cli.main"),
    ("wildforms.poly", "parse", "poly.parse"),
    ("wildforms.poly", "render", "poly.render"),
    ("wildforms.families", "build", "families.build"),
    ("wildforms.apolar", "catalecticant", "apolar.catalecticant"),
    ("wildforms.apolar", "hilbert", "apolar.hilbert"),
    ("wildforms.apolar", "apolar_basis", "apolar.apolar_basis"),
    ("wildforms.apolar", "CatalecticantSlice.kernel_basis", "apolar.kernel_basis"),
    ("wildforms.linalg", "sparse_rank", "linalg.sparse_rank"),
    ("wildforms.linalg", "rank", "linalg.rank"),
    ("wildforms.linalg", "greedy_independent", "linalg.greedy_independent"),
    ("wildforms.linalg", "max_matching", "linalg.max_matching"),
    ("wildforms.linalg", "nullspace", "linalg.nullspace"),
    ("wildforms.polymat", "bareiss_jordan", "polymat.bareiss_jordan"),
    ("wildforms.polymat", "kernel_vector", "polymat.kernel_vector"),
    ("wildforms.polymat", "bareiss_det", "polymat.bareiss_det"),
    ("wildforms.hessian", "mixed_hessian", "hessian.mixed_hessian"),
    ("wildforms.hessian", "evaluated_rank", "hessian.evaluated_rank"),
    ("wildforms.hessian", "generic_rank", "hessian.generic_rank"),
    ("wildforms.hessian", "hessian_determinant", "hessian.hessian_determinant"),
    ("wildforms.hessian", "lefschetz_property", "hessian.lefschetz_property"),
    ("wildforms.powersum", "binary_waring_rank", "powersum.binary_waring_rank"),
    ("wildforms.powersum", "is_squarefree_binary", "powersum.is_squarefree_binary"),
    ("wildforms.bounds", "wild_certificate", "bounds.wild_certificate"),
    ("wildforms.bounds", "border_upper", "bounds.border_upper"),
    ("wildforms.bounds", "cactus_lower_vanishing", "bounds.cactus_lower_vanishing"),
    ("wildforms.bounds", "cactus_lower_degenerate", "bounds.cactus_lower_degenerate"),
    ("wildforms.bounds", "slice_rank_vanishing", "bounds.slice_rank_vanishing"),
]

# Which rung of the generic-rank ladder settled a RankReport, by method.
RUNGS = {
    "evaluation witness at full rank": "witness",
    "empty support": "matching",
    "evaluation witness meets support matching bound": "matching",
    "fraction-free Gauss-Jordan elimination": "symbolic",
    "seeded integer evaluations": "probabilistic",
}


COUNTERS = ["apolar.slice.cells", "apolar.slice.nnz", "linalg.rank.cells",
            "hessian.mixed_hessian.entries", "hessian.eval_trials",
            *("hessian.rung." + rung for rung in dict.fromkeys(RUNGS.values())),
            "powersum.resultant.calls", "powersum.resultant.max_dim",
            "powersum.resultant.ranks"]


class UnwrappedBinding(RuntimeError):
    """A traced function is still reachable through an unwrapped name."""


def form_key(form) -> tuple:
    return form.variables, frozenset(form.terms.items())


class Tracer:
    """Wraps the TARGETS while installed; records spans and counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.job: int | None = None
        self._stack: list[list] = []   # [span id, name, start, child ns]
        self._next_id = 0
        self._bindings: list[tuple] = []   # (owner, attribute, original)
        self._slices: set = set()
        self._ladders: set = set()
        self._resultant_seen = False

    # -- recording --------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _active(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def _on_return(self, name: str, args: tuple, result) -> None:
        if name == "apolar.catalecticant":
            self._count("apolar.slice.cells", result.nrows * result.ncols)
            self._count("apolar.slice.nnz", sum(len(row) for row in result.rows))
            self._slices.add((self.job, form_key(result.form), result.k))
        elif name == "linalg.rank":
            matrix = args[0]
            self._count("linalg.rank.cells",
                        len(matrix) * (len(matrix[0]) if matrix else 0))
        elif name == "hessian.mixed_hessian":
            self._count("hessian.mixed_hessian.entries", result.nrows * result.ncols)
        elif name == "hessian.generic_rank":
            hess = args[0]
            self._ladders.add((self.job, form_key(hess.form), hess.k, hess.l))
            self._count("hessian.rung." + RUNGS[result.method])
            self._count("hessian.eval_trials", result.trials)
        elif name == "polymat.bareiss_det" and self._active("powersum.binary_waring_rank"):
            self._count("powersum.resultant.calls")
            dim = len(args[0])
            if dim > self.counts.get("powersum.resultant.max_dim", 0):
                self.counts["powersum.resultant.max_dim"] = dim
            self._resultant_seen = True
        elif name == "powersum.binary_waring_rank":
            if self._resultant_seen:
                self._count("powersum.resultant.ranks")
            self._resultant_seen = False

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        calls = self.calls

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, name, 0, 0]
            stack.append(frame)
            frame[2] = start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[name] = self_ns.get(name, 0) + duration - frame[3]
                calls[name] = calls.get(name, 0) + 1
                if stack:
                    stack[-1][3] += duration
                spans.append((span_id, name, start, end, parent, self.job))
            self._on_return(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- installing -------------------------------------------------------

    @staticmethod
    def _modules() -> list:
        return [module for key, module in sorted(sys.modules.items())
                if module is not None
                and (key == "wildforms" or key.startswith("wildforms."))]

    @staticmethod
    def _resolve(module_name: str, attr: str) -> tuple[object, str, Callable]:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, prop_name = attr.split(".")
            prop = vars(getattr(module, cls_name))[prop_name]
            return prop, "func", prop.func
        return module, attr, getattr(module, attr)

    def install(self) -> None:
        """Wrap every target at every binding, then prove none was missed."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        try:
            for module_name, attr, name in TARGETS:
                owner, slot, original = self._resolve(module_name, attr)
                wrapper = self._wrap(name, original)
                places = [] if owner in modules else [(owner, slot)]
                places += [(module, key) for module in modules
                           for key, value in vars(module).items() if value is original]
                for place, key in places:
                    self._bindings.append((place, key, original))
                    setattr(place, key, wrapper)
            self.check_installed()
        except BaseException:
            self.uninstall()
            raise

    def check_installed(self) -> None:
        """Raise UnwrappedBinding if any traced function is still reachable."""
        originals = {}
        for module_name, attr, name in TARGETS:
            owner, slot, current = self._resolve(module_name, attr)
            original = getattr(current, "__wrapped__", None)
            if original is None:
                raise UnwrappedBinding(f"{name}: {module_name}.{attr} is not wrapped")
            originals[id(original)] = name
        leaks = []
        for module in self._modules():
            for key, value in vars(module).items():
                found = [value]
                if isinstance(value, dict):
                    found += list(value.values())
                elif isinstance(value, (list, tuple)):
                    found += list(value)
                for item in found:
                    if id(item) in originals:
                        leaks.append(f"{module.__name__}.{key} -> {originals[id(item)]}")
        if leaks:
            raise UnwrappedBinding("unwrapped bindings: " + ", ".join(sorted(leaks)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name: self times in s, counts, ratios."""
        out: dict[str, float] = {}
        for _, _, name in TARGETS:
            out[name + ".self_s"] = self.self_ns.get(name, 0) / 1e9
            out[name + ".calls"] = self.calls.get(name, 0)
        out.update((key, self.counts.get(key, 0)) for key in COUNTERS)
        built = self.calls.get("apolar.catalecticant", 0)
        out["apolar.slice.reuse_ratio"] = len(self._slices) / built if built else 1.0
        ladders = self.calls.get("hessian.generic_rank", 0)
        out["hessian.generic_rank.reuse_ratio"] = (len(self._ladders) / ladders
                                                   if ladders else 1.0)
        ranks = self.calls.get("powersum.binary_waring_rank", 0)
        out["powersum.resultant_ratio"] = (self.counts.get("powersum.resultant.ranks", 0)
                                           / ranks if ranks else 0.0)
        return out

    def write_spans(self, path) -> None:
        """Tab separated: id, name, start_ns, end_ns, parent id, job id."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for span in sorted(self.spans):
                handle.write("\t".join("" if v is None else str(v) for v in span) + "\n")
