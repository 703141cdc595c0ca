"""Spans around the calls into each zncomplex layer, for the traced run.

A span wraps one or more public functions of the library.  The wrapper is
installed on every module namespace that binds the function, because a
from-import binds it at import time: smith_normal_form lives in intlinalg,
simplicial and presentation, collapse_spur is construction._collapse, and
hyperforest_report sits in presentation and sg.  Calls made inside the
library through a module global then pass through the wrapper too.

Self time is a span's duration minus the time its child spans cover.  The
very hot helpers (normalize, has_edge, neighbors) stay unwrapped; their
time lands in the self time of whichever span calls them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# span name -> functions it wraps, as "module.function" under zncomplex.
SPANS = {
    "intlinalg.snf": ("intlinalg.smith_normal_form",),
    "intlinalg.rank": ("intlinalg.rank_of_rows",),
    "simplicial.homology": ("simplicial.homology_through", "simplicial.homology"),
    "simplicial.boundary": ("simplicial.boundary_matrix",),
    "simplicial.validate": ("simplicial.validate",),
    "simplicial.collapse": ("simplicial.collapse_spur",),
    "simplicial.spur_check": ("simplicial.is_spur",),
    "construction.build_w": ("construction.build_w",),
    "construction.build_x": ("construction.build_x_trace",),
    "factorization.orth": ("factorization.orthogonal_pair",),
    "factorization.verify": ("factorization.verify_orthogonal_pair",),
    "presentation.extract": ("presentation.extract_presentation",),
    "presentation.abelianize": ("presentation.abelian_images",),
    "presentation.minimize": ("presentation.minimize",),
    "presentation.eliminate": ("presentation.replace1", "presentation.replace2"),
    "presentation.subset_dim": ("presentation.subset_dimension",),
    "presentation.replace_subspace": ("presentation.replace_subspace",),
    "presentation.is_sparse": ("presentation.is_sparse",),
    "presentation.sparse_subset": ("presentation.maximal_sparse_subset",),
    "presentation.critical": ("presentation.critical_collection",),
    "presentation.replace_sparse": ("presentation.replace_sparse",),
    "hyperforest": ("hyperforest.hyperforest_report",),
    "sg.reduce": ("sg.sg_reduce",),
    "pipeline.upper": ("pipeline.run_upper",),
    "pipeline.lower": ("pipeline.run_lower",),
}


def _snf_cells(tracer, args, result):
    matrix = args[0]
    cells = len(matrix) * (len(matrix[0]) if matrix else 0)
    tracer.counters["snf_cells_max"] = max(tracer.counters["snf_cells_max"], cells)


def _forest_accepted(tracer, args, result):
    tracer.counters["forest_accepted"] += bool(result)


def _sg_kept(tracer, args, result):
    tracer.counters["sg_kept"] += len(result.kept)
    tracer.counters["sg_points"] += len(args[0].points)


OBSERVERS = {
    "intlinalg.snf": _snf_cells,
    "hyperforest": _forest_accepted,
    "sg.reduce": _sg_kept,
}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# per-layer metric -> value computed from a finished tracer.  The harness
# adds trace.overhead_ratio, which needs an untraced run as well.
METRICS = {
    "intlinalg.snf_calls": lambda t: t.calls["intlinalg.snf"],
    "intlinalg.snf_s": lambda t: t.self_s["intlinalg.snf"],
    "intlinalg.snf_cells_max": lambda t: t.counters["snf_cells_max"],
    "intlinalg.rank_calls": lambda t: t.calls["intlinalg.rank"],
    "intlinalg.rank_s": lambda t: t.self_s["intlinalg.rank"],
    "simplicial.homology_s": lambda t: t.self_s["simplicial.homology"],
    "simplicial.boundary_s": lambda t: t.self_s["simplicial.boundary"],
    "simplicial.validate_s": lambda t: t.self_s["simplicial.validate"],
    "simplicial.collapse_calls": lambda t: t.calls["simplicial.collapse"],
    "simplicial.collapse_s": lambda t: t.self_s["simplicial.collapse"],
    "simplicial.spur_check_calls": lambda t: t.calls["simplicial.spur_check"],
    "simplicial.spur_check_s": lambda t: t.self_s["simplicial.spur_check"],
    "construction.build_w_s": lambda t: t.self_s["construction.build_w"],
    "construction.build_x_s": lambda t: t.self_s["construction.build_x"],
    "factorization.orth_calls": lambda t: t.calls["factorization.orth"],
    "factorization.orth_s": lambda t: t.self_s["factorization.orth"],
    "factorization.verify_s": lambda t: t.self_s["factorization.verify"],
    "presentation.extract_s": lambda t: t.self_s["presentation.extract"],
    "presentation.abelianize_calls": lambda t: t.calls["presentation.abelianize"],
    "presentation.abelianize_s": lambda t: t.self_s["presentation.abelianize"],
    "presentation.minimize_s": lambda t: t.self_s["presentation.minimize"],
    "presentation.eliminations": lambda t: t.calls["presentation.eliminate"],
    "presentation.subset_dim_calls": lambda t: t.calls["presentation.subset_dim"],
    "presentation.replace_subspace_s":
        lambda t: t.self_s["presentation.replace_subspace"],
    "presentation.is_sparse_s": lambda t: t.self_s["presentation.is_sparse"],
    "presentation.sparse_subset_s": lambda t: t.self_s["presentation.sparse_subset"],
    "presentation.critical_s": lambda t: t.self_s["presentation.critical"],
    "presentation.replace_sparse_s": lambda t: t.self_s["presentation.replace_sparse"],
    "hyperforest.calls": lambda t: t.calls["hyperforest"],
    "hyperforest.s": lambda t: t.self_s["hyperforest"],
    "hyperforest.accept_ratio":
        lambda t: _ratio(t.counters["forest_accepted"], t.calls["hyperforest"]),
    "sg.reduce_s": lambda t: t.self_s["sg.reduce"],
    "sg.kept_ratio": lambda t: _ratio(t.counters["sg_kept"], t.counters["sg_points"]),
    "pipeline.upper_self_s": lambda t: t.self_s["pipeline.upper"],
    "pipeline.lower_self_s": lambda t: t.self_s["pipeline.lower"],
}


class Tracer:
    """Per-span call counts, self and inclusive seconds, and counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = Counter()
        self._children = []  # time covered by child spans, one slot per open span
        self._patches = []

    def _wrap(self, name, fn):
        clock = time.perf_counter
        children = self._children
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = children.pop()
                calls[name] += 1
                self_s[name] += elapsed - covered
                total_s[name] += elapsed
                if children:
                    children[-1] += elapsed
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every binding of every spanned function in zncomplex."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "zncomplex" or key.startswith("zncomplex."))]
        for span, targets in SPANS.items():
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                original = getattr(sys.modules["zncomplex." + module_name], attr)
                wrapper = self._wrap(span, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        return {name: compute(self) for name, compute in METRICS.items()}

    def spans(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": self.calls[name], "self_s": self.self_s[name],
                       "total_s": self.total_s[name]}
                for name in SPANS if self.calls[name]}
