"""Per-layer spans for juryconv, taken by wrapping public functions from outside.

The library itself carries no instrumentation.  :func:`install` replaces
each target function with a wrapper in every loaded ``juryconv.*``
namespace whose attribute *is* the original function object, so copies
made by ``from .conv_core import conv`` are caught as well as the
defining module.  Targets that a later version of the library no longer
has are skipped.

Spans are kept in memory as ``(name, start, end, parent, extra)`` and
folded into per-name totals by :meth:`Tracer.summary` when the run ends.
A span's self time is its duration minus the durations of its direct
children.  The partition cache is never read or cleared: a call counts
as cold when its ``(shape, ell, target, flag)`` key is seen for the
first time in the process, which is why every pass runs in a fresh
interpreter.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

CONSTRUCT_OWNER = ("juryconv.conv_core", "ConvMatrix")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _conv_name(args, kwargs):
    return "conv_core.conv." + _arg(args, kwargs, 0, "a").scalar


def _conv_madds(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    return {"madds": a.rows * (a.rows + 1) // 2 * (a.cols * (a.cols + 1) // 2)}


def _padded_madds(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    return {"madds": a.rows * a.cols * b.rows * b.cols}


def _series_terms(args, kwargs, result):
    return {"terms": result.terms_used}


def _emitted(args, kwargs, result):
    return {"emitted": len(result)}


def _fixed(name):
    return lambda args, kwargs: name


class Tracer:
    """Span recorder; one per process, installed once after set-up."""

    def __init__(self):
        self.active = False
        self.spans = []
        self._stack = []
        self._seen_partition_keys = set()

    # -- naming hooks that need tracer state ---------------------------

    def _enumerate_name(self, args, kwargs):
        grid = _arg(args, kwargs, 0, "grid")
        key = (grid.rows, grid.cols, _arg(args, kwargs, 1, "ell"),
               tuple(_arg(args, kwargs, 2, "target")),
               bool(_arg(args, kwargs, 3, "exclude_origin", True)))
        if key in self._seen_partition_keys:
            return "partitions.enumerate.warm"
        self._seen_partition_keys.add(key)
        return "partitions.enumerate.cold"

    def targets(self):
        """(module, attribute, namer, extra) for every traced function."""
        return [
            ("juryconv.conv_core", "conv", _conv_name, _conv_madds),
            ("juryconv.conv_core", "conv_inverse_recursive",
             _fixed("conv_core.inverse.recursive"), None),
            ("juryconv.conv_core", "conv_inverse_ch", _fixed("conv_core.inverse.ch"), None),
            ("juryconv.conv_core", "conv_power_squaring", _fixed("conv_core.power"), None),
            ("juryconv.conv_core", "conv_power_naive", _fixed("conv_core.power"), None),
            ("juryconv.partitions", "enumerate_partitions", self._enumerate_name, _emitted),
            ("juryconv.partitions", "elementary_sum", _fixed("partitions.elementary_sum"), None),
            ("juryconv.transforms", "smooth_transform", _fixed("transforms.smooth"), None),
            ("juryconv.transforms", "stepped_transform", _fixed("transforms.stepped"), None),
            ("juryconv.transforms", "bivariate_power_matrix",
             _fixed("transforms.bivariate"), None),
            ("juryconv.transforms", "poly_transform", _fixed("transforms.poly"), None),
            ("juryconv.transforms", "series_transform", _fixed("transforms.series"),
             _series_terms),
            ("juryconv.cayley_hamilton", "ch_check", _fixed("cayley_hamilton.ch_check"), None),
            ("juryconv.cayley_hamilton", "minimal_polynomial",
             _fixed("cayley_hamilton.minimal_polynomial"), None),
            ("juryconv.positivity", "is_psd", _fixed("positivity.is_psd"), None),
            ("juryconv.positivity", "sample_psd", _fixed("positivity.sample_psd"), None),
            ("juryconv.probgrid", "padded_conv", _fixed("probgrid.padded_conv"), _padded_madds),
            ("juryconv.bruhat", "bruhat_leq_conv", _fixed("bruhat.leq_conv"), None),
            ("juryconv.bruhat", "bruhat_leq_oracle", _fixed("bruhat.leq_oracle"), None),
        ]

    # -- recording ------------------------------------------------------

    def span(self, name, fn, *args, extra=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, None)
        if extra is not None:
            self.spans[idx] = (name, start, end, parent, extra(args, kwargs, result))
        return result

    def _wrap(self, fn, namer, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(args, kwargs)  # always run: cold/warm keys track every call
            if not self.active:
                return fn(*args, **kwargs)
            return self.span(name, fn, *args, extra=extra, **kwargs)
        return wrapper

    def install(self):
        """Patch the targets into every loaded juryconv namespace."""
        replacements = {}
        for module_name, attr, namer, extra in self.targets():
            original = getattr(sys.modules.get(module_name), attr, None)
            if callable(original):
                replacements[id(original)] = (original, self._wrap(original, namer, extra))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "juryconv"
                                      or module_name.startswith("juryconv.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        owner = getattr(sys.modules.get(CONSTRUCT_OWNER[0]), CONSTRUCT_OWNER[1], None)
        post_init = getattr(owner, "__post_init__", None)
        if post_init is not None:
            wrapped = self._wrap(post_init, _fixed("conv_core.construct"), None)
            setattr(owner, "__post_init__", wrapped)

    # -- folding --------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self_s and summed extra counts."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for idx, (name, start, end, parent, extra) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[idx]
            for key, value in (extra or {}).items():
                row[key] = row.get(key, 0) + value
        return out
