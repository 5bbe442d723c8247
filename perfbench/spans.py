"""Span tracing of public triband functions for the traced run.

Targets are hooked by identity: every attribute of every loaded ``triband``
module that *is* the target function is replaced by one wrapper.  That
catches the by-name bindings (``bands``, ``floquet``, ``discriminant`` and
``checks`` each import ``propagate``; ``monodromy`` imports ``expm_stack``
and ``ordered_product``).  A target that no longer exists is recorded as
absent and its metrics read 0 instead of stopping the benchmark.

Spans (layer, start, end, parent, operation) live in memory; ``derive``
turns them into self times, shares and counts after the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

# span record fields
LAYER, START, END, PARENT, OP, COUNTS, FAILED = range(7)


def _stack_size(a: Any) -> int:
    shape = getattr(a, "shape", ())
    return math.prod(shape[:-2]) if len(shape) >= 2 else 1


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


@dataclass(frozen=True)
class Target:
    """A function to trace: where it is defined and how to count its work."""

    module: str
    func: str
    layer: str
    work: Optional[Callable[[tuple, dict, Any], dict]] = None


TARGETS = (
    Target("triband.cli", "main", "cli.main"),
    # verify's suites, so that cli.main's self time is the CLI's own work
    Target("triband.checks", "run_verify", "checks.run_verify"),
    Target("triband.coeffs", "load_coefficients", "coeffs.load_coefficients"),
    Target("triband._linalg", "expm_stack", "linalg.expm_stack",
           lambda a, k, r: {"matrices": _stack_size(_arg(a, k, 0, "A"))}),
    Target("triband._linalg", "ordered_product", "linalg.ordered_product",
           lambda a, k, r: {"factors": len(_arg(a, k, 0, "factors"))}),
    Target("triband.monodromy", "propagate", "monodromy.propagate"),
    Target("triband.monodromy", "propagate_pair", "monodromy.propagate_pair"),
    Target("triband.monodromy", "symplectic_residual", "monodromy.symplectic_residual"),
    Target("triband.monodromy", "picard_monodromy", "monodromy.picard_monodromy"),
    Target("triband.multipliers", "solve_multipliers", "multipliers.solve_multipliers"),
    Target("triband.multipliers", "continue_branches", "multipliers.continue_branches",
           lambda a, k, r: {"points": len(_arg(a, k, 0, "lams"))}),
    Target("triband._rootfind", "brent", "rootfind.brent"),
    Target("triband.floquet", "eigenvalues_at_k", "floquet.eigenvalues_at_k",
           lambda a, k, r: {"roots": len(r.eigenvalues), "missed": len(r.missed)}),
    Target("triband.discriminant", "sigma3_intervals", "discriminant.sigma3_intervals"),
    Target("triband.discriminant", "rho_at", "discriminant.rho_at"),
    Target("triband.bands", "scan_real_axis", "bands.scan_real_axis",
           lambda a, k, r: {"points": len(r),
                            "error_rows": sum(1 for pt in r if pt.error is not None)}),
    Target("triband.bands", "band_point", "bands.band_point"),
)

# layers whose period maps (propagate calls beneath them) are counted
PERIOD_MAP_OWNERS = (
    "floquet.eigenvalues_at_k",
    "discriminant.sigma3_intervals",
    "bands.scan_real_axis",
)


class Tracer:
    """In-memory span recorder; install() hooks the targets, uninstall() undoes it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counting_brent = target.layer == "rootfind.brent"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [target.layer, 0, 0, stack[-1] if stack else -1, self.op, None, False]
            if counting_brent:
                # brent's own evaluations of f (the caller may pass f(a), f(b))
                f = args[0]

                def counted(x, _f=f, _span=span):
                    _span[COUNTS]["evals"] += 1
                    return _f(x)

                span[COUNTS] = {"evals": 0}
                args = (counted, *args[1:])
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = time.perf_counter_ns()
                span[FAILED] = True
                raise
            finally:
                stack.pop()
            span[END] = time.perf_counter_ns()
            if target.work is not None:
                span[COUNTS] = target.work(args, kwargs, result)
            return result

        return traced

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "triband" or name.startswith("triband."))]
        for target in targets:
            try:
                fn = getattr(importlib.import_module(target.module), target.func)
            except (ImportError, AttributeError):
                self.absent.append(target.layer)
                continue
            traced = self.wrap(target, fn)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()


# (metric, unit) in the order the README documents them
METRICS = (
    ("linalg.expm_stack.calls", "count"),
    ("linalg.expm_stack.matrices", "count"),
    ("linalg.expm_stack.us_per_matrix", "us"),
    ("linalg.expm_stack.share", "fraction"),
    ("linalg.ordered_product.factors", "count"),
    ("linalg.ordered_product.us_per_factor", "us"),
    ("linalg.ordered_product.share", "fraction"),
    ("monodromy.propagate.calls", "count"),
    ("monodromy.propagate.ms_per_call", "ms"),
    ("monodromy.propagate.share", "fraction"),
    ("monodromy.symplectic_residual.us_per_call", "us"),
    ("monodromy.symplectic_residual.share", "fraction"),
    ("monodromy.propagate_pair.calls", "count"),
    ("monodromy.picard_monodromy.calls", "count"),
    ("monodromy.picard_monodromy.ms_per_call", "ms"),
    ("monodromy.picard_monodromy.share", "fraction"),
    ("floquet.eigenvalues_at_k.roots", "count"),
    ("floquet.eigenvalues_at_k.missed", "count"),
    ("floquet.eigenvalues_at_k.period_maps_per_root", "ratio"),
    ("rootfind.brent.calls", "count"),
    ("rootfind.brent.evals_per_call", "ratio"),
    ("discriminant.sigma3_intervals.period_maps_per_call", "ratio"),
    ("discriminant.rho_at.calls", "count"),
    ("multipliers.solve_multipliers.calls", "count"),
    ("multipliers.solve_multipliers.us_per_call", "us"),
    ("multipliers.continue_branches.us_per_point", "us"),
    ("multipliers.continue_branches.share", "fraction"),
    ("bands.scan_real_axis.points", "count"),
    ("bands.scan_real_axis.error_rows", "count"),
    ("bands.scan_real_axis.period_maps_per_point", "ratio"),
    ("bands.band_point.calls", "count"),
    ("cli.main.self_ms_per_op", "ms"),
    ("cli.output_bytes", "bytes"),
    ("coeffs.load_coefficients.ms_per_call", "ms"),
    ("trace.overhead_frac", "fraction"),
)


@dataclass
class _Layer:
    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    period_maps: int = 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(
    spans: list[list],
    op_wall_ns: list[int],
    passes: int,
    cli_ops: int,
    cli_output_bytes: int,
) -> tuple[dict[str, float], dict[int, int]]:
    """Per-layer metrics from the spans of `passes` identical traced passes.

    op_wall_ns[i] is the benchmark's own timing of traced operation i.
    Counts are per pass.  A layer's time is inclusive, counted once where
    calls of the same layer nest; share is that time over the summed
    operation wall time.  The tracing cost is estimated as spans times the
    median gap between an operation's own timing and its root span (one
    span's entry and exit, measured in place).  Returns the metrics and,
    per operation, the sum of the self times of its spans.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]

    layers: dict[str, _Layer] = {}
    counts: dict[str, dict[str, int]] = {}
    self_by_op: dict[int, int] = {}
    for i, s in enumerate(spans):
        layer = layers.setdefault(s[LAYER], _Layer())
        dur = s[END] - s[START]
        layer.calls += 1
        self_ns = dur - child_ns[i]
        layer.self_ns += self_ns
        self_by_op[s[OP]] = self_by_op.get(s[OP], 0) + self_ns
        if s[COUNTS]:
            bucket = counts.setdefault(s[LAYER], {})
            for key, value in s[COUNTS].items():
                bucket[key] = bucket.get(key, 0) + value
        ancestors = []
        p = s[PARENT]
        while p >= 0:
            ancestors.append(spans[p][LAYER])
            p = spans[p][PARENT]
        if s[LAYER] not in ancestors:
            layer.incl_ns += dur
        if s[LAYER] == "monodromy.propagate":
            for owner in set(ancestors) & set(PERIOD_MAP_OWNERS):
                layers.setdefault(owner, _Layer()).period_maps += 1

    root_ns = {s[OP]: s[END] - s[START] for s in spans if s[PARENT] < 0}
    gaps = sorted(w - root_ns.get(i, 0) for i, w in enumerate(op_wall_ns))
    span_ns = gaps[len(gaps) // 2] if gaps else 0

    L = lambda name: layers.get(name, _Layer())  # noqa: E731
    C = lambda name, key: counts.get(name, {}).get(key, 0)  # noqa: E731
    wall = sum(op_wall_ns)
    share = lambda name: _ratio(L(name).incl_ns, wall)  # noqa: E731
    per_pass = lambda x: x / passes  # noqa: E731

    m = {
        "linalg.expm_stack.calls": per_pass(L("linalg.expm_stack").calls),
        "linalg.expm_stack.matrices": per_pass(C("linalg.expm_stack", "matrices")),
        "linalg.expm_stack.us_per_matrix":
            _ratio(L("linalg.expm_stack").incl_ns / 1e3, C("linalg.expm_stack", "matrices")),
        "linalg.expm_stack.share": share("linalg.expm_stack"),
        "linalg.ordered_product.factors": per_pass(C("linalg.ordered_product", "factors")),
        "linalg.ordered_product.us_per_factor":
            _ratio(L("linalg.ordered_product").incl_ns / 1e3,
                   C("linalg.ordered_product", "factors")),
        "linalg.ordered_product.share": share("linalg.ordered_product"),
        "monodromy.propagate.calls": per_pass(L("monodromy.propagate").calls),
        "monodromy.propagate.ms_per_call":
            _ratio(L("monodromy.propagate").incl_ns / 1e6, L("monodromy.propagate").calls),
        "monodromy.propagate.share": share("monodromy.propagate"),
        "monodromy.symplectic_residual.us_per_call":
            _ratio(L("monodromy.symplectic_residual").incl_ns / 1e3,
                   L("monodromy.symplectic_residual").calls),
        "monodromy.symplectic_residual.share": share("monodromy.symplectic_residual"),
        "monodromy.propagate_pair.calls": per_pass(L("monodromy.propagate_pair").calls),
        "monodromy.picard_monodromy.calls": per_pass(L("monodromy.picard_monodromy").calls),
        "monodromy.picard_monodromy.ms_per_call":
            _ratio(L("monodromy.picard_monodromy").incl_ns / 1e6,
                   L("monodromy.picard_monodromy").calls),
        "monodromy.picard_monodromy.share": share("monodromy.picard_monodromy"),
        "floquet.eigenvalues_at_k.roots": per_pass(C("floquet.eigenvalues_at_k", "roots")),
        "floquet.eigenvalues_at_k.missed": per_pass(C("floquet.eigenvalues_at_k", "missed")),
        "floquet.eigenvalues_at_k.period_maps_per_root":
            _ratio(L("floquet.eigenvalues_at_k").period_maps,
                   C("floquet.eigenvalues_at_k", "roots")),
        "rootfind.brent.calls": per_pass(L("rootfind.brent").calls),
        "rootfind.brent.evals_per_call":
            _ratio(C("rootfind.brent", "evals"), L("rootfind.brent").calls),
        "discriminant.sigma3_intervals.period_maps_per_call":
            _ratio(L("discriminant.sigma3_intervals").period_maps,
                   L("discriminant.sigma3_intervals").calls),
        "discriminant.rho_at.calls": per_pass(L("discriminant.rho_at").calls),
        "multipliers.solve_multipliers.calls": per_pass(L("multipliers.solve_multipliers").calls),
        "multipliers.solve_multipliers.us_per_call":
            _ratio(L("multipliers.solve_multipliers").incl_ns / 1e3,
                   L("multipliers.solve_multipliers").calls),
        "multipliers.continue_branches.us_per_point":
            _ratio(L("multipliers.continue_branches").incl_ns / 1e3,
                   C("multipliers.continue_branches", "points")),
        "multipliers.continue_branches.share": share("multipliers.continue_branches"),
        "bands.scan_real_axis.points": per_pass(C("bands.scan_real_axis", "points")),
        "bands.scan_real_axis.error_rows": per_pass(C("bands.scan_real_axis", "error_rows")),
        "bands.scan_real_axis.period_maps_per_point":
            _ratio(L("bands.scan_real_axis").period_maps, C("bands.scan_real_axis", "points")),
        "bands.band_point.calls": per_pass(L("bands.band_point").calls),
        "cli.main.self_ms_per_op": _ratio(L("cli.main").self_ns / 1e6, cli_ops * passes),
        "cli.output_bytes": _ratio(cli_output_bytes, cli_ops),
        "coeffs.load_coefficients.ms_per_call":
            _ratio(L("coeffs.load_coefficients").incl_ns / 1e6,
                   L("coeffs.load_coefficients").calls),
        "trace.overhead_frac": _ratio(span_ns * len(spans), wall),
    }
    return m, self_by_op
