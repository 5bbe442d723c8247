"""Checks of every operation's output, run outside the timed region.

A failure is an unhandled exception, a nonzero exit status or a failed
check.  A row refused with PropagationOverflowError (the documented range
limit) is a success.  Besides the invariants of each command, sampled
operations are recomputed by an independent route: the Picard series, or
the free-case closed forms when the coefficients are zero.

The workloads keep clear of two known program defects, so that no counted
operation fails; each defect is reproduced apart, outside the timing and
the counts, and the run prints what it finds:

  * D1: band_point raises OverflowError (or LinAlgError) for
    2.04e7 <= |lambda| <= 5e8, below the documented refusal limit
    (known_defect_d1);
  * D3: on constant coefficients, a sigma3 endpoint can land on a touch of
    rho inside the set (rho < 0 on both sides) instead of on its sign
    change, when one scan bracket holds both (known_defect_d3).

Should D3 still turn up in a workload, it is reported with the KNOWN
prefix: it counts as a failed operation, but it does not make a run
incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from triband.bands import band_point
from triband.coeffs import PeriodicCoefficients, load_coefficients
from triband.discriminant import rho_formula_scale, rho_trace_formula, sigma3_intervals
from triband.floquet import char_real_function
from triband.freecase import free_case
from triband.monodromy import SpectralParameter, picard_monodromy, trace_at

# refusal message of PropagationOverflowError ("growth exponent ... exceeds")
REFUSAL = "growth exponent"
EIGS_RESIDUAL = 1e-8
RHO_RTOL = 1e-8
PICARD_RTOL = 1e-9
PICARD_MAX_ABS_LAMBDA = 1e5
# rho nearer 0 than this share of the formula's scale has no reliable sign:
# about ten times what rounding T to complex128 leaves in rho
SIGN_NOISE_RTOL = 1e-14
KNOWN = "known defect: "
# inside 2.04e7 <= |lambda| <= 5e8, where band_point raises (ROADMAP D1)
D1_PROBES = (5e7, -5e7, 1e8, -1e8, 3e8, -3e8)
# a constant set and sigma3 window whose lower endpoint lands on a touch
D3_CONSTANTS = (5.942823370666968, 3.1544276746960014, 64)
D3_WINDOW = (-15.691997430662607, 20.86053824692716)
D3_POINTS = 9
D3_TOL = 1e-6


def endpoint_problems(c: PeriodicCoefficients, ivs: list[dict], tol: float) -> list[str]:
    """Empty when rho changes sign across every unclipped sigma3 endpoint."""
    out = []
    for iv in ivs:
        for x, inward, clipped in ((iv["lo"], 1.0, iv["lo_clipped"]),
                                   (iv["hi"], -1.0, iv["hi_clipped"])):
            if clipped:
                continue
            signs = _signs_across(c, x, inward, tol, iv["hi"] - iv["lo"])
            if signs == [-1, -1]:
                out.append(f"{KNOWN}endpoint {x} is a touch of rho inside the set")
            elif signs != [1, -1]:
                out.append(f"rho does not change sign across endpoint {x}: {signs}")
    return out


def _signs_across(c, x: float, inward: float, tol: float, width: float) -> list[int]:
    """Signs of rho just outside and just inside an endpoint ([1, -1] is right).

    While rho stays within the noise band (SIGN_NOISE_RTOL) the probe
    distance grows tenfold, up to a quarter of the interval.  The band is
    not sigma3's own zero band (1e-12 of the scale): Brent ends on a strict
    sign change, which can lie in a dip of rho shallower than that band,
    and that band would read such an endpoint as no sign change.
    """
    d = 4.0 * tol
    while True:
        d = min(d, width / 4.0)
        signs = []
        for lam in (x - inward * d, x + inward * d):
            T = trace_at(c, lam)
            rho, band = rho_trace_formula(T), SIGN_NOISE_RTOL * rho_formula_scale(T)
            signs.append((rho > band) - (rho < -band))
        if 0 not in signs or d >= width / 4.0:
            return signs
        d *= 10.0


@dataclass
class OpResult:
    """What one operation returned: CLI status and text, or a probe's BandPoint."""

    status: Optional[int] = None
    text: str = ""
    value: Any = None
    exc: Optional[BaseException] = None

    def digest(self) -> str:
        if self.exc is not None:
            return f"raised {type(self.exc).__name__}: {self.exc}"
        if self.value is not None:
            return repr(self.value)
        return f"{self.status}\n{self.text}"


class Checker:
    """Validates results; coefficient files are loaded once, outside the timing."""

    def __init__(self) -> None:
        self._coeffs: dict[str, PeriodicCoefficients] = {}

    def coeffs(self, path: str) -> PeriodicCoefficients:
        if path not in self._coeffs:
            self._coeffs[path] = load_coefficients(path)
        return self._coeffs[path]

    def problems(self, op, res: OpResult, independent: bool) -> list[str]:
        """Empty when the result is correct; independent adds the second route."""
        if res.exc is not None:
            return [f"unhandled {type(res.exc).__name__}: {res.exc}"]
        if op.kind == "probe":
            return self._probe(op, res.value, independent)
        if op.kind == "verify":
            return self._verify(res)
        if res.status != 0:
            return [f"exit status {res.status}"]
        doc = json.loads(res.text)
        return getattr(self, "_" + op.kind)(op, doc, independent)

    # --- independent routes -------------------------------------------------

    def _picard_trace(self, c: PeriodicCoefficients, lam: float) -> complex:
        param = SpectralParameter.from_lambda(lam)
        tol = 1e-12 * math.exp(param.z0 + c.kappa)
        return picard_monodromy(c, param, tol=tol).trace_T

    def _rho_matches(self, rho: Optional[float], T: complex) -> bool:
        expected = rho_trace_formula(T)
        if rho is None or not math.isfinite(expected):
            return rho is None and not math.isfinite(expected)
        return abs(rho - expected) <= RHO_RTOL * rho_formula_scale(T)

    # --- per command ----------------------------------------------------------

    def _scan(self, op, doc: dict, independent: bool) -> list[str]:
        a, b = op.expect["interval"]
        grid = np.linspace(a, b, op.expect["points"])
        pts = doc["points"]
        if len(pts) != len(grid):
            return [f"{len(pts)} rows for {len(grid)} points"]
        out = []
        for pt, lam in zip(pts, grid):
            if pt["lambda"] != float(lam):
                out.append(f"row lambda {pt['lambda']} is not grid point {lam}")
            if pt["error"] is not None:
                if not pt["error"].startswith(REFUSAL):
                    out.append(f"error row at {lam}: {pt['error']}")
                continue
            mult = pt["multiplicity"]
            if mult not in (1, 3):
                out.append(f"multiplicity {mult} at {lam}")
            elif not pt["flags"] and mult != pt["on_circle_count"]:
                out.append(f"multiplicity {mult} but {pt['on_circle_count']} on circle at {lam}")
            if pt["rho"] is not None and (pt["rho"] <= 0) != (mult == 3):
                out.append(f"rho {pt['rho']} disagrees with multiplicity {mult} at {lam}")
        last = pts[-1]
        if independent and last["error"] is None:
            T = self._picard_trace(self.coeffs(op.coeffs), float(last["lambda"]))
            if not self._rho_matches(last["rho"], T):
                out.append(f"rho {last['rho']} differs from the series route at {last['lambda']}")
        return out

    def _eigs(self, op, doc: dict, independent: bool) -> list[str]:
        n_lo, n_hi = op.expect["n_range"]
        eigs, missed = doc["eigenvalues"], doc["missed"]
        out = []
        if len(eigs) + len(missed) != n_hi - n_lo + 1:
            out.append(f"{len(eigs)} roots + {len(missed)} missed for {n_hi - n_lo + 1} seeds")
        lams = [e["lambda_n"] for e in eigs]
        ns = [e["n"] for e in eigs]
        if lams != sorted(lams) or ns != sorted(ns):
            out.append("eigenvalues out of order")
        for e in eigs:
            if not e["residual"] <= EIGS_RESIDUAL:
                out.append(f"residual {e['residual']} at n={e['n']}")
            if e["k"] != op.expect["k"]:
                out.append(f"k {e['k']} echoed for {op.expect['k']}")
        if independent and eigs:
            lam = eigs[0]["lambda_n"]
            T = self._picard_trace(self.coeffs(op.coeffs), lam)
            f = char_real_function(op.expect["k"], T) / (1.0 + abs(T))
            if not abs(f) <= PICARD_RTOL:
                out.append(f"series route gives |F|/(1+|T|) = {abs(f):.2e} at {lam}")
        return out

    def _sigma3(self, op, doc: dict, independent: bool) -> list[str]:
        c = self.coeffs(op.coeffs)
        tol = op.expect["tol"]
        ivs = doc["intervals"]
        lo_ref, hi_ref = op.expect["bracket"]
        if not any(iv["lo"] < hi_ref and iv["hi"] > lo_ref for iv in ivs):
            return [f"no interval found inside the known bracket ({lo_ref}, {hi_ref})"]
        return endpoint_problems(c, ivs, tol)

    def _verify(self, res: OpResult) -> list[str]:
        if res.status != 0:
            return [f"exit status {res.status}"]
        doc = json.loads(res.text)
        failed = [chk["name"] for chk in doc["checks"] if not chk["passed"]]
        if failed or not doc["all_passed"]:
            return [f"verify suites failed: {failed}"]
        return []

    def _probe(self, op, pt, independent: bool) -> list[str]:
        if pt.error is not None:
            return [] if pt.error.startswith(REFUSAL) else [f"error row: {pt.error}"]
        out = []
        if pt.multiplicity not in (1, 3):
            out.append(f"multiplicity {pt.multiplicity}")
        elif not pt.flags and pt.multiplicity != pt.on_circle_count:
            out.append(f"multiplicity {pt.multiplicity} but {pt.on_circle_count} on circle")
        if op.expect["zero"]:
            ref = free_case(op.lam)
            rho = pt.rho if math.isfinite(pt.rho) else None
            if not self._rho_matches(rho, ref.T0):
                out.append(f"rho {pt.rho} differs from the free-case closed form")
            if pt.on_circle_count != 1:
                out.append(f"{pt.on_circle_count} multipliers on circle in the free case")
        elif independent and abs(op.lam) <= PICARD_MAX_ABS_LAMBDA:
            T = self._picard_trace(self.coeffs(op.coeffs), op.lam)
            rho = pt.rho if math.isfinite(pt.rho) else None
            if not self._rho_matches(rho, T):
                out.append(f"rho {pt.rho} differs from the series route")
        return out


def known_defect_d1() -> str:
    """One line on whether band_point still raises in the D1 range.

    These probes are not operations of any workload: they are neither
    timed nor counted in attempted or failed.
    """
    c = PeriodicCoefficients.from_constants(0.5, 0.3, 16)
    raised = {}
    for lam in D1_PROBES:
        try:
            band_point(c, lam)
        except Exception as exc:
            raised[lam] = type(exc).__name__
    if not raised:
        return f"D1 no longer reproduces: band_point returns at every lambda in {D1_PROBES}"
    return (f"D1 still reproduces: band_point raises at {len(raised)} of {len(D1_PROBES)} "
            f"probes: {raised}")


def known_defect_d3() -> str:
    """One line on whether sigma3 still lands on a touch of rho (D3).

    Like known_defect_d1, this is no operation of any workload.
    """
    c = PeriodicCoefficients.from_constants(*D3_CONSTANTS)
    result = sigma3_intervals(c, D3_WINDOW, scan_points=D3_POINTS, tol=D3_TOL)
    ivs = [{"lo": iv.lo, "hi": iv.hi, "lo_clipped": iv.lo_clipped, "hi_clipped": iv.hi_clipped}
           for iv in result.intervals]
    touches = [m for m in endpoint_problems(c, ivs, D3_TOL) if m.startswith(KNOWN)]
    if not touches:
        return f"D3 no longer reproduces: sigma3 on constant p, q = {D3_CONSTANTS[:2]} " \
               f"over {D3_WINDOW} ends every interval on a sign change of rho"
    return f"D3 still reproduces: sigma3 on constant p, q = {D3_CONSTANTS[:2]} over " \
           f"{D3_WINDOW}: " + "; ".join(m[len(KNOWN):] for m in touches)


# what each workload's run reproduces apart from its operations
KNOWN_DEFECTS = {"verify-far": (known_defect_d1,), "roots-steps": (known_defect_d3,)}
