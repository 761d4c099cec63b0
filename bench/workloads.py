"""The three request sequences, their seeded inputs and their checks.

Each workload function builds its inputs from the seed (this is the
timed set-up) and returns the request list.  A request is either one
public library operation, possibly followed by a PSD verdict, or an
in-process ``cli.main(["suite", ...])``.  Its check runs outside the
timer and returns ``None`` when the output is right, or a reason.

Rational checks are exact (``==``) against the independent oracle
routes the library keeps.  Float checks compare against a second route
with a residual bound ``FLOAT_RTOL`` scaled by the operands' max-norms.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import juryconv as jc
from juryconv import cli

FLOAT_RTOL = 1e-7
EXP_COEFFS = tuple(1 / math.factorial(k) for k in range(120))
NEG_EXP_COEFFS = tuple((-1) ** k / math.factorial(k) for k in range(120))
ALPHAS = (0.5, 2.5, -0.5)
H_GRID = (0.25, 0.1)


@dataclass(frozen=True)
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    suite: bool = False


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _max_dist(x, y) -> float:
    return max(abs(complex(x.data[i][j]) - complex(y.data[i][j])) for i, j in x.indices())


def _close(got, want, scale: float) -> Optional[str]:
    err = _max_dist(got, want)
    bound = FLOAT_RTOL * max(1.0, scale)
    return None if err <= bound else f"residual {err:.3e} > {bound:.3e}"


def _exact(got, want) -> Optional[str]:
    return None if got == want else "exact result differs from the oracle route"


def _with_verdict(fn):
    """Run a transform and take the PSD verdict of its result."""
    def run():
        m = fn()
        return m, jc.is_psd(m)
    return run


def _psd(verdict) -> Optional[str]:
    return None if verdict.is_psd else f"not PSD: min eig {verdict.min_eigenvalue:.3e}"


def _finite(verdict) -> Optional[str]:
    return None if math.isfinite(verdict.min_eigenvalue) else "non-finite eigenvalue"


def _inverse_residual(a, inv) -> Optional[str]:
    ident = jc.conv_identity(a.rows, a.cols, a.scalar)
    return _close(jc.conv(a, inv), ident, a.max_abs() * inv.max_abs())


def suite_request(name: str, *args: str) -> Request:
    argv = ["suite", name, *args]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        if json.loads(text).get("ok") is not True:
            return "report has ok != true"
        return None

    return Request(" ".join(argv), run, check, suite=True)


def report_digest(out) -> str:
    return hashlib.sha256(out[1].encode()).hexdigest()


# ----------------------------------------------------------------------
# calculus: partitions and transforms
# ----------------------------------------------------------------------

def _calculus_requests(a, s: int) -> list:
    tag = f"{a.rows}x{a.cols}"
    exp = jc.FunctionSpec.exp()
    reqs = []

    def check_exp(out):
        m, verdict = out
        series = jc.series_transform(EXP_COEFFS, a).matrix
        return _psd(verdict) or _close(m, series, m.max_abs())

    reqs.append(Request(f"smooth exp/{tag}",
                        _with_verdict(lambda: jc.smooth_transform(exp, a)), check_exp))

    power = jc.FunctionSpec.power
    for alpha in ALPHAS:
        def check_power(out, alpha=alpha):
            m, verdict = out
            half = jc.smooth_transform(power(0.5), a)
            want = jc.smooth_transform(power(alpha + 0.5), a)
            return _finite(verdict) or _close(jc.conv(m, half), want,
                                              max(m.max_abs() * half.max_abs(), want.max_abs()))

        reqs.append(Request(f"smooth x^{alpha}/{tag}",
                            _with_verdict(lambda alpha=alpha: jc.smooth_transform(power(alpha), a)),
                            check_power))

    for h in H_GRID:
        def check_stepped(out, h=h):
            m, verdict = out
            smooth = jc.smooth_transform(exp, a)
            # Entries of a are positive, so every divided difference of exp
            # lies within a factor ((e^h - 1)/h)^l <= e^(l h) of the derivative.
            slack = math.expm1((a.rows + a.cols - 2) * h)
            floor = FLOAT_RTOL * smooth.max_abs()
            bad = [(i, j) for i, j in a.indices()
                   if abs(m.data[i][j] - smooth.data[i][j])
                   > slack * abs(smooth.data[i][j]) + floor]
            return _psd(verdict) or (f"entries {bad[:3]} outside the step bound" if bad else None)

        reqs.append(Request(f"stepped exp h={h}/{tag}",
                            _with_verdict(lambda h=h: jc.stepped_transform(exp, a, h)),
                            check_stepped))

    alpha = ALPHAS[s % len(ALPHAS)]

    def check_bivariate(out):
        m, verdict = out
        framed = jc.factorial_frame(jc.smooth_transform(power(alpha), a))
        return _finite(verdict) or _close(m, framed, m.max_abs())

    reqs.append(Request(f"bivariate x^{alpha}/{tag}",
                        _with_verdict(lambda: jc.bivariate_power_matrix(alpha, a)),
                        check_bivariate))
    return reqs


# PSD samples per n, seven requests each.  With these counts p50 falls
# inside the 7x7 transforms and p90 inside the 8x8 ones, away from the
# edges between request classes, where a percentile would jump.
CALCULUS_SAMPLES = {6: 2, 7: 8, 8: 6}


def calculus(seed: int) -> list:
    """Smooth, stepped and bivariate transforms at n in {6, 7, 8}; exact poly at 5x5."""
    reqs = [
        suite_request("fh", "--n", "8", "--trials", "10", "--seed", str(seed)),
        suite_request("schoenberg", "--n", "5", "--seed", str(seed)),
        suite_request("horn", "--n", "6", "--seed", str(seed)),
    ]
    for n, samples in CALCULUS_SAMPLES.items():
        for s in range(samples):
            a = jc.sample_psd(n, jc.Interval(1.0), np.random.default_rng([seed, n, s]))
            reqs.extend(_calculus_requests(a, s))
    rng = random.Random(seed)
    for _ in range(3):
        a = jc.ConvMatrix.rational([[Fraction(rng.randint(1, 5), rng.randint(1, 3))
                                     for _ in range(5)] for _ in range(5)])
        p = jc.Poly.of([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)])
        reqs.append(Request(
            "poly partition_formula/rational/5x5",
            lambda a=a, p=p: jc.poly_transform(p, a, mode="partition_formula"),
            lambda out, a=a, p=p: _exact(out, jc.poly_transform(p, a, mode="sum_of_powers")),
        ))
    return reqs


# ----------------------------------------------------------------------
# ring-float: the complex backend
# ----------------------------------------------------------------------

# Closure trials per n.  With these counts p50 falls inside the 16x16
# closure requests and p90 inside the 32x32 ones, away from the edges
# between request classes, where a percentile would jump.
CLOSURE_TRIALS = {8: 60, 16: 100, 32: 30}


def ring_float(seed: int) -> list:
    """Closure trials, both inverses and the exp series at n in {8, 16, 32}."""
    reqs = []
    for n, trials in CLOSURE_TRIALS.items():
        for t in range(trials):
            def closure(n=n, t=t):
                a = jc.sample_psd(n, jc.Interval(1.0), np.random.default_rng([seed, n, t, 0]))
                b = jc.sample_psd(n, jc.Interval(1.0), np.random.default_rng([seed, n, t, 1]))
                return jc.is_psd(jc.conv(a, b))
            reqs.append(Request(f"closure/complex/{n}x{n}", closure, _psd))
        for s in range(2):
            a = jc.sample_psd(n, jc.Interval(1.0), np.random.default_rng([seed, n, s, 2]))
            for route in ("conv_inverse_recursive", "conv_inverse_ch"):
                reqs.append(Request(f"{route}/complex/{n}x{n}",
                                    lambda a=a, route=route: getattr(jc, route)(a),
                                    lambda out, a=a: _inverse_residual(a, out)))
        a = jc.sample_psd(n, jc.Interval(1.0), np.random.default_rng([seed, n, 3]))

        def check_series(out, a=a):
            neg = jc.series_transform(NEG_EXP_COEFFS, a).matrix
            ident = jc.conv_identity(a.rows, a.cols, a.scalar)
            return _close(jc.conv(out.matrix, neg), ident, out.matrix.max_abs() * neg.max_abs())

        reqs.append(Request(f"series exp/complex/{n}x{n}",
                            lambda a=a: jc.series_transform(EXP_COEFFS, a), check_series))
    reqs.append(suite_request("closure", "--n", "24", "--trials", "30", "--seed", str(seed)))
    return reqs


# ----------------------------------------------------------------------
# ring-exact: the rational backend
# ----------------------------------------------------------------------

EXACT_SHAPES = ((4, 4), (8, 8), (12, 12), (3, 12), (2, 24))
EXACT_INPUTS_PER_SHAPE = 4


def _rational(rng: random.Random, rows: int, cols: int):
    data = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)]
    data[0][0] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return jc.ConvMatrix.rational(data)


def _distribution(rng: random.Random):
    weights = [[rng.randint(1, 9) for _ in range(4)] for _ in range(4)]
    total = sum(map(sum, weights))
    return jc.GridDistribution.from_rows([[Fraction(w, total) for w in row] for row in weights])


def _window(m, like):
    """Top-left window of m with the shape of like."""
    rows, cols = like.shape
    return jc.ConvMatrix(rows, cols, tuple(row[:cols] for row in m.data[:rows]), m.scalar)


def ring_exact(seed: int) -> list:
    """Ring kernels on Fractions at square and thin shapes, plus grid sums."""
    rng = random.Random(seed)
    reqs = []
    for rows, cols in EXACT_SHAPES:
        tag = f"rational/{rows}x{cols}"
        for _ in range(EXACT_INPUTS_PER_SHAPE):
            a, b = _rational(rng, rows, cols), _rational(rng, rows, cols)
            reqs += [
                Request(f"conv/{tag}", lambda a=a, b=b: jc.conv(a, b),
                        lambda out, a=a, b=b: _exact(out, _window(jc.padded_conv(a, b), a))),
                Request(f"conv_inverse_recursive/{tag}",
                        lambda a=a: jc.conv_inverse_recursive(a),
                        lambda out, a=a: _exact(jc.conv(a, out),
                                                jc.conv_identity(a.rows, a.cols))),
                Request(f"conv_inverse_ch/{tag}", lambda a=a: jc.conv_inverse_ch(a),
                        lambda out, a=a: _exact(out, jc.conv_inverse_recursive(a))),
                Request(f"conv_power_squaring/{tag}", lambda a=a: jc.conv_power_squaring(a, 7),
                        lambda out, a=a: _exact(out, jc.conv_power_naive(a, 7))),
                Request(f"ch_check/{tag}", lambda a=a: jc.ch_check(a),
                        lambda out: None if out is True else "annihilator did not vanish"),
            ]
    dists = [_distribution(rng) for _ in range(8)]

    def check_sum8(out):
        if sum(map(sum, out.matrix.data)) != 1:
            return "total mass is not exactly 1"
        head = jc.sum_distribution(dists[:3]).matrix
        tail = jc.sum_distribution(dists[3:]).matrix
        return _exact(out.matrix, jc.padded_conv(head, tail))

    reqs.append(Request("sum_distribution/8x4x4", lambda: jc.sum_distribution(dists), check_sum8))
    for lo in (0, 3, 5):
        part = dists[lo:lo + 3]
        reqs.append(Request(
            "sum_distribution/3x4x4", lambda part=part: jc.sum_distribution(part),
            lambda out, part=part: _exact(out.matrix, jc.brute_force_sum_law(part).matrix)))
    reqs += [
        suite_request("ch", "--seed", str(seed)),
        suite_request("prob", "--seed", str(seed)),
        suite_request("bruhat", "--seed", str(seed)),
    ]
    return reqs


WORKLOADS = {
    "calculus": calculus,
    "ring-float": ring_float,
    "ring-exact": ring_exact,
}


def build(name: str, seed: int) -> list:
    """The workload's suites, then its library requests in a seeded shuffle.

    Shuffling spreads each request class over the whole pass, so a burst
    of load from outside the process slows a few requests of every class
    instead of every request of one class, which would move a percentile.
    """
    reqs = WORKLOADS[name](seed)
    library = [r for r in reqs if not r.suite]
    random.Random(seed).shuffle(library)
    return [r for r in reqs if r.suite] + library
