"""Command-line surface wiring the library into reproducible experiments.

Exit-code contract: 0 when every expectation is met, 1 when an
expectation is violated, 2 on usage, parse or library errors (an
enumeration or series budget overrun, an overflow or a division by
zero included), reported as one ``error:`` line on stderr.  For the
necessity-direction experiments a found counterexample IS the
expectation (the manifest below declares which suites expect one), so
those report exit code 0 when the violation shows up.  Every report
embeds its seed and configuration so a run can be replayed bit for bit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import bruhat as bruhat_mod
from . import positivity
from .cayley_hamilton import ch_check, format_minimal_polynomial, minimal_polynomial, tightness_witness
from .conv_core import ConvMatrix, conv
from .numerics import RATIONAL, ScalarError
from .partitions import EnumerationLimitError, IndexGrid, enumerate_partitions
from .probgrid import (
    GridDistribution,
    brute_force_sum_law,
    padded_conv,
    psd_chain_check,
    semiinfinite_checks,
    sum_distribution,
)
from .positivity import (
    Interval,
    difference_operator_report,
    fractional_power_study,
    horn_witness,
    jury_closure_test,
    preserver_test,
    schoenberg_h_counterexample,
)
from .transforms import (
    FunctionSpec,
    SeriesDivergenceError,
    smooth_transform,
    stepped_transform,
)

# Which suites treat a found violation as the expected outcome.
SUITE_EXPECTATIONS = {
    "closure": "no violation expected: convolution preserves the PSD cone",
    "schoenberg": "expected counterexample: x^2 stepped transform fails at h = 2; "
                  "exp transforms stay PSD",
    "horn": "expected counterexample: x^(1/2) witness transform leaves the cone "
            "for n = 3; forward differences of exp stay nonnegative",
    "fh": "expected counterexamples exactly for alpha < 0 (n = 2) and "
          "non-integer alpha < n-2 (n >= 3)",
    "bruhat": "no disagreement expected between rank-matrix criterion and "
              "cover-digraph oracle",
    "prob": "no violation expected: sum law matches enumeration and PSD chains persist",
    "ch": "no violation expected: annihilator and minimal degrees verify",
}

DEFAULT_ALPHA_GRID = (0.3, 1.7, 2.5, -0.5)


@dataclass
class RunConfig:
    """Configuration echoed into every report for reproducibility."""

    n: int = 4
    trials: int = 100
    seed: int = 0
    tol: float = positivity.DEFAULT_TOL
    alpha_grid: tuple = DEFAULT_ALPHA_GRID
    h_grid: tuple = ()

    def to_dict(self) -> dict:
        # Reports keep the "command" and "backend" keys they have always
        # carried: suites run only from `suite`, and none reads a backend.
        return {
            "command": "suite",
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "backend": RATIONAL,
            "alpha_grid": list(self.alpha_grid),
            "h_grid": list(self.h_grid),
        }


def parse_h_grid(spec: str) -> tuple:
    """Parse "start:stop:factor" into a descending geometric grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ScalarError(f"h-grid must be 'start:stop:factor', got {spec!r}")
    try:
        start, stop, factor = (float(p) for p in parts)
    except ValueError as exc:
        raise ScalarError(f"h-grid fields must be numbers: {spec!r}") from exc
    if not (start > stop > 0 and 0 < factor < 1):
        raise ScalarError(
            f"h-grid needs start > stop > 0 and 0 < factor < 1, got {spec!r}"
        )
    grid = []
    h = start
    while h >= stop:
        grid.append(h)
        h *= factor
    return tuple(grid)


def parse_alpha_grid(spec: str) -> tuple:
    try:
        return tuple(float(p) for p in spec.replace(",", " ").split())
    except ValueError as exc:
        raise ScalarError(f"alpha-grid fields must be numbers: {spec!r}") from exc


def _load_matrix(path: str, backend: Optional[str] = None) -> ConvMatrix:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScalarError(f"cannot read {path}: {exc}") from exc
    mat = ConvMatrix.from_csv(text) if path.endswith(".csv") else ConvMatrix.from_json(text)
    if backend is not None and backend != mat.scalar:
        mat = mat.astype(backend)  # rational -> complex only; the reverse raises
    return mat


def _load_distribution(path: str) -> GridDistribution:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ScalarError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScalarError(f"invalid JSON in {path}: {exc}") from exc
    return GridDistribution.from_json_dict(payload)


def _emit(payload: dict, out: Optional[str]):
    text = json.dumps(payload, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ----------------------------------------------------------------------
# plain commands
# ----------------------------------------------------------------------

def cmd_conv(args) -> int:
    a = _load_matrix(args.a, args.backend)
    b = _load_matrix(args.b, args.backend)
    result = padded_conv(a, b) if args.padded else conv(a, b)
    _emit(result.to_json_dict(), args.out)
    return 0


def cmd_transform(args) -> int:
    a = _load_matrix(args.a, args.backend)
    try:
        spec = json.loads(args.function)
    except json.JSONDecodeError as exc:
        raise ScalarError(f"invalid function JSON: {exc}") from exc
    f = FunctionSpec.from_json_dict(spec)
    if args.mode == "stepped":
        if args.h is None:
            raise ScalarError("stepped mode needs --h")
        result = stepped_transform(f, a, args.h)
    else:
        result = smooth_transform(f, a)
    _emit({
        "result": result.to_json_dict(),
        "mode": args.mode,
        "h": args.h,
        "backend": result.scalar,
        "function": f.to_json_dict(),
    }, args.out)
    return 0


def cmd_minpoly(args) -> int:
    a = _load_matrix(args.a)
    report = minimal_polynomial(a)
    witness = f"  witness entry: {report.witness}" if report.witness else ""
    print(f"{format_minimal_polynomial(report)}{witness}")
    return 0


def cmd_bruhat(args) -> int:
    if len(args.perm) != 2:
        raise ScalarError("bruhat needs exactly two --perm arguments")
    sigma = bruhat_mod.Permutation.from_string(args.perm[0])
    tau = bruhat_mod.Permutation.from_string(args.perm[1])
    _emit(bruhat_mod.compare(sigma, tau), args.out)
    return 0


def cmd_prob_sum(args) -> int:
    dists = [_load_distribution(p) for p in args.dist]
    total = sum_distribution(dists)
    _emit(total.to_json_dict(), args.out)
    return 0


def cmd_partitions(args) -> int:
    grid = IndexGrid(args.rows, args.cols)
    target = tuple(int(p) for p in args.target.replace(",", " ").split())
    if len(target) != 2:
        raise ScalarError(f"target must be 'i,j', got {args.target!r}")
    parts = enumerate_partitions(grid, args.ell, target,
                                 exclude_origin=not args.include_origin)
    for part in parts:
        print(str(part))
    print(f"# {len(parts)} partitions")
    return 0


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def _suite_closure(cfg: RunConfig):
    reports = []
    ok = True
    for n in range(2, cfg.n + 1):
        rep = jury_closure_test(n, trials=cfg.trials, rng_seed=cfg.seed, tol=cfg.tol)
        reports.append(rep.to_dict())
        ok = ok and not rep.violations
    return {"per_n": reports}, ok


def _suite_schoenberg(cfg: RunConfig):
    ok = True
    cx = schoenberg_h_counterexample()
    counter_ok = (cx.determinant == Fraction(-10)) and not cx.verdict.is_psd \
        and cx.contrast_small_verdict.is_psd and not cx.contrast_large_verdict.is_psd
    ok = ok and counter_ok

    smooth_reports = []
    for n in range(1, min(cfg.n, 5) + 1):
        rep = preserver_test(FunctionSpec.exp(), n, Interval(1.0), mode="smooth",
                             trials=cfg.trials, rng_seed=cfg.seed, tol=cfg.tol)
        smooth_reports.append(rep.to_dict())
        ok = ok and not rep.violations

    h_grid = cfg.h_grid or parse_h_grid("0.5:0.001:0.5")
    stepped = preserver_test(FunctionSpec.exp(), 3, Interval(1.0), mode="stepped",
                             trials=max(10, cfg.trials // 10), rng_seed=cfg.seed,
                             h_grid=h_grid, tol=cfg.tol)
    by_trial = {}
    for row in stepped.stepped_rows:
        by_trial.setdefault(row["trial"], []).append(row)
    smallest_pass = all(
        min(rows, key=lambda r: r["h"])["psd"] for rows in by_trial.values()
    )
    ok = ok and smallest_pass
    return {
        "h_counterexample": {
            "determinant": str(cx.determinant),
            "is_psd": cx.verdict.is_psd,
            "stepped": cx.stepped.to_json_dict(),
            "expected_violation_found": counter_ok,
        },
        "exp_smooth": smooth_reports,
        "exp_stepped": stepped.to_dict(),
        "smallest_step_always_psd": smallest_pass,
    }, ok


def _suite_horn(cfg: RunConfig):
    diff = difference_operator_report(FunctionSpec.exp(), n=min(cfg.n, 6),
                                      interval=Interval(1.0),
                                      trials=cfg.trials, rng_seed=cfg.seed)
    diff_ok = diff.min_difference >= 0 and diff.min_witness_diagonal >= -cfg.tol
    witness = horn_witness(3, FunctionSpec.power(0.5), x=0.5, eps=0.005, tol=cfg.tol)
    witness_ok = witness.verdict.min_eigenvalue < -1e-6
    return {
        "difference_report": diff.to_dict(),
        "horn_witness": {
            "x": witness.x,
            "eps": witness.eps,
            "diagonal": list(witness.diagonal),
            "min_eig": witness.verdict.min_eigenvalue,
            "expected_violation_found": witness_ok,
        },
    }, diff_ok and witness_ok


def _suite_fh(cfg: RunConfig):
    n = max(cfg.n, 2)
    rep = fractional_power_study(n, cfg.alpha_grid, Interval(1.0),
                                 trials=cfg.trials, rng_seed=cfg.seed,
                                 include_b_matrix=True, tol=cfg.tol)
    return rep.to_dict(), rep.consistent()


def _suite_bruhat(cfg: RunConfig):
    n = min(cfg.n, 4)
    rng = random.Random(cfg.seed)
    perms = [bruhat_mod.Permutation.of(p)
             for p in itertools.permutations(range(1, n + 1))]
    disagreements = []
    for s in perms:
        for t in perms:
            if bruhat_mod.bruhat_leq_conv(s, t) != bruhat_mod.bruhat_leq_oracle(s, t):
                disagreements.append([str(s), str(t)])
    identity_failures = []
    for _ in range(50):
        m = rng.randrange(2, 7)
        vals = list(range(1, m + 1))
        rng.shuffle(vals)
        p = bruhat_mod.Permutation.of(vals)
        if not bruhat_mod.rank_identities_hold(p):
            identity_failures.append(str(p))
    eq_failures = []
    for _ in range(20):
        vals1 = list(range(1, n + 1))
        vals2 = list(range(1, n + 1))
        rng.shuffle(vals1)
        rng.shuffle(vals2)
        rep = bruhat_mod.verify_equivalences(bruhat_mod.Permutation.of(vals1),
                                             bruhat_mod.Permutation.of(vals2))
        if not rep.all_consistent:
            eq_failures.append(rep.to_dict())
    ok = not disagreements and not identity_failures and not eq_failures
    return {
        "n": n,
        "pairs_checked": len(perms) ** 2,
        "disagreements": disagreements,
        "identity_failures": identity_failures,
        "equivalence_failures": eq_failures,
    }, ok


def _suite_prob(cfg: RunConfig):
    d1 = GridDistribution.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    d2 = GridDistribution.from_rows([[Fraction(1, 4), Fraction(1, 4)],
                                     [Fraction(1, 4), Fraction(1, 4)]])
    d3 = GridDistribution.point_mass(1, 0)
    total = sum_distribution([d1, d2, d3])
    brute = brute_force_sum_law([d1, d2, d3])
    law_ok = total.matrix == brute.matrix
    chain = psd_chain_check(sum_distribution([d1, d1]), k_max=4, tol=cfg.tol)
    semi = semiinfinite_checks(cap=6)
    ok = law_ok and chain.all_psd and semi.all_ok
    return {
        "sum_law_matches_enumeration": law_ok,
        "psd_chain": chain.to_dict(),
        "semi_infinite": semi.to_dict(),
    }, ok


def _suite_ch(cfg: RunConfig):
    rng = random.Random(cfg.seed)
    shapes = [(2, 2), (3, 3), (2, 5)]
    failures = []
    for (m, n) in shapes:
        for _ in range(cfg.trials):
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(m)]
            a = ConvMatrix.rational(rows)
            if not ch_check(a):
                failures.append(a.to_json_dict())
    tightness_ok = all(minimal_polynomial(tightness_witness(m, n)).minimal_degree == m + n - 1
                       for (m, n) in shapes)
    table_ok = (
        minimal_polynomial(ConvMatrix.rational([[5, 0], [0, 0]])).minimal_degree == 1
        and minimal_polynomial(ConvMatrix.rational([[5, 0], [0, 3]])).minimal_degree == 2
        and minimal_polynomial(ConvMatrix.rational([[5, 2], [3, 1]])).minimal_degree == 3
    )
    ok = not failures and tightness_ok and table_ok
    return {
        "shapes": [list(s) for s in shapes],
        "trials_per_shape": cfg.trials,
        "annihilator_failures": failures,
        "tightness_ok": tightness_ok,
        "two_by_two_table_ok": table_ok,
    }, ok


SUITES = {
    "closure": _suite_closure,
    "schoenberg": _suite_schoenberg,
    "horn": _suite_horn,
    "fh": _suite_fh,
    "bruhat": _suite_bruhat,
    "prob": _suite_prob,
    "ch": _suite_ch,
}


def cmd_suite(args) -> int:
    for flag, value in (("--n", args.n), ("--trials", args.trials)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    if not args.tol >= 0:
        raise ScalarError(f"--tol must be >= 0, got {args.tol}")
    cfg = RunConfig(
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
        alpha_grid=parse_alpha_grid(args.alpha_grid) if args.alpha_grid
        else DEFAULT_ALPHA_GRID,
        h_grid=parse_h_grid(args.h_grid) if args.h_grid else (),
    )
    body, ok = SUITES[args.name](cfg)
    payload = {
        "suite": args.name,
        "expectation": SUITE_EXPECTATIONS[args.name],
        "config": cfg.to_dict(),
        "ok": ok,
        "report": body,
    }
    _emit(payload, args.out)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="juryconv",
        description="Convolution-ring computations and experiment suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conv", help="convolve two matrix files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--padded", action="store_true",
                   help="full convolution on the grown window")
    p.add_argument("--backend", choices=["rational", "complex"], default=None,
                   help="force a scalar backend on the loaded matrices")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_conv)

    p = sub.add_parser("transform", help="apply a functional transform")
    p.add_argument("a")
    p.add_argument("--function", required=True,
                   help='function JSON, e.g. {"kind":"exp"} or {"kind":"power","alpha":0.5}')
    p.add_argument("--mode", choices=["smooth", "stepped"], default="smooth")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--backend", choices=["rational", "complex"], default=None,
                   help="force a scalar backend on the loaded matrix")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("minpoly", help="minimal annihilating polynomial")
    p.add_argument("a")
    p.set_defaults(fn=cmd_minpoly)

    p = sub.add_parser("bruhat", help="compare two permutations")
    p.add_argument("--perm", action="append", required=True,
                   help="one-line notation, e.g. '3 1 2' (give twice)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bruhat)

    p = sub.add_parser("prob-sum", help="distribution of a sum of grid variables")
    p.add_argument("dist", nargs="+")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_prob_sum)

    p = sub.add_parser("partitions", help="list index multisets for a target")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--target", required=True, help="'i,j'")
    p.add_argument("--include-origin", action="store_true")
    p.set_defaults(fn=cmd_partitions)

    p = sub.add_parser("suite", help="run an experiment battery")
    p.add_argument("name", choices=sorted(SUITES))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=positivity.DEFAULT_TOL)
    p.add_argument("--alpha-grid", default=None, help="comma-separated alphas")
    p.add_argument("--h-grid", default=None, help="'start:stop:factor'")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, EnumerationLimitError, SeriesDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
