"""Command-line surface: enumeration, expansions, operator matrices, the
eigen-solve, and the identity selfcheck, with machine-readable output.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Output is
deterministic for a fixed command line and seed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import click

from .errors import (
    DegenerateEvaluationPoint,
    EigenvalueCollisionAtEvaluation,
    InternalCheckError,
    PoleAtSpecialization,
    VerificationError,
)
from .macdonald import gram, solve_q, specialize_q0
from .newton import newton_lhs, newton_rhs, qpow_dseq
from .partitions import Partition, enumerate_partitions
from .scalars import ParamMode, eval_mode, parse_scalar_literal, symbolic_mode
from .selfcheck import run_selfcheck
from .symfunc import q_to_p, qprod_to_p
from .vertex import X0Matrix, x0_apply_series, x0_matrix

_FAILURES = (
    VerificationError,
    InternalCheckError,
    EigenvalueCollisionAtEvaluation,
    PoleAtSpecialization,
)


def _emit(obj) -> None:
    click.echo(json.dumps(obj))


def _emit_matrix(mat: X0Matrix, out: str) -> None:
    if out == "csv":
        click.echo(mat.to_csv(), nl=False)
    else:
        _emit(mat.to_json())


def _parse_partition(text: str) -> Partition:
    try:
        parts = [int(x) for x in text.split(",") if x.strip() != ""]
        return Partition(parts)
    except ValueError as exc:
        raise click.BadParameter(f"bad partition {text!r}: {exc}") from None


def _make_mode(m: int, mode: str, q0: str | None, c0: str | None) -> ParamMode:
    if mode == "symbolic":
        if q0 is not None:
            raise click.BadParameter("--q0 only applies to --mode eval")
        return symbolic_mode(m)
    if q0 is None:
        raise click.BadParameter("--mode eval requires --q0")
    try:
        q0v = parse_scalar_literal(m, q0)
        c0v = parse_scalar_literal(m, c0) if c0 is not None else None
        return eval_mode(m, q0v, c0v)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


_m_opt = click.option("--m", "m", type=int, required=True, help="modulus, an integer >= 2")
_mode_opt = click.option("--mode", type=click.Choice(["symbolic", "eval"]), default="symbolic",
                         show_default=True)
_q0_opt = click.option("--q0", default=None, help='evaluation point, e.g. "2", "1/3", "xi^2"')
_c0_opt = click.option("--c0", default=None, help="second parameter; defaults to xi^-1")
_out_opt = click.option("--out", type=click.Choice(["json", "csv"]), default="json",
                        show_default=True)


def _check_m(m: int) -> None:
    if m < 2:
        raise click.BadParameter(f"--m must be >= 2, got {m}")


class _Command(click.Command):
    """A subcommand: an evaluation point that makes the scalar product
    degenerate is a usage error (exit 2), and a failed verification is a JSON
    failure report (exit 1), whichever computation meets it."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DegenerateEvaluationPoint as exc:
            raise click.BadParameter(str(exc), ctx=ctx) from None
        except _FAILURES as exc:
            _emit({"status": "fail", "error": type(exc).__name__, "message": str(exc)})
            sys.exit(1)


class _Main(click.Group):
    command_class = _Command


@click.group(cls=_Main)
def main() -> None:
    """Exact computations in the modular symmetric-function ring."""


@main.command("partitions")
@_m_opt
@click.option("--n", type=int, required=True)
@click.option("--class", "kind", type=click.Choice(["all", "m-regular", "m-reduced"]),
              default="all", show_default=True)
def partitions_cmd(m: int, n: int, kind: str) -> None:
    """Enumerate partitions of N of the requested class."""
    _check_m(m)
    if n < 0:
        raise click.BadParameter("--n must be non-negative")
    ps = enumerate_partitions(n, kind.replace("-", "_"), m)
    _emit([p.to_json() for p in ps])


@main.command("qexpand")
@_m_opt
@click.option("--n", type=int, default=None, help="expand the degree-n generator")
@click.option("--lambda", "lam", default=None, help="expand a product, e.g. 2,1")
@_mode_opt
@_q0_opt
@_c0_opt
def qexpand_cmd(m: int, n: int | None, lam: str | None, mode: str, q0, c0) -> None:
    """Expand a generalized complete function in the power-sum basis."""
    _check_m(m)
    if (n is None) == (lam is None):
        raise click.BadParameter("give exactly one of --n or --lambda")
    pm = _make_mode(m, mode, q0, c0)
    f = q_to_p(n, pm) if n is not None else qprod_to_p(_parse_partition(lam), pm)
    _emit(f.to_json())


@main.command("newton-verify")
@_m_opt
@click.option("--lambda", "lam", required=True)
@_mode_opt
@_q0_opt
@_c0_opt
def newton_verify_cmd(m: int, lam: str, mode: str, q0, c0) -> None:
    """Check the generalized Newton identity for one partition."""
    _check_m(m)
    target = _parse_partition(lam)
    if target.length == 0:
        raise click.BadParameter("--lambda must be nonempty")
    pm = _make_mode(m, mode, q0, c0)
    delta = newton_lhs(target, pm) - newton_rhs(target, pm, qpow_dseq(pm))
    report = {
        "identity": "traisesq",
        "m": m,
        "lambda": target.to_json(),
        "status": "ok" if delta.is_zero else "fail",
        "delta": delta.to_json(),
    }
    _emit(report)
    if not delta.is_zero:
        sys.exit(1)


@main.command("x0-matrix")
@_m_opt
@click.option("--n", type=int, required=True)
@_mode_opt
@_q0_opt
@_c0_opt
@_out_opt
def x0_matrix_cmd(m: int, n: int, mode: str, q0, c0, out: str) -> None:
    """Matrix of the operator zero mode on the m-reduced basis of weight N."""
    _check_m(m)
    if n < 1:
        raise click.BadParameter("--n must be positive")
    _emit_matrix(x0_matrix(n, _make_mode(m, mode, q0, c0)), out)


@main.command("x0-apply")
@_m_opt
@click.option("--lambda", "lam", required=True)
@_mode_opt
@_q0_opt
@_c0_opt
def x0_apply_cmd(m: int, lam: str, mode: str, q0, c0) -> None:
    """Apply the zero mode to a q-product, reported in the power-sum basis."""
    _check_m(m)
    pm = _make_mode(m, mode, q0, c0)
    _emit(x0_apply_series(_parse_partition(lam), pm).to_json())


@main.command("macdonald")
@_m_opt
@click.option("--lambda", "lam", required=True, help="an m-reduced partition, e.g. 2,1")
@_mode_opt
@_q0_opt
@_c0_opt
def macdonald_cmd(m: int, lam: str, mode: str, q0, c0) -> None:
    """Solve for the monic zero-mode eigenvector indexed by an m-reduced partition."""
    _check_m(m)
    target = _parse_partition(lam)
    pm = _make_mode(m, mode, q0, c0)
    try:
        mac = solve_q(target, pm)
    except _FAILURES:
        raise  # an eigenvalue collision is a ValueError, but a failure report
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None
    _emit(mac.to_json())


@main.command("gram")
@_m_opt
@click.option("--n", type=int, required=True)
@_mode_opt
@_q0_opt
@_c0_opt
@_out_opt
def gram_cmd(m: int, n: int, mode: str, q0, c0, out: str) -> None:
    """Pairings of the weight-N eigenvectors (a diagonal matrix)."""
    _check_m(m)
    if n < 1:
        raise click.BadParameter("--n must be positive")
    pm = _make_mode(m, mode, q0, c0)
    mat = x0_matrix(n, pm)
    _emit_matrix(replace(mat, entries=tuple(map(tuple, gram(n, pm)))), out)


@main.command("specialize")
@_m_opt
@click.option("--lambda", "lam", required=True)
def specialize_cmd(m: int, lam: str) -> None:
    """Symbolically solve the eigenvector, then substitute q = 0."""
    _check_m(m)
    target = _parse_partition(lam)
    try:
        out = specialize_q0(solve_q(target, symbolic_mode(m)))
    except _FAILURES:
        raise
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None
    _emit(out.to_json())


@main.command("selfcheck")
@_m_opt
@click.option("--max-n", type=int, default=6, show_default=True,
              help="weight ceiling for the identity sweeps")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Choice(["table", "json"]), default="table", show_default=True)
def selfcheck_cmd(m: int, max_n: int, seed: int, out: str) -> None:
    """Run every identity family; exits 1 if any single check fails."""
    _check_m(m)
    if max_n < 1:
        raise click.BadParameter("--max-n must be positive")
    reports = run_selfcheck(m, max_n, seed)
    if out == "json":
        _emit(reports)
    else:
        for r in reports:
            mark = {"ok": " ok ", "fail": "FAIL", "skipped": "skip"}[r["status"]]
            click.echo(f"[{mark}] {r['identity']:<22} m={r['m']}  {r['detail']}")
    if any(r["status"] == "fail" for r in reports):
        sys.exit(1)


if __name__ == "__main__":
    main()
