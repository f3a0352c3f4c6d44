"""Command-line surface: enumeration, expansions, operator matrices, the
eigen-solve, and the identity selfcheck, with machine-readable output.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Output is
deterministic for a fixed command line and seed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from functools import wraps

import click

from .errors import (
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
from .symfunc import q_to_p, qprod_to_p, to_p
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


class _PartitionType(click.ParamType):
    """A partition written as comma-separated parts, e.g. 2,1: each part is
    ASCII decimal digits, spaces around it allowed; a blank value is the
    empty partition."""

    name = "partition"

    def convert(self, value, param, ctx):
        if isinstance(value, Partition):
            return value
        items = [x.strip() for x in value.split(",")] if value.strip() else []
        try:
            if not all(x.isascii() and x.isdigit() for x in items):
                raise ValueError("parts must be comma-separated decimal integers")
            return Partition(map(int, items))
        except ValueError as exc:
            self.fail(f"bad partition {value!r}: {exc}", param, ctx)


_PARTITION = _PartitionType()
_m_opt = click.option("--m", "m", type=click.IntRange(min=2), required=True,
                      help="modulus, an integer >= 2")
_out_opt = click.option("--out", type=click.Choice(["json", "csv"]), default="json",
                        show_default=True)


def _mode_opts(cmd):
    """Add --mode/--q0/--c0 and hand the command, in place of them and --m,
    the one ParamMode they choose, as `pm`."""

    @click.option("--mode", type=click.Choice(["symbolic", "eval"]), default="symbolic",
                  show_default=True)
    @click.option("--q0", default=None, help='evaluation point, e.g. "2", "1/3", "xi^2"')
    @click.option("--c0", default=None, help="second parameter; defaults to xi^-1")
    @wraps(cmd)
    def with_mode(m: int, mode: str, q0: str | None, c0: str | None, **kwargs):
        if mode == "symbolic":
            if q0 is not None or c0 is not None:
                raise click.BadParameter("--q0 and --c0 only apply to --mode eval")
            pm = symbolic_mode(m)
        elif q0 is None:
            raise click.BadParameter("--mode eval requires --q0")
        else:
            c0v = parse_scalar_literal(m, c0) if c0 is not None else None
            pm = eval_mode(m, parse_scalar_literal(m, q0), c0v)
        return cmd(pm=pm, **kwargs)

    return with_mode


class _Command(click.Command):
    """A subcommand: a failed verification is a JSON failure report (exit 1),
    and any other ValueError is a usage error (exit 2), whichever computation
    meets it.  Every ValueError the library raises is an argument check."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _FAILURES as exc:  # before ValueError: a collision is one
            _emit({"status": "fail", "error": type(exc).__name__, "message": str(exc)})
            sys.exit(1)
        except ValueError as exc:
            raise click.BadParameter(str(exc), ctx=ctx) from None


class _Main(click.Group):
    command_class = _Command


@click.group(cls=_Main)
def main() -> None:
    """Exact computations in the modular symmetric-function ring."""


@main.command("partitions")
@_m_opt
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--class", "kind", type=click.Choice(["all", "m-regular", "m-reduced"]),
              default="all", show_default=True)
def partitions_cmd(m: int, n: int, kind: str) -> None:
    """Enumerate partitions of N of the requested class."""
    ps = enumerate_partitions(n, kind.replace("-", "_"), m)
    _emit([p.to_json() for p in ps])


@main.command("qexpand")
@_m_opt
@click.option("--n", type=int, default=None, help="expand the degree-n generator")
@click.option("--lambda", "lam", type=_PARTITION, default=None,
              help="expand a product, e.g. 2,1")
@_mode_opts
def qexpand_cmd(pm: ParamMode, n: int | None, lam: Partition | None) -> None:
    """Expand a generalized complete function in the power-sum basis."""
    if (n is None) == (lam is None):
        raise click.BadParameter("give exactly one of --n or --lambda")
    f = q_to_p(n, pm.m) if n is not None else qprod_to_p(lam, pm.m)
    _emit(to_p(f, pm).to_json())


@main.command("newton-verify")
@_m_opt
@click.option("--lambda", "lam", type=_PARTITION, required=True)
@_mode_opts
def newton_verify_cmd(pm: ParamMode, lam: Partition) -> None:
    """Check the generalized Newton identity for one partition."""
    delta = newton_lhs(lam, pm) - newton_rhs(lam, pm, qpow_dseq(pm))
    report = {
        "identity": "traisesq",
        "m": pm.m,
        "lambda": lam.to_json(),
        "status": "ok" if delta.is_zero else "fail",
        "delta": to_p(delta, pm).to_json(),
    }
    _emit(report)
    if not delta.is_zero:
        sys.exit(1)


@main.command("x0-matrix")
@_m_opt
@click.option("--n", type=click.IntRange(min=1), required=True)
@_mode_opts
@_out_opt
def x0_matrix_cmd(pm: ParamMode, n: int, out: str) -> None:
    """Matrix of the operator zero mode on the m-reduced basis of weight N."""
    _emit_matrix(x0_matrix(n, pm), out)


@main.command("x0-apply")
@_m_opt
@click.option("--lambda", "lam", type=_PARTITION, required=True)
@_mode_opts
def x0_apply_cmd(pm: ParamMode, lam: Partition) -> None:
    """Apply the zero mode to a q-product, reported in the power-sum basis."""
    _emit(to_p(x0_apply_series(lam, pm), pm).to_json())


@main.command("macdonald")
@_m_opt
@click.option("--lambda", "lam", type=_PARTITION, required=True,
              help="an m-reduced partition, e.g. 2,1")
@_mode_opts
def macdonald_cmd(pm: ParamMode, lam: Partition) -> None:
    """Solve for the monic zero-mode eigenvector indexed by an m-reduced partition."""
    _emit(solve_q(lam, pm).to_json())


@main.command("gram")
@_m_opt
@click.option("--n", type=click.IntRange(min=1), required=True)
@_mode_opts
@_out_opt
def gram_cmd(pm: ParamMode, n: int, out: str) -> None:
    """Pairings of the weight-N eigenvectors (a diagonal matrix)."""
    mat = x0_matrix(n, pm)
    _emit_matrix(replace(mat, entries=tuple(map(tuple, gram(n, pm)))), out)


@main.command("specialize")
@_m_opt
@click.option("--lambda", "lam", type=_PARTITION, required=True)
def specialize_cmd(m: int, lam: Partition) -> None:
    """Symbolically solve the eigenvector, then substitute q = 0."""
    _emit(specialize_q0(solve_q(lam, symbolic_mode(m))).to_json())


@main.command("selfcheck")
@_m_opt
@click.option("--max-n", type=click.IntRange(min=1), default=6, show_default=True,
              help="weight ceiling for the identity sweeps")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Choice(["table", "json"]), default="table", show_default=True)
def selfcheck_cmd(m: int, max_n: int, seed: int, out: str) -> None:
    """Run every identity family; exits 1 if any single check fails."""
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
