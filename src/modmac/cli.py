"""Command-line surface: enumeration, expansions, operator matrices, the
eigen-solve, and the identity selfcheck, with machine-readable output.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Output is
deterministic for a fixed command line and seed.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys

from .errors import FAILURES
from .macdonald import gram, solve_q, specialize_q0
from .partitions import Partition, enumerate_partitions
from .scalars import ParamMode, eval_mode, parse_scalar_literal, symbolic_mode
from .symfunc import QExpr, q_to_p, qprod_to_p, to_p
from .vertex import X0Matrix, x0_apply_series, x0_matrix
# newton and selfcheck each serve one command, which imports it: the other
# commands never compile them

# a process runs one command: objects frozen at exit spare finalization's full
# collections a walk over every object, whose memory the OS reclaims anyway
atexit.register(gc.freeze)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _emit_matrix(mat: X0Matrix, out: str) -> None:
    if out == "csv":
        sys.stdout.write(mat.to_csv())
    else:
        _emit(mat.to_json())


def _partition(value: str) -> Partition:
    """A partition written as comma-separated parts, e.g. 2,1: each part is
    ASCII decimal digits, spaces around it allowed; a blank value is the
    empty partition."""
    items = [x.strip() for x in value.split(",")] if value.strip() else []
    try:
        if not all(x.isascii() and x.isdigit() for x in items):
            raise ValueError("parts must be comma-separated decimal integers")
        return Partition(map(int, items))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {value!r}: {exc}") from None


def _at_least(lo: int):
    def integer(value: str) -> int:
        n = int(value)
        if n < lo:
            raise argparse.ArgumentTypeError(f"{n} is not in the range x>={lo}")
        return n
    return integer


def _opt(flag: str, text: str = "", lo: int | None = None, **kw) -> tuple[str, dict]:
    """One option as (flag, argparse keywords); its help shows the default,
    the range and whether it is required."""
    notes = [f"default: {kw['default']}"] if kw.get("default") is not None else []
    if lo is not None:
        kw["type"] = _at_least(lo)
        notes.append(f"x>={lo}")
    if kw.get("required"):
        notes.append("required")
    kw["help"] = " ".join(filter(None, (text, notes and f"[{'; '.join(notes)}]")))
    return flag, kw


_M = _opt("--m", "modulus, an integer >= 2", lo=2, required=True)
_LAMBDA = _opt("--lambda", dest="lam", type=_partition, required=True)
_OUT = _opt("--out", choices=("json", "csv"), default="json")
# --m with these three: the command takes the one ParamMode they choose, as `pm`
_MODE = (_opt("--mode", choices=("symbolic", "eval"), default="symbolic"),
         _opt("--q0", 'evaluation point, e.g. "2", "1/3", "xi^2"'),
         _opt("--c0", "second parameter; defaults to xi^-1"))
_HELP = ("--help", {"action": "help", "help": "show this message and exit"})
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, *options: tuple[str, dict]):
    def register(fn):
        _COMMANDS[name] = (fn, options)
        return fn
    return register


def _param_mode(m: int, mode: str, q0: str | None, c0: str | None) -> ParamMode:
    if mode == "symbolic":
        if q0 is not None or c0 is not None:
            raise ValueError("--q0 and --c0 only apply to --mode eval")
        return symbolic_mode(m)
    if q0 is None:
        raise ValueError("--mode eval requires --q0")
    c0v = parse_scalar_literal(m, c0) if c0 is not None else None
    return eval_mode(m, parse_scalar_literal(m, q0), c0v)


class _Parser(argparse.ArgumentParser):
    """A usage error exits 2 with `Error: ...` on stderr and nothing on stdout."""

    def error(self, message):
        self.exit(2, f"{self.format_usage()}Error: {message}\n")


def _parser(prog: str | None, argv: list[str]) -> tuple[_Parser, dict[str, _Parser]]:
    # argparse checks each option as it is added, at more cost than the parse:
    # only the command argv names (its first non-option; values are joined) gets them
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    main_parser = _Parser(prog=prog, description="Exact computations in the modular "
                          "symmetric-function ring.", add_help=False, allow_abbrev=False)
    main_parser.add_argument(_HELP[0], **_HELP[1])
    subs = main_parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    parsers = {}
    for name, (fn, options) in _COMMANDS.items():
        sub = parsers[name] = subs.add_parser(name, help=fn.__doc__, description=fn.__doc__,
                                              add_help=False, allow_abbrev=False)
        for flag, kw in (*options, _HELP) if name == chosen else ():
            sub.add_argument(flag, **kw)
    return main_parser, parsers


def _joined(argv: list[str]) -> list[str]:
    # `--opt VALUE` -> `--opt=VALUE` for every known option, so that a value
    # starting with `-` (-1/2, -xi) stays a value, as each option takes one
    flags = {flag for _, options in _COMMANDS.values() for flag, _ in options}
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in flags:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(args=None, prog_name=None) -> None:
    """Run one subcommand: a failed verification is a JSON failure report (exit 1),
    and any other ValueError is a usage error (exit 2), whichever computation
    meets it: every ValueError the library raises is an argument check.  So is a
    MemoryError: the request is too large for the machine."""
    argv = _joined(sys.argv[1:] if args is None else list(args))
    main_parser, parsers = _parser(prog_name, argv)
    opts = vars(main_parser.parse_args(argv))
    name = opts.pop("command")
    try:
        if "mode" in opts:
            opts["pm"] = _param_mode(*(opts.pop(k) for k in ("m", "mode", "q0", "c0")))
        _COMMANDS[name][0](**opts)
    except FAILURES as exc:  # before ValueError: a collision is one
        _emit({"status": "fail", "error": type(exc).__name__, "message": str(exc)})
        sys.exit(1)
    except (ValueError, MemoryError) as exc:
        parsers[name].error(str(exc) or "the request does not fit in memory")


@_command("partitions", _M, _opt("--n", lo=0, required=True),
          _opt("--class", dest="kind", choices=("all", "m-regular", "m-reduced"), default="all"))
def partitions_cmd(m: int, n: int, kind: str) -> None:
    """Enumerate partitions of N of the requested class."""
    ps = enumerate_partitions(n, kind.replace("-", "_"), m)
    _emit([p.to_json() for p in ps])


@_command("qexpand", _M, _opt("--n", "expand the degree-n generator", type=int),
          _opt("--lambda", "expand a product, e.g. 2,1", dest="lam", type=_partition), *_MODE)
def qexpand_cmd(pm: ParamMode, n: int | None, lam: Partition | None) -> None:
    """Expand a generalized complete function in the power-sum basis."""
    if (n is None) == (lam is None):
        raise ValueError("give exactly one of --n or --lambda")
    f = q_to_p(n, pm.m) if n is not None else qprod_to_p(lam, pm.m)
    _emit(to_p(f, pm).to_json())


@_command("newton-verify", _M, _LAMBDA, *_MODE)
def newton_verify_cmd(pm: ParamMode, lam: Partition) -> None:
    """Check the generalized Newton identity for one partition."""
    from .newton import newton_lhs, newton_rhs, qpow_dseq

    delta = newton_lhs(lam, pm) - newton_rhs(lam, pm, qpow_dseq(pm))
    _emit({"identity": "traisesq", "m": pm.m, "lambda": lam.to_json(),
           "status": "ok" if delta.is_zero else "fail", "delta": to_p(delta, pm).to_json()})
    if not delta.is_zero:
        sys.exit(1)


@_command("x0-matrix", _M, _opt("--n", lo=1, required=True), *_MODE, _OUT)
def x0_matrix_cmd(pm: ParamMode, n: int, out: str) -> None:
    """Matrix of the operator zero mode on the m-reduced basis of weight N."""
    _emit_matrix(x0_matrix(n, pm), out)


@_command("x0-apply", _M, _LAMBDA, *_MODE)
def x0_apply_cmd(pm: ParamMode, lam: Partition) -> None:
    """Apply the zero mode to a q-product, reported in the power-sum basis."""
    _emit(to_p(x0_apply_series(lam, pm), pm).to_json())


@_command("macdonald", _M, _opt("--lambda", "an m-reduced partition, e.g. 2,1", dest="lam",
                                type=_partition, required=True), *_MODE)
def macdonald_cmd(pm: ParamMode, lam: Partition) -> None:
    """Solve for the monic zero-mode eigenvector indexed by an m-reduced partition."""
    _emit(solve_q(lam, pm).to_json())


@_command("gram", _M, _opt("--n", lo=1, required=True), *_MODE, _OUT)
def gram_cmd(pm: ParamMode, n: int, out: str) -> None:
    """Pairings of the weight-N eigenvectors (a diagonal matrix)."""
    mat = x0_matrix(n, pm)
    diagonal = (QExpr(pm.m, {lam: v}) for lam, v in zip(mat.order, gram(n, pm)))
    _emit_matrix(mat._replace(columns=tuple(diagonal)), out)


@_command("specialize", _M, _LAMBDA)
def specialize_cmd(m: int, lam: Partition) -> None:
    """Symbolically solve the eigenvector, then substitute q = 0."""
    _emit(specialize_q0(solve_q(lam, symbolic_mode(m))).to_json())


@_command("selfcheck", _M,
          _opt("--max-n", "weight ceiling for the identity sweeps", lo=1, default=6),
          _opt("--seed", type=int, default=0),
          _opt("--out", choices=("table", "json"), default="table"))
def selfcheck_cmd(m: int, max_n: int, seed: int, out: str) -> None:
    """Run every identity family; exits 1 if any single check fails."""
    from .selfcheck import run_selfcheck

    reports = run_selfcheck(m, max_n, seed)
    if out == "json":
        _emit(reports)
    else:
        for r in reports:
            mark = {"ok": " ok ", "fail": "FAIL", "skipped": "skip"}[r["status"]]
            # the fields after the detail (traisesq's lambda, delta) locate a failure
            extra = "".join(f"  {k}={json.dumps(v, separators=(',', ':'))}" for k, v in list(r.items())[4:])
            sys.stdout.write(f"[{mark}] {r['identity']:<22} m={r['m']}  {r['detail']}{extra}\n")
    if any(r["status"] == "fail" for r in reports):
        sys.exit(1)


if __name__ == "__main__":
    main()
