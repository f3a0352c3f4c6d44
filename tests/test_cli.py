import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from types import ModuleType, SimpleNamespace

import pytest

import modmac
from modmac.cli import _partition, main


class _Captured(io.StringIO):
    """One captured stream; each write is also copied to the shared `output`."""

    def __init__(self, output: io.StringIO):
        super().__init__()
        self.output = output

    def write(self, s: str) -> int:
        self.output.write(s)
        return super().write(s)


def _run(*args):
    """Run one command line in process, as the console script does: the exit
    code, the exception that ended it (a SystemExit unless it exited 0),
    stdout, stderr and both interleaved as `output`."""
    output = io.StringIO()
    out, err = _Captured(output), _Captured(output)
    code, exception = 0, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args), prog_name="modmac")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:  # uncaught: exit 1, as under the console script
            code, exception = 1, exc
    return SimpleNamespace(exit_code=code, exception=exception, stdout=out.getvalue(),
                           stdout_bytes=out.getvalue().encode(), stderr=err.getvalue(),
                           output=output.getvalue())


def test_package_republishes_the_module_names():
    # each module's __all__ is the one list of its public names
    import modmac
    from modmac import (errors, macdonald, newton, partitions, scalars, selfcheck,
                        symfunc, vertex)

    modules = (errors, macdonald, newton, partitions, scalars, selfcheck, symfunc, vertex)
    names = {n for mod in modules for n in mod.__all__}
    assert all(getattr(modmac, n) is getattr(mod, n) for mod in modules for n in mod.__all__)
    # besides them, only the submodules imported so far (cli among them)
    submodules = {n for n, v in vars(modmac).items()
                  if isinstance(v, ModuleType) and v.__name__ == f"modmac.{n}"}
    assert {n for n in vars(modmac) if not n.startswith("_")} == names | submodules
    assert modmac.__version__ == "0.1.0"


def test_module_level_imports_are_all_read():
    # a name bound by a module-level import and never read is a leftover
    import ast
    from pathlib import Path

    for path in sorted(Path(modmac.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names}
        assert bound <= read, (path.name, sorted(bound - read))


def test_public_names_all_have_a_reader():
    # a name in an `__all__` that nothing in the package reads, outside its
    # own definition, serves only the tests, which keep such oracles in
    # tests/oracles.py; so does a public method or property of a class named
    # in an `__all__` that the package never reads as an attribute
    import ast
    from pathlib import Path

    def is_all(node):
        return isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)

    def reads(node, skip):
        for child in ast.iter_child_nodes(node):
            if is_all(child) or (isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == skip):
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                yield child.id
            elif isinstance(child, ast.Attribute):
                yield child.attr
            elif isinstance(child, ast.ImportFrom):
                yield from (alias.name for alias in child.names)
            yield from reads(child, skip)

    def attribute_reads(node, skip):
        for child in ast.iter_child_nodes(node):
            if child is not skip:
                if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                    yield child.attr
                yield from attribute_reads(child, skip)

    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(modmac.__file__).parent.glob("*.py"))}
    unread = []
    for name, tree in trees.items():
        public = next((ast.literal_eval(node.value) for node in tree.body if is_all(node)), [])
        unread += [(name, x) for x in public
                   if not any(x in reads(t, x if other == name else None) for other, t in trees.items())]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef) and node.name in public):
            for member in cls.body:
                if isinstance(member, ast.FunctionDef):
                    names = [member.name]
                else:
                    names = [t.id for t in getattr(member, "targets", ()) if isinstance(t, ast.Name)]
                unread += [(name, f"{cls.name}.{x}") for x in names if not x.startswith("_")
                           and not any(x in attribute_reads(t, member) for t in trees.values())]
    assert not unread, unread


def test_partitions_command():
    res = _run("partitions", "--m", "2", "--n", "4", "--class", "m-reduced")
    assert res.exit_code == 0
    assert json.loads(res.output) == [[4], [3, 1]]
    res = _run("partitions", "--m", "3", "--n", "0")
    assert json.loads(res.output) == [[]]


# one accepted command line per subcommand; each usage-error case below
# breaks one input of it
_VALID = {
    "partitions": ("--n", "4"),
    "qexpand": ("--n", "2"),
    "newton-verify": ("--lambda", "2,1"),
    "x0-matrix": ("--n", "3"),
    "x0-apply": ("--lambda", "2,1"),
    "macdonald": ("--lambda", "2,1"),
    "gram": ("--n", "3"),
    "specialize": ("--lambda", "2,1"),
    "selfcheck": ("--max-n", "2"),
}
_LAMBDA_CMDS = ("qexpand", "newton-verify", "x0-apply", "macdonald", "specialize")
_MODE_CMDS = ("qexpand", "newton-verify", "x0-matrix", "x0-apply", "macdonald", "gram")
USAGE_ERRORS = (
    [(cmd, "--m", "1", *rest) for cmd, rest in _VALID.items()]
    + [(cmd, "--m", "2", "--lambda", bad) for cmd in _LAMBDA_CMDS for bad in (
        "0", "1,2", "a", "2,,1", ",1", "1,", "1_0", "+2", "\u0663",
    )]
    + [
        ("partitions", "--m", "2", "--n", "-1"),
        ("partitions", "--n", "4"),
        ("x0-matrix", "--m", "2", "--n", "0"),
        ("gram", "--m", "2", "--n", "0"),
        ("selfcheck", "--m", "2", "--max-n", "0"),
    ]
    + [(cmd, "--m", "2", *_VALID[cmd], *flags) for cmd in _MODE_CMDS for flags in (
        ("--q0", "2"),
        ("--c0", "2"),
        ("--mode", "eval"),
        ("--mode", "eval", "--q0", "0"),
        ("--mode", "eval", "--q0", "2", "--c0", "0"),
        ("--mode", "eval", "--q0", "\u0663"),
        ("--mode", "eval", "--q0", "2", "--c0", "xi^\u0662"),
    )]
    + [
        ("macdonald", "--m", "2", "--lambda", "1,1"),
        ("specialize", "--m", "2", "--lambda", "1,1"),
        ("newton-verify", "--m", "2", "--lambda", ""),
    ]
)


@pytest.mark.parametrize("cmd", _VALID)
def test_usage_error_baseline_is_accepted(cmd):
    assert _run(cmd, "--m", "2", *_VALID[cmd]).exit_code == 0


@pytest.mark.parametrize("args", USAGE_ERRORS, ids=" ".join)
def test_usage_error(args):
    res = _run(*args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert "Error: " in res.stderr


def test_lambda_allows_spaces_around_parts():
    spaced = _run("x0-apply", "--m", "2", "--lambda", " 2, 1 ")
    assert spaced.exit_code == 0
    assert spaced.output == _run("x0-apply", "--m", "2", "--lambda", "2,1").output
    assert _partition("2, 1") == (2, 1)


def test_qexpand_command():
    res = _run("qexpand", "--m", "2", "--n", "2")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["basis"] == "p" and obj["terms"][0]["partition"] == [1, 1]
    res_lam = _run("qexpand", "--m", "2", "--lambda", "2")
    assert json.loads(res_lam.output) == obj
    assert _run("qexpand", "--m", "2").exit_code == 2
    assert _run("qexpand", "--m", "2", "--n", "2", "--lambda", "1").exit_code == 2


def test_qexpand_long_partition():
    # the q-product halves its partition, so its recursion is logarithmically
    # deep: 600 parts stay far from the interpreter's recursion limit
    res = _run("qexpand", "--m", "2", "--lambda", ",".join(["1"] * 600))
    assert res.exit_code == 0, res.output
    assert [t["partition"] for t in json.loads(res.output)["terms"]] == [[1] * 600]


def test_newton_verify_command():
    res = _run("newton-verify", "--m", "2", "--lambda", "2,1")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj == {
        "identity": "traisesq",
        "m": 2,
        "lambda": [2, 1],
        "status": "ok",
        "delta": {"m": 2, "basis": "p", "terms": []},
    }
    assert _run("newton-verify", "--m", "2", "--lambda", "1,2").exit_code == 2


def test_x0_matrix_command():
    res = _run("x0-matrix", "--m", "2", "--n", "3", "--out", "csv")
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert lines[0] == ",3,2+1"
    assert lines[1].startswith("3,")
    res = _run("x0-matrix", "--m", "2", "--n", "3")
    obj = json.loads(res.output)
    assert obj["order"] == [[3], [2, 1]]


def test_x0_apply_command():
    res = _run("x0-apply", "--m", "2", "--lambda", "1")
    assert res.exit_code == 0
    assert json.loads(res.output)["basis"] == "p"


def test_macdonald_command():
    res = _run("macdonald", "--m", "2", "--lambda", "2,1", "--mode", "symbolic")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["lambda"] == [2, 1]
    assert obj["q_coeffs"][0]["coeff"] == {"num": [["1"]], "den": [["1"]]}
    # non-reduced index is a usage error
    assert _run("macdonald", "--m", "2", "--lambda", "1,1").exit_code == 2


def test_eval_mode_flags():
    res = _run("macdonald", "--m", "2", "--lambda", "2,1", "--mode", "eval", "--q0", "2")
    assert res.exit_code == 0
    # eval requires q0
    assert _run("macdonald", "--m", "2", "--lambda", "2,1", "--mode", "eval").exit_code == 2
    # q0 only valid with eval
    assert _run("macdonald", "--m", "2", "--lambda", "2,1", "--q0", "2").exit_code == 2


def test_eigenvalue_collision_exits_one():
    res = _run("macdonald", "--m", "2", "--lambda", "2,1", "--mode", "eval", "--q0", "1")
    assert res.exit_code == 1
    obj = json.loads(res.output)
    assert obj["status"] == "fail"
    assert obj["error"] == "EigenvalueCollisionAtEvaluation"


def test_a_failing_identity_exits_one(monkeypatch):
    # newton-verify and selfcheck report a broken Newton identity and exit 1
    from modmac import newton, selfcheck
    from modmac.symfunc import PExpr

    def zero_rhs(lam, mode, d):
        return PExpr.zero(mode.m)

    monkeypatch.setattr(newton, "newton_rhs", zero_rhs)
    monkeypatch.setattr(selfcheck, "newton_rhs", zero_rhs)
    res = _run("newton-verify", "--m", "2", "--lambda", "2,1")
    assert res.exit_code == 1 and json.loads(res.stdout)["status"] == "fail"
    res = _run("selfcheck", "--m", "2", "--max-n", "2", "--out", "json")
    assert res.exit_code == 1
    assert {r["identity"]: r["status"] for r in json.loads(res.stdout)}["traisesq"] == "fail"


def test_a_failing_table_line_names_its_input(monkeypatch):
    # with newton_rhs skewed at lambda = (2,), the table's FAIL line carries
    # the report's extra fields as compact JSON, as --out json does
    from modmac import selfcheck
    from modmac.symfunc import PExpr

    inner = selfcheck.newton_rhs

    def skewed(lam, mode, d):
        rhs = inner(lam, mode, d)
        return rhs + PExpr(mode.m, {(1, 1): 1}) if lam == (2,) else rhs

    monkeypatch.setattr(selfcheck, "newton_rhs", skewed)
    res = _run("selfcheck", "--m", "2", "--max-n", "2")
    assert res.exit_code == 1
    reports = json.loads(_run("selfcheck", "--m", "2", "--max-n", "2", "--out", "json").stdout)
    fail = next(r for r in reports if r["status"] == "fail")
    assert fail["lambda"] == [2]
    line = next(line for line in res.stdout.splitlines() if line.startswith("[FAIL]"))
    assert line == (f"[FAIL] traisesq               m=2  lhs != rhs  lambda=[2]  "
                    f"delta={json.dumps(fail['delta'], separators=(',', ':'))}")
    assert res.stdout.count("[ ok ]") == 11


def test_a_failure_inside_a_family_is_that_familys_report(monkeypatch):
    # a library error met inside one family is its fail report: the other
    # eleven families still run and report, and the command exits 1
    from modmac import selfcheck
    from modmac.errors import InternalCheckError

    def broken(lam, nu):
        raise InternalCheckError("planted failure")

    monkeypatch.setattr(selfcheck, "nl_falling", broken)
    res = _run("selfcheck", "--m", "2", "--max-n", "2", "--out", "json")
    assert res.exit_code == 1
    reports = json.loads(res.stdout)
    assert isinstance(reports, list) and len(reports) == 12, reports
    assert [r["status"] for r in reports] == ["ok"] * 2 + ["fail"] + ["ok"] * 9
    assert reports[2] == {"identity": "lowering-count", "m": 2, "status": "fail",
                          "detail": "planted failure"}


def test_gram_command():
    res = _run("gram", "--m", "2", "--n", "2")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["order"] == [[2]]
    res = _run("gram", "--m", "2", "--n", "3", "--out", "csv")
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == ",3,2+1"


def test_specialize_command():
    res = _run("specialize", "--m", "2", "--lambda", "2")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["terms"] == [{"partition": [1, 1], "coeff": {"num": [["2"]], "den": [["1"]]}}]


def test_selfcheck_command():
    res = _run("selfcheck", "--m", "2", "--max-n", "3")
    assert res.exit_code == 0
    assert res.output.count("[ ok ]") == 12
    res_json = _run("selfcheck", "--m", "2", "--max-n", "3", "--out", "json")
    reports = json.loads(res_json.output)
    assert len(reports) == 12
    assert all(r["status"] == "ok" for r in reports)
    res3 = _run("selfcheck", "--m", "3", "--max-n", "3")
    assert res3.exit_code == 0
    assert "[skip] schur-q-limit" in res3.output


def test_selfcheck_twisted_product_checks_a_degree_or_skips():
    # every m <= 12 checks at least k = 1, even when 2 * max-n < m
    twisted = {r["identity"]: r for r in json.loads(
        _run("selfcheck", "--m", "5", "--max-n", "2", "--out", "json").output)}["twisted-product"]
    assert (twisted["status"], twisted["detail"]) == ("ok", "km<=5")
    # past the cap of 12 no degree fits: skipped, not a vacuous pass
    res = _run("selfcheck", "--m", "13", "--max-n", "1", "--out", "json")
    assert res.exit_code == 0
    twisted = {r["identity"]: r for r in json.loads(res.output)}["twisted-product"]
    assert (twisted["status"], twisted["detail"]) == ("skipped", "no k >= 1 with km <= 12")


def test_output_is_deterministic():
    for args in (
        ("selfcheck", "--m", "2", "--max-n", "3", "--out", "json"),
        ("macdonald", "--m", "2", "--lambda", "2,1"),
        ("x0-matrix", "--m", "2", "--n", "4", "--out", "csv"),
        ("newton-verify", "--m", "3", "--lambda", "2,1"),
    ):
        assert _run(*args).output == _run(*args).output

# sha256 of stdout recorded from the Fraction-vector scalar kernel; every
# scalar-kernel change must leave these byte-identical.  Each command takes
# under a second; n >= m wherever that holds.
GOLDEN = (
    ("qexpand --m 2 --n 3", 0,
     "9141d4945a76a003a4255a0c06a147f8d5242aacef575b5fded828683b1e38a8"),
    ("qexpand --m 2 --lambda 3,1 --mode eval --q0 2", 0,
     "f208d8acaffb370a619897c82fb7f38b740c1dbce0b4125877409b4d20c6fc48"),
    ("x0-matrix --m 2 --n 2 --out json", 0,
     "7807d65ee19fd68d5d9f64a76f53ce693ff54505d1e9a7233a2bed67d60e2dec"),
    ("x0-matrix --m 2 --n 3 --out csv", 0,
     "32cecedf86517df5bdc23d967b2a64675f06075df12e9358491e4ed878efdb89"),
    ("x0-matrix --m 2 --n 3 --mode eval --q0 1/2 --out csv", 0,
     "72fb9ccb3e3627480bc8849012d10dbb96c75b4ecb2479f53311aee206bd2579"),
    ("macdonald --m 2 --lambda 3,1", 0,
     "df0dceb44761a2978d1160837ce282b63b7a9a106fe2ff41905ae983828c2c68"),
    ("macdonald --m 2 --lambda 3,1 --mode eval --q0 3/2", 0,
     "1a7e74cf59d8331ef7320b80293c040d8063861ad477e0715cb0bad3aefa9593"),
    ("gram --m 2 --n 2", 0,
     "28fb606eb1b6fd49d0aceab163fdb8510470a4811101e4a6bb6a7904c52f97e4"),
    ("gram --m 2 --n 3 --out csv", 0,
     "a12a0954d7411bd1c2d7b0f5d1fe7dc3f03ea4c607e80a115b31d27ccc2f7d48"),
    ("gram --m 2 --n 3 --mode eval --q0 -2", 0,
     "52fd6f67eda6ddd00a078ca5bf43b8ca757f1e5f5f826f6b091fa8bebf661e26"),
    ("gram --m 2 --n 3 --mode eval --q0 2 --out csv", 0,
     "6ba579267545934e74ba370755916e90ec6acc5f17d8f4e3857c2f92d5050e28"),
    ("specialize --m 2 --lambda 2,1", 0,
     "d9b8107f8be9cca864ef76b72ea6a51d713a92fbce571e25e586e810b74766cb"),
    ("qexpand --m 3 --n 4", 0,
     "6614c58d15df064edaec884123b4d0d5531d8d8504f207f03166db4c0d483da2"),
    ("qexpand --m 3 --lambda 4,1 --mode eval --q0 2", 0,
     "65a2254acefbe91d8e7e5229bdad832ea1dcd4dde1a76f629b76e0b609e7b338"),
    ("x0-matrix --m 3 --n 3 --out json", 0,
     "a4b00205a828d60d018aae1be63fcc424db1f1972e7fddcfdc9c14b9df911b6f"),
    ("x0-matrix --m 3 --n 4 --out csv", 0,
     "faad2bcce185c279cb3294dc77b2f0b288020fac3ea8fac9948f2340c1b6ddec"),
    ("x0-matrix --m 3 --n 4 --mode eval --q0 1/2 --out csv", 0,
     "b02f9677f69177ad34ff1220475365f03d9ac4f7ee7987900d04d3aa2c13baef"),
    ("x0-matrix --m 3 --n 4 --mode eval --q0 2*xi --out json", 0,
     "1885597cfc0604ae4e684fd24a6c620d51c567ac87027ba5755ecd52ea5adaaf"),
    ("macdonald --m 3 --lambda 4,1", 0,
     "08d8d7f9761080b0dc82ef331caa1ef75cd8bcc943909570726cf86b520d9e1e"),
    ("macdonald --m 3 --lambda 4,1 --mode eval --q0 3/2", 0,
     "71b4fd96300981334dc7aa69ee8818d2fe991529f9b2b1fa5e1d51fa24b675c5"),
    ("gram --m 3 --n 3", 0,
     "99fae41143d6fddd2575096ec8dcb78e1c2efe763e48267377bc95226b8d312e"),
    ("gram --m 3 --n 4 --out csv", 0,
     "02ad31c52866ede1c2bfc4fa276b7d605f96eed8884c1dcdb01f62c8e0ab175a"),
    ("gram --m 3 --n 4 --mode eval --q0 -2", 0,
     "f02c88301d68384b7e1034a34e40e28b86c123183f1d2022a7945a462cbeb0d8"),
    ("gram --m 3 --n 4 --mode eval --q0 2 --out csv", 0,
     "410423491da9b7e08c62eda4105d4b2def77d3b59e1cfbe41e7059bfd7af32af"),
    ("specialize --m 3 --lambda 3,1", 0,
     "667c97a8f34daf51560dc35d66347bf050ba21b7008b2e26c0ebe305cb54ecbc"),
    ("qexpand --m 4 --n 5", 0,
     "aa004d4fe77f765fe7ad02d0b02cbb13937b95d39b39a016e2bee4b31c17f131"),
    ("qexpand --m 4 --lambda 5,1 --mode eval --q0 2", 0,
     "747baf5b0412c2c3060a00b2d0909fb362fea4404657b613244aa1bf24d983eb"),
    ("x0-matrix --m 4 --n 4 --out json", 0,
     "c83222ca4e5cbee64ff5b7db7538175b93ad0448f23d0571f9125c24a29b8623"),
    ("x0-matrix --m 4 --n 5 --out csv", 0,
     "b3346b5c958d30fe4425a317549336400e0a4dfa668184ae49a933a704499b81"),
    ("x0-matrix --m 4 --n 5 --mode eval --q0 1/2 --out csv", 0,
     "bb7358e0e5f9e667bc283d1e3e19d22df799ced7ab44eb445701a92fb8f27597"),
    ("x0-matrix --m 4 --n 5 --mode eval --q0 2*xi --out json", 0,
     "e284bde4a6990baa232e39929c64cd0f5f396de572c765c327ade02461e1862a"),
    ("macdonald --m 4 --lambda 3,1", 0,
     "00c8812db175026f99472fc32f08bcec95398df62346a791e38e87f141ac8475"),
    ("macdonald --m 4 --lambda 5,1 --mode eval --q0 3/2", 0,
     "7f38e2f03417db335ab5e34c8c214da35e62ecf072613a7b1c7787800df9dff7"),
    ("gram --m 4 --n 4", 0,
     "80841d676b7858e8e660333f5e02dfc297c1b75cf2882df5fe9b8a8ec6de2fcb"),
    ("gram --m 4 --n 4 --mode eval --q0 2*xi", 0,
     "0d69f019a56553751a7e7dd16b055f332ce93c3f4482fd915ccaf53eb7dff3fe"),
    ("gram --m 4 --n 5 --mode eval --q0 -2", 0,
     "1501ef20cd7dcd162eac7cda49fa62e182ff0d484040e00b4fb319ab7c7c82fc"),
    ("gram --m 4 --n 5 --mode eval --q0 2 --out csv", 0,
     "fa29abc39af80f56ae660c559e8565f51e5345583d07c933449b42ee0bd1f4e8"),
    ("specialize --m 4 --lambda 4,1", 0,
     "1c0aaa525ed3e783a09ff425f854f04723d7f61b714c98844f0e7d408b78473a"),
    ("qexpand --m 5 --n 6", 0,
     "c6dc9259d8e58fe54935350ca9e9fdc38fd0c0ff9e555fd7b3684c4843879b46"),
    ("qexpand --m 5 --lambda 6,1 --mode eval --q0 2*xi^3", 0,
     "c260687e8d59071db153dc22c6f822e882af0975cdefcfec8e58c6aeb497f55c"),
    ("x0-matrix --m 5 --n 6 --mode eval --q0 1/2 --out csv", 0,
     "755ad03fb6a4a53432124cc60bf011af89725ac7f12f3950fef060c9a85356c0"),
    ("x0-matrix --m 5 --n 6 --mode eval --q0 2*xi --out json", 0,
     "c6536b4f13fddde20635315e5a363269fb5c15eb00c07d8709e388beee336454"),
    ("x0-matrix --m 5 --n 6 --mode eval --q0 xi^2", 1,
     "8c3463c1e5bce028de799419b658fd883d40028f0b76edb072a62fe77c104242"),
    ("macdonald --m 5 --lambda 3,1", 0,
     "e869d207d5d1a4258a9f6935a993d94493868571ea73da8c62c3d35d20d35b50"),
    ("macdonald --m 5 --lambda 5,1 --mode eval --q0 3/2", 0,
     "61de228c87f3087f83824a5fd5df3f37e7942260180fe910243967e170a2bd9c"),
    ("gram --m 5 --n 5 --mode eval --q0 -2", 0,
     "a78e45756224e10609b253740f7d0afa2abeeb36649e24d36369b39a11934aaf"),
    ("specialize --m 5 --lambda 3,1", 0,
     "26419f14de339cfec11da016385b5ab15c2a25bf9b0528f20bf38f41f54009c5"),
    ("qexpand --m 6 --n 7", 0,
     "b6dbc1b97e8623822020cbe01811fbda196b4ad170ae1746bcb4771e040f3fbf"),
    ("qexpand --m 6 --lambda 7,1 --mode eval --q0 2", 0,
     "1ff2caa3f9eb6a1bbafc1b41d88e692a8a05fa8e19a6692e911ecf2dc3b31e5e"),
    ("x0-matrix --m 6 --n 7 --mode eval --q0 1/2 --out csv", 0,
     "d1d4fb3585d5bc63bbf10a54e23fa59056acdfb0c788d6e0d0c0317aedafc216"),
    ("x0-matrix --m 6 --n 7 --mode eval --q0 2*xi --out json", 0,
     "678d6e623e02871c476ef4ebe7fff15b7bcaa3fc2b64ad98b964da0e014b229a"),
    ("macdonald --m 6 --lambda 3,1", 0,
     "9728e243471b5a942467ee6526cafca9a28d96d092717bf1adfd76a50d3b9c84"),
    ("macdonald --m 6 --lambda 4,2 --mode eval --q0 3/2", 0,
     "ab3917849b1a1a85f3e110c7c106d7171694a13c2c4760f61a163336e32532de"),
    ("gram --m 6 --n 4", 0,
     "f2fc92cae3bd17f79a14f0a521162dafc7c049832509ce380285e7811b2bc4a4"),
    ("gram --m 6 --n 6 --mode eval --q0 -2", 0,
     "e57d7f1b86fd40b37cc928c2dfd70b38f571edb0843b55ecc0f540f9d99adf80"),
    ("specialize --m 6 --lambda 3,2", 0,
     "a47c74dd8d55898d51ce6fa6a9f9490e1c4930e6f84cf0c5f28bf78833eff32d"),
    # selfcheck and newton-verify, recorded before the twelve criteria moved
    # into one implementation shared with the acceptance tests
    ("selfcheck --m 2 --max-n 3", 0,
     "741d9e3a753af9837766d182f313683dbdbe2c2043db0c34ae8879d8a895204d"),
    ("selfcheck --m 2 --max-n 3 --out json", 0,
     "d5adbb2575b4859d928ca9a3c7de0b041c80991e96f810956b432af91d6d7206"),
    ("selfcheck --m 2 --max-n 4 --seed 7 --out json", 0,
     "5cedd335556696813f0174d455803d307da740b481d40ab9bfda18c94f995c7f"),
    ("selfcheck --m 3 --max-n 3 --out json", 0,
     "243bff56f7781963e7c618c6a71eeb99ca169ae9b91b9875a46aff9ecf5b7bd9"),
    ("selfcheck --m 3 --max-n 3 --seed 5", 0,
     "1c06c9d49fd662057c29467a67e2164137cc5159f80df76327c53a36a6500e53"),
    ("selfcheck --m 4 --max-n 3", 0,
     "1d42208de6131a506142b6d3e2f8537b2068a230ed3adc8a985cdd15b6c25209"),
    ("selfcheck --m 4 --max-n 3 --seed 11 --out json", 0,
     "1db839776e667ed932a36f1112daad872dfe80adc1c5e7492894c34b81ce54be"),
    ("selfcheck --m 4 --max-n 4 --out json", 0,
     "8343b3d58517e92b95a5c3dbf24f84fbac333ffcc9c5407771aaedbf4733ae94"),
    ("newton-verify --m 2 --lambda 3,1", 0,
     "25d51760646bbdfc8ef0e638ff56bc36562974331d60d58c12ea3b5ba68b704d"),
    ("newton-verify --m 2 --lambda 2,2,1", 0,
     "b6c1f87e878bfed053af48741bc0af5954959112ec18ad34bddd0056035c8190"),
    ("newton-verify --m 2 --lambda 3,1 --mode eval --q0 3/2", 0,
     "25d51760646bbdfc8ef0e638ff56bc36562974331d60d58c12ea3b5ba68b704d"),
    ("newton-verify --m 3 --lambda 3,2", 0,
     "7067a6ce426e77c066e96c1a28740aa9226d2cc466600bc14a151a0ad49abf19"),
    ("newton-verify --m 3 --lambda 4,1 --mode eval --q0 2", 0,
     "fc9c7a280bffeb40193d7ab645e529562f18fa9ab38a4b7c86c45365412f271d"),
    ("newton-verify --m 3 --lambda 2,1 --mode eval --q0 2*xi", 0,
     "3a1ecf6d1bf5649a1a225fcf2afd3e01053c4530bf61760991985ca4ce34eca9"),
    # a run of sixteen ones, recorded before the lowering walk took
    # multiplicities
    ("x0-apply --m 2 --lambda " + ",".join(["1"] * 16), 0,
     "70c12af4791d7c757ef70d68b8c2467228fd9478dfd704fe4cff3fa28c1759b9"),
    ("newton-verify --m 2 --lambda " + ",".join(["1"] * 16), 0,
     "aa8da35c96a5cc62fb5aaac360b6fa70dbd31c0136a8898e49f7adc896cb498a"),
    # values that start with "-", recorded on the click front end
    ("gram --m 2 --n 3 --mode eval --q0 -1/2", 0,
     "c56f5df87027578768d8838ee7d4d29567fd48d7bebdd36842b82081670b92d4"),
    ("qexpand --m 3 --n 2 --mode eval --q0 2 --c0 -xi", 0,
     "a27b125099713c02f945edbf548a11d8aba094ce97ba906ec211b2e9fbcbffdf"),
    # a zero eigenvalue: 2 q0 - 1 at q0 = 1/2; that of (3, 1, 1) at m = 6,
    # q0 = xi^5, which the solve for (2, 1, 1, 1) passes as a gap
    ("macdonald --m 2 --lambda 1 --mode eval --q0 1/2", 0,
     "7bdd48db0b1d432c8715f5eed4334692f2c3afb4addaa4bae03e633af351d22a"),
    ("gram --m 6 --n 5 --mode eval --q0 xi^5", 0,
     "9d6a0006c62db3df0197d62934466c3335034ccaed5677c86856d3da3278538a"),
    ("macdonald --m 6 --lambda 2,1,1,1 --mode eval --q0 xi^5", 0,
     "b1a6ddd9b386ced6bd91b4f3497660af68e9b205f4b8d7fa269724f27cf1092c"),
)


@pytest.mark.parametrize("cmd,code,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_outputs(cmd, code, digest):
    res = _run(*cmd.split())
    assert res.exit_code == code
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize("args", [
    ("qexpand", "--m", "2", "--n", "1", "--mode", "eval", "--q0", "1"),
    ("x0-apply", "--m", "2", "--lambda", "1", "--mode", "eval", "--q0", "1"),
    ("x0-matrix", "--m", "3", "--n", "2", "--mode", "eval", "--q0", "-1"),
    ("gram", "--m", "3", "--n", "2", "--mode", "eval", "--q0", "-1"),
    ("newton-verify", "--m", "2", "--lambda", "1", "--mode", "eval", "--q0", "1"),
], ids=lambda args: args[0])
def test_degenerate_eval_point_is_usage_error(args):
    # q0^k = 1 for a degree k prime to m: epsilon_k vanishes
    res = _run(*args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "epsilon_" in res.output and "vanishes" in res.output
    assert res.stdout == ""


@pytest.mark.parametrize("args,code", [
    (("x0-apply", "--lambda", "1,1"), 2),
    (("x0-apply", "--lambda", "1"), 0),
    (("x0-matrix", "--n", "1"), 0),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_degenerate_point_needs_the_vanishing_epsilon(args, code):
    # at m = 3, q0 = -1 only epsilon_2 vanishes: a command fails exactly when
    # its weight reaches 2, as the p output of the image of q_(1,1) does
    res = _run(*args, "--m", "3", "--mode", "eval", "--q0", "-1")
    assert res.exit_code == code
    if code:
        assert "epsilon_2 vanishes" in res.output and res.stdout == ""


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("out", ["json", "csv"])
def test_x0_matrix_does_not_depend_on_c0(m, out):
    # the matrix on the q-basis depends on q alone: c enters through eps only
    outputs = {_run("x0-matrix", "--m", str(m), "--n", "5", "--mode", "eval", "--q0", "2",
                    "--c0", c0, "--out", out).stdout for c0 in ("1/3", "-2*xi", "3*xi^2")}
    assert len(outputs) == 1 and outputs.pop().startswith("{" if out == "json" else ",")


@pytest.mark.parametrize("flags", [("--q0", "1/0"), ("--q0", "2", "--c0", "1/0")],
                         ids=["q0", "c0"])
def test_zero_denominator_literal_is_usage_error(flags):
    res = _run("qexpand", "--m", "2", "--n", "1", "--mode", "eval", *flags)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "zero denominator" in res.output


@pytest.mark.parametrize("args, call", [
    (("gram", "--m", "3", "--n", "2"), "gram"),
    (("macdonald", "--m", "3", "--lambda", "1"), "solve_q"),
    (("qexpand", "--m", "3", "--n", "1", "--mode", "eval", "--q0", "2"), "q_to_p"),
], ids=lambda v: v[0] if isinstance(v, tuple) else v)
def test_request_too_large_for_memory_is_usage_error(args, call, monkeypatch):
    # a library call that runs out of memory, as `zeta` does at m = 99999999999
    from modmac import cli

    def exhausted(*_):
        raise MemoryError

    monkeypatch.setattr(cli, call, exhausted)
    res = _run(*args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr.endswith("Error: the request does not fit in memory\n")


def test_a_modulus_too_large_for_memory_exits_two():
    # m = 99999999999: the m-long tuple of `zeta` cannot fit in 1 GiB of
    # address space, whatever the host's overcommit
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(modmac.__file__))
    res = subprocess.run([sys.executable, "-m", "modmac.cli", "gram", "--m", "99999999999", "--n", "1"],
                         capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
                         preexec_fn=limit)
    assert (res.returncode, res.stdout) == (2, b"")
    assert res.stderr.endswith(b"Error: the request does not fit in memory\n")


def test_option_spellings():
    # --opt=VALUE is accepted and a repeated option takes its last value, as
    # under click; no abbreviation and no -h
    assert _run("partitions", "--m=2", "--n=4", "--class=m-reduced").output == "[[4], [3, 1]]\n"
    res = _run("partitions", "--m", "2", "--n", "4", "--class", "m-reduced", "--class", "all")
    assert json.loads(res.output) == [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]
    assert _run("qexpand", "--m", "3", "--n", "2", "--mode", "eval", "--q0", "-xi").exit_code == 0
    # a dash-led value that is no literal is refused by its own check
    res = _run("qexpand", "--m", "2", "--n", "1", "--mode", "eval", "--q0", "-q")
    assert res.exit_code == 2 and "cannot parse scalar literal '-q'" in res.stderr


_RANGES = {"partitions": ("x>=0",), "x0-matrix": ("x>=1",), "gram": ("x>=1",),
           "selfcheck": ("x>=1", "default: 6")}


@pytest.mark.parametrize("cmd", ["", *_VALID])
def test_help(cmd):
    res = _run(*cmd.split(), "--help")
    assert res.exit_code == 0 and res.stderr == ""
    assert res.stdout.startswith("usage: modmac")
    if cmd:
        assert all(r in res.stdout for r in ("x>=2", *_RANGES.get(cmd, ()))), res.stdout
    else:
        assert all(name in res.stdout for name in _VALID)


@pytest.mark.parametrize("args", [
    (),
    ("bogus",),
    ("--m", "2", "gram", "--n", "3"),
    ("gram", "--m", "2", "--n", "3", "--bogus", "1"),
    ("gram", "--m", "2", "--n"),
    ("gram", "--n", "3"),
    ("partitions", "--m", "2", "--n", "4", "--cl", "all"),
    ("partitions", "--m", "2", "--n", "4", "-h"),
    ("partitions", "--m", "2", "--n", "4", "extra"),
], ids=lambda args: " ".join(args) or "no arguments")
def test_command_line_usage_error(args):
    res = _run(*args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert "Error: " in res.stderr


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(modmac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)


def test_commands_leave_the_collector_alone():
    # objects are frozen only at exit: an in-process command keeps the
    # collector running and freezes nothing
    assert _run("gram", "--m", "2", "--n", "3").exit_code == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


def test_import_loads_no_heavy_module():
    # start-up cost: the command line needs none of these, and gram runs
    # neither newton nor selfcheck nor writes CSV
    heavy = "{'click', 'dataclasses', 'inspect', 'modmac.newton', 'modmac.selfcheck', 'csv'}"
    res = _fresh_interpreter(
        "import sys; before = set(sys.modules); import modmac.cli; "
        f"print(sorted({heavy} & (set(sys.modules) - before))); "
        "modmac.cli.main(['gram', '--m', '2', '--n', '3']); "
        f"print(sorted({heavy} & (set(sys.modules) - before)))")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.decode().splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")


def test_package_import_loads_no_module():
    res = _fresh_interpreter(
        "import sys; import modmac; "
        "print(sorted(n for n in sys.modules if n.startswith('modmac.')))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.decode().strip() == "[]"


def test_star_import_binds_the_module_names():
    # the names come from the modules' __all__ on first use; an unknown name
    # is still an AttributeError
    res = _fresh_interpreter(
        "from modmac import *\n"
        "bound = {n for n in dir() if not n.startswith('_')}\n"
        "import modmac\n"
        "from modmac import (errors, macdonald, newton, partitions, scalars, selfcheck,\n"
        "                    symfunc, vertex)\n"
        "names = {n for mod in (errors, macdonald, newton, partitions, scalars, selfcheck,\n"
        "                       symfunc, vertex) for n in mod.__all__}\n"
        "assert bound == names == set(modmac.__all__), bound ^ names\n"
        "try:\n"
        "    modmac.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout.decode().strip() == "module 'modmac' has no attribute 'no_such_name'"


# the GOLDEN digest where there is one; the others were recorded before
# newton and selfcheck were imported inside their commands
_DEFERRED = (
    ("selfcheck --m 2 --max-n 2 --out json",
     "9c367da3b124fb54e3d465a4428488701a9aa265827d1378968fe5a4a1798ff8"),
    ("newton-verify --m 2 --lambda 2,1",
     "ea437fa213e713468a141719ca3aae1f9df82d44c2afd827fc27c95286e888e0"),
    ("x0-matrix --m 2 --n 3 --out csv", dict((c, d) for c, _, d in GOLDEN)[
        "x0-matrix --m 2 --n 3 --out csv"]),
)


@pytest.mark.parametrize("cmd,digest", _DEFERRED, ids=[c for c, _ in _DEFERRED])
def test_deferred_imports_run_in_a_fresh_interpreter(cmd, digest):
    # each command loads the module only it uses (newton, selfcheck, csv)
    res = _fresh_interpreter(f"from modmac.cli import main; main({cmd.split()!r})")
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout).hexdigest() == digest


def test_runs_without_click():
    res = _fresh_interpreter(
        "import sys; sys.modules['click'] = None; "
        "from modmac.cli import main; main(['gram', '--m', '2', '--n', '2'])")
    assert res.returncode == 0, res.stderr
    digest = dict((c, d) for c, _, d in GOLDEN)["gram --m 2 --n 2"]
    assert hashlib.sha256(res.stdout).hexdigest() == digest
