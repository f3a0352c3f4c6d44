import hashlib
import json

import pytest

from click.testing import CliRunner

from modmac.cli import main


def _run(*args):
    return CliRunner().invoke(main, args)


def test_partitions_command():
    res = _run("partitions", "--m", "2", "--n", "4", "--class", "m-reduced")
    assert res.exit_code == 0
    assert json.loads(res.output) == [[4], [3, 1]]
    res = _run("partitions", "--m", "3", "--n", "0")
    assert json.loads(res.output) == [[]]


def test_partitions_usage_errors():
    assert _run("partitions", "--m", "1", "--n", "4").exit_code == 2
    assert _run("partitions", "--m", "2", "--n", "-1").exit_code == 2
    assert _run("partitions", "--n", "4").exit_code == 2


def test_qexpand_command():
    res = _run("qexpand", "--m", "2", "--n", "2")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["basis"] == "p" and obj["terms"][0]["partition"] == [1, 1]
    res_lam = _run("qexpand", "--m", "2", "--lambda", "2")
    assert json.loads(res_lam.output) == obj
    assert _run("qexpand", "--m", "2").exit_code == 2
    assert _run("qexpand", "--m", "2", "--n", "2", "--lambda", "1").exit_code == 2


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
