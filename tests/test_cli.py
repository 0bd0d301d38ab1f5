import argparse
import hashlib
import json
import tracemalloc

import pytest

from shidcone import cli
from shidcone.cli import main
from shidcone.shi_basis import derivation_from_dict
from shidcone.verify import saito_verify


_EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


def invoke(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_verify_ok(capsys):
    status, out, _ = invoke(capsys, "verify", "--ell", "2")
    assert status == 0
    assert "saito_ok: True" in out


def test_verify_bad_ell_usage_error(capsys):
    status, _, err = invoke(capsys, "verify", "--ell", "1")
    assert status == 2
    assert "error" in err.lower()


def test_verify_check_failure_exit_code(capsys, monkeypatch):
    import shidcone.cli as cli_mod

    real = saito_verify

    def broken(ell, method="auto"):
        report = real(ell, method=method)
        report.saito_ok = False
        return report

    monkeypatch.setattr(cli_mod, "saito_verify", broken)
    status, _, _ = invoke(capsys, "verify", "--ell", "2")
    assert status == 1


def test_internal_error_exit_code(capsys, monkeypatch):
    # a crash is neither a failed check (1) nor a usage error (2)
    import shidcone.cli as cli_mod

    def crash(ell, method="auto"):
        raise OverflowError("boom")

    monkeypatch.setattr(cli_mod, "saito_verify", crash)
    status, out, err = invoke(capsys, "verify", "--ell", "2")
    assert status == 3
    assert out == ""
    assert err == "internal error: OverflowError: boom\n"


def test_bernoulli_golden(capsys):
    status, out, _ = invoke(capsys, "bernoulli", "--p", "3", "--q", "0")
    assert status == 0
    assert "1/3*x^3 + 2/3*x" in out


def test_bernoulli_flagged_case(capsys):
    status, out, _ = invoke(capsys, "bernoulli", "--p", "-1", "--q", "0")
    assert status == 0
    assert "-1/x" in out


# sha256 of `shidcone bernoulli --p P --q Q --format json` followed by the
# text output, concatenated over -1 <= P <= 12 and 0 <= Q <= 4 in that
# order; (-1, 0) is the flagged -1/x case.
_BERNOULLI_SHA256 = "0b3c0e65d46ee41661283f1bc0b4392adb826b1e7308edb681ac9aa922f0ec70"


def test_bernoulli_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for p in range(-1, 13):
        for q in range(5):
            for fmt in ("json", "text"):
                status, out, _ = invoke(
                    capsys, "bernoulli", "--p", str(p), "--q", str(q), "--format", fmt
                )
                assert status == 0
                digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == _BERNOULLI_SHA256


def test_bernoulli_invalid_usage(capsys):
    status, _, _ = invoke(capsys, "bernoulli", "--p", "-3", "--q", "0")
    assert status == 2


def test_bernoulli_degree_past_the_exponent_limit_is_a_usage_error(capsys):
    # p + 2q = 256: Bbar's monomials cannot be packed, so it is refused
    # before any work is done
    status, out, err = invoke(capsys, "bernoulli", "--p", "2", "--q", "127")
    assert status == 2
    assert out == ""
    assert "255" in err
    status, _, _ = invoke(capsys, "bernoulli", "--p", "1", "--q", "127")
    assert status == 0


@pytest.mark.parametrize(
    "argv",
    [
        "basis --ell 128",
        "verify --ell 128",
        "det --ell 128",
        "oracle dims --ell 2 --max-degree 256",
    ],
)
def test_input_past_the_exponent_field_is_a_usage_error(capsys, monkeypatch, argv):
    # rank 128 needs exponents 2 * 128 = 256, and degree 256 cannot be
    # packed either: each is refused before any degree is computed, and
    # verify before it builds the arrangement
    import shidcone.oracle as oracle_mod
    import shidcone.verify as verify_mod

    def must_not_run(ell, d):
        raise AssertionError("a degree was computed")

    def no_arrangement(ell):
        raise AssertionError("the arrangement was built")

    monkeypatch.setattr(oracle_mod, "derivation_dim", must_not_run)
    monkeypatch.setattr(verify_mod, "shi_d_cone", no_arrangement)
    status, out, err = invoke(capsys, *argv.split())
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and "255" in err


def test_det_golden_text(capsys):
    status, out, _ = invoke(capsys, "det", "--ell", "2")
    assert status == 0
    # (x1+x2)(x1-x2)(x1+x2-z)(x1-x2-z) expanded, canonical rendering
    assert out.strip() == (
        "x1^4 - 2*x1^3*z - 2*x1^2*x2^2 + x1^2*z^2 + 2*x1*x2^2*z + x2^4 - x2^2*z^2"
    )


def test_det_algorithms_agree(capsys):
    _, out_minors, _ = invoke(capsys, "det", "--ell", "3")
    _, out_bareiss, _ = invoke(capsys, "det", "--ell", "3", "--algorithm", "bareiss")
    assert out_minors == out_bareiss


def test_json_deterministic(capsys):
    _, out1, _ = invoke(capsys, "verify", "--ell", "2", "--format", "json")
    _, out2, _ = invoke(capsys, "verify", "--ell", "2", "--format", "json")
    assert out1.encode() == out2.encode()
    payload = json.loads(out1)
    assert payload["saito_ok"] is True
    assert payload["det_constant"] == {"num": "1", "den": "1"}
    assert "timing" not in payload


def test_json_round_trips_through_parser(capsys):
    _, out, _ = invoke(capsys, "basis", "--ell", "2", "--format", "json")
    payload = json.loads(out)
    assert [d["name"] for d in payload] == ["euler", "phi_1", "phi_2"]
    assert payload[0]["coeffs"]["x1"] == [[[1, 0, 0], "1", "1"]]


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_basis_reparsed_verifies_identically(capsys, cached_basis, ell):
    _, out, _ = invoke(capsys, "basis", "--ell", str(ell), "--format", "json")
    parsed = [derivation_from_dict(d) for d in json.loads(out)]
    assert parsed == cached_basis(ell)
    direct = saito_verify(ell).summary_dict()
    reparsed = saito_verify(ell, derivs=parsed).summary_dict()
    assert direct == reparsed


def test_lemmas_command(capsys):
    status, out, _ = invoke(capsys, "lemmas", "--ell", "2")
    assert status == 0
    assert "all_ok: True" in out


def test_oracle_dims_command(capsys):
    status, out, _ = invoke(capsys, "oracle", "dims", "--ell", "2", "--max-degree", "3")
    assert status == 0
    assert "MISMATCH" not in out


@pytest.mark.parametrize("ell,max_degree", [("1", "-1"), ("2", "-1")])
def test_oracle_dims_invalid_input_is_a_usage_error(capsys, ell, max_degree):
    status, out, err = invoke(
        capsys, "oracle", "dims", "--ell", ell, "--max-degree", max_degree, "--format", "json"
    )
    assert status == 2
    assert out == ""
    assert err.startswith("error: ")


def test_oracle_charpoly_command(capsys):
    status, out, _ = invoke(capsys, "oracle", "charpoly", "--ell", "2", "--q", "5")
    assert status == 0
    assert "count=36 expected=36" in out


def test_oracle_charpoly_bad_prime(capsys):
    status, _, _ = invoke(capsys, "oracle", "charpoly", "--ell", "2", "--q", "4")
    assert status == 2


def test_oracle_charpoly_past_the_prefix_cap_is_a_usage_error(capsys):
    status, out, err = invoke(capsys, "oracle", "charpoly", "--ell", "300", "--q", "601")
    assert (status, out) == (2, "")
    assert err == "error: the tables for ell = 300, q = 601 pass the 10,000,000 prefix cap\n"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    status, out, _ = invoke(
        capsys, "verify", "--ell", "2", "--format", "json", "--out", str(path)
    )
    assert status == 0
    assert out == ""
    assert json.loads(path.read_text())["saito_ok"] is True


def test_unwritable_out_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    status, out, err = invoke(capsys, "basis", "--ell", "2", "--out", str(path))
    assert status == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert not path.exists()


def test_unwritable_out_file_is_refused_before_the_check(tmp_path, capsys, monkeypatch):
    import shidcone.cli as cli_mod

    def must_not_run(ell, method="auto"):
        raise AssertionError("the check ran")

    monkeypatch.setattr(cli_mod, "saito_verify", must_not_run)
    path = tmp_path / "missing" / "x.json"
    status, out, err = invoke(capsys, "verify", "--ell", "6", "--out", str(path))
    assert status == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")


# status, sha256 of stdout and the exact stderr of invocations that no other
# test pins, recorded before the front end was rewritten
_INVOCATION_PINS = {
    "verify --ell 3": (0, "4431621ad380df4c2bd36b4bdf47178d2e0356e324be116b30ca153aae18453e", ""),
    "verify --ell 3 --format json": (
        0, "36213ea665e04e7223525781327b972b0d5ffbc932514d9a25aee30cf7d712f2", ""),
    "lemmas --ell 3": (0, "6161f9d5978568b42ec18d1d30b53ad3aa13e0e0f25368c1b479fdab97b9b962", ""),
    "lemmas --ell 3 --format json": (
        0, "5e624ee0c804dc832d99e58ff5ac04e4d3cb4951f0b98ff583eb24367c367870", ""),
    "oracle dims --ell 2 --max-degree 4": (
        0, "deb205cd6dfef1aeedf5a1f1446f79b20cd5fbb515fc938be9d10ddb2951477b", ""),
    "oracle dims --ell 2 --max-degree 4 --format json": (
        0, "796d8af3d3b56c0623907d0356176f77030843f6bc578dd7532725139dbf47d0", ""),
    "oracle dims --ell 3 --max-degree 6 --format json": (
        0, "5cb1356311505f4fe7305aaeb7e2aad6c887ece71248034341f79a6d8ca4f8ff", ""),
    "oracle charpoly --ell 3 --q 11": (
        0, "096bfaf06649a789ffe79ac28610aa16d45aeab74a029e4c6f8ef97757a77235", ""),
    "oracle charpoly --ell 3 --q 11 --format json": (
        0, "b0622be57e551a0af11e17ee26a28d2f94d12d74be0bd40e22f021b55b8b9c6c", ""),
    "oracle charpoly --ell 4 --q 17 --format json": (
        0, "a10a786716c99cecd0b1bb7d48668f0cdb1e2ef648e354b1837afea079888dbc", ""),
    "bernoulli --p 3 --q 2": (
        0, "ff3998adbc014431a9049a76a3138957ea6e6c7c9775ac877a7fb5c8ce6b503a", ""),
    "bernoulli --p 3 --q 2 --format json": (
        0, "d0dd54638395a1723a971b57c69579fd2f3ca011d8d01bd1604fd7f2939deaf7", ""),
    "verify --ell 1": (2, _EMPTY_SHA256, "error: ell must be >= 2\n"),
    "bernoulli --p -2 --q 0": (2, _EMPTY_SHA256, "error: require p >= -1 and q >= 0\n"),
    "oracle dims --ell 1 --max-degree -1": (
        2, _EMPTY_SHA256, "error: require ell >= 2 and max_degree >= 0\n"),
    "oracle charpoly --ell 3 --q 4": (2, _EMPTY_SHA256, "error: q = 4 is not an odd prime\n"),
}


@pytest.mark.parametrize("argv", sorted(_INVOCATION_PINS))
def test_invocation_is_pinned(capsys, argv):
    status, out, err = invoke(capsys, *argv.split())
    assert (status, hashlib.sha256(out.encode("utf-8")).hexdigest(), err) == _INVOCATION_PINS[argv]


def test_json_timings_are_floats_beside_the_untimed_payload(capsys):
    _, untimed, _ = invoke(capsys, "verify", "--ell", "3", "--format", "json")
    status, timed, _ = invoke(capsys, "verify", "--ell", "3", "--format", "json", "--timings")
    assert status == 0
    payload = json.loads(timed)
    timing = payload.pop("timing")
    assert timing and all(type(secs) is float for secs in timing.values())
    assert list(payload.items()) == list(json.loads(untimed).items())


def test_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    path = tmp_path / "out"
    passing = sorted(a for a, (status, _, _) in _INVOCATION_PINS.items() if status == 0)
    # the rank-4 determinant's 4,313 terms go out in 1,492 batches
    extra = [
        "basis --ell 3 --format json",
        "det --ell 3 --algorithm bareiss --format json",
        "det --ell 4 --format json",
        "verify --ell 4 --method certify --format json --include-det",
    ]
    for argv in extra + passing:
        path.write_text("old content that must go\n")
        _, expected, _ = invoke(capsys, *argv.split())
        status, out, _ = invoke(capsys, *argv.split(), "--out", str(path))
        assert status == 0 and out == "", argv
        assert path.read_bytes() == expected.encode("utf-8"), argv


def test_json_is_streamed_to_the_output(tmp_path):
    # with the determinant built, writing its payload holds no copy of the
    # text: the traced peak stays below a quarter of the file
    report = saito_verify(4, method="certify")
    payload = report.summary_dict()
    payload["det_phi"] = report.det_phi
    assert len(payload["det_phi"]) == 4313
    path = tmp_path / "det.json"
    tracemalloc.start()
    try:
        cli._write_payload(argparse.Namespace(out=str(path)), payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_text() == cli.emit_json(payload)
    assert peak < size / 4, (peak, size)


def test_crash_while_streaming_exits_3_and_leaves_a_truncated_file(tmp_path, capsys, monkeypatch):
    _, expected, _ = invoke(capsys, "det", "--ell", "3", "--format", "json")
    real = cli._write_terms

    def fail_after_the_first_batch(write, poly, depth):
        def write_once(text):
            write(text)
            raise RuntimeError("disk gone")

        real(write_once, poly, depth)

    monkeypatch.setattr(cli, "_write_terms", fail_after_the_first_batch)
    path = tmp_path / "det.json"
    status, out, err = invoke(capsys, "det", "--ell", "3", "--format", "json", "--out", str(path))
    assert (status, out, err) == (3, "", "internal error: RuntimeError: disk gone\n")
    written = path.read_text()
    assert '"det": [' in written and expected.startswith(written) and written != expected


def test_missing_subcommand_exits_2():
    # argparse's usage text varies across Python versions; the status does not
    for argv in ([], ["nope"], ["oracle"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# sha256 of `shidcone basis --ell L --format json`.  Only rank 2 has golden
# coefficients, so these pin every coefficient at ranks 3 to 7: a change
# that still passes Saito's criterion would otherwise go unnoticed.
_BASIS_JSON_SHA256 = {
    3: "2077c3e2d2d63dd87373ccee9fbcce23788da9b4259d038d54833e8f1ed289b1",
    4: "b5a2830a569f41d5cecce12780b83f463ef4d7be3b946c4cff87b7264e13ee18",
    5: "319086df0acd611e946d48c3e53133cecc10b59457d805c36c0e64d04f133e66",
    6: "199d090aba234b236c28a41cef98191ee78fedab823f67973a2f06e838db1daf",
    7: "b68914021320cea785a4805a6e2241070f39dbc54bb65425a1c6da09034b9682",
}


@pytest.mark.parametrize("ell", sorted(_BASIS_JSON_SHA256))
def test_basis_json_is_pinned(capsys, ell):
    status, out, _ = invoke(capsys, "basis", "--ell", str(ell), "--format", "json")
    assert status == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _BASIS_JSON_SHA256[ell]


# sha256 of the outputs that pass through the kernel and back into a Poly:
# `verify --method M --format json --include-det` and
# `det [--algorithm M] --format json`.
_KERNEL_JSON_SHA256 = {
    ("verify", "expand", 3): "10d50e2173b9a8309211ab5c8701fca593a073ac2690dbb230653db52a66d026",
    ("verify", "certify", 3): "73c10b03a5bcc4a4d8a81b0ca79a66c7af22655afb6d80935e7feef2fc95e21e",
    ("verify", "expand", 4): "017fba66e299a03b379f731a902eee4d5f29060d2fabd177213588e48a9a4e4a",
    ("verify", "certify", 4): "3ad47468151fe5ebcb67e93ab89294ddf72c7fe6190f32c43af7eb0df2062f16",
    ("det", None, 3): "879710affc08179837a6a059daf6c3abd49ffd145f37f57539862ca113860587",
    ("det", None, 4): "9d8f462dd8cfc8ccbbd108661cb70fe518216886a0515a2c116bc58ee60247d1",
    ("det", "bareiss", 3): "879710affc08179837a6a059daf6c3abd49ffd145f37f57539862ca113860587",
}


@pytest.mark.parametrize("command,method,ell", sorted(_KERNEL_JSON_SHA256, key=str))
def test_kernel_json_is_pinned(capsys, command, method, ell):
    argv = [command, "--ell", str(ell), "--format", "json"]
    if command == "verify":
        argv += ["--method", method, "--include-det"]
    elif method:
        argv += ["--algorithm", method]
    status, out, _ = invoke(capsys, *argv)
    assert status == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == _KERNEL_JSON_SHA256[(command, method, ell)]


def test_json_commands_are_pinned(capsys):
    # one JSON output of each command that writes polynomials, byte for byte
    pins = {
        "verify --ell 3 --method expand --include-det": _KERNEL_JSON_SHA256[("verify", "expand", 3)],
        "verify --ell 3 --method certify --include-det": _KERNEL_JSON_SHA256[("verify", "certify", 3)],
        "det --ell 3": _KERNEL_JSON_SHA256[("det", None, 3)],
        "bernoulli --p 3 --q 2": _INVOCATION_PINS["bernoulli --p 3 --q 2 --format json"][1],
        "basis --ell 3": _BASIS_JSON_SHA256[3],
    }
    for argv, pin in pins.items():
        status, out, err = invoke(capsys, *argv.split(), "--format", "json")
        assert (status, err) == (0, ""), argv
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pin, argv
