"""CLI behaviour: output formats, exit codes, atomic writes."""

import importlib
import json

import pytest

from conftest import run_python
from psl2cert import cli, gf, lpoly
from psl2cert.certify import OutOfRangeError, certificate_to_dict, certify_range, verify_certificate
from psl2cert.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_RANGE,
    EXIT_SHAPE,
    EXIT_USAGE,
    EXIT_WEIL,
    main,
)
from psl2cert.lpoly import KernelCheckError, ShapeViolation

certify_module = importlib.import_module("psl2cert.certify")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_lpoly_known_primes(capsys):
    code, out = run(capsys, "lpoly", "--p", "3")
    assert code == EXIT_OK
    assert out == "P_3 = 1 - 2/9*T^2 + T^4; shape: biquadratic b=4/3\n"
    code, out = run(capsys, "lpoly", "--p", "5")
    assert code == EXIT_OK
    assert "shape: square b=-2/5" in out


def test_lpoly_rejects_composite(capsys):
    code, _ = run(capsys, "lpoly", "--p", "9")
    assert code == EXIT_USAGE


def test_lpoly_full_mode(capsys):
    code, out = run(capsys, "lpoly", "--p", "7", "--mode", "full")
    assert code == EXIT_OK
    assert "P_7 = 1 - 34/49*T^2 + T^4" in out


def test_lpoly_full_mode_out_of_range(capsys):
    assert main(["lpoly", "--p", "37", "--mode", "full"]) == EXIT_RANGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field of size 37^4 = 1874161 exceeds the 1048576-entry character table\n"


def test_scan_row_counts(capsys):
    code, out = run(capsys, "scan", "--pmax", "20")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "p,p_mod_4,a,b,shape_b,shape_b_times_p_integral"
    assert len(lines) == 1 + 7  # 3, 5, 7, 11, 13, 17, 19
    assert lines[1] == "3,3,0/1,-2/9,4/3,true"
    assert all(line.endswith("true") for line in lines[1:])

    code, out = run(capsys, "scan", "--pmax", "3")
    assert len(out.strip().split("\n")) == 2


def test_scan_stops_at_the_table_cap_without_sieving_to_pmax(capsys, monkeypatch):
    monkeypatch.setattr(gf, "CHI_TABLE_MAX_Q", 1000)  # F_31^2 fits, F_37^2 does not
    gf.fq_ctx.cache_clear()  # drop fields whose table was built under the real cap
    try:
        code, expected = run(capsys, "scan", "--pmax", "31")
        assert code == EXIT_OK
        assert main(["scan", "--pmax", str(10**12)]) == EXIT_RANGE
    finally:
        gf.fq_ctx.cache_clear()
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err.startswith("error: field of size 37^2")


def test_scan_deterministic(capsys):
    _, first = run(capsys, "scan", "--pmax", "20")
    _, second = run(capsys, "scan", "--pmax", "20")
    assert first == second


def test_certify_single(capsys):
    code, out = run(capsys, "certify", "--ell", "19")
    assert code == EXIT_OK
    assert "ell=19 verdict=Certified borel=3 cartan=3 exceptional=5" in out


def test_certify_out_of_range(capsys):
    # every prime l < 11 is refused, and the error line says why
    for ell in (2, 3, 5, 7):
        assert main(["certify", "--ell", str(ell)]) == EXIT_RANGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: l = {ell} is below the certifiable range (l >= 11): "
            f"every square mod {ell} is a trace square the exceptional test rejects\n"
        )


def test_certify_range_with_json(capsys, tmp_path):
    path = tmp_path / "certs.json"
    code, out = run(capsys, "certify", "--ell-range", "11:31", "--json", str(path))
    assert code == EXIT_OK
    assert "certified 7/7" in out
    docs = json.loads(path.read_text())
    assert [d["ell"] for d in docs] == ["11", "13", "17", "19", "23", "29", "31"]
    assert all(verify_certificate(d) for d in docs)


def test_certify_witness_flag(capsys):
    code, out = run(capsys, "certify", "--ell", "19", "--witnesses", "3")
    assert code == EXIT_INCONCLUSIVE
    assert "verdict=Inconclusive" in out


def test_certify_rejects_malformed_witnesses(capsys):
    assert main(["certify", "--ell", "19", "--witnesses", "3,x"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["lpoly", "--p", "1031"],  # the first p with p^2 above the character table
        ["certify", "--ell", "11", "--witnesses", "3,1031"],
    ],
)
def test_field_beyond_character_table_is_out_of_range(capsys, argv):
    assert main(argv) == EXIT_RANGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["lpoly"],  # --p is required
        ["certify", "--ell", "11", "--jobs", "2"],  # not a certify flag
        ["scan", "--pmax", "x"],
        ["lpoly", "--p", "3", "--cache", "{tmp}/cache.json"],  # a removed flag
    ],
)
def test_usage_errors_exit_usage(capsys, tmp_path, argv):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "exc, code",
    [
        (ShapeViolation("bad shape"), EXIT_SHAPE),  # an ArithmeticError, mapped before them
        (KernelCheckError("bad kernel"), EXIT_WEIL),
        (OutOfRangeError("too large"), EXIT_RANGE),  # a ValueError, mapped before them
        (ValueError("bad value"), EXIT_USAGE),
    ],
)
def test_library_errors_map_to_exit_codes(capsys, monkeypatch, exc, code):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "lpolynomial", fail)
    assert main(["scan", "--pmax", "5"]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_lpoly_full_mode_reciprocity_failure_exits_weil(capsys, monkeypatch):
    trace_sum = lpoly.trace_sum
    monkeypatch.setattr(lpoly, "trace_sum", lambda p, k: trace_sum(p, k) + (k == 3))
    assert main(["lpoly", "--p", "7", "--mode", "full"]) == EXIT_WEIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_certify_range_reports_witness_clash(capsys):
    code, out = run(capsys, "certify", "--ell-range", "11:17", "--witnesses", "13")
    assert code == EXIT_INCONCLUSIVE
    assert "ell=13 error=" in out
    assert out.strip().endswith("/3")


INVARIANTS_STDOUT = """\
model: y^2 = x^3 + (t^5 - t)*x^2 + (t^8 - 2*t^6 + t^4)*x
c4 = 16*t^2 - 48*t^4 + 64*t^6 - 48*t^8 + 16*t^10
c6 = 64*t^3 - 288*t^5 + 384*t^7 - 384*t^11 + 288*t^13 - 64*t^15
Delta = 16*t^10*(t-1)^8*(t+1)^8
j = 256*(t^4-t^2+1)^3 / (t^4*(t-1)^2*(t+1)^2)
pole orders of j: 0:4, 1:2, -1:2, oo:4 (lcm 4)
kodaira: 0:I4*, 1:I2*, -1:I2*, oo:I4*
bad places: 0, 1, -1, oo
"""


def test_invariants_output(capsys):
    assert run(capsys, "invariants") == (EXIT_OK, INVARIANTS_STDOUT)


def test_group_check_small(capsys):
    code, out = run(capsys, "group-check", "--ell", "5")
    assert code == EXIT_OK
    assert "orders: H=120 G=240 G/<gamma>=60" in out
    code, out = run(capsys, "group-check", "--ell", "11")
    assert code == EXIT_OK
    assert "orders: H=1320 G=2640 G/<gamma>=660" in out


def test_group_check_refuses_large_ell(capsys):
    code, _ = run(capsys, "group-check", "--ell", "37")
    assert code == EXIT_RANGE


def test_group_check_at_17(capsys):
    code, out = run(capsys, "group-check", "--ell", "17")
    assert code == EXIT_OK
    assert "orders: H=4896 G=9792 G/<gamma>=2448" in out


def test_group_check_failed_identity_exits_weil(capsys, monkeypatch):
    monkeypatch.setattr(cli, "group_order_bfs", lambda gens, ell: 1)
    code, out = run(capsys, "group-check", "--ell", "5")
    assert "order formulas: FAIL" in out
    assert code == EXIT_WEIL


@pytest.mark.parametrize(
    "argv, name, fail_at, err",
    [
        (["certify", "--ell", "19", "--json", "{tmp}/out.json"], "dumps", 1, "disk full"),
        # one dumps per certificate
        (["certify", "--ell-range", "11:200", "--json", "{tmp}/out.json"], "dumps", 3, "disk full"),
        # the temp file cannot be opened; the error names the target
        (
            ["certify", "--ell", "19", "--json", "{tmp}/none/out.json"],
            None,
            0,
            "[Errno 2] No such file or directory: '{tmp}/none/out.json'",
        ),
    ],
    ids=["single", "streamed", "no-directory"],
)
def test_json_writes_are_atomic(capsys, monkeypatch, tmp_path, argv, name, fail_at, err):
    path = tmp_path / "out.json"
    assert main(["certify", "--ell", "11", "--json", str(path)]) == EXIT_OK
    before = path.read_bytes()
    capsys.readouterr()

    calls = []
    if name:
        real = getattr(json, name)

        def fail_at_call(*args, **kwargs):
            calls.append(args)
            if len(calls) == fail_at:
                raise OSError("disk full")
            return real(*args, **kwargs)

        monkeypatch.setattr(json, name, fail_at_call)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == EXIT_USAGE
    assert len(calls) == fail_at
    stderr = capsys.readouterr().err
    assert stderr == f"error: {err.format(tmp=tmp_path)}\n" and ".tmp" not in stderr
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_verify_command(capsys, tmp_path):
    path = tmp_path / "certs.json"
    assert run(capsys, "certify", "--ell-range", "11:200", "--json", str(path))[0] == EXIT_OK
    code, out = run(capsys, "verify", str(path))
    assert (code, out) == (EXIT_OK, "verified 42/42\n")

    single = tmp_path / "one.json"
    assert run(capsys, "certify", "--ell", "19", "--json", str(single))[0] == EXIT_OK
    code, out = run(capsys, "verify", str(single))
    assert (code, out) == (EXIT_OK, "verified 1/1\n")

    docs = json.loads(path.read_text())
    docs[3]["exceptional"]["witness_u"][0][1] = "1"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(docs))
    code, out = run(capsys, "verify", str(tampered))
    assert (code, out) == (EXIT_WEIL, "verified 41/42\n")

    doc = json.loads(single.read_text())
    doc["witness_data"][0]["a"] = 5  # a number where a "num/den" string belongs
    single.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(single))
    assert (code, out) == (EXIT_WEIL, "verified 0/1\n")


def test_verify_fails_a_file_that_holds_no_certificates(capsys, tmp_path):
    path = tmp_path / "none.json"
    code, _ = run(capsys, "certify", "--ell-range", "11:11", "--witnesses", "11", "--json", str(path))
    assert (code, path.read_text()) == (EXIT_INCONCLUSIVE, "[]\n")
    assert run(capsys, "verify", str(path)) == (EXIT_WEIL, "verified 0/0\n")


@pytest.mark.parametrize(
    "ell_range, witnesses",
    [("11:100", "3,5"), ("11:11", "11")],  # the second writes an empty list
)
def test_ell_range_json_is_one_certificate_per_line(capsys, tmp_path, ell_range, witnesses):
    path = tmp_path / "certs.json"
    run(capsys, "certify", "--ell-range", ell_range, "--witnesses", witnesses, "--json", str(path))
    lo, hi = map(int, ell_range.split(":"))
    report = certify_range(lo, hi, tuple(map(int, witnesses.split(","))))
    docs = [certificate_to_dict(c) for c in report]
    text = path.read_text()
    if docs:
        assert text == "[\n" + ",\n".join(json.dumps(doc, sort_keys=True) for doc in docs) + "\n]\n"
    else:
        assert text == "[]\n"
    assert json.loads(text) == docs


def test_ell_json_is_one_line(capsys, tmp_path):
    path = tmp_path / "one.json"
    run(capsys, "certify", "--ell", "19", "--json", str(path))
    doc = certificate_to_dict(certify_range(19, 19, (3, 5)).certificates[0])
    assert path.read_text() == json.dumps(doc, sort_keys=True) + "\n"


def test_verify_accepts_the_indented_layout(capsys, tmp_path):
    """Files written with `indent=1`, the layout before one certificate per
    line, still verify."""
    docs = [certificate_to_dict(c) for c in certify_range(11, 200, (3, 5))]
    many = tmp_path / "certs.json"
    many.write_text(json.dumps(docs, sort_keys=True, indent=1) + "\n")
    assert run(capsys, "verify", str(many)) == (EXIT_OK, "verified 42/42\n")
    one = tmp_path / "one.json"
    one.write_text(json.dumps(docs[2], sort_keys=True, indent=1) + "\n")
    assert run(capsys, "verify", str(one)) == (EXIT_OK, "verified 1/1\n")


@pytest.mark.parametrize("p", ("1", "-1"))
def test_unit_p_in_a_certificate_fails_without_hanging(capsys, tmp_path, p):
    certs = tmp_path / "one.json"
    assert run(capsys, "certify", "--ell", "19", "--json", str(certs))[0] == EXIT_OK
    doc = json.loads(certs.read_text())
    doc["witness_data"][0]["p"] = p
    certs.write_text(json.dumps(doc))
    child = run_python("-m", "psl2cert.cli", "verify", str(certs))
    assert (child.returncode, child.stdout) == (EXIT_WEIL, "verified 0/1\n")


@pytest.mark.parametrize("content", [None, "not json\n"])  # missing, unparsable
def test_verify_rejects_unreadable_file(capsys, tmp_path, content):
    path = tmp_path / "certs.json"
    if content is not None:
        path.write_text(content)
    assert main(["verify", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# The CLI in a child whose address space is capped at 3 GiB, so a regression
# that allocates per l up to 10^10 fails fast instead of exhausting memory.
# {patch} runs after `cli` is imported and before `main`.
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from psl2cert import cli
{patch}
sys.exit(cli.main(sys.argv[1:]))
"""

# The least strong pseudoprimes to the first 12 and 13 prime bases: both
# composite, and both passed the 12-base primality test of earlier versions.
PSI_12 = 399165290221 * 798330580441
PSI_13 = 1287836182261 * 2575672364521

WRONG_DELTA = """
real = cli.invariants
cli.invariants = lambda model: real(model)._replace(delta=real(model).c4)
"""


# The one error line of a malformed --ell-range or --witnesses value.
RANGE_FORM = "error: --ell-range takes LO:HI, got '{}'\n"
WITNESSES_FORM = "error: --witnesses takes a comma-separated list of integers, got '{}'\n"

BAD_COMMAND_LINES = [
    (["certify", "--ell-range", "11:10000000000"], EXIT_RANGE, "", ""),
    (["verify", "{deep}"], EXIT_USAGE, "", ""),
    (["group-check", "--ell", "4"], EXIT_USAGE, "", ""),
    (["group-check", "--ell", "37"], EXIT_RANGE, "", ""),
    (["certify", "--ell-range", "11"], EXIT_USAGE, "", RANGE_FORM.format("11")),
    (["certify", "--ell-range", "20:11"], EXIT_RANGE, "", ""),
    (["lpoly", "--p", "1031"], EXIT_RANGE, "", ""),
    (["lpoly", "--p", "100003"], EXIT_RANGE, "", ""),
    (["certify", "--ell", "11", "--witnesses", "3,100003"], EXIT_RANGE, "", ""),
    (["certify", "--ell", "11", "--json", ""], EXIT_USAGE, "", ""),  # refused before certifying
    (["invariants"], EXIT_WEIL, WRONG_DELTA, ""),
    (["certify", "--ell", str(PSI_12)], EXIT_USAGE, "", ""),  # composite: not prime
    (["certify", "--ell", str(PSI_13)], EXIT_RANGE, "", ""),  # beyond exact primality
    (["certify", "--ell-range", "100"], EXIT_USAGE, "", RANGE_FORM.format("100")),
    (["certify", "--ell-range", "11:"], EXIT_USAGE, "", RANGE_FORM.format("11:")),
    (["certify", "--ell-range", "11:20:30"], EXIT_USAGE, "", RANGE_FORM.format("11:20:30")),
    (["certify", "--ell", "11", "--witnesses", "3,,5"], EXIT_USAGE, "", WITNESSES_FORM.format("3,,5")),
    (["certify", "--ell", "11", "--witnesses", "3,3"], EXIT_USAGE, "", "error: witness 3 is repeated\n"),
    (["certify", "--ell-range", "11:100", "--witnesses", "3,5,3"], EXIT_USAGE, "", "error: witness 3 is repeated\n"),
]


@pytest.mark.parametrize(
    "argv, code, patch, message", BAD_COMMAND_LINES, ids=[" ".join(argv) for argv, *_ in BAD_COMMAND_LINES]
)
def test_bad_command_lines_print_one_error_line_and_no_traceback(tmp_path, argv, code, patch, message):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)  # beyond the parser's recursion limit
    argv = [arg.format(deep=deep) for arg in argv]
    child = run_python("-c", CAPPED_CLI.format(patch=patch), *argv)
    assert "Traceback" not in child.stderr
    assert (child.returncode, child.stdout) == (code, "")
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
    assert message in child.stderr  # "" where only the form of the line is checked


@pytest.mark.parametrize("ell", [PSI_12, PSI_13])
def test_verify_rejects_a_certificate_for_a_strong_pseudoprime(capsys, tmp_path, monkeypatch, ell):
    with monkeypatch.context() as patch:  # what a primality test fooled by ell would write
        patch.setattr(certify_module, "is_prime", lambda n: True)
        doc = certificate_to_dict(certify_module.certify(ell))
    assert doc["verdict"] == "Certified"
    path = tmp_path / "pseudoprime.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(path)) == (EXIT_WEIL, "verified 0/1\n")
