"""CLI behaviour: output formats, exit codes, cache round-trips."""

import json

import pytest

from conftest import run_python
from psl2cert import cli, gf, lpoly
from psl2cert.certify import OutOfRangeError, verify_certificate
from psl2cert.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_RANGE,
    EXIT_SHAPE,
    EXIT_USAGE,
    EXIT_WEIL,
    load_cache,
    main,
)
from psl2cert.lpoly import KernelCheckError, ShapeViolation


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
    assert captured.err.startswith("error: full-direct mode limited")


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
    code, _ = run(capsys, "certify", "--ell", "7")
    assert code == EXIT_RANGE


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
    ],
)
def test_usage_errors_exit_usage(capsys, argv):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


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


def test_invariants_output(capsys):
    code, out = run(capsys, "invariants")
    assert code == EXIT_OK
    assert "Delta = 16*t^10*(t-1)^8*(t+1)^8" in out
    assert "j = 256*(t^4-t^2+1)^3 / (t^4*(t-1)^2*(t+1)^2)" in out
    assert "pole orders of j: 0:4, 1:2, -1:2, oo:4 (lcm 4)" in out
    assert "kodaira: 0:I4*, 1:I2*, -1:I2*, oo:I4*" in out


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


def test_cache_roundtrip(capsys, tmp_path):
    path = tmp_path / "lpoly-cache.json"
    code, first = run(capsys, "lpoly", "--p", "5", "--cache", str(path))
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    assert doc["entries"]["5"] == {"a": "-4/5", "b": "54/25"}

    code, second = run(capsys, "lpoly", "--p", "5", "--cache", str(path))
    assert code == EXIT_OK
    assert first == second

    entries = load_cache(str(path))
    assert str(entries[5].a) == "-4/5"


def test_cache_detects_corruption(tmp_path):
    # a well-formed entry of the right shape that is simply not P_5: the
    # load-time spot check recomputes and must reject it
    path = tmp_path / "bad-cache.json"
    path.write_text(
        json.dumps({"version": 1, "entries": {"5": {"a": "4/5", "b": "54/25", "mode": "FE"}}})
    )
    with pytest.raises(ValueError):
        load_cache(str(path))


def test_cache_rejects_invalid_coefficients(tmp_path):
    # denominators must be powers of p; this entry fails re-validation
    path = tmp_path / "foreign-cache.json"
    path.write_text(
        json.dumps({"version": 1, "entries": {"5": {"a": "1/3", "b": "0/1", "mode": "FE"}}})
    )
    with pytest.raises(ValueError):
        load_cache(str(path))


# P_13 is right; 1 + T^4 passes LPolynomial's checks but is not a square.
# The load-time recount probes p = 13 here, so only the shape check sees p = 5.
SHAPE_VIOLATING_CACHE = json.dumps(
    {
        "version": 1,
        "entries": {
            "5": {"a": "0/1", "b": "0/1", "mode": "FE"},
            "13": {"a": "28/13", "b": "534/169", "mode": "FE"},
        },
    }
)


def test_cache_rejects_shape_violation(tmp_path):
    path = tmp_path / "shape-cache.json"
    path.write_text(SHAPE_VIOLATING_CACHE)
    with pytest.raises(ShapeViolation):
        load_cache(str(path))


@pytest.mark.parametrize(
    "content",
    [
        "not json\n",  # fails to parse
        # well-formed but not P_5, nor a square: fails the shape check
        json.dumps({"version": 1, "entries": {"5": {"a": "0/1", "b": "2/5", "mode": "FE"}}}),
        SHAPE_VIOLATING_CACHE,
        # well-formed and a square but not P_5: fails the load-time recount
        json.dumps({"version": 1, "entries": {"5": {"a": "4/5", "b": "54/25", "mode": "FE"}}}),
        # a root off the unit circle
        json.dumps({"version": 1, "entries": {"5": {"a": "5/1", "b": "0/1", "mode": "FE"}}}),
        "[]\n",  # JSON, but not a cache document
        json.dumps({"version": 1, "entries": {"5": "1 + T^4"}}),
    ],
)
def test_lpoly_rejects_bad_cache_without_traceback(capsys, tmp_path, content):
    path = tmp_path / "cache.json"
    path.write_text(content)
    assert main(["lpoly", "--p", "3", "--cache", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert path.read_text() == content


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--ell", "19", "--json"],
        ["lpoly", "--p", "5", "--cache"],  # the cache already holds P_3
    ],
)
def test_json_and_cache_writes_are_atomic(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "out.json"
    assert main(["lpoly", "--p", "3", "--cache", str(path)]) == EXIT_OK
    before = path.read_text()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"partial": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    assert main(argv + [str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith("error: disk full\n")
    assert path.read_text() == before
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


@pytest.mark.parametrize("p", ("1", "-1"))
def test_unit_p_in_a_certificate_or_cache_fails_without_hanging(capsys, tmp_path, p):
    certs = tmp_path / "one.json"
    assert run(capsys, "certify", "--ell", "19", "--json", str(certs))[0] == EXIT_OK
    doc = json.loads(certs.read_text())
    doc["witness_data"][0]["p"] = p
    certs.write_text(json.dumps(doc))
    child = run_python("-m", "psl2cert.cli", "verify", str(certs))
    assert (child.returncode, child.stdout) == (EXIT_WEIL, "verified 0/1\n")

    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps({"version": 1, "entries": {p: {"a": "0/1", "b": "-2/9"}}}))
    child = run_python("-m", "psl2cert.cli", "lpoly", "--p", "3", "--cache", str(cache))
    assert (child.returncode, child.stdout) == (EXIT_USAGE, "")
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1


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

WRONG_DELTA = """
real = cli.invariants
cli.invariants = lambda model: real(model)._replace(delta=real(model).c4)
"""


BAD_COMMAND_LINES = [
    (["certify", "--ell-range", "11:10000000000"], EXIT_RANGE, ""),
    (["verify", "{deep}"], EXIT_USAGE, ""),
    (["lpoly", "--p", "3", "--cache", "{deep}"], EXIT_USAGE, ""),
    (["group-check", "--ell", "4"], EXIT_USAGE, ""),
    (["group-check", "--ell", "37"], EXIT_RANGE, ""),
    (["certify", "--ell-range", "11"], EXIT_USAGE, ""),
    (["certify", "--ell-range", "20:11"], EXIT_RANGE, ""),
    (["lpoly", "--p", "1031"], EXIT_RANGE, ""),
    (["invariants"], EXIT_WEIL, WRONG_DELTA),
]


@pytest.mark.parametrize(
    "argv, code, patch", BAD_COMMAND_LINES, ids=[" ".join(argv) for argv, _, _ in BAD_COMMAND_LINES]
)
def test_bad_command_lines_print_one_error_line_and_no_traceback(tmp_path, argv, code, patch):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)  # beyond the parser's recursion limit
    argv = [arg.format(deep=deep) for arg in argv]
    child = run_python("-c", CAPPED_CLI.format(patch=patch), *argv)
    assert "Traceback" not in child.stderr
    assert (child.returncode, child.stdout) == (code, "")
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
