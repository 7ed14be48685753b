"""Command-line front end: L-polynomial queries, shape scans, certification
runs, surface invariants, and small-l group identity checks.

Every command writes deterministic bytes to stdout for identical flags;
timing goes to stderr.  Exit codes: 0 success, 1 usage error or bad input
file, 2 shape-law violation, 3 any other arithmetic check failure
(Weil/Hasse bound, trace kernel, a certificate that `verify` rejects or a
`verify` file that holds none, a `group-check` identity that prints FAIL),
4 out-of-range request (a field beyond the 2^20-entry character table, an
`--ell-range` above 10^6, an integer too large for exact primality), 5 some
l given to `certify` is Inconclusive or errored.  A command returns 0, 3 or
5 for its own verdict and raises for anything else; `main` is the only
mapping from an exception to an exit code, through EXIT_CODES, and prints
one `error:` line.  The only files written are `certify --json`
certificates, one compact document per line; they are replaced atomically,
and `verify` re-checks them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from .certify import (
    RangeReport,
    certificate_to_dict,
    certify,
    certify_range,
    verify_certificate,
)
from .lpoly import (
    MODE_FE,
    MODE_FULL,
    ShapeViolation,
    lpolynomial,
    shape_classify,
)
from .modarith import OutOfRangeError, is_prime
from .qpoly import QPolynomial, format_poly, frac_str
from .tensor import (
    GaussianMat,
    block_diagonal_pair,
    complex_structure,
    group_order_bfs,
    sl2_generators,
    to_gaussian,
)
from .ortho import identity, mat_mul, mat_neg
from .weierstrass import (
    INF,
    bad_places,
    invariants,
    kodaira_table,
    pole_order_lcm,
    pole_orders,
    surface_model,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SHAPE = 2
EXIT_WEIL = 3
EXIT_RANGE = 4
EXIT_INCONCLUSIVE = 5

# Library exceptions to exit codes, most specific first: ShapeViolation is
# an ArithmeticError and OutOfRangeError a ValueError.
EXIT_CODES = (
    (ShapeViolation, EXIT_SHAPE),
    (ArithmeticError, EXIT_WEIL),
    (OutOfRangeError, EXIT_RANGE),
    ((ValueError, OSError), EXIT_USAGE),
)

GROUP_CHECK_MAX_ELL = 31  # breadth-first closure guard: |G| = 59520 at l = 31


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _read_json(path: str):
    """The JSON document in path; one nested too deeply for the parser is a
    ValueError, like any other malformed file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def _write_json(path: str, chunks) -> None:
    """Write the text chunks to a temp file beside path, then rename it over
    path: a failed write leaves the old file as it was.  The chunks are
    consumed one at a time, so a generator of them is never held whole."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the file asked for, not the temp file
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise


def _json_lines(docs):
    """The JSON list of docs, one compact document per line, as text chunks:
    `[`, the documents joined by `,` and a newline, then `]`."""
    sep = "[\n"
    for doc in docs:
        yield sep + json.dumps(doc, sort_keys=True)
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_lpoly(args) -> int:
    lp = lpolynomial(args.p, MODE_FULL if args.mode == "full" else MODE_FE)
    print(f"P_{args.p} = {lp}; shape: {shape_classify(lp).describe()}")
    return EXIT_OK


def cmd_scan(args) -> int:
    t0 = time.perf_counter()
    print("p,p_mod_4,a,b,shape_b,shape_b_times_p_integral")
    for p in filter(is_prime, range(3, args.pmax + 1, 2)):  # no sieve: the scan stops at the table cap
        lp = lpolynomial(p)
        shape = shape_classify(lp)
        integral = (shape.b * p).denominator == 1
        print(
            f"{p},{p % 4},{frac_str(lp.a)},{frac_str(lp.b)},{frac_str(shape.b)},"
            f"{'true' if integral else 'false'}"
        )
    print(f"scan pmax={args.pmax} took {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_OK


def _cert_line(cert) -> str:
    def by(record):
        return record.eliminated_by if record.eliminated else "-"

    return (
        f"ell={cert.ell} verdict={cert.verdict} borel={by(cert.borel)} "
        f"cartan={by(cert.cartan)} exceptional={by(cert.exceptional)}"
    )


def cmd_certify(args) -> int:
    if args.json == "":
        raise ValueError("--json needs a file name")
    t0 = time.perf_counter()
    try:
        witnesses = tuple(map(int, args.witnesses.split(",")))
    except ValueError:
        raise ValueError(f"--witnesses takes a comma-separated list of integers, got {args.witnesses!r}") from None
    if args.ell is not None:
        report = RangeReport((certify(args.ell, witnesses),), ())
    else:
        try:
            lo, hi = map(int, args.ell_range.split(":"))  # a wrong count is a ValueError too
        except ValueError:
            raise ValueError(f"--ell-range takes LO:HI, got {args.ell_range!r}") from None
        report = certify_range(lo, hi, witnesses)
    for cert in report:
        print(_cert_line(cert))
    for ell, msg in report.errors:
        print(f"ell={ell} error={msg}")
    print(f"certified {report.certified_count}/{len(report) + len(report.errors)}")
    if args.json:
        if args.ell is not None:
            chunks = [json.dumps(certificate_to_dict(report.certificates[0]), sort_keys=True), "\n"]
        else:
            chunks = _json_lines(map(certificate_to_dict, report))
        _write_json(args.json, chunks)
    print(f"certify took {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_OK if report.all_certified else EXIT_INCONCLUSIVE


def cmd_verify(args) -> int:
    """Re-check what `certify --json` wrote: one certificate or a list."""
    payload = _read_json(args.file)  # not JSON: a ValueError, exit 1
    docs = payload if isinstance(payload, list) else [payload]
    verified = sum(1 for doc in docs if verify_certificate(doc))
    print(f"verified {verified}/{len(docs)}")
    return EXIT_OK if 0 < verified == len(docs) else EXIT_WEIL


def cmd_invariants(_args) -> int:
    model = surface_model()
    inv = invariants(model)
    t = QPolynomial([0, 1])
    one = QPolynomial([1])
    factored_delta = 16 * t**10 * (t - one) ** 8 * (t + one) ** 8
    factored_j_num = 256 * QPolynomial([1, 0, -1, 0, 1]) ** 3
    factored_j_den = t**4 * (t - one) ** 2 * (t + one) ** 2
    if inv.delta != factored_delta:
        raise ArithmeticError("computed discriminant does not match its expected factorization")
    if inv.j != (factored_j_num, factored_j_den):
        raise ArithmeticError("computed j does not match its expected factorization")
    print("model: y^2 = x^3 + (t^5 - t)*x^2 + (t^8 - 2*t^6 + t^4)*x")
    print(f"c4 = {format_poly(inv.c4, 't')}")
    print(f"c6 = {format_poly(inv.c6, 't')}")
    print("Delta = 16*t^10*(t-1)^8*(t+1)^8")
    print("j = 256*(t^4-t^2+1)^3 / (t^4*(t-1)^2*(t+1)^2)")
    orders = pole_orders(inv.j)
    order_str = ", ".join(f"{place}:{orders[place]}" for place in (0, 1, -1, INF))
    print(f"pole orders of j: {order_str} (lcm {pole_order_lcm(inv.j)})")
    table = kodaira_table(model)
    table_str = ", ".join(f"{place}:{table[place]}" for place in (0, 1, -1, INF))
    print(f"kodaira: {table_str}")
    print("bad places: " + ", ".join(str(p) for p in bad_places(model)))
    return EXIT_OK


def cmd_group_check(args) -> int:
    ell = args.ell
    if not is_prime(ell) or ell == 2:
        raise ValueError(f"{ell} is not an odd prime")
    if ell > GROUP_CHECK_MAX_ELL:
        raise OutOfRangeError(f"group check limited to l <= {GROUP_CHECK_MAX_ELL} (closure cap)")
    t0 = time.perf_counter()
    gamma = complex_structure(ell)
    gamma_sq_ok = mat_mul(gamma, gamma, ell) == mat_neg(identity(), ell)
    print(f"gamma^2 == -I: {'ok' if gamma_sq_ok else 'FAIL'}")
    s, tgen = sl2_generators(ell)
    h_gens = [block_diagonal_pair(s, ell), block_diagonal_pair(tgen, ell)]
    h_order = group_order_bfs(h_gens, ell)
    g_order = group_order_bfs(h_gens + [gamma], ell)
    psl2 = ell * (ell * ell - 1) // 2
    print(f"orders: H={h_order} G={g_order} G/<gamma>={g_order // 4}")
    formula_ok = h_order == 2 * psl2 and g_order == 4 * psl2 and g_order // 4 == psl2
    print(f"order formulas: {'ok' if formula_ok else 'FAIL'}")
    iota = to_gaussian(gamma, ell)
    iota_ok = iota == GaussianMat(ell, (((0, 1), (0, 0)), ((0, 0), (0, 1))))
    print(f"gamma is i*I in the Gaussian model: {'ok' if iota_ok else 'FAIL'}")
    rng = random.Random(0)
    round_ok = True
    for _ in range(50):
        m = identity()
        for _ in range(rng.randint(3, 12)):
            m = mat_mul(m, rng.choice(h_gens + [gamma]), ell)
        gm = to_gaussian(m, ell)
        if gm.to_real() != m:
            round_ok = False
    print(f"Gaussian model roundtrip on 50 random elements: {'ok' if round_ok else 'FAIL'}")
    print(f"group check took {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_OK if (gamma_sq_ok and formula_ok and iota_ok and round_ok) else EXIT_WEIL


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psl2cert",
        description="L-polynomials of the fixed elliptic surface and "
        "PSL2(F_l) surjectivity certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lpoly = sub.add_parser("lpoly", help="print P_p and its shape")
    p_lpoly.add_argument("--p", type=int, required=True)
    p_lpoly.add_argument("--mode", choices=["fe", "full"], default="fe")
    p_lpoly.set_defaults(func=cmd_lpoly)

    p_scan = sub.add_parser("scan", help="CSV of shapes for all odd primes <= pmax")
    p_scan.add_argument("--pmax", type=int, default=100)
    p_scan.set_defaults(func=cmd_scan)

    p_cert = sub.add_parser("certify", help="emit surjectivity certificates")
    group = p_cert.add_mutually_exclusive_group(required=True)
    group.add_argument("--ell", type=int)
    group.add_argument("--ell-range", dest="ell_range")
    p_cert.add_argument("--witnesses", default="3,5")
    p_cert.add_argument("--json", default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_ver = sub.add_parser("verify", help="re-check a certify --json file")
    p_ver.add_argument("file")
    p_ver.set_defaults(func=cmd_verify)

    p_inv = sub.add_parser("invariants", help="c4, c6, Delta, j and Kodaira types")
    p_inv.set_defaults(func=cmd_invariants)

    p_grp = sub.add_parser("group-check", help="small-l group identities")
    p_grp.add_argument("--ell", type=int, required=True)
    p_grp.set_defaults(func=cmd_group_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ArithmeticError, ValueError, OSError) as exc:
        _err(str(exc))
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
