"""Regenerate perfbench/reference.json from the psl2cert sources in src/.

    python3 perfbench/make_reference.py

The file holds exact outputs for every input any seed can draw: `a` and `b`
of P_p as "num/den" for the shape-scan and full-recount primes, and per l
the verdict and the three eliminated_by witnesses for cert-roundtrip.  Run
it only when the program's outputs are meant to change.
"""

import json

import run
from worker import frac  # worker.py puts the checkout's src/ on sys.path

from psl2cert.certify import certify_range
from psl2cert.lpoly import MODE_FULL, lpolynomial


def table(entries: dict) -> str:
    """One entry per line, in numeric order, so that diffs stay readable."""
    rows = sorted(entries.items(), key=lambda kv: int(kv[0]))
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}"


def main():
    lpolys = {}
    for p in sorted(set(run.SCAN_SMALL + run.SCAN_LARGE + run.RECOUNT_FIXED + run.RECOUNT_SEEDED)):
        lp = lpolynomial(p)
        if p in run.RECOUNT_FIXED + run.RECOUNT_SEEDED and lpolynomial(p, MODE_FULL) != lp:
            raise SystemExit(f"FE and Full mode disagree at p={p}")
        lpolys[str(p)] = [frac(lp.a), frac(lp.b)]
    report = certify_range(run.CERT_STARTS[0], run.CERT_LIMIT, run.CERT_WITNESSES)
    if report.errors:
        raise SystemExit(f"certify_range errors: {report.errors}")
    certs = {
        str(c.ell): [c.verdict, c.borel.eliminated_by, c.cartan.eliminated_by, c.exceptional.eliminated_by]
        for c in report
    }
    run.REFERENCE.write_text(f'{{\n"cert": {table(certs)},\n"lpoly": {table(lpolys)}\n}}\n')
    second = [ell for ell, v in certs.items() if run.CERT_WITNESSES[1] in v[1:]]
    print(f"{len(lpolys)} L-polynomials, {len(certs)} certificates; second witness at {second}")


if __name__ == "__main__":
    main()
