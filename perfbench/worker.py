"""Run one benchmark job in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --trace 0|1 < inputs.json

The job calls psl2cert from the checkout's src/ on the generated inputs read
from stdin, in one thread, each call waiting for the previous one.  It
writes one JSON object to stdout: the clock reading when `import psl2cert`
finished, the job's wall time, peak resident memory and raw outputs, and
with --trace 1 the per-layer self times and counters of the span recorder.
Outputs are checked by run.py, not here.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import psl2cert  # noqa: E402

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from psl2cert import gf, lpoly, ortho, tensor  # noqa: E402

from spans import Recorder  # noqa: E402

# psl2cert.certify is the function re-exported by the package, not the module
certify = importlib.import_module("psl2cert.certify")


def frac(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def job_lpolys(primes, mode):
    out = {}
    for p in primes:
        try:
            lp = lpoly.lpolynomial(p, mode)
            if mode == lpoly.MODE_FE:
                lpoly.shape_classify(lp)
            out[str(p)] = [frac(lp.a), frac(lp.b)]
        except Exception as exc:  # counted as a failed operation by run.py
            out[str(p)] = error(exc)
    return out


def shape_scan(inputs):
    return job_lpolys(inputs["primes"], lpoly.MODE_FE)


def full_recount(inputs):
    return job_lpolys(inputs["primes"], lpoly.MODE_FULL)


def cert_roundtrip(inputs):
    report = certify.certify_range(inputs["ell_min"], inputs["ell_max"], tuple(inputs["witnesses"]))
    certs = {}
    for cert in report:
        try:
            text = json.dumps(certify.certificate_to_dict(cert), sort_keys=True)
            verified = certify.verify_certificate(json.loads(text))
            branches = (cert.borel, cert.cartan, cert.exceptional)
            certs[str(cert.ell)] = [cert.verdict, *(b.eliminated_by for b in branches), verified, len(text)]
        except Exception as exc:  # counted as a failed operation by run.py
            certs[str(cert.ell)] = error(exc)
    return {"certs": certs, "range_errors": [ell for ell, _ in report.errors]}


def ortho_factor(inputs):
    factorizations = []
    for ell, mat in inputs["matrices"]:
        try:
            m = ortho.OrthMatrix(tuple(map(tuple, mat)), tensor.tensor_form(ell))
            vectors = ortho.cartan_dieudonne(m)
            spinor = ortho.spinor_norm_by_reflections(m)
            factorizations.append([vectors, spinor.value])
        except Exception as exc:  # counted as a failed operation by run.py
            factorizations.append(error(exc))
    closures = []
    for ell in inputs["closures"]:
        s, t = tensor.sl2_generators(ell)
        gens = [tensor.block_diagonal_pair(s, ell), tensor.block_diagonal_pair(t, ell)]
        for extra in ([], [tensor.complex_structure(ell)]):
            try:
                closures.append(tensor.group_order_bfs(gens + extra, ell))
            except Exception as exc:  # counted as a failed operation by run.py
                closures.append(error(exc))
    return {"factorizations": factorizations, "closures": closures}


JOBS = {
    "shape-scan": shape_scan,
    "full-recount": full_recount,
    "cert-roundtrip": cert_roundtrip,
    "ortho-factor": ortho_factor,
}


def instrument(rec: Recorder) -> set:
    """Wrap the package's layer boundaries; returns the set of distinct
    witness inputs, which the caller turns into the reuse ratio."""

    def count_trace_sum(c, args, result):
        q = args[0] ** args[1]
        c["lpoly.trace_sum_calls"] += 1
        c["lpoly.fibers"] += q - 3  # the three singular fibers are skipped
        c["lpoly.table_ops"] += (q - 3) * q  # one length-q table pass per fiber

    witness_inputs = set()

    def count_witness(c, args, result):
        c["certify.witness_calls"] += 1
        lp = args[0]
        witness_inputs.add((lp.p, lp.a, lp.b))

    def count_cd(c, args, result):
        c["ortho.cd_calls"] += 1
        c["ortho.reflections"] += len(result)

    def count_bfs(c, args, result):
        c["tensor.bfs_elements"] += result

    rec.wrap(lpoly, "fq_ctx", "gf.fq_ctx")
    rec.wrap(lpoly, "trace_sum", "lpoly.trace_sum", count_trace_sum)
    rec.wrap(lpoly, "lpolynomial", "lpoly.assemble")
    rec.wrap(lpoly, "shape_classify", "lpoly.shape")
    rec.wrap(certify, "lpolynomial", "lpoly.assemble")
    rec.wrap(certify, "nth_power_poly", "qpoly.nth_power_poly")
    rec.wrap(certify, "discriminant", "qpoly.discriminant")
    rec.wrap(certify.WitnessData, "from_lpolynomial", "certify.witness", count_witness, static=True)
    for name in ("eliminate_borel", "eliminate_cartan", "eliminate_exceptional"):
        rec.wrap(certify, name, "certify.eliminate")
    rec.wrap(certify, "certify_range", "certify.range")
    rec.wrap(certify, "certificate_to_dict", "certify.serialise")
    rec.wrap(certify, "verify_certificate", "certify.verify")
    rec.wrap(ortho, "cartan_dieudonne", "ortho.cd", count_cd)
    rec.wrap(ortho, "spinor_norm_by_reflections", "ortho.spinor")
    rec.wrap(tensor, "group_order_bfs", "tensor.bfs", count_bfs)

    # The table is memoised on its context, so only the first call per
    # context builds one; later calls are lookups left to their caller.
    chi_table = gf.FieldCtx.chi_table
    built = set()

    def traced_chi_table(ctx):
        if ctx in built:
            return chi_table(ctx)
        built.add(ctx)
        with rec.span("gf.chi_table"):
            table = chi_table(ctx)
        rec.counts["gf.chi_entries"] += ctx.q
        return table

    gf.FieldCtx.chi_table = traced_chi_table
    return witness_inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(JOBS), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path(psl2cert.__file__).resolve().is_relative_to(SRC):
        print(f"psl2cert imported from {psl2cert.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    inputs = json.load(sys.stdin)
    rec = Recorder() if args.trace else None
    witness_inputs = instrument(rec) if rec else None

    start = time.perf_counter()
    try:
        outputs = JOBS[args.workload](inputs)
    except Exception as exc:  # run.py counts every operation of the job as failed
        outputs = error(exc)
    wall = time.perf_counter() - start

    result = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
    }
    if rec:
        counts = dict(rec.counts)
        calls = counts.get("certify.witness_calls", 0)
        counts["certify.witness_reuse_ratio"] = len(witness_inputs) / calls if calls else 0.0
        spans = rec.summary()
        result.update(
            spans={key: spans[key] for key in ("self", "total", "longest")},
            counts=counts,
            unattributed_s=wall - spans["covered"],
        )
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
