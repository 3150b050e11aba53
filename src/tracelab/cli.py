"""Command-line front end: trace, classify, fibers, epsilon, scan, verify.

Exit codes: 0 success, 1 a verify suite detected an inconsistency, 2 usage
error (bad flags or values, an unparsable word or one too large to trace), 141
when the reader closes standard output early, as ``| head`` does.  All
outputs are deterministic given the flags; JSON is used for verdicts and
reports, CSV for bulk tables.  No command reads or writes a file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .decompose import (
    CompositionWitness,
    GlobalVerdict,
    PrimeVerdict,
    classify_global,
    dickson_decompose,
)
from .experiments import genericity_csv, genericity_scan
from .sl2 import (
    equidist_epsilon,
    fiber_distribution,
    psl_fiber_distribution,
)
from .trace import syllable_polys, trace_poly
from .tripoly import TriPoly
from .unipoly import UniPoly, chebyshev_v, dickson, dickson_apply
from .words import (
    CONSTRAINTS,
    DegenerateWordError,
    WordSyntaxError,
    _exponent_sums,
    canonicalize,
    parse,
    stats,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tracelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="trace polynomial of a word")
    p_trace.add_argument("word")
    p_trace.add_argument("--json", action="store_true")

    p_cls = sub.add_parser("classify", help="compositeness verdicts")
    p_cls.add_argument("word")
    p_cls.add_argument("--p-max", type=int, default=13)
    p_cls.add_argument("--json", action="store_true")

    p_fib = sub.add_parser("fibers", help="fiber distribution CSV")
    p_fib.add_argument("word")
    p_fib.add_argument("--q", type=int, required=True)
    p_fib.add_argument("--psl", action="store_true")

    p_eps = sub.add_parser("epsilon", help="minimal epsilon report")
    p_eps.add_argument("word")
    p_eps.add_argument("--q", type=int)
    p_eps.add_argument("--q-list", type=str, default=None)
    p_eps.add_argument("--psl", action="store_true")
    p_eps.add_argument("--json", action="store_true")

    p_scan = sub.add_parser("scan", help="genericity scan CSV")
    p_scan.add_argument("--n-max", type=int, required=True)
    p_scan.add_argument("--samples", type=int, default=None)
    p_scan.add_argument("--seed", type=int, default=None)
    p_scan.add_argument("--constraint", choices=CONSTRAINTS, default="any")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "--suite",
        choices=["identities", "dickson", "fibers", "all"],
        default="all",
    )
    return parser


def _witness_dict(w: Optional[CompositionWitness]) -> Optional[dict]:
    if w is None:
        return None
    return {
        "outer": w.outer.render("z"),
        "inner": w.inner.render(),
        "dickson_index": w.dickson_index,
    }


def _verdict_dict(v: PrimeVerdict) -> dict:
    return {
        "p": v.p,
        "class": v.verdict,
        "witness": _witness_dict(v.witness),
        "frobenius_k": v.frobenius_k,
    }


def _global_dict(g: GlobalVerdict) -> dict:
    return {
        "word": str(g.word),
        "rational": {
            "class": g.rational_class,
            "witness": _witness_dict(g.rational_witness),
        },
        "per_prime": [_verdict_dict(v) for v in g.per_prime],
        "conclusion": g.conclusion,
        "certified_to": g.certified_to,
        "bad_prime": g.bad_prime,
    }


def cmd_trace(args, out) -> int:
    result = trace_poly(parse(args.word))
    canon, r = result.word, result.u_degree
    a, b, _, _ = _exponent_sums(canon.blocks)
    if args.json:
        print(
            json.dumps({"f": result.f.render(), "r": r, "A": a, "B": b}),
            file=out,
        )
    else:
        print(f"word: {args.word}", file=out)
        print(f"canonical: {canon}", file=out)
        print(f"r: {r}  A: {a}  B: {b}  length: {canon.length}", file=out)
        print(f"f: {result.f.render()}", file=out)
    return 0


def cmd_classify(args, out) -> int:
    w = parse(args.word)
    try:
        payload = _global_dict(classify_global(w, args.p_max))
    except DegenerateWordError:
        payload = {
            "word": str(w),
            "degenerate": True,
            "f": trace_poly(w).f.render(),
            "note": "single-generator word; the trace map is a one-variable "
            "polynomial and equidistribution is decided by its shape",
        }
    print(json.dumps(payload) if args.json else _pretty(payload), file=out)
    return 0


def _pretty(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def cmd_fibers(args, out) -> int:
    w = parse(args.word)
    report = (
        psl_fiber_distribution(w, args.q) if args.psl else fiber_distribution(w, args.q)
    )
    out.write(report.to_csv())
    return 0


def cmd_epsilon(args, out) -> int:
    w = parse(args.word)
    qs = [] if args.q is None else [args.q]
    if args.q_list is not None:
        qs.extend(int(tok) for tok in args.q_list.split(",") if tok)
    if not qs:
        raise ValueError(
            "epsilon requires --q or --q-list" if args.q_list is None else "--q-list names no q"
        )
    reports = []
    for q in qs:
        base = (
            psl_fiber_distribution(w, q) if args.psl else fiber_distribution(w, q)
        )
        reports.append(equidist_epsilon(base).to_json_dict())
    payload = reports[0] if len(reports) == 1 else reports
    print(json.dumps(payload, indent=None if args.json else 2), file=out)
    return 0


def cmd_scan(args, out) -> int:
    if args.samples is None and args.seed is not None:
        raise ValueError("--seed applies to sampled scans only; add --samples")
    if args.samples is None:
        reports = genericity_scan(args.n_max, constraint=args.constraint)
    else:
        reports = genericity_scan(
            args.n_max,
            mode="sampled",
            samples=args.samples,
            seed=args.seed or 0,
            constraint=args.constraint,
        )
    out.write(genericity_csv(reports))
    return 0


# ---------------------------------------------------------------------------
# verify suites


def _suite_identities() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def f_of(text: str) -> TriPoly:
        return trace_poly(parse(text)).f

    s = TriPoly.var("s")
    u = TriPoly.var("u")
    t = TriPoly.var("t")
    two = TriPoly.const(2)
    expect = {
        "xy": u,
        "xY": s * t - u,
        "xxy": s * u - t,
        "xyXY": u * u - s * t * u + s * s + t * t - two,
    }
    for text, f_ref in expect.items():
        ok = f_of(text) == f_ref
        checks.append((f"closed form {text}", ok, f_of(text).render()))

    # the four one-variable specializations pin f on Dickson curves
    for text in ("xy", "xxyy", "xYxxY", "xyxYY"):
        w = parse(text)
        st = stats(canonicalize(w)[0])
        f = trace_poly(w).f
        cases = [
            ((s, s, two), st.A, s),
            ((two, t, t), st.B, t),
            ((s, two, s), st.A - st.B, s),
            ((s, s * s - two, s), st.A + st.B, s),
        ]
        ok_all = all(
            f.substitute(sv, uv, tv) == dickson_apply(idx, var)
            for (sv, uv, tv), idx, var in cases
        )
        checks.append((f"specializations {text}", ok_all, str(st)))

    # single-syllable structure: f = u*g + h with the degree contract
    for a, b in ((1, 1), (2, 3), (-3, 2)):
        try:
            syllable_polys(a, b)
            checks.append((f"syllable ({a},{b}) structure", True, ""))
        except RuntimeError as exc:
            checks.append((f"syllable ({a},{b}) structure", False, str(exc)))
    return checks


def _suite_dickson() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    ok = True
    for n in range(0, 9):
        for m in range(0, 9):
            if dickson(n * m, None) != dickson(n, None).compose(dickson(m, None)):
                ok = False
    checks.append(("D_{nm} = D_n o D_m for n,m <= 8", ok, ""))
    ok = True
    for n in range(0, 17):
        if dickson(n, None) != chebyshev_v(n + 1, None) - chebyshev_v(n - 1, None):
            ok = False
    checks.append(("D_n = V_{n+1} - V_{n-1} for n <= 16", ok, ""))
    ok = True
    for p in (2, 3, 5, 7):
        zp = UniPoly([0, 1], p)
        if dickson(p, p) != zp**p:
            ok = False
    checks.append(("D_p = z^p mod p", ok, ""))
    return checks


def _suite_fibers() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    for q in (5, 7):
        rep = fiber_distribution(parse("xy"), q)
        eps = equidist_epsilon(rep).epsilon
        checks.append((f"xy fibers uniform at q={q}", eps == 0, str(eps)))
    rep = fiber_distribution(parse("xyXY"), 5)
    total = sum(r.class_size * r.fiber_per_element for r in rep.rows)
    checks.append(
        ("fiber partition at q=5", total == rep.total_pairs, str(total))
    )
    f2 = trace_poly(parse("xyxy")).f
    checks.append(
        (
            "xyxy is a Dickson square",
            dickson_decompose(f2, 2) is not None,
            f2.render(),
        )
    )
    return checks


_SUITES = {
    "identities": _suite_identities,
    "dickson": _suite_dickson,
    "fibers": _suite_fibers,
}


def cmd_verify(args, out) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        for label, ok, detail in _SUITES[name]():
            status = "PASS" if ok else "FAIL"
            suffix = f"  [{detail}]" if (detail and not ok) else ""
            print(f"{status}  {name}: {label}{suffix}", file=out)
            failures += 0 if ok else 1
    print(
        f"{'OK' if failures == 0 else 'INCONSISTENT'}: {failures} failure(s)",
        file=out,
    )
    return 0 if failures == 0 else 1


_COMMANDS = {
    "trace": cmd_trace,
    "classify": cmd_classify,
    "fibers": cmd_fibers,
    "epsilon": cmd_epsilon,
    "scan": cmd_scan,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        code = _COMMANDS[args.command](args, out)
        out.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except WordSyntaxError as exc:
        print(f"tracelab: syntax error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, DegenerateWordError) as exc:
        print(f"tracelab: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed the output early, as `| head` does
        if out is sys.stdout:  # what is still buffered goes nowhere at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
