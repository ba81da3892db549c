"""Command-line frontend: polynomial files in, JSON reports out.

Polynomial file format: one term per line, `<coeff> <i1> <i2> ... <ik>`
with 1-based variable indices (an empty index list is a constant term);
`#` starts a comment.  Terms with the same index multiset are merged.

Exit codes: 0 success, 2 input error, 3 a resource cap was hit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .polynomials import Polynomial
from .chaos import to_chaos, clt_error_certificate
from .tensors import lambda_max, eigenregularity
from .decomposition import regularize_poly
from .gaussian import count_gaussian
from .boolean import count_boolean
from .moments import absolute_moment, exact_raw_moment
from .oracles import enumerate_boolean, mc_gaussian

DEGREE_CAP = 8


class InputError(ValueError):
    pass


def parse_polynomial(text: str) -> Polynomial:
    coeffs: dict[tuple[int, ...], float] = {}
    dim = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            c = float(tokens[0])
        except ValueError:
            raise InputError(f"line {lineno}: bad coefficient {tokens[0]!r}")
        idx = []
        for tok in tokens[1:]:
            try:
                i = int(tok)
            except ValueError:
                raise InputError(f"line {lineno}: bad index {tok!r}")
            if i < 1:
                raise InputError(f"line {lineno}: index {i} < 1")
            idx.append(i)
        if len(idx) > DEGREE_CAP:
            raise InputError(f"line {lineno}: degree {len(idx)} exceeds "
                             f"cap {DEGREE_CAP}")
        key = tuple(sorted(idx))
        coeffs[key] = coeffs.get(key, 0.0) + c
        if not math.isfinite(coeffs[key]):
            raise InputError(f"line {lineno}: non-finite coefficient")
        if idx:
            dim = max(dim, max(idx))
    coeffs = {k: v for k, v in coeffs.items() if v != 0.0}
    return Polynomial(dim, coeffs)


def serialize_polynomial(p: Polynomial) -> str:
    lines = []
    for key in sorted(p.coeffs, key=lambda k: (len(k), k)):
        parts = [repr(p.coeffs[key])] + [str(i) for i in key]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _load(path: str) -> Polynomial:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return parse_polynomial(text)


def _schedule_from(path: str | None) -> list[float] | None:
    if path is None:
        return None
    try:
        vals = [float(t) for t in Path(path).read_text().split()]
    except (OSError, ValueError) as exc:
        raise InputError(f"bad schedule file {path}: {exc}")
    if (not vals or not all(math.isfinite(v) and v > 0 for v in vals)
            or any(a < b for a, b in zip(vals, vals[1:]))):
        raise InputError("schedule must be a non-empty list of finite, "
                         "positive, non-increasing values")
    return vals


def _number(kind, ok, what: str):
    """argparse type: the flag's text read as `kind`, refused (exit 2)
    unless ok(value); NaN fails every comparison, so it is refused too."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r}: must be {what}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid <name> value"
    return parse


_EPS = _number(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_POSITIVE = _number(float, lambda v: 0.0 < v < math.inf, "finite and > 0")
_NONNEGATIVE = _number(float, lambda v: 0.0 <= v < math.inf,
                       "finite and >= 0")
_COUNT = _number(int, lambda v: v >= 1, ">= 1")
_SEED = _number(int, lambda v: v >= 0, ">= 0")


# argparse destinations that are not flags: the subcommand, its handler and
# its positional arguments
_NOT_FLAGS = ("command", "fn", "poly", "polys", "dir")


def _params(args) -> dict:
    """The subcommand's flags, as parsed."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_FLAGS}


def _json_default(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return float(obj)


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2, default=_json_default)
    sys.stdout.write("\n")


def _cmd_count_gaussian(args) -> int:
    p = _load(args.poly)
    res = count_gaussian(p, args.eps)
    _emit({"command": "count-gaussian", "value": res.value,
           "method": res.method, "budget": res.budget,
           "diagnostics": res.diagnostics, "params": _params(args)})
    return 0


def _cmd_count_boolean(args) -> int:
    p = _load(args.poly)
    res = count_boolean(p, args.eps)
    _emit({"command": "count-boolean", "value": res.value,
           "method": res.method, "budget": res.budget,
           "diagnostics": res.diagnostics, "params": _params(args)})
    return 0


def _cmd_decompose(args) -> int:
    p = _load(args.poly)
    chaos = to_chaos(p)
    var = chaos.variance()
    if var <= 0.0:
        raise InputError("constant polynomial has no decomposition")
    dec = regularize_poly(chaos.scale(1.0 / math.sqrt(var)),
                          args.tau if args.tau is not None else args.eps,
                          _schedule_from(args.schedule))
    _emit({"command": "decompose",
           "num_inner": len(dec.inner),
           "inner_levels": [ip.level for ip in dec.inner],
           "eigenregularities": dec.eigen,
           "var_gap": dec.var_gap,
           "outer_terms": len(dec.h.coeffs),
           "diagnostics": dec.diagnostics,
           "params": _params(args)})
    return 0


def _cmd_eigreg(args) -> int:
    p = _load(args.poly)
    chaos = to_chaos(p)
    levels = {}
    for q in range(2, chaos.degree() + 1):
        f = chaos.level(q)
        if not f.coeffs:
            continue
        rep = lambda_max(f)
        levels[str(q)] = {"lambda_max": rep.value,
                          "eigenregularity": eigenregularity(f),
                          "split": rep.split_at}
    _emit({"command": "eigreg", "levels": levels,
           "variance": chaos.variance(), "params": _params(args)})
    return 0


def _cmd_clt_bound(args) -> int:
    polys = [to_chaos(_load(path)) for path in args.polys]
    cert = clt_error_certificate(polys, alpha_dd=args.alpha_dd)
    _emit({"command": "clt-bound", "bound": cert.bound,
           "alpha_dd": cert.alpha_dd,
           "y_variances": cert.y_variances, "params": _params(args)})
    return 0


def _cmd_moment(args) -> int:
    p = _load(args.poly)
    est = absolute_moment(p, args.k, args.eps)
    report = {"command": "moment", "k": args.k, "value": est.value,
              "lower": est.lower, "upper": est.upper,
              "thresholds": est.thresholds, "params": _params(args)}
    if args.k % 2 == 0:
        report["exact_raw"] = exact_raw_moment(p, args.k)
    _emit(report)
    return 0


def _cmd_verify(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise InputError(f"{args.dir} is not a directory")
    entries = []
    ok = True
    for path in sorted(directory.glob("*.poly")):
        p = _load(str(path))
        entry: dict = {"file": path.name, "n": p.dim, "degree": p.degree()}
        gres = count_gaussian(p, args.eps)
        mc = mc_gaussian(p, args.samples, seed=args.seed)
        entry["gaussian"] = {"engine": gres.value, "mc": mc.value,
                             "mc_stderr": mc.stderr,
                             "err": abs(gres.value - mc.value)}
        passed = entry["gaussian"]["err"] <= args.eps + 4.0 * mc.stderr
        if p.dim <= 24:
            bres = count_boolean(p, args.eps)
            truth = float(enumerate_boolean(p))
            entry["boolean"] = {"engine": bres.value, "exact": truth,
                                "err": abs(bres.value - truth)}
            passed = passed and entry["boolean"]["err"] <= args.eps
        entry["pass"] = passed
        ok = ok and passed
        entries.append(entry)
    _emit({"command": "verify", "eps": args.eps, "entries": entries,
           "pass": ok, "params": _params(args)})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ptfcount",
        description="Deterministic approximate counting for polynomial "
                    "threshold functions.")
    sub = ap.add_subparsers(dest="command", required=True)

    def eps(sp):
        sp.add_argument("--eps", type=_EPS, default=0.05)

    sp = sub.add_parser("count-gaussian")
    eps(sp); sp.add_argument("poly")
    sp.set_defaults(fn=_cmd_count_gaussian)

    sp = sub.add_parser("count-boolean")
    eps(sp); sp.add_argument("poly")
    sp.set_defaults(fn=_cmd_count_boolean)

    sp = sub.add_parser("decompose")
    eps(sp)
    sp.add_argument("--tau", type=_POSITIVE, default=None,
                    help="variance the decomposition may discard "
                         "(default: eps)")
    sp.add_argument("--schedule", default=None,
                    help="file with an explicit non-increasing eta list")
    sp.add_argument("poly")
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("eigreg")
    sp.add_argument("poly")
    sp.set_defaults(fn=_cmd_eigreg)

    sp = sub.add_parser("clt-bound")
    sp.add_argument("--alpha-dd", type=_NONNEGATIVE, default=1.0)
    sp.add_argument("polys", nargs="+")
    sp.set_defaults(fn=_cmd_clt_bound)

    sp = sub.add_parser("moment")
    eps(sp)
    sp.add_argument("--k", type=_COUNT, default=1)
    sp.add_argument("poly")
    sp.set_defaults(fn=_cmd_moment)

    sp = sub.add_parser("verify")
    eps(sp)
    sp.add_argument("--samples", type=_COUNT, default=200_000)
    sp.add_argument("--seed", type=_SEED, default=0,
                    help="seed of the Monte Carlo oracle")
    sp.add_argument("dir")
    sp.set_defaults(fn=_cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
