"""Per-layer spans around ptfcount's functions, installed from outside.

Each traced function is replaced by a wrapper at every name it is looked up
by: its home module, every package module that imported it with
``from .x import f``, and the package namespace the benchmark calls through.
A wrapper knows the module it was installed in (its call site), so calls can
be counted per caller.  Methods are wrapped on their class.

A span's self time is its duration minus the time its child spans cover.
Functions left unwrapped (small helpers such as tensors.inner or
Polynomial.add, called too often to wrap cheaply) count towards the self
time of the nearest wrapped caller.  Spans are aggregated in memory as they
close; nothing inside the package changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "ptfcount"

# Work counts taken from a span's arguments or result.


def _linearize(work, args, out):
    work["multilinear.linearize.out_terms"] += len(out.poly.coeffs)


def _regularize(work, args, out):
    work["decomposition.inner_polys"] += len(out.inner)


def _grid(work, args, out):
    work["gaussian.grid_calls"] += 1
    work["gaussian.integrate.points"] += out[1]["points"]


def _qmc(work, args, out):
    work["gaussian.qmc_calls"] += 1
    work["gaussian.integrate.points"] += out[1]["points"]


def _evaluate(work, args, out):
    work["polynomials.evaluate.point_terms"] += len(out) * len(args[0].coeffs)


def _tree(work, args, out):
    # every node is a leaf or has two children
    work["boolean.nodes"] += 2 * len(out.leaves) - 1
    for leaf in out.leaves:
        work["boolean.leaves." + leaf.kind] += 1


def _enumerate(work, args, out):
    work["boolean.enumerate.points"] += 1 << len(args[0].support_vars())


def _moment(work, args, out):
    work["moments.thresholds"] += out.thresholds


# module -> {function or Class.method: work hook or None}
SPANS = {
    "polynomials": {"Polynomial.evaluate": _evaluate,
                    "Polynomial.restrict": None,
                    "Polynomial.mul": None,
                    "Polynomial.hypercube_reduce": None},
    "multilinear": {"linearize": _linearize},
    "tensors": {"lambda_max": None, "contract_sym": None},
    "chaos": {"to_chaos": None, "clt_error_certificate": None},
    "decomposition": {"regularize_poly": _regularize,
                      "multi_regularize_many_wieners": None,
                      "multi_regularize_one_wiener": None,
                      "decompose_one_wiener": None,
                      "split_one_wiener": None,
                      "derandomized_partition": None,
                      "partition_objective": None,
                      "reconstruct": None},
    "gaussian": {"count_gaussian": None,
                 "build_covariance": None,
                 "round_psd": None,
                 "integrate_gaussian": _grid,
                 "_qmc_sharp": _qmc},
    "boolean": {"count_boolean": None,
                "construct_tree": _tree,
                "influences": None,
                "_enumerate_support": _enumerate},
    "moments": {"absolute_moment": _moment, "exact_raw_moment": None},
}

LEAF_KINDS = ("enumerated", "decided", "regular", "fail", "constant")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.site_calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()
        self._child = [0.0]      # time covered by child spans, per open span
        self._undo: list = []

    def _wrap(self, name: str, site: str, fn, hook):
        clock = time.perf_counter
        child = self._child

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                self.self_s[name] += dt - inner
                self.total_s[name] += dt
                self.calls[name] += 1
                self.site_calls[site, name] += 1
            if hook is not None:
                hook(self.work, args, out)
            return out
        return span

    def install(self) -> None:
        mods = {name: m for name, m in list(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for layer, funcs in SPANS.items():
            home = mods[f"{PACKAGE}.{layer}"]
            for attr, hook in funcs.items():
                name = f"{layer}.{attr.split('.')[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, layer, orig, hook))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(home, attr)
                for mod_name, mod in mods.items():
                    site = mod_name.rsplit(".", 1)[-1]
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key,
                                    self._wrap(name, site, orig, hook))
                            self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in SPANS}
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c, s, w = self.calls, self.self_s, self.work

        def count(name, value):
            out[name] = (int(value), "count")

        def secs(name, *spans):
            out[name] = (float(sum(s[x] for x in spans)), "s")

        out: dict[str, tuple[float, str]] = {}
        count("multilinear.linearize.calls", c["multilinear.linearize"])
        secs("multilinear.linearize.self_s", "multilinear.linearize")
        count("multilinear.linearize.out_terms",
              w["multilinear.linearize.out_terms"])
        count("decomposition.derandomized_partition.calls",
              c["decomposition.derandomized_partition"])
        secs("decomposition.derandomized_partition.self_s",
             "decomposition.derandomized_partition")
        secs("decomposition.partition_objective.self_s",
             "decomposition.partition_objective")
        count("decomposition.split_one_wiener.calls",
              c["decomposition.split_one_wiener"])
        secs("decomposition.reconstruct.self_s", "decomposition.reconstruct")
        secs("decomposition.regularize_poly.self_s",
             "decomposition.regularize_poly")
        count("decomposition.inner_polys", w["decomposition.inner_polys"])
        count("tensors.lambda_max.calls", c["tensors.lambda_max"])
        secs("tensors.lambda_max.self_s", "tensors.lambda_max")
        secs("tensors.contract_sym.self_s", "tensors.contract_sym")
        secs("chaos.to_chaos.self_s", "chaos.to_chaos")
        count("chaos.clt_error_certificate.calls",
              c["chaos.clt_error_certificate"])
        secs("chaos.clt_error_certificate.self_s",
             "chaos.clt_error_certificate")
        secs("gaussian.integrate.self_s", "gaussian.integrate_gaussian",
             "gaussian._qmc_sharp")
        count("gaussian.integrate.points", w["gaussian.integrate.points"])
        count("gaussian.grid_calls", w["gaussian.grid_calls"])
        count("gaussian.qmc_calls", w["gaussian.qmc_calls"])
        secs("gaussian.covariance.self_s", "gaussian.build_covariance",
             "gaussian.round_psd")
        count("polynomials.evaluate.calls", c["polynomials.evaluate"])
        secs("polynomials.evaluate.self_s", "polynomials.evaluate")
        count("polynomials.evaluate.point_terms",
              w["polynomials.evaluate.point_terms"])
        count("polynomials.restrict.calls", c["polynomials.restrict"])
        secs("polynomials.restrict.self_s", "polynomials.restrict")
        secs("boolean.construct_tree.self_s", "boolean.construct_tree")
        secs("boolean.influences.self_s", "boolean.influences")
        count("boolean.nodes", w["boolean.nodes"])
        for kind in LEAF_KINDS:
            count(f"boolean.leaves.{kind}", w[f"boolean.leaves.{kind}"])
        count("boolean.enumerate.points", w["boolean.enumerate.points"])
        secs("boolean.enumerate.self_s", "boolean._enumerate_support")
        count("moments.thresholds", w["moments.thresholds"])
        count("moments.count_boolean.calls",
              self.site_calls["moments", "boolean.count_boolean"])
        secs("moments.exact_raw_moment.self_s", "moments.exact_raw_moment")
        for layer, total in self.layer_self_s().items():
            out[f"layer.{layer}.self_s"] = (total, "s")
        return out

    def table(self) -> list[dict]:
        """Every span name with its calls, self and total time."""
        return [{"span": name, "calls": self.calls[name],
                 "self_s": self.self_s[name], "total_s": self.total_s[name]}
                for name in sorted(self.calls)]
