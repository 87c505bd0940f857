"""In-memory spans around qprod's public entry points, and the per-layer metrics.

install() rebinds each traced function to a recording wrapper, both in the
module that defines it and in every qprod module that imported it by name, so
calls from inside the package are seen too.  A traced name that no longer
exists raises TracingError: a renamed kernel must never read as 0 calls.

A span is [name, start, end, parent index, extra].  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

FAMILIES = ("PROTOTYPE", "THM1", "COR2", "THM3_FULL", "THM3_COPRIME",
            "THM4", "THM5", "COR6", "EX", "JACKSON")
NUMTHEORY = ("cyclotomic", "totient", "radical", "mobius")


class TracingError(RuntimeError):
    """A traced entry point is missing, or a workload never reached one it must."""


def _family(identity: str) -> str:
    for prefix in ("EX", "JACKSON"):
        if identity.startswith(prefix):
            return prefix
    return identity


def _qpoch_args(args, result):
    a, q, ctx = args[:3]
    return a, q, ctx.dps


def _lhs_info(args, result):
    return _family(args[0].id), result[1].terms


def _rhs_info(args, result):
    return _family(args[0].id)


# (module, attribute path, span name, recorder of extra data)
TARGETS = (
    ("qprod.qfunc", "qpoch_inf_ctx", "qfunc.qpoch_inf_ctx", _qpoch_args),
    ("qprod.qfunc", "qgamma_ctx", "qfunc.qgamma_ctx", None),
    ("qprod.qfunc", "gamma_ctx", "qfunc.gamma_ctx", None),
    ("qprod.products", "eval_lhs_info", "products.lhs", _lhs_info),
    ("qprod.products", "eval_rhs_info", "products.rhs", _rhs_info),
    ("qprod.verify", "compare", "verify.compare", None),
    ("qprod.characters", "enumerate_characters", "characters.enumerate_characters", None),
    ("qprod.characters", "DirichletCharacter.value", "characters.value", None),
    *(("qprod.numtheory", f, f"numtheory.{f}", None) for f in NUMTHEORY),
)

# spans a workload must record, so a bypassed entry point cannot read as 0
REQUIRED = {
    "q_families": ("qfunc.qpoch_inf_ctx", "qfunc.qgamma_ctx", "qfunc.gamma_ctx",
                   "characters.enumerate_characters", "numtheory.cyclotomic"),
    "q_near_one": ("qfunc.qpoch_inf_ctx", "qfunc.qgamma_ctx", "characters.enumerate_characters"),
    "slow_products": ("qfunc.gamma_ctx", "characters.enumerate_characters"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[4] = extra(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        """Rebind every target, wherever qprod holds a reference to it."""
        for module_name, path, name, extra in targets:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = _lookup(owner, part, module_name, path)
            original = _lookup(owner, attr, module_name, path)
            wrapper = self.wrap(name, original, extra)
            setattr(owner, attr, wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "qprod" or mod_name.startswith("qprod."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def check_required(self, workload: str):
        seen = {s[0] for s in self.spans}
        missing = [n for n in REQUIRED[workload] if n not in seen]
        if missing:
            raise TracingError(f"{workload}: no calls recorded for {missing}; "
                               "the program no longer reaches these entry points")


def _lookup(owner, attr, module_name, path):
    try:
        return getattr(owner, attr)
    except AttributeError:
        raise TracingError(f"{module_name}.{path} no longer exists; "
                           "update perfbench/spans.py before reading per-layer numbers") from None


def qpoch_factors(a, q, dps) -> int:
    """Factors qpoch_inf_ctx multiplies: the smallest N with |a| q^N / (1-q) < 10^-dps.

    Computed from the arguments in floating point, not counted in the loop.
    """
    q = float(q.real)
    mag = float(abs(a))
    if mag == 0.0:
        return 0
    need = math.log(mag) - math.log1p(-q) + dps * math.log(10)
    return max(0, math.floor(need / -math.log(q)) + 1)


def layer_metrics(spans) -> dict:
    """Per-layer counts (exact) and times (seconds) from one traced pass."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict = {}
    self_s: dict = {}
    fam_lhs = {f: 0.0 for f in FAMILIES}
    fam_rhs = {f: 0.0 for f in FAMILIES}
    fam_terms = {f: 0 for f in FAMILIES}
    factors = 0
    qq_calls = 0
    qq_pairs = set()
    for i, (name, start, end, parent, extra) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        if name == "qfunc.qpoch_inf_ctx":
            a, q, dps = extra
            factors += qpoch_factors(a, q, dps)
            if a == q:
                qq_calls += 1
                qq_pairs.add((q, dps))
        elif name == "products.lhs":
            fam_lhs[extra[0]] += dur
            fam_terms[extra[0]] += extra[1]
        elif name == "products.rhs":
            fam_rhs[extra] += dur

    m: dict = {}
    qpoch_self = self_s.get("qfunc.qpoch_inf_ctx", 0.0)
    m["qfunc.qpoch_inf_ctx.calls"] = calls.get("qfunc.qpoch_inf_ctx", 0)
    m["qfunc.qpoch_inf_ctx.self_s"] = qpoch_self
    m["qfunc.qpoch_inf_ctx.factors"] = factors
    m["qfunc.qpoch_inf_ctx.qq_calls"] = qq_calls
    m["qfunc.qpoch_inf_ctx.qq_distinct"] = len(qq_pairs)
    m["qfunc.qpoch_inf_ctx.qq_reuse_share"] = (qq_calls - len(qq_pairs)) / qq_calls if qq_calls else 0.0
    m["qfunc.ns_per_factor"] = qpoch_self * 1e9 / factors if factors else 0.0
    for fn in ("qgamma_ctx", "gamma_ctx"):
        m[f"qfunc.{fn}.calls"] = calls.get(f"qfunc.{fn}", 0)
        m[f"qfunc.{fn}.self_s"] = self_s.get(f"qfunc.{fn}", 0.0)
    for f in FAMILIES:
        m[f"products.{f}.lhs_s"] = fam_lhs[f]
        m[f"products.{f}.rhs_s"] = fam_rhs[f]
        m[f"products.{f}.lhs_terms"] = fam_terms[f]
    m["products.lhs_self_s"] = self_s.get("products.lhs", 0.0)
    m["products.rhs_self_s"] = self_s.get("products.rhs", 0.0)
    m["verify.compare.self_s"] = self_s.get("verify.compare", 0.0)
    for name in ("characters.enumerate_characters", "characters.value",
                 *(f"numtheory.{f}" for f in NUMTHEORY)):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    return m
