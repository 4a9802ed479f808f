"""Layer spans recorded from outside closurelab.

`Tracer.install` replaces the module-level functions of each layer
(every binding of them across the package, so `from .spaces import
closure` aliases are caught too) with wrappers that record one span per
call: role, start, end, parent span, and one counted amount. Spans stay
in memory; `layer_metrics` turns them into the per-layer metrics. A
layer whose function is missing (renamed or removed) reads 0 and is
listed as absent with the reason instead of failing the run.

Only a traced pass imports this module.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from array import array
from time import perf_counter

PACKAGE = "closurelab"

THEOREM_NAMES = (
    "negation_lemma",
    "nand_reduction",
    "nor_reduction",
    "xnor_group",
    "xor_group",
    "topology",
    "material_conditional",
    "tilde_preconditions",
    "imp_implies_or",
    "complement_count_flip",
)

#: role -> targets as "module:attribute" (or "module:Class.method").
#: A target with "@m1,m2" is wrapped only where modules m1, m2 bind it;
#: a plain target is wrapped at every remaining binding in the package.
ROLES = {
    "enumeration.classify": (
        "enumeration:_image_tables",
        "enumeration:_closed_mask_coded",
        "enumeration:_closed_mask_direct",
        "enumeration:_neg_closed",
    ),
    "witnesses.gate": ("spaces:is_closed@witnesses,basis",),
    "spaces.is_closed": ("spaces:is_closed",),
    "bitcore.build": ("bitcore:BinaryMatrix.from_values",),
    "bitcore.parse": ("bitcore:parse_any", "bitcore:parse_matrix", "bitcore:parse_family"),
    "spaces.closure": ("spaces:closure",),
    "spaces.psi": ("spaces:psi",),
    "basis.compute_basis": ("basis:compute_basis",),
    "basis.decompose": ("basis:decompose",),
    "operators.tilde_matrix": ("operators:tilde_matrix",),
    "equivalence.canonicalize": ("equivalence:canonicalize",),
    "enumeration.chunk": ("enumeration:_run_chunk",),
    "enumeration.merge": ("enumeration:_merge",),
    "enumeration.summary_json": ("enumeration:CampaignSummary.to_json",),
    "cli.emit": ("cli:_emit", "cli:_emit_json", "cli:_emit_kv"),
}
#: The theorem runners are the (name, runner) pairs this function returns.
THEOREM_TABLE = "enumeration:_theorem_runs"

#: Amount counted per outermost span of a role, from (args, result).
_AMOUNTS = {
    "spaces.closure": lambda args, result: result.n_rows,
    "bitcore.parse": lambda args, result: len(args[0].encode()),
}

#: (metric suffix, unit, statistic) per role; see `layer_metrics`.
_STATS = {
    "enumeration.classify": (("calls", "count", "calls"), ("self_s", "s", "self")),
    "witnesses.gate": (
        ("calls", "count", "calls"),
        ("self_s", "s", "self"),
        ("share", "ratio", "gate_share"),
    ),
    "bitcore.build": (("calls", "count", "calls"), ("self_s", "s", "self")),
    "spaces.closure": (
        ("calls", "count", "calls"),
        ("self_s", "s", "self"),
        ("rows_out", "count", "amount"),
    ),
    "basis.compute_basis": (("calls", "count", "calls"), ("self_s", "s", "self")),
    "basis.decompose": (("calls", "count", "calls"),),
    "operators.tilde_matrix": (("calls", "count", "calls"), ("self_s", "s", "self")),
    "enumeration.chunk": (
        ("calls", "count", "calls"),
        ("sum_s", "s", "total"),
        ("max_s", "s", "max"),
    ),
    "enumeration.merge": (("self_s", "s", "self"),),
    "enumeration.summary_json": (("self_s", "s", "self"),),
    "bitcore.parse": (
        ("calls", "count", "calls"),
        ("self_s", "s", "self"),
        ("mb_per_s", "MB/s", "rate"),
    ),
    "spaces.psi": (("calls", "count", "calls"), ("self_s", "s", "self")),
    "spaces.is_closed": (("calls", "count", "calls"), ("self_s", "s", "self")),
    "cli.emit": (("self_s", "s", "self"),),
    "equivalence.canonicalize": (
        ("calls", "count", "calls"),
        ("self_s", "s", "self"),
        ("max_s", "s", "max"),
    ),
}
_THEOREM_STATS = (("calls", "count", "calls"), ("self_s", "s", "self"), ("failed", "count", "amount"))


def metric_specs() -> list[tuple[str, str, str, str]]:
    """(metric name, unit, role, statistic) of every per-layer metric."""
    specs = []
    for name in THEOREM_NAMES:
        role = f"enumeration.theorem.{name}"
        specs += [(f"{role}.{suffix}", unit, role, stat) for suffix, unit, stat in _THEOREM_STATS]
    for role, stats in _STATS.items():
        specs += [(f"{role}.{suffix}", unit, role, stat) for suffix, unit, stat in stats]
    return specs


class Spans:
    """Spans in flat arrays: role id, start, end, parent index, amount."""

    def __init__(self):
        self.roles: list[str] = []
        self._role_ids: dict[str, int] = {}
        self.role = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.amount = array("d")
        self._stack = [-1]

    def role_id(self, name: str) -> int:
        if name not in self._role_ids:
            self._role_ids[name] = len(self.roles)
            self.roles.append(name)
        return self._role_ids[name]

    def add(self, role: str, start: float, end: float, parent: int, amount: float = 0) -> int:
        """Record a finished span; used for synthetic trees."""
        self.role.append(self.role_id(role))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.amount.append(amount)
        return len(self.role) - 1

    def call(self, role_id: int, fn, args, kwargs, amount=None):
        """Run fn inside a span; amount(args, result) is stored with it."""
        index = len(self.role)
        self.role.append(role_id)
        self.parent.append(self._stack[-1])
        self.amount.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter()
            self._stack.pop()
        if amount is not None:
            self.amount[index] = amount(args, result)
        return result

    def theorem(self, role_id: int, runner):
        """Run a theorem runner in a span whose amount is 1 if it failed."""
        index = len(self.role)
        ok = False
        try:
            ok = bool(self.call(role_id, runner, (), {}))
            return ok
        finally:
            self.amount[index] = 0 if ok else 1

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children's spans cover."""
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = []
        for i in range(len(self.role)):
            lo, hi = self.start[i], self.end[i]
            covered = 0.0
            reach = lo
            for c in sorted(children.get(i, ()), key=self.start.__getitem__):
                cs, ce = max(self.start[c], reach), min(self.end[c], hi)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out.append((hi - lo) - covered)
        return out

    def role_totals(self) -> dict[str, dict[str, float]]:
        """Per role: calls, amount, total and max duration of its outermost
        spans (those with no ancestor of the same role), and summed self time."""
        selfs = self.self_times()
        totals = {
            name: {"calls": 0, "amount": 0.0, "total": 0.0, "max": 0.0, "self": 0.0}
            for name in self.roles
        }
        for i, rid in enumerate(self.role):
            t = totals[self.roles[rid]]
            t["self"] += selfs[i]
            p = self.parent[i]
            while p >= 0 and self.role[p] != rid:
                p = self.parent[p]
            if p < 0:
                duration = self.end[i] - self.start[i]
                t["calls"] += 1
                t["amount"] += self.amount[i]
                t["total"] += duration
                t["max"] = max(t["max"], duration)
        return totals


def _resolve(module, path: str):
    """(owner, attribute name, raw attribute) for "name" or "Class.name"."""
    owner = module
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class Tracer:
    """Installs span wrappers into closurelab and reports layer metrics."""

    def __init__(self):
        self.spans = Spans()
        self.absent: dict[str, str] = {}
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {
            name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in ("bitcore", "operators", "spaces", "equivalence", "basis",
                         "witnesses", "enumeration", "cli")
        }
        for role, targets in ROLES.items():
            try:
                plan = [self._plan(modules, role, t) for t in targets]
            except (AttributeError, KeyError) as exc:
                self.absent[role] = f"cannot wrap {role}: {exc!r}"
                continue
            for steps in plan:
                for owner, name, value in steps:
                    self._set(owner, name, value)
        self._install_theorems(modules)

    def _plan(self, modules, role, target):
        """Bindings to replace for one target: [(owner, name, wrapper)].

        Bindings an earlier role already replaced no longer hold the
        original function, so they are left to that role."""
        spec, _, only = target.partition("@")
        module_name, _, path = spec.partition(":")
        owner, name, raw = _resolve(modules[module_name], path)
        rid = self.spans.role_id(role)
        amount = _AMOUNTS.get(role)
        call = self.spans.call
        if isinstance(raw, classmethod):
            func = raw.__func__

            @functools.wraps(func)
            def method(*args, **kwargs):
                return call(rid, func, args, kwargs, amount)

            return [(owner, name, classmethod(method))]

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            return call(rid, raw, args, kwargs, amount)

        if isinstance(owner, type):
            return [(owner, name, wrapper)]
        where = only.split(",") if only else list(modules)
        steps = [
            (modules[m], attr, wrapper)
            for m in where
            for attr, value in vars(modules[m]).items()
            if value is raw
        ]
        if only and not steps:
            raise AttributeError(f"no binding of {path} in {only}")
        return steps

    def _install_theorems(self, modules) -> None:
        module_name, _, name = THEOREM_TABLE.partition(":")
        module = modules[module_name]
        original = getattr(module, name, None)
        if original is None:
            for theorem in THEOREM_NAMES:
                self.absent[f"enumeration.theorem.{theorem}"] = (
                    f"{PACKAGE}.{module_name} has no attribute {name!r}"
                )
            return
        spans = self.spans
        ids = {t: spans.role_id(f"enumeration.theorem.{t}") for t in THEOREM_NAMES}

        @functools.wraps(original)
        def theorem_runs(*args, **kwargs):
            return [
                (theorem, functools.partial(spans.theorem, ids[theorem], runner))
                if theorem in ids else (theorem, runner)
                for theorem, runner in original(*args, **kwargs)
            ]

        self._set(module, name, theorem_runs)

    def _set(self, owner, name, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    def request(self, fn, *args, **kwargs):
        """Run one request (a campaign or a verb) under a root span."""
        return self.spans.call(self.spans.role_id("request"), fn, args, kwargs)

    def layer_metrics(self) -> tuple[dict[str, dict], dict[str, str]]:
        """Every per-layer metric as {"value", "unit"}, and the reason for
        each metric that reads 0 because its layer could not be wrapped or
        the statistic is undefined here."""
        totals = self.spans.role_totals()
        empty = {"calls": 0, "amount": 0.0, "total": 0.0, "max": 0.0, "self": 0.0}
        theorem_time = sum(
            totals.get(f"enumeration.theorem.{t}", empty)["total"] for t in THEOREM_NAMES
        )
        out, absent = {}, {}
        for metric, unit, role, stat in metric_specs():
            t = totals.get(role, empty)
            reason = self.absent.get(role)
            if stat == "gate_share":
                reason = reason or next(
                    (self.absent[r] for r in self.absent if r.startswith("enumeration.theorem.")),
                    None,
                )
                if reason is None and theorem_time == 0:
                    reason = "no theorem ran in this workload"
                value = t["total"] / theorem_time if theorem_time else 0.0
            elif stat == "rate":
                if reason is None and t["total"] == 0:
                    reason = "no input was parsed in this workload"
                value = t["amount"] / 1e6 / t["total"] if t["total"] else 0.0
            else:
                value = t[stat]
            if stat in ("calls", "amount"):
                value = int(value)
            if reason:
                value = 0 if stat in ("calls", "amount") else 0.0
                absent[metric] = reason
            out[metric] = {"value": value, "unit": unit}
        return out, absent


def median_metrics(runs: list[dict[str, dict]]) -> dict[str, dict]:
    """Per metric, the median value over several traced passes."""
    out = {}
    for metric, first in runs[0].items():
        values = [r[metric]["value"] for r in runs]
        value = statistics.median(values)
        value = int(value) if isinstance(first["value"], int) else value
        out[metric] = {"value": value, "unit": first["unit"]}
    return out
