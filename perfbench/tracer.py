"""Span tracing installed from outside the denslab package.

`Tracer.install()` wraps the public functions listed in `TARGETS` and the
methods listed in `METHODS`.  A wrapped function is rebound under every name
a denslab module looks it up by (module attributes and module-level dict
values such as `cli.EXPERIMENTS`); a method is patched on its class.  Each
call records one span: name, parent span, operation id, start and end.
Spans stay in memory until `write_spans` dumps them when the run ends.
`uninstall()` restores every original binding.  A target that no longer
exists raises on install, so a renamed function fails the traced run instead
of reading 0.

Nothing under `src/` knows about the tracer, so a traced run executes the
same numerics as an untraced one; the benchmark checks that the outputs
hash identically.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter

# (module, attribute, span name)
TARGETS = (
    ("config", "parse_config", "config.parse_config"),
    ("density_core", "tilde_norm", "density_core.tilde_norm"),
    ("density_core", "kde", "density_core.kde"),
    ("density_core", "density_quantiles", "density_core.density_quantiles"),
    ("density_core", "save_flow", "density_core.save_flow"),
    ("dynamics", "frozen_semigroup", "dynamics.frozen_semigroup"),
    ("dynamics", "drift_field", "dynamics.drift_field"),
    ("dynamics", "drift_at_positions", "dynamics.drift_at_positions"),
    ("dynamics", "picard_fixed_point", "dynamics.picard_fixed_point"),
    ("particles", "normal_increments", "particles.normal_increments"),
    ("particles", "euler_maruyama_mkv", "particles.euler_maruyama_mkv"),
    ("particles", "khasminskii_mc", "particles.khasminskii_mc"),
    ("metrics", "exp_wasserstein", "metrics.exp_wasserstein"),
    ("metrics", "wasserstein_1d", "metrics.wasserstein_1d"),
    ("metrics", "relative_entropy", "metrics.relative_entropy"),
    ("metrics", "renyi_entropy", "metrics.renyi_entropy"),
    ("experiments", "experiment_renyi", "experiments.experiment_renyi"),
    ("experiments", "experiment_khasminskii", "experiments.experiment_khasminskii"),
    ("cli", "main", "cli.main"),
    ("cli", "write_report", "cli.write_report"),
)

# (module, class, method, span name)
METHODS = (
    ("density_core", "DensityFlow", "values_at", "density_core.values_at"),
    ("particles", "SpaceTimeField", "evaluate", "particles.field_evaluate"),
)

PACKAGE = "denslab"

# spans whose normal_increments calls are particle steps
MARCHES = ("particles.euler_maruyama_mkv", "particles.khasminskii_mc")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, op id, start, end]
        self.op = None           # operation id stamped on new spans
        self.counters = {}       # (op, name) -> number, filled by after-hooks
        self.quantile_inputs = {}  # op -> set of hashed density_quantiles inputs
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------

    def _count(self, name: str, n) -> None:
        key = (self.op, name)
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _after_picard(self, args, kwargs, out) -> None:
        self._count("dynamics.picard.iterations", out.iterations)

    def _after_save_flow(self, args, kwargs, out) -> None:
        out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
        names = os.listdir(out_dir)
        self._count("density_core.save_flow.files", len(names))
        self._count("density_core.save_flow.bytes",
                    sum(os.path.getsize(os.path.join(out_dir, n)) for n in names))

    def _after_quantiles(self, args, kwargs, out) -> None:
        d = args[0] if args else kwargs["d"]
        self.quantile_inputs.setdefault(self.op, set()).add(hash(d.values.tobytes()))

    # -- installing -----------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _rebind(self, orig, new) -> None:
        for mod in self._modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((setattr, mod, key, orig))
                    setattr(mod, key, new)
                elif isinstance(val, dict) and not key.startswith("__"):
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            self._undo.append((dict.__setitem__, val, dkey, orig))
                            val[dkey] = new

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = {"dynamics.picard_fixed_point": self._after_picard,
                 "density_core.save_flow": self._after_save_flow,
                 "density_core.density_quantiles": self._after_quantiles}
        for mod_name, attr, span in TARGETS:
            orig = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), attr)
            self._rebind(orig, self.wrap(span, orig, hooks.get(span)))
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name)
            orig = vars(cls)[meth]
            self._undo.append((setattr, cls, meth, orig))
            setattr(cls, meth, self.wrap(span, orig))

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, orig = self._undo.pop()
            setter(owner, key, orig)

    # -- output ---------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, op, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, op, start, end]) + "\n")


def _has_ancestor(spans, i: int, names) -> bool:
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][1]
    return False


def layer_metrics(tracer: Tracer, op) -> dict:
    """Per-layer counts and times of one traced operation.

    `<span>.calls` counts calls, `<span>.total_s` sums the outermost calls of
    a name, and `<span>.self_s` subtracts the time covered by wrapped child
    calls.  Names that were never called read 0.
    """
    spans = tracer.spans
    calls, total, self_s = {}, {}, {}
    for i, (name, parent, sop, start, end) in enumerate(spans):
        if sop != op:
            continue
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur
        if parent >= 0:
            pname = spans[parent][0]
            self_s[pname] = self_s.get(pname, 0.0) - dur
        if not _has_ancestor(spans, i, (name,)):
            total[name] = total.get(name, 0.0) + dur
    substeps = sum(1 for i, s in enumerate(spans) if s[2] == op and s[0] == "dynamics.drift_field"
                   and _has_ancestor(spans, i, ("dynamics.frozen_semigroup",)))
    steps = sum(1 for i, s in enumerate(spans) if s[2] == op
                and s[0] == "particles.normal_increments" and _has_ancestor(spans, i, MARCHES))
    n_quant = calls.get("density_core.density_quantiles", 0)

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def s(name):
        return self_s.get(name, 0.0)

    march_s = sum(t(m) for m in MARCHES)
    out = {
        "dynamics.substeps": substeps,
        "dynamics.substep_us": 1e6 * s("dynamics.frozen_semigroup") / substeps if substeps else 0.0,
        "dynamics.frozen_semigroup.calls": c("dynamics.frozen_semigroup"),
        "dynamics.frozen_semigroup.self_s": s("dynamics.frozen_semigroup"),
        "dynamics.drift_field.total_s": t("dynamics.drift_field"),
        "dynamics.picard.iterations": tracer.counters.get((op, "dynamics.picard.iterations"), 0),
        "dynamics.picard_fixed_point.calls": c("dynamics.picard_fixed_point"),
        "dynamics.picard_fixed_point.self_s": s("dynamics.picard_fixed_point"),
        "density_core.values_at.calls": c("density_core.values_at"),
        "density_core.values_at.total_s": t("density_core.values_at"),
        "density_core.tilde_norm.calls": c("density_core.tilde_norm"),
        "density_core.tilde_norm.total_s": t("density_core.tilde_norm"),
        "density_core.save_flow.total_s": t("density_core.save_flow"),
        "density_core.save_flow.bytes": tracer.counters.get((op, "density_core.save_flow.bytes"), 0),
        "density_core.save_flow.files": tracer.counters.get((op, "density_core.save_flow.files"), 0),
        "cli.write_report.total_s": t("cli.write_report"),
        "cli.main.self_s": s("cli.main"),
        "density_core.density_quantiles.calls": n_quant,
        "density_core.density_quantiles.total_s": t("density_core.density_quantiles"),
        "density_core.density_quantiles.distinct_frac":
            len(tracer.quantile_inputs.get(op, ())) / n_quant if n_quant else 0.0,
        "metrics.exp_wasserstein.calls": c("metrics.exp_wasserstein"),
        "metrics.exp_wasserstein.self_s": s("metrics.exp_wasserstein"),
        "metrics.entropies.total_s": t("metrics.relative_entropy") + t("metrics.renyi_entropy"),
        "metrics.wasserstein_1d.total_s": t("metrics.wasserstein_1d"),
        "experiments.experiment_renyi.self_s": s("experiments.experiment_renyi"),
        "density_core.kde.calls": c("density_core.kde"),
        "density_core.kde.total_s": t("density_core.kde"),
        "dynamics.drift_at_positions.calls": c("dynamics.drift_at_positions"),
        "dynamics.drift_at_positions.total_s": t("dynamics.drift_at_positions"),
        "particles.euler_maruyama_mkv.self_s": s("particles.euler_maruyama_mkv"),
        "particles.steps": steps,
        "particles.step_ms": 1e3 * march_s / steps if steps else 0.0,
        "particles.normal_increments.total_s": t("particles.normal_increments"),
        "particles.field_evaluate.calls": c("particles.field_evaluate"),
        "particles.field_evaluate.total_s": t("particles.field_evaluate"),
        "particles.khasminskii_mc.self_s": s("particles.khasminskii_mc"),
        "experiments.experiment_khasminskii.self_s": s("experiments.experiment_khasminskii"),
        "config.parse_config.total_s": t("config.parse_config"),
        "trace.spans": sum(calls.values()),
    }
    return out
