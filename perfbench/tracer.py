"""Layer spans recorded from outside the program.

Each listed public callable is replaced by a timing wrapper in every
coarsehom module that binds it: `from .homology import
smith_normal_form` copies the name into the importing module, so
patching only the defining module would miss those calls.  Methods are
patched on their class.  `rings` gets no span: it runs once per
coefficient, so a wrapper would cost more than the call, and its time
lands in its callers' self time.

A span records its name, start, end, parent span and report id.  Spans
are kept in memory (up to MAX_SPANS) and written out when the run ends;
per-name totals (calls, self time, errors and the sizes below) are kept
for every span.  Self time is a span's duration minus the durations of
its child spans; the time spent measuring sizes is excluded from the
parent as well.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

MAX_SPANS = 200_000

_MODULES = ("cli", "coarsemaps", "complexes", "dynamics", "gallery",
            "groups", "homology", "resmodules", "rings")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _chain_terms(pos, name="chain"):
    return lambda a, k, r: {"terms_in": len(_arg(a, k, pos, name).data)}


def _smith(a, k, r):
    rows, cols = r.shape
    return {"cells": rows * cols, "promotions": int(r.U.dtype == object)}


def _assemble(a, k, r):
    m = r["matrix"]
    return {"cells": int(m.size), "nnz": int((m != 0).sum())}


def _window(a, k, r):
    return {"columns": r["window"]["columns"],
            "found": int(r["verdict"] is True)}


def _from_json(a, k, r):
    obj = _arg(a, k, 2, "obj")     # classmethod: (cls, group, obj)
    return {"terms_in": sum(len(f["support"]) for _, f in obj["slices"])}


# span name -> (module, attribute path, size fields, size function)
SPANS = {
    "homology.smith_normal_form":
        ("homology", "smith_normal_form", ("cells", "promotions"), _smith),
    "homology.SNFResult.verify": ("homology", "SNFResult.verify", (), None),
    "homology.assemble_boundary_matrix":
        ("homology", "assemble_boundary_matrix", ("cells", "nnz"),
         _assemble),
    "homology.is_boundary_window":
        ("homology", "is_boundary_window", ("columns", "found"),
         _window),
    "homology.homology_finite": ("homology", "homology_finite", (), None),
    "homology.h0_coinvariants": ("homology", "h0_coinvariants", (), None),
    "dynamics.groupoid_homology_finite":
        ("dynamics", "groupoid_homology_finite", (), None),
    "dynamics.groupoid_cohomology_finite":
        ("dynamics", "groupoid_cohomology_finite", (), None),
    "dynamics.morita_invariance_check":
        ("dynamics", "morita_invariance_check", (), None),
    "dynamics.action_groupoid": ("dynamics", "action_groupoid", (), None),
    "dynamics.restrict_groupoid":
        ("dynamics", "restrict_groupoid", (), None),
    "dynamics.Coupling.validate": ("dynamics", "Coupling.validate", (), None),
    "dynamics.OrbitCouple.validate":
        ("dynamics", "OrbitCouple.validate", (), None),
    "dynamics.KakutaniData.validate":
        ("dynamics", "KakutaniData.validate", (), None),
    "dynamics.roundtrip_iso_check":
        ("dynamics", "roundtrip_iso_check", (), None),
    "dynamics.coupling_to_couple":
        ("dynamics", "coupling_to_couple", (), None),
    "dynamics.couple_to_kakutani":
        ("dynamics", "couple_to_kakutani", (), None),
    "dynamics.kakutani_to_couple":
        ("dynamics", "kakutani_to_couple", (), None),
    "complexes.boundary":
        ("complexes", "boundary", ("terms_in",), _chain_terms(0)),
    "complexes.bar_boundary":
        ("complexes", "bar_boundary", ("terms_in",), _chain_terms(0)),
    "complexes.homotopy_k":
        ("complexes", "homotopy_k", ("terms_in",), _chain_terms(2)),
    "complexes.homotopy_l":
        ("complexes", "homotopy_l", ("terms_in",), _chain_terms(2)),
    "complexes.induced_chain_map":
        ("complexes", "induced_chain_map", ("terms_in",), _chain_terms(1)),
    "complexes.random_chain":
        ("complexes", "random_chain", ("terms_in",),
         lambda a, k, r: {"terms_in": _arg(a, k, 5, "terms")}),
    "complexes.Chain.to_json":
        ("complexes", "Chain.to_json", ("terms_in",),
         _chain_terms(0, "self")),
    "complexes.Chain.from_json":
        ("complexes", "Chain.from_json", ("terms_in",), _from_json),
    "resmodules.FinSupFun.translate":
        ("resmodules", "FinSupFun.translate", (), None),
    "groups.Group.ball":
        ("groups", "Group.ball", ("elements",),
         lambda a, k, r: {"elements": len(r)}),
    # sized by Tracer._embedding_pairs, which needs the tracer's ball cache
    "coarsemaps.check_coarse_embedding":
        ("coarsemaps", "check_coarse_embedding", ("pairs",), None),
    "coarsemaps.check_coarse_map":
        ("coarsemaps", "check_coarse_map", (), None),
    "coarsemaps.displacement_set":
        ("coarsemaps", "displacement_set", (), None),
    "coarsemaps.omega": ("coarsemaps", "omega", (), None),
    "cli.run_experiment": ("cli", "run_experiment", (), None),
}


class Tracer:
    """Install with `install()`, remove with `uninstall()`; set
    `report_id` before each report."""

    def __init__(self):
        self.names = list(SPANS)
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.errors = [0] * n
        self.sizes = [dict.fromkeys(SPANS[name][2], 0)
                      for name in self.names]
        self.report_id = -1
        # span store: name index, start, end, parent span, report id
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_report = array("l")
        self._stack = [[0.0, -1]]     # [child time, span id]; root frame
        self._bindings = None
        self._ball_sizes = {}

    # -- patching ------------------------------------------------------------
    def _collect(self):
        mods = [importlib.import_module(f"coarsehom.{m}") for m in _MODULES]
        bindings = []
        for idx, name in enumerate(self.names):
            home, path, _, sizer = SPANS[name]
            if name == "coarsemaps.check_coarse_embedding":
                sizer = self._embedding_pairs
            home_mod = sys.modules[f"coarsehom.{home}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(home_mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(idx, raw.__func__, sizer))
                else:
                    new = self._wrap(idx, raw, sizer)
                bindings.append((cls, meth, raw, new))
                continue
            original = getattr(home_mod, path)
            wrapper = self._wrap(idx, original, sizer)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        bindings.append((mod, attr, original, wrapper))
        return bindings

    def install(self):
        if self._bindings is None:
            self._bindings = self._collect()
        for owner, attr, _, new in self._bindings:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old, _ in self._bindings or ():
            setattr(owner, attr, old)

    def _embedding_pairs(self, args, kwargs, result):
        # the pair scan runs only when the map itself was certified; it
        # visits every pair of ball(r // 2) and then of ball(r)
        if "reverse_table" not in result:
            return {"pairs": 0}
        phi, r = _arg(args, kwargs, 0, "phi"), _arg(args, kwargs, 1, "r")
        return {"pairs": sum(self._ball_size(phi.source, rad) ** 2
                             for rad in (r // 2, r))}

    def _ball_size(self, group, r):
        key = (repr(group), r)
        if key not in self._ball_sizes:
            # the unwrapped method, so this lookup is not a span
            ball = type(group).ball.__wrapped__
            self._ball_sizes[key] = len(ball(group, r))
        return self._ball_sizes[key]

    def _wrap(self, idx, fn, sizer):
        perf = time.perf_counter
        stack = self._stack
        calls, self_s, errors = self.calls, self.self_s, self.errors
        sizes = self.sizes[idx]
        names, starts = self.span_name, self.span_start
        ends, parents, reports = (self.span_end, self.span_parent,
                                  self.span_report)

        def wrapper(*args, **kwargs):
            span = len(starts)
            t0 = perf()
            if span < MAX_SPANS:
                names.append(idx)
                starts.append(t0)
                ends.append(0.0)
                parents.append(stack[-1][1])
                reports.append(self.report_id)
            else:
                span = -1
            frame = [0.0, span]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[0]
                if span >= 0:
                    ends[span] = t1
                if not ok:
                    errors[idx] += 1
                elif sizer is not None:
                    for key, val in sizer(args, kwargs, result).items():
                        sizes[key] += val
                    dur += perf() - t1
                stack[-1][0] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------
    def metrics(self, reports):
        """Per-layer totals divided by the number of traced reports;
        found_frac is a share of window calls instead."""
        out = {}
        per = max(reports, 1)
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[idx] / per, "count")
            out[f"{name}.self_s"] = (self.self_s[idx] / per, "s")
            out[f"{name}.errors"] = (self.errors[idx] / per, "count")
            for key, val in self.sizes[idx].items():
                if key == "found":
                    out[f"{name}.found_frac"] = (
                        val / self.calls[idx] if self.calls[idx] else 0.0,
                        "1")
                else:
                    out[f"{name}.{key}"] = (val / per, "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\treport\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}"
                         f"\t{self.span_parent[i]}\t{self.span_report[i]}\n")
        return len(self.span_start)
