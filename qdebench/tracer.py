"""Span tracer that wraps the library's functions from outside the library.

`Tracer.install` replaces every public function of the traced qde modules,
the public methods and `__post_init__` of their classes (and the
constructors counted as builds), and `numpy.linalg.eigh`/`eigvalsh` and
`scipy.optimize.minimize` with wrappers that record a span.  A function is
patched in every module namespace that holds it, since qde modules look
names up in their own globals after `from .x import y`: patching only the
defining module would miss those calls.

A span has a name id, start, end, parent span and op id; spans are kept in
memory as columns and written out by `dump`.  They are recorded only while
`op` is set, so oracle checks and input generation stay outside the trace.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time
import types
from array import array

import numpy as np
import scipy.optimize

TRACED_MODULES = ("linalg", "states", "partitions", "dynamics", "capacity", "classical", "harness")
# one-line helpers called hundreds of thousands of times per pass; wrapping
# them would double the spans and the overhead, and their time stays in the
# caller's self time
UNWRAPPED = {"linalg.dagger", "linalg.frobenius", "linalg.assert_finite"}
# constructors whose calls are counted as builds; other dataclass __init__s
# are generated field assignments and stay unwrapped
CONSTRUCTORS = {"StateFunctional", "DivergenceEngine"}
PREPARE = -1  # op id of the spec parsing that precedes a traced pass
WEIGHT_FLOOR = 1e-14  # qde.defaults.WEIGHT_FLOOR; outcomes at or below it carry no information
USEFUL_TOL = 1e-6  # a restart is useful when it ends this close to its search's best value


def _eig_flops(args, kwargs, result):
    a = np.asarray(args[0])
    return float(np.prod(a.shape[:-2], dtype=float)) * float(a.shape[-1]) ** 3


def _information_branches(args, kwargs, result):
    weights = list(result.weights.values())
    return len(weights), sum(1 for w in weights if w <= WEIGHT_FLOOR)


def _minimize_outcome(args, kwargs, result):
    return -float(result.fun), int(result.nfev), int(result.status)


INSPECT = {
    "linalg.numpy.eigh": _eig_flops,
    "linalg.numpy.eigvalsh": _eig_flops,
    "dynamics.information": _information_branches,
    "optimize.minimize": _minimize_outcome,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.op = None
        self.nid, self.parent, self.opid = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.extra: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] = {}
        self._originals: dict[int, object] = {}

    def __len__(self) -> int:
        return len(self.nid)

    def clear(self) -> None:
        for column in (self.nid, self.parent, self.opid, self.start, self.end):
            del column[:]
        self.extra.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, func, name):
        code = len(self.names)
        self.names.append(name)
        inspect = INSPECT.get(name)
        nid, parent, opid, start, end = self.nid, self.parent, self.opid, self.start, self.end
        extra, stack, clock = self.extra, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return func(*args, **kwargs)
            index = len(nid)
            nid.append(code)
            parent.append(stack[-1] if stack else -1)
            opid.append(self.op)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if inspect is not None:
                extra[index] = inspect(args, kwargs, result)
            return result

        self._wrappers[id(func)] = wrapper
        self._originals[id(func)] = func
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the loaded qde modules plus the numpy and scipy entry points."""
        for layer in TRACED_MODULES:
            mod = sys.modules[f"qde.{layer}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                label = f"{layer}.{name}"
                if isinstance(obj, types.FunctionType):
                    if not name.startswith("_") and label not in UNWRAPPED:
                        self._wrap(obj, label)
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer)
        for mod, attr, name in (
            (np.linalg, "eigh", "linalg.numpy.eigh"),
            (np.linalg, "eigvalsh", "linalg.numpy.eigvalsh"),
            (scipy.optimize, "minimize", "optimize.minimize"),
        ):
            self._set(mod, attr, self._wrap(getattr(mod, attr), name))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qde" or modname.startswith("qde.")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None and self._originals[id(obj)] is obj:
                    self._set(mod, name, wrapper)

    def _wrap_class(self, cls, layer) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__post_init__":
                if not (name == "__init__" and cls.__name__ in CONSTRUCTORS):
                    continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, types.FunctionType):
                self._set(cls, name, self._wrap(raw, label))
            elif isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self._wrap(raw.__func__, label)))
            elif isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(raw.__func__, label)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def escaped_refs(self) -> list[str]:
        """Places in qde that still reach an unwrapped traced function.

        Module globals, and the members of module-level dicts, lists and
        tuples (dispatch tables), are searched for original function objects.
        """
        found = []
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "qde" or modname.startswith("qde.")):
                continue
            for name, obj in vars(mod).items():
                members = [obj]
                if isinstance(obj, dict):
                    members = list(obj.values())
                elif isinstance(obj, (list, tuple)):
                    members = list(obj)
                for member in members:
                    if member is not None and self._originals.get(id(member)) is member:
                        found.append(f"{modname}.{name}")
        return found

    # -- analysis ----------------------------------------------------------

    def counts(self) -> dict:
        """Spans per name."""
        out: dict[str, int] = {}
        for code in self.nid:
            name = self.names[code]
            out[name] = out.get(name, 0) + 1
        return out

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer totals over one pass of `ops` ops.

        Spans recorded under the PREPARE op id (spec parsing before the
        pass) feed only harness.parse_s.
        """
        names, nid, parent, opid = self.names, self.nid, self.parent, self.opid
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        count: dict[str, int] = {}
        outer: dict[str, float] = {}
        self_by_layer: dict[str, float] = {}
        parse_s = 0.0
        for i, code in enumerate(nid):
            name = names[code]
            if opid[i] == PREPARE:
                if name == "harness.parse_spec":
                    parse_s += dur[i]
                continue
            count[name] = count.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur[i] - child[i]
            if not self._has_ancestor(i, code):
                outer[name] = outer.get(name, 0.0) + dur[i]

        def n(*keys):
            return sum(count.get(k, 0) for k in keys)

        def t(*keys):
            return sum(outer.get(k, 0.0) for k in keys)

        def extras(*keys):
            codes = {names.index(k) for k in keys if k in names}
            return [v for i, v in self.extra.items() if nid[i] in codes and opid[i] != PREPARE]

        eig = ("linalg.numpy.eigh", "linalg.numpy.eigvalsh")
        branches = extras("dynamics.information")
        total_branches = sum(b[0] for b in branches)
        restarts = self._restarts()
        evals = sum(r[1] for r in restarts)
        restart_s = t("optimize.minimize")
        return {
            "linalg.eig_calls": n(*eig),
            "linalg.eig_s": t(*eig),
            "linalg.eig_flops": sum(extras(*eig)),
            "states.divergence_calls": n("states.DivergenceEngine.report"),
            "states.divergence_s": t("states.DivergenceEngine.report"),
            "states.engine_builds": n("states.DivergenceEngine.__init__"),
            "states.functional_builds": n("states.StateFunctional.__init__"),
            "states.self_s": self_by_layer.get("states", 0.0),
            "partitions.krausmap_builds": n("partitions.KrausMap.__post_init__"),
            "partitions.krausmap_s": t("partitions.KrausMap.__post_init__"),
            "partitions.compose_calls": n("partitions.compose"),
            "partitions.compose_s": t("partitions.compose"),
            "partitions.choi_compressions": n("partitions.kraus_from_choi"),
            "partitions.conjugate_calls": n("partitions.conjugate"),
            "partitions.self_s": self_by_layer.get("partitions", 0.0),
            "dynamics.information_calls": n("dynamics.information"),
            "dynamics.information_s": t("dynamics.information"),
            "dynamics.conditional_calls": n("dynamics.conditional_information"),
            "dynamics.self_s": self_by_layer.get("dynamics", 0.0),
            "dynamics.branches": total_branches,
            "dynamics.zero_weight_share": (
                sum(b[1] for b in branches) / total_branches if total_branches else 0.0
            ),
            "capacity.restarts": len(restarts),
            "capacity.restart_s": restart_s,
            "capacity.objective_evals": evals,
            "capacity.eval_s": restart_s / evals if evals else 0.0,
            "capacity.cn_search_s": t("capacity.optimize_Cn"),
            "capacity.dn_search_s": t("capacity.optimize_Dn"),
            "capacity.maxiter_share": (
                sum(1 for r in restarts if r[2] == 2) / len(restarts) if restarts else 0.0
            ),
            "capacity.useful_restart_share": (
                sum(1 for r in restarts if r[3]) / len(restarts) if restarts else 0.0
            ),
            "classical.embed_s": t("classical.embed_diagonal"),
            "classical.cylinder_s": t("classical.SymbolicShift.cylinder_measures"),
            "harness.parse_s": parse_s,
            "harness.run_task_s": t("harness.run_task"),
            "harness.record_s": t("harness.ResultRecord.to_json"),
            "trace.spans": len(nid),
            "trace.ops": ops,
        }

    def _has_ancestor(self, i: int, code: int) -> bool:
        """Whether a span of the same name encloses span i."""
        p = self.parent[i]
        while p >= 0:
            if self.nid[p] == code:
                return True
            p = self.parent[p]
        return False

    def _restarts(self) -> list[tuple]:
        """(value, nfev, status, useful) per optimizer restart.

        Restarts are grouped by their enclosing optimize_Cn/optimize_Dn
        span; a restart is useful when it ends within USEFUL_TOL of the best
        value of its group.
        """
        names, nid, parent = self.names, self.nid, self.parent
        searches = {"capacity.optimize_Cn", "capacity.optimize_Dn"}
        groups: dict[int, list] = {}
        for i, outcome in self.extra.items():
            if names[nid[i]] != "optimize.minimize":
                continue
            p = parent[i]
            while p >= 0 and names[nid[p]] not in searches:
                p = parent[p]
            groups.setdefault(p, []).append(outcome)
        out = []
        for members in groups.values():
            best = max(m[0] for m in members)
            for value, nfev, status in members:
                useful = math.isfinite(value) and value >= best - USEFUL_TOL
                out.append((value, nfev, status, useful))
        return out

    def dump(self, path) -> None:
        """Write the spans as gzipped CSV: a `# names` header, then name id,
        start and end in ns from the first span, parent span, op id."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# names " + " ".join(self.names) + "\n")
            fh.write("name,start_ns,end_ns,parent,op\n")
            rows = zip(self.nid, self.start, self.end, self.parent, self.opid)
            for code, s, e, p, o in rows:
                fh.write(f"{code},{round((s - t0) * 1e9)},{round((e - t0) * 1e9)},{p},{o}\n")
