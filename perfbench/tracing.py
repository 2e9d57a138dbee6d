"""Layer tracing from outside the package, for the benchmark's traced run.

The layers are the eprverify modules.  ``Tracer.install`` wraps every public
function of each module, the public methods of its public classes, and each
class's ``__post_init__`` (its validation, reported under the class name).
Modules use ``from .x import y``, so a wrapper is bound in every eprverify
module namespace that holds the original object, under whatever name it holds
it.  Spans are kept in memory while tracing and written once at the end.

``stage.<s>.self_s`` is named as the stage's own time within the pair tree:
the inclusive time of the calls ProtocolRun makes directly in that stage,
callees included.  The stages partition tree-building time, but they cut
across modules, so they do not add up with the ``<module>.self_s`` figures.

Wrappers record only while ``Tracer.on`` is set, and never change arguments
or results, so a traced run emits the same report bytes as an untraced one.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("linalg", "kernel", "channels", "metrics", "sampling", "rng", "protocol", "harness")
TREE_CALLERS = ("protocol.ProtocolRun.exact", "protocol.ProtocolRun.sample")
STAGES = ("pair_select", "pinch", "swap", "decode", "verifier", "flip", "postsel", "bits")

# Stage of each call that ProtocolRun makes while building a pair tree.
# apply_unitary is told apart by its target registers.
_STAGE_OF = {
    "kernel.select_ordered_pair": "pair_select",
    "channels.apply_pinch": "pinch",
    "protocol.swap_test": "swap",
    "kernel.bell_to_computational": "decode",
    "kernel.partial_trace": "decode",
    "kernel.layout": "verifier",
    "kernel.zero_state": "verifier",
    "kernel.StateVector.density": "verifier",
    "kernel.tensor_product": "verifier",
    "linalg.dagger": "verifier",
    "linalg.proj": "flip",
    "linalg.tensor": "flip",
    "protocol.post_selection": "postsel",
    "kernel.standard_basis_measurement": "bits",
    "kernel.measure": "bits",
}
_STAGE_OF_TARGETS = {("S1", "S1'"): "decode", ("P", "A"): "verifier", ("P", "A", "S1"): "flip"}


def _stage(name: str, args: tuple, kwargs: dict) -> str:
    if name == "kernel.apply_unitary":
        targets = args[2] if len(args) > 2 else kwargs["targets"]
        return _STAGE_OF_TARGETS.get(tuple(targets), "other")
    return _STAGE_OF.get(name, "other")


# Work computed from array shapes (complex128 is 16 bytes; one complex
# multiply-add is 8 real flops), not measured.
def _partial_trace_bytes(args, kwargs, result, self_s) -> dict:
    # The transposing copy reads and writes the input; the output is written.
    return {"linalg.partial_trace.bytes_computed": 2 * args[0].nbytes + result.nbytes}


def _embed_unitary_bytes(args, kwargs, result, self_s) -> dict:
    # np.kron writes the full operator; the permuting copy reads and writes it.
    return {"linalg.embed_unitary.bytes_computed": 3 * result.nbytes}


def _apply_unitary_flops(args, kwargs, result, self_s) -> dict:
    dim = args[0].layout.dim
    # Density: big @ rho @ big^dagger is two dense d x d products; vector: one d x d by d.
    flops = 2 * 8 * dim**3 if hasattr(args[0], "matrix") else 8 * dim**2
    return {"kernel.apply_unitary.flops_computed": flops}


def _emit_report_bytes(args, kwargs, result, self_s) -> dict:
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt", "json")
    out = {"harness.emit_report.bytes": len(result)}
    if fmt == "csv":
        out.update({"harness.emit_report.csv.bytes": len(result), "harness.emit_report.csv.self_s": self_s})
    return out


_COUNTERS = {
    "linalg.partial_trace": _partial_trace_bytes,
    "linalg.embed_unitary": _embed_unitary_bytes,
    "kernel.apply_unitary": _apply_unitary_flops,
    "harness.emit_report": _emit_report_bytes,
}


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.on = False
        self.job = -1
        # Spans as columns, to keep a million of them small: ids (parent -1 for
        # none), the job index, an index into names, start and end in seconds.
        self.names: dict[str, int] = {}
        self.span_ints = {column: array("q") for column in ("id", "parent", "job", "name")}
        self.span_times = {column: array("d") for column in ("start", "end")}
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, self_s, inclusive_s]
        self.stage_s = defaultdict(float)
        self.stage_calls = defaultdict(int)  # (tree caller, stage) -> calls
        self.counters = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child_s, span id, stage]
        self._ids = itertools.count()
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public callables of each layer module, in every namespace that binds them."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "eprverify" or n.startswith("eprverify.")]
        for layer in LAYERS:
            module = sys.modules[f"eprverify.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, bound, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("_") or meth == "__post_init__"):
                            name = f"{layer}.{attr}" if meth == "__post_init__" else f"{layer}.{attr}.{meth}"
                            self._set(obj, meth, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            stage = _stage(name, args, kwargs) if parent is not None and parent[0] in TREE_CALLERS else None
            frame = [name, 0.0, 0.0, next(self._ids), stage]
            self._stack.append(frame)
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self_s = self._exit(frame, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result, self_s).items():
                    self.counters[key] += value
            return result

        return traced

    def _exit(self, frame: list, parent: list | None) -> float:
        end = perf_counter()
        self._stack.pop()
        name, start, child_s, span_id, stage = frame
        duration = end - start
        stats = self.stats[name]
        stats[0] += 1
        stats[1] += duration - child_s
        stats[2] += duration
        if parent is not None:
            parent[2] += duration
        if stage is not None:
            self.stage_s[stage] += duration  # inclusive: the stage's callees count too
            self.stage_calls[parent[0], stage] += 1
        ints, times = self.span_ints, self.span_times
        ints["id"].append(span_id)
        ints["parent"].append(parent[3] if parent else -1)
        ints["job"].append(self.job)
        ints["name"].append(self.names.setdefault(name, len(self.names)))
        times["start"].append(start)
        times["end"].append(end)
        return duration - child_s

    # -- results ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as gzipped tab-separated lines, in the order they ended."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = list(self.names)
        ints, times = self.span_ints, self.span_times
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tjob\tname\tstart_s\tend_s\n")
            for span_id, parent, job, name, start, end in zip(
                ints["id"], ints["parent"], ints["job"], ints["name"], times["start"], times["end"]
            ):
                out.write(f"{span_id}\t{parent}\t{job}\t{names[name]}\t{start:.9f}\t{end:.9f}\n")

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, by name, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in ("linalg.partial_trace", "linalg.embed_unitary", "kernel.apply_unitary",
                     "kernel.measure", "kernel.select_ordered_pair", "channels.apply_pinch",
                     "kernel.ProjectiveMeasurement", "rng.stream", "protocol.ProtocolRun.sample"):
            out[f"{name}.calls"] = (self.stats[name][0], "count")
        for name in ("linalg.partial_trace", "linalg.embed_unitary", "linalg.tensor",
                     "kernel.apply_unitary", "kernel.measure", "kernel.select_ordered_pair",
                     "kernel.to_density", "channels.apply_pinch", "kernel.ProjectiveMeasurement",
                     "protocol.cheating_proof", "protocol.honest_proof", "metrics.trace_distance",
                     "rng.stream", "protocol.ProtocolRun.sample", "harness.run_experiment",
                     "harness.emit_report", "linalg.trace_norm",
                     "linalg.spectrum", "linalg.hermitian_sqrt"):
            out[f"{name}.self_s"] = (self.stats[name][1], "s")
        for name, unit in (("linalg.partial_trace.bytes_computed", "B"),
                           ("linalg.embed_unitary.bytes_computed", "B"),
                           ("kernel.apply_unitary.flops_computed", "flop"),
                           ("harness.emit_report.bytes", "B"),
                           ("harness.emit_report.csv.self_s", "s"),
                           ("harness.emit_report.csv.bytes", "B")):
            out[name] = (self.counters[name], unit)
        for stage in STAGES:
            out[f"stage.{stage}.self_s"] = (self.stage_s[stage], "s")
        exact_calls = self.stats["protocol.ProtocolRun.exact"][0]
        trees = self.stage_calls["protocol.ProtocolRun.exact", "pair_select"]
        out["protocol.trees_per_exact"] = (trees / exact_calls if exact_calls else 0.0, "count")
        # Share of the traced pass spent building pair trees.
        out["protocol.tree_build_share"] = (sum(self.stage_s.values()) / traced_s, "frac")
        for layer in LAYERS:
            layer_s = sum(s[1] for name, s in self.stats.items() if name.startswith(layer + "."))
            out[f"{layer}.self_s"] = (layer_s, "s")
        out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
        return out
