"""In-process traced replay of a workload's operations, and its per-layer metrics.

The traced pass calls `skalab.cli.main(argv)` for each operation with stdout
and stderr captured. Before each operation it clears the plane and field
caches, so it does the same work as a fresh `python -m skalab` process.

Three instruments run together during the traced pass:

* Span wrappers around each layer's public entry points. A span records its
  name, the operation it belongs to, its parent span, start and end. The
  wrapper replaces the function in every skalab module namespace that binds
  it, including the `from ... import` names in `cli`, and is removed again
  afterwards. Some wrappers also read counts off the call's result.
* `cProfile`. Exact call counts of named functions (`ncalls`) give the
  counts of calls too frequent to wrap, and each module's self time is the
  sum of its functions' own time. Metrics taken this way are
  profiler-attributed; see `PROFILER_ATTRIBUTED`.
* A counting stand-in for the `zlib` module inside `halving_walk`, which
  counts compressor calls and the bytes fed to them.

All times in the traced pass run under the profiler, which slows
Python-heavy code several times more than native code. Use them to compare
the same layer across commits, not as untraced times. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import io
import os
import pstats
import time
import traceback
import zlib
from collections import Counter
from types import ModuleType

LAYERS = (
    "finite_field", "projective_plane", "incidence_graph", "subplane_cover",
    "ska_protocol", "halving_walk", "reporting", "cli",
)

# Public entry points recorded as spans, per module.
SPANNED = {
    "projective_plane": ("enumerate_plane", "sample_flag"),
    "incidence_graph": ("build_plane_graph", "c4_free_check", "dense_subgraph_search", "sdz_report"),
    "subplane_cover": ("baer_subplane", "sample_automorphisms", "cover_with_maps", "build_cover"),
    "ska_protocol": ("secrecy_audit", "run_session"),
    "halving_walk": ("build_grid", "measured_lipschitz", "winding_number", "find_preimage", "halve"),
    "reporting": ("canonical_json", "render_csv", "envelope"),
}

ELT_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "inv", "__pow__")

# (unit, better) of every per-layer metric, in report order.
METRICS = {
    "finite_field.elt_ops": ("count", "lower"),
    "finite_field.self_s": ("s", "lower"),
    "projective_plane.enumerate_plane.busy_s": ("s", "lower"),
    "projective_plane.enumerate_plane.calls": ("count", "lower"),
    "projective_plane.flags_enumerated": ("count", "lower"),
    "projective_plane.canonicalize.calls": ("count", "lower"),
    "projective_plane.self_s": ("s", "lower"),
    "incidence_graph.build_plane_graph.busy_s": ("s", "lower"),
    "incidence_graph.c4_free_check.busy_s": ("s", "lower"),
    "incidence_graph.dense_subgraph_search.busy_s": ("s", "lower"),
    "incidence_graph.sdz_report.busy_s": ("s", "lower"),
    "incidence_graph.self_s": ("s", "lower"),
    "subplane_cover.sample_automorphisms.busy_s": ("s", "lower"),
    "subplane_cover.cover_with_maps.busy_s": ("s", "lower"),
    "subplane_cover.maps": ("count", "lower"),
    "subplane_cover.draws_rejected": ("count", "lower"),
    "subplane_cover.images": ("count", "lower"),
    "subplane_cover.useful_image_ratio": ("ratio", "higher"),
    "subplane_cover.self_s": ("s", "lower"),
    "ska_protocol.secrecy_audit.busy_s": ("s", "lower"),
    "ska_protocol.audit_tuples": ("count", "lower"),
    "ska_protocol.run_session.busy_s": ("s", "lower"),
    "ska_protocol.sessions_ok": ("count", "higher"),
    "ska_protocol.sessions_chart_invalid": ("count", "lower"),
    "ska_protocol.sessions_degenerate_h": ("count", "lower"),
    "ska_protocol.self_s": ("s", "lower"),
    "halving_walk.build_grid.busy_s": ("s", "lower"),
    "halving_walk.est_calls": ("count", "lower"),
    "halving_walk.zlib_calls": ("count", "lower"),
    "halving_walk.zlib_bytes_in": ("bytes", "lower"),
    "halving_walk.measured_lipschitz.busy_s": ("s", "lower"),
    "halving_walk.winding_number.busy_s": ("s", "lower"),
    "halving_walk.find_preimage.busy_s": ("s", "lower"),
    "halving_walk.self_s": ("s", "lower"),
    "reporting.busy_s": ("s", "lower"),
    "reporting.bytes_out": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

PROFILER_ATTRIBUTED = tuple(
    [f"{layer}.self_s" for layer in LAYERS]
    + ["finite_field.elt_ops", "projective_plane.canonicalize.calls",
       "subplane_cover.images", "subplane_cover.draws_rejected",
       "subplane_cover.useful_image_ratio", "halving_walk.est_calls"]
)

# Layers each workload must leave untouched: every metric with one of these
# prefixes must read 0 there. Two self times are exempt because a helper of
# that module does a little work for another workload: `baer_subplane`
# (subplane_cover) selects the query of the Baer audit on `incidence`, and
# `SubgraphQuery.of` (incidence_graph) carries the base subplane of `cover`
# on `subfield`.
MUST_BE_ZERO = {
    "incidence": ("subplane_cover.", "ska_protocol.", "halving_walk."),
    "subfield": ("incidence_graph.", "halving_walk."),
    "halving": ("finite_field.", "projective_plane.", "incidence_graph.",
                "subplane_cover.", "ska_protocol."),
}
ISOLATION_EXEMPT = {
    "incidence": ("subplane_cover.self_s",),
    "subfield": ("incidence_graph.self_s",),
    "halving": (),
}


class _CountingCompressobj:
    """Counts `compress` calls on a compressor object and on its copies.

    The halving walk calls only `zlib.compress` today; counting the
    incremental interface too keeps `zlib_calls` meaningful if it moves to
    prefix reuse with `compressobj().copy()`.
    """

    def __init__(self, inner, counts: Counter):
        self._inner = inner
        self._counts = counts

    def compress(self, data):
        self._counts["zlib_calls"] += 1
        self._counts["zlib_bytes_in"] += len(data)
        return self._inner.compress(data)

    def flush(self, *args):
        return self._inner.flush(*args)

    def copy(self):
        return _CountingCompressobj(self._inner.copy(), self._counts)


class _CountingZlib:
    """Stand-in for the zlib module that counts calls and input bytes."""

    def __init__(self, counts: Counter):
        self._counts = counts

    def compress(self, data, *args, **kwargs):
        self._counts["zlib_calls"] += 1
        self._counts["zlib_bytes_in"] += len(data)
        return zlib.compress(data, *args, **kwargs)

    def compressobj(self, *args, **kwargs):
        return _CountingCompressobj(zlib.compressobj(*args, **kwargs), self._counts)

    def __getattr__(self, name):
        return getattr(zlib, name)


class Tracer:
    """Spans, result-derived counts and profiler over one traced pass."""

    def __init__(self, skalab_modules: dict[str, ModuleType]):
        self.modules = skalab_modules
        plane, field = skalab_modules["projective_plane"], skalab_modules["finite_field"]
        # the caches a fresh process starts without; captured before wrapping
        self._caches = [plane.enumerate_plane, field.field_for_size, field.build_field_spec]
        self.spans: list[list] = []  # [name, op, parent index, start, end]
        self.counts: Counter = Counter()
        self.profile = cProfile.Profile()
        self._stack: list[int] = []
        self._op: str | None = None
        self._patches: list[tuple[ModuleType, str, object]] = []

    # -- spans ---------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, self._op, self._stack[-1] if self._stack else None,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_result_hooks(self) -> dict:
        counts = self.counts

        def automorphisms(result):
            counts["maps"] += len(result)

        def covered(result):
            counts["flags_covered"] += sum(result.covered)

        def audit(result):
            counts["audit_tuples"] += sum(
                sum(per_key.values()) for per_key in result.histogram.values()
            )

        def session(result):
            counts[f"sessions_{result.status}"] += 1

        def rendered(result):
            counts["bytes_out"] += len(result.encode("utf-8"))

        return {
            "subplane_cover.sample_automorphisms": automorphisms,
            "subplane_cover.cover_with_maps": covered,
            "ska_protocol.secrecy_audit": audit,
            "ska_protocol.run_session": session,
            "reporting.canonical_json": rendered,
            "reporting.render_csv": rendered,
        }

    def _count_enumerations(self, fn):
        """Add the flag count of every call that missed the plane cache."""
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = cache_info().misses if cache_info else None
            plane = fn(*args, **kwargs)
            if cache_info is None or cache_info().misses != before:
                self.counts["flags_enumerated"] += plane.counts()[2]
            return plane

        return counted

    def _patch(self, module: ModuleType, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        hooks = self._on_result_hooks()
        for layer, names in SPANNED.items():
            for fname in names:
                original = getattr(self.modules[layer], fname, None)
                if original is None:
                    continue  # entry point gone: its metrics read 0
                qualified = f"{layer}.{fname}"
                inner = original
                if qualified == "projective_plane.enumerate_plane":
                    inner = self._count_enumerations(original)
                wrapper = self._wrap(qualified, inner, hooks.get(qualified))
                for module in self.modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        self._patch(self.modules["halving_walk"], "zlib", _CountingZlib(self.counts))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    # -- one operation -------------------------------------------------------
    def run_operation(self, op_name: str, argv: list[str]):
        """Run one CLI command in process; return (exit code, stdout, stderr, seconds)."""
        for cached in self._caches:
            getattr(cached, "cache_clear", lambda: None)()
        out, err = io.StringIO(), io.StringIO()
        self._op = op_name
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with self.span("cli.main"):
                self.profile.enable()
                try:
                    code = self.modules["cli"].main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is a failed operation, not a crashed benchmark
                    traceback.print_exc()
                    code = 1
                finally:
                    self.profile.disable()
        seconds = time.perf_counter() - start
        self._op = None
        return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"), seconds

    # -- metrics -------------------------------------------------------------
    def _busy(self, matches) -> float:
        """Total time of matching spans, not counting those nested in another match."""
        total = 0.0
        for name, _, parent, start, end in self.spans:
            if not matches(name):
                continue
            while parent is not None and not matches(self.spans[parent][0]):
                parent = self.spans[parent][2]
            if parent is None:
                total += end - start
        return total

    def _profile_tables(self):
        files = {os.path.normcase(os.path.abspath(m.__file__)): layer
                 for layer, m in self.modules.items()}
        self_s = {layer: 0.0 for layer in LAYERS}
        calls: Counter = Counter()
        for (filename, _, func), (_, ncalls, tottime, _, _) in pstats.Stats(self.profile).stats.items():
            layer = files.get(os.path.normcase(os.path.abspath(filename)))
            if layer is None:  # builtins and code outside skalab
                continue
            self_s[layer] += tottime
            calls[(layer, func)] += ncalls
        return self_s, calls

    def metrics(self, overhead_s: float) -> dict[str, float]:
        self_s, calls = self._profile_tables()
        c = self.counts

        def busy(name):
            return self._busy(lambda n: n == name)

        images = calls[("subplane_cover", "apply")]
        values = {
            "finite_field.elt_ops": sum(calls[("finite_field", op)] for op in ELT_OPS),
            "projective_plane.enumerate_plane.busy_s": busy("projective_plane.enumerate_plane"),
            "projective_plane.enumerate_plane.calls":
                sum(1 for s in self.spans if s[0] == "projective_plane.enumerate_plane"),
            "projective_plane.flags_enumerated": c["flags_enumerated"],
            "projective_plane.canonicalize.calls": calls[("projective_plane", "canonicalize")],
            "incidence_graph.build_plane_graph.busy_s": busy("incidence_graph.build_plane_graph"),
            "incidence_graph.c4_free_check.busy_s": busy("incidence_graph.c4_free_check"),
            "incidence_graph.dense_subgraph_search.busy_s": busy("incidence_graph.dense_subgraph_search"),
            "incidence_graph.sdz_report.busy_s": busy("incidence_graph.sdz_report"),
            "subplane_cover.sample_automorphisms.busy_s": busy("subplane_cover.sample_automorphisms"),
            "subplane_cover.cover_with_maps.busy_s": busy("subplane_cover.cover_with_maps"),
            "subplane_cover.maps": c["maps"],
            "subplane_cover.draws_rejected":
                max(0, calls[("subplane_cover", "random_matrix")] - c["maps"]),
            "subplane_cover.images": images,
            "subplane_cover.useful_image_ratio": c["flags_covered"] / images if images else 0.0,
            "ska_protocol.secrecy_audit.busy_s": busy("ska_protocol.secrecy_audit"),
            "ska_protocol.audit_tuples": c["audit_tuples"],
            "ska_protocol.run_session.busy_s": busy("ska_protocol.run_session"),
            "ska_protocol.sessions_ok": c["sessions_ok"],
            "ska_protocol.sessions_chart_invalid": c["sessions_chart_invalid"],
            "ska_protocol.sessions_degenerate_h": c["sessions_degenerate_h"],
            "halving_walk.build_grid.busy_s": busy("halving_walk.build_grid"),
            "halving_walk.est_calls": calls[("halving_walk", "est")],
            "halving_walk.zlib_calls": c["zlib_calls"],
            "halving_walk.zlib_bytes_in": c["zlib_bytes_in"],
            "halving_walk.measured_lipschitz.busy_s": busy("halving_walk.measured_lipschitz"),
            "halving_walk.winding_number.busy_s": busy("halving_walk.winding_number"),
            "halving_walk.find_preimage.busy_s": busy("halving_walk.find_preimage"),
            "reporting.busy_s": self._busy(lambda n: n.startswith("reporting.")),
            "reporting.bytes_out": c["bytes_out"],
            "trace.overhead_s": overhead_s,
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self_s[layer]
        return {name: values[name] for name in METRICS}

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "op": op, "parent": parent, "start": start, "end": end}
            for name, op, parent, start, end in self.spans
        ]


def isolation_problems(workload: str, values: dict[str, float]) -> list[str]:
    """Metrics that should read 0 on this workload but do not."""
    prefixes = MUST_BE_ZERO[workload]
    exempt = ISOLATION_EXEMPT[workload]
    return [
        f"{name} = {value} on {workload}, expected 0"
        for name, value in values.items()
        if name.startswith(prefixes) and name not in exempt and value != 0
    ]

