"""In-memory spans around the public entry points of each tripler layer.

The tracer replaces a fixed list of module attributes with timing wrappers
inside the benchmark process only; no program file changes.  Every module
binding of a target is replaced, so intra-module calls (visible_threshold
-> predict_max_output), cross-module calls (calibration ->
circuit.mode_profile) and names imported with ``from ... import`` (the CLI's
``load_device_config``) are all seen.  Hot inner helpers are deliberately
absent: ``subharmonic_branches`` alone runs some 20 000 times per solve.

A span is ``[name, start, end, parent, op, attrs, failed]``; spans stay in
memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import sys
import time

#: "<module>.<function>" of every wrapped entry point
TARGETS = (
    "circuit.mode_profile",
    "circuit.device_point",
    "steady.solve_selfconsistent",
    "steady.stability",
    "calibration.visible_threshold",
    "calibration.predict_max_output",
    "calibration.fit_x",
    "calibration.region_map",
    "dynamics.integrate",
    "dynamics.switching_rate",
    "dynamics.demodulate_histogram",
    "io.atomic_write_bytes",
    "io.write_trajectory",
    "io.read_trajectory",
    "io.write_trajectory_csv",
    "io.read_trajectory_csv",
    "io.write_histogram_csv",
    "io.read_histogram_csv",
    "io.write_linecut_csv",
    "io.read_linecut_csv",
    "io.write_fit_report",
    "config.load_device_config",
    "config.parse_device_config",
    "config.dump_device_config",
    "cli.main",
)

LAYERS = ("circuit", "steady", "calibration", "dynamics", "io", "config", "cli")

NAME, START, END, PARENT, OP, ATTRS, FAILED = range(7)


def _integrate_attrs(bound, result):
    a = bound.arguments
    steps = int(round(a["duration"] / a["dt"]))
    members = int(result.a1.size // max(result.a1.shape[0], 1))
    scheme = "rk4" if a.get("noise") is None else "em"
    return {"scheme": scheme, "member_steps": steps * members}


def _written_attrs(bound, result):
    return {"bytes_written": len(bound.arguments["payload"])}


def _read_attrs(bound, result):
    path = str(bound.arguments["path"])
    size = os.path.getsize(path)
    sidecar = path + ".meta.json"       # linecuts carry one
    if os.path.exists(sidecar):
        size += os.path.getsize(sidecar)
    return {"bytes_read": size}


def _solve_attrs(bound, result):
    return {"triad_roots": sum(s.kind == "triad" for s in result) // 3}


_ANNOTATE = {
    "dynamics.integrate": _integrate_attrs,
    "io.atomic_write_bytes": _written_attrs,
    "io.read_trajectory": _read_attrs,
    "io.read_trajectory_csv": _read_attrs,
    "io.read_histogram_csv": _read_attrs,
    "io.read_linecut_csv": _read_attrs,
    "steady.solve_selfconsistent": _solve_attrs,
}


class Tracer:
    """Records spans while installed, each tagged with the current operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        annotate = _ANNOTATE.get(name)
        signature = inspect.signature(fn) if annotate else None
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None,
                    False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span[ATTRS] = annotate(signature.bind(*args, **kwargs), result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def start_op(self, op_id):
        self.op = op_id

    def install(self):
        """Wrap every target in every loaded tripler module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tripler" or n.startswith("tripler.")]
        for target in TARGETS:
            mod_name, func_name = target.split(".")
            mod = sys.modules.get(f"tripler.{mod_name}")
            fn = getattr(mod, func_name, None) if mod is not None else None
            if not callable(fn):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, fn)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "op": s[OP], "attrs": s[ATTRS],
                                     "failed": s[FAILED]}) + "\n")


def layer_metrics(spans):
    """Per-layer self time, failures, call counts and latencies from spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s = dict.fromkeys(LAYERS, 0.0)
    failed = dict.fromkeys(LAYERS, 0)
    durations = {}
    attrs = {}
    for i, s in enumerate(spans):
        layer = s[NAME].split(".")[0]
        dur = s[END] - s[START]
        self_s[layer] += dur - child[i]
        failed[layer] += s[FAILED]
        durations.setdefault(s[NAME], []).append(dur)
        if s[ATTRS]:
            attrs.setdefault(s[NAME], []).append((dur, s[ATTRS]))

    def attr_sum(prefix, key):
        return sum(a[key] for name, lst in attrs.items()
                   if name.startswith(prefix) for _, a in lst if key in a)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.failed"] = failed[layer]
    for name in ("circuit.mode_profile", "circuit.device_point",
                 "steady.solve_selfconsistent", "steady.stability",
                 "calibration.visible_threshold",
                 "calibration.predict_max_output"):
        out[f"{name}.calls"] = len(durations.get(name, ()))
    for name, unit in (("circuit.mode_profile", "us"),
                       ("steady.solve_selfconsistent", "ms"),
                       ("calibration.visible_threshold", "ms"),
                       ("calibration.fit_x", "ms"),
                       ("calibration.region_map", "ms"),
                       ("dynamics.switching_rate", "ms"),
                       ("dynamics.demodulate_histogram", "ms"),
                       ("io.write_trajectory", "ms"),
                       ("io.read_trajectory", "ms"),
                       ("io.write_trajectory_csv", "ms"),
                       ("io.read_trajectory_csv", "ms")):
        d = durations.get(name)
        scale = 1e6 if unit == "us" else 1e3
        out[f"{name}.p50_{unit}"] = statistics.median(d) * scale if d else 0.0
    solves = out["steady.solve_selfconsistent.calls"]
    roots = attr_sum("steady.solve_selfconsistent", "triad_roots")
    out["steady.triad_roots"] = roots
    out["steady.roots_per_solve"] = roots / solves if solves else 0.0
    integ = attrs.get("dynamics.integrate", ())
    for scheme in ("rk4", "em"):
        busy = sum(d for d, a in integ if a["scheme"] == scheme)
        steps = sum(a["member_steps"] for _, a in integ if a["scheme"] == scheme)
        out[f"dynamics.integrate.{scheme}.us_per_member_step"] = \
            1e6 * busy / steps if steps else 0.0
    out["dynamics.integrate.member_steps"] = attr_sum("dynamics.integrate",
                                                      "member_steps")
    out["io.bytes_written"] = attr_sum("io.", "bytes_written")
    out["io.bytes_read"] = attr_sum("io.", "bytes_read")
    return out
