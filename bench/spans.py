"""Span recorder that times every call into a hitchinlab layer from outside.

``Tracer.install`` replaces each public function of the layer modules with a
wrapper, wherever a module namespace (or the CLI command table) holds it, so
calls between modules and within a module all pass through the wrappers.
Spans stay in memory as tuples and are written out once, after the workload.
Nothing here edits the package's source.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("special", "painleve", "fiducial", "gauge", "linearized", "gluing",
          "topology", "cli")

# Third-party calls counted where a layer looks them up: the ODE integrator
# behind each profile shot and the banded solve behind each Newton step.
COUNTED_LOOKUPS = {
    ("painleve", "solve_ivp"): "painleve.ode_solves",
    ("gluing", "solve_banded"): "gluing.newton_iters",
}

# Spans whose inclusive time is reported, keyed by metric name.
INCLUSIVE = {
    "special.busy_s": ("special.bessel_k0", "special.bessel_k1",
                       "special.bessel_j0", "special.bessel_j0_first_zero"),
    "painleve.solve_s": ("painleve.solve_connection",),
    "painleve.eval_s": ("painleve.psi_eval", "painleve.psi_log_derivatives"),
    "fiducial.build_s": ("fiducial.build_family",),
    "gauge.orbit_s": ("gauge.verify_orbit_finite_t", "gauge.verify_orbit_limiting"),
    "linearized.assemble_s": ("linearized.assemble_block", "linearized.assemble_scalar",
                              "linearized.assemble_vertical_block"),
    "linearized.eig_s": ("linearized.smallest_eigenvalue",),
    "linearized.surrogate_s": ("linearized.h2_surrogate_norm",),
    "gluing.build_s": ("gluing.build_glued",),
    "gluing.newton_s": ("gluing.newton_correct",),
    "topology.build_s": ("topology.build_complex",),
    "topology.rank_s": ("topology.twisted_cohomology_dims",),
    "cli.solve-psi_s": ("cli.cmd_solve_psi",),
    "cli.fiducial_s": ("cli.cmd_fiducial",),
    "cli.glue_s": ("cli.cmd_glue",),
    "cli.indicial_s": ("cli.cmd_indicial",),
    "cli.spectrum_s": ("cli.cmd_spectrum",),
    "cli.torus_s": ("cli.cmd_torus",),
}

# Span counts reported as work done, keyed by metric name.
CALLS = {
    "special.k_calls": ("special.bessel_k0", "special.bessel_k1"),
    "painleve.solves": ("painleve.solve_connection",),
    "painleve.eval_calls": ("painleve.psi_eval", "painleve.psi_log_derivatives"),
    "fiducial.builds": ("fiducial.build_family",),
    "gauge.orbit_checks": ("gauge.verify_orbit_finite_t", "gauge.verify_orbit_limiting"),
    "linearized.blocks": INCLUSIVE["linearized.assemble_s"],
    "linearized.eig_solves": ("linearized.smallest_eigenvalue",),
    "linearized.surrogate_calls": ("linearized.h2_surrogate_norm",),
    "gluing.builds": ("gluing.build_glued",),
    "gluing.newton_calls": ("gluing.newton_correct",),
    "topology.complexes": ("topology.build_complex",),
}

# Counts read from a call's arguments: points per Bessel call, coboundary
# rows (one per edge of the spine) per cohomology computation.
ARG_COUNTS = {
    "special.bessel_k0": ("special.k_points", lambda args: _size(args[0])),
    "special.bessel_k1": ("special.k_points", lambda args: _size(args[0])),
    "topology.twisted_cohomology_dims": ("topology.coboundary_rows",
                                         lambda args: args[0].edges),
}

COUNTERS = ("special.k_points", "topology.coboundary_rows", "painleve.ode_solves",
            "gluing.newton_iters", "gluing.newton_failed", "cli.bytes_written")

# Accuracy co-metrics; the workload's checks fill them in, zero where a
# workload does not exercise the layer.
ACCURACY = ("painleve.mismatch", "painleve.residual_max", "painleve.a0_relerr",
            "painleve.lambda_relerr", "fiducial.residual_max", "gauge.discrepancy_max",
            "linearized.oracle_relerr", "linearized.surrogate_relerr",
            "gluing.residual_post_max")

SELF_TIMES = tuple(f"{layer}.self_s" for layer in LAYERS)


def _size(x) -> int:
    return int(getattr(x, "size", 1))  # arrays and numpy scalars; 1 for a float


def per_layer_units() -> dict:
    """Every metric a traced run reports, in a fixed order, with its unit."""
    units = dict.fromkeys(CALLS, "count")
    units.update(dict.fromkeys(INCLUSIVE, "s"))
    units.update(dict.fromkeys(COUNTERS, "count"))
    units["cli.bytes_written"] = "bytes"
    units.update(dict.fromkeys(ACCURACY, "1"))
    units.update(dict.fromkeys(("linearized.green_norms_self_s", *SELF_TIMES), "s"))
    units.update({"trace.spans": "count", "trace.wall_s": "s", "trace.bench_self_s": "s",
                  "trace.overhead_s": "s"})
    return units


class Tracer:
    """Records (id, parent, name, start, end, raised) spans and counters."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._restore = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        arg_count = ARG_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end, raised)
                if arg_count is not None:
                    counts[arg_count[0]] += arg_count[1](args)

        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every public function of every layer module, everywhere bound."""
        modules = {layer: importlib.import_module(f"hitchinlab.{layer}") for layer in LAYERS}
        package = importlib.import_module("hitchinlab")
        replace = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    replace[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in list(modules.values()) + [package]:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    self._set(mod, attr, replace[id(value)])
        for (layer, attr), key in COUNTED_LOOKUPS.items():
            self._set(modules[layer], attr, self._counted(key, getattr(modules[layer], attr)))
        table = modules["cli"].COMMANDS
        for key, fn in list(table.items()):
            if id(fn) in replace:
                self._restore.append((table.__setitem__, key, fn))
                table[key] = replace[id(fn)]

    def _set(self, mod, attr: str, value) -> None:
        self._restore.append((functools.partial(setattr, mod), attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    def metrics(self, clock, wall_start: float, wall_end: float) -> dict:
        """Counts, inclusive and self times per layer; accuracy is added by the caller.

        Times are read off ``clock``, a function of ``perf_counter`` time.
        """
        spans = [(span_id, parent, name, clock(start), clock(end), raised)
                 for span_id, parent, name, start, end, raised in self.spans]
        wall_s = clock(wall_end) - clock(wall_start)
        child_time = [0.0] * len(spans)
        for _, parent, _, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(per_layer_units(), 0.0)
        names = {}
        for span_id, parent, name, start, end, raised in spans:
            names.setdefault(name, []).append((span_id, parent, end - start, raised))
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += end - start - child_time[span_id]
        for metric, fns in CALLS.items():
            out[metric] = sum(len(names.get(fn, ())) for fn in fns)
        for metric, fns in INCLUSIVE.items():
            wanted = set(fns)
            # a span nested in another span of the same set is already counted
            out[metric] = sum(
                duration for fn in fns for _, parent, duration, _ in names.get(fn, ())
                if parent < 0 or spans[parent][2] not in wanted
            )
        green = names.get("linearized.green_norms", ())
        out["linearized.green_norms_self_s"] = sum(
            duration - child_time[span_id] for span_id, _, duration, _ in green)
        self.counts["gluing.newton_failed"] = sum(
            raised for _, _, _, raised in names.get("gluing.newton_correct", ()))
        out.update(self.counts)
        top = sum(end - start for _, parent, _, start, end, _ in spans if parent < 0)
        out["trace.spans"] = len(spans)
        out["trace.wall_s"] = wall_s
        out["trace.bench_self_s"] = wall_s - top
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
