"""Out-of-program tracing: wrap public names of the package's modules.

The benchmark, not the program, records the spans.  ``Tracer.patch``
wraps one function and rebinds the wrapper in *every* module namespace
of the package that binds the same object (``acceptance.steklov_spectrum``
as well as ``fem.solve.steklov_spectrum``), so calls made through any
import path are seen.  ``Tracer.restore`` puts every original back.

A name (or module) that is gone is skipped: its span never appears
and the metrics built from it are absent, so a change that removes a
traced function does not crash the benchmark.

Spans are aggregated in memory as they close, per span name: calls,
total time and self time (total minus the time of spans opened inside
it).  The self times of all spans therefore add up to the total time of
the outermost spans.  Counts recorded at the same boundaries (factor
fill, eigenproblem sizes, mesh vertices) sit in ``Tracer.counts``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict


def _import(module: str):
    """The module, or None when it no longer exists."""
    try:
        return importlib.import_module(module)
    except ModuleNotFoundError:
        return None


class Tracer:
    def __init__(self, package: str, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        # span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.patched: set[str] = set()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        frame = [0.0]  # time of child spans
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            stat = self.spans[name]
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - frame[0]

    def wrap(self, fn, name: str, observe=None):
        """A function that calls fn in a span; observe may replace the result."""
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if observe is not None:
                result = observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__traced_by__ = tracer
        return traced

    # -- patching ---------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is not None and (mod_name == self.package or mod_name.startswith(prefix)):
                yield module

    def patch(self, module: str, attr: str, name: str, observe=None) -> bool:
        """Wrap module.attr everywhere the package binds it; False if absent."""
        original = getattr(_import(module), attr, None)
        if original is None or getattr(original, "__traced_by__", None) is self:
            return False
        wrapper = self.wrap(original, name, observe)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
        self.patched.add(name)
        return True

    def patch_method(self, module: str, cls: str, attr: str, name: str, observe=None) -> bool:
        """Wrap a method on its class; False if the class or method is absent."""
        klass = getattr(_import(module), cls, None)
        original = vars(klass).get(attr) if klass is not None else None
        if original is None or not callable(original):
            return False
        self._undo.append((klass, attr, original))
        setattr(klass, attr, self.wrap(original, name, observe))
        self.patched.add(name)
        return True

    def restore(self) -> None:
        """Rebind every patched name to its original, newest first."""
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# what to wrap in steklov_tubes

PACKAGE = "steklov_tubes"

_FUNCTIONS = {
    "bessel": (
        "iv_scaled", "kv_scaled", "iv_prime_scaled", "kv_prime_scaled",
        "bessel_iv", "bessel_kv", "bessel_iv_prime", "bessel_kv_prime",
    ),
    "radial": ("sigma_mixed", "mixed_spectrum", "sigma_annulus_pair", "sn_log_normalizer"),
    "families": (
        "truncated_spectrum", "family", "bracket", "expand_values", "rate_table",
        "rate_cases", "scaled_sigma", "rate_fit", "predicted_limit",
    ),
    "harmonics": ("transverse_spectrum", "load_scenario"),
    "spherecaps": ("sigma_zero", "sigma_pm", "determinant_residual", "full_spectrum", "ode_oracle"),
    "bounds": ("constant_C", "lower_bound_check", "upper_bound_limit"),
    "tables": ("write_csv", "write_json", "mode_rows"),
    "fem.mesh": ("mesh_planar", "mesh_torus_minus_disks"),
    "fem.solve": ("assemble", "boundary_mass", "steklov_spectrum", "neumann_spectrum"),
    "fem.checks": ("dirichlet_energy_check", "poincare_check", "metric_scaling_ratio_check"),
}

# scipy names bound in fem.solve, traced as the factor/eigensolve layers
_SOLVERS = {"splu": "fem.solve.factor", "eigh": "fem.solve.dense_eig", "eigsh": "fem.solve.sparse_eig"}


class _TracedLU:
    """SuperLU stand-in whose solve() runs in a span and counts columns."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        self._tracer.counts["fem.solve.lu_solve_rhs"] += 1 if rhs.ndim == 1 else rhs.shape[1]
        return self._tracer.call("fem.solve.lu_solve", self._lu.solve, rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _observe_factor(tracer, args, kwargs, lu):
    tracer.counts["fem.solve.factor_fill_nnz"] += lu.L.nnz + lu.U.nnz
    return _TracedLU(lu, tracer)


def _observe_dense(tracer, args, kwargs, result):
    key = "fem.solve.dense_eig_n"
    tracer.counts[key] = max(tracer.counts[key], args[0].shape[0])
    return result


def _observe_mesh(tracer, args, kwargs, mesh):
    tracer.counts["fem.mesh.vertices"] += mesh.num_vertices
    return mesh


def _observe_check(tracer, args, kwargs, result):
    tracer.counts["fem.checks.holds"] += bool(result.holds)
    return result


def _observe_acceptance(tracer, args, kwargs, results):
    for res in results:
        tracer.counts[f"acceptance.c{res.index:02d}_s"] += res.elapsed
        tracer.counts["acceptance.passed"] += bool(res.passed)
    return results


_OBSERVERS = {
    "fem.mesh.mesh_planar": _observe_mesh,
    "fem.mesh.mesh_torus_minus_disks": _observe_mesh,
    "fem.checks.dirichlet_energy_check": _observe_check,
    "fem.checks.poincare_check": _observe_check,
    "fem.checks.metric_scaling_ratio_check": _observe_check,
    "fem.solve.factor": _observe_factor,
    "fem.solve.dense_eig": _observe_dense,
    "acceptance.run": _observe_acceptance,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced name of steklov_tubes that exists right now."""
    targets = [(module, attr, f"{module}.{attr}") for module, names in _FUNCTIONS.items() for attr in names]
    targets += [("fem.solve", attr, span) for attr, span in _SOLVERS.items()]
    targets.append(("acceptance", "run", "acceptance.run"))
    for module, attr, span in targets:
        tracer.patch(f"{PACKAGE}.{module}", attr, span, _OBSERVERS.get(span))
    tracer.patch_method(f"{PACKAGE}.fem.mesh", "Mesh", "dof_map", "fem.mesh.dof_map")
