"""Outside-in tracer for the depthbound layers.

The library itself carries no timers, so this module wraps its functions from
the outside: every ``depthbound.*`` namespace that holds the traced function
object (including ``from ... import`` aliases such as those in ``cli``) gets
the wrapper, methods are replaced on their classes, and ``numpy.linalg.eigh``
and ``eigvalsh`` are wrapped in ``numpy.linalg``.  Each call records one span
``(id, parent id, name, start, end, tag)`` in memory; the parent is the
innermost open span of the same thread.  Spans opened on other threads than
the caller's have no parent, so self times are exact only for single-threaded
runs, which is how the benchmark traces.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict


def _matrix_dim(args, kwargs) -> int:
    a = args[0] if args else kwargs["a"]
    return int(a.shape[-1])


def _hamiltonian_key(args, kwargs) -> str:
    ham = args[0]
    return repr((ham.n_sites, ham.terms))


def _chain_key(args, kwargs) -> str:
    n = args[0] if args else kwargs["n"]
    g = args[1] if len(args) > 1 else kwargs["g"]
    return repr((int(n), float(g)))


#: (metric prefix, module, attribute, tag function).  The first part of the
#: prefix is the layer; a dotted attribute is a method on a class.
TARGETS = (
    ("models.to_matrix", "depthbound.models", "SpinHamiltonian.to_matrix", _hamiltonian_key),
    ("models.gibbs_state", "depthbound.models", "gibbs_state", None),
    ("linalg.eigh", "numpy.linalg", "eigh", _matrix_dim),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh", None),
    ("linalg.schur", "depthbound.fermion", "schur", None),
    ("purification.canonical_purification", "depthbound.purification", "canonical_purification", None),
    ("purification.apply_measurement", "depthbound.purification", "apply_measurement", None),
    ("purification.holevo_information", "depthbound.purification", "holevo_information", None),
    ("perturbative.chi2_general", "depthbound.perturbative", "chi2_general", None),
    ("perturbative.lieb_T_map", "depthbound.perturbative", "lieb_T_map", None),
    ("perturbative.build_xi", "depthbound.perturbative", "build_xi", None),
    ("perturbative.chi2_E_spectral", "depthbound.perturbative", "chi2_E_spectral", None),
    ("states.StateVector.reduced", "depthbound.states", "StateVector.reduced", None),
    ("states.DensityOperator.reduced", "depthbound.states", "DensityOperator.reduced", None),
    ("states.embed_operator", "depthbound.states", "embed_operator", None),
    ("states.apply_on_sites", "depthbound.states", "apply_on_sites", None),
    ("states.von_neumann_entropy", "depthbound.states", "von_neumann_entropy", None),
    ("fermion.bdg_diagonalize", "depthbound.fermion", "bdg_diagonalize", _chain_key),
    ("fermion.BogoliubovSpectrum.check", "depthbound.fermion", "BogoliubovSpectrum.__post_init__", None),
    ("fermion.thermal_covariance", "depthbound.fermion", "thermal_covariance", None),
    ("fermion.MajoranaCovariance.check", "depthbound.fermion", "MajoranaCovariance.__post_init__", None),
    ("fermion.weak_x_lines", "depthbound.fermion", "weak_x_lines", None),
    ("fermion.chi2_E_quadratic", "depthbound.fermion", "chi2_E_quadratic", None),
    ("fermion.connected_xx", "depthbound.fermion", "connected_xx", None),
    ("cft.fit_kappa", "depthbound.cft", "fit_kappa", None),
    ("cft.k2_cft", "depthbound.cft", "k2_cft", None),
    ("cft.chi2_E_cft", "depthbound.cft", "chi2_E_cft", None),
    ("bounds.approx_verdict", "depthbound.bounds", "approx_verdict", None),
    ("bounds.exact_verdict", "depthbound.bounds", "exact_verdict", None),
)

#: Name of the root span around ``cli.main``; its self time is the CLI's own
#: work (parsing, row assembly, formatting, writing).
ROOT = "cli"

#: Targets whose tag identifies the model; ``<prefix>.per_model`` is calls
#: per distinct model.
PER_MODEL = ("models.to_matrix", "fermion.bdg_diagonalize")

LAYERS = tuple(dict.fromkeys(prefix.split(".")[0] for prefix, *_ in TARGETS))


class Tracer:
    """Span recorder; ``install`` patches the targets, ``uninstall`` undoes it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, tag=None):
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            label = tag(args, kwargs) if tag is not None else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end, label))

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; ``depthbound`` must already be imported."""
        for name, module_name, attr, tag in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self.wrap(name, cls.__dict__[method], tag))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, tag)
            self._patch(module, attr, wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod is module or not (mod_name == "depthbound" or mod_name.startswith("depthbound.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def layer_metrics(span_lists) -> dict[str, float]:
    """Aggregate spans of one or more processes into per-layer metrics.

    A span's self time is its duration minus the durations of its direct
    children; ``<layer>.self_s`` sums the self times of the layer's targets.
    Model tags are pooled across processes, so ``per_model`` counts a model
    once however many commands build it.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    tags: dict[str, set] = defaultdict(set)
    work_d3 = 0
    dim_max = 0
    for spans in span_lists:
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for span_id, _, name, start, end, tag in spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[span_id]
            if name in PER_MODEL:
                tags[name].add(tag)
            elif name == "linalg.eigh":
                work_d3 += tag**3
                dim_max = max(dim_max, tag)
    out: dict[str, float] = {}
    for layer in LAYERS:
        prefixes = [prefix for prefix, *_ in TARGETS if prefix.split(".")[0] == layer]
        for prefix in prefixes:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.self_s"] = self_s[prefix]
            if prefix in PER_MODEL:
                out[f"{prefix}.per_model"] = calls[prefix] / len(tags[prefix]) if tags[prefix] else 0
            if prefix == "linalg.eigh":
                out["linalg.eigh.work_d3"] = work_d3
                out["linalg.eigh.dim_max"] = dim_max
        out[f"{layer}.self_s"] = sum(self_s[prefix] for prefix in prefixes)
    out[f"{ROOT}.self_s"] = self_s[ROOT]
    return out


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in report order."""
    return list(layer_metrics([]))
