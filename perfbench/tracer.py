"""Wrap-and-rebind tracer for the three entropylab layers.

Every function or ``lru_cache`` wrapper that a module
``entropylab.<layer>.<module>`` lists in ``__all__`` is replaced by a
wrapper that records a span, in every ``entropylab`` module namespace
that holds it.  Calls made through any import path are therefore caught:
``runner -> entropy_deficit -> product_state_relative_entropy ->
region_entropy`` gives four nested spans.  ``restore()`` puts every
original binding back.

Spans are kept in memory.  Run as a script, this module executes one
traced CLI invocation and writes its spans as JSON:

    python3 perfbench/tracer.py --spans out.json --run-id r0 -- fermion duality --config x.ini
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import pkgutil
import resource
import sys
import time
from dataclasses import asdict, dataclass, field

PACKAGE = "entropylab"
LAYERS = ("lattice", "findim", "harness")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    rss_start_kb: int
    rss_end_kb: int
    attrs: dict = field(default_factory=dict)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _is_traceable(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def layer_modules() -> list:
    """Import and return every layer package and its modules."""
    modules = []
    for layer in LAYERS:
        package = importlib.import_module(f"{PACKAGE}.{layer}")
        modules.append(package)
        for info in pkgutil.iter_modules(package.__path__):
            modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return modules


def public_callables() -> dict[int, tuple[str, object]]:
    """id -> (span name, object) for every traceable name listed in an ``__all__``.

    Names re-exported by a layer package count too (``harness/config.py``
    has no ``__all__`` of its own).  A span is named after the module that
    defines the object: ``lattice.gaussian.region_entropy``.
    """
    found = {}
    for module in layer_modules():
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if _is_traceable(obj) and obj.__module__.startswith(PACKAGE + "."):
                span_name = obj.__module__[len(PACKAGE) + 1 :] + "." + obj.__name__
                found[id(obj)] = (span_name, obj)
    return found


# Extra span attributes for the few calls whose arguments or results the
# per-layer metrics need.
def _region_entropy_probe(args, kwargs, result) -> dict:
    corr = args[0] if args else kwargs["corr"]
    sites = args[1] if len(args) > 1 else kwargs["sites"]
    return {"n": int(corr.n_sites), "sites": sorted(int(s) for s in sites)}


def _correlations_probe(args, kwargs, result) -> dict:
    return {"n": int(args[0] if args else kwargs["n_sites"])}


def _lookup_probe(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _write_probe(args, kwargs, result) -> dict:
    return {"bytes": sum(path.stat().st_size for path in result)}


PROBES = {
    "lattice.gaussian.region_entropy": _region_entropy_probe,
    "lattice.gaussian.ground_state_correlations": _correlations_probe,
    "harness.cache.cache_lookup": _lookup_probe,
    "harness.reporting.write_report": _write_probe,
}


class Tracer:
    """Records one span per call of a wrapped function (single-threaded)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                name=name,
                start=0.0,
                end=0.0,
                parent=self._stack[-1] if self._stack else None,
                run_id=self.run_id,
                rss_start_kb=_maxrss_kb(),
                rss_end_kb=0,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            misses = cache_info().misses if cache_info else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.rss_end_kb = _maxrss_kb()
            if cache_info:
                span.attrs["computed"] = cache_info().misses > misses
            if probe:
                span.attrs.update(probe(args, kwargs, result))
            return result

        if cache_info:
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self) -> None:
        targets = public_callables()
        wrappers: dict[int, object] = {}
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                target = targets.get(id(value))
                if target is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(*target)
                self._bindings.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def restore(self) -> None:
        for module, attr, value in reversed(self._bindings):
            setattr(module, attr, value)
        self._bindings.clear()


# ---------------------------------------------------------------------------
# analysis of recorded spans


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return [
        (span["end"] - span["start"]) - covered(children.get(k, ()))
        for k, span in enumerate(spans)
    ]


def repeat_share(calls: list[tuple[int, list[int]]]) -> float:
    """Share of region-entropy calls whose spectrum an earlier call fixed.

    ``calls`` holds (N, sorted sites) in call order.  An earlier call of the
    same N fixes the spectrum of the same site set, of its complement (the
    ground state is pure) and, when the sites form one cyclic arc, of every
    arc with the same site count (translation invariance).
    """
    if not calls:
        return 0.0
    seen: set = set()
    repeats = 0
    for n, sites in calls:
        site_set = frozenset(sites)
        complement = frozenset(range(n)) - site_set
        keys = {(n, site_set), (n, complement)}
        if _is_cyclic_arc(site_set, n):
            keys |= {(n, "arc", len(site_set)), (n, "arc", n - len(site_set))}
        if keys & seen:
            repeats += 1
        seen |= keys
    return repeats / len(calls)


def _is_cyclic_arc(sites: frozenset, n: int) -> bool:
    """True when the sites are consecutive modulo n."""
    if not sites or len(sites) == n:
        return bool(sites)
    starts = [s for s in sites if (s - 1) % n not in sites]
    return len(starts) == 1


def layer_metrics(invocations: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics over the span lists of one or more invocations."""
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    module_self: dict[str, float] = {}
    rss_rise = {layer: 0.0 for layer in LAYERS}
    region_calls = []
    corr_hits = corr_calls = 0
    corr_bytes = 0
    lookups = hits = 0
    bytes_written = 0

    for spans in invocations:
        own = self_times(spans)
        by_name: dict[str, list[tuple[float, float]]] = {}
        rise = {layer: 0 for layer in LAYERS}
        for span, own_s in zip(spans, own):
            name = span["name"]
            layer = name.split(".", 1)[0]
            module = name.rsplit(".", 1)[0]
            self_s[name] = self_s.get(name, 0.0) + own_s
            module_self[module] = module_self.get(module, 0.0) + own_s
            calls[name] = calls.get(name, 0) + 1
            by_name.setdefault(name, []).append((span["start"], span["end"]))
            parent = span["parent"]
            if parent is None or not spans[parent]["name"].startswith(layer + "."):
                rise[layer] += span["rss_end_kb"] - span["rss_start_kb"]
            attrs = span["attrs"]
            if name == "lattice.gaussian.ground_state_correlations":
                corr_calls += 1
                if attrs["computed"]:
                    corr_bytes += 16 * attrs["n"] ** 2
                else:
                    corr_hits += 1
            elif name == "lattice.gaussian.region_entropy":
                region_calls.append((attrs["n"], attrs["sites"]))
            elif name == "harness.cache.cache_lookup":
                lookups += 1
                hits += attrs["hit"]
            elif name == "harness.reporting.write_report":
                bytes_written += attrs["bytes"]
        for name, intervals in by_name.items():
            total_s[name] = total_s.get(name, 0.0) + covered(intervals)
        for layer in LAYERS:
            rss_rise[layer] = max(rss_rise[layer], rise[layer] / 1024.0)

    def s(name):
        return self_s.get(name, 0.0)

    def t(name):
        return total_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    g = "lattice.gaussian."
    return {
        g + "ground_state_correlations.self_s": s(g + "ground_state_correlations"),
        g + "ground_state_correlations.calls": n(g + "ground_state_correlations"),
        g + "corr_cache_hit_ratio": corr_hits / corr_calls if corr_calls else 0.0,
        g + "corr_bytes_computed": corr_bytes,
        g + "region_entropy.self_s": s(g + "region_entropy"),
        g + "region_entropy.calls": n(g + "region_entropy"),
        g + "eigh_sites_cubed": sum(len(sites) ** 3 for _, sites in region_calls),
        g + "region_entropy.repeat_share": repeat_share(region_calls),
        "lattice.deficit.entropy_deficit.self_s": s("lattice.deficit.entropy_deficit"),
        "lattice.circle.self_s": module_self.get("lattice.circle", 0.0),
        "lattice.scaling.self_s": module_self.get("lattice.scaling", 0.0),
        "lattice.rss_rise_mb": rss_rise["lattice"],
        "findim.expectations.group_average_expectation.self_s": s(
            "findim.expectations.group_average_expectation"
        ),
        "findim.expectations.group_average_expectation.calls": n(
            "findim.expectations.group_average_expectation"
        ),
        "findim.algebras.algebra_from_basis.self_s": s("findim.algebras.algebra_from_basis"),
        "findim.algebras.algebra_from_basis.calls": n("findim.algebras.algebra_from_basis"),
        "findim.identities.random_difference_instance.total_s": t(
            "findim.identities.random_difference_instance"
        ),
        "findim.identities.random_chain_instance.total_s": t(
            "findim.identities.random_chain_instance"
        ),
        "findim.rss_rise_mb": rss_rise["findim"],
        "findim.spatial.relative_entropy_spatial.self_s": s(
            "findim.spatial.relative_entropy_spatial"
        ),
        "findim.spatial.relative_entropy_spatial.calls": n(
            "findim.spatial.relative_entropy_spatial"
        ),
        "findim.identities.entropy_difference_identity.total_s": t(
            "findim.identities.entropy_difference_identity"
        ),
        "findim.identities.entropy_additivity_chain.total_s": t(
            "findim.identities.entropy_additivity_chain"
        ),
        "findim.identities.check_entropy_identity.total_s": t(
            "findim.identities.check_entropy_identity"
        ),
        "findim.index.kosaki_index.total_s": t("findim.index.kosaki_index"),
        "harness.config.parse_config.self_s": s("harness.config.parse_config"),
        "harness.cache.cache_lookup.self_s": s("harness.cache.cache_lookup"),
        "harness.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "harness.cache.cache_store.self_s": s("harness.cache.cache_store"),
        "harness.reporting.write_report.self_s": s("harness.reporting.write_report"),
        "harness.reporting.bytes_written": bytes_written,
        "harness.reporting.format_report.self_s": s("harness.reporting.format_report"),
        "harness.runner.run_experiment.total_s": t("harness.runner.run_experiment"),
    }


def layer_self_totals(invocations: list[list[dict]]) -> dict[str, float]:
    """Self time summed per layer, for the attribution summary."""
    totals = {layer: 0.0 for layer in LAYERS}
    for spans in invocations:
        for span, own_s in zip(spans, self_times(spans)):
            totals[span["name"].split(".", 1)[0]] += own_s
    return totals


# ---------------------------------------------------------------------------
# one traced invocation, run in a fresh process


def blas_warmup() -> float:
    """Start the BLAS thread pool and LAPACK paths before anything is traced."""
    import numpy as np

    start = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((192, 192)) * (1 + 1j)
    np.linalg.eigvalsh(a + a.conj().T)
    np.linalg.svd(a)
    np.linalg.qr(a @ a)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one traced entropylab CLI call.")
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    warmup_s = blas_warmup()
    from entropylab.harness import cli

    tracer = Tracer(args.run_id)
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(
            {"code": code, "warmup_s": warmup_s, "spans": [asdict(s) for s in tracer.spans]},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
