"""Sync-and-Burst force-directed graph layout toolkit.

The graph names (generators, parsers, writers, betweenness and the error
types) load with the package; they need no numpy.  Every other public name,
and every submodule, is imported on first access, so code that only makes
or converts graphs never loads numpy.
"""

import importlib as _importlib

from .graphs import (
    CentralityVector,
    DegenerateGraphError,
    DegenerateLayoutError,
    Graph,
    GraphError,
    NumericError,
    ParseError,
    betweenness,
    gen_heawood,
    gen_lcf,
    gen_queen,
    gen_scale_free,
    gen_wagner,
    parse_edge_list,
    parse_graphml,
    write_edge_list,
    write_graphml,
)

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  The `graphs` names are
# imported above; the others are imported on first access.
_OWNER = {
    name: module
    for module, names in {
        "graphs": (
            "CentralityVector",
            "DegenerateGraphError",
            "DegenerateLayoutError",
            "Graph",
            "GraphError",
            "NumericError",
            "ParseError",
            "betweenness",
            "gen_heawood",
            "gen_lcf",
            "gen_queen",
            "gen_scale_free",
            "gen_wagner",
            "parse_edge_list",
            "parse_graphml",
            "write_edge_list",
            "write_graphml",
        ),
        "layout": ("Layout", "RunRecord", "initial_layout", "normalize_layout"),
        "snb": (
            "SnbParams",
            "compute_sync_param",
            "log_magnitude",
            "log_turning_point_magnitude",
            "magnitude",
            "snb_run",
            "snb_step",
            "sync_phase_iterations",
            "total_magnitude_curve",
            "turning_point_magnitude",
        ),
        "fr": ("FrParams", "fr_run", "fr_temperature"),
        "metrics": (
            "MetricsReport",
            "avg_adjacent_angle",
            "avg_crossing_angle",
            "compute_metrics",
            "count_crossings",
            "edge_length_stdev",
            "find_crossings",
            "min_pair_distance_scaled",
            "vertex_distribution",
        ),
        "bench": ("BucketSummary", "CorpusError", "bucketize", "run_corpus", "run_one"),
    }.items()
    for name in names
}

_SUBMODULES = ("bench", "cli", "fr", "graphs", "layout", "metrics", "render", "rng", "snb")

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_OWNER, *_SUBMODULES})
