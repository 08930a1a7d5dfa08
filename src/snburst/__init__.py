"""Sync-and-Burst force-directed graph layout toolkit."""

from .graphs import (
    CentralityVector,
    Graph,
    GraphError,
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
from .layout import (
    DegenerateGraphError,
    DegenerateLayoutError,
    Layout,
    NumericError,
    RunRecord,
    initial_layout,
    normalize_layout,
)
from .snb import (
    SnbParams,
    compute_sync_param,
    log_magnitude,
    log_turning_point_magnitude,
    magnitude,
    snb_run,
    snb_step,
    sync_phase_iterations,
    total_magnitude_curve,
    turning_point_magnitude,
)
from .fr import FrParams, fr_run, fr_temperature
from .metrics import (
    MetricsReport,
    avg_adjacent_angle,
    avg_crossing_angle,
    compute_metrics,
    count_crossings,
    edge_length_stdev,
    find_crossings,
    min_pair_distance_scaled,
    vertex_distribution,
)
from .bench import BucketSummary, CorpusError, bucketize, run_corpus, run_one

__version__ = "0.1.0"
