"""Trimmed-mean benchmark rate forensics.

Four pieces, usable separately or through the ``ratefix`` CLI: an exact
decimal fixing engine, agglomerative clustering of submission series,
dendrogram-based anomaly flagging, and a seeded scenario simulator with
planted manipulation strategies.
"""

import os as _os
import sys as _sys

# numpy's OpenBLAS starts a worker thread per core when it loads, which costs
# every short ratefix process tens of milliseconds, and splits a long ``dot``
# across threads, so distance bits would follow the core count.  Every BLAS
# call here is one short ``dot`` per bank pair, so one thread loses nothing.
# OpenBLAS reads the variable only when it loads: a thread count the caller
# chose, or a numpy already loaded, is left alone, and the variable is gone
# again before any child process could inherit it.
if "numpy" not in _sys.modules and not any(
        name in _os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .anomaly import (
    ADVISORY,
    OVERALL_LABEL,
    AnomalyReport,
    CollusionCaveat,
    IsolationScore,
    PanelTooSmallError,
    RateTable,
    average_daily_rates,
    collusion_caveat_report,
    flag_anomalies,
    isolation_scores,
)
from .cluster import (
    DegeneratePanelError,
    Dendrogram,
    DistanceMatrix,
    InvalidClusterDataError,
    InvalidKError,
    Linkage,
    Merge,
    NonFiniteValueError,
    agglomerate,
    cut,
    distance_matrix,
)
from .config import CONFIG_ENV_VAR, RunConfig
from .errors import DataError
from .fixing import (
    EmptyAfterTrimError,
    FixingConfig,
    FixingResult,
    NonFiniteQuoteError,
    compute_fixing,
    influence_envelope,
    round_half_up,
    single_bank_impact,
)
from .panel import (
    DuplicateSubmissionError,
    EmptyWindowError,
    MissingDataPolicy,
    PanelWarning,
    PanelWindow,
    Submission,
    SubmissionFormatError,
    SubmissionTable,
    Tenor,
    build_window,
    read_submissions_csv,
    submissions_to_csv_text,
)
from .serialize import (
    canonical_json,
    fixing_to_obj,
    format_number,
    report_to_obj,
    write_text_atomic,
)
from .simulate import (
    BaseCurve,
    CollusiveQuote,
    FixingSeries,
    InvalidStrategyTargetError,
    ScenarioConfig,
    SimulatedPanel,
    SingleFixed,
    SingleOffset,
    bank_labels,
    fixing_series,
    generate,
    parse_strategy,
    simulate_panel,
    truth_to_csv_text,
)
from .treeio import dendrogram_from_obj, merges_to_obj, to_dot, to_newick

__version__ = "0.1.0"
