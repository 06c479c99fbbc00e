"""Trimmed-mean benchmark rate forensics.

Four pieces, usable separately or through the ``ratefix`` CLI: an exact
decimal fixing engine, agglomerative clustering of submission series,
dendrogram-based anomaly flagging, and a seeded scenario simulator with
planted manipulation strategies.
"""

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
