"""Applications of RMGP: LAGP, TAGP, spatial index, multi-criteria costs."""

from repro.apps.evaluation import (
    SatisfactionReport,
    UserSatisfaction,
    attendance_gini,
    distance_percentiles,
    satisfaction_report,
    user_satisfaction,
)
from repro.apps.lagp import Event, LAGPResult, LAGPTask
from repro.apps.multicriteria import (
    Criterion,
    combine_criteria,
    criterion_breakdown,
    min_max_rescaled,
)
from repro.apps.streaming import (
    EpochStats,
    StreamingRecommender,
    simulate_stream,
)
from repro.apps.spatial import (
    Point,
    PointIndex,
    Rectangle,
    distance_matrix,
    euclidean,
    haversine_km,
)
from repro.apps.tagp import (
    Advertisement,
    DiscussionThread,
    TAGPTask,
    co_participation_graph,
    user_documents,
)
from repro.apps.tfidf import (
    TfIdfModel,
    cosine_dissimilarity,
    cosine_similarity,
    fit_tfidf,
    term_frequencies,
    tokenize,
)

__all__ = [
    "Advertisement",
    "Criterion",
    "DiscussionThread",
    "EpochStats",
    "Event",
    "StreamingRecommender",
    "simulate_stream",
    "LAGPResult",
    "LAGPTask",
    "Point",
    "PointIndex",
    "Rectangle",
    "SatisfactionReport",
    "TAGPTask",
    "UserSatisfaction",
    "attendance_gini",
    "distance_percentiles",
    "satisfaction_report",
    "user_satisfaction",
    "TfIdfModel",
    "co_participation_graph",
    "combine_criteria",
    "cosine_dissimilarity",
    "cosine_similarity",
    "criterion_breakdown",
    "distance_matrix",
    "euclidean",
    "fit_tfidf",
    "haversine_km",
    "min_max_rescaled",
    "term_frequencies",
    "tokenize",
    "user_documents",
]
