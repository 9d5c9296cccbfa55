"""Entrance-time, return-time and Renyi-entropy statistics for shifts."""

from .automata import build_automaton
from .errors import (
    BadThetaRange,
    BudgetExceeded,
    CensoringExceeded,
    EmptyInput,
    GridTooCoarse,
    HitstatError,
    InvalidSymbol,
    IoFailure,
    NonPositiveS,
    NonStochasticRow,
    ReducibleChain,
    SequenceTooShort,
    TailNotContracting,
    ToleranceNotCertified,
    ZeroMassSymbol,
    ZeroMeasureTarget,
)
from .exact import (
    ENTRANCE,
    RETURN,
    ProductChain,
    SurvivalCurve,
    TailShapeReport,
    build_product_chain,
    entrance_return_residual,
    exact_mean_return,
    exact_survival,
    fit_survival_shape,
    survival_at,
)
from .models import (
    BernoulliModel,
    GeometricModel,
    MarkovModel,
    MeasureModel,
    bernoulli,
    builtin_model,
    BUILTIN_MODELS,
    cylinder_measure,
    geometric,
    load_model,
    log_cylinder_measure,
    markov,
    model_fingerprint,
    model_from_dict,
    model_to_dict,
    partition_sum_exact,
    phi_bound,
    renyi_entropy,
    shannon_entropy,
    stationary_distribution,
    validate,
)
from .montecarlo import (
    ExponentSamples,
    KsResult,
    SurvivalExperiment,
    TailIntegral,
    dkw_epsilon,
    empirical_return_survival,
    empirical_survival,
    entrance_exponent_samples,
    orbit_sum_exponent_samples,
    recurrence_exponent_samples,
    survival_tail_integral,
)
from .streams import (
    EstimateRow,
    EstimateSeries,
    SymbolMap,
    ingest,
    named_map,
    ow_entropy_estimate,
    plugin_renyi_estimate,
    window_counts,
)
from .orbits import (
    CapPolicy,
    OrbitStream,
    OrbitSumResult,
    ReplayStream,
    TimeResult,
    entrance_time,
    recurrence_time,
    sample_orbit,
    w_sum,
)
from .words import Word, as_word, word_str

__version__ = "0.1.0"
