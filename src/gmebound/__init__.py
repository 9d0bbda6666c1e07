"""Certified lower bounds on genuine multipartite entanglement for qudit states."""

from .dicke_witness import (
    DickeWitnessSpec,
    dimensionality_certificate,
    em_bound_from_q,
    noise_threshold_q,
    q_witness,
    r_sigma_size,
)
from .entropy import (
    EntropyReport,
    gme_measure_pure,
    linear_entropy_coeff,
    linear_entropy_trace,
)
from .errors import (
    AnalysisError,
    CoverageError,
    DegenerateSelectionError,
    GmeboundError,
    InvalidInputError,
    NotDetectingError,
)
from .indices import IndexPair, MultiIndex
from .observables import DecompositionPlan, plan_settings, reconstruct
from .ppt import build_ppt_witness, compare_with_witness_bracket, enumerate_ghz_pairs
from .states import (
    DensityMatrix,
    NoisyPureState,
    PureState,
    embed_pure,
    load_state_json,
    make_dicke_state,
    make_ghz_state,
    make_isotropic,
    make_singlet4,
    make_w_state,
    partial_trace,
    partial_transpose,
    white_noise_mix,
)
from .witness import (
    CompiledWitness,
    NRVariant,
    PairSet,
    auto_select_R,
    compile_witness,
    evaluate,
    isotropic_pairset,
    load_pairset_json,
    noise_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "CompiledWitness",
    "CoverageError",
    "DecompositionPlan",
    "DegenerateSelectionError",
    "DensityMatrix",
    "DickeWitnessSpec",
    "EntropyReport",
    "GmeboundError",
    "IndexPair",
    "InvalidInputError",
    "MultiIndex",
    "NRVariant",
    "NoisyPureState",
    "NotDetectingError",
    "PairSet",
    "PureState",
    "auto_select_R",
    "build_ppt_witness",
    "compare_with_witness_bracket",
    "compile_witness",
    "dimensionality_certificate",
    "em_bound_from_q",
    "embed_pure",
    "enumerate_ghz_pairs",
    "evaluate",
    "gme_measure_pure",
    "isotropic_pairset",
    "linear_entropy_coeff",
    "linear_entropy_trace",
    "load_pairset_json",
    "load_state_json",
    "make_dicke_state",
    "make_ghz_state",
    "make_isotropic",
    "make_singlet4",
    "make_w_state",
    "noise_threshold",
    "noise_threshold_q",
    "partial_trace",
    "partial_transpose",
    "plan_settings",
    "q_witness",
    "r_sigma_size",
    "reconstruct",
    "white_noise_mix",
]
