"""Real-time prediction of repetitive human motion.

The package builds a bank of tensor-on-tensor regression models along a
reference motion cycle, picks the right model for an incoming window by
dynamic time warping, and emits joint-angle predictions together with
uncertainty bands, back-transformed to Cartesian coordinates.
"""

from tensormotion.tensor_ops import (
    CpFactors,
    contracted_product,
    cp_reconstruct,
    frobenius_norm,
    khatri_rao,
)
from tensormotion.regression import (
    FitResult,
    RegressionConfig,
    SingularSystemError,
    fit,
    gibbs_sample,
    objective,
    predict,
)
from tensormotion.kinematics import (
    MotionSequence,
    Skeleton,
    default_skeleton,
    fix_segment_lengths,
    from_joint_angles,
    segment_distances,
    to_joint_angles,
)
from tensormotion.cycles import (
    ReferenceCycle,
    build_reference,
    detect_cycles,
    extend_reference,
    resample_cycle,
    smooth_signal,
)
from tensormotion.alignment import WarpResult, dtw, locate_in_reference
from tensormotion.predictor import (
    CoefficientCollection,
    CollectionEntry,
    PipelineConfig,
    PredictionBatch,
    PredictionFrame,
    build_collection,
    load_collection,
    predict_window,
    run_online,
    save_collection,
    select_coefficient,
)
from tensormotion.uncertainty import (
    PosteriorPredictive,
    UncertaintyBand,
    band_to_coordinates,
    posterior_predictive,
    predictive_variation,
)
from tensormotion.evaluation import (
    SeeSeries,
    backtransform_error,
    evaluate_predictions,
    hold_pose_predictions,
    see,
)
from tensormotion.synth import SynthConfig, generate_motion

__version__ = "0.1.0"

__all__ = [
    "CpFactors",
    "contracted_product",
    "cp_reconstruct",
    "frobenius_norm",
    "khatri_rao",
    "FitResult",
    "RegressionConfig",
    "SingularSystemError",
    "fit",
    "gibbs_sample",
    "objective",
    "predict",
    "MotionSequence",
    "Skeleton",
    "default_skeleton",
    "fix_segment_lengths",
    "from_joint_angles",
    "segment_distances",
    "to_joint_angles",
    "ReferenceCycle",
    "build_reference",
    "detect_cycles",
    "extend_reference",
    "resample_cycle",
    "smooth_signal",
    "WarpResult",
    "dtw",
    "locate_in_reference",
    "CoefficientCollection",
    "CollectionEntry",
    "PipelineConfig",
    "PredictionBatch",
    "PredictionFrame",
    "build_collection",
    "load_collection",
    "predict_window",
    "run_online",
    "save_collection",
    "select_coefficient",
    "PosteriorPredictive",
    "UncertaintyBand",
    "band_to_coordinates",
    "posterior_predictive",
    "predictive_variation",
    "SeeSeries",
    "backtransform_error",
    "evaluate_predictions",
    "hold_pose_predictions",
    "see",
    "SynthConfig",
    "generate_motion",
]
