"""frustoval: frustum-overlap pair scoring and volume-aware relocalization metrics.

The package is organized by pipeline stage:

* :mod:`frustoval.geometry` - quaternion/pose math and per-pair error primitives
* :mod:`frustoval.frustum`  - viewing-volume models and the overlap-scoring kernel
* :mod:`frustoval.dataset`  - the PoseSet and PairTable, pose-format parsers and the canonical file formats
* :mod:`frustoval.pairgen`  - all-pairs pair tables, histograms, subspace statistics
* :mod:`frustoval.metrics`  - standard and volume-aware evaluation criteria
* :mod:`frustoval.synth`    - seeded synthetic trajectories and predictors
* :mod:`frustoval.cli`      - the `frustoval` command-line pipeline
"""

__version__ = "0.1.0"

FORMAT_VERSION = "v1"

from .geometry import (  # noqa: E402
    EulerAngles,
    Pose,
    Quaternion,
    RelativePose,
    Translation,
    compose,
    from_euler,
    inverse,
    relative,
    rotation_error,
    to_euler,
    translation_error,
)
from .frustum import (  # noqa: E402
    FrustumSpec,
    OverlapConfig,
    overlap_score,
)
from .dataset import (  # noqa: E402
    PairRecord,
    PairTable,
    PoseSet,
    config_digest,
    parse_cambridge,
    parse_sevenscenes,
)
from .pairgen import (  # noqa: E402
    OverlapBinning,
    SubspaceStats,
    bin_histogram,
    generate_pairs,
    subspace_stats,
)
from .metrics import (  # noqa: E402
    ErrorCurve,
    LossWeights,
    MetricConfig,
    MetricReport,
    combined_loss,
    error_curve,
    evaluate,
    naive_predictor,
)
from .synth import SynthConfig, SynthPredictor, generate_trajectory, synth_predict  # noqa: E402

__all__ = [
    "__version__",
    "FORMAT_VERSION",
    "EulerAngles", "Pose", "Quaternion", "RelativePose", "Translation",
    "compose", "from_euler", "inverse", "relative", "rotation_error",
    "to_euler", "translation_error",
    "FrustumSpec", "OverlapConfig", "overlap_score",
    "PairRecord", "PairTable", "PoseSet", "config_digest",
    "parse_cambridge", "parse_sevenscenes",
    "OverlapBinning", "SubspaceStats", "bin_histogram", "generate_pairs",
    "subspace_stats",
    "ErrorCurve", "LossWeights", "MetricConfig", "MetricReport",
    "combined_loss", "error_curve", "evaluate", "naive_predictor",
    "SynthConfig", "SynthPredictor", "generate_trajectory", "synth_predict",
]
