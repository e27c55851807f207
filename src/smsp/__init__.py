"""Random spline partitions of labeled planar data.

A partition-valued Markov process recursively splits a point set with random
Bezier-curve cuts; a sequential Monte Carlo sampler targets the posterior under
a Dirichlet-multinomial label likelihood; fitted partitions yield label
predictions and explicit shape boundaries.
"""

from .cutgen import CutFailureError, CutGenConfig, sample_cut, sample_control_points, sample_offset
from .data import (
    ImageGrid,
    InputFormatError,
    LabeledPoints,
    PgmParseError,
    ingest_pgm,
    load_points_csv,
    make_yinyang,
    read_pgm,
    save_points_csv,
    train_test_split,
    write_pgm,
)
from .evaluation import MetricReport, chi_square_uniform, metrics, timing_report, uniformity_experiment
from .geometry import (
    BezierCurve,
    BezierCut,
    Circle,
    DegenerateInputError,
    InvalidCurveError,
    bezier_eval,
    bezier_y_at_x,
    rotate,
    side_of_cut,
    smallest_enclosing_circle,
)
from .inference import (
    FitResult,
    SMCConfig,
    best_particle,
    default_alpha,
    ess,
    load_model,
    log_likelihood,
    model_from_dict,
    model_to_dict,
    predict,
    predict_proba,
    save_model,
    smc_fit,
    weight_increment,
)
from .partition import (
    PartitionState,
    Subset,
    advance,
    init_partition,
    route_point,
    route_points,
    run_to_budget,
    total_rate,
)
from .shape import BoundarySegment, ShapeResult, discretize_cuts, extract_shape, mark_interior

__version__ = "0.1.0"
