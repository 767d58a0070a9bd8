"""Online repairperson on a line segment, with location predictions.

Exact (rational / quadratic-irrational) simulation of round-trip server
schedules, latency-optimal offline tours, prediction-guided online strategies,
ratio certification, and an adversarial lower-bound game.
"""

from .core import (
    SQRT3,
    Instance,
    LineSegment,
    Model,
    ParseError,
    QuadraticScalar,
    Request,
    Scalar,
    Trajectory,
    format_decimal,
    format_scalar,
    make_instance,
    parse_instance,
    parse_scalar,
    serialize_instance,
)
from .offline import Direction, Tour, brute_force_latency, canonical_tour, optimal_latency_tour
from .online import (
    CERT_RATIO,
    DEFAULT_ALPHA,
    FALLBACK_THRESHOLD,
    GreedyReplan,
    HalflineRoundTrips,
    LineSweepRoundTrips,
    ModelMismatchError,
    PerfectPredictionTour,
    RobustPredictionTour,
    RoundTripSchedule,
    Strategy,
    VisibleInfo,
    make_strategy,
    parse_alpha,
    roundtrip_completions,
    roundtrip_trajectory,
    select_algorithm,
)
from .simulator import CoverageError, EvaluationReport, RunResult, evaluate, run
from .adversary import GameConfig, GameTranscript, Witness, play_lowerbound_game, verify_witness
from .generate import perturbed_instance, random_instance

__version__ = "0.1.0"
