"""Detector-agnostic 2D/3D multi-object tracking engine.

Tracking-by-detection with a two-stage (high-score then low-score) data
association, Kalman and detected-velocity motion prediction, gated optimal
assignment, CLEAR-MOT/IDF1/AMOTA evaluation, and a seeded synthetic scenario
harness.
"""

from .assignment import Assignment, solve_assignment
from .association import (
    Detection,
    DetectionFrame,
    FrameResult,
    Mode,
    MotionStrategy,
    TrackerConfig,
    TrackPool,
    predict_tracks,
    step,
)
from .geometry import (
    Box2D,
    Box3D,
    bev_intersection_area,
    giou_3d,
    iou_2d,
)
from .metrics import AmotaReport, ClearReport, amota, clear_mot, idf1, smota_r
from .simulate import (
    ScenarioSpec,
    baseline_single_association,
    generate_scenario,
)
from .tracker import (
    Tracker,
    TrackOutput,
    TrackRecord,
    default_config,
    run_sequence,
    validate_config,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "AmotaReport",
    "Box2D",
    "Box3D",
    "ClearReport",
    "Detection",
    "DetectionFrame",
    "FrameResult",
    "Mode",
    "MotionStrategy",
    "ScenarioSpec",
    "TrackOutput",
    "TrackPool",
    "TrackRecord",
    "Tracker",
    "TrackerConfig",
    "amota",
    "baseline_single_association",
    "bev_intersection_area",
    "clear_mot",
    "default_config",
    "generate_scenario",
    "giou_3d",
    "idf1",
    "iou_2d",
    "predict_tracks",
    "run_sequence",
    "smota_r",
    "solve_assignment",
    "step",
    "validate_config",
]
