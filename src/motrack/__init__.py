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
    step,
)
from .geometry import Box2D, Box3D
from .metrics import AmotaReport, ClearReport, amota, clear_mot, idf1, smota_r
from .simulate import ScenarioSpec, generate_scenario
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
    "AmotaReport",
    "Assignment",
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
    "clear_mot",
    "default_config",
    "generate_scenario",
    "idf1",
    "run_sequence",
    "smota_r",
    "solve_assignment",
    "step",
    "validate_config",
]
