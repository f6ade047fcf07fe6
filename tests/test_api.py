import motrack

# The package's public names. Adding or removing one is a deliberate edit of
# this list.
PUBLIC = [
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


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert motrack.__all__ == PUBLIC


def test_every_public_name_imports():
    namespace = {}
    exec("from motrack import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(motrack, name)
