import inspect

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

# Each public class's public members that are not dataclass fields: what the
# class itself (or a motrack base) declares. Adding or removing one is a
# deliberate edit of this table.
MEMBERS = {
    "AmotaReport": [],
    "Assignment": [],
    "Box2D": [],
    "Box3D": [],
    "ClearReport": ["to_dict"],
    "Detection": [],
    "DetectionFrame": ["detections", "from_detections"],
    "FrameResult": ["tracks"],
    "Mode": ["BOX_2D", "BOX_3D"],
    "MotionStrategy": ["COMPLEMENTARY", "DETECTED_VELOCITY", "KALMAN"],
    "ScenarioSpec": [],
    "TrackOutput": ["from_columns", "records"],
    "TrackPool": ["active"],
    "TrackRecord": [],
    "Tracker": ["output", "step"],
    "TrackerConfig": [],
}


def public_members(cls) -> list[str]:
    fields = getattr(cls, "__dataclass_fields__", {})
    return sorted({name for klass in cls.__mro__ if klass.__module__.startswith("motrack")
                   for name in vars(klass) if not name.startswith("_") and name not in fields})


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert motrack.__all__ == PUBLIC


def test_every_public_name_imports():
    namespace = {}
    exec("from motrack import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(motrack, name)


def test_public_members_are_pinned():
    classes = {name: getattr(motrack, name) for name in PUBLIC
               if inspect.isclass(getattr(motrack, name))}
    assert {name: public_members(cls) for name, cls in classes.items()} == MEMBERS
