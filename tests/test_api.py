import ast
import dataclasses
import inspect
import re
from pathlib import Path

import motrack

ROOT = Path(__file__).parent.parent

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
    "DetectionFrame": ["detections"],
    "FrameResult": ["tracks"],
    "Mode": ["BOX_2D", "BOX_3D"],
    "MotionStrategy": ["COMPLEMENTARY", "DETECTED_VELOCITY", "KALMAN"],
    "ScenarioSpec": [],
    "TrackOutput": ["mode", "records"],
    "TrackPool": ["active"],
    "TrackRecord": [],
    "Tracker": ["output", "step"],
    "TrackerConfig": [],
}


# Each public dataclass's fields, in declaration order. A new config knob,
# column or report value is a deliberate edit of this table.
FIELDS = {
    "AmotaReport": ["amota", "smota_values", "recalls"],
    "Assignment": ["matches", "unmatched_detections", "unmatched_tracklets"],
    "Box2D": ["x1", "y1", "x2", "y2"],
    "Box3D": ["x", "y", "z", "theta", "l", "w", "h"],
    "ClearReport": ["mota", "fp", "fn", "ids", "gt"],
    "Detection": ["box", "score", "class_id", "velocity"],
    "DetectionFrame": ["boxes", "scores", "class_ids", "velocities", "has_velocity"],
    "FrameResult": ["frame", "track_ids", "class_ids", "scores", "boxes", "diagnostics"],
    "ScenarioSpec": ["mode", "duration", "world", "objects", "occlusions", "dropouts",
                     "base_score", "position_noise", "score_noise", "clutter_rate",
                     "clutter_scores", "miss_rate", "velocity_noise"],
    "TrackOutput": ["frames", "track_ids", "class_ids", "scores", "boxes", "n_frames"],
    "TrackPool": ["means", "covs", "ids", "class_ids", "frames_since_match", "last_score",
                  "next_id", "last_frame"],
    "TrackRecord": ["frame", "track_id", "box", "score", "class_id"],
    "TrackerConfig": ["mode", "tau", "gate_first", "gate_second", "track_buffer",
                      "motion_strategy", "alpha"],
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


def test_public_dataclass_fields_are_pinned():
    dataclass_types = {name: getattr(motrack, name) for name in PUBLIC
                       if dataclasses.is_dataclass(getattr(motrack, name))}
    assert {name: [f.name for f in dataclasses.fields(cls)]
            for name, cls in dataclass_types.items()} == FIELDS


def test_every_public_definition_is_used_exported_or_documented():
    # A public module-level function or class that the package's own code
    # never names (in code, not docstrings), that motrack does not export and
    # that the README does not name exists only for the tests.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "motrack").glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    readme = (ROOT / "README.md").read_text()
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used
              and node.name not in motrack.__all__
              and not re.search(rf"\b{node.name}\b", readme)]
    assert unused == []


def test_every_private_definition_is_named_in_the_package():
    # A private module-level function, class or constant that no code in the
    # package loads, reads as an attribute or imports is dead, or left over
    # for the tests.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "motrack").glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)

    def defined(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [node.name]
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        return [name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)]

    unused = [f"{module}.{name}" for module, tree in trees.items() for node in tree.body
              for name in defined(node)
              if name.startswith("_") and not name.startswith("__") and name not in named]
    assert unused == []
