import json
import tracemalloc

import pytest

from motrack import simulate
from motrack import tracker as tracker_module
from motrack.cli import main
from motrack.formats import parse_mot_results
from motrack.metrics import clear_mot
from motrack.simulate import canonical_occlusion_scenario, generate_scenario
from motrack.tracker import run_sequence


@pytest.fixture()
def occlusion_files(tmp_path):
    gt = tmp_path / "gt.txt"
    det = tmp_path / "det.txt"
    code = main([
        "simulate", "--preset", "occlusion", "--seed", "0",
        "--out-gt", str(gt), "--out-det", str(det),
    ])
    assert code == 0
    return gt, det


def test_simulate_track_eval_round_trip(tmp_path, occlusion_files, capsys):
    gt, det = occlusion_files
    out = tmp_path / "tracks.txt"
    assert main(["track", "--input", str(det), "--output", str(out),
                 "--mode", "2d"]) == 0
    capsys.readouterr()
    assert main(["eval", "--gt", str(gt), "--pred", str(out),
                 "--metric", "clear", "--mode", "2d"]) == 0
    printed = capsys.readouterr().out
    assert "mota=1.000000" in printed
    assert "fp=0" in printed
    assert "ids=0" in printed


def test_track_matches_library_run(tmp_path, occlusion_files):
    _, det = occlusion_files
    out = tmp_path / "tracks.txt"
    main(["track", "--input", str(det), "--output", str(out), "--mode", "2d"])
    spec, seed = canonical_occlusion_scenario()
    _, frames = generate_scenario(spec, seed)
    expected = run_sequence(frames, {"mode": "2d"})
    assert parse_mot_results(out.read_text()).records == expected.records


def test_eval_perfect_on_gt_vs_gt(tmp_path, occlusion_files, capsys):
    gt, _ = occlusion_files
    assert main(["eval", "--gt", str(gt), "--pred", str(gt),
                 "--metric", "all", "--mode", "2d"]) == 0
    printed = capsys.readouterr().out
    assert "mota=1.000000" in printed
    assert "idf1=1.000000" in printed
    assert "amota=1.000000" in printed


def test_eval_writes_json_report(tmp_path, occlusion_files, capsys):
    gt, _ = occlusion_files
    report = tmp_path / "report.json"
    assert main(["eval", "--gt", str(gt), "--pred", str(gt), "--mode", "2d",
                 "--metric", "clear", "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["mota"] == 1.0
    assert data["gt"] == 24


def test_eval_json_writes_undefined_mota_as_null(tmp_path, capsys):
    # With empty ground truth MOTA is undefined: NaN when printed, null in JSON.
    gt, pred, report = tmp_path / "gt.txt", tmp_path / "pred.txt", tmp_path / "report.json"
    gt.write_text("")
    pred.write_text("1,1,0,0,10,10,0.9,-1,-1,-1\n")
    assert main(["eval", "--gt", str(gt), "--pred", str(pred), "--mode", "2d",
                 "--metric", "clear", "--json", str(report)]) == 0
    assert "mota=nan" in capsys.readouterr().out
    text = report.read_text()
    assert "NaN" not in text
    assert json.loads(text) == {"mota": None, "fp": 1, "fn": 0, "ids": 0, "gt": 0}


def test_3d_simulate_track_eval_round_trip(tmp_path, capsys):
    from motrack.simulate import motion_ablation_suite, scenario_to_dict

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(scenario_to_dict(motion_ablation_suite(1)[0][0])))
    gt, det = tmp_path / "gt.txt", tmp_path / "det.txt"
    out, report = tmp_path / "tracks.txt", tmp_path / "report.json"
    assert main(["simulate", "--scenario", str(scenario), "--out-gt", str(gt),
                 "--out-det", str(det)]) == 0
    assert main(["track", "--input", str(det), "--output", str(out), "--mode", "3d",
                 "--modality", "camera"]) == 0
    assert main(["eval", "--gt", str(gt), "--pred", str(out), "--mode", "3d",
                 "--metric", "all", "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert list(data) == ["mota", "fp", "fn", "ids", "gt", "idf1", "amota"]
    assert data["gt"] > 0 and 0.0 < data["idf1"] <= 1.0
    assert capsys.readouterr().err == ""


def test_eval_rejects_nan_match_threshold(occlusion_files, capsys):
    gt, _ = occlusion_files
    code = main(["eval", "--gt", str(gt), "--pred", str(gt), "--mode", "2d",
                 "--match-threshold", "nan"])
    assert code == 1
    assert "error: match_threshold must be finite, got nan" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, occlusion_files):
    _, det = occlusion_files
    config = tmp_path / "tracker.cfg"
    config.write_text("tau = 0.96\ntrack_buffer = 5\n")
    out_cfg = tmp_path / "a.txt"
    out_flag = tmp_path / "b.txt"
    assert main(["track", "--input", str(det), "--output", str(out_cfg),
                 "--mode", "2d", "--config", str(config)]) == 0
    assert main(["track", "--input", str(det), "--output", str(out_flag),
                 "--mode", "2d", "--config", str(config), "--tau", "0.6"]) == 0
    # tau=0.96 sends every 0.95-score detection to the low pass, so no track
    # ever spawns; the flag restores the default split.
    assert out_cfg.read_text() == ""
    assert out_flag.read_text() != ""


def test_alpha_flag_scales_2d_noise(tmp_path, occlusion_files, capsys):
    # 2D runs without confidence scaling; --alpha turns it on, which moves the
    # boxes updated by the occluded (low-score) detections.
    _, det = occlusion_files
    plain, scaled = tmp_path / "plain.txt", tmp_path / "scaled.txt"
    assert main(["track", "--input", str(det), "--output", str(plain), "--mode", "2d"]) == 0
    assert main(["track", "--input", str(det), "--output", str(scaled), "--mode", "2d",
                 "--alpha", "50"]) == 0
    assert scaled.read_text() != plain.read_text()
    config = tmp_path / "adaptive.cfg"
    config.write_text("adaptive_r = true\n")
    assert main(["track", "--input", str(det), "--output", str(tmp_path / "out.txt"),
                 "--mode", "2d", "--config", str(config)]) == 1
    assert "error: line 1: unknown config key 'adaptive_r'" in capsys.readouterr().err


def test_single_stage_and_gate_second_exclude_each_other(tmp_path, occlusion_files, capsys):
    _, det = occlusion_files
    out = tmp_path / "out.txt"
    assert main(["track", "--input", str(det), "--output", str(out), "--mode", "2d",
                 "--single-stage", "--gate-second", "0.9"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_modality_in_config_file_rejected_in_2d(tmp_path, occlusion_files, capsys):
    _, det = occlusion_files
    out = tmp_path / "out.txt"
    config = tmp_path / "radar.cfg"
    config.write_text("modality = radar\n")
    code = main(["track", "--input", str(det), "--output", str(out), "--mode", "2d",
                 "--config", str(config)])
    assert code == 1
    assert "error: unknown modality 'radar'; expected 'camera' or 'lidar'" in (
        capsys.readouterr().err)
    assert not out.exists()
    config.write_text("modality = camera\n")
    assert main(["track", "--input", str(det), "--output", str(out), "--mode", "2d",
                 "--config", str(config)]) == 0


def test_single_stage_flag_drops_occluded_frames(tmp_path, occlusion_files):
    gt, det = occlusion_files
    out = tmp_path / "single.txt"
    assert main(["track", "--input", str(det), "--output", str(out),
                 "--mode", "2d", "--single-stage"]) == 0
    from motrack.formats import parse_mot_results as parse
    pred = parse(out.read_text())
    gt_out = parse(gt.read_text())
    assert clear_mot(gt_out, pred).fn >= 5


def test_track_steps_only_frames_holding_rows(tmp_path, monkeypatch, capsys):
    """A one-line file at frame 10^9 is one step, in bounded memory: a skipped
    frame number is an empty frame, so it needs no step of its own."""
    det, out = tmp_path / "det.txt", tmp_path / "out.txt"
    det.write_text("1000000000,-1,100,100,60,120,0.9,-1,-1,-1\n")
    steps = []
    original = tracker_module.step

    def counted(pool, frame, detections, config):
        steps.append(frame)
        if len(steps) > 100:
            raise AssertionError("stepped more than 100 frames")
        return original(pool, frame, detections, config)

    monkeypatch.setattr(tracker_module, "step", counted)
    tracemalloc.start()
    try:
        assert main(["track", "--input", str(det), "--output", str(out), "--mode", "2d"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert steps == [10**9]
    assert peak < 5 * 2**20
    assert out.read_text() == "1000000000,1,100.0,100.0,60.0,120.0,0.9,-1,-1,-1\n"
    assert capsys.readouterr().out == "tracked 1000000000 frames, 1 boxes\n"


def test_track_errors_name_the_file_frame(tmp_path, monkeypatch, capsys):
    det = tmp_path / "det.txt"
    det.write_text("3,-1,100,100,60,120,0.9,-1,-1,-1\n7,-1,100,100,60,120,0.9,-1,-1,-1\n")

    def failing(pool, frame, detections, config):
        raise ValueError("boom")

    monkeypatch.setattr(tracker_module, "step", failing)
    assert main(["track", "--input", str(det), "--output", str(tmp_path / "out.txt"),
                 "--mode", "2d"]) == 1
    assert capsys.readouterr().err == "error: frame 3: boom\n"


def test_simulate_scenario_file(tmp_path):
    from motrack.simulate import scenario_to_dict

    spec, _ = canonical_occlusion_scenario()
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(scenario_to_dict(spec)))
    gt = tmp_path / "gt.txt"
    det = tmp_path / "det.txt"
    assert main(["simulate", "--scenario", str(scenario), "--seed", "3",
                 "--out-gt", str(gt), "--out-det", str(det)]) == 0
    assert gt.read_text()



@pytest.mark.parametrize("field, path, value", [
    ("duration", (), 2.5),
    ("duration", (), True),
    ("class_id", ("objects", 0), 2.7),
    ("frames", ("objects", 0, "segments", 0), 40.0),
    ("first_frame", ("occlusions", 0), 1.5),
    ("object_index", ("occlusions", 0), False),
    ("last_frame", ("dropouts", 0), 3.0),
], ids=["duration-float", "duration-bool", "class_id", "frames", "occlusion-first_frame",
        "occlusion-object_index", "dropout-last_frame"])
def test_simulate_scenario_rejects_non_integer_fields(tmp_path, capsys, field, path, value):
    # Floats and bools in integer fields once crashed generate_scenario with a
    # TypeError traceback, or (class_id) were truncated to an integer.
    from motrack.simulate import scenario_to_dict

    data = scenario_to_dict(canonical_occlusion_scenario()[0])
    data["dropouts"] = [{"object_index": 0, "first_frame": 2, "last_frame": 3}]
    owner = data
    for key in path:
        owner = owner[key]
    owner[field] = value
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    gt, det = tmp_path / "gt.txt", tmp_path / "det.txt"
    assert main(["simulate", "--scenario", str(scenario), "--out-gt", str(gt),
                 "--out-det", str(det)]) == 1
    assert capsys.readouterr().err == (
        f"error: {field} must be an integer, got {value!r}\n")


def test_sweep_prints_table(capsys):
    assert main(["sweep", "--taus", "0.4,0.6", "--scenarios", "2",
                 "--base-seed", "100"]) == 0
    printed = capsys.readouterr().out
    assert "two-stage MOTA" in printed
    assert "MOTA spread" in printed
    assert "0.40" in printed and "0.60" in printed


def test_ablate_motion_prints_strategies(capsys):
    assert main(["ablate-motion", "--scenarios", "1", "--base-seed", "500"]) == 0
    printed = capsys.readouterr().out
    for name in ("kf", "dv", "complementary"):
        assert name in printed


@pytest.mark.parametrize("argv", [
    ["sweep", "--scenarios", "0"],
    ["sweep", "--scenarios", "-3"],
    ["sweep", "--taus", ","],
    ["sweep", "--taus", ""],
    ["ablate-motion", "--scenarios", "0"],
])
def test_empty_sweeps_are_usage_errors(argv, capsys):
    # A sweep over no scenario or no threshold has nothing to average; it is
    # rejected while the arguments are parsed, before any table is printed.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


def test_unknown_subcommand_fails(capsys):
    assert main(["warp"]) != 0


def test_unknown_flag_fails(capsys):
    assert main(["track", "--nope"]) != 0


def test_missing_input_file_reports_error(tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = main(["track", "--input", str(tmp_path / "absent.txt"),
                 "--output", str(out), "--mode", "2d"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_zero_size_detection_reports_its_line(tmp_path, capsys):
    # x + w rounds back to x: the box has zero width, which the 2D Kalman
    # measurement cannot take.
    det = tmp_path / "det.txt"
    det.write_text("1,-1,1e10,0,1e-10,10,0.9,-1,-1,-1\n")
    code = main(["track", "--input", str(det), "--output", str(tmp_path / "out.txt"),
                 "--mode", "2d"])
    assert code == 1
    assert "line 1: box size must be positive, got w=0.0, h=10.0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["track", "--tau", "0_6"], "--tau"),
    (["track", "--gate-first", "0_3"], "--gate-first"),
    (["track", "--gate-second", "0_3"], "--gate-second"),
    (["track", "--track-buffer", "3_0"], "--track-buffer"),
    (["track", "--alpha", "1_0"], "--alpha"),
    (["eval", "--match-threshold", "0_5"], "--match-threshold"),
    (["simulate", "--preset", "occlusion", "--seed", "1_0"], "--seed"),
    (["sweep", "--scenarios", "1", "--taus", "0.3,0_4"], "--taus"),
    (["sweep", "--scenarios", "1_0"], "--scenarios"),
    (["sweep", "--scenarios", "1", "--base-seed", "1_00"], "--base-seed"),
    (["ablate-motion", "--scenarios", "1_0"], "--scenarios"),
    (["ablate-motion", "--scenarios", "1", "--base-seed", "5_00"], "--base-seed"),
])
def test_numeric_flags_reject_digit_separators(tmp_path, argv, flag, capsys):
    # int and float read '1_0' as 10; the flags, like the record and config
    # files, reject it as a usage error naming the flag.
    paths = {"track": ["--input", "det.txt", "--output", "out.txt"],
             "eval": ["--gt", "gt.txt", "--pred", "pred.txt"],
             "simulate": ["--out-gt", "gt.txt", "--out-det", "det.txt"]}
    extra = [str(tmp_path / arg) if arg.endswith(".txt") else arg
             for arg in paths.get(argv[0], [])]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: invalid" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_sweep_checks_every_config_before_any_work(monkeypatch, capsys):
    # A threshold out of range fails before the suite is generated and
    # before the table header is printed.
    def generate(*args):
        raise AssertionError("the suite was generated")

    monkeypatch.setattr(simulate, "generate_scenario", generate)
    assert main(["sweep", "--taus", "0.5,1.5", "--scenarios", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tau must be in (0, 1), got 1.5\n"
