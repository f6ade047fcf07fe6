import io
import json
import tracemalloc

import pytest

from motrack import simulate
from motrack import tracker as tracker_module
from motrack.cli import main
from motrack.association import TrackerConfig
from motrack.formats import (parse_mot_results, write_detections, write_mot_results,
                             write_results)
from motrack.metrics import clear_mot
from motrack.simulate import (canonical_occlusion_scenario, generate_scenario,
                              motion_ablation_suite)
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
    assert main(["track", "--input", str(det), "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", "--gt", str(gt), "--pred", str(out),
                 "--metric", "clear"]) == 0
    printed = capsys.readouterr().out
    assert "mota=1.000000" in printed
    assert "fp=0" in printed
    assert "ids=0" in printed


def test_track_matches_library_run(tmp_path, occlusion_files):
    _, det = occlusion_files
    out = tmp_path / "tracks.txt"
    main(["track", "--input", str(det), "--output", str(out)])
    spec, seed = canonical_occlusion_scenario()
    _, frames = generate_scenario(spec, seed)
    expected = run_sequence(frames, {"mode": "2d"})
    assert parse_mot_results(out.read_text()).records == expected.records


def test_eval_perfect_on_gt_vs_gt(tmp_path, occlusion_files, capsys):
    gt, _ = occlusion_files
    assert main(["eval", "--gt", str(gt), "--pred", str(gt),
                 "--metric", "all"]) == 0
    printed = capsys.readouterr().out
    assert "mota=1.000000" in printed
    assert "idf1=1.000000" in printed
    assert "amota=1.000000" in printed


def test_eval_writes_json_report(tmp_path, occlusion_files, capsys):
    gt, _ = occlusion_files
    report = tmp_path / "report.json"
    assert main(["eval", "--gt", str(gt), "--pred", str(gt), "--metric", "clear",
                 "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["mota"] == 1.0
    assert data["gt"] == 24


def test_eval_json_writes_undefined_mota_as_null(tmp_path, capsys):
    # With empty ground truth MOTA is undefined: NaN when printed, null in JSON.
    gt, pred, report = tmp_path / "gt.txt", tmp_path / "pred.txt", tmp_path / "report.json"
    gt.write_text("")
    pred.write_text("1,1,0,0,10,10,0.9,-1,-1,-1\n")
    assert main(["eval", "--gt", str(gt), "--pred", str(pred), "--metric", "clear",
                 "--json", str(report)]) == 0
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
    assert main(["track", "--input", str(det), "--output", str(out), "--modality", "camera"]) == 0
    assert main(["eval", "--gt", str(gt), "--pred", str(out), "--metric", "all",
                 "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert list(data) == ["mota", "fp", "fn", "ids", "gt", "idf1", "amota"]
    assert data["gt"] > 0 and 0.0 < data["idf1"] <= 1.0
    assert capsys.readouterr().err == ""


def test_eval_rejects_nan_match_threshold(occlusion_files, capsys):
    gt, _ = occlusion_files
    code = main(["eval", "--gt", str(gt), "--pred", str(gt), "--match-threshold", "nan"])
    assert code == 1
    assert "error: match_threshold must be finite, got nan" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, occlusion_files):
    _, det = occlusion_files
    config = tmp_path / "tracker.cfg"
    config.write_text("tau = 0.96\ntrack_buffer = 5\n")
    out_cfg = tmp_path / "a.txt"
    out_flag = tmp_path / "b.txt"
    assert main(["track", "--input", str(det), "--output", str(out_cfg),
                 "--config", str(config)]) == 0
    assert main(["track", "--input", str(det), "--output", str(out_flag),
                 "--config", str(config), "--tau", "0.6"]) == 0
    # tau=0.96 sends every 0.95-score detection to the low pass, so no track
    # ever spawns; the flag restores the default split.
    assert out_cfg.read_text() == ""
    assert out_flag.read_text() != ""


def test_alpha_flag_scales_2d_noise(tmp_path, occlusion_files, capsys):
    # 2D runs without confidence scaling; --alpha turns it on, which moves the
    # boxes updated by the occluded (low-score) detections.
    _, det = occlusion_files
    plain, scaled = tmp_path / "plain.txt", tmp_path / "scaled.txt"
    assert main(["track", "--input", str(det), "--output", str(plain)]) == 0
    assert main(["track", "--input", str(det), "--output", str(scaled), "--alpha", "50"]) == 0
    assert scaled.read_text() != plain.read_text()
    config = tmp_path / "adaptive.cfg"
    config.write_text("adaptive_r = true\n")
    assert main(["track", "--input", str(det), "--output", str(tmp_path / "out.txt"),
                 "--config", str(config)]) == 1
    assert "error: line 1: unknown config key 'adaptive_r'" in capsys.readouterr().err


def test_unknown_modality_in_config_file_rejected_in_2d(tmp_path, occlusion_files, capsys):
    _, det = occlusion_files
    out = tmp_path / "out.txt"
    config = tmp_path / "radar.cfg"
    config.write_text("modality = radar\n")
    code = main(["track", "--input", str(det), "--output", str(out), "--config", str(config)])
    assert code == 1
    assert "error: unknown modality 'radar'; expected 'camera' or 'lidar'" in (
        capsys.readouterr().err)
    assert not out.exists()
    config.write_text("modality = camera\n")
    assert main(["track", "--input", str(det), "--output", str(out), "--config", str(config)]) == 0


def test_gate_second_none_drops_occluded_frames(tmp_path, occlusion_files):
    # The single-stage baseline is one value, written alike as a flag (in any
    # case), in a config file and in a TrackerConfig.
    gt, det = occlusion_files
    config = tmp_path / "single.cfg"
    config.write_text("gate_second = none\n")
    runs = {"flag": ["--gate-second", "none"], "upper": ["--gate-second", "NONE"],
            "file": ["--config", str(config)]}
    for name, extra in runs.items():
        assert main(["track", "--input", str(det), "--output", str(tmp_path / f"{name}.txt"),
                     *extra]) == 0
    library = io.StringIO()
    write_mot_results(run_sequence(generate_scenario(*canonical_occlusion_scenario())[1],
                                   TrackerConfig(gate_second=None)), library)
    texts = {(tmp_path / f"{name}.txt").read_text() for name in runs}
    assert texts == {library.getvalue()}
    pred = parse_mot_results(library.getvalue())
    assert clear_mot(parse_mot_results(gt.read_text()), pred).fn >= 5


def test_alpha_none_flag_equals_config_file(tmp_path):
    # On 3D lidar, whose default alpha is 10, `--alpha none` (in any case)
    # measures every detection alike, as `alpha = none` in a file does.
    det = tmp_path / "det3d.txt"
    with det.open("w", encoding="utf-8") as fh:
        write_detections(generate_scenario(*motion_ablation_suite(1)[0])[1], fh)
    config = tmp_path / "plain.cfg"
    config.write_text("alpha = none\n")
    runs = {"default": [], "flag": ["--alpha", "none"], "title": ["--alpha", "None"],
            "file": ["--config", str(config)]}
    texts = {}
    for name, extra in runs.items():
        out = tmp_path / f"{name}.txt"
        assert main(["track", "--input", str(det), "--output", str(out), *extra]) == 0
        texts[name] = out.read_text()
    assert texts["flag"] == texts["title"] == texts["file"] != texts["default"]


@pytest.mark.parametrize("flag", ["--tau", "--gate-first", "--track-buffer"])
def test_none_is_no_value_of_other_settings(tmp_path, flag, capsys):
    # As in a config file, only alpha and gate_second take `none`.
    kind = "int" if flag == "--track-buffer" else "float"
    assert main(["track", "--input", str(tmp_path / "det.txt"), "--output",
                 str(tmp_path / "out.txt"), flag, "none"]) == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: invalid {kind} value: 'none'\n")
    assert list(tmp_path.iterdir()) == []


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
        assert main(["track", "--input", str(det), "--output", str(out)]) == 0
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
    assert main(["track", "--input", str(det), "--output", str(tmp_path / "out.txt")]) == 1
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
                 "--output", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_zero_size_detection_reports_its_line(tmp_path, capsys):
    # x + w rounds back to x: the box has zero width, which the 2D Kalman
    # measurement cannot take.
    det = tmp_path / "det.txt"
    det.write_text("1,-1,1e10,0,1e-10,10,0.9,-1,-1,-1\n")
    code = main(["track", "--input", str(det), "--output", str(tmp_path / "out.txt")])
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


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--scenarios", "x"], "argument --scenarios: invalid int value: 'x'"),
    (["ablate-motion", "--scenarios", "2.5"], "argument --scenarios: invalid int value: '2.5'"),
    (["sweep", "--taus", "0.3,abc"], "argument --taus: invalid float value: 'abc'"),
    (["sweep", "--taus", "0.3, 0_4 ,0.5"], "argument --taus: invalid float value: '0_4'"),
])
def test_usage_errors_name_the_bad_token(argv, message, capsys):
    # argparse names a type that raises ValueError by its function name,
    # which printed `invalid _count value` and `invalid _taus value`.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")
    assert "_count" not in captured.err and "_taus" not in captured.err


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


@pytest.fixture()
def files_3d(tmp_path):
    gt_output, frames = generate_scenario(*motion_ablation_suite(1)[0])
    gt, det = tmp_path / "gt3d.txt", tmp_path / "det3d.txt"
    with gt.open("w", encoding="utf-8") as fh:
        write_results(gt_output, fh)
    with det.open("w", encoding="utf-8") as fh:
        write_detections(frames, fh)
    return gt, det


@pytest.mark.parametrize("argv", [["track", "--input", "det.txt", "--output", "out.txt"],
                                  ["eval", "--gt", "gt.txt", "--pred", "pred.txt"]],
                         ids=["track", "eval"])
def test_no_command_takes_a_mode(argv, capsys):
    assert main([argv[0], "--help"]) == 0
    assert "--mode" not in capsys.readouterr().out
    assert main(argv + ["--mode", "2d"]) == 2
    assert "unrecognized arguments: --mode 2d" in capsys.readouterr().err


def test_leading_blank_lines_do_not_set_the_mode(tmp_path, occlusion_files, files_3d):
    # The mode is read from the first line that is not empty or whitespace.
    for det in (occlusion_files[1], files_3d[1]):
        padded, plain, out = (tmp_path / name for name in ("padded.txt", "a.txt", "b.txt"))
        padded.write_text("\n   \n\t\n" + det.read_text())
        assert main(["track", "--input", str(det), "--output", str(plain)]) == 0
        assert main(["track", "--input", str(padded), "--output", str(out)]) == 0
        assert plain.read_text() and out.read_text() == plain.read_text()


@pytest.mark.parametrize("text, message", [
    # 11 fields is no 3D line, so the MOT parser names it.
    ("1,-1,100,100,60,120,0.9,-1,-1,-1,7\n", "line 1: expected 10 comma-separated fields, got 11"),
    # The first line says 3D, so a MOT line after it is a 3D line of 10 fields.
    ("1,-1,car,0,0,0,0,4,2,1.5,,,0.9\n1,-1,100,100,60,120,0.9,-1,-1,-1\n",
     "line 2: expected 13 comma-separated fields, got 10"),
])
def test_lines_of_the_wrong_width_name_the_first_line_mode(tmp_path, text, message, capsys):
    det, out = tmp_path / "det.txt", tmp_path / "out.txt"
    det.write_text(text)
    assert main(["track", "--input", str(det), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n \n"])
def test_track_of_a_file_without_records_writes_nothing(tmp_path, text, capsys):
    det, out = tmp_path / "det.txt", tmp_path / "out.txt"
    det.write_text(text)
    assert main(["track", "--input", str(det), "--output", str(out)]) == 0
    assert out.read_text() == ""
    assert capsys.readouterr().out == "tracked 0 frames, 0 boxes\n"


def test_eval_of_an_empty_file_takes_the_other_file_mode(tmp_path, files_3d, capsys):
    gt, _ = files_3d
    rows = len(gt.read_text().splitlines())
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["eval", "--gt", str(empty), "--pred", str(gt), "--metric", "clear"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert "mota=nan" in printed and f"fp={rows}" in printed
    assert main(["eval", "--gt", str(gt), "--pred", str(empty), "--metric", "clear"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert "mota=0.000000" in printed and f"fn={rows}" in printed


def test_eval_of_files_of_two_modes_is_a_mode_mismatch(occlusion_files, files_3d, capsys):
    assert main(["eval", "--gt", str(occlusion_files[0]), "--pred", str(files_3d[0])]) == 1
    assert capsys.readouterr().err == "error: mode mismatch: gt is 2d, pred is 3d\n"


def test_mode_is_no_config_key(tmp_path, files_3d, capsys):
    config = tmp_path / "mode.cfg"
    config.write_text("mode = 3d\n")
    assert main(["track", "--input", str(files_3d[1]), "--output", str(tmp_path / "out.txt"),
                 "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: line 1: unknown config key 'mode'\n"


def test_motion_flag_takes_any_case(tmp_path, files_3d, capsys):
    # As TrackerConfig and a config file take an enum value in any case.
    _, det = files_3d
    config = tmp_path / "dv.cfg"
    config.write_text("motion_strategy = DV\n")
    runs = {"upper": ["--motion", "DV"], "lower": ["--motion", "dv"],
            "file": ["--config", str(config)], "default": []}
    texts = {}
    for name, extra in runs.items():
        out = tmp_path / f"{name}.txt"
        assert main(["track", "--input", str(det), "--output", str(out), *extra]) == 0
        texts[name] = out.read_text()
    assert texts["upper"] == texts["lower"] == texts["file"] != texts["default"]
    assert main(["track", "--input", str(det), "--output", str(tmp_path / "x.txt"),
                 "--motion", "warp"]) == 2
    assert "argument --motion: invalid choice: 'warp'" in capsys.readouterr().err
    assert main(["track", "--help"]) == 0
    assert "--motion {kf,dv,complementary}" in capsys.readouterr().out
