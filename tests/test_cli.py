import json

import pytest

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


def test_alpha_without_adaptive_scaling_rejected(tmp_path, occlusion_files, capsys):
    # 2D runs with adaptive_r off, where alpha has no effect: the flag is an error.
    _, det = occlusion_files
    out = tmp_path / "out.txt"
    code = main(["track", "--input", str(det), "--output", str(out), "--mode", "2d",
                 "--alpha", "10"])
    assert code == 1
    assert "error: alpha only scales the measurement noise when adaptive_r is on" in (
        capsys.readouterr().err)
    assert not out.exists()
    config = tmp_path / "adaptive.cfg"
    config.write_text("adaptive_r = true\n")
    assert main(["track", "--input", str(det), "--output", str(out), "--mode", "2d",
                 "--config", str(config), "--alpha", "10"]) == 0


def test_single_stage_flag_drops_occluded_frames(tmp_path, occlusion_files):
    gt, det = occlusion_files
    out = tmp_path / "single.txt"
    assert main(["track", "--input", str(det), "--output", str(out),
                 "--mode", "2d", "--single-stage"]) == 0
    from motrack.formats import parse_mot_results as parse
    pred = parse(out.read_text())
    gt_out = parse(gt.read_text())
    assert clear_mot(gt_out, pred).fn >= 5


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
