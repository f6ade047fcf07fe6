"""README's ```python blocks run in order in one namespace, as a reader
would paste them, so the quickstart stays runnable; its ```ini config-file
blocks parse and validate, so no key the parser no longer knows lingers, and
`motrack track --config` runs them; its ```bash blocks' `motrack` lines run."""

import re
import shlex
from pathlib import Path

from motrack.cli import main
from motrack.formats import parse_config_text, write_detections
from motrack.simulate import canonical_occlusion_scenario, generate_scenario, motion_ablation_suite
from motrack.tracker import validate_config

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_config_blocks_validate():
    blocks = re.findall(r"^```ini\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        validate_config(parse_config_text(block))


def test_readme_config_block_runs_in_either_mode(tmp_path):
    # The example config holds no mode: the detection file says it, so the
    # block runs on a 3D and on a 2D file, writing lines of that file's mode.
    block = re.findall(r"^```ini\n(.*?)^```$", README.read_text(), re.M | re.S)[0]
    config = tmp_path / "readme.cfg"
    config.write_text(block)
    for fields, (spec, seed) in ((13, motion_ablation_suite(1)[0]),
                                 (10, canonical_occlusion_scenario())):
        det, out = tmp_path / f"det{fields}.txt", tmp_path / f"out{fields}.txt"
        with det.open("w", encoding="utf-8") as fh:
            write_detections(generate_scenario(spec, seed)[1], fh)
        assert main(["track", "--input", str(det), "--output", str(out),
                     "--config", str(config)]) == 0
        lines = out.read_text().splitlines()
        assert lines and all(line.count(",") == fields - 1 for line in lines)


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    # Every `motrack ...` line of the ```bash blocks, in order, in one
    # directory, as a reader would paste them.
    blocks = re.findall(r"^```bash\n(.*?)^```$", README.read_text(), re.M | re.S)
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("motrack ")]
    assert [argv[0] for argv in commands] == ["simulate", "track", "eval", "sweep",
                                              "ablate-motion"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    assert "amota=1.000000" in capsys.readouterr().out
