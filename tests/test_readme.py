"""README's ```python blocks run in order in one namespace, as a reader
would paste them, so the quickstart stays runnable; its ```ini config-file
blocks parse and validate, so no key the parser no longer knows lingers, and
`motrack track --config` runs them."""

import re
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


def test_readme_config_block_sets_the_mode(tmp_path, capsys):
    # The example config says `mode = 3d`: track reads a 3D detection file
    # with it and no --mode flag, and a --mode flag given beside it wins.
    block = re.findall(r"^```ini\n(.*?)^```$", README.read_text(), re.M | re.S)[0]
    assert "mode = 3d" in block
    config = tmp_path / "readme.cfg"
    config.write_text(block)
    paths = {}
    for name, (spec, seed) in (("3d", motion_ablation_suite(1)[0]),
                               ("2d", canonical_occlusion_scenario())):
        paths[name] = tmp_path / f"det{name}.txt"
        with paths[name].open("w", encoding="utf-8") as fh:
            write_detections(generate_scenario(spec, seed)[1], fh)
    out = tmp_path / "out.txt"
    assert main(["track", "--input", str(paths["3d"]), "--output", str(out),
                 "--config", str(config)]) == 0
    lines = out.read_text().splitlines()
    assert lines and all(line.count(",") == 12 for line in lines)
    assert main(["track", "--input", str(paths["2d"]), "--output", str(out),
                 "--config", str(config), "--mode", "2d"]) == 0
    lines = out.read_text().splitlines()
    assert lines and all(line.count(",") == 9 for line in lines)
    assert main(["track", "--input", str(paths["3d"]), "--output", str(out),
                 "--config", str(config), "--mode", "2d"]) == 1
    assert capsys.readouterr().err.endswith(
        "error: line 1: expected 10 comma-separated fields, got 13\n")
