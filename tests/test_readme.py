"""README's ```python blocks run in order in one namespace, as a reader
would paste them, so the quickstart stays runnable; its ```ini config-file
blocks parse and validate, so no key the parser no longer knows lingers."""

import re
from pathlib import Path

from motrack.formats import parse_config_text
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
