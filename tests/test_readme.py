"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_every_module_has_a_layout_row():
    layout = README.read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `oscillode\.(\w+)` \|", layout, re.M))
    package = README.parent / "src" / "oscillode"
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert sorted(modules - rows) == []
    assert sorted(rows - modules) == []
