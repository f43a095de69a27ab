"""README.md's Python examples run as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch):
    # The blocks build on each other, so they share one namespace, in order.
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
