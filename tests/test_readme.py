"""README.md's Python examples run as written, and its builtin list is the parser's."""

import inspect
import re
from pathlib import Path

from latfix import NatInf, make_domain, resolve_builtin
from latfix.cli import parse_scheme_file

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_readme_python_blocks_run(monkeypatch):
    # The blocks build on each other, so they share one namespace, in order.
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_builtins_are_unary_and_join_meet_are_forms():
    listed = re.search(r"Builtins, each\s+a function of one value: (.*?)\.\s", README, re.S)
    names = re.findall(r"`([^`]+)`", listed.group(1))
    assert names
    ops = make_domain(NatInf())
    for name in names:
        fn = resolve_builtin(name.replace(":K", ":3").replace(":V", ":5"), ops)
        assert len(inspect.signature(fn).parameters) == 1, name
        ops.validate(fn(2))
    forms = re.findall(r"`apply (\w+) e e`", README)
    assert forms == ["join", "meet"]
    for form in forms:
        scheme = parse_scheme_file(
            f"scheme natinf\nstart u 0\npoint u = apply {form} ctx (lit 1)\n")
        assert scheme.rhs["u"] == (form, ("ctx",), ("lit", 1))
