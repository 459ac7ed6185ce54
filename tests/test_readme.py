"""The README's library quick start runs as written and gives the values its comments state."""

import ast
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    """The ```python block under the README's "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library quick start\n+```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert match, "README has no python block under '## Library quick start'"
    return match.group(1)


def test_the_readme_quick_start_runs_and_gives_its_commented_values():
    source = _quick_start()
    namespace: dict = {}
    values = []  # the value of each bare expression line, in order
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for node in ast.parse(source).body:
            if isinstance(node, ast.Expr):
                values.append(eval(compile(ast.Expression(node.value), README.name, "eval"), namespace))
            else:
                exec(compile(ast.Module([node], []), README.name, "exec"), namespace)
    energy, split, shape, h_rel, b_rel = values
    assert "# -4.625 exactly" in source and energy == -4.625
    assert "# -2j" in source and split == -2j
    assert "# (200,)" in source and shape == (200,)
    assert "# ~1e-14" in source and h_rel < 1e-12 and b_rel < 1e-12
    assert "# 14 states" in source and len(namespace["level"]) == len(namespace["reports"]) == 14
    assert all(r.passed for r in namespace["reports"])
