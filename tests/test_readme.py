"""README's library example runs and prints what its comments say, and its
public API table lists exactly the package's ``__all__``."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import pwldyn

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text of README's ``## title`` section, up to the next ``## ``."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_prints_its_comments():
    code = section("Library example").split("```python\n", 1)[1].split("```", 1)[0]
    printed = []
    exec(compile(code, "README.md", "exec"), {"print": printed.append})
    # each printed line's comment starts with the value, then ": why" or nothing
    expected = [ast.literal_eval(m.group(1).split(":")[0])
                for m in re.finditer(r"^print\(.*\)\s+# (.*)$", code, re.M)]
    assert len(printed) == len(expected) == 4
    for got, want in zip(printed, expected):
        if want is None:
            assert got is None
        else:
            assert np.asarray(got, dtype=float) == pytest.approx(want, abs=1e-12)


def test_public_api_table_is_the_package_surface():
    rows = [line.split("|")[2] for line in section("Public API").splitlines()
            if line.startswith("|")]
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row)]
    assert sorted(names) == sorted(pwldyn.__all__)
