"""The python block of README's "Library use" runs as written."""

import re
from pathlib import Path

import pytest

from lexcite.errors import GroupEmptyWarning

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```\n", section, re.DOTALL).group(1)


def test_library_use_block_runs(capsys):
    namespace: dict = {}
    with pytest.warns(GroupEmptyWarning, match="High group empty"):
        exec(compile(library_use_block(), str(README), "exec"), namespace)
    assert len(namespace["profiles"]) == 30
    assert len(namespace["fits"]) == 24  # 6 models x 4 cohorts
    assert len(namespace["rows"]) == 36  # 12 variables x 3 group pairs
    first = namespace["profiles"][0]
    assert capsys.readouterr().out == f"{first.mean_sentence_length} {first.ttr}\n"
