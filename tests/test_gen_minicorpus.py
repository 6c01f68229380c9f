"""tools/gen_minicorpus.py: the defaults regenerate the bundled corpus."""

import importlib.util
from importlib.resources import files
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MINICORPUS = Path(str(files("lexcite").joinpath("data", "minicorpus")))


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "gen_minicorpus", ROOT / "tools" / "gen_minicorpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_defaults_reproduce_bundled_corpus(tool, tmp_path, capsys):
    tool.main(["--out", str(tmp_path)])
    bundled = sorted(p.name for p in MINICORPUS.iterdir() if p.is_file())
    assert sorted(p.name for p in tmp_path.iterdir()) == bundled
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (MINICORPUS / name).read_bytes(), name
    capsys.readouterr()

