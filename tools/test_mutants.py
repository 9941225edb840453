"""Self-test of the mutation smoke (a few seconds, outside tier-1):

    python3 -m pytest -q tools/test_mutants.py
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mutants  # noqa: E402
from mutants import Mutant  # noqa: E402


@pytest.fixture
def project(tmp_path):
    """A one-module project whose test pins double(2) == 4."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text("def double(x):\n    return 2 * x\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(
        "from toy import double\n\n\ndef test_double():\n    assert double(2) == 4\n")
    return tmp_path


def _mutant(new, old="2 * x"):
    return Mutant(f"{old} -> {new}", "src/toy.py", old, new, "tests/test_toy.py")


def _run(project, *entries):
    out = io.StringIO()
    code = mutants.run(entries, root=project, out=out)
    return code, out.getvalue().splitlines()


def test_killed_mutant_exits_zero(project):
    code, lines = _run(project, _mutant("3 * x"))
    assert code == 0
    assert lines == ["killed: 2 * x -> 3 * x (tests/test_toy.py)", "1 of 1 mutants killed"]


def test_surviving_mutant_exits_one(project):
    code, lines = _run(project, _mutant("3 * x"), _mutant("x + x"))
    assert code == 1
    assert lines[1] == "SURVIVED: 2 * x -> x + x (tests/test_toy.py)"
    assert lines[-1] == "1 of 2 mutants killed"
    assert "2 * x" in (project / "src" / "toy.py").read_text()   # the original is untouched


def test_failing_baseline_exits_two(project):
    (project / "src" / "toy.py").write_text("def double(x):\n    return 2 * x + 1\n")
    code, lines = _run(project, _mutant("3 * x"))
    assert code == 2
    assert lines == ["error: tests/test_toy.py fails without any mutant"]


def test_old_text_must_occur_once(project):
    with pytest.raises(ValueError, match="occurs 0 times"):
        _run(project, _mutant("3 * y", old="2 * y"))


def test_listed_mutants_name_text_that_occurs_once():
    for mutant in mutants.MUTANTS:
        text = (mutants.ROOT / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
        path, _, node = mutant.test.partition("::")
        assert (mutants.ROOT / path).is_file()
        assert not node or f"def {node}(" in (mutants.ROOT / path).read_text(encoding="utf-8")
