"""The code names README.md cites exist in the package."""

import importlib
import pkgutil
import re
from pathlib import Path

import crystal_grid

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(crystal_grid.__path__)}


def _resolves(module: str, path: str) -> bool:
    if module == "crystal_grid":
        return path in MODULES
    target = importlib.import_module(f"crystal_grid.{module}")
    for part in path.split("."):
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_every_cited_module_name_resolves():
    # Backticked `module.name`, where module is the package or one of its
    # modules; other dotted names (`math.inf`, `pyproject.toml`) are not ours.
    cited = [(m, p) for m, p in re.findall(r"`([a-z_0-9]+)\.([A-Za-z_][\w.]*)`",
                                           README.read_text(encoding="utf-8"))
             if m == "crystal_grid" or m in MODULES]
    assert len(cited) >= 10
    assert [f"{m}.{p}" for m, p in cited if not _resolves(m, p)] == []
