"""The README "Library layout" names only what the package defines."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"

# backticked words in the bullets that are file-format tags or a value, not names
NOT_NAMES = {"og", "adj", "col", "mat", "None"}


def layout_bullets() -> list[tuple[str, list[str]]]:
    """(module, backticked dotted names) of each "Library layout" bullet; the
    module is the bullet's first backticked name. A backticked `.attr` (an
    attribute of a returned value) is not a name and is left out."""
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets = re.split(r"^\* ", section, flags=re.MULTILINE)[1:]
    out = []
    for bullet in bullets:
        module, *names = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)`", bullet)
        out.append((module, [name for name in names if name not in NOT_NAMES]))
    return out


BULLETS = layout_bullets()


def test_readme_layout_lists_every_module():
    modules = [module for module, _ in BULLETS]
    assert modules == ["orl.core", "orl.constructions", "orl.embedder", "orl.ramsey",
                       "orl.stochastic", "orl.patterns", "orl.cli"]


@pytest.mark.parametrize("module, names", BULLETS, ids=[module for module, _ in BULLETS])
def test_readme_layout_names_resolve(module, names):
    obj = importlib.import_module(module)
    missing = []
    for name in names:
        target = obj
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(name)
    assert names and not missing, f"{module} does not define {missing}"
