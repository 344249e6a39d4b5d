"""The documented API is the API: README's library table against the package."""

import importlib
import re
from pathlib import Path
from types import ModuleType

import amp_retrain

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def library_table():
    """{module name: backticked names in its row} from README's library layout."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`amp_retrain(\.\w+)?`", cells[0]):
            rows[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[1])
    return rows


def test_every_listed_name_resolves():
    rows = library_table()
    assert len(rows) >= 12 and all(rows.values())
    for module_name, names in rows.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert NAME.fullmatch(name), f"{module_name}: {name!r} is not a plain name"
            obj = module
            for part in name.split("."):
                assert hasattr(obj, part), f"{module_name}.{name} does not resolve"
                obj = getattr(obj, part)


def test_package_root_exports_no_names():
    # submodules become attributes of the package once imported; nothing else may
    for module_name in library_table():
        importlib.import_module(module_name)
    public = [name for name, obj in vars(amp_retrain).items()
              if not name.startswith("_") and not isinstance(obj, ModuleType)]
    assert public == []


def test_version_matches_pyproject():
    project = (ROOT / "pyproject.toml").read_text().split("[project]", 1)[1]
    version = re.search(r'(?m)^version\s*=\s*"([^"]+)"', project).group(1)
    assert version == amp_retrain.__version__
