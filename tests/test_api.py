"""The documented API is the API: README's library table against the package."""

import argparse
import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

import amp_retrain
from amp_retrain.cli import build_parser

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


def defined_names(module):
    """Public names the module's own top level binds (imports excluded), less
    the type aliases its annotations use."""
    names = []
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")
            and getattr(getattr(module, name), "__module__", None) != "typing"]


def test_every_defined_name_is_listed():
    missing = []
    for module_name, listed in library_table().items():
        module = importlib.import_module(module_name)
        missing += [f"{module_name}.{name}" for name in defined_names(module)
                    if name not in listed]
    assert missing == []


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


def subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_bayesmix_flag_table_lists_each_actions_flags():
    text = (ROOT / "README.md").read_text()
    section = text.split("Each `bayesmix` action takes only the flags it reads", 1)[1]
    table = {}
    for line in section.split("\n\n", 2)[1].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if re.fullmatch(r"`\w+`", cells[0]):
            table[cells[0].strip("`")] = set(re.findall(r"`(--[\w-]+)`", cells[1]))
    actions = subparsers(subparsers(build_parser())["bayesmix"])
    assert table == {name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
                     for name, sub in actions.items()}
