"""Documentation gates: every public item carries a docstring.

Deliverable (e) of the reproduction brief: doc comments on every public
item.  This test walks the package and fails on any public module, class
or function without a docstring — so the guarantee cannot rot.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

EXEMPT_MODULES = set()


def _walk_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in EXEMPT_MODULES:
            continue
        out.append(info.name)
    return sorted(out)


ALL_MODULES = _walk_modules()


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_public_items_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name, item in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(item) or inspect.isfunction(item)):
            continue
        if getattr(item, "__module__", None) != module_name:
            continue  # re-export; documented at its definition site
        if not (item.__doc__ and item.__doc__.strip()):
            missing.append(name)
        if inspect.isclass(item):
            for method_name, method in vars(item).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if not (method.__doc__ and method.__doc__.strip()):
                    # inherited docstrings count: check the MRO
                    inherited = None
                    for base in item.__mro__[1:]:
                        candidate = getattr(base, method_name, None)
                        if candidate is not None and candidate.__doc__:
                            inherited = candidate.__doc__
                            break
                    if not inherited:
                        missing.append(f"{name}.{method_name}")
    assert not missing, f"{module_name}: missing docstrings on {missing}"


def test_readme_and_design_docs_exist():
    from pathlib import Path

    root = Path(repro.__file__).resolve().parents[2]
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        path = root / doc
        assert path.exists(), f"{doc} missing"
        assert len(path.read_text()) > 1_000, f"{doc} suspiciously short"


def test_changes_entries_fit_the_claims_ledger():
    """ROADMAP item 8's rule: every CHANGES.md entry from PR 26 on is at
    most 15 lines, none longer than 80 characters."""
    import re
    from pathlib import Path

    root = Path(repro.__file__).resolve().parents[2]
    entries = {}
    current = None
    for line in (root / "CHANGES.md").read_text().splitlines():
        if line.startswith("- "):
            match = re.match(r"- (?:\*\*)?PR (\d+)\b", line)
            number = int(match.group(1)) if match else None
            current = number if number is not None and number >= 26 else None
            if current is not None:
                entries[current] = []
        elif not line.startswith("  "):
            current = None
        if current is not None:
            entries[current].append(line)
    assert {26, 27, 30, 31} <= set(entries), sorted(entries)
    for number, lines in entries.items():
        assert len(lines) <= 15, f"PR {number}: {len(lines)} lines"
        wide = [line for line in lines if len(line) > 80]
        assert not wide, f"PR {number}: lines over 80 characters: {wide}"
