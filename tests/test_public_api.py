"""API hygiene: exports exist, are documented, and the README snippet runs."""

from __future__ import annotations

import re
from pathlib import Path


import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} in __all__ but not importable"

    def test_public_callables_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_version_matches_pyproject(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        match = re.search(r'^version = "([^"]+)"', pyproject.read_text(),
                          re.MULTILINE)
        assert match is not None
        assert repro.__version__ == match.group(1)

    def test_submodules_documented(self):
        import importlib

        modules = [
            "repro.core", "repro.poset", "repro.flow", "repro.stats",
            "repro.baselines", "repro.datasets", "repro.experiments",
            "repro.io", "repro.viz", "repro.cli",
        ]
        for name in modules:
            module = importlib.import_module(name)
            assert module.__doc__, f"{name} lacks a module docstring"

    def test_subpackage_alls_resolve(self):
        import importlib

        for name in ("repro.core", "repro.poset", "repro.flow",
                     "repro.stats", "repro.baselines", "repro.datasets"):
            module = importlib.import_module(name)
            for symbol in getattr(module, "__all__", []):
                assert hasattr(module, symbol), f"{name}.{symbol} missing"


class TestReadmeSnippet:
    def test_quickstart_code_block_executes(self, capsys):
        """The README's quickstart must actually run (docs don't rot)."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        assert blocks, "README has no python code block"
        namespace: dict = {}
        exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)
        out = capsys.readouterr().out
        assert "k*" in out or "probes" in out

    def test_package_docstring_quickstart_executes(self):
        """The package docstring's example must run, too."""
        doc = repro.__doc__
        match = re.search(r"Quickstart::\n\n(.*?)(?:\n\S|\Z)", doc, re.DOTALL)
        assert match is not None
        code = "\n".join(line[4:] if line.startswith("    ") else line
                         for line in match.group(1).splitlines())
        exec(compile(code, "<package quickstart>", "exec"), {})
