"""Packaging guards: the public API surface stays importable and coherent."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import repro


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_every_module_imports(self):
        failures = []
        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            try:
                importlib.import_module(module_info.name)
            except Exception as error:  # pragma: no cover - report which
                failures.append((module_info.name, error))
        assert not failures

    def test_every_public_module_has_docstring(self):
        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = importlib.import_module(module_info.name)
            assert module.__doc__, module_info.name

    def test_key_entry_points(self):
        # The README quickstart, condensed.
        from repro import AggregationEngine
        from repro.data import realestate

        engine = AggregationEngine(
            [realestate.paper_instance()], realestate.paper_pmapping()
        )
        answer = engine.answer(realestate.Q1, "by-tuple", "range")
        assert answer.as_tuple() == (1, 3)

    def test_py_typed_marker_ships(self):
        from pathlib import Path

        assert (Path(repro.__file__).parent / "py.typed").exists()

    def test_serve_exports_resolve(self):
        import repro.serve

        for name in repro.serve.__all__:
            value = getattr(repro.serve, name)
            assert value.__module__.startswith("repro.serve."), name
            assert name in dir(repro.serve)

    def test_library_path_leaves_the_network_stack_unloaded(self):
        """The engine and the serve registry load no HTTP, TLS, asyncio or
        numpy.random: each costs the library process resident memory.
        numpy 1.x imports numpy.random with numpy itself, so that part
        holds from numpy 2 on."""
        import numpy

        unwanted = ["ssl", "http.client", "http.server", "asyncio"]
        if int(numpy.__version__.split(".")[0]) >= 2:
            unwanted.append("numpy.random")
        script = (
            "import sys, repro, repro.serve.registry\n"
            f"print([name for name in {unwanted!r} if name in sys.modules])"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert result.stdout.strip() == "[]", result.stdout
