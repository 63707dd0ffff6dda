"""API quality gates: docstrings and export hygiene.

Meta-tests keeping the public surface documented: every module, every
public class/function and every public method must carry a docstring
(deliverable (e): "doc comments on every public item").
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import repro


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":
            continue  # executes the CLI on import
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_every_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_callables_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their home module
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(obj):
            for member_name, member in vars(obj).items():
                if member_name.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    # getdoc() inherits docs from overridden bases.
                    doc = inspect.getdoc(getattr(obj, member_name))
                    if not (doc and doc.strip()):
                        undocumented.append(f"{name}.{member_name}")
    assert not undocumented, f"{module.__name__}: {undocumented}"


def test_all_exports_resolve():
    for module in ALL_MODULES:
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"


def test_top_level_all_is_complete():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def _loaded_by_import(module, candidates, top_level=False):
    """Which of *candidates* a fresh ``import module`` loads (sorted)."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    names = "{m.split('.')[0] for m in sys.modules}" if top_level else "set(sys.modules)"
    code = (
        f"import sys, {module}\n"
        f"print(sorted({names} & {set(candidates)!r}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_repro_defers_scipy_and_networkx():
    """``import repro`` must not pay for scipy/networkx (~0.9 s, ~80 MiB):
    only structure learning and ``SPN.to_networkx`` use them, and they
    import them where they are called."""
    assert _loaded_by_import("repro", {"scipy", "networkx"}, top_level=True) == "[]"


def test_import_serving_loads_no_http_stack():
    """``import repro.serving`` (the e2e ``serve_*`` workloads' import)
    loads no HTTP server: the Perfetto trace is the one serving
    artifact, written after the run."""
    assert _loaded_by_import(
        "repro.serving", {"http.server", "repro.obs.exporter"}
    ) == "[]"
