"""Import hygiene: lazy package exports and the one-shot import footprint.

Every package ``__init__`` resolves its public names on first read
(PEP 562).  These tests pin both halves of that contract: each exported
name is the very object its defining submodule holds, whatever order
modules were imported in, and a check loads only the code it runs.
Module sets are compared in fresh interpreters, never timings.
"""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

from repro import Session

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

PACKAGES = ("repro", "repro.analysis", "repro.core", "repro.engine",
            "repro.obs", "repro.optimizer", "repro.rules", "repro.semiring",
            "repro.serve", "repro.solver", "repro.sql", "repro.theory")

TABLE = "R(a:int,b:int)"
EQUIVALENT = ("SELECT DISTINCT a FROM R",
              "SELECT DISTINCT x.a FROM R AS x, R AS y WHERE x.a = y.a")
REFUTED = ("SELECT a FROM R", "SELECT b FROM R")

#: Never loaded by a check that the disprover does not decide.
NOT_ON_THE_CHECK_PATH = (
    "repro.optimizer", "repro.rules", "repro.analysis.rulecheck",
    "repro.serve", "repro.solver.service", "repro.solver.disprover",
    "repro.engine.compile", "multiprocessing", "concurrent.futures.process",
)


def _run(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=False)


def _loaded(modules, prefixes):
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))


def _declared_sources(package: str):
    """Exported name → the module its package ``__init__`` says defines
    it: ``from .x import name`` lines and ``lazy_exports`` tables."""
    module = import_module(package)
    with open(module.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    sources = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module is not None:
            for alias in node.names:
                sources[alias.asname or alias.name] = \
                    f"{package}.{node.module}"
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "lazy_exports":
            for key, value in zip(node.args[1].keys, node.args[1].values):
                for name in ast.literal_eval(value):
                    sources[name] = package + ast.literal_eval(key)
    return sources


class TestImportFootprint:
    def test_session_check_loads_only_what_it_runs(self):
        result = _run(f"""
import json, sys
from repro import Session
session = Session.from_tables({TABLE!r})
proved = session.check(*{EQUIVALENT!r})
after_proof = sorted(sys.modules)
refuted = session.check(*{REFUTED!r})
print(json.dumps({{"proved": proved.status.value,
                  "after_proof": after_proof,
                  "after_refutation": sorted(sys.modules),
                  "refuted": refuted.to_dict()}}))
""")
        assert result.returncode == 0, result.stderr
        out = json.loads(result.stdout)
        assert out["proved"] == "PROVED"
        assert _loaded(out["after_proof"], NOT_ON_THE_CHECK_PATH) == []
        assert "repro.solver.disprover" in out["after_refutation"]
        # The lazily loaded disprover answers as it does in a process
        # that has every module loaded (this one).
        expected = Session.from_tables(TABLE).check(*REFUTED).to_dict()
        for key in ("status", "stage", "counterexample", "bound",
                    "fingerprint", "detail"):
            assert out["refuted"][key] == expected[key], key

    def test_cli_check_loads_neither_serve_nor_optimizer(self):
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "check",
             "--table", TABLE, *EQUIVALENT],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=120, check=False)
        assert result.returncode == 0, result.stderr
        assert "PROVED" in result.stdout
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in result.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "repro.solver.pipeline" in imported
        assert _loaded(imported, ("repro.serve", "repro.optimizer")) == []


class TestExportParity:
    def test_every_export_is_its_defining_modules_object(self):
        """Import every package, then every submodule (the order that
        lets a submodule shadow a same-named export), then resolve."""
        result = _run(f"""
import json, pkgutil, sys
from importlib import import_module
import repro
packages = {PACKAGES!r}
for name in packages:
    import_module(name)
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        import_module(info.name)
out = {{}}
for name in packages:
    pkg = sys.modules[name]
    out[name] = {{attr: id(getattr(pkg, attr)) for attr in pkg.__all__}}
mods = [m for m in list(sys.modules) if m.startswith("repro")]
ids = {{m: {{a: id(v) for a, v in vars(sys.modules[m]).items()}}
       for m in mods}}
print(json.dumps({{"exports": out, "ids": ids,
                  "modules": {{m: id(sys.modules[m]) for m in mods}}}}))
""")
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        for package in PACKAGES:
            sources = _declared_sources(package)
            for name, value_id in data["exports"][package].items():
                source = sources.get(name)
                submodule = f"{package}.{name}"
                if source is not None:
                    held = data["ids"][source].get(name)
                    assert value_id == held, (package, name, source)
                elif submodule in data["modules"]:  # ``from . import ast``
                    assert value_id == data["modules"][submodule]
                else:  # defined in the package ``__init__`` itself
                    assert name in data["ids"][package], (package, name)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_dir_lists_all_exports(self, package):
        module = import_module(package)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", PACKAGES)
    def test_star_import(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        module = import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_same_named_exports_are_not_their_submodules(self):
        from repro.core import normalize
        from repro.optimizer import explain, saturate
        from repro.sql import unparse
        from repro.theory import minimize
        for value in (explain, saturate, normalize, unparse, minimize):
            assert callable(value) and not isinstance(value, type(ast))

    def test_unknown_attribute_raises(self):
        import repro.sql
        with pytest.raises(AttributeError):
            repro.sql.no_such_name
        assert not hasattr(repro, "no_such_module")
