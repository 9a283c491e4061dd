"""The import contract: a command loads only the modules it runs.

Each check runs in a fresh interpreter, since this process has long loaded
every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CFG = str(ROOT / "data" / "theoretical.cfg")
#: the modules that load on first use, not with the package or cli
LAZY = ("quadrelax.analysis", "quadrelax.evolution", "quadrelax._tables", "scipy.optimize")


def _probe(code: str):
    """The JSON value that a fresh interpreter running code prints last; src/ comes
    first on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loaded_after(code: str) -> list[str]:
    """The LAZY modules loaded after running code in a fresh interpreter."""
    return _probe(f"import json, sys\n{code}\n"
                  f"print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))")


@pytest.mark.parametrize("module", ["quadrelax", "quadrelax.cli"])
def test_import_loads_no_lazy_module(module):
    assert _loaded_after(f"import {module}") == []


@pytest.mark.parametrize("argv, loaded", [
    (["rates", "--config", CFG], []),
    (["validate"], ["quadrelax._tables"]),
    (["evolve", "--config", CFG, "--t-max", "1e-3", "--points", "5"], ["quadrelax.evolution"]),
    (["fit", "--long", str(ROOT / "data" / "synthetic_longitudinal.csv"),
      "--trans", str(ROOT / "data" / "synthetic_transverse.csv"), "--quad-freq", "5969",
      "--restarts", "1"], ["quadrelax.analysis", "quadrelax.evolution", "scipy.optimize"]),
], ids=["rates", "validate", "evolve", "fit"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, loaded):
    run = f"import quadrelax.cli\nassert quadrelax.cli.main({[*argv, '--out', str(tmp_path)]!r}) == 0"
    assert _loaded_after(run) == loaded


def test_public_names_resolve_are_listed_and_star_import():
    names = _probe("import json, quadrelax\n"
                   "ns = {}\n"
                   "exec('from quadrelax import *', ns)\n"
                   "print(json.dumps({'all': quadrelax.__all__,\n"
                   "                  'dir': dir(quadrelax),\n"
                   "                  'star': [n for n in quadrelax.__all__\n"
                   "                           if ns.get(n) is getattr(quadrelax, n)]}))")
    assert len(names["all"]) == len(set(names["all"])) > 40
    assert set(names["all"]) <= set(names["dir"])
    assert names["star"] == names["all"]


def test_submodule_resolves_as_an_attribute_after_a_bare_import():
    seen = _probe("import json, sys, quadrelax\n"
                  "before = 'quadrelax.analysis' in sys.modules\n"
                  "module = quadrelax.analysis\n"
                  "print(json.dumps([before, module is sys.modules['quadrelax.analysis'],\n"
                  "                  quadrelax.fit_redfield_joint is module.fit_redfield_joint,\n"
                  "                  hasattr(quadrelax, 'no_such_name')]))")
    assert seen == [False, True, True, False]
