"""The package surface: the ``repro`` doctest, and what importing the
engine loads."""

from __future__ import annotations

import doctest
import json
import os
import subprocess
import sys

import repro

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_package_doctest():
    failed, attempted = doctest.testmod(repro)
    assert attempted > 0 and failed == 0


def test_engine_import_leaves_the_compiler_unloaded():
    """``import repro.sql, repro.server`` (a server process, a recovery
    child) loads neither the compiler, the PL/pgSQL interpreter nor the
    analyzer; the first access to a compiler name on ``repro`` does."""
    code = ("import json, sys, repro.sql, repro.server\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] == 'repro')\n"
            "before = loaded()\n"
            "import repro\n"
            "repro.compile_plsql\n"
            "print(json.dumps([before, loaded()]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True, timeout=60)
    before, after = json.loads(done.stdout)
    heavy = ("repro.compiler", "repro.plsql", "repro.analysis")
    assert "repro.sql.engine" in before and "repro.server" in before
    assert not [m for m in before if m.startswith(heavy)]
    assert "repro.compiler" in after
