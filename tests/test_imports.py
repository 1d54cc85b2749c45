"""Import footprint of the package."""

import os
import subprocess
import sys
from pathlib import Path

import mimicgame


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    # scipy.optimize, scipy.sparse, scipy.interpolate, scipy.integrate and
    # scipy.stats each add tens of MB, some a good part of a second, to
    # start-up; the package, its oracle and the simulator's tables included,
    # needs none of them
    src = str(Path(mimicgame.__file__).resolve().parents[1])
    code = "import sys, mimicgame; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120).stdout.split()
    assert "mimicgame" in loaded
    heavy = ("scipy.optimize", "scipy.sparse", "scipy.interpolate", "scipy.integrate",
             "scipy.stats")
    assert [m for m in loaded if m.startswith(heavy)] == []
