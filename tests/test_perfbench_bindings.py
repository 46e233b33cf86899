"""The pipeline benchmark's attribution layer binds program names.

``perfbench/layers.py`` wraps public functions and methods of ``repro``
by name.  Installing it here means a removed or renamed name fails the
test suite instead of only the traced benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_layers_install_against_the_program():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "from layers import Recorder, install; install(Recorder())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
