"""Opt-in stress cases excluded from the default suite.

Run with `pytest -m stress tests/test_stress.py` (each case closes 28800
exact 4x4 matrices over a degree-8 number field first).
"""

import json
import os
import resource
import subprocess
import sys

import pytest

from invforge import corpus

ADDRESS_SPACE_CAP = 3 * 2 ** 30  # bytes; the |G|^2 table alone needs more


@pytest.mark.stress
def test_two_icosahedral_blocks_with_swap_closure():
    g = corpus.load_corpus_group("2i2i2.group")
    assert g.order == 2 * 120 * 120
    assert len(g.center_indices()) == 2


def _capped():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


@pytest.mark.stress
@pytest.mark.parametrize("command", [["rank", "--ell", "2"], ["generators"]])
def test_two_icosahedral_blocks_refused_before_the_table(command):
    # the 28800 x 28800 table and the default degree bound 28800 are refused
    # with an error line after the closure, not a MemoryError traceback
    # or an unbounded Molien recurrence
    group = os.path.join(corpus.DATA_DIR, "2i2i2.group")
    proc = subprocess.run(
        [sys.executable, "-m", "invforge.cli", command[0], "--group", group]
        + command[1:], capture_output=True, text=True, preexec_fn=_capped,
        timeout=600)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "enumeration bound" in proc.stderr


@pytest.mark.stress
@pytest.mark.parametrize("command, outputs", [
    (["info"], {"pseudo_reflection_count": 0, "center_order": 2}),
    (["molien", "--max-degree", "12"], {"dims": [1] + [0] * 11 + [1]}),
])
def test_two_icosahedral_blocks_class_functions_once_per_class(command, outputs):
    # pseudo-reflections and the Molien series take one rank test or one
    # Berkowitz call per conjugacy class (54), not per element (28800),
    # so each command is mostly its closure
    group = os.path.join(corpus.DATA_DIR, "2i2i2.group")
    proc = subprocess.run(
        [sys.executable, "-m", "invforge.cli", "--machine", command[0],
         "--group", group] + command[1:],
        capture_output=True, text=True, preexec_fn=_capped, timeout=30)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)["outputs"]
    assert {key: got[key] for key in outputs} == outputs
