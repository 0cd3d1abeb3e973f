"""Every benchmark workload calls ``trialg.linalg.rref``.

``perfbench/run.py --trace 1`` reads the counter ``linalg.rref.rank``, which
its tracer writes only when ``rref`` itself runs; on a workload whose jobs
never call ``rref`` the traced run exits 1 with ``KeyError:
'linalg.rref.rank'``.  So while ``Matrix.rank`` and ``Subspace.from_vectors``
stay on ``rref``, this test keeps the traced benchmark runnable.  It goes
once the benchmark guards ``counts["linalg.rref.rank"]``.

On ``solve-gfp`` and ``solve-q`` the only ``rref`` calls are ``Matrix.rank``
inside ``maps.require_automorphism``, which ``resolve_twist`` runs for every
kind but ``derivation`` and ``left_multiplier``: at seed 1, 2 calls on
``solve-gfp``, both on the identity σ, and 3 on ``solve-q``, 2 of them on the
identity σ.  Skipping that check for an identity σ, or moving
``Matrix.rank`` off ``rref``, makes this test fail.
"""

import os
import sys

import pytest

from trialg import linalg
from trialg.cli import run_config

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_calls_rref(monkeypatch, workload):
    configs = workloads.generate(workload, 1)
    calls = []
    rref = linalg.rref

    def counted(*args, **kwargs):
        calls.append(args)
        return rref(*args, **kwargs)

    monkeypatch.setattr(linalg, "rref", counted)
    for config in configs:
        assert run_config(config)[1] == 0
    assert calls, f"no job of {workload} calls linalg.rref"
