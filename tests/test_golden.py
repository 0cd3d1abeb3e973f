"""Golden reports: six reports, each pinned by two sha256 digests.

The first digest is of the report's bytes; the second is of its content,
``json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))``.  A
refactor that is meant to leave reports unchanged must keep both.  A change to
the layout alone keeps the content digest and updates the byte digest; a
change to the content updates both.  Either comes with the reason in
CHANGES.md.
"""

import functools
import hashlib
import json

import pytest
from report_reference import reference_text

from trialg.cli import report_to_json, run_config
from trialg.maps import SOLVE_KINDS

VERIFY_MIX_TASKS = [
    "center",
    "sigma_center",
    "solve:sigma_derivation",
    "solve:generalized_pair",
    "decompose:automorphism",
    "decompose:sigma_derivation",
    "decompose:centralizing",
    "decompose:generalized_pair",
    "decompose:left_multiplier",
    "verify:posner",
    "verify:mayne",
    "verify:skew_zero",
    "verify:sharma_dhara",
    "verify:gd_left_mult",
]

GOLDEN = {
    "trian_trunc2_gf7_inner": (
        {
            "field": {"prime": 7},
            "algebra": {"family": "trian_trunc", "N": 2},
            "sigma": {"conjugate_by": ["1", "2", "3", "4", "5", "6"]},
            "tasks": VERIFY_MIX_TASKS,
            "seed": 7,
            "samples": 10,
        },
        "8cb09f9531e6ad5a96a146205dd8de2c1eb630ba6a1d54dead0dd1dcbaeadfeb",
        "ecc3ab2c2d88bcfab273bc33320f881aaa923f2a313acbb7630e151a3436a60e",
    ),
    "t3_q_solve_all": (
        {
            "field": "rational",
            "algebra": {"family": "Tn", "n": 3},
            "sigma": "identity",
            "tasks": [f"solve:{kind}" for kind in SOLVE_KINDS] + ["decompose:centralizing"],
        },
        "a8b4f7e1cfa93e7d67185ead11b2ee016380e025850d2255fc5cd7f7fffe983b",
        "e75b426084d8250adfaa0f8f133fb1c1fe6c9f73742110e29f76da3dad0fd9e9",
    ),
    # every decomposition kind but automorphism, and a triangular sigma_center
    # without eta (T2 has nontrivial idempotents)
    "t3_q_structure_all": (
        {
            "field": "rational",
            "algebra": {"family": "Tn", "n": 3},
            "sigma": "identity",
            "tasks": ["center", "sigma_center"]
            + [
                f"decompose:{kind}"
                for kind in (
                    "derivation",
                    "sigma_derivation",
                    "commuting",
                    "centralizing",
                    "generalized_pair",
                    "left_multiplier",
                )
            ],
        },
        "7bd24abd62f2a2d1e3c0016374af7a58709c28a3d6c8b19d8714a572d8f103b9",
        "d90c630063678e687b93b631fdcdc075b8e0af7de0dbf23b0021cd5ea5f49987",
    ),
    # the center and sigma_center records of a non-triangular algebra
    "n3_gf7_centers": (
        {
            "field": {"prime": 7},
            "algebra": {"family": "fixture", "name": "n3"},
            "sigma": {"fixture_map": "sigma"},
            "tasks": ["center", "sigma_center"],
        },
        "4df82e7a6527e5ea3b51d53308781b3aaea0bad3f98936dee246629f574af176",
        "8c1c6067f8658354d3c0c26db6c79dfc9ffbb8d7d86195d93d287efa3e4d061e",
    ),
    # centers, twisted centers and every solve kind under inner twists, where
    # the centralizing kinds reduce against Z(A) ≠ A and σ-centers need τ and η
    "trian_trunc3_gf7_inner_centers_solve_all": (
        {
            "field": {"prime": 7},
            "algebra": {"family": "trian_trunc", "N": 3},
            "sigma": {"conjugate_by": ["1", "2", "3", "4", "5", "6", "1", "2", "3"]},
            "tasks": ["center", "sigma_center"] + [f"solve:{kind}" for kind in SOLVE_KINDS],
        },
        "1e952990b1f4034c73f75b155857a03ccc698e51fe67d5cd2aca400effe810a0",
        "11960fb6b2c82eab6d854426c8fb03826b92bf4e7794b5e0535fd0e4edd95cdd",
    ),
    "trian_trunc2_q_inner_centers_solve_all": (
        {
            "field": "rational",
            "algebra": {"family": "trian_trunc", "N": 2},
            "sigma": {"conjugate_by": ["1", "1/2", "3", "-1", "2", "1/3"]},
            "tasks": ["center", "sigma_center"] + [f"solve:{kind}" for kind in SOLVE_KINDS],
        },
        "409554407ad0fbe7d1ea2ee6a5a94180dce7cb08c3e6bf7b4a54f971f4ba7adf",
        "6857969679b7aa9ce1e358dfc87b3367fe17ef425e8622dca9c1f7d241846a69",
    ),
}


@functools.cache
def _golden_report(name):
    config = GOLDEN[name][0]
    report, code = run_config(config)
    assert code == 0
    assert all(record["status"] in ("ok", "pass") for record in report["tasks"])
    return report, report_to_json(report)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_report_bytes_match_golden_digest(name):
    _, text = _golden_report(name)
    assert _sha256(text) == GOLDEN[name][1]


@pytest.mark.parametrize("name", GOLDEN)
def test_report_content_matches_golden_digest(name):
    report, text = _golden_report(name)
    assert _sha256(json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))) == GOLDEN[name][2]
    assert text == reference_text(report) + "\n"
