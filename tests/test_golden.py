"""Golden reports: the exact bytes of six reports, pinned by their sha256.

A refactor that is meant to leave reports unchanged must keep these digests.
A deliberate change to the report format updates them, with the reason in
CHANGES.md.
"""

import hashlib

import pytest

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
        "90e4848af65c914fd2f413963ecc43f74b0e812be6195a8850b216e3646ddda2",
    ),
    "t3_q_solve_all": (
        {
            "field": "rational",
            "algebra": {"family": "Tn", "n": 3},
            "sigma": "identity",
            "tasks": [f"solve:{kind}" for kind in SOLVE_KINDS] + ["decompose:centralizing"],
        },
        "93e46a3fa31d495ed36f26c5e62f5da33b978eb987f044bbbe43bf95ead02521",
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
        "c136d24d1b514e63720a6f723e9a895fb929b5e1de190a9d98c81b27ae96dea0",
    ),
    # the center and sigma_center records of a non-triangular algebra
    "n3_gf7_centers": (
        {
            "field": {"prime": 7},
            "algebra": {"family": "fixture", "name": "n3"},
            "sigma": {"fixture_map": "sigma"},
            "tasks": ["center", "sigma_center"],
        },
        "0bda76afa9d0977300750ab64a07479208bf96c2d458f773aff3095e7bccde14",
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
        "ca0dbabe7781201042c6c2657f22636ab6a38fd63ceb073874d1e47a73869864",
    ),
    "trian_trunc2_q_inner_centers_solve_all": (
        {
            "field": "rational",
            "algebra": {"family": "trian_trunc", "N": 2},
            "sigma": {"conjugate_by": ["1", "1/2", "3", "-1", "2", "1/3"]},
            "tasks": ["center", "sigma_center"] + [f"solve:{kind}" for kind in SOLVE_KINDS],
        },
        "16e490619d56b879f6855eb65c184286a8f1d0219bd9d78c26124ddbac913cf6",
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_report_bytes_match_golden_digest(name):
    config, digest = GOLDEN[name]
    report, code = run_config(config)
    assert code == 0
    assert all(record["status"] in ("ok", "pass") for record in report["tasks"])
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == digest
