"""Golden reports: seventeen reports, each pinned by two sha256 digests.

Eleven of them are the distinct jobs of the benchmark workloads at seeds 1
and 777, so a refactor that must leave the benchmark's reports unchanged is
checked here.

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

GF_10007 = {"prime": 10007}

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
    # the distinct jobs of the benchmark workloads solve-gfp, solve-q and
    # verify-mix at seeds 1 and 777, as perfbench/workloads.py generates them
    "bench_gfp_t7_derivation": (
        {"field": GF_10007, "algebra": {"family": "Tn", "n": 7}, "sigma": "identity", "tasks": ["solve:derivation"]},
        "fe90fc7cfe69ba972eb0385a6545da4ee63a6516b64238d55dd284ecd3849613",
        "db7fe5d8888ed351ed39108730cefd3eab6f3856bfde4348242dc7635a13aebf",
    ),
    "bench_gfp_t6_generalized_pair": (
        {
            "field": GF_10007,
            "algebra": {"family": "Tn", "n": 6},
            "sigma": "identity",
            "tasks": ["solve:generalized_pair"],
        },
        "c50c600ba81837ea8d6c4ab4a507449579574a8c7e7b5944f93f80ef5a7984c4",
        "d0c5f0d49c7791561869ff43f38204d8ab8694c03259315e672e9b5689734b4c",
    ),
    "bench_gfp_t6_commuting": (
        {"field": GF_10007, "algebra": {"family": "Tn", "n": 6}, "sigma": "identity", "tasks": ["solve:commuting"]},
        "41eb3aae3f90dc49d9dfc70480b283c61ac363d62db2c2b92d3e69e16aaf6f44",
        "e7a2a72606795aa3ea36b18e2de14d3199b15307fabd3099253411cd59282110",
    ),
    "bench_gfp_block222_derivation": (
        {
            "field": GF_10007,
            "algebra": {"family": "block", "dims": [2, 2, 2]},
            "sigma": "identity",
            "tasks": ["solve:derivation"],
        },
        "239f377bc4d973e31499ad62a562127fe75ddbb5ebb36be8abb88a208b40885d",
        "a607994b0db0fc69fe5b05a1eea03d117633c2fbd0142223d138a6ab6e0e0f8a",
    ),
    "bench_q_t5_derivation": (
        {"field": "rational", "algebra": {"family": "Tn", "n": 5}, "sigma": "identity", "tasks": ["solve:derivation"]},
        "2932f39dc6ca5976ea54cd036e2f81a106f203a2e712a8494b9fecb7f81f48b1",
        "f94971cd5a5fcdcd7aab508548802d12c5366e1ca3b3c14f47c55eeef1a6db4e",
    ),
    "bench_q_t5_sigma_derivation_seed1": (
        {
            "field": "rational",
            "algebra": {"family": "Tn", "n": 5},
            "sigma": {"conjugate_by": [-2, 1, 0, -1, 2, -2, 2, 2, -2, 2, 2, 0, -1, 0, 1]},
            "tasks": ["solve:sigma_derivation"],
        },
        "888308b354aa593fc287d3b8bd4aea79d4019feccc1da4083357a5fbbc13e3bb",
        "84e7341510d0a93ea7536270350f8d2adf51319b4eca9fe06e454b8ea3b62e22",
    ),
    "bench_q_t5_sigma_derivation_seed777": (
        {
            "field": "rational",
            "algebra": {"family": "Tn", "n": 5},
            "sigma": {"conjugate_by": [1, 1, 0, -1, 0, 2, 1, -1, 1, 2, 1, 0, -2, 2, -2]},
            "tasks": ["solve:sigma_derivation"],
        },
        "69bd608c6abee256d8a830c1465a20f59cddc3a2398c37a09a1dbd821f56bff8",
        "ff959ad4e0006372e382617fed8ac4c03185b99cdbf002ed1d253bd60e20e244",
    ),
    "bench_q_t4_generalized_pair": (
        {
            "field": "rational",
            "algebra": {"family": "Tn", "n": 4},
            "sigma": "identity",
            "tasks": ["solve:generalized_pair"],
        },
        "c72663d2a8c257ff583cd2f088ea671c0293b9f8a4d48d2decd59c15c8ef2d0d",
        "04ff27850373b2a038dc5e3d074ca3d74cd13cb35e6ea0b1f877761f78759073",
    ),
    "bench_q_t5_commuting": (
        {"field": "rational", "algebra": {"family": "Tn", "n": 5}, "sigma": "identity", "tasks": ["solve:commuting"]},
        "14a713e9e174edcb6140b87ac23142136ade1842467ac0e5840f275f5c2d4e4c",
        "8852a928e5d497feb4371a6a9c9aa43eb99df24ca7765be290b1d479efd23298",
    ),
    "bench_verify_mix_seed1": (
        {
            "field": GF_10007,
            "algebra": {"family": "trian_trunc", "N": 4},
            "sigma": {"conjugate_by": [9914, 6746, 6823, 3889, 4042, 854, 625, 3993, 717, 3957, 6723, 2959]},
            "tasks": VERIFY_MIX_TASKS,
            "seed": 1518497414,
            "samples": 50,
        },
        "4a41b54a119658e68d9cf9182911f011bc03c5024947412a8bb0ee7123b8ff84",
        "0320d422adaa0e8b70759b12049bb744fb6048338ca8e09623f24bb437131a07",
    ),
    "bench_verify_mix_seed777": (
        {
            "field": GF_10007,
            "algebra": {"family": "trian_trunc", "N": 4},
            "sigma": {"conjugate_by": [7066, 7714, 2051, 5929, 1569, 1904, 3865, 2064, 943, 9980, 5928, 9989]},
            "tasks": VERIFY_MIX_TASKS,
            "seed": 1214709953,
            "samples": 50,
        },
        "aa17bb62f3a38b72cfaed9f9bef19258c06a2c020351503caa80719d5c7a6b69",
        "cf24b93f9a3907fdc677fc85614482525e884f0b361954216ef653147f39bb30",
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
