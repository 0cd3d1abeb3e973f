import json

import pytest

from trialg.cli import fixtures_catalog, main, report_to_json, run_config
from trialg.errors import ConfigError


def write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


BASE = {
    "field": "rational",
    "algebra": {"family": "Tn", "n": 2},
    "sigma": "identity",
    "tasks": ["center"],
    "seed": 0,
}


def test_center_task():
    report, code = run_config(dict(BASE))
    assert code == 0
    task = report["tasks"][0]
    assert task["status"] == "ok"
    assert task["center"]["dim"] == 1
    assert task["center"]["basis"] == [["1", "0", "1"]]
    assert task["tau"] == [["1"]]


def test_solve_task_dimensions():
    cfg = dict(BASE, tasks=["solve:derivation"])
    report, code = run_config(cfg)
    assert code == 0
    assert report["tasks"][0]["dim"] == 2


def test_verification_suite_exit_zero():
    cfg = dict(
        BASE,
        algebra={"family": "Tn", "n": 3},
        tasks=["verify:posner", "verify:skew_zero", "verify:sharma_dhara", "verify:gd_left_mult"],
    )
    report, code = run_config(cfg)
    assert code == 0
    assert all(t["status"] == "pass" for t in report["tasks"])


def test_failed_verification_sets_exit_one():
    # a twisted check on an instance whose corner T_2 has idempotents errors out
    cfg = dict(
        BASE,
        algebra={"family": "Tn", "n": 3},
        sigma={"diag_signs": [1, -1]},
        tasks=["verify:posner"],
    )
    report, code = run_config(cfg)
    assert code == 1
    assert report["tasks"][0]["status"] == "error"
    assert "HypothesisNotMet" in report["tasks"][0]["error"]


def test_undecided_corners_fail_the_twisted_hypothesis():
    # K[x]/(x^3) over GF(3): the trace form vanishes, so neither corner is decided
    cfg = dict(
        BASE,
        field={"prime": 3},
        algebra={"family": "trian_trunc", "N": 3},
        sigma={"diag_signs": [1, -1]},
        tasks=["verify:posner"],
    )
    report, code = run_config(cfg)
    assert code == 1
    assert report["idempotent_flags_certified"] is False
    assert report["tasks"][0]["status"] == "error"
    assert report["tasks"][0]["error"].startswith("HypothesisNotMet: ")


@pytest.mark.parametrize(
    "field,algebra,certified",
    [
        ("rational", {"family": "Tn", "n": 3}, True),
        ({"prime": 10007}, {"family": "Tn", "n": 7}, True),
        ({"prime": 7}, {"family": "trian_trunc", "N": 2}, True),
        ({"prime": 3}, {"family": "trian_trunc", "N": 3}, False),
        ("rational", {"family": "trunc_poly", "N": 2}, None),
    ],
)
def test_idempotent_flags_certified(field, algebra, certified):
    report, _ = run_config(dict(BASE, field=field, algebra=algebra, tasks=[]))
    assert report["idempotent_flags_certified"] is certified


def test_task_errors_do_not_abort_the_run():
    cfg = dict(
        BASE,
        algebra={"family": "fixture", "name": "n3"},
        sigma={"fixture_map": "sigma"},
        tasks=["decompose:left_multiplier", "solve:skew_commuting"],
    )
    report, code = run_config(cfg)
    assert code == 0  # no verification tasks involved
    statuses = [t["status"] for t in report["tasks"]]
    assert statuses == ["error", "ok"]


def test_fixture_twisted_commutant_needs_automorphism():
    base = dict(BASE, algebra={"family": "fixture", "name": "n3"}, tasks=["sigma_center"])
    report, _ = run_config(dict(base, sigma={"fixture_map": "sigma"}))
    assert report["tasks"][0]["status"] == "ok"
    assert report["tasks"][0]["sigma_center"]["dim"] >= 1
    report, _ = run_config(dict(base, sigma={"fixture_map": "theta"}))
    assert report["tasks"][0]["status"] == "error"
    assert "NotAutomorphism" in report["tasks"][0]["error"]


def test_schema_version_checked():
    with pytest.raises(ConfigError):
        run_config(dict(BASE, schema_version=99))


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        run_config(dict(BASE, algebra={"family": "loops"}))


def test_unknown_task_rejected():
    with pytest.raises(ConfigError):
        run_config(dict(BASE, tasks=["summon:demon"]))


def test_char_two_rejected():
    with pytest.raises(ConfigError):
        run_config(dict(BASE, field={"prime": 2}))


def test_singular_conjugation_rejected():
    with pytest.raises(ConfigError):
        run_config(dict(BASE, sigma={"conjugate_by": ["0", "1", "0"]}))


def test_conjugation_errors_keep_their_messages():
    with pytest.raises(ConfigError, match=r"^sigma: conjugating element is not invertible$"):
        run_config(dict(BASE, sigma={"conjugate_by": ["0", "1", "0"]}))
    nilpotent = {"labels": ["e"], "table": [[["0"]]]}
    with pytest.raises(ConfigError, match=r"^sigma: conjugation needs a unital algebra$"):
        run_config(dict(BASE, algebra=nilpotent, sigma={"conjugate_by": ["1"]}))


def test_non_automorphism_matrix_rejected():
    mat = [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]
    with pytest.raises(ConfigError):
        run_config(dict(BASE, sigma={"matrix": mat}))


def test_sigma_parts_spec():
    cfg = dict(
        BASE,
        sigma={"parts": {"f": [["1"]], "g": [["1"]], "m_sigma": ["1"], "nu": [["1"]]}},
        tasks=["decompose:automorphism"],
    )
    report, code = run_config(cfg)
    assert code == 0
    task = report["tasks"][0]
    assert task["m_sigma"] == ["1"]
    assert task["nu_sigma"] == [["1"]]


def test_inline_algebra_spec():
    cfg = {
        "field": "rational",
        "algebra": {
            "labels": ["e"],
            "table": [[["1"]]],
            "unit": ["1"],
        },
        "tasks": ["center", "solve:left_multiplier"],
    }
    report, code = run_config(cfg)
    assert code == 0
    assert report["tasks"][0]["center"]["dim"] == 1
    assert report["tasks"][1]["dim"] == 1


def test_decompose_tasks_report_conditions():
    cfg = dict(
        BASE,
        sigma={"diag_signs": [1, -1]},
        tasks=["decompose:centralizing", "decompose:generalized_pair", "decompose:sigma_derivation"],
    )
    report, code = run_config(cfg)
    assert code == 0
    cent = report["tasks"][0]
    assert cent["status"] == "ok" and cent["dim"] >= 1
    for member in cent["members"]:
        assert member["round_trip"]
        assert set(member["conditions"]) >= {"i", "ii", "iii", "iv", "v", "vi", "vii", "viii"}
        assert all(member["conditions"].values())
    gen = report["tasks"][1]
    assert all(m["round_trip"] for m in gen["members"])


def test_report_serialization_round_trip():
    report, _ = run_config(dict(BASE, tasks=["center", "solve:derivation", "verify:posner"]))
    text = report_to_json(report)
    assert report_to_json(json.loads(text)) == text


def test_runs_are_byte_identical():
    cfg = dict(
        BASE,
        algebra={"family": "Tn", "n": 2},
        tasks=["center", "sigma_center", "solve:generalized_pair", "verify:posner", "verify:mayne"],
        seed=99,
    )
    first, _ = run_config(json.loads(json.dumps(cfg)))
    second, _ = run_config(json.loads(json.dumps(cfg)))
    assert report_to_json(first) == report_to_json(second)


def test_fixture_catalog_contents():
    catalog = fixtures_catalog()
    names = {entry["name"] for entry in catalog}
    assert names == {"n3", "trian_AA0"}
    by_name = {e["name"]: e for e in catalog}
    assert "theta" in by_name["n3"]["maps"] and "sigma" in by_name["n3"]["maps"]
    assert {"D", "d", "sigma"} <= set(by_name["trian_AA0"]["maps"])
    assert any("skew" in c for c in by_name["n3"]["checks"])
    assert any("partner" in c for c in by_name["trian_AA0"]["checks"])


def test_main_run_roundtrip(tmp_path, capsys):
    cfg = dict(BASE, tasks=["center", "verify:posner"])
    path = write_config(tmp_path, cfg)
    code = main(["run", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["tasks"][1]["status"] == "pass"


def test_main_writes_output_file(tmp_path):
    cfg = dict(BASE, tasks=["center"])
    path = write_config(tmp_path, cfg)
    out_path = tmp_path / "report.json"
    code = main(["run", "--config", path, "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["tasks"][0]["status"] == "ok"


def test_main_seed_override(tmp_path, capsys):
    cfg = dict(BASE, tasks=["center"], seed=1)
    path = write_config(tmp_path, cfg)
    code = main(["run", "--config", path, "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_main_config_error_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, dict(BASE, algebra={"family": "loops"}))
    assert main(["run", "--config", path]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "edit",
    [
        {"samples": 0, "tasks": ["verify:mayne"]},
        {"samples": "abc", "tasks": ["verify:mayne"]},
        {"samples": True, "tasks": ["verify:mayne"]},
        {"seed": 1.7},
        {"seed": False},
        {"sigma": {"conjugate_by": ["1/0", "0", "1"]}},
        {"algebra": {"family": "matrix", "n": 0}},
        {"algebra": {"family": "matrix", "n": -1}},
        {"algebra": {"table": []}},
        {"sigma": {"conjugate_by": ["1", "0", "1", "5"]}},
        {"algebra": {"family": "trunc_poly", "N": 2}, "sigma": {"conjugate_by": ["1"]}},
        {"field": {"prime": "7"}},
        {"field": {"prime": 7.0}},
        {"algebra": {"family": "Tn", "n": 2.5}},
        {"algebra": {"family": "Tn", "n": "2"}},
        {"algebra": {"family": "Tn", "n": True}},
        {"algebra": {"family": "Tn", "n": 3, "split": 1.0}},
        {"algebra": {"family": "block", "dims": [1, "1"]}},
        {"algebra": {"family": "trian_trunc", "N": 2.0}},
        {"enumeration_bound": 10},
        {"algebra": {"labels": ["e"], "table": [[["1"]]], "unit": ["1"], "only_trivial_idempotents": True}},
        {"algebra": {"family": "Tn", "n": 3, "spilt": 2}},
        {"algebra": {"family": "trunc_poly", "N": 3, "n": 5}},
        {"algebra": {"family": "fixture", "name": "n3", "N": 9}},
        {"sigma": {"diag_signs": [1, -1], "extra": 1}},
        {"sigma": {"diag_signs": [1, -1], "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}},
        {"sigma": {"parts": {"f": [["1"]], "g": [["1"]], "m_sigma": ["0"], "nu": [["1"]], "extra": 1}}},
        {"sigma": {"parts": {"f": [["1"]], "g": [["1"]], "m_sigma": ["0"], "nu": [["1"], ["1"]]}}},
        {"sigma": {"parts": {"f": [["1"]], "g": [["1"]], "m_sigma": ["0"], "nu": [["1", "0"]]}}},
        {"sigma": {"parts": {"f": [["1"]], "g": [["1"]], "m_sigma": ["0"], "nu": [["1"], ["0"]]}}},
    ],
    ids=[
        "samples-zero",
        "samples-text",
        "samples-bool",
        "seed-float",
        "seed-bool",
        "scalar-zero-denominator",
        "matrix-n-zero",
        "matrix-n-negative",
        "empty-table",
        "conjugate-too-long",
        "conjugate-too-short",
        "prime-text",
        "prime-float",
        "n-float",
        "n-text",
        "n-bool",
        "split-float",
        "dims-text-entry",
        "N-float",
        "unknown-top-level-key",
        "unknown-inline-key",
        "misspelt-family-key",
        "key-of-another-family",
        "key-of-another-fixture",
        "unknown-sigma-key",
        "two-sigma-forms",
        "unknown-parts-key",
        "nu-too-tall",
        "nu-too-wide",
        "nu-too-tall-singular",
    ],
)
def test_main_bad_config_value_exit_two(tmp_path, capsys, edit):
    path = write_config(tmp_path, dict(BASE, **edit))
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("dims", ["a,b", "2,,2"])
def test_main_solve_bad_dims_exit_two(capsys, dims):
    assert main(["solve", "--family", "block", "--dims", dims, "--kind", "derivation"]) == 2
    assert capsys.readouterr().err.startswith("config error: solve: --dims")


def test_main_fixtures(capsys):
    assert main(["fixtures"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {f["name"] for f in out["fixtures"]} == {"n3", "trian_AA0"}


def test_main_solve_shortcut(capsys):
    assert main(["solve", "--family", "Tn", "--n", "3", "--kind", "derivation"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tasks"][0]["dim"] == 5


def test_main_solve_prime_field(capsys):
    assert main(["solve", "--family", "Tn", "--n", "2", "--kind", "left_multiplier", "--prime", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tasks"][0]["dim"] == 3
    assert out["field"] == {"prime": 5}
