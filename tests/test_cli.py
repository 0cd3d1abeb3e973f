import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from report_reference import reference_text

from trialg import cli
from trialg.__main__ import main
from trialg.cli import (
    SCHEMA_VERSION,
    SIGMA_FORMS,
    TASKS,
    build_instance,
    build_sigma,
    fixtures_catalog,
    fmt_vector,
    report_to_json,
    run_config,
)
from trialg.errors import ConfigError
from trialg.fields import GF, QQ
from trialg.report import report_fragments

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


@pytest.mark.parametrize(
    "algebra,skew_zero",
    [({"family": "fixture", "name": "n3"}, "fail"), ({"family": "trunc_poly", "N": 3}, "pass")],
)
def test_plain_algebra_verdicts(algebra, skew_zero):
    """The CLI hands each verifier the algebra, and each verifier gates its
    own hypotheses: Posner and skew-zero run on a plain algebra under the
    identity (and can fail there), the triangular-only verifiers refuse it."""
    triangular_only = ["mayne", "gd_left_mult", "description"]
    tasks = ["verify:posner", "verify:skew_zero"] + [f"verify:{name}" for name in triangular_only]
    report, code = run_config(dict(BASE, algebra=algebra, tasks=tasks))
    posner, skew, *refused = report["tasks"]
    assert code == 1
    assert posner["status"] == "fail" and posner["witness"]
    assert skew["status"] == skew_zero and ("witness" in skew) == (skew_zero == "fail")
    for name, record in zip(triangular_only, refused):
        assert record["status"] == "error"
        assert record["error"] == f"HypothesisNotMet: {name} needs a triangular algebra"


def test_plain_algebra_decompositions_are_refused():
    """Each decomposition gates its own hypotheses: on a plain algebra it
    reports HypothesisNotMet naming the library entry point it runs."""
    tasks = [task for task in sorted(TASKS) if task.startswith("decompose:")]
    report, code = run_config(dict(BASE, algebra={"family": "fixture", "name": "n3"}, tasks=tasks))
    assert code == 0
    for record in report["tasks"]:
        name = "decompose_automorphism" if record["task"] == "decompose:automorphism" else "decompose_space"
        assert record["status"] == "error"
        assert record["error"] == f"HypothesisNotMet: {name} needs a triangular algebra"


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
    with pytest.raises(ConfigError, match="^sigma: fixture map 'theta' is not an automorphism: not invertible$"):
        run_config(dict(base, sigma={"fixture_map": "theta"}))


def test_fixture_map_is_checked_before_any_task(tmp_path, capsys):
    """A fixture map that is no automorphism is a config error even for a
    run whose only task never reads σ."""
    config = dict(BASE, algebra={"family": "fixture", "name": "n3"}, sigma={"fixture_map": "theta"}, tasks=["center"])
    assert main(["run", "--config", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr().err == "config error: sigma: fixture map 'theta' is not an automorphism: not invertible\n"


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


_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), st.sampled_from(['"', "\\", "\n", "\x00\x1f", "é€😀"])
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_report_writer_matches_json_dumps(value):
    text = report_to_json(value)
    assert text == reference_text(value) + "\n"
    assert json.loads(text) == json.loads(json.dumps(value))


def test_report_writer_rejects_non_string_keys():
    with pytest.raises(TypeError):
        report_to_json({"tasks": [{1: "a"}]})


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
        {"sigma": {"conjugate_by": "123"}},
        {"sigma": {"diag_signs": "12"}},
        {"sigma": {"matrix": ["100", "010", "001"]}},
        {"algebra": {"labels": ["e"], "table": [[["1"]]], "unit": "1"}},
        {"algebra": {"labels": ["e"], "table": [["1"]], "unit": ["1"]}},
        {"sigma": {"parts": {"f": [["1"]], "g": [["1"]], "m_sigma": "0", "nu": [["1"]]}}},
        {"algebra": {"labels": "e", "table": [[["1"]]], "unit": ["1"]}},
        {"sigma": {"diag_signs": [True, -1]}},
        {"sigma": {"conjugate_by": ["1", False, "1"]}},
        {"schema_version": True},
        {"schema_version": 1.0},
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
        "conjugate-by-string",
        "diag-signs-string",
        "matrix-rows-strings",
        "unit-string",
        "structure-vector-string",
        "m-sigma-string",
        "labels-string",
        "diag-signs-bool",
        "conjugate-by-bool",
        "schema-version-bool",
        "schema-version-float",
    ],
)
def test_main_bad_config_value_exit_two(tmp_path, capsys, edit):
    path = write_config(tmp_path, dict(BASE, **edit))
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "edit,message",
    [
        ({"algebra": {"family": ["Tn"]}}, "algebra: family must be a string, got ['Tn']"),
        ({"algebra": {"family": "fixture", "name": ["n3"]}}, "algebra: name must be a string, got ['n3']"),
        ({"algebra": {"family": "Tn"}}, "algebra: missing key 'n'"),
        ({"algebra": {"family": "block", "dims": 3}}, "dims: expected a list, got 3"),
        ({"field": {"prime": 7}, "sigma": {"conjugate_by": ["1/2", "0", "1"]}},
         "scalar: '1/2' is not a scalar of GF(7): write it as an integer"),
        ({"sigma": {"conjugate_by": ["one", "0", "1"]}},
         "scalar: 'one' is not a scalar of QQ: write it as an integer or as \"num/den\""),
        ({"sigma": {"parts": {"f": [["1"]], "g": [["1"]], "m_sigma": ["0"]}}}, "sigma: missing key 'nu'"),
        ({"algebra": {"family": "fixture", "name": "n3"}, "sigma": {"fixture_map": ["x"]}},
         "sigma: fixture_map must be a string, got ['x']"),
        ({"sigma": {"parts": []}}, "sigma: parts must be an object, got []"),
        ({"sigma": {"parts": "fg"}}, "sigma: parts must be an object, got 'fg'"),
    ],
)
def test_config_errors_name_the_field_and_the_value(tmp_path, capsys, edit, message):
    path = write_config(tmp_path, dict(BASE, **edit))
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "matrix,witness",
    [
        # swapping the diagonal idempotents keeps the unit but not a·m = m
        ([["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]], "multiplicativity at pair (0, 1), lhs [0, 1, 0], rhs [0, 0, 0]"),
        ([["1/2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "unit not preserved, lhs [1/2, 0, 1], rhs [1, 0, 1]"),
        ([["1", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]], "not invertible"),
    ],
)
def test_non_automorphism_errors_show_the_witness(matrix, witness):
    instance = build_instance(QQ, BASE["algebra"])
    with pytest.raises(ConfigError) as err:
        build_sigma(instance, {"matrix": matrix})
    assert str(err.value) == f"sigma: matrix is not an automorphism: {witness}"


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


def test_main_solve_prime_zero_is_rejected(capsys):
    """``--prime 0`` names the field, as ``{"prime": 0}`` in a config does;
    it does not fall back to Q."""
    assert main(["solve", "--family", "Tn", "--n", "2", "--kind", "derivation", "--prime", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: field: 0 is not prime\n" and captured.out == ""


def test_main_solve_takes_every_named_family(capsys):
    """``trunc_poly`` is a solve family as it is a config family: K[x]/(x^3)
    has the derivations x ↦ x and x ↦ x²."""
    assert main(["solve", "--family", "trunc_poly", "--N", "3", "--kind", "derivation"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["instance"] == "trunc_poly(3)" and out["tasks"][0]["dim"] == 2


def test_main_solve_leaves_a_missing_size_to_the_config(capsys):
    assert main(["solve", "--family", "Tn", "--kind", "derivation"]) == 2
    assert capsys.readouterr().err == "config error: algebra: missing key 'n'\n"


def test_main_solve_passes_every_flag_to_the_config(capsys):
    """A size flag the family does not take is an unknown key, as in a config."""
    assert main(["solve", "--family", "trunc_poly", "--N", "3", "--n", "5", "--kind", "derivation"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: algebra: unknown keys ['n']\n" and captured.out == ""


@pytest.mark.parametrize("name", ["solve:", "decompose:x", "verify:posner ", "Center", "solve:Derivation"])
def test_unknown_tasks_exit_two_before_any_task_runs(tmp_path, capsys, monkeypatch, name):
    """A task list is checked whole, by exact name, before its first task runs."""
    def ran(*args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(cli, "_run_center", ran)
    path = write_config(tmp_path, dict(BASE, tasks=["center", name]))
    assert main(["run", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: tasks: unknown task {name!r}\n" and captured.out == ""


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_formatted_zeros_share_one_string(field):
    v = (field.zero, field.from_int(3), field.zero, field.from_int(-2), field.zero)
    out = fmt_vector(field, v)
    assert out == [field.format(x) for x in v]
    assert out[0] is out[2] is out[4]


def test_pair_solve_memory_is_bounded():
    """The T6 generalized-pair job over GF(10007): with its 882-unknown system
    stored before elimination and a fresh string for every zero entry of the
    41 × 882 basis, the run peaked near 2.9 MiB; streamed, with one shared
    zero string, it stays under 2 MiB."""
    cfg = {"field": {"prime": 10007}, "algebra": {"family": "Tn", "n": 6},
           "sigma": "identity", "tasks": ["solve:generalized_pair"]}
    tracemalloc.start()
    try:
        report, code = run_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and report["tasks"][0]["dim"] == 41
    assert peak < 2 * 1024 * 1024


def test_report_writer_peak_is_the_text_and_its_fragments():
    """Serializing the T6 generalized-pair report (208,666 bytes, each matrix
    row on one line) holds the fragment list and the joined text.  The bound
    is about half the peak of 1,093,602 B measured when every entry had its
    own line (739,042 bytes of text)."""
    cfg = {"field": {"prime": 10007}, "algebra": {"family": "Tn", "n": 6},
           "sigma": "identity", "tasks": ["solve:generalized_pair"]}
    report, _ = run_config(cfg)
    tracemalloc.start()
    try:
        text = report_to_json(report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == reference_text(report) + "\n"
    assert len(text) == 208_666
    assert peak <= 550_000


def test_report_layout_puts_each_list_of_scalars_on_one_line():
    report = {
        "basis": [["0", "1", "\u00e9"], ["0", "0", "1"]],
        "dims": (2, 3),
        "empty": [],
        "details": {"pair": [1, None], "rows": [[True, 0.5]], "name": "T2"},
    }
    fragments = report_fragments(report)
    assert "".join(fragments) == report_to_json(report) == (
        "{\n"
        '  "basis": [\n'
        '    ["0", "1", "\\u00e9"],\n'
        '    ["0", "0", "1"]\n'
        "  ],\n"
        '  "details": {\n'
        '    "name": "T2",\n'
        '    "pair": [1, null],\n'
        '    "rows": [\n'
        "      [true, 0.5]\n"
        "    ]\n"
        "  },\n"
        '  "dims": [2, 3],\n'
        '  "empty": []\n'
        "}\n"
    )


def test_main_run_writes_the_fragments(tmp_path, capsys):
    path = write_config(tmp_path, dict(BASE, tasks=["center", "solve:generalized_pair"]))
    assert main(["run", "--config", path]) == 0
    report, _ = run_config(dict(BASE, tasks=["center", "solve:generalized_pair"]))
    assert capsys.readouterr().out == report_to_json(report)


def test_python_m_trialg_fixtures():
    """``python -m trialg fixtures`` prints exactly the catalog report."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-m", "trialg", "fixtures"], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    expected = report_to_json({"schema_version": SCHEMA_VERSION, "fixtures": fixtures_catalog()})
    assert done.stdout == expected.encode()


# Malformed configs for the fuzz test below.  Each key takes a well-formed
# value of a small instance three times in four, and otherwise a value of the
# wrong type or shape or arbitrary JSON, so that draws reach every stage of a
# run; sizes stay small so that a well-formed draw runs fast.
def _mostly(valid, malformed):
    return st.integers(0, 3).flatmap(lambda i: malformed if i == 0 else valid)


_junk = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
_sizes = _mostly(st.integers(1, 3), st.one_of(st.integers(-2, 0), _junk))
_scalars = _mostly(st.one_of(st.integers(-2, 3), st.sampled_from(["0", "1", "-1", "1/2", "2/3"])),
                   st.one_of(st.sampled_from(["3/0", "x", "", "1e3", "1/-0"]), _junk))
_vectors = _mostly(st.lists(_scalars, min_size=1, max_size=9), _junk)
_matrices = _mostly(st.lists(_vectors, min_size=1, max_size=9), _junk)
_fields = _mostly(
    st.sampled_from(["rational", {"prime": 5}, {"prime": 7}]),
    st.one_of(st.sampled_from(["Q", {"prime": 2}, {"prime": 9}]), st.fixed_dictionaries({"prime": _junk}), _junk),
)
_families = st.one_of(
    st.fixed_dictionaries({"family": st.just("Tn"), "n": _sizes}, optional={"split": _sizes}),
    st.fixed_dictionaries({"family": st.just("block"), "dims": _mostly(st.lists(_sizes, min_size=1, max_size=3), _junk)},
                          optional={"split": _sizes}),
    st.fixed_dictionaries({"family": st.sampled_from(["trian_trunc", "trunc_poly"]), "N": _sizes}),
    st.fixed_dictionaries({"family": st.just("matrix"), "n": _sizes}),
    st.fixed_dictionaries({"family": st.just("fixture"), "name": _mostly(st.sampled_from(["n3", "trian_AA0"]), _junk)},
                          optional={"N": _sizes}),
    st.fixed_dictionaries({"table": _mostly(st.lists(st.lists(_vectors, max_size=3), max_size=3), _junk)},
                          optional={"labels": _mostly(st.lists(st.text(max_size=2), max_size=3), _junk),
                                    "unit": _vectors}),
)
_algebras = _mostly(
    _families,
    st.one_of(
        st.tuples(_families, st.text(max_size=6), _junk).map(lambda drawn: {**drawn[0], drawn[1]: drawn[2]}),
        st.fixed_dictionaries({"family": _junk}),
        _junk,
    ),
)
_sigmas = _mostly(
    st.one_of(
        st.sampled_from([None, "identity"]),
        st.fixed_dictionaries({"diag_signs": _mostly(st.lists(_scalars, min_size=2, max_size=2), _junk)}),
        st.fixed_dictionaries({"conjugate_by": _vectors}),
        st.fixed_dictionaries({"matrix": _matrices}),
        st.fixed_dictionaries({"parts": _mostly(
            st.fixed_dictionaries({"f": _matrices, "g": _matrices, "m_sigma": _vectors, "nu": _matrices}), _junk)}),
        st.fixed_dictionaries({"fixture_map": st.sampled_from(["sigma", "theta", "D", "d"])}),
    ),
    st.one_of(st.just("twist"), st.dictionaries(st.sampled_from(sorted(SIGMA_FORMS) + ["other"]), _junk), _junk),
)
_tasks = _mostly(
    st.lists(st.sampled_from(sorted(TASKS)), min_size=1, max_size=3),
    st.one_of(st.lists(st.one_of(st.sampled_from(["solve:", "verify:", "decompose:x"]), st.text(max_size=8), _junk),
                       max_size=2), _junk),
)
_configs_keyed = st.fixed_dictionaries(
    {"field": _fields, "algebra": _algebras, "tasks": _tasks},
    optional={
        "schema_version": _mostly(st.just(1), _junk),
        "sigma": _sigmas,
        "seed": _mostly(st.integers(0, 9), _junk),
        "samples": _sizes,
    },
)
_configs = _mostly(
    _configs_keyed,
    st.one_of(
        st.tuples(_configs_keyed, st.text(max_size=6), _junk).map(lambda drawn: {**drawn[0], drawn[1]: drawn[2]}),
        _junk,
    ),
)


@settings(max_examples=300, deadline=None)
@given(_configs)
def test_malformed_configs_never_raise(tmp_path_factory, config):
    """``trialg run`` on any config exits 0, 1 or 2; nothing escapes."""
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(directory / "report.json")]) in (0, 1, 2)
