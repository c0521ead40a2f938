import json
import random
from fractions import Fraction

import pytest

from nsgames import (
    JointDistribution,
    NsGamesError,
    correlation_to_json_dict,
    example_snos_strategy,
    format_rational,
    game_to_json_dict,
    strict_subsets,
)
from nsgames.cli import main

from conftest import (
    rand_dist,
    random_joint,
    random_ns_correlation,
    subset_certificate_distance,
    subset_conditional_table,
)

F = Fraction


@pytest.fixture()
def a3_file(tmp_path, a3):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(game_to_json_dict(a3)))
    return str(path)


@pytest.fixture()
def chsh_file(tmp_path, chsh):
    path = tmp_path / "chsh.json"
    path.write_text(json.dumps(game_to_json_dict(chsh)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_ns_report(capsys, a3_file):
    code, out, _ = run(capsys, "value", a3_file, "--model", "ns")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "nsgames-report/1"
    assert report["results"]["value"] == "2/3"
    assert report["timing"] is None
    assert a3_file in report["inputs"]


def test_value_with_witness(capsys, chsh_file):
    code, out, _ = run(capsys, "value", chsh_file, "--model", "classical", "--witness")
    report = json.loads(out)
    assert report["results"]["value"] == "3/4"
    assert len(report["results"]["witness"]["densities"]) == 16


def test_value_threshold(capsys, chsh_file):
    code, out, _ = run(
        capsys, "value", chsh_file, "--model", "ns", "--repeat", "2", "--threshold", "1"
    )
    assert code == 0
    assert json.loads(out)["results"]["value"] == "1/1"


def test_membership_zero_density(capsys, tmp_path):
    zero = {
        "players": 2,
        "inputs": [2, 2],
        "outputs": [2, 2],
        "densities": ["0/1"] * 16,
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(zero))
    code, out, _ = run(capsys, "membership", str(path), "--set", "snos")
    assert code == 0
    assert json.loads(out)["results"]["member"] is True
    # and the same table is not no-signalling: computed fail -> exit 1
    code, out, _ = run(capsys, "membership", str(path), "--set", "ns")
    assert code == 1
    report = json.loads(out)
    assert report["results"]["member"] is False
    assert report["results"]["violation"]["kind"] == "normalization"


def test_membership_example_strategy(capsys, tmp_path):
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(correlation_to_json_dict(example_snos_strategy())))
    code, out, _ = run(capsys, "membership", str(path), "--set", "snos")
    assert code == 0 and json.loads(out)["results"]["member"] is True


def test_bumpup(capsys, tmp_path, pr):
    half = correlation_to_json_dict(pr)
    half["densities"] = [
        format_rational(F(v) / 2) for v in map(lambda s: F(*map(int, s.split("/"))), half["densities"])
    ]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(half))
    code, out, _ = run(capsys, "bumpup", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["results"]["is_ns"] is True


def test_bound_formula(capsys):
    code, out, _ = run(
        capsys, "bound", "--name", "thm1-rep", "--params", "l=3,delta=0.5,n=4"
    )
    assert code == 0
    bound = json.loads(out)["results"]["bound"]
    assert bound == pytest.approx((1 - 0.25 / 845) ** 4, rel=1e-11)


def test_bound_prefactor(capsys):
    code, out, _ = run(
        capsys, "bound", "--name", "prefactor", "--params", "kind=snos,a=2,x=2,n=1"
    )
    # reports round floats to 12 significant digits
    assert json.loads(out)["results"]["bound"] == float(f"{2.0 ** 56:.12g}")


def test_bound_missing_params(capsys):
    code, _, err = run(capsys, "bound", "--name", "thm1-rep", "--params", "l=3")
    assert code == 2
    assert "missing" in err


def test_verify_chsh(capsys, chsh_file):
    code, out, _ = run(capsys, "verify", chsh_file, "--n", "2", "--model", "ns", "--gamma", "0")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["results"]["sandwich"]["passed"] is True
    assert len(report["results"]["domination"]) == 3


def test_reconstruct_roundtrip(capsys, tmp_path):
    rng = random.Random(17)
    players = 2
    inputs = outputs = (2, 2)
    target = rand_dist(rng, 4)
    reference = random_ns_correlation(rng, inputs, outputs)
    box = random_joint(rng, inputs, outputs)
    noise = F(1, 8)
    entries = tuple(
        (1 - noise) * target[x] * reference.density(x, a) + noise * box.value(x, a)
        for x in range(4)
        for a in range(4)
    )
    joint = JointDistribution(inputs, outputs, entries)
    marginals = []
    for subset in strict_subsets(players, include_empty=False):
        table = subset_conditional_table(reference, subset)
        eps = subset_certificate_distance(joint, target, subset, table)
        marginals.append(
            {
                "subset": list(subset.members),
                "table": [format_rational(v) for v in table],
                "epsilon": format_rational(eps),
            }
        )
    drift = sum(abs(a - b) for a, b in zip(joint.input_marginal(), target)) / 2
    payload = {
        "players": players,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "target": [format_rational(v) for v in target],
        "joint": [format_rational(v) for v in joint.entries],
        "marginals": marginals,
        "epsilon_empty": format_rational(drift),
    }
    path = tmp_path / "reconstruct.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "reconstruct", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["results"]["is_snos"] is True
    assert report["results"]["is_ns"] is True  # two players


def test_catalog_list_and_export(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = [e["name"] for e in json.loads(out)["results"]["entries"]]
    assert names == ["a3", "chsh"]
    code, out, _ = run(capsys, "catalog", "export", "a3")
    assert code == 0
    document = json.loads(out)
    assert document["players"] == 3  # bare game document, not a report
    path = tmp_path / "exported.json"
    path.write_text(out)
    code, out, _ = run(capsys, "value", str(path), "--model", "classical")
    assert json.loads(out)["results"]["value"] == "2/3"


def test_file_kind_confusion_detected(capsys, tmp_path, a3_file):
    code, _, err = run(capsys, "membership", a3_file, "--set", "snos")
    assert code == 2
    assert "correlation file is required" in err
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps(correlation_to_json_dict(example_snos_strategy())))
    code, _, err = run(capsys, "value", str(strategy), "--model", "ns")
    assert code == 2
    assert "game file is required" in err


def test_exit_code_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "value", str(tmp_path / "missing.json"), "--model", "ns")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"players\": 2,\n")
    code, _, err = run(capsys, "value", str(bad), "--model", "ns")
    assert code == 2
    assert "line" in err and "column" in err
    code, _, err = run(capsys, "catalog", "export", "nonexistent")
    assert code == 2


def test_non_integer_alphabet_exits_2(capsys, tmp_path, chsh):
    data = game_to_json_dict(chsh)
    data["inputs"] = ["a", "b"]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "value", str(path), "--model", "ns")
    assert code == 2
    assert err.startswith("error:") and "inputs[0]" in err


def test_reconstruct_marginal_without_epsilon_exits_2(capsys, tmp_path):
    payload = {
        "players": 2,
        "inputs": [1, 1],
        "outputs": [1, 1],
        "target": ["1/1"],
        "joint": ["1/1"],
        "marginals": [{"subset": [0], "table": ["1/1"]}],
        "epsilon_empty": "0/1",
    }
    path = tmp_path / "reconstruct.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "reconstruct", str(path))
    assert code == 2
    assert err.startswith("error:") and "marginals[0]" in err


def test_reconstruct_malformed_table_exits_2_naming_the_subset(capsys, tmp_path):
    payload = {
        "players": 2,
        "inputs": [1, 1],
        "outputs": [2, 2],
        "target": ["1/1"],
        "joint": ["1/4"] * 4,
        "marginals": [
            {"subset": [0], "table": ["1/2", "1/2"], "epsilon": "0/1"},
            {"subset": [1], "table": ["3/4", "1/2"], "epsilon": "1/1"},
        ],
        "epsilon_empty": "0/1",
    }
    path = tmp_path / "reconstruct.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "reconstruct", str(path))
    assert code == 2
    assert err.startswith("error:") and "subset (1,)" in err


def test_non_utf8_file_exits_2(capsys, tmp_path):
    path = tmp_path / "game.json"
    path.write_bytes(b'{"players": "\xff"}')
    code, _, err = run(capsys, "value", str(path), "--model", "ns")
    assert code == 2
    assert err.startswith("error:") and "UTF-8" in err


def test_internal_error_exits_4(capsys, monkeypatch, a3_file):
    def broken(*args, **kwargs):
        raise NsGamesError("simulated consistency failure")

    monkeypatch.setattr("nsgames.cli.value_ns", broken)
    code, out, err = run(capsys, "value", a3_file, "--model", "ns")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:")


def test_exit_code_resource_error(capsys, chsh_file):
    code, _, err = run(capsys, "value", chsh_file, "--model", "ns", "--repeat", "12")
    assert code == 3
    assert "cap" in err


def test_large_round_group_needs_no_cap(capsys, tmp_path):
    # 8 rounds permute in 40320 ways; orbits come from the 7 generators alone
    game = {"players": 1, "inputs": [1], "outputs": [2], "distribution": ["1"], "predicate": [1, 0]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(game))
    code, out, err = run(capsys, "value", str(path), "--model", "ns", "--repeat", "8")
    assert code == 0, err
    assert json.loads(out)["results"]["value"] == "1/1"


def test_reports_byte_stable(capsys, a3_file):
    _, first, _ = run(capsys, "value", a3_file, "--model", "classical")
    _, second, _ = run(capsys, "value", a3_file, "--model", "classical")
    assert first == second


def test_timing_opt_in(capsys, a3_file):
    _, out, _ = run(capsys, "--timing", "value", a3_file, "--model", "classical")
    assert json.loads(out)["timing"] is not None
