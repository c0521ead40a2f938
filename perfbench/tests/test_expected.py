"""Cross-checks of expected.json against independent oracles.

Every stored value and distance must match HiGHS on the unreduced LP, built
from the definitions in `oracle`, within 1e-9; classical values are checked
exactly by enumeration. The CLI reports must carry the same values.

    python3 -m pytest perfbench/tests/test_expected.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import pools
import workloads

TOL = 1e-9
EXPECTED = json.loads((Path(workloads.__file__).with_name("expected.json")).read_text())


@pytest.fixture(scope="module")
def ns():
    return workloads.import_package()


def _fields(game):
    return game.input_alphabets, game.output_alphabets, game.distribution, game.predicate


def _close(stored: str, lp: float) -> bool:
    return abs(float(Fraction(stored)) - lp) <= TOL


def test_pool_sizes():
    assert len(EXPECTED["pool2"]) == pools.POOL2
    assert len(EXPECTED["pool3"]) == pools.POOL3
    assert len(EXPECTED["boxes"]) == pools.BOXES
    assert len(EXPECTED["cli"]) == pools.CLI_GAMES


def test_product_game_matches_package_layout(ns):
    for i in range(4):
        game = pools.pool2_game(ns, i)
        assert oracle.product_game(*_fields(game), 2) == _fields(ns.repeat_game(game, 2))
        assert oracle.product_game(*_fields(game), 2, 1) == _fields(ns.threshold_game(game, 1, 2))


def test_two_player_values(ns):
    for i, want in enumerate(EXPECTED["pool2"]):
        game = _fields(pools.pool2_game(ns, i))
        for suffix, threshold in (("rep2", None), ("thr", 1)):
            played = oracle.product_game(*game, 2, threshold)
            assert want[f"ns_{suffix}"] == want[f"snos_{suffix}"], (i, suffix)
            assert _close(want[f"ns_{suffix}"], oracle.ns_value_lp(*played)), (i, suffix)
            assert _close(want[f"snos_{suffix}"], oracle.snos_value_lp(*played)), (i, suffix)


def test_three_player_values(ns):
    for i, want in enumerate(EXPECTED["pool3"]):
        game = _fields(pools.pool3_game(ns, i))
        classical, ns_value, snos_value = (Fraction(want[k]) for k in ("classical", "ns", "snos"))
        assert classical == oracle.classical_value(*game), i
        assert classical <= ns_value <= snos_value, i
        assert _close(want["ns"], oracle.ns_value_lp(*game)), i
        assert _close(want["snos"], oracle.snos_value_lp(*game)), i


def test_nearest_ns_distances():
    for i, want in enumerate(EXPECTED["boxes"]):
        target, dens = pools.box(i)
        assert _close(want["distance"], oracle.nearest_ns_lp(pools.TWO, pools.TWO, target, dens)), i


def test_a3_repeated_snos_value(ns):
    played = oracle.product_game(*_fields(pools.a3_game(ns)), 2)
    assert _close(EXPECTED["a3sq_snos"], oracle.snos_value_lp(*played))


def test_cli_reports_carry_the_pooled_values(ns):
    for i, reports in enumerate(EXPECTED["cli"]):
        values = EXPECTED["pool2"][i]
        parsed = {name: json.loads(r["report"])["results"] for name, r in reports.items()}
        assert set(parsed) == set(workloads.CLI_COMMANDS)
        assert parsed["value_ns_rep2"]["value"] == values["ns_rep2"]
        assert parsed["value_snos_thr"]["value"] == values["snos_thr"]
        classical = oracle.classical_value(*_fields(pools.pool2_game(ns, i)))
        assert Fraction(parsed["value_classical"]["value"]) == classical
        for model in ("snos", "ns"):
            verify = parsed[f"verify_{model}"]
            assert verify["sandwich"]["exact"] == values[f"{model}_rep2"]
            exact = {r["name"]: r["exact"] for r in verify["domination"]}
            assert exact["snos-repetition"] == values["snos_rep2"]
            assert exact["ns-two-player-repetition"] == values["ns_rep2"]
