import math
from fractions import Fraction

import pytest

from nsgames import (
    BoundParams,
    DomainError,
    bound_cor1,
    bound_thm1_concentration,
    bound_thm1_repetition,
    bound_thm3,
    c_ell,
    definetti_prefactor,
    dominates,
    random_game,
    repeat_game,
    split_bound,
    split_epsilon_concentration,
    split_epsilon_repetition,
    value_ns,
    value_snos,
    verify_domination,
    verify_sandwich,
)
from nsgames import bounds

F = Fraction


def test_player_constant():
    assert c_ell(1) == 1
    assert c_ell(2) == 5
    assert c_ell(3) == 13
    with pytest.raises(DomainError):
        c_ell(0)


def test_repetition_bound_values():
    assert bound_thm1_repetition(0.0, 2, 7) == 1.0
    assert bound_thm1_repetition(1 / 3, 2, 1) == pytest.approx(1 - (1 / 9) / 125, abs=1e-15)
    assert bound_thm1_repetition(1 / 3, 3, 10) == pytest.approx(
        (1 - 1 / 7605) ** 10, abs=1e-15
    )


def test_concentration_bound_values():
    assert bound_thm1_concentration(0.0, 3, 5) == 1.0
    assert bound_thm1_concentration(0.5, 2, 100) == pytest.approx(math.exp(-0.2), abs=1e-15)
    decreasing = [bound_thm1_concentration(0.3, 2, n) for n in (1, 5, 25, 125)]
    assert decreasing == sorted(decreasing, reverse=True)


def test_full_support_bound_reduces_at_gamma_zero():
    for delta in (0.1, 0.5, 0.9):
        assert bound_cor1(delta, 0.0, 3, 4) == bound_thm1_repetition(delta, 3, 4)
    assert bound_cor1(0.5, 1.0, 2, 1) == pytest.approx(1 - 0.25 / 500, abs=1e-15)
    grew = [bound_cor1(0.5, g, 2, 3) for g in (0.0, 0.5, 1.0, 2.0)]
    assert grew == sorted(grew)


def test_two_player_bound_values():
    assert bound_thm3(1.0, 1) == pytest.approx(26 / 27, abs=1e-15)
    assert bound_thm3(1.0, 33, "concentration") == pytest.approx(math.exp(-1), abs=1e-12)
    with pytest.raises(DomainError):
        bound_thm3(0.5, 2, "sideways")


def test_two_player_bound_dominates_generic_two_player_bound():
    # the optimized two-player constants beat the generic l=2 ones pointwise
    for delta in (0.05, 0.2, 0.5, 0.8, 0.99):
        for rounds in (1, 3, 10, 40):
            assert bound_thm3(delta, rounds) <= bound_thm1_repetition(delta, 2, rounds) + 1e-15


def test_split_bound_shapes():
    first, second = split_bound(0.4, 2, 3, 0.0)
    assert first == pytest.approx(0.6**3)
    assert second == 1.0
    c = c_ell(2)
    first, _ = split_bound(0.4, 2, 5, 0.4 / (2 * c), kind="concentration")
    assert first == 1.0
    with pytest.raises(DomainError):
        split_bound(0.4, 2, 3, 1.5)


def test_split_epsilon_choices_reach_the_closed_form_rate():
    for players in (2, 3, 4):
        c = c_ell(players)
        for k in range(1, 20):
            delta = k / 20
            eps = split_epsilon_repetition(delta, players)
            assert eps * eps >= delta * delta / (5 * c * c) - 1e-15
            alpha = delta
            eps = split_epsilon_concentration(alpha, players)
            assert eps * eps >= alpha * alpha / (5 * c * c) - 1e-15


def test_split_bound_dominates_final_rate_at_chosen_epsilon():
    # diagnostic: two-term expression at the canonical eps is at least the rate
    for players in (2, 3):
        for delta in (0.2, 0.5, 0.8):
            for rounds in (1, 4, 16):
                eps = split_epsilon_repetition(delta, players)
                total = sum(split_bound(delta, players, rounds, eps))
                assert total >= bound_thm1_repetition(delta, players, rounds) - 1e-9


def test_prefactors():
    assert definetti_prefactor("conditional", (2, 2), 0) == 1.0
    assert definetti_prefactor("conditional", (2, 2), 1) == 16.0
    assert definetti_prefactor("constrained", (3,), 1) == 2.0**27
    assert definetti_prefactor("snos", (2, 2), 1) == 2.0**56
    with pytest.raises(DomainError):
        definetti_prefactor("snos", (2,), 1)
    with pytest.raises(DomainError):
        definetti_prefactor("other", (2, 2), 1)


def test_bound_monotonicities():
    rep = [bound_thm1_repetition(0.5, 2, n) for n in (1, 2, 4, 8)]
    assert rep == sorted(rep, reverse=True)
    in_delta = [bound_thm1_repetition(d, 2, 5) for d in (0.1, 0.3, 0.6, 0.9)]
    assert in_delta == sorted(in_delta, reverse=True)
    in_players = [bound_thm1_repetition(0.5, p, 5) for p in (2, 3, 4)]
    assert in_players == sorted(in_players)


def test_bound_params_validation():
    BoundParams(players=2, rounds=4, delta=0.5, alpha=0.25, threshold=4)
    with pytest.raises(DomainError):
        BoundParams(players=2, rounds=4, delta=1.5)
    with pytest.raises(DomainError):
        BoundParams(players=2, rounds=4, delta=0.25, alpha=0.5)
    with pytest.raises(DomainError):
        BoundParams(players=2, rounds=4, delta=0.5, alpha=0.5, threshold=1)
    with pytest.raises(DomainError):
        BoundParams(players=0, rounds=1)


def test_dominates_rounding():
    assert dominates(0.5, F(1, 2))
    assert dominates(0.5, F(1, 2) + F(1, 10**15))
    assert not dominates(0.5, F(3, 4))


# --- harness ---------------------------------------------------------------------


def test_sandwich_trivial_single_round(a3):
    report = verify_sandwich(a3, 1, "snos")
    assert report.passed
    assert report.exact == 1


def test_sandwich_chsh_squared_all_ones(chsh):
    report = verify_sandwich(chsh, 2, "ns")
    assert report.passed
    assert report.params["value_single"] == 1
    assert report.params["value_repeated"] == 1


def test_sandwich_a3_squared_snos_tight(a3):
    report = verify_sandwich(a3, 2, "snos")
    assert report.passed
    assert report.params["value_single"] == 1
    assert report.params["value_repeated"] == 1


def test_domination_reports_two_player(chsh):
    reports = verify_domination(chsh, 2, gamma=0.0)
    assert {r.name for r in reports} == {
        "snos-repetition",
        "ns-two-player-repetition",
        "ns-full-support-repetition",
    }
    assert all(r.passed for r in reports)


def test_domination_skips_full_support_bound_without_support(a3):
    reports = verify_domination(a3, 2, gamma=1.0)
    assert {r.name for r in reports} == {"snos-repetition"}
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("model", ["ns", "snos"])
def test_domination_reuses_the_sandwich_values(monkeypatch, model):
    game = random_game(300, 2, (2, 2), (2, 2), full_support=True, predicate_density=0.4)
    sandwich = verify_sandwich(game, 2, model)
    fresh = verify_domination(game, 2, gamma=0.0)
    solved = []
    real = bounds._value

    def spy(which, played, rounds=1):
        solved.append(which)
        return real(which, played, rounds)

    monkeypatch.setattr(bounds, "_value", spy)
    assert verify_domination(game, 2, gamma=0.0, sandwich=sandwich) == fresh
    other = "snos" if model == "ns" else "ns"
    assert solved == [other, other]  # the single and the repeated LP of the other model


def test_domination_rejects_a_sandwich_for_other_rounds(chsh):
    sandwich = verify_sandwich(chsh, 2, "snos")
    with pytest.raises(DomainError):
        verify_domination(chsh, 3, sandwich=sandwich)
