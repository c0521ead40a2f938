"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the n=3 sandwich cases carry the ``slow`` marker (they run by default
and can be deselected with ``-m "not slow"`` during development).
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from nsgames import (
    JointDistribution,
    bound_thm1_repetition,
    bound_thm3,
    bump_up,
    coupling_adjust,
    dominates,
    fidelity,
    is_ns,
    is_snos,
    marginal_consistency_distance,
    p_epsilon_membership,
    random_game,
    reconstruct_snos,
    repeat_game,
    strict_subsets,
    tilde_fidelity,
    trace_distance,
    value_classical,
    value_ns,
    value_snos,
    winning_probability,
)
from nsgames.bounds import repeated_value
from nsgames.polytopes import NS_MODE_ALL, NS_MODE_SINGLES

from conftest import (
    rand_dist,
    random_correlation,
    random_joint,
    random_ns_correlation,
    random_snos_correlation,
    subset_certificate_distance,
    subset_conditional_table,
)
from test_polytopes import snos_membership_by_lp, tilde_fidelity_grid_oracle

F = Fraction

pytestmark = pytest.mark.acceptance


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


# --- criterion 1: exact values of the three-player anticorrelation game --------


def test_criterion_1_exact_values(a3):
    t0 = time.perf_counter()
    ns = value_ns(a3).value
    t_ns = time.perf_counter() - t0
    t0 = time.perf_counter()
    snos = value_snos(a3).value
    t_snos = time.perf_counter() - t0
    ok = ns == F(2, 3) and snos == 1 and t_ns < 10 and t_snos < 10
    _report(
        "criterion 1",
        ok,
        f"ns={ns} in {t_ns:.2f}s, snos={snos} in {t_snos:.2f}s",
    )


# --- criterion 2: the reference sub-normalized strategy -------------------------


def test_criterion_2_reference_strategy(a3, a3_strategy):
    t0 = time.perf_counter()
    snos_member = is_snos(a3_strategy).member
    ns_member = is_ns(a3_strategy).member
    win = winning_probability(a3, a3_strategy)
    elapsed = time.perf_counter() - t0
    ok = snos_member and not ns_member and win == 1 and elapsed < 1
    _report(
        "criterion 2",
        ok,
        f"snos={snos_member}, ns={ns_member}, win={win}, {elapsed:.3f}s",
    )


# --- criterion 3 corpus (shared with criterion 11) -------------------------------


@pytest.fixture(scope="session")
def two_player_corpus():
    games = []
    densities = (0.25, 0.4, 0.5, 0.6, 0.75)
    for seed in range(50):
        games.append(
            random_game(
                3000 + seed,
                2,
                (2, 2),
                (2, 2),
                full_support=bool(seed % 2),
                predicate_density=densities[seed % len(densities)],
            )
        )
    return games


@pytest.fixture(scope="session")
def two_player_values(two_player_corpus):
    t0 = time.perf_counter()
    out = []
    for game in two_player_corpus:
        out.append((game, value_ns(game).value, value_snos(game).value))
    return out, time.perf_counter() - t0


def test_criterion_3_two_player_collapse(two_player_values):
    values, elapsed = two_player_values
    mismatches = [(ns, snos) for _, ns, snos in values if ns != snos]
    ok = not mismatches and len(values) >= 50 and elapsed < 60
    _report(
        "criterion 3",
        ok,
        f"{len(values)} games, mismatches={len(mismatches)}, {elapsed:.2f}s",
    )


# --- criterion 4: bump-up contract ------------------------------------------------


def test_criterion_4_bump_up():
    rng = random.Random(4000)
    t0 = time.perf_counter()
    failures = 0
    count = 50
    for _ in range(count):
        corr = random_snos_correlation(rng, (2, 2), (2, 2))
        lifted = bump_up(corr)
        ok = is_ns(lifted, NS_MODE_ALL).member and all(
            b >= a for a, b in zip(corr.densities, lifted.densities)
        )
        failures += 0 if ok else 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30
    _report("criterion 4", ok, f"{count} lifts, failures={failures}, {elapsed:.2f}s")


# --- criterion 5: coupling contract -------------------------------------------------


def test_criterion_5_coupling():
    rng = random.Random(5000)
    t0 = time.perf_counter()
    failures = 0
    count = 200
    for _ in range(count):
        n_s, n_t = rng.choice([2, 3, 4]), rng.choice([2, 3, 4])
        joint = rand_dist(rng, n_s * n_t)
        target = rand_dist(rng, n_s)
        adjusted = coupling_adjust(joint, target, n_s, n_t)
        first = tuple(sum(adjusted[s * n_t : (s + 1) * n_t], F(0)) for s in range(n_s))
        second_ok = all(
            sum(adjusted[s * n_t + t] for s in range(n_s))
            == sum(joint[s * n_t + t] for s in range(n_s))
            for t in range(n_t)
        )
        current = tuple(sum(joint[s * n_t : (s + 1) * n_t], F(0)) for s in range(n_s))
        moved = sum(abs(a - b) for a, b in zip(adjusted, joint))
        budget = sum(abs(a - b) for a, b in zip(target, current))
        if not (first == target and second_ok and moved <= budget):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 10
    _report("criterion 5", ok, f"{count} couplings, failures={failures}, {elapsed:.2f}s")


# --- criterion 6: reconstruction bounds ----------------------------------------------


def _certified_instance(rng, players, noise):
    inputs = outputs = (2,) * players
    n_x = n_a = 2**players
    target = rand_dist(rng, n_x)
    reference = random_ns_correlation(rng, inputs, outputs)
    box = random_joint(rng, inputs, outputs)
    entries = tuple(
        (1 - noise) * target[x] * reference.density(x, a) + noise * box.value(x, a)
        for x in range(n_x)
        for a in range(n_a)
    )
    joint = JointDistribution(inputs, outputs, entries)
    marginals = {}
    epsilons = {}
    for subset in strict_subsets(players, include_empty=False):
        table = subset_conditional_table(reference, subset)
        marginals[subset.members] = table
        epsilons[subset.members] = subset_certificate_distance(joint, target, subset, table)
    epsilons[()] = (
        sum(abs(a - b) for a, b in zip(joint.input_marginal(), target)) / 2
    )
    return target, joint, marginals, epsilons


def test_criterion_6_reconstruction():
    rng = random.Random(6000)
    t0 = time.perf_counter()
    failures = []
    for trial in range(50):
        noise = F(rng.randrange(0, 5), 20)
        target, joint, marginals, epsilons = _certified_instance(rng, 3, noise)
        repaired = reconstruct_snos(target, joint, marginals, epsilons)
        distance = (
            sum(
                abs(target[x] * repaired.density(x, a) - joint.value(x, a))
                for x in range(joint.n_inputs)
                for a in range(joint.n_outputs)
            )
            / 2
        )
        budget = epsilons[()] + 2 * sum(v for k, v in epsilons.items() if k != ())
        if not (is_snos(repaired).member and distance <= budget):
            failures.append(trial)
    two_player_failures = []
    for trial in range(15):
        noise = F(rng.randrange(0, 5), 20)
        target, joint, marginals, epsilons = _certified_instance(rng, 2, noise)
        repaired = reconstruct_snos(target, joint, marginals, epsilons)
        distance = (
            sum(
                abs(target[x] * repaired.density(x, a) - joint.value(x, a))
                for x in range(joint.n_inputs)
                for a in range(joint.n_outputs)
            )
            / 2
        )
        budget = epsilons[()] + 2 * sum(v for k, v in epsilons.items() if k != ())
        if not (is_ns(repaired, NS_MODE_ALL).member and distance <= budget):
            two_player_failures.append(trial)
    elapsed = time.perf_counter() - t0
    ok = not failures and not two_player_failures and elapsed < 120
    _report(
        "criterion 6",
        ok,
        f"50 three-player + 15 two-player instances, "
        f"failures={len(failures)}+{len(two_player_failures)}, {elapsed:.2f}s",
    )


# --- criteria 7 and 8: sandwich and bound domination -----------------------------------


@pytest.fixture(scope="session")
def sandwich_games():
    densities = (0.3, 0.4)
    return [
        random_game(
            9000 + seed,
            2,
            (2, 2),
            (2, 2),
            full_support=True,
            predicate_density=densities[seed % 2],
        )
        for seed in range(10)
    ]


def _sandwich_records(games, rounds):
    records = []
    for index, game in enumerate(games):
        for model, value_fn in (("ns", value_ns), ("snos", value_snos)):
            single = value_fn(game)
            repeated = repeated_value(model, game, rounds, single=single)
            records.append(
                {
                    "name": f"game{index}",
                    "model": model,
                    "rounds": rounds,
                    "players": game.players,
                    "single": single.value,
                    "repeated": repeated,
                }
            )
    return records


@pytest.fixture(scope="session")
def sandwich_n2(sandwich_games, a3, chsh):
    t0 = time.perf_counter()
    records = _sandwich_records(sandwich_games, 2)
    for name, game in (("a3", a3), ("chsh", chsh)):
        for model, value_fn in (("ns", value_ns), ("snos", value_snos)):
            single = value_fn(game)
            repeated = repeated_value(model, game, 2, single=single)
            records.append(
                {
                    "name": name,
                    "model": model,
                    "rounds": 2,
                    "players": game.players,
                    "single": single.value,
                    "repeated": repeated,
                }
            )
    return records, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sandwich_n3(sandwich_games):
    t0 = time.perf_counter()
    return _sandwich_records(sandwich_games, 3), time.perf_counter() - t0


def _check_sandwich(records):
    bad = []
    for rec in records:
        lower = rec["single"] ** rec["rounds"]
        if not lower <= rec["repeated"] <= rec["single"]:
            bad.append(rec)
    return bad


def test_criterion_7_sandwich_n2(sandwich_n2):
    records, elapsed = sandwich_n2
    bad = _check_sandwich(records)
    ok = not bad and len(records) == 24 and elapsed < 900
    _report(
        "criterion 7 (n=2)",
        ok,
        f"{len(records)} exact sandwiches (a3, chsh, 10 random games), "
        f"bad={len(bad)}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_7_sandwich_n3(sandwich_n3):
    records, elapsed = sandwich_n3
    bad = _check_sandwich(records)
    ok = not bad and len(records) == 20 and elapsed < 900
    _report(
        "criterion 7 (n=3, slow)",
        ok,
        f"{len(records)} exact sandwiches across 10 random games, "
        f"bad={len(bad)}, {elapsed:.1f}s",
    )


def _domination_failures(records):
    by_game: dict[tuple[str, int], dict[str, dict]] = {}
    for rec in records:
        by_game.setdefault((rec["name"], rec["rounds"]), {})[rec["model"]] = rec
    failures = []
    for (name, rounds), models in by_game.items():
        snos = models["snos"]
        delta = 1 - snos["single"]
        bound = bound_thm1_repetition(float(delta), snos["players"], rounds)
        if not dominates(bound, snos["repeated"]):
            failures.append((name, rounds, "snos", bound, snos["repeated"]))
        ns = models["ns"]
        if ns["players"] == 2:
            delta = 1 - ns["single"]
            bound = bound_thm3(float(delta), rounds, "repetition")
            if not dominates(bound, ns["repeated"]):
                failures.append((name, rounds, "ns", bound, ns["repeated"]))
    return failures


def test_criterion_8_domination_n2(sandwich_n2):
    records, _ = sandwich_n2
    failures = _domination_failures(records)
    _report(
        "criterion 8 (n=2)",
        not failures,
        f"{len(records)} bound comparisons, failures={len(failures)}",
    )


@pytest.mark.slow
def test_criterion_8_domination_n3(sandwich_n3):
    records, _ = sandwich_n3
    failures = _domination_failures(records)
    _report(
        "criterion 8 (n=3, slow)",
        not failures,
        f"{len(records)} bound comparisons, failures={len(failures)}",
    )


# --- criterion 9: functional consistency -------------------------------------------


def test_criterion_9_functionals():
    rng = random.Random(9100)
    t0 = time.perf_counter()
    fvdg_bad = 0
    for _ in range(1000):
        n = rng.choice([2, 3, 4, 6])
        p = rand_dist(rng, n)
        q = rand_dist(rng, n)
        f = fidelity(p, q)
        td = float(trace_distance(p, q))
        if not (1 - f <= td + 1e-9 and td <= math.sqrt(max(0.0, 1 - f * f)) + 1e-9):
            fvdg_bad += 1

    grid_bad = 0
    for _ in range(20):
        joint = random_joint(rng, (2, 2), (2, 2))
        target = rand_dist(rng, 4)
        closed = tilde_fidelity(joint, target)
        oracle = tilde_fidelity_grid_oracle(joint, target)
        if abs(closed - oracle) > 5e-3:
            grid_bad += 1

    implication_bad = 0
    checked = 0
    while checked < 100:
        joint = random_joint(rng, (2, 2), (2, 2))
        target = rand_dist(rng, 4)
        worst = max(
            marginal_consistency_distance(joint, target, subset)[0]
            for subset in strict_subsets(2, include_empty=False)
        )
        if worst == 0:
            continue
        eps = worst * F(15, 16)
        if p_epsilon_membership(joint, target, eps):
            implication_bad += 1
        elif tilde_fidelity(joint, target) ** 2 > 1 - float(eps) ** 2 + 1e-9:
            implication_bad += 1
        checked += 1

    elapsed = time.perf_counter() - t0
    ok = fvdg_bad == 0 and grid_bad == 0 and implication_bad == 0 and elapsed < 60
    _report(
        "criterion 9",
        ok,
        f"fvdg 1000 pairs bad={fvdg_bad}, grid 20 instances bad={grid_bad}, "
        f"implication 100 instances bad={implication_bad}, {elapsed:.2f}s",
    )


# --- criterion 10: membership oracle equivalence --------------------------------------


def test_criterion_10_membership_equivalence():
    rng = random.Random(10_000)
    t0 = time.perf_counter()
    snos_disagreements = 0
    ns_disagreements = 0
    count = 200
    for trial in range(count):
        players = 2 if trial % 2 == 0 else 3
        shape = (2,) * players
        roll = rng.random()
        if roll < 0.3:
            corr = random_ns_correlation(rng, shape, shape)
        elif roll < 0.6:
            corr = random_snos_correlation(rng, shape, shape)
        else:
            corr = random_correlation(rng, shape, shape, F(1, 2))
        if is_snos(corr).member != snos_membership_by_lp(corr):
            snos_disagreements += 1
        if is_ns(corr, NS_MODE_SINGLES).member != is_ns(corr, NS_MODE_ALL).member:
            ns_disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = snos_disagreements == 0 and ns_disagreements == 0 and elapsed < 60
    _report(
        "criterion 10",
        ok,
        f"{count} correlations, snos disagreements={snos_disagreements}, "
        f"ns mode disagreements={ns_disagreements}, {elapsed:.2f}s",
    )


# --- criterion 11: classical oracle ----------------------------------------------------


def test_criterion_11_classical(a3, chsh, two_player_values):
    t0 = time.perf_counter()
    chsh_classical = value_classical(chsh).value
    a3_classical = value_classical(a3).value
    ordering_bad = 0
    for game, ns, snos in two_player_values[0]:
        classical = value_classical(game).value
        if not classical <= ns <= snos:
            ordering_bad += 1
    a3_ns = value_ns(a3).value
    a3_snos = value_snos(a3).value
    catalog_ok = a3_classical <= a3_ns <= a3_snos and chsh_classical <= value_ns(chsh).value
    elapsed = time.perf_counter() - t0
    ok = (
        chsh_classical == F(3, 4)
        and a3_classical == F(2, 3)
        and ordering_bad == 0
        and catalog_ok
        and elapsed < 30
    )
    _report(
        "criterion 11",
        ok,
        f"chsh={chsh_classical}, a3={a3_classical}, ordering failures={ordering_bad}, "
        f"{elapsed:.2f}s",
    )
