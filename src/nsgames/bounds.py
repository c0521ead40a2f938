"""Closed-form repetition/concentration bounds and the exact-value harness.

The explicit bounds for an l-player game with value gap delta (repetition)
or concentration margin alpha, with the player constant C_l = 2^(l+1) - 3:

* sub-no-signalling, any game:      (1 - delta^2 / (5 C_l^2))^n   and
                                    exp(-n alpha^2 / (5 C_l^2))
* no-signalling, full-support game: the same with C_l (Gamma+1) in place of
  C_l, where Gamma >= 0 is the user-supplied LP-robustness constant of the
  query distribution (no formula for it is available; it is an input here);
* no-signalling, two players:       (1 - delta^2 / 27)^n   and
                                    exp(-n alpha^2 / 33).

`split_bound` exposes the two-term diagnostic the closed forms derive from,
(1 - delta + 2 C_l eps)^n + (1 - eps^2)^n for repetition (and the Hoeffding
analogue for concentration), together with the canonical eps choices that
make eps^2 >= delta^2/(5 C_l^2) resp. alpha^2/(5 C_l^2).

Bounds are evaluated in binary64 — they multiply human-readable parameters
and need no exactness — while every game value they are compared against is
an exact rational.  The polynomial prefactors of the de Finetti reductions
are reported separately by `definetti_prefactor` and are never folded into
the final bounds (they disappear by supermultiplicativity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, NsGamesError
from .game_model import Game, repeat_game, tensor_power, winning_probability
from .polytopes import NS_MODE_ALL, is_ns, is_snos
from .values import MODEL_NS, MODEL_SNOS, ValueResult, value_ns, value_snos

#: absolute slack used when a float bound must dominate an exact rational
DOMINATION_SLACK = 1e-12


@dataclass(frozen=True)
class BoundParams:
    """Validated parameter bundle for the bound evaluators.

    Ranges: 0 < delta < 1, 0 < alpha <= delta, Gamma >= 0, 0 < epsilon < 1,
    and when a threshold is given it must satisfy t >= (1 - delta + alpha) n.
    """

    players: int
    rounds: int
    delta: float | None = None
    alpha: float | None = None
    threshold: int | None = None
    gamma: float = 0.0
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.players < 1:
            raise DomainError("players must be at least 1")
        if self.rounds < 1:
            raise DomainError("rounds must be at least 1")
        if self.delta is not None and not 0 < self.delta < 1:
            raise DomainError("delta must lie in (0, 1)")
        if self.alpha is not None:
            if not 0 < self.alpha:
                raise DomainError("alpha must be positive")
            if self.delta is not None and self.alpha > self.delta:
                raise DomainError("alpha must not exceed delta")
        if self.gamma < 0:
            raise DomainError("gamma must be non-negative")
        if self.epsilon is not None and not 0 < self.epsilon < 1:
            raise DomainError("epsilon must lie in (0, 1)")
        if self.threshold is not None:
            if self.delta is None or self.alpha is None:
                raise DomainError("a threshold needs both delta and alpha")
            if self.threshold < (1 - self.delta + self.alpha) * self.rounds:
                raise DomainError(
                    "threshold below (1 - delta + alpha) * rounds; the concentration "
                    "bound does not apply"
                )


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound next to the exact value it must dominate."""

    name: str
    params: dict = field(default_factory=dict)
    bound: float = 1.0
    exact: Fraction | None = None
    passed: bool = True


def dominates(bound: float, exact: Fraction, slack: float = DOMINATION_SLACK) -> bool:
    """float(exact) <= bound + slack; the slack rounds the bound side up."""
    return float(exact) <= bound + slack


def c_ell(players: int) -> int:
    """The player constant 2^(l+1) - 3."""
    if players < 1:
        raise DomainError("players must be at least 1")
    return 2 ** (players + 1) - 3


def _check_unit(value: float, name: str) -> float:
    value = float(value)
    if not 0 <= value <= 1:
        raise DomainError(f"{name} must lie in [0, 1]")
    return value


def _check_rounds(rounds: int) -> int:
    if rounds < 0:
        raise DomainError("rounds must be non-negative")
    return rounds


def bound_thm1_repetition(delta: float, players: int, rounds: int) -> float:
    """(1 - delta^2 / (5 C_l^2)) ** rounds."""
    delta = _check_unit(delta, "delta")
    rounds = _check_rounds(rounds)
    c = c_ell(players)
    return (1.0 - delta * delta / (5.0 * c * c)) ** rounds


def bound_thm1_concentration(alpha: float, players: int, rounds: int) -> float:
    """exp(-rounds * alpha^2 / (5 C_l^2))."""
    alpha = _check_unit(alpha, "alpha")
    rounds = _check_rounds(rounds)
    c = c_ell(players)
    return math.exp(-rounds * alpha * alpha / (5.0 * c * c))


def bound_cor1(
    value: float, gamma: float, players: int, rounds: int, kind: str = "repetition"
) -> float:
    """The full-support NS bounds: C_l (Gamma+1) replaces C_l.

    `value` is delta for kind "repetition" and alpha for "concentration";
    gamma = 0 reduces exactly to the universal bound.
    """
    if gamma < 0:
        raise DomainError("gamma must be non-negative")
    value = _check_unit(value, "delta/alpha")
    rounds = _check_rounds(rounds)
    c = c_ell(players) * (gamma + 1.0)
    if kind == "repetition":
        return (1.0 - value * value / (5.0 * c * c)) ** rounds
    if kind == "concentration":
        return math.exp(-rounds * value * value / (5.0 * c * c))
    raise DomainError(f"unknown bound kind {kind!r}")


def bound_thm3(value: float, rounds: int, kind: str = "repetition") -> float:
    """Two-player NS bounds with optimized constants: (1 - delta^2/27)^n and
    exp(-n alpha^2/33)."""
    value = _check_unit(value, "delta/alpha")
    rounds = _check_rounds(rounds)
    if kind == "repetition":
        return (1.0 - value * value / 27.0) ** rounds
    if kind == "concentration":
        return math.exp(-rounds * value * value / 33.0)
    raise DomainError(f"unknown bound kind {kind!r}")


def split_bound(
    value: float, players: int, rounds: int, epsilon: float, kind: str = "repetition"
) -> tuple[float, float]:
    """The two-term diagnostic behind the closed-form rates.

    repetition:    ((1 - delta + 2 C_l eps)^n,  (1 - eps^2)^n)
    concentration: (exp(-2 n (alpha - 2 C_l eps)^2),  exp(-n eps^2))

    The polynomial prefactor is deliberately not included.
    """
    value = _check_unit(value, "delta/alpha")
    rounds = _check_rounds(rounds)
    if not 0 <= epsilon < 1:
        raise DomainError("epsilon must lie in [0, 1)")
    c = c_ell(players)
    if kind == "repetition":
        return ((1.0 - value + 2.0 * c * epsilon) ** rounds, (1.0 - epsilon * epsilon) ** rounds)
    if kind == "concentration":
        return (
            math.exp(-2.0 * rounds * (value - 2.0 * c * epsilon) ** 2),
            math.exp(-rounds * epsilon * epsilon),
        )
    raise DomainError(f"unknown bound kind {kind!r}")


def split_epsilon_repetition(delta: float, players: int) -> float:
    """The eps choice C_l (sqrt(1 + delta/C_l^2) - 1); it satisfies
    eps^2 >= delta^2 / (5 C_l^2), turning the two-term bound into the rate."""
    delta = _check_unit(delta, "delta")
    c = c_ell(players)
    return c * (math.sqrt(1.0 + delta / (c * c)) - 1.0)


def split_epsilon_concentration(alpha: float, players: int) -> float:
    """The eps choice (4 C_l - sqrt 2) alpha / (8 C_l^2 - 1); it satisfies
    eps^2 >= alpha^2 / (5 C_l^2)."""
    alpha = _check_unit(alpha, "alpha")
    c = c_ell(players)
    return (4.0 * c - math.sqrt(2.0)) * alpha / (8.0 * c * c - 1.0)


def definetti_prefactor(kind: str, sizes: tuple[int, ...], rounds: int) -> float:
    """Polynomial prefactors of the de Finetti reductions, as (n+1)^e.

    kind "conditional" with sizes (|B|, |Y|): e = |B||Y|;
    kind "constrained" with sizes (|Z|,):     e = 3 |Z|^2;
    kind "snos" with sizes (|A|, |X|):        e = 3 |A|^2 |X|^2 + 2 |A||X|.
    """
    rounds = _check_rounds(rounds)
    if any(s < 1 for s in sizes):
        raise DomainError("alphabet sizes must be positive")
    if kind == "conditional":
        if len(sizes) != 2:
            raise DomainError("kind 'conditional' needs sizes (|B|, |Y|)")
        exponent = sizes[0] * sizes[1]
    elif kind == "constrained":
        if len(sizes) != 1:
            raise DomainError("kind 'constrained' needs sizes (|Z|,)")
        exponent = 3 * sizes[0] ** 2
    elif kind == "snos":
        if len(sizes) != 2:
            raise DomainError("kind 'snos' needs sizes (|A|, |X|)")
        product = sizes[0] * sizes[1]
        exponent = 3 * product * product + 2 * product
    else:
        raise DomainError(f"unknown prefactor kind {kind!r}")
    return float(rounds + 1) ** exponent


# --- exact-value harness ------------------------------------------------------


def _value(model: str, game: Game, rounds: int = 1) -> ValueResult:
    if model == MODEL_NS:
        return value_ns(game, rounds=rounds)
    if model == MODEL_SNOS:
        return value_snos(game, rounds=rounds)
    raise DomainError(f"verify_sandwich supports models 'ns' and 'snos', not {model!r}")


def repeated_value(model: str, game: Game, rounds: int, *, single: ValueResult | None = None) -> Fraction:
    """Exact value of the `rounds`-fold repetition of `game`.

    When the single-round value is 1 the LP is skipped: the tensor power of
    the single-round witness is verified exactly to be a member winning with
    probability 1, and 1 is an upper bound for every model, so the repeated
    value is certified to be exactly 1.  Otherwise the quotient LP runs.
    """
    if single is None:
        single = _value(model, game)
    if rounds == 1:
        return single.value
    repeated = repeat_game(game, rounds)
    if single.value == 1:
        witness = tensor_power(single.strategy, rounds)
        member = (
            is_ns(witness, NS_MODE_ALL) if model == MODEL_NS else is_snos(witness)
        ).member
        if member and winning_probability(repeated, witness) == 1:
            return Fraction(1)
        raise NsGamesError(
            "internal error: tensor witness failed its certificate"
        )  # pragma: no cover - tensor closure is exact
    return _value(model, repeated, rounds=rounds).value


def verify_sandwich(game: Game, rounds: int, model: str) -> BoundReport:
    """Exact check of  value^n <= value(G^n) <= value  for the given model."""
    if rounds < 1:
        raise DomainError("rounds must be at least 1")
    single = _value(model, game)
    repeated = repeated_value(model, game, rounds, single=single)
    lower = single.value**rounds
    passed = lower <= repeated <= single.value
    return BoundReport(
        name=f"sandwich-{model}",
        params={
            "rounds": rounds,
            "model": model,
            "value_single": single.value,
            "value_repeated": repeated,
            "lower": lower,
        },
        bound=float(single.value),
        exact=repeated,
        passed=passed,
    )


def _single_and_repeated(
    model: str, game: Game, rounds: int, sandwich: BoundReport | None
) -> tuple[Fraction, Fraction]:
    if sandwich is not None and sandwich.params["model"] == model:
        if sandwich.params["rounds"] != rounds:
            raise DomainError("the sandwich report was computed for another number of rounds")
        return sandwich.params["value_single"], sandwich.params["value_repeated"]
    single = _value(model, game)
    return single.value, repeated_value(model, game, rounds, single=single)


def verify_domination(
    game: Game,
    rounds: int,
    *,
    gamma: float | None = None,
    sandwich: BoundReport | None = None,
) -> list[BoundReport]:
    """Exact repeated value against every applicable closed-form bound.

    Always evaluates the universal SNOS bound with delta = 1 - value_snos(G);
    adds the optimized two-player NS bound when the game has two players, and
    the full-support NS bound when `gamma` is supplied and the query
    distribution has full support.  A `verify_sandwich` report for the same
    game and rounds supplies its model's single and repeated values, so
    those LPs are not solved again.
    """
    reports: list[BoundReport] = []
    players = game.players

    snos_single, snos_repeated = _single_and_repeated(MODEL_SNOS, game, rounds, sandwich)
    delta_snos = 1 - snos_single
    bound = bound_thm1_repetition(float(delta_snos), players, rounds)
    reports.append(
        BoundReport(
            name="snos-repetition",
            params={"delta": delta_snos, "players": players, "rounds": rounds},
            bound=bound,
            exact=snos_repeated,
            passed=dominates(bound, snos_repeated),
        )
    )
    if players == 2 or (gamma is not None and game.has_full_support()):
        ns_single, ns_repeated = _single_and_repeated(MODEL_NS, game, rounds, sandwich)
        delta_ns = 1 - ns_single
        if players == 2:
            bound = bound_thm3(float(delta_ns), rounds, "repetition")
            reports.append(
                BoundReport(
                    name="ns-two-player-repetition",
                    params={"delta": delta_ns, "rounds": rounds},
                    bound=bound,
                    exact=ns_repeated,
                    passed=dominates(bound, ns_repeated),
                )
            )
        if gamma is not None and game.has_full_support():
            bound = bound_cor1(float(delta_ns), gamma, players, rounds, "repetition")
            reports.append(
                BoundReport(
                    name="ns-full-support-repetition",
                    params={
                        "delta": delta_ns,
                        "gamma": gamma,
                        "players": players,
                        "rounds": rounds,
                    },
                    bound=bound,
                    exact=ns_repeated,
                    passed=dominates(bound, ns_repeated),
                )
            )
    return reports
