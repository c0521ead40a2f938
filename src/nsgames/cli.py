"""Command-line interface: every operation behind machine-readable JSON reports.

Reports have the envelope

    {"schema": "nsgames-report/1", "command": ..., "inputs": {path: sha256},
     "results": {...}, "pass": true|false|null, "timing": null|seconds}

with rationals always as exact "p/q" strings and floats rounded to 12
significant digits.  Reports are byte-stable for fixed inputs: `timing` stays
null unless `--timing` is given.  `catalog export` is the one exception to
the envelope: it emits the bare game document so its output can be fed
straight back into the other commands.

Exit codes: 0 success/pass, 1 computed fail, 2 usage or input error,
3 resource-cap error, 4 internal error (a failed internal consistency check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from .catalog import builtin_catalog
from .errors import DomainError, NsGamesError, ResourceLimitError, ShapeError, UnsupportedError
from .game_model import (
    Correlation,
    JointDistribution,
    _json_ints,
    _parse_rational_array,
    correlation_from_json_dict,
    correlation_to_json_dict,
    game_from_json_dict,
    game_to_json_dict,
    repeat_game,
    threshold_game,
)
from .polytopes import NS_MODE_ALL, NS_MODE_SINGLES, is_ns, is_snos
from .rationals import format_rational, parse_rational
from .repair import bump_up, reconstruct_snos
from .values import value_classical, value_ns, value_snos

SCHEMA = "nsgames-report/1"

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2
_EXIT_RESOURCE = 3
_EXIT_INTERNAL = 4


def _round_float(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonify(value):
    """Recursively render rationals as p/q strings and round floats."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return _round_float(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text: byte {exc.start} cannot be decoded") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise DomainError(f"{path}: expected a JSON object at the top level")
    return data


def _load_game(path: str):
    data = _load_json(path)
    if "densities" in data:
        raise DomainError(f"{path}: this is a correlation file; a game file is required here")
    return game_from_json_dict(data)


def _load_correlation(path: str) -> Correlation:
    data = _load_json(path)
    if "predicate" in data and "densities" not in data:
        raise DomainError(f"{path}: this is a game file; a correlation file is required here")
    return correlation_from_json_dict(data)


def _membership_results(report) -> dict:
    results: dict = {"member": report.member}
    if report.violation is not None:
        violation = report.violation
        results["violation"] = {
            "subset": list(violation.subset.members) if violation.subset is not None else None,
            "kind": violation.kind,
            "location": _jsonify(list(violation.location)),
            "excess": violation.excess,
        }
    return results


# --- subcommand handlers (results dict, pass flag) ---------------------------


def _cmd_value(args) -> tuple[dict, bool | None]:
    game = _load_game(args.game)
    rounds = args.repeat if args.repeat else 1
    played = game
    if args.threshold is not None:
        if not args.repeat:
            raise DomainError("--threshold needs --repeat")
        played = threshold_game(game, args.threshold, rounds)
    elif args.repeat:
        played = repeat_game(game, rounds)
    if args.model == "classical":
        result = value_classical(played)
    elif args.model == "ns":
        result = value_ns(played, rounds=rounds)
    else:
        result = value_snos(played, rounds=rounds)
    results = {
        "model": args.model,
        "rounds": rounds,
        "threshold": args.threshold,
        "value": result.value,
    }
    if args.witness:
        results["witness"] = correlation_to_json_dict(result.strategy)
    return results, None


def _cmd_membership(args) -> tuple[dict, bool | None]:
    correlation = _load_correlation(args.correlation)
    if args.set == "snos":
        report = is_snos(correlation)
    else:
        mode = NS_MODE_SINGLES if args.mode == "singles" else NS_MODE_ALL
        report = is_ns(correlation, mode)
    results = {"set": args.set, "mode": args.mode if args.set == "ns" else None}
    results.update(_membership_results(report))
    return results, report.member


def _cmd_bumpup(args) -> tuple[dict, bool | None]:
    correlation = _load_correlation(args.correlation)
    lifted = bump_up(correlation)
    dominated = all(b >= a for a, b in zip(correlation.densities, lifted.densities))
    results = {
        "output": correlation_to_json_dict(lifted),
        "pointwise_dominates_input": dominated,
        "is_ns": is_ns(lifted, NS_MODE_ALL).member,
    }
    return results, dominated and results["is_ns"]


def _cmd_reconstruct(args) -> tuple[dict, bool | None]:
    data = _load_json(args.inputs)
    for key in ("players", "inputs", "outputs", "target", "joint", "marginals", "epsilon_empty"):
        if key not in data:
            raise DomainError(f"{args.inputs}: missing field {key!r}")
    inputs = _json_ints(data["inputs"], "inputs")
    outputs = _json_ints(data["outputs"], "outputs")
    target = _parse_rational_array(data["target"], "target")
    joint = JointDistribution(inputs, outputs, _parse_rational_array(data["joint"], "joint"))
    marginals: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    epsilons: dict[tuple[int, ...], Fraction] = {(): parse_rational(data["epsilon_empty"])}
    if not isinstance(data["marginals"], list):
        raise DomainError(f"{args.inputs}: 'marginals' must be a list")
    for pos, entry in enumerate(data["marginals"]):
        if not isinstance(entry, dict) or not {"subset", "table", "epsilon"} <= entry.keys():
            raise DomainError(
                f"{args.inputs}: marginals[{pos}] needs the fields 'subset', 'table' and 'epsilon'"
            )
        subset = tuple(sorted(_json_ints(entry["subset"], f"marginals[{pos}].subset")))
        marginals[subset] = _parse_rational_array(entry["table"], f"marginals[{pos}].table")
        epsilons[subset] = parse_rational(entry["epsilon"])
    repaired = reconstruct_snos(target, joint, marginals, epsilons)
    distance = Fraction(0)
    n_a = joint.n_outputs
    for x in range(joint.n_inputs):
        for a in range(n_a):
            distance += abs(target[x] * repaired.density(x, a) - joint.value(x, a))
    distance /= 2
    budget = epsilons[()] + 2 * sum(
        (eps for key, eps in epsilons.items() if key != ()), Fraction(0)
    )
    results = {
        "output": correlation_to_json_dict(repaired),
        "distance": distance,
        "distance_budget": budget,
        "is_snos": True,
        "is_ns": is_ns(repaired, NS_MODE_ALL).member,
    }
    return results, distance <= budget


_BOUND_NAMES = ("thm1-rep", "thm1-conc", "cor1", "thm3", "prefactor")


def _parse_params(raw: str) -> dict[str, str]:
    out = {}
    if not raw:
        return out
    for item in raw.split(","):
        if "=" not in item:
            raise DomainError(f"--params items must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _need(params: dict[str, str], *keys: str) -> list[str]:
    missing = [k for k in keys if k not in params]
    if missing:
        raise DomainError(f"--params is missing {missing}")
    return [params[k] for k in keys]


def _cmd_bound(args) -> tuple[dict, bool | None]:
    params = _parse_params(args.params)
    name = args.name
    if name == "thm1-rep":
        delta, players, rounds = _need(params, "delta", "l", "n")
        value = bounds_mod.bound_thm1_repetition(float(delta), int(players), int(rounds))
    elif name == "thm1-conc":
        alpha, players, rounds = _need(params, "alpha", "l", "n")
        value = bounds_mod.bound_thm1_concentration(float(alpha), int(players), int(rounds))
    elif name == "cor1":
        kind = params.get("kind", "repetition")
        kind = {"rep": "repetition", "conc": "concentration"}.get(kind, kind)
        key = "delta" if kind == "repetition" else "alpha"
        gap, gamma, players, rounds = _need(params, key, "gamma", "l", "n")
        value = bounds_mod.bound_cor1(float(gap), float(gamma), int(players), int(rounds), kind)
    elif name == "thm3":
        kind = params.get("kind", "repetition")
        kind = {"rep": "repetition", "conc": "concentration"}.get(kind, kind)
        key = "delta" if kind == "repetition" else "alpha"
        gap, rounds = _need(params, key, "n")
        value = bounds_mod.bound_thm3(float(gap), int(rounds), kind)
    elif name == "prefactor":
        kind = params.get("kind")
        if kind == "conditional":
            b, y, rounds = _need(params, "b", "y", "n")
            value = bounds_mod.definetti_prefactor(kind, (int(b), int(y)), int(rounds))
        elif kind == "constrained":
            z, rounds = _need(params, "z", "n")
            value = bounds_mod.definetti_prefactor(kind, (int(z),), int(rounds))
        elif kind == "snos":
            a, x, rounds = _need(params, "a", "x", "n")
            value = bounds_mod.definetti_prefactor(kind, (int(a), int(x)), int(rounds))
        else:
            raise DomainError("prefactor needs kind=conditional|constrained|snos")
    else:  # pragma: no cover - argparse choices guard this
        raise DomainError(f"unknown bound name {name!r}")
    return {"name": name, "params": params, "bound": value}, None


def _cmd_verify(args) -> tuple[dict, bool | None]:
    game = _load_game(args.game)
    sandwich = bounds_mod.verify_sandwich(game, args.n, args.model)
    domination = bounds_mod.verify_domination(game, args.n, gamma=args.gamma, sandwich=sandwich)
    all_passed = sandwich.passed and all(r.passed for r in domination)
    def render(report):
        return {
            "name": report.name,
            "params": _jsonify(report.params),
            "bound": report.bound,
            "exact": report.exact,
            "passed": report.passed,
        }
    return {
        "sandwich": render(sandwich),
        "domination": [render(r) for r in domination],
    }, all_passed


def _cmd_catalog(args) -> tuple[dict, bool | None] | int:
    catalog = builtin_catalog()
    if args.action == "list":
        entries = []
        for name, spec in sorted(catalog.items()):
            entries.append(
                {
                    "name": name,
                    "players": spec.game.players,
                    "inputs": list(spec.game.input_alphabets),
                    "outputs": list(spec.game.output_alphabets),
                    "strategies": [label for label, _, _ in spec.strategies],
                }
            )
        return {"entries": entries}, None
    if args.name not in catalog:
        raise DomainError(f"unknown catalog entry {args.name!r}; try 'catalog list'")
    # bare game document: feedable back into the other commands
    print(json.dumps(game_to_json_dict(catalog[args.name].game), indent=2, sort_keys=True))
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsgames",
        description="Exact values, membership, repair and repetition bounds for non-local games",
    )
    parser.add_argument("--timing", action="store_true", help="include wall time in the report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", help="exact game value for a strategy class")
    p.add_argument("game")
    p.add_argument("--model", choices=("ns", "snos", "classical"), required=True)
    p.add_argument("--repeat", type=int, default=0, metavar="N")
    p.add_argument("--threshold", type=int, default=None, metavar="T")
    p.add_argument("--witness", action="store_true", help="include the optimal strategy")
    p.set_defaults(handler=_cmd_value)

    p = sub.add_parser("membership", help="NS/SNOS membership of a correlation")
    p.add_argument("correlation")
    p.add_argument("--set", choices=("ns", "snos"), required=True)
    p.add_argument("--mode", choices=("singles", "all"), default="singles")
    p.set_defaults(handler=_cmd_membership)

    p = sub.add_parser("bumpup", help="lift a two-player SNOS correlation to NS")
    p.add_argument("correlation")
    p.set_defaults(handler=_cmd_bumpup)

    p = sub.add_parser("reconstruct", help="repair a joint distribution into an exact SNOS strategy")
    p.add_argument("inputs")
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("bound", help="evaluate a closed-form bound")
    p.add_argument("--name", choices=_BOUND_NAMES, required=True)
    p.add_argument("--params", default="", help="comma-separated key=value list")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("verify", help="sandwich + bound domination for a game")
    p.add_argument("game")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", choices=("ns", "snos"), default="snos")
    p.add_argument("--gamma", type=float, default=None)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("catalog", help="list or export built-in games")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?")
    p.set_defaults(handler=_cmd_catalog)

    return parser


def _input_files(args) -> dict[str, str]:
    files = {}
    for attr in ("game", "correlation", "inputs"):
        path = getattr(args, attr, None)
        if path:
            files[path] = _digest(path)
    return files


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else _EXIT_OK
    start = time.perf_counter()
    try:
        inputs = _input_files(args)
        outcome = args.handler(args)
        if isinstance(outcome, int):
            return outcome
        results, passed = outcome
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_RESOURCE
    except (DomainError, ShapeError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except NsGamesError as exc:  # internal consistency failures
        print(f"internal error: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": inputs,
        "results": _jsonify(results),
        "pass": passed,
        "timing": _round_float(time.perf_counter() - start) if args.timing else None,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if passed is False:
        return _EXIT_FAIL
    return _EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
