"""The four workloads: their op lists, built from a seed, and the answer check
of every op.

An op is one exact computation a user asks for, made through the package's
public API or through `nsgames.cli.main`. Ops look their function up on the
package at call time, so the tracer's wrappers see the top-level call too.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle
import pools

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = "perfbench/.work"  # relative to ROOT, the working directory of a run

WORKLOADS = ("ns_values", "snos_values", "repair", "cli")

# name -> argv template for nsgames.cli.main; {game} is a file under WORK_DIR
CLI_COMMANDS = {
    "verify_snos": ("verify", "{game}", "--n", "2"),
    "verify_ns": ("verify", "{game}", "--n", "2", "--model", "ns"),
    "value_ns_rep2": ("value", "{game}", "--model", "ns", "--repeat", "2"),
    "value_snos_thr": ("value", "{game}", "--model", "snos", "--repeat", "2", "--threshold", "1"),
    "value_classical": ("value", "{game}", "--model", "classical"),
}

# ops per pass of each kind; a pass is the workload's fixed op list
MIXES = {
    "ns_values": {"ns_rep2": 20, "ns_thr": 25, "ns_g3": 70},
    "snos_values": {"snos_rep2": 45, "snos_thr": 75, "snos_g3": 6, "snos_a3sq": 1},
    "repair": {
        "reconstruct3": 50,
        "reconstruct2": 40,
        "bump_up": 40,
        "is_ns": 40,
        "is_snos": 40,
        "classical": 40,
        "nearest_ns": 40,
    },
    # verify on a game of value 1 certifies the repeated value with the tensor
    # power of the witness (/cert); below 1 it solves the repeated LPs (/lp)
    "cli": {
        "verify_snos/lp": 9,
        "verify_snos/cert": 10,
        "verify_ns/lp": 9,
        "verify_ns/cert": 10,
        "value_ns_rep2": 16,
        "value_snos_thr": 30,
        "value_classical": 20,
    },
}


class Mismatch(Exception):
    """An op returned an answer that differs from the expected one."""


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]  # raises Mismatch
    counts: Callable[[object], dict[str, int]] | None = None


def import_package():
    """Import nsgames afresh from ROOT/src; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "nsgames" / "__init__.py").is_file():
        print(f"error: no nsgames package under {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "nsgames" or m.startswith("nsgames.")]:
        del sys.modules[name]
    ns = importlib.import_module("nsgames")
    importlib.import_module("nsgames.cli")
    if Path(ns.__file__).resolve().parent != (src / "nsgames").resolve():
        print(f"error: imported nsgames from {ns.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return ns


def game_path(index: int) -> str:
    return f"{WORK_DIR}/games/g{index:03d}.json"


def write_game_files(ns, indices) -> None:
    os.makedirs(f"{WORK_DIR}/games", exist_ok=True)
    for i in indices:
        text = json.dumps(ns.game_to_json_dict(pools.pool2_game(ns, i)), indent=2, sort_keys=True)
        tmp = f"{game_path(i)}.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, game_path(i))  # concurrent runs write identical bytes


def run_cli(ns, name: str, index: int) -> tuple[int, str]:
    argv = [arg.format(game=game_path(index)) for arg in CLI_COMMANDS[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ns.cli.main(argv)
    return code, buf.getvalue()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# --- op factories ---------------------------------------------------------------
#
# A factory takes the imported package and plain data, and builds one Op. The
# data comes from `op_specs`, once per run; the factories run in every set-up.


def _value_op(ns, kind, model, make_game, index, want, rounds=1, threshold=None) -> Op:
    game = make_game(ns, index)
    solve = {"ns": "value_ns", "snos": "value_snos", "classical": "value_classical"}[model]
    if rounds == 1:

        def call():
            return getattr(ns, solve)(game)

    elif threshold is None:

        def call():
            return getattr(ns, solve)(ns.repeat_game(game, rounds), rounds=rounds)

    else:

        def call():
            return getattr(ns, solve)(ns.threshold_game(game, threshold, rounds), rounds=rounds)

    def check(result):
        value = Fraction(want)
        _require(result.value == value, f"{kind}: value {result.value}, expected {value}")
        inputs, outputs = game.input_alphabets, game.output_alphabets
        dist, pred = game.distribution, game.predicate
        if rounds > 1:
            inputs, outputs, dist, pred = oracle.product_game(
                inputs, outputs, dist, pred, rounds, threshold
            )
        dens = result.strategy.densities
        member = oracle.is_snos if model == "snos" else oracle.is_ns
        _require(member(inputs, outputs, dens), f"{kind}: witness is not {model}")
        won = oracle.winning_probability(dist, pred, dens)
        _require(won == value, f"{kind}: witness wins {won}, expected {value}")

    return Op(kind, call, check)


def _reconstruct_op(ns, players, target, joint, marginals, epsilons) -> Op:
    sizes = (2,) * players
    joint_dist = ns.JointDistribution(sizes, sizes, joint)
    kind = f"reconstruct{players}"

    def call():
        return ns.reconstruct_snos(target, joint_dist, marginals, epsilons)

    def check(result):
        dens = result.densities
        _require(oracle.is_snos(sizes, sizes, dens), f"{kind}: result is not SNOS")
        if players == 2:
            _require(oracle.is_ns(sizes, sizes, dens), f"{kind}: two-player result is not NS")
        n_a = 2**players
        moved = sum(abs(target[i // n_a] * p - q) for i, (p, q) in enumerate(zip(dens, joint))) / 2
        budget = epsilons[()] + 2 * sum(v for k, v in epsilons.items() if k != ())
        _require(moved <= budget, f"{kind}: moved {moved} > budget {budget}")

    return Op(kind, call, check)


def _bump_up_op(ns, dens) -> Op:
    corr = ns.Correlation(pools.TWO, pools.TWO, dens)

    def call():
        return ns.bump_up(corr)

    def check(result):
        lifted = result.densities
        _require(oracle.is_ns(pools.TWO, pools.TWO, lifted), "bump_up: result is not NS")
        _require(all(q >= p for p, q in zip(dens, lifted)), "bump_up: result does not dominate")

    return Op("bump_up", call, check)


def _membership_op(ns, kind, dens, truth) -> Op:
    corr = ns.Correlation(pools.THREE, pools.THREE, dens)

    if kind == "is_ns":

        def call():
            return ns.is_ns(corr, ns.NS_MODE_ALL)

    else:

        def call():
            return ns.is_snos(corr)

    def check(report):
        _require(report.member == truth, f"{kind}: member={report.member}, expected {truth}")

    return Op(kind, call, check)


def _nearest_ns_op(ns, target, dens, want) -> Op:
    corr = ns.Correlation(pools.TWO, pools.TWO, dens)

    def call():
        return ns.nearest_ns(target, corr)

    def check(result):
        witness, distance = result
        value = Fraction(want)
        _require(distance == value, f"nearest_ns: distance {distance}, expected {value}")
        _require(oracle.is_ns(pools.TWO, pools.TWO, witness.densities), "nearest_ns: not NS")
        moved = oracle.weighted_distance(target, witness.densities, dens)
        _require(moved == value, f"nearest_ns: witness is at {moved}, reported {value}")

    return Op("nearest_ns", call, check)


def _cli_op(ns, name, index, want) -> Op:
    def call():
        return run_cli(ns, name, index)

    def check(result):
        code, text = result
        _require(code == want["exit"], f"cli {name}: exit {code}, expected {want['exit']}")
        _require(text == want["report"], f"cli {name} on {game_path(index)}: report differs")

    return Op(f"cli_{name}", call, check, counts=lambda result: {"cli.report_bytes": len(result[1])})


# --- op specs: the seeded choices, made once per run -----------------------------


def _value_specs(workload, rng, expected, counts):
    model = "ns" if workload == "ns_values" else "snos"
    rep2, thr, g3 = (f"{model}_rep2", f"{model}_thr", f"{model}_g3")
    picks2 = rng.sample(range(pools.POOL2), counts[rep2] + counts[thr])
    pool2 = expected["pool2"]
    groups = [
        [(_value_op, (rep2, model, pools.pool2_game, i, pool2[i][rep2], 2))
         for i in picks2[: counts[rep2]]],
        [(_value_op, (thr, model, pools.pool2_game, i, pool2[i][thr], 2, 1))
         for i in picks2[counts[rep2] :]],
        [(_value_op, (g3, model, pools.pool3_game, i, expected["pool3"][i][model]))
         for i in rng.sample(range(pools.POOL3), counts[g3])],
    ]
    if counts.get("snos_a3sq"):
        a3sq = (_value_op, ("snos_a3sq", "snos", pools.a3_game, None, expected["a3sq_snos"], 2))
        groups.append([a3sq] * counts["snos_a3sq"])
    return groups


def _membership_specs(rng, kind, count):
    sizes = pools.THREE
    specs = []
    for k in range(count):  # alternately a member and a non-member
        if kind == "is_ns":
            if k % 2 == 0:
                dens = pools.deterministic_mixture(rng, sizes, sizes)
            else:
                dens = tuple(p for _ in range(8) for p in pools.rand_dist(rng, 8, 8))
            truth = oracle.is_ns(sizes, sizes, dens)
        else:
            dens = (pools.snos_table if k % 2 == 0 else pools.random_table)(rng, sizes, sizes)
            truth = oracle.is_snos(sizes, sizes, dens)
        specs.append((_membership_op, (kind, dens, truth)))
    return specs


def _repair_specs(rng, expected, counts):
    pool3 = expected["pool3"]
    return [
        [(_reconstruct_op, (3, *pools.certified_instance(rng, 3)))
         for _ in range(counts["reconstruct3"])],
        [(_reconstruct_op, (2, *pools.certified_instance(rng, 2)))
         for _ in range(counts["reconstruct2"])],
        [(_bump_up_op, (pools.snos_table(rng, pools.TWO, pools.TWO),))
         for _ in range(counts["bump_up"])],
        _membership_specs(rng, "is_ns", counts["is_ns"]),
        _membership_specs(rng, "is_snos", counts["is_snos"]),
        [(_value_op, ("classical", "classical", pools.pool3_game, i, pool3[i]["classical"]))
         for i in rng.sample(range(pools.POOL3), counts["classical"])],
        [(_nearest_ns_op, (*pools.box(i), expected["boxes"][i]["distance"]))
         for i in rng.sample(range(pools.BOXES), counts["nearest_ns"])],
    ]


def _cli_specs(rng, expected, counts):
    games = list(range(pools.CLI_GAMES))
    value_one = [i for i in games if expected["pool2"][i]["ns_rep2"] == "1/1"]
    by_class = {"": games, "cert": value_one, "lp": [i for i in games if i not in value_one]}
    groups = []
    for kind, count in counts.items():
        name, _, game_class = kind.partition("/")
        picks = rng.sample(by_class[game_class], count)
        groups.append([(_cli_op, (name, i, expected["cli"][i][name])) for i in picks])
    return groups


def op_specs(workload: str, seed: int, expected: dict) -> list[tuple]:
    """The workload's fixed op list for `seed`, as (factory, data) pairs.

    Kinds are interleaved evenly, so that each is spread over the whole pass.
    Everything the benchmark derives itself (choices, certificates, expected
    membership) is done here, outside the timed set-up.
    """
    rng = random.Random(f"{workload}/{seed}")
    counts = MIXES[workload]
    if workload in ("ns_values", "snos_values"):
        groups = _value_specs(workload, rng, expected, counts)
    elif workload == "repair":
        groups = _repair_specs(rng, expected, counts)
    else:
        groups = _cli_specs(rng, expected, counts)
    keyed = [
        ((pos + 0.5) / len(group), order, spec)
        for order, group in enumerate(groups)
        for pos, spec in enumerate(group)
    ]
    return [spec for _, _, spec in sorted(keyed, key=lambda item: item[:2])]


def build_ops(ns, specs) -> list[Op]:
    """Build the program's inputs for every op; CLI ops also get their game files."""
    cli_games = sorted({data[1] for factory, data in specs if factory is _cli_op})
    if cli_games:
        write_game_files(ns, cli_games)
    return [factory(ns, *data) for factory, data in specs]
