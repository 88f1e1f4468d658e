"""The benchmark's workloads as rounds of pelab CLI operations.

Every op is one CLI command.  Round 0 is the reference round: each op runs
at its config's default seed (certify ops on the fixtures of seed 0), so its
reports can be checked against ``reference.json`` on every run.  Round k >= 1
derives its op seeds from the benchmark seed.  A run always completes whole
rounds, so the mix of op kinds is the same in every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WORKLOADS = ("train_rotation", "certify_codes", "theory_sweep")
SCENARIOS = ("orthogonality_rotation", "merged_orbits",
             "over_invariance_bernoulli")
FIXTURE_DEFAULT_SEED = 0

# seed written in each bundled config, used by the reference round
_CONFIG_SEEDS = {"rotation_pel": 7, "bernoulli_counterexample": 3,
                 **{s: 11 for s in SCENARIOS}}
_CERTIFY_DEFAULT_SEED = 0     # the config default when no --config is given


@dataclass
class Op:
    key: str                  # op kind, e.g. "run:rotation_pel"
    argv: list                # pelab CLI arguments, without --out/--quiet
    round: int
    seed: int
    # report paths (keys joined by ".") that must hold true
    expect: list = field(default_factory=list)

    @property
    def reference(self) -> bool:
        return self.round == 0


def op_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def round_ops(workload: str, seed: int, k: int, fixtures: dict) -> list[Op]:
    """Ops of round ``k``.  ``fixtures`` maps a fixture seed to the paths
    written by ``fixtures.write_fixtures``."""
    def pick(config):
        return _CONFIG_SEEDS[config] if k == 0 else op_seed(seed, k)

    if workload == "train_rotation":
        s = pick("rotation_pel")
        return [Op("run:rotation_pel",
                   ["run", "--config", "rotation_pel", "--seed", str(s)], k, s,
                   ["theory.auc_ratio_assert.passed"])]
    if workload == "certify_codes":
        s = pick("bernoulli_counterexample")
        ops = [Op("run:bernoulli_counterexample",
                  ["run", "--config", "bernoulli_counterexample", "--seed",
                   str(s)], k, s, ["theory.risk_table_exact.passed"])]
        cs = _CERTIFY_DEFAULT_SEED if k == 0 else op_seed(seed, k)
        paths = fixtures[FIXTURE_DEFAULT_SEED if k == 0 else seed]
        for name in ("rotation", "bernoulli"):
            ops.append(Op(f"certify:{name}",
                          ["certify", str(paths[name]), "--seed", str(cs)],
                          k, cs))
        return ops
    if workload == "theory_sweep":
        return [Op(f"theory:{sc}",
                   ["verify-theory", "--config", sc, "--seed", str(pick(sc))],
                   k, pick(sc), [f"theory.{sc}.matches_expectation"])
                for sc in SCENARIOS]
    raise ValueError(f"unknown workload {workload!r}")


def fixture_seeds(workload: str, seed: int) -> list[int]:
    if workload != "certify_codes":
        return []
    return sorted({FIXTURE_DEFAULT_SEED, seed})
