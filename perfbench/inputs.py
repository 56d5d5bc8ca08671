"""Seeded inputs for the three workloads.

The program under test only ever sees what these functions return; the
seed never reaches it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SCREEN_FINDINGS = 1500
META_STUDIES = 10_000
# The README subcommands, each run with --json so the output can be compared
# byte for byte with an in-process run.
BUNDLED_TABLE = "src/revbayes/data/react2020.csv"
COLD_MIX = (
    ("meta", BUNDLED_TABLE),
    ("ancred", "--estimate", "-0.53", "--se", "0.145", "--rate", "0.375"),
    ("ancred", "--lower", "-0.96", "--upper", "0.29"),
    ("bf", "--estimate", "-0.53", "--se", "0.145", "--gamma", "0.1"),
    ("bf", "--estimate", "-0.79", "--se", "0.42", "--gamma", "0.3333",
     "--mode", "advocacy"),
    ("bf", "--estimate", "-0.53", "--se", "0.145", "--mode", "ic"),
    ("fpr", "--p", "0.05", "--fpr", "0.05"),
    ("fpr", "--p", "0.005", "--fpr-equals-p", "--grid"),
)


@dataclass(frozen=True)
class Finding:
    theta_hat: float
    se: float
    event_rate: float   # control event rate for the equivalent trial
    fpr_target: float   # target false positive risk


def _halton(i: int, base: int) -> float:
    r, f = 0.0, 1.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _qmc(rng: random.Random, n: int) -> list[list[float]]:
    """n points in [0, 1)^5: a Halton sequence under a seeded random shift.
    Each seed gives other points from the same distribution, but every
    region of the input space receives nearly the same share of the batch,
    so the batch's cost and its slow tail barely vary with the seed."""
    bases = (2, 3, 5, 7, 11)
    shift = [rng.random() for _ in bases]
    return [[(_halton(i, b) + s) % 1.0 for b, s in zip(bases, shift)]
            for i in range(1, n + 1)]


# Ranges of the screen traffic besides |z|, all taken from the project's own
# examples: se is log-uniform between the smallest and largest standard
# error of the seven studies in the bundled REACT table (RECOVERY 0.145,
# DEXA-COVID 1.14; the README examples 0.145, 0.35 and 0.42 lie inside); the
# control event rate is uniform between the table's smallest and largest
# control-arm rate (COVID STEROID 2/14, CoDEX 76/128; the README's 0.375
# lies inside); the FPR target is log-uniform between the README's two fpr
# examples (0.05, and FPR = p at p = 0.005).
SE_RANGE = (0.1447, 1.1402)
RATE_RANGE = (2 / 14, 76 / 128)
FPR_TARGET_RANGE = (0.005, 0.05)


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def screen_findings(seed: int, batch: int = 0, n: int = SCREEN_FINDINGS) -> list[Finding]:
    """Batch `batch` of the seed: n findings, |z| uniform on 0.2-8 except
    one in ten on 8-40, the other inputs on the ranges above. Every batch
    is new traffic; the Halton design keeps its cost nearly the same."""
    rng = random.Random(f"screen-{seed}-{batch}")
    n_far = n // 10
    out = []
    for lo, hi, count in ((0.2, 8.0, n - n_far), (8.0, 40.0, n_far)):
        for u_z, u_se, u_rate, u_target, u_sign in _qmc(rng, count):
            se = _log_uniform(*SE_RANGE, u_se)
            z = math.copysign(lo + (hi - lo) * u_z, u_sign - 0.5)
            rate = RATE_RANGE[0] + (RATE_RANGE[1] - RATE_RANGE[0]) * u_rate
            out.append(Finding(theta_hat=z * se, se=se, event_rate=rate,
                               fpr_target=_log_uniform(*FPR_TARGET_RANGE, u_target)))
    rng.shuffle(out)
    return out


def meta_rows(seed: int, table: int = 0,
              n: int = META_STUDIES) -> list[tuple[str, int, int, int, int]]:
    """Table `table` of the seed, in counts-schema rows: arm sizes log-uniform on 10-1e9, so study
    precisions span about eight decades; every 2x2 cell is at least 1."""
    rng = random.Random(f"meta-{seed}-{table}")
    rows = []
    for i in range(n):
        n_t = int(math.exp(rng.uniform(math.log(10.0), math.log(1e9))))
        n_c = max(10, int(n_t * math.exp(rng.uniform(-0.7, 0.7))))
        rate_c = rng.uniform(0.05, 0.5)
        odds_t = rate_c / (1.0 - rate_c) * math.exp(rng.gauss(-0.3, 0.2))
        rate_t = odds_t / (1.0 + odds_t)
        e_t = _events(rng, n_t, rate_t)
        e_c = _events(rng, n_c, rate_c)
        rows.append((f"S{i:06d}", e_t, n_t, e_c, n_c))
    return rows


def _events(rng: random.Random, n: int, rate: float) -> int:
    # normal approximation to a binomial draw, clamped off the zero cells
    draw = round(rng.gauss(n * rate, math.sqrt(n * rate * (1.0 - rate))))
    return min(max(draw, 1), n - 1)


def write_table(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,events_t,n_t,events_c,n_c\n")
        fh.writelines(f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]}\n" for r in rows)


def cold_order(seed: int, rounds: int) -> list[tuple[str, ...]]:
    """The fixed mix, reshuffled every round: each subcommand runs equally
    often and no order effect favours one of them."""
    rng = random.Random(f"cold-{seed}")
    order = []
    for _ in range(rounds):
        mix = list(COLD_MIX)
        rng.shuffle(mix)
        order.extend(mix)
    return order
