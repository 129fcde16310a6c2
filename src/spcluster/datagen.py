"""Synthetic S-P chart generation for the three canonical chart types.

Cells are independent Bernoulli draws with success probability
logistic(ability - difficulty).  Abilities are normal with a per-type
mean; difficulties are normal around zero.  The offsets below put the
mean correct rate near 0.5 (test), 0.78 (drill), and 0.22 (pre-test),
far enough inside the classifier bands that up to 10% answer noise
rarely changes the resulting type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spchart import ChartType, SPChart, _make_chart

ABILITY_MEAN = {ChartType.TEST: 0.0, ChartType.DRILL: 2.0, ChartType.PRETEST: -2.0}
ABILITY_SD = 1.0
DIFFICULTY_SD = 0.5


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one synthetic chart; same spec, same chart."""

    chart_type: ChartType
    students: int
    problems: int
    seed: int
    noise: float = 0.0

    def __post_init__(self) -> None:
        if self.students < 1 or self.problems < 1:
            raise ValueError("need at least one student and one problem")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 <= self.noise <= 0.5:
            raise ValueError("noise must be in [0, 0.5]")


def generate_chart(spec: GenSpec) -> SPChart:
    """Draw a chart per the spec.  Draw order is fixed (abilities,
    difficulties, cells, then noise flips) so output is seed-stable.
    Students and problems are named S1..SL and P1..PN by the rule that
    ``spchart.parse_chart`` applies to a chart read without labels."""
    rng = np.random.default_rng(spec.seed)
    ability = rng.normal(ABILITY_MEAN[spec.chart_type], ABILITY_SD, spec.students)
    difficulty = rng.normal(0.0, DIFFICULTY_SD, spec.problems)
    logit = ability[:, None] - difficulty[None, :]
    prob = 1.0 / (1.0 + np.exp(-logit))
    bits = (rng.random((spec.students, spec.problems)) < prob).astype(np.int8)
    if spec.noise > 0.0:
        flips = rng.random((spec.students, spec.problems)) < spec.noise
        bits = np.where(flips, 1 - bits, bits)
    return _make_chart(bits, None, None)
