"""Seeded inputs of the three workloads, shared by run.py and its children.

The workload seed picks two angles beta and phi and feeds congruent copies of
the catalog's default surfaces: the parameter plane turned by phi and space
turned by beta.  Every length, area and verdict is invariant under that
motion, so the pinned margins of ``oracle`` hold at every seed up to the
rounding drift of re-sampled quadrature nodes.  At ``CATALOG_SEED`` both
angles are zero and the inputs are exactly the catalog defaults.

This module imports only the standard library: the run.py process uses it
without importing ``minann``.
"""

from __future__ import annotations

import cmath
import math
import random

CATALOG_SEED = 20260814
N_THETA = 512  # library default used by the in-process workloads

WORKLOADS = ("traced_route", "circle_route", "cli_cold")

TRACED_SCENARIOS = ("prop_3_7", "theorem_4_1", "corollary_4_2", "theorem_4_3", "step_two")
CIRCLE_SCENARIOS = (
    "lemma_3_1",
    "lemma_3_4_identity",
    "theorem_3_5",
    "prop_3_6_symmetry",
    "theorem_3_8",
    "total_curvature_8pi",
)
RANDOM_ENSEMBLES = ("lemma_3_1", "lemma_3_4_identity")
FIGURE_EIGHT_SCENARIOS = ("theorem_4_1", "corollary_4_2", "theorem_4_3", "step_two",
                          "total_curvature_8pi")
PERTURBED_SCENARIOS = ("prop_3_7", "theorem_3_5", "theorem_3_8")

TRACE_HEIGHTS = (-0.2, 0.0, 0.2)
AREA_SLAB_HALF = 0.25
REPORT_SCENARIO = "theorem_3_8"


def angles(seed: int) -> tuple[float, float]:
    """(beta, phi) for a workload seed; both zero at the catalog seed."""
    if int(seed) == CATALOG_SEED:
        return 0.0, 0.0
    rng = random.Random(int(seed))
    return math.tau * rng.random(), math.tau * rng.random()


def family_params(seed: int) -> dict:
    """Complex parameters of the rotated figure-eight and perturbed cover."""
    beta, phi = angles(seed)
    return {
        "a_m1": cmath.exp(1j * (beta - phi)),
        "a_1": cmath.exp(1j * (beta + phi)),
        "c1": cmath.exp(1j * (beta + phi)),
        "eps1": 0.05 * cmath.exp(1j * beta),
    }


def scenario_calls(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(scenario, overrides) of one pass of an in-process workload."""
    fam = family_params(seed)
    fig8 = {k: fam[k] for k in ("a_m1", "a_1")}
    pert = {k: fam[k] for k in ("c1", "eps1")}
    names = TRACED_SCENARIOS if workload == "traced_route" else CIRCLE_SCENARIOS
    calls = []
    for name in names:
        if name in RANDOM_ENSEMBLES:
            overrides = {"seed": int(seed)}
        elif name in FIGURE_EIGHT_SCENARIOS:
            overrides = dict(fig8)
        elif name in PERTURBED_SCENARIOS:
            overrides = dict(pert)
        else:  # prop_3_6_symmetry checks both families
            overrides = {**fig8, **pert}
        calls.append((name, overrides))
    return calls


def _cli_complex(value: complex) -> str:
    return f"{value.real!r},{value.imag!r}"


def cli_commands(seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) of one cli_cold pass; paths are relative to its work dir."""
    fam = family_params(seed)
    heights = [f"--height={h!r}" for h in TRACE_HEIGHTS]
    return [
        ("gen", ["gen", "--family", "figure_eight",
                 f"--a-m1={_cli_complex(fam['a_m1'])}", f"--a-1={_cli_complex(fam['a_1'])}",
                 "--out", "fig8.json"]),
        ("check", ["check", "--data", "fig8.json"]),
        ("measure_area", ["measure", "--data", "fig8.json", "--kind", "area",
                          "--slab-half", repr(AREA_SLAB_HALF)]),
        ("measure_curvature", ["measure", "--data", "fig8.json", "--kind", "curvature"]),
        ("trace", ["trace", "--data", "fig8.json", *heights,
                   "--csv", "levels.csv", "--svg", "levels.svg", "--inset"]),
        ("report", ["report", "--scenario", REPORT_SCENARIO,
                    f"--param=c1={_cli_complex(fam['c1'])}",
                    f"--param=eps1={_cli_complex(fam['eps1'])}"]),
    ]
