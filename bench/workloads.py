"""Seeded workload generator for the confighom benchmark.

A workload turns a seed into one *pass*: a list of problem configs, each
the JSON object that ``confighom.cli.run`` accepts.  The program sees only
these configs.

Each workload has a fixed design: a list of cells that fix what sets the
cost of an operation (the spec shape, the caps, the field where it
matters).  The seed fills in the rest: it raises each cap by 0 or 1,
deals the output formats, and picks the knobs that cost about the same
either way (the field and genus of a surface problem, the mode that
renders a theorem_b table, the order of wedge summands).  A seed
therefore changes the tables a pass computes, while the work of each
operation stays within a few percent of every other seed's; without
that, which configs a seed happened to draw would swamp the change a commit
makes to the program.

Every generated config stays under ``CAP_CEILING``; :func:`check_caps`
refuses anything above it, so no pass can ask for a table that would not
finish within the per-operation time limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

CAP_CEILING = 200
"""Largest max_degree or max_weight the generator emits or accepts."""

CHECK_CAP_CEILING = 60
"""Largest max_degree for the check suites, which recompute every spec."""

FORMATS = ("table", "csv", "json")

Config = dict[str, Any]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and the reason it exists."""

    name: str
    why: str
    family: str
    caps: str
    loads: str
    bypasses: str
    make: Callable[[random.Random], list[Config]]


def _deal(rng: random.Random, values: tuple, n: int) -> list:
    """n values in which each of ``values`` appears equally often (up to one),
    in a seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _caps(rng: random.Random, D: int, K: int | None = None) -> dict:
    """max_degree D or D + 1; max_weight K (or max_degree // 2) likewise."""
    bump = rng.randint(0, 1)
    D += bump
    return {"max_degree": D, "max_weight": D // 2 if K is None else K + bump}


def _sphere(d: int) -> dict:
    return {"preset": "sphere", "d": d}


def _cube(m: int) -> dict:
    return {"preset": "cube", "m": m}


# -- surface_wedge -----------------------------------------------------------

# (max_degree, wedge degrees); mixed degrees keep the Witt tables dense
_SURFACE_DESIGN = (
    (64, (2, 3, 4)),
    (72, (2, 3)),
    (80, (3, 4)),
    (88, (2, 3)),
    (96, (2, 4)),
    (100, (3, 4)),
)


def _surface_wedge(rng: random.Random) -> list[Config]:
    n = len(_SURFACE_DESIGN)
    configs = []
    for (D, spheres), field, genus, fmt in zip(
        _SURFACE_DESIGN,
        _deal(rng, ("F2", "Fp:3", "Q"), n),
        _deal(rng, (1, 2, 3, 4, 5), n),
        _deal(rng, FORMATS, n),
    ):
        wedge = list(spheres)
        rng.shuffle(wedge)
        configs.append(
            {
                "mode": "theorem_a",
                "field": field,
                "manifold": {"preset": "surface", "genus": genus},
                "n": 1,
                "label_space": {"preset": "wedge", "spheres": wedge},
                **_caps(rng, D),
                "format": fmt,
            }
        )
    return configs


# -- deep_loops --------------------------------------------------------------

# The Dyer-Lashof census is empty over Q, so every cell has a positive
# characteristic.  Rows: (max_degree = max_weight, manifold, n, label
# sphere, field, format).  JSON rendering holds the most memory, so the
# cell with the largest table is always rendered as JSON and peak_rss_mb
# measures the same operation on every seed; None leaves the format to
# the seed.
_ROWS_DESIGN = (
    (110, _cube(1), 1, 0, "F2", None),  # braid groups
    (140, _cube(1), 1, 1, "F2", None),  # Omega^2 S^3, checked against its closed form
    (150, _cube(2), 1, 1, "F2", None),
    (150, _cube(1), 2, 0, "Fp:3", "json"),
    (160, _cube(2), 1, 0, "Fp:5", None),
    (130, _cube(1), 2, 0, "F2", None),
)
# theorem_a with one label sphere and many loops: (manifold, field)
_LOOPS_DESIGN = (({"preset": "sphere", "m": 2}, "F2"), ({"preset": "sphere", "m": 1}, "Fp:3"))


def _deep_loops(rng: random.Random) -> list[Config]:
    formats = iter(_deal(rng, FORMATS, len(_ROWS_DESIGN) + len(_LOOPS_DESIGN)))
    configs = [
        {
            "mode": rng.choice(("theorem_b", "dk_table")),
            "field": field,
            "manifold": manifold,
            "n": euclid,
            "label_space": _sphere(label),
            **_caps(rng, D, D),
            "format": fmt or next(formats),
        }
        for D, manifold, euclid, label, field, fmt in _ROWS_DESIGN
    ]
    configs += [
        {
            "mode": "theorem_a",
            "field": field,
            "manifold": manifold,
            "n": rng.randint(9, 11),
            "label_space": _sphere(2),
            **_caps(rng, 120),
            "format": next(formats),
        }
        for manifold, field in _LOOPS_DESIGN
    ]
    return configs


# -- torus_product -----------------------------------------------------------

# (torus dimension, field, label sphere, max_degree): the binomial Betti
# numbers of T^m raise every factor to a large power, so the coefficients
# grow wide and the packed big-int multiply does most of the work
_TORUS_DESIGN = (
    (6, "Q", 2, 96),
    (6, "Fp:3", 2, 100),
    (7, "Q", 2, 90),
    (7, "Fp:3", 3, 110),
    (7, "Q", 3, 100),
    (8, "Q", 2, 100),
    (8, "Fp:3", 2, 104),
    (8, "Q", 3, 120),
)


def _torus_product(rng: random.Random) -> list[Config]:
    return [
        {
            "mode": "theorem_a",
            "field": field,
            "manifold": {"preset": "torus", "m": m},
            "n": 1,
            "label_space": _sphere(d),
            **_caps(rng, D),
            "format": fmt,
        }
        for (m, field, d, D), fmt in zip(_TORUS_DESIGN, _deal(rng, FORMATS, len(_TORUS_DESIGN)))
    ]


# -- check_suites ------------------------------------------------------------

# The suites' cost climbs so steeply with max_degree, and check:ab's with
# the seed it draws its specs from (threefold between seeds), that both
# are part of the design.  Fifteen short checks of 0.1-0.7 s each, so that
# the pass's median and slowest operation rest on many operations.
_AB_TRIALS = 10
_AB_DESIGN = ((0, 36), (1, 36), (3, 30), (4, 30), (5, 36), (7, 36))  # (suite seed, D)
_HILTON_DEFAULT_DESIGN = (30, 33, 36)
# configured Hilton cases: (manifold, wedge degrees, max_degree)
_HILTON_DESIGN = (
    (_cube(1), (2, 3), 34),
    ({"preset": "sphere", "m": 1}, (2, 3), 34),
    (_cube(1), (2, 4), 34),
    ({"preset": "sphere", "m": 1}, (2, 4), 34),
    ({"preset": "sphere", "m": 2}, (2, 3), 34),
    (_cube(2), (2, 2, 3), 34),
)


def _check_suites(rng: random.Random) -> list[Config]:
    configs: list[Config] = [
        {"mode": "check:ab", "seed": seed, "trials": _AB_TRIALS, "max_degree": D}
        for seed, D in _AB_DESIGN
    ]
    configs += [{"mode": "check:hilton_milnor", "max_degree": D} for D in _HILTON_DEFAULT_DESIGN]
    for manifold, spheres, D in _HILTON_DESIGN:
        wedge = list(spheres)
        rng.shuffle(wedge)
        configs.append(
            {
                "mode": "check:hilton_milnor",
                "field": "F2",
                "manifold": manifold,
                "label_spaces": [_sphere(d) for d in wedge],
                "max_degree": D,
            }
        )
    for config, fmt in zip(configs, _deal(rng, FORMATS, len(configs))):
        config["format"] = fmt
    return configs


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="surface_wedge",
            why="theorem_a over surfaces with mixed-degree sphere wedges: "
            "Witt peeling does most of the work",
            family="theorem_a over genus 1-5 surfaces, labels a wedge of 2-3 "
            "spheres of mixed degrees 2-4, fields F2, F3 and Q",
            caps="max_degree 64-101, max_weight = max_degree // 2",
            loads="witt (lie_atom_counts)",
            bypasses="hilton and the factor cache",
            make=_surface_wedge,
        ),
        Workload(
            name="deep_loops",
            why="theorem_b/dk_table rows and many-loop theorem_a over F2/F3/F5: "
            "power_factor over long Dyer-Lashof censuses, little Witt work",
            family="theorem_b and dk_table rows with S^0 or S^1 labels over "
            "cubes (braid groups, Omega^2 S^3 and deeper loop spaces), and "
            "theorem_a with one label sphere over spheres with n = 9-11",
            caps="rows max_degree = max_weight 110-161; theorem_a "
            "max_degree 120-121, max_weight = max_degree // 2",
            loads="series.power_factor and the Dyer-Lashof census in loops",
            bypasses="witt (under a tenth of the traced time) and hilton",
            make=_deep_loops,
        ),
        Workload(
            name="torus_product",
            why="theorem_a over tori T^6-T^8 with one label sphere: wide "
            "coefficients, so the packed big-int multiply does most of the work",
            family="theorem_a over the tori T^6, T^7 and T^8 with an S^2 or "
            "S^3 label, fields Q and F3",
            caps="max_degree 90-121, max_weight = max_degree // 2",
            loads="series.multiply",
            bypasses="hilton and the factor cache",
            make=_torus_product,
        ),
        Workload(
            name="check_suites",
            why="check:ab and check:hilton_milnor as 15 short checks: multiply "
            "and witt in many small calls, factor-cache hits inside one operation",
            family="check:ab on seeded random specs (10 trials, six suite "
            "seeds), check:hilton_milnor default cases and configured wedges",
            caps="check:ab max_degree 30 and 36; hilton max_degree 30-36",
            loads="series.multiply (about 45% of the traced time) and witt "
            "(about 30%) in many small calls; the factor cache in loops "
            "(factor_series hit ratio about 0.5, and 0 on the other workloads)",
            bypasses="nothing is bypassed, but hilton and assemble self times "
            "are about 1% each: they are per-layer guards only, and no "
            "end-to-end metric can resolve a change to them alone",
            make=_check_suites,
        ),
    )
}


def check_caps(config: Config) -> None:
    """Refuse a config whose caps exceed the stated ceilings."""
    ceiling = CHECK_CAP_CEILING if config["mode"].startswith("check:") else CAP_CEILING
    for key in ("max_degree", "max_weight"):
        value = config.get(key)
        if value is not None and not 0 <= value <= ceiling:
            raise ValueError(f"{key}={value} is outside 0..{ceiling} for {config['mode']}")


def generate(name: str, seed: int) -> list[Config]:
    """The configs of one pass of workload ``name`` for ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    configs = WORKLOADS[name].make(random.Random(f"{name}:{seed}"))
    for config in configs:
        check_caps(config)
    return configs
