"""Built-in example systems and the shared observable test set.

The entries are input data, not claims: their correctness targets are
internal consistency (SPD metric, full-rank constraints, valid frames over
the sample region) plus the bracket/dynamics verification suites. Sample
regions deliberately avoid angles where the default frame construction
switches pivots. Seeded sampling projects its candidates in stacked blocks
(``sample_m_points``) and gives bitwise the points, errors and attempt cap
of drawing and projecting one candidate at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import dsl, geometry
from .errors import RankDeficientError
from .rng import SplitMix64
from .system import Observable, PhasePoint, SystemDefinition, hamiltonian_observable

HOLONOMIC_CONTROL = """\
# Integrable control case: one constant constraint on the plane.
[system]
name = holonomic_control
dim = 2
coords = x, y

[metric]
row1 = 1, 0
row2 = 0, 1

[potential]
V = 0

[constraint]
form = 0, 1
"""

NONHOLONOMIC_PARTICLE = """\
# Free particle in three dimensions subject to zdot = y * xdot.
[system]
name = nonholonomic_particle
dim = 3
coords = x, y, z

[metric]
row1 = 1, 0, 0
row2 = 0, 1, 0
row3 = 0, 0, 1

[potential]
V = 0

[constraint]
form = y, 0, -1
"""

CHAPLYGIN_SLEIGH = """\
# Planar sleigh with a knife edge offset a from the center of mass.
[system]
name = chaplygin_sleigh
dim = 3
coords = x, y, th

[params]
m = 1
J = 1
a = 0.5

[metric]
row1 = m, 0, -m*a*sin(th)
row2 = 0, m, m*a*cos(th)
row3 = -m*a*sin(th), m*a*cos(th), J + m*a^2

[potential]
V = 0

[constraint]
form = -sin(th), cos(th), -a
"""

VERTICAL_ROLLING_DISK = """\
# Upright disk rolling without slipping; heading th, rolling angle ph.
[system]
name = vertical_rolling_disk
dim = 4
coords = x, y, th, ph

[params]
m = 1
I = 1
J = 1
R = 1

[metric]
row1 = m, 0, 0, 0
row2 = 0, m, 0, 0
row3 = 0, 0, I, 0
row4 = 0, 0, 0, J

[potential]
V = 0

[constraint]
form = 1, 0, 0, -R*cos(th)

[constraint]
form = 0, 1, 0, -R*sin(th)
"""


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    definition: str
    sample_region: tuple  # per-coordinate (lo, hi) intervals for random q
    momentum_scale: float
    notes: str

    def system(self) -> SystemDefinition:
        return _parsed(self.id)


_ENTRIES = (
    CatalogEntry(
        id="holonomic_control",
        definition=HOLONOMIC_CONTROL,
        sample_region=((-1.0, 1.0), (-1.0, 1.0)),
        momentum_scale=1.0,
        notes="integrable distribution; every almost-bracket defect must vanish",
    ),
    CatalogEntry(
        id="nonholonomic_particle",
        definition=NONHOLONOMIC_PARTICLE,
        sample_region=((-1.0, 1.0), (-0.75, 0.75), (-1.0, 1.0)),
        momentum_scale=1.0,
        notes="canonical non-integrable example; zdot = y*xdot",
    ),
    CatalogEntry(
        id="chaplygin_sleigh",
        definition=CHAPLYGIN_SLEIGH,
        sample_region=((-1.0, 1.0), (-1.0, 1.0), (0.85, 1.0)),
        momentum_scale=1.0,
        notes="knife-edge sleigh; non-diagonal configuration-dependent metric",
    ),
    CatalogEntry(
        id="vertical_rolling_disk",
        definition=VERTICAL_ROLLING_DISK,
        sample_region=((-1.0, 1.0), (-1.0, 1.0), (0.2, 1.3), (-1.0, 1.0)),
        momentum_scale=1.0,
        notes="rolling without slipping; two constraints, rank-2 distribution",
    ),
)

_PARSE_CACHE: dict[str, SystemDefinition] = {}


def _parsed(entry_id: str) -> SystemDefinition:
    if entry_id not in _PARSE_CACHE:
        _PARSE_CACHE[entry_id] = dsl.parse_system(get_entry(entry_id).definition)
    return _PARSE_CACHE[entry_id]


def catalog_systems() -> list[CatalogEntry]:
    return list(_ENTRIES)


def get_entry(entry_id: str) -> CatalogEntry:
    for e in _ENTRIES:
        if e.id == entry_id:
            return e
    raise KeyError(entry_id)


def get_system(entry_id: str) -> SystemDefinition:
    return _parsed(entry_id)


def observable_test_set(sys: SystemDefinition) -> list[Observable]:
    """The fixed observable family used by every verification sweep.

    Coordinates, momenta, the energy, all coordinate-momentum products, and
    one trigonometric probe, in a deterministic order.
    """
    obs = [Observable.from_expression(sys, c) for c in sys.coords]
    obs += [Observable.from_expression(sys, pm) for pm in sys.momenta]
    obs.append(hamiltonian_observable(sys))
    for c in sys.coords:
        for pm in sys.momenta:
            obs.append(Observable.from_expression(sys, f"{c}*{pm}"))
    obs.append(Observable.from_expression(sys, f"sin({sys.coords[0]})*{sys.momenta[0]}"))
    return obs


def sample_m_points(
    sys: SystemDefinition,
    count: int,
    seed: int,
    region=None,
    momentum_scale: float = 1.0,
) -> list[PhasePoint]:
    """Draw seeded phase points on the constraint manifold.

    q is uniform over the region, the raw momentum uniform in a scaled cube,
    and the result is projected onto M; the residual after projection is at
    machine precision. The stream is the documented splitmix generator, so a
    fixed seed reproduces points bit-for-bit.

    Candidates are drawn in blocks of as many as are still missing, q then
    p each, and projected in one stacked pass (``geometry.validated`` with p,
    through ``geometry.per_point``), each as ``eden_project`` would alone. A
    candidate is skipped on RankDeficientError; any other error raises, in
    candidate order.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = sys.n
    if region is None:
        region = tuple((-1.0, 1.0) for _ in range(n))
    rng = SplitMix64(seed)
    out = []
    budget = 64 * count + 1  # candidates drawn before giving up
    while len(out) < count:
        if budget == 0:
            raise RankDeficientError(
                "sampling kept hitting degenerate configurations; check the region"
            )
        size = min(count - len(out), budget)
        budget -= size
        z = np.array([
            [rng.uniform(lo, hi) for lo, hi in region]
            + [rng.uniform(-momentum_scale, momentum_scale) for _ in range(n)]
            for _ in range(size)
        ])
        q, p_raw = z[:, : len(region)], z[:, len(region) :]
        with np.errstate(all="ignore"):
            projected = geometry.per_point(functools.partial(_projected, sys), q, p_raw)
        out += [PhasePoint(q=qb, p=p) for qb, p in zip(q, projected) if p is not None]
    return out


def _projected(sys, q, p):
    """The Eden projections of candidates (B, n), or None for a lone
    candidate whose configuration is rank deficient (it is skipped)."""
    try:
        return list(geometry.validated(sys, q, p=p)[4])
    except RankDeficientError:
        if len(q) > 1:
            raise
        return [None]


def sample_entry_points(entry: CatalogEntry, count: int, seed: int) -> list[PhasePoint]:
    return sample_m_points(
        entry.system(),
        count,
        seed,
        region=entry.sample_region,
        momentum_scale=entry.momentum_scale,
    )
