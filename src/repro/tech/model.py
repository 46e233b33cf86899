"""Technology models: per-node, per-flavor CMOS scaling tables.

One :class:`TechModel` describes a process point relative to the repo's
calibrated mid-90s gate-array baseline (:data:`BASELINE` — the LSI-10K
stand-in every estimate in :mod:`repro.hgen` was built against):

* ``area_scale`` / ``delay_scale`` multiply the baseline area and
  critical-path estimates (cell counts and logic depth are technology
  independent, the per-cell physicals are not);
* ``dynamic_energy_per_cell_pj`` / ``static_power_per_cell_uw`` replace
  the baseline per-cell power constants — they are *per baseline grid
  cell*, so the node's area shrink is already folded in;
* the V/f curve (see :mod:`repro.tech.vf`) says how much frequency
  survives a supply droop, which is what the operating-point solver
  trades against a power budget.

Table provenance: the *shape* follows the Lumos dark-silicon model
(per-node HP/LP tables derived from ITRS projections): roughly 0.5×
area per full node step, a much flatter delay improvement, dynamic
energy falling with C·V², HP leakage per (baseline) cell nearly flat
across nodes while LP trades ~40 % of HP's frequency for ~8× lower
leakage.  The absolute values are calibrated to this repo's baseline
process, not to any foundry — like every estimator here, what matters
for exploration is that candidates *rank* correctly and monotonically,
and the invariants (area/energy non-increasing with shrink, frequency
non-decreasing, leakage HP > LP) are pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ReproError
from .vf import Knot, interpolate, validate_curve

__all__ = [
    "BASELINE",
    "KNOWN_FLAVORS",
    "KNOWN_NODES",
    "TechModel",
    "TechSpec",
    "UnknownTechError",
    "parse_tech",
    "tech_model",
]


class UnknownTechError(ReproError):
    """A (node, flavor) pair the scaling tables do not cover."""


@dataclass(frozen=True)
class TechModel:
    """One process point: scaling factors plus its V/f curve."""

    name: str
    node_nm: int
    flavor: str
    #: multiplies the baseline area estimate (die size in grid cells)
    area_scale: float
    #: multiplies the baseline critical-path estimate (cycle in ns)
    delay_scale: float
    #: dynamic energy per *baseline* grid cell per activation, in pJ
    dynamic_energy_per_cell_pj: float
    #: static (leakage + clock tree) power per *baseline* grid cell, µW
    static_power_per_cell_uw: float
    vdd_nominal_v: float
    vdd_min_v: float
    #: monotone (vdd, frequency-factor) knots spanning [vdd_min, vdd_nom]
    vf_curve: Tuple[Knot, ...]

    def __post_init__(self):
        for field_name in ("area_scale", "delay_scale",
                           "dynamic_energy_per_cell_pj"):
            if getattr(self, field_name) <= 0.0:
                raise ValueError(f"{self.name}: {field_name} must be > 0")
        if self.static_power_per_cell_uw < 0.0:
            raise ValueError(f"{self.name}: static power must be >= 0")
        if not 0.0 < self.vdd_min_v <= self.vdd_nominal_v:
            raise ValueError(
                f"{self.name}: need 0 < vdd_min <= vdd_nominal, got"
                f" {self.vdd_min_v} / {self.vdd_nominal_v}"
            )
        curve = validate_curve(self.vf_curve)
        if curve[0][0] != self.vdd_min_v \
                or curve[-1][0] != self.vdd_nominal_v:
            raise ValueError(
                f"{self.name}: V/f curve must span"
                f" [{self.vdd_min_v}, {self.vdd_nominal_v}] V, spans"
                f" [{curve[0][0]}, {curve[-1][0]}]"
            )
        if curve[-1][1] != 1.0:
            raise ValueError(
                f"{self.name}: the nominal-voltage frequency factor must"
                f" be 1.0, got {curve[-1][1]}"
            )
        object.__setattr__(self, "vf_curve", curve)

    def frequency_factor(self, vdd: float) -> float:
        """Frequency at *vdd* as a fraction of nominal (clamped)."""
        return interpolate(self.vf_curve, vdd)

    @property
    def key(self) -> Tuple[int, str]:
        return (self.node_nm, self.flavor)


#: The process every hgen estimate was calibrated against.  Its power
#: constants are the canonical home of what ``hgen.techlib`` exposes as
#: ``DYNAMIC_ENERGY_PER_CELL_PJ`` / ``STATIC_POWER_PER_CELL_UW`` (those
#: names now alias these fields), so the legacy path and the scaled
#: path share one code path.  Scales of exactly 1.0 and a single-knot
#: V/f curve make ``tech=BASELINE`` bit-identical to ``tech=None``.
BASELINE = TechModel(
    name="base-500",
    node_nm=500,
    flavor="base",
    area_scale=1.0,
    delay_scale=1.0,
    dynamic_energy_per_cell_pj=0.45,  # V = 3.3 V era
    static_power_per_cell_uw=0.02,
    vdd_nominal_v=3.3,
    vdd_min_v=3.3,
    vf_curve=((3.3, 1.0),),
)

#: nodes the scaling tables cover, largest feature size first
KNOWN_NODES: Tuple[int, ...] = (45, 32, 22, 16, 10)

#: HP = high performance, LP = low power
KNOWN_FLAVORS: Tuple[str, ...] = ("HP", "LP")


def _vf_curve(vdd_min: float, vdd_nominal: float,
              knots: int = 5) -> Tuple[Knot, ...]:
    """A fixed-shape monotone V/f curve spanning [vdd_min, vdd_nominal].

    Frequency falls super-linearly toward the minimum supply (the
    near-threshold cliff): factor(t) = 0.06 + 0.94·t^1.5 over the
    normalized voltage t, pinned to exactly 1.0 at nominal.
    """
    curve = []
    for i in range(knots):
        t = i / (knots - 1)
        vdd = round(vdd_min + t * (vdd_nominal - vdd_min), 4)
        curve.append((vdd, round(0.06 + 0.94 * t ** 1.5, 4)))
    curve[-1] = (vdd_nominal, 1.0)
    return tuple(curve)


#: (node, area, delay, dynamic pJ/cell, static µW/cell, vdd_nom, vdd_min)
_HP_ROWS = (
    (45, 0.0280, 0.360, 0.0520, 0.0120, 1.00, 0.60),
    (32, 0.0150, 0.310, 0.0390, 0.0113, 0.95, 0.58),
    (22, 0.0082, 0.270, 0.0290, 0.0108, 0.90, 0.56),
    (16, 0.0074, 0.240, 0.0220, 0.0100, 0.85, 0.54),
    (10, 0.0066, 0.210, 0.0170, 0.0092, 0.80, 0.52),
)

_LP_ROWS = (
    (45, 0.0300, 0.600, 0.0420, 0.0016, 1.10, 0.70),
    (32, 0.0160, 0.520, 0.0310, 0.0015, 1.05, 0.68),
    (22, 0.0088, 0.460, 0.0230, 0.0014, 1.00, 0.66),
    (16, 0.0078, 0.420, 0.0180, 0.0012, 0.95, 0.64),
    (10, 0.0070, 0.380, 0.0140, 0.0010, 0.90, 0.62),
)


def _build_models() -> Dict[Tuple[int, str], TechModel]:
    models: Dict[Tuple[int, str], TechModel] = {BASELINE.key: BASELINE}
    for flavor, rows in (("HP", _HP_ROWS), ("LP", _LP_ROWS)):
        for node, area, delay, dyn, static, vnom, vmin in rows:
            models[(node, flavor)] = TechModel(
                name=f"{flavor.lower()}-{node}",
                node_nm=node,
                flavor=flavor,
                area_scale=area,
                delay_scale=delay,
                dynamic_energy_per_cell_pj=dyn,
                static_power_per_cell_uw=static,
                vdd_nominal_v=vnom,
                vdd_min_v=vmin,
                vf_curve=_vf_curve(vmin, vnom),
            )
    return models


MODELS: Dict[Tuple[int, str], TechModel] = _build_models()


def _normalize_flavor(flavor: str) -> str:
    upper = flavor.upper()
    return upper if upper in KNOWN_FLAVORS else flavor


def tech_model(node_nm: int, flavor: str = "HP") -> TechModel:
    """The scaling-table entry for (node, flavor).

    Flavors are case-insensitive for ``HP``/``LP``; the baseline process
    is registered as ``tech_model(500, "base")``.  Raises
    :class:`UnknownTechError` — naming every known point — otherwise.
    """
    model = MODELS.get((node_nm, _normalize_flavor(flavor)))
    if model is None:
        nodes = "/".join(str(node) for node in KNOWN_NODES)
        raise UnknownTechError(
            f"unknown technology point {node_nm} nm {flavor!r}; known:"
            f" nodes {nodes} nm in flavors {', '.join(KNOWN_FLAVORS)},"
            f" plus the {BASELINE.node_nm} nm 'base' process"
        )
    return model


@dataclass(frozen=True)
class TechSpec:
    """A wire/cache-friendly reference to one technology operating axis.

    What jobs, :class:`~repro.explore.parallel.EvalRequest`\\ s, and
    cache keys carry: plain picklable fields instead of a whole
    :class:`TechModel`, resolved via :meth:`model` where the numbers are
    needed.  ``budget_mw`` (optional) asks the evaluation to cap the
    operating point to a power budget.
    """

    node_nm: int
    flavor: str = "HP"
    budget_mw: Optional[float] = None

    def model(self) -> TechModel:
        """Resolve against the tables (raises :class:`UnknownTechError`)."""
        return tech_model(self.node_nm, self.flavor)

    @property
    def cache_key(self) -> Tuple:
        """The technology's field of :meth:`repro.explore.Measurement.key`."""
        return ("tech", self.node_nm, self.flavor, self.budget_mw)

    def label(self) -> str:
        text = f"{self.node_nm} nm {self.flavor}"
        if self.budget_mw is not None:
            text += f" @ {self.budget_mw:g} mW"
        return text

    def suffix(self) -> str:
        """A compact label suffix, e.g. ``@22HP/8mW``."""
        text = f"@{self.node_nm}{self.flavor}"
        if self.budget_mw is not None:
            text += f"/{self.budget_mw:g}mW"
        return text


def parse_tech(spec: object) -> Optional[TechSpec]:
    """Parse a wire-form tech object into a validated :class:`TechSpec`.

    The wire form is ``{"node": <int nm>, "flavor": "HP"|"LP",
    "budget_mw": <number>}`` with ``flavor`` and ``budget_mw`` optional.
    ``None`` passes through (no tech axis).  Structural problems raise
    :class:`ValueError` (the serve layer answers 400); an unknown
    node/flavor raises :class:`UnknownTechError` (a stable SRV-coded
    422 rejection).
    """
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ValueError(
            "'tech' must be an object with an integer 'node'"
            " (and optional 'flavor', 'budget_mw')"
        )
    if "node" not in spec:
        raise ValueError("'tech' needs a 'node' (nm, integer)")
    node_raw = spec["node"]
    if isinstance(node_raw, bool) or not isinstance(node_raw, (int, float)) \
            or int(node_raw) != node_raw:
        raise ValueError("'tech'.'node' must be an integer (nm)")
    node = int(node_raw)
    flavor = spec.get("flavor", "HP")
    if not isinstance(flavor, str):
        raise ValueError("'tech'.'flavor' must be a string")
    budget = spec.get("budget_mw")
    if budget is not None:
        if isinstance(budget, bool) or not isinstance(budget, (int, float)):
            raise ValueError("'tech'.'budget_mw' must be a number (mW)")
        budget = float(budget)
        if budget <= 0.0:
            raise ValueError("'tech'.'budget_mw' must be positive")
    model = tech_model(node, flavor)  # raises UnknownTechError
    return TechSpec(node_nm=model.node_nm, flavor=model.flavor,
                    budget_mw=budget)
