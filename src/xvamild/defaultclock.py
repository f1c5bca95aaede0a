"""Gamma-threshold default clocks for the two trading parties.

Each party defaults when its cumulative intensity crosses an independent
Gamma(shape, rate) threshold:

    tau = inf { t : int_0^t intensity(s) ds >= xi },  xi ~ Gamma(shape, rate).

Survival curves follow from the gamma tail, the first-passage density on a
finite horizon from the product rule, and everything is evaluated on user
grids with trapezoid cumulative intensities.  A zero intensity is legal
and simply means the party never defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .special import GammaParams, gamma_hazard_factor, gamma_survival
from .simulate import TimeGrid
from .volmodel import InvariantError, on_times

_PARTIES = ("investor", "counterparty")


@dataclass(frozen=True)
class PartyDefault:
    """Default clock of one party: intensity time function plus threshold.

    The intensity is a constant or a time function that takes an array of
    times (a scalar return is broadcast).
    """

    intensity: object
    threshold: GammaParams


@dataclass(frozen=True)
class DefaultSpec:
    investor: PartyDefault
    counterparty: PartyDefault

    def party(self, name: str) -> PartyDefault:
        if name not in _PARTIES:
            raise InvariantError(f"unknown party {name!r}, expected one of {_PARTIES}")
        return getattr(self, name)


def no_default_party() -> PartyDefault:
    """A party that never defaults (zero intensity)."""
    return PartyDefault(intensity=0.0, threshold=GammaParams(1.0, 1.0))


def _intensity_on(party: PartyDefault, nodes: np.ndarray, name: str) -> np.ndarray:
    vals = on_times(party.intensity, nodes)
    if not np.all(np.isfinite(vals)):
        raise InvariantError(f"{name} intensity must be finite on the grid")
    if np.any(vals < 0.0):
        raise InvariantError(f"{name} intensity must be non-negative on the grid")
    return vals


def _trapezoid_cumsum(vals: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    steps = np.diff(nodes) * 0.5 * (vals[1:] + vals[:-1])
    return np.concatenate([[0.0], np.cumsum(steps)])


def cumulative_intensity(party: PartyDefault, nodes: np.ndarray, name: str = "party") -> np.ndarray:
    """Trapezoid cumulative intensity on the given nodes (zero at nodes[0])."""
    return _trapezoid_cumsum(_intensity_on(party, nodes, name), nodes)


def _survival_and_hazard(party: PartyDefault, nodes: np.ndarray, name: str):
    """(survival, hazard) of one party on the nodes, sampling its intensity once."""
    vals = _intensity_on(party, nodes, name)
    lam = _trapezoid_cumsum(vals, nodes)
    return (
        gamma_survival(party.threshold, lam),
        vals * gamma_hazard_factor(party.threshold, lam),
    )


@dataclass(frozen=True)
class SurvivalCurve:
    """Per-party and joint survival probabilities on the grid nodes."""

    nodes: np.ndarray
    investor: np.ndarray
    counterparty: np.ndarray

    @property
    def joint(self) -> np.ndarray:
        return self.investor * self.counterparty


@dataclass(frozen=True)
class HazardCurve:
    """Per-party hazards intensity(t) * tail factor(cumulative intensity)."""

    nodes: np.ndarray
    investor: np.ndarray
    counterparty: np.ndarray


def survival_curve(spec: DefaultSpec, grid: TimeGrid) -> SurvivalCurve:
    nodes = grid.nodes
    out = {}
    for name in _PARTIES:
        party = spec.party(name)
        lam = cumulative_intensity(party, nodes, name)
        out[name] = gamma_survival(party.threshold, lam)
    return SurvivalCurve(nodes=nodes, investor=out["investor"], counterparty=out["counterparty"])


def hazard_curve(spec: DefaultSpec, grid: TimeGrid) -> HazardCurve:
    nodes = grid.nodes
    out = {}
    for name in _PARTIES:
        _, out[name] = _survival_and_hazard(spec.party(name), nodes, name)
    return HazardCurve(nodes=nodes, investor=out["investor"], counterparty=out["counterparty"])


@dataclass(frozen=True)
class DefaultTimes:
    """Sampled default times on the grid nodes, inf meaning 'never'."""

    investor: np.ndarray
    counterparty: np.ndarray

    @property
    def joint(self) -> np.ndarray:
        return np.minimum(self.investor, self.counterparty)

    @property
    def tie_fraction(self) -> float:
        both = np.isfinite(self.investor) & np.isfinite(self.counterparty)
        if not both.any():
            return 0.0
        return float(np.mean(both & (self.investor == self.counterparty)))


def sample_default_times(
    spec: DefaultSpec, grid: TimeGrid, n_samples: int, seed: int
) -> DefaultTimes:
    """Draw gamma thresholds and map them to first-crossing grid nodes.

    Deterministic in (spec, grid, n_samples, seed); the two parties use
    independent substreams of the seed.
    """
    if n_samples < 1:
        raise InvariantError(f"n_samples must be >= 1, got {n_samples}")
    nodes = grid.nodes
    out = {}
    for idx, name in enumerate(_PARTIES):
        party = spec.party(name)
        lam = cumulative_intensity(party, nodes, name)
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        xi = rng.gamma(party.threshold.shape, 1.0 / party.threshold.rate, size=n_samples)
        pos = np.searchsorted(lam, xi, side="left")
        times = np.where(pos < len(nodes), nodes[np.minimum(pos, len(nodes) - 1)], np.inf)
        out[name] = times
    return DefaultTimes(investor=out["investor"], counterparty=out["counterparty"])


@dataclass(frozen=True)
class DensityResult:
    """First-crossing density on [t0, T] plus the mass beyond the horizon.

    identity_gap is |trapz(values) + atom - 1|, which must sit within
    quadrature tolerance when the density formula and the survival curve
    agree.
    """

    nodes: np.ndarray
    values: np.ndarray
    atom: float
    identity_gap: float


def default_density(
    spec: DefaultSpec, grid: TimeGrid, party: Optional[str] = None
) -> DensityResult:
    """Density of the (joint) default time: survival times total hazard."""
    nodes = grid.nodes
    names = _PARTIES if party is None else (party,)
    surv = np.ones(len(nodes))
    total_hazard = np.zeros(len(nodes))
    for name in names:
        party_surv, party_hazard = _survival_and_hazard(spec.party(name), nodes, name)
        surv = surv * party_surv
        total_hazard = total_hazard + party_hazard
    values = surv * total_hazard
    atom = float(surv[-1])
    mass = float(np.trapezoid(values, nodes))
    return DensityResult(
        nodes=nodes,
        values=values,
        atom=atom,
        identity_gap=abs(mass + atom - 1.0),
    )


def identity_gaps(spec: DefaultSpec, t0: float, t_end: float) -> dict:
    """Density identity gaps of the investor, counterparty and joint clocks.

    First-passage densities can carry a root-like kink at t0, so the
    trapezoid needs a dense grid for the identity to reach 1e-6.
    """
    dense = TimeGrid(t0, t_end, 20000)
    return {
        "investor": default_density(spec, dense, "investor").identity_gap,
        "counterparty": default_density(spec, dense, "counterparty").identity_gap,
        "joint": default_density(spec, dense).identity_gap,
    }


def empirical_survival(times: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Share of sampled times strictly beyond each node."""
    t = np.asarray(times)
    return np.array([float(np.mean(t > s)) for s in nodes])
