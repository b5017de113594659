"""Click-level Monte Carlo of the displacement on/off receiver.

Simulates the receiver at the level that matters statistically: each trial
fixes which sign was sent, computes the mean detected intensity after the
(imperfect) displacement, and clicks with probability ``1 - exp(-nu - eta
I)``. Poissonian photon statistics make the click law exact, so there is no
truncation ladder to climb.

Trial signs are not drawn: they alternate, trial ``i`` being "plus" exactly
when ``i`` is odd, so ``floor(trials / 2)`` trials send plus and
``ceil(trials / 2)`` send minus, and the clicks are the only stochastic
element. The trials are independent, so the error count is exactly the sum
of two binomials, which is what is drawn: first the plus trials without a
click, ``Binomial(floor(trials / 2), exp(-nu - eta I+))``, then the minus
trials with one, ``Binomial(ceil(trials / 2), -expm1(-nu - eta I-))``. Both
probabilities keep their relative precision when tiny, and a call costs
microseconds at any ``trials`` below the int64 bound ``2**63`` of numpy's
binomial, so at about 10^6 expected errors it checks the closed form down
to an error probability of about 1e-13 (alpha^2 = 7 at eta = 1). The
binomial standard error reported alongside is computed as if signs were
i.i.d. and is therefore conservative.

Reproducibility contract: both draws come, plus first, from one
``numpy.random.Generator`` over ``PCG64`` seeded through ``SeedSequence``,
named by ``RNG_ID``; every estimate carries its whole request, seed
included. The counts depend on numpy's binomial sampler, whose output
numpy does not promise to keep across versions. Sweeps derive one seed per
grid point by feeding ``[master_seed, point_index]`` to ``SeedSequence``, a
counter-based mix that makes per-point streams independent of evaluation
order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .core import BinaryEnsemble, DetectorModel
from .optimize import solve_type2_gamma_imperfect
from .receivers import mean_intensity

__all__ = [
    "McConfig",
    "McEstimate",
    "RNG_ID",
    "simulate_type2",
    "sweep_montecarlo",
]

RNG_ID = "numpy.random.Generator(PCG64)/SeedSequence/binomial"


class McConfig(namedtuple("McConfig", "trials seed ensemble detector gamma")):
    """One simulation request: how many trials, which seed, what physics."""

    __slots__ = ()

    def __new__(
        cls, trials: int, seed: int, ensemble: BinaryEnsemble, detector: DetectorModel,
        gamma: float,
    ):
        if type(trials) is not int or not 1 <= trials < 2**63:
            raise ValueError(f"trials must be an int >= 1 and < 2**63, got {trials!r}")
        if type(seed) is not int or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an int in [0, 2**64), got {seed!r}")
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma!r}")
        return tuple.__new__(cls, (trials, seed, ensemble, detector, gamma))


class McEstimate(NamedTuple):
    """The error count of one simulation request, with the estimated error
    probability, its binomial standard error and the displacement ``gamma``
    of the simulated receiver derived from it."""

    config: McConfig
    errors: int

    @property
    def p_hat(self) -> float:
        return self.errors / self.config.trials

    @property
    def std_err(self) -> float:
        return math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.config.trials)

    @property
    def gamma(self) -> float:
        return self.config.gamma


def simulate_type2(config: McConfig) -> McEstimate:
    """Run the click simulation and report the error fraction.

    Decision rule: click decides "plus", no click decides "minus" (the
    displacement nulls the minus branch). A trial is an error when the
    decision differs from the alternating sent sign. Fully deterministic
    given (seed, trials, parameters).
    """
    ens, det = config.ensemble, config.detector
    mean_plus, mean_minus = (
        det.nu + det.eta * mean_intensity(s, ens, config.gamma, det) for s in (1, -1)
    )
    half = config.trials // 2
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    # plus without a click, then minus with one
    errors = rng.binomial(half, math.exp(-mean_plus))
    errors += rng.binomial(config.trials - half, -math.expm1(-mean_minus))
    return McEstimate(config, int(errors))


def sweep_montecarlo(grid, template: McConfig) -> list[McEstimate]:
    """Simulate a list of ``alpha^2`` grid points.

    Each point rebuilds the ensemble at the grid amplitude, re-solves the
    optimal displacement for the template's detector, and runs
    `simulate_type2` with the first 64-bit word of ``SeedSequence([
    template.seed, index])`` as its seed; the template's own gamma is
    ignored; each estimate carries the request it was run with, seed and
    solved gamma included. A one-point sweep therefore equals a direct
    `simulate_type2` call with that derived seed and solved gamma.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    out = []
    for index, alpha_sq in enumerate(grid):
        ensemble = BinaryEnsemble(math.sqrt(alpha_sq))
        gamma = solve_type2_gamma_imperfect(ensemble.alpha, template.detector).value
        seed = int(np.random.SeedSequence([template.seed, index]).generate_state(1, np.uint64)[0])
        config = McConfig(template.trials, seed, ensemble, template.detector, gamma)
        out.append(simulate_type2(config))
    return out
