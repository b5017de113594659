"""Click-level Monte Carlo of the displacement on/off receiver.

Simulates the receiver at the level that matters statistically: each trial
fixes which sign was sent, computes the mean detected intensity after the
(imperfect) displacement, and draws a single Bernoulli click with
probability ``1 - exp(-nu - eta I)``. Poissonian photon statistics make the
click law exact, so there is no truncation ladder to climb and a million
trials take milliseconds.

Reproducibility contract: the generator is ``numpy.random.Generator`` over
``PCG64`` seeded through ``SeedSequence``, named by ``RNG_ID``; every
estimate carries its whole request, seed included. The uniforms are drawn
in chunks, with the values of one ``rng.random(trials)`` call. Sweeps
derive one seed per grid point by feeding ``[master_seed, point_index]`` to
``SeedSequence``, a counter-based mix that makes per-point streams
independent of evaluation order.

Trial signs are not drawn independently: they alternate, trial ``i`` being
"plus" exactly when ``i`` is odd, so exactly ``floor(trials / 2)`` trials
send plus and the clicks are the only stochastic element. This is a
variance reduction: the binomial standard error reported alongside is
computed as if signs were i.i.d. and is therefore conservative.
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

RNG_ID = "numpy.random.Generator(PCG64)/SeedSequence"

#: Trials per chunk of the uniform stream, sized to stay in L2.
_CHUNK = 1 << 16

#: Sent signs of one chunk, plus at odd trials, and their complement. Chunks
#: start at even trials, so every chunk reads a prefix of these read-only arrays.
_PLUS = np.arange(_CHUNK) % 2 == 1
_MINUS = ~_PLUS
_PLUS.setflags(write=False)
_MINUS.setflags(write=False)


class McConfig(namedtuple("McConfig", "trials seed ensemble detector gamma")):
    """One simulation request: how many trials, which seed, what physics."""

    __slots__ = ()

    def __new__(
        cls, trials: int, seed: int, ensemble: BinaryEnsemble, detector: DetectorModel,
        gamma: float,
    ):
        if type(trials) is not int or trials < 1:
            raise ValueError(f"trials must be an int >= 1, got {trials!r}")
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
    p_on = {
        s: -math.expm1(-(det.nu + det.eta * mean_intensity(s, ens, config.gamma, det)))
        for s in (1, -1)
    }
    errors = config.trials // 2
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    # plus without a click, minus with one; a trial clicks when u < p_on
    size = min(_CHUNK, config.trials)
    draws, hits = np.empty(size), np.empty(size, dtype=bool)
    for lo in range(0, config.trials, _CHUNK):
        n = min(_CHUNK, config.trials - lo)
        u, hit = rng.random(out=draws[:n]), hits[:n]
        np.less(u, p_on[-1], out=hit)
        errors += np.count_nonzero(np.logical_and(hit, _MINUS[:n], out=hit))
        np.less(u, p_on[1], out=hit)
        errors -= np.count_nonzero(np.logical_and(hit, _PLUS[:n], out=hit))
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
