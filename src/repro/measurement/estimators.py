"""Simulated network-delay estimation services (King, IDMaps).

The paper's Section 3.4 points at King and IDMaps as the practical sources of
the client-server and inter-server delay matrices.  This module simulates
those services: a :class:`DelayEstimator` takes the ground-truth instance and
returns the *estimated* instance an operator would actually feed to the
assignment algorithms — the true delays perturbed by the service's error model
(:mod:`repro.measurement.error`), with the option of leaving the inter-server
delays exact (operators can measure their own well-provisioned mesh precisely,
which is how the paper's Table 4 experiment is interpreted here: the error is
applied to all delay inputs by default, matching the paper's "we apply an
error factor e to the perfect input data").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.problem import CAPInstance
from repro.measurement.error import PERFECT, ErrorModel
from repro.utils.rng import SeedLike, as_generator, spawn_generators

__all__ = ["DelayEstimator"]


@dataclass(frozen=True)
class DelayEstimator:
    """A simulated delay-measurement service.

    Attributes
    ----------
    model:
        The multiplicative error model of the service.  The inter-server
        delays are estimated too, as the paper "appl[ies] an error factor to
        the perfect input data".
    """

    model: ErrorModel = PERFECT

    def estimate(self, instance: CAPInstance, seed: SeedLike = None) -> CAPInstance:
        """Return the instance as *seen* through this measurement service.

        The returned instance shares everything with the input except the
        delay matrices, which are replaced by noisy estimates.  Evaluation of
        the resulting assignments must use the original (true) instance.
        """
        if self.model.is_perfect:
            return instance
        rng = as_generator(seed)
        cs_rng, ss_rng = spawn_generators(rng, 2)
        # Perturbation is a per-entry multiplicative noise, so the delays
        # materialise here and the estimate is an unrestricted matrix with
        # one node per client (the measurement experiments run on
        # paper-scale worlds).
        estimated_cs = self.model.perturb(instance.client_server_delays.toarray(), seed=cs_rng)
        estimated_ss = self.model.perturb(instance.server_server_delays, seed=ss_rng)
        return instance.with_delays(
            client_server_delays=estimated_cs,
            server_server_delays=estimated_ss,
        )
