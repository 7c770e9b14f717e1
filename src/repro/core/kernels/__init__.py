"""Named compute kernels behind the encode/ingest hot loops.

Every frequency oracle splits its work into two halves:

* **randomness** -- the ``rng.random`` / ``rng.integers`` draws that make a
  report epsilon-LDP.  These always run through numpy's ``Generator`` so
  that a given seed produces the same report stream;
* **deterministic arithmetic** -- hashing, bit perturbation, Hadamard
  entries, and the fused accumulation of reports into int64 sufficient
  statistics.  That half lives in :mod:`repro.core.kernels.reference`:
  vectorised numpy functions over pre-drawn randomness.

Callers look a kernel up on that module when they call it
(``kernels.olh_support(...)``), never import it by name, so a profiler
that wraps the module's attributes sees every call.
"""

from __future__ import annotations

from types import ModuleType

from repro.core.kernels import reference
from repro.core.kernels.reference import multinomial_level_split


def get_backend(name: str = "numpy") -> ModuleType:
    """The numpy kernel module, :mod:`repro.core.kernels.reference`.

    ``name`` is kept for callers that ask for ``"numpy"`` by name; no
    other implementation exists.
    """
    return reference


__all__ = ["get_backend", "multinomial_level_split"]
