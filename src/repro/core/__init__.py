"""Core abstractions shared by every protocol in :mod:`repro`.

This subpackage contains the pieces that the paper's algorithms are built
from but that are not themselves specific to any one mechanism:

* :mod:`repro.core.exceptions` -- the exception hierarchy.
* :mod:`repro.core.rng`        -- deterministic random-generator handling.
* :mod:`repro.core.types`      -- small value types (privacy parameters,
  domains, range specifications) used across the code base.
* :mod:`repro.core.protocol`   -- the abstract ``RangeQueryProtocol`` /
  ``RangeQueryEstimator`` interfaces implemented by the flat, hierarchical
  and wavelet methods.
* :mod:`repro.core.session`    -- the streaming execution roles: the
  stateless ``ProtocolClient`` encoder, the incremental ``ProtocolServer``
  aggregator, the unified ``LevelReport`` payload and the mergeable,
  serializable ``AccumulatorState``, plus the generic
  ``DecompositionClient`` / ``DecompositionServer`` engine.
* :mod:`repro.core.decomposition` -- the unified decomposition core: the
  ``Decomposition`` abstraction (flat / B-adic tree / Haar / 2-D grid
  level structures) and the ``DecomposedRangeQueryProtocol`` base every
  concrete protocol instantiates.  See ``ARCHITECTURE.md``.
* :mod:`repro.core.postprocess` -- the pluggable post-processing layer:
  ``PostProcessor`` steps composed into ``PostPipeline`` objects through
  a string registry (``"clip"``, ``"norm_sub"``, ``"consistency"``, ...)
  and applied by every decomposition's assembly.
* :mod:`repro.core.serialization` -- the pickle-free wire format reports
  and accumulator states use to cross process boundaries.
"""

from repro.core.exceptions import (
    ReproError,
    InvalidDomainError,
    InvalidPrivacyBudgetError,
    InvalidRangeError,
    InvalidWindowError,
    ProtocolUsageError,
)
from repro.core.rng import ensure_rng, spawn_rngs
from repro.core.serialization import (
    FORMAT_VERSION,
    SerializationError,
    blob_version,
    pack_blob,
    unpack_blob,
)
from repro.core.types import Domain, PrivacyParams, RangeSpec
from repro.core.protocol import RangeQueryEstimator, RangeQueryProtocol
from repro.core.session import (
    AccumulatorState,
    CompositeAccumulator,
    DecompositionClient,
    DecompositionServer,
    LevelReport,
    ProtocolClient,
    ProtocolServer,
    Report,
    load_report_file,
    load_server,
    load_server_file,
    protocol_from_spec,
    save_report_file,
    save_server_file,
)
from repro.core.decomposition import (
    BAdicTreeDecomposition,
    DecomposedRangeQueryProtocol,
    Decomposition,
    DecompositionRoles,
    Grid2DDecomposition,
    HaarDecomposition,
    IdentityDecomposition,
)
from repro.core.kernels import multinomial_level_split
from repro.core.postprocess import (
    PostContext,
    PostPipeline,
    PostProcessor,
    available_pipelines,
    make_pipeline,
    resolve_postprocess,
)

__all__ = [
    "ReproError",
    "InvalidDomainError",
    "InvalidPrivacyBudgetError",
    "InvalidRangeError",
    "InvalidWindowError",
    "ProtocolUsageError",
    "SerializationError",
    "FORMAT_VERSION",
    "blob_version",
    "ensure_rng",
    "spawn_rngs",
    "pack_blob",
    "unpack_blob",
    "Domain",
    "PrivacyParams",
    "RangeSpec",
    "RangeQueryEstimator",
    "RangeQueryProtocol",
    "AccumulatorState",
    "CompositeAccumulator",
    "ProtocolClient",
    "ProtocolServer",
    "Report",
    "LevelReport",
    "DecompositionClient",
    "DecompositionServer",
    "Decomposition",
    "DecompositionRoles",
    "DecomposedRangeQueryProtocol",
    "IdentityDecomposition",
    "BAdicTreeDecomposition",
    "HaarDecomposition",
    "Grid2DDecomposition",
    "multinomial_level_split",
    "PostContext",
    "PostPipeline",
    "PostProcessor",
    "available_pipelines",
    "make_pipeline",
    "resolve_postprocess",
    "protocol_from_spec",
    "load_server",
    "save_report_file",
    "load_report_file",
    "save_server_file",
    "load_server_file",
]
