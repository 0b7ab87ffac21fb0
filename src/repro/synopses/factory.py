"""Construction and deserialisation dispatch for synopsis types."""

from __future__ import annotations

from typing import Any

from repro.errors import SynopsisError
from repro.synopses.base import Synopsis, SynopsisBuilder, SynopsisType
from repro.synopses.equi_height import EquiHeightBuilder, EquiHeightHistogram
from repro.synopses.equi_width import EquiWidthBuilder, EquiWidthHistogram
from repro.synopses.gk import GKSketch, GKSketchBuilder
from repro.synopses.hll import HyperLogLogBuilder, HyperLogLogSynopsis
from repro.synopses.ground_truth import GroundTruthBuilder, GroundTruthSynopsis
from repro.synopses.maxdiff import MaxDiffBuilder, MaxDiffHistogram
from repro.synopses.sampling import ReservoirSample, ReservoirSampleBuilder
from repro.synopses.voptimal import VOptimalBuilder, VOptimalHistogram
from repro.synopses.wavelet.synopsis import WaveletBuilder, WaveletSynopsis
from repro.types import Domain

__all__ = ["create_builder", "empty_twin", "synopsis_from_payload"]

_EMPTY_TWINS: dict[tuple[Any, ...], Any] = {}
_EMPTY_TWINS_CAP = 1024

_SYNOPSIS_CLASSES: dict[SynopsisType, type[Synopsis]] = {
    SynopsisType.EQUI_WIDTH: EquiWidthHistogram,
    SynopsisType.EQUI_HEIGHT: EquiHeightHistogram,
    SynopsisType.WAVELET: WaveletSynopsis,
    SynopsisType.GROUND_TRUTH: GroundTruthSynopsis,
    SynopsisType.V_OPTIMAL: VOptimalHistogram,
    SynopsisType.MAX_DIFF: MaxDiffHistogram,
    SynopsisType.GK_SKETCH: GKSketch,
    SynopsisType.RESERVOIR_SAMPLE: ReservoirSample,
    SynopsisType.HLL_SKETCH: HyperLogLogSynopsis,
}


def create_builder(
    synopsis_type: SynopsisType,
    domain: Domain,
    budget: int,
    expected_records: int,
) -> SynopsisBuilder:
    """Instantiate the streaming builder for ``synopsis_type``.

    ``expected_records`` is only consumed by equi-height histograms
    (their bucket-height invariant); other types ignore it.
    """
    if synopsis_type is SynopsisType.EQUI_WIDTH:
        return EquiWidthBuilder(domain, budget)
    if synopsis_type is SynopsisType.EQUI_HEIGHT:
        return EquiHeightBuilder(domain, budget, expected_records)
    if synopsis_type is SynopsisType.WAVELET:
        return WaveletBuilder(domain, budget)
    if synopsis_type is SynopsisType.GROUND_TRUTH:
        return GroundTruthBuilder(domain, budget)
    if synopsis_type is SynopsisType.V_OPTIMAL:
        return VOptimalBuilder(domain, budget)
    if synopsis_type is SynopsisType.MAX_DIFF:
        return MaxDiffBuilder(domain, budget)
    if synopsis_type is SynopsisType.GK_SKETCH:
        return GKSketchBuilder(domain, budget)
    if synopsis_type is SynopsisType.RESERVOIR_SAMPLE:
        return ReservoirSampleBuilder(domain, budget)
    if synopsis_type is SynopsisType.HLL_SKETCH:
        # The budget is the register count 2**p (one byte each).
        return HyperLogLogBuilder(domain, budget)
    raise SynopsisError(f"unknown synopsis type {synopsis_type!r}")


def synopsis_from_payload(payload: dict[str, Any]) -> Synopsis:
    """Rebuild a synopsis from its network payload."""
    try:
        synopsis_type = SynopsisType(payload["type"])
    except (KeyError, ValueError) as exc:
        raise SynopsisError(f"malformed synopsis payload: {exc}") from exc
    cls = _SYNOPSIS_CLASSES[synopsis_type]
    return cls.from_payload(payload)  # type: ignore[attr-defined]


def empty_twin(synopsis: Any) -> Any:
    """The synopsis a builder of ``synopsis``'s shape builds from no
    value at all: what an anti-matter twin is when its component holds
    no anti-matter.

    The wire and the statistics sinks carry such a twin as ``None`` and
    every receiver installs this instead.  An empty build depends only
    on the family, domain, budget and (HLL) hash seed -- never on the
    record count a builder was sized for -- so this is byte-identical
    to the twin the collector would have built
    (``tests/synopses/test_empty_twin.py`` holds every family to it).
    Memoised per shape; synopses are immutable, so catalog entries may
    share one.  2-D synopses (local-only) are rebuilt the same way.
    """
    family = synopsis.synopsis_type
    seed = getattr(synopsis, "hash_seed", None)
    domain = getattr(synopsis, "domains", None) or synopsis.domain
    key = (family, domain, synopsis.budget, seed)
    twin = _EMPTY_TWINS.get(key)
    if twin is None:
        if isinstance(family, SynopsisType):
            if family is SynopsisType.HLL_SKETCH:
                builder: Any = HyperLogLogBuilder(domain, synopsis.budget, seed)
            else:
                builder = create_builder(family, domain, synopsis.budget, 0)
        else:
            from repro.synopses.multidim import create_builder_2d

            builder = create_builder_2d(family, domain, synopsis.budget)
        if len(_EMPTY_TWINS) >= _EMPTY_TWINS_CAP:
            _EMPTY_TWINS.clear()
        twin = _EMPTY_TWINS[key] = builder.build()
    return twin
