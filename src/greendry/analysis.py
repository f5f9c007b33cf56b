"""Validation metrics against measured traces and the simple payback model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ComparisonError, EconomicsError

DEFAULT_ACCEPTANCE_LIMIT = 10.0  # % mean absolute difference


@dataclass(frozen=True)
class ErrorReport:
    variable: str
    mean_abs_pct: float     # mean of 100*|pred-obs|/|obs|
    max_abs_diff: float     # native units
    n: int


@dataclass(frozen=True)
class EconomicInputs:
    capital: float            # currency
    operating_cost: float     # currency / yr
    annual_production: float  # kg / yr
    unit_premium: float       # currency / kg over open-air drying

    @property
    def annual_net_benefit(self) -> float:
        return self.annual_production * self.unit_premium - self.operating_cost


def percent_difference(
    predicted: Sequence[float],
    observed: Sequence[float],
    variable: str = "value",
) -> ErrorReport:
    """Mean absolute percent difference between two equal-length series,
    in one pass over the pairs; ComparisonError naming the index of the
    first zero observation (0.0 or -0.0).  A NaN difference makes the
    mean NaN and is skipped by the maximum."""
    if len(predicted) != len(observed):
        raise ComparisonError(
            f"length mismatch: {len(predicted)} predicted vs {len(observed)} observed"
        )
    if len(observed) == 0:
        raise ComparisonError("need at least one point to compare")
    if 0.0 in observed:
        i = next(i for i, o in enumerate(observed) if o == 0)
        raise ComparisonError(f"observed value is zero at index {i}")
    total = max_abs = 0.0
    for p, o in zip(predicted, observed):
        diff = abs(p - o)
        total += 100.0 * diff / abs(o)
        if diff > max_abs:  # max(max_abs, diff), without the call
            max_abs = diff
    return ErrorReport(
        variable=variable,
        mean_abs_pct=total / len(observed),
        max_abs_diff=max_abs,
        n=len(observed),
    )


def acceptance_check(report: ErrorReport, limit: float = DEFAULT_ACCEPTANCE_LIMIT) -> bool:
    """Pass iff the mean absolute percent difference is within the limit."""
    return report.mean_abs_pct <= limit


def payback_period(e: EconomicInputs) -> float:
    """Simple undiscounted payback: capital over annual net benefit."""
    if e.capital <= 0:
        raise EconomicsError(f"capital must be > 0, got {e.capital}")
    net = e.annual_net_benefit
    if net <= 0:
        raise EconomicsError(
            f"no payback: annual net benefit {net} is not positive"
        )
    return e.capital / net
