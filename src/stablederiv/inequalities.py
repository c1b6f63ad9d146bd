"""Bounds on sup|f'| from sup|f| and sup|f''| (Landau-Kolmogorov type).

These convert the pair (m0, m2) into a certified first-derivative bound,
which is what turns a raw smoothness declaration into the m1-style constants
other modules consume. The sharp constant depends on the domain:

    whole line R:        sup|f'| <= sqrt(2 * m0 * m2)
    half line [0, inf):  sup|f'| <= 2 * sqrt(m0 * m2)
    interval of length L:
        L <  2*sqrt(m0/m2):  sup|f'| <= (2/L)*m0 + (L/2)*m2   ("short-interval")
        L >= 2*sqrt(m0/m2):  the half-line rule applies unchanged

The crossover length 2*sqrt(m0/m2) is where the short-interval expression
meets the half-line constant; below it the interval is too short for the
half-line extremals to fit and the additive rule is the better (and valid)
bound. Only the ends of the :class:`Domain` matter: both infinite is the whole
line, one infinite (either side) a half line, both finite an interval of
length hi - lo (E. Landau, Proc. London Math. Soc. (2) 13, 1913).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .function_model import Domain

WHOLE_LINE = "whole-line"
HALF_LINE = "half-line"
SHORT_INTERVAL = "short-interval"


@dataclass(frozen=True)
class InequalityResult:
    """The certified bound, the rule that produced it, and the crossover length.

    ``threshold_length`` = 2*sqrt(m0/m2) is always reported (it only selects
    the rule on intervals, but it is a meaningful scale for every domain);
    with m2 = 0 it degenerates to 0 when m0 = 0 and +inf otherwise.
    """

    bound_m1: float
    rule_applied: str
    threshold_length: float


def m1_bound(m0: float, m2: float, domain: Domain) -> InequalityResult:
    """Certified bound on sup|f'| given sup|f| <= m0 and sup|f''| <= m2.

    m2 = 0 is allowed on unbounded domains: a bounded function with f'' = 0
    is constant there, so f' == 0 and the bound is exactly 0. On a finite
    interval the rule-selection threshold 2*sqrt(m0/m2) is undefined at
    m2 = 0, so that combination is refused rather than silently given a
    convention.
    """
    if not (0 <= m0 < math.inf and 0 <= m2 < math.inf):  # NaN fails too
        raise ParameterError(f"norm bounds must be finite and >= 0, got m0={m0}, m2={m2}")

    if m2 > 0:
        threshold = 2.0 * math.sqrt(m0 / m2)
    else:
        threshold = 0.0 if m0 == 0 else math.inf

    if domain.is_bounded:
        if m2 == 0:
            raise ParameterError(
                "m2 = 0 on a finite interval does not determine a derivative "
                "bound from m0 alone (linear functions have arbitrary slope)"
            )
        length = domain.hi - domain.lo
        if length < threshold:
            bound = (2.0 / length) * m0 + (length / 2.0) * m2
            return InequalityResult(bound, SHORT_INTERVAL, threshold)
        return InequalityResult(2.0 * math.sqrt(m0 * m2), HALF_LINE, threshold)

    # unbounded domains: bounded + f''==0 forces f constant, f' == 0
    if domain == Domain.real_line():
        return InequalityResult(math.sqrt(2.0 * m0 * m2), WHOLE_LINE, threshold)
    return InequalityResult(2.0 * math.sqrt(m0 * m2), HALF_LINE, threshold)

