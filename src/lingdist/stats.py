"""Column statistics over per-word distance data.

An AnalysisFrame is a named bundle of equal-length real columns, one per
word/concept.  On top of it: mean and sample standard deviation summaries,
Gaussian kernel density curves, t-score standardization (mean 50, sd 10),
Bhattacharyya coefficients between columns, and simple least-squares
regression with R-squared for the distance-vs-geography comparison.
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

from .editdist import DistanceMatrix
from .errors import (ColumnTooShort, DegenerateData, DegenerateX, EmptyInput,
                     LengthMismatch, NonPositiveX, ZeroVariance)


@dataclass
class AnalysisFrame:
    columns: dict  # name -> sequence of reals, insertion ordered, equal lengths
    row_labels: list | None = None

    def __post_init__(self):
        lengths = {len(vals) for vals in self.columns.values()}
        if len(lengths) > 1:
            raise LengthMismatch(f"columns differ in length: {sorted(lengths)}")
        if lengths and 0 in lengths:
            raise LengthMismatch("columns must not be empty")
        if self.row_labels is not None and lengths \
                and len(self.row_labels) != lengths.pop():
            raise LengthMismatch("row label count does not match column length")

    @property
    def names(self):
        return list(self.columns)


_OVERFLOW = "a sum or square of the values overflows a float"


def _mean_sd(values):
    """Mean and sample standard deviation."""
    try:
        m = math.fsum(values) / len(values)
        return m, math.sqrt(math.fsum((x - m) ** 2 for x in values) / (len(values) - 1))
    except OverflowError:
        raise DegenerateData(_OVERFLOW) from None


def mean_sd(frame):
    """Per column: (name, mean, sample sd, mean*sd)."""
    rows = []
    for name, values in frame.columns.items():
        if len(values) < 2:
            raise ColumnTooShort(f"column {name!r} needs >= 2 values for sd")
        m, sd = _mean_sd(values)
        rows.append((name, m, sd, m * sd))
    return rows


def tscore(values):
    """Shift and scale to mean 50, sample standard deviation 10."""
    if len(values) < 2:
        raise ZeroVariance("t-score needs at least 2 values")
    m, sd = _mean_sd(values)
    if sd == 0.0:
        raise ZeroVariance("t-score undefined for constant values")
    return [50.0 + 10.0 * (x - m) / sd for x in values]


@dataclass
class DensityCurve:
    xs: list
    ys: list
    bandwidth: float


def _quantile(sorted_values, p):
    # linear interpolation between order statistics (the common type-7 rule)
    pos = (len(sorted_values) - 1) * p
    lo = math.floor(pos)
    frac = pos - lo
    if lo + 1 >= len(sorted_values):
        return sorted_values[-1]
    return sorted_values[lo] + (sorted_values[lo + 1] - sorted_values[lo]) * frac


def bandwidth_nrd0(values):
    """Rule-of-thumb Gaussian bandwidth: 0.9 * min(sd, IQR/1.34) * n^(-1/5),
    falling back to sd when the IQR collapses."""
    sd = _mean_sd(values)[1]
    ordered = sorted(values)
    iqr = _quantile(ordered, 0.75) - _quantile(ordered, 0.25)
    lo = min(sd, iqr / 1.34)
    if lo == 0.0:
        lo = sd
    return 0.9 * lo * len(values) ** (-0.2)


def kde(values, grid_points=512):
    """Gaussian kernel density over an even grid spanning the data +- 3h.

    Each grid point takes one `exp` per distinct value and hands `fsum` that
    term once per occurrence.  `fsum` is correctly rounded, so this equals
    summing one term per value exactly; multiplying a term by its count
    would round differently.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if len(values) < 2 or min(values) == max(values):
        raise DegenerateData("density needs at least 2 distinct values")
    h = bandwidth_nrd0(values)
    lo = min(values) - 3.0 * h
    hi = max(values) + 3.0 * h
    step = (hi - lo) / (grid_points - 1)
    counts = Counter(values)
    distinct, repeats = list(counts), list(counts.values())
    xs, ys = [], []
    try:
        norm = 1.0 / (len(values) * h * math.sqrt(2.0 * math.pi))
        for i in range(grid_points):
            x = lo + step * i
            xs.append(x)
            terms = [math.exp(-0.5 * ((x - v) / h) ** 2) for v in distinct]
            ys.append(norm * math.fsum(chain.from_iterable(map(repeat, terms, repeats))))
    except (ZeroDivisionError, OverflowError):
        # h underflowed to 0, or is so small against the spread that the
        # squared distance overflows
        raise DegenerateData(f"bandwidth {h!r} too small for the data's spread") from None
    return DensityCurve(xs, ys, h)


def sturges_bins(n):
    return max(1, math.ceil(math.log2(n)) + 1) if n > 1 else 1


def bhattacharyya(a, b, bins=None):
    """Histogram overlap coefficient: sum of sqrt(p_i * q_i), in [0, 1].

    Both samples share equal-width bins spanning their combined range; the
    default bin count is Sturges' rule on the combined sample size.
    """
    if not a or not b:
        raise EmptyInput("both value lists must be non-empty")
    if bins is None:
        bins = sturges_bins(len(a) + len(b))
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo = min(min(a), min(b))
    hi = max(max(a), max(b))
    if hi == lo:
        return 1.0
    width = (hi - lo) / bins

    def counts(values):
        out = [0] * bins
        for x in values:
            out[min(bins - 1, int((x - lo) / width))] += 1
        return out

    ca, cb = counts(a), counts(b)
    overlap = math.fsum(math.sqrt(x * y) for x, y in zip(ca, cb))
    bc = overlap / math.sqrt(len(a) * len(b))
    return min(1.0, max(0.0, bc))


def bhatt_matrix(frame, bins=None):
    """Bhattacharyya coefficient for every pair of columns.

    The coefficients are meant for t-scored columns, so callers pass a frame
    of `tscore` results.  Returns (names, grid) where grid is symmetric with
    unit diagonal.
    """
    names = frame.names
    if len(names) < 2:
        raise EmptyInput("need at least 2 columns")
    n = len(names)
    grid = [[1.0] * n for _ in range(n)]
    for i, j in DistanceMatrix.upper_pairs(n):
        bc = bhattacharyya(frame.columns[names[i]], frame.columns[names[j]], bins=bins)
        grid[i][j] = bc
        grid[j][i] = bc
    return names, grid


def bhatt_distance_matrix(names, grid):
    """1 - Bhattacharyya, from the (names, grid) of `bhatt_matrix`, as a
    DistanceMatrix ready for clustering."""
    return DistanceMatrix(
        names, (1.0 - grid[i][j] for i, j in DistanceMatrix.upper_pairs(len(names))))


@dataclass
class RegressionResult:
    slope: float
    intercept: float
    r_squared: float
    n: int


def linregress(x, y, log10_x=False):
    """Ordinary least squares y = slope*x + intercept, with R-squared.

    With log10_x the regressor is log10(x), requiring every x > 0.
    A constant y gives slope 0 and R-squared 0.  A non-finite value, or
    sums and squares beyond the float range, raise DegenerateData.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"x has {len(x)} values, y has {len(y)}")
    if len(x) < 3:
        raise LengthMismatch(f"need at least 3 paired values, got {len(x)}")
    if not all(map(math.isfinite, chain(x, y))):
        raise DegenerateData("regression needs finite x and y values")
    if log10_x:
        if any(v <= 0.0 for v in x):
            raise NonPositiveX("log10 regression needs every x > 0")
        x = [math.log10(v) for v in x]
    n = len(x)
    try:
        mx = math.fsum(x) / n
        my = math.fsum(y) / n
        sxx = math.fsum((v - mx) ** 2 for v in x)
        if sxx == 0.0:
            raise DegenerateX("x has zero variance")
        sxy = math.fsum((vx - mx) * (vy - my) for vx, vy in zip(x, y))
        slope = sxy / sxx
        intercept = my - slope * mx
        ss_tot = math.fsum((v - my) ** 2 for v in y)
        if ss_tot == 0.0:
            return RegressionResult(slope, intercept, 0.0, n)
        ss_res = math.fsum((vy - (intercept + slope * vx)) ** 2 for vx, vy in zip(x, y))
    except OverflowError:
        raise DegenerateData(_OVERFLOW) from None
    r2 = 1.0 - ss_res / ss_tot
    return RegressionResult(slope, intercept, min(1.0, max(0.0, r2)), n)
