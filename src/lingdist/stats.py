"""Column statistics over per-word distance data.

A column is a sized collection of reals, one per word/concept; `mean_sd` and
`bhatt_matrix` take a name -> column mapping, in the order they report.
The statistics: mean and sample standard deviation summaries, Gaussian
kernel density curves, t-score standardization (mean 50, sd 10),
Bhattacharyya coefficients between columns, and simple least-squares
regression with R-squared for the distance-vs-geography comparison.

Each input rule is stated once: every statistic checks its columns through
`_column` (DegenerateData for too few values or one that is not finite,
ValueError for one that is not a real number or a column with no len) and
its `bins` or `grid_points` through `_count` (ValueError unless an int,
not a bool, and large enough).  `_finite` refuses a result that overflows.

Densities and coefficients work once per distinct value, and both are exact:
they equal the per-value computation bit for bit.  A density hands
`math.fsum` (correctly rounded, Shewchuk 1997) one term `t * 2**k` for each
set bit k of a value's count instead of `count` copies of `t`; scaling by a
power of two never rounds, so the exact sum, and with it the rounded float,
is unchanged.  It feeds `fsum` the terms of the values >= x rising, then
those of the values < x falling; the order changes only `fsum`'s speed, as
a correctly rounded sum gives the same float in any order.  A coefficient
bins each distinct value once and adds its count: bin counts are integers,
and equal values always share a bin.  Only occupied bins are counted, so
the cost does not grow with the bin count.
"""

import math
from array import array
from bisect import bisect_left
from collections import Counter
from operator import itemgetter, mul

from ._record import Record
from .editdist import DistanceMatrix
from .errors import DegenerateData, quote


_OVERFLOW = "a sum or square of the values overflows a float"


def _column(values, at_least, what):
    """DegenerateData unless `values` holds at least `at_least` values, each
    finite; ValueError, relaying the TypeError text, where one is not a real
    number or `values` has no len.  The first bad value decides which is raised."""
    try:
        if len(values) < at_least:
            raise DegenerateData(f"{what} needs {at_least} or more values, got {len(values)}")
        finite = all(map(math.isfinite, values))
    except OverflowError:  # an int past the float range
        finite = False
    except TypeError as exc:
        raise ValueError(f"{what} needs a collection of real numbers: {exc}") from None
    if not finite:
        raise DegenerateData(f"{what} needs finite values")


def _count(value, name, minimum):
    """ValueError unless `value` is an int, not a bool, of at least `minimum`."""
    if type(value) is not int:  # 2.0 == 2 and True == 1
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _finite(results, what):
    """DegenerateData unless every result is finite: a float `*` or `/` gives
    inf, or NaN through inf * 0, where a sum or a square raises."""
    if not all(map(math.isfinite, results)):
        raise DegenerateData(f"{what} overflows a float")


def _mean_sd(values, what):
    """Mean and sample standard deviation; `what` names the statistic in a refusal."""
    _column(values, 2, what)
    try:
        m = math.fsum(values) / len(values)
        return m, math.sqrt(math.fsum((x - m) ** 2 for x in values) / (len(values) - 1))
    except OverflowError:
        raise DegenerateData(_OVERFLOW) from None


def mean_sd(columns):
    """Per column of the name -> values mapping: (name, mean, sample sd, mean*sd)."""
    rows = []
    for name, values in columns.items():
        m, sd = _mean_sd(values, f"sd of column {quote(name)}")
        prod = m * sd
        _finite([prod], f"mean*sd of column {quote(name)}")
        rows.append((name, m, sd, prod))
    return rows


def tscore(values):
    """Shift and scale to mean 50, sample standard deviation 10."""
    m, sd = _mean_sd(values, "t-score")
    if sd == 0.0:
        raise DegenerateData("t-score undefined for constant values")
    return [50.0 + 10.0 * (x - m) / sd for x in values]


class DensityCurve(Record):
    def __init__(self, xs, ys, bandwidth):
        self.xs = xs
        self.ys = ys
        self.bandwidth = bandwidth


def _quantile(sorted_values, p):
    # linear interpolation between order statistics (the common type-7 rule);
    # p < 1 and n >= 2 at both calls, so lo + 1 < n
    pos = (len(sorted_values) - 1) * p
    lo = math.floor(pos)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[lo + 1] - sorted_values[lo]) * frac


def bandwidth_nrd0(values):
    """Rule-of-thumb Gaussian bandwidth: 0.9 * min(sd, IQR/1.34) * n^(-1/5),
    falling back to sd when the IQR collapses."""
    sd = _mean_sd(values, "bandwidth")[1]
    ordered = sorted(values)
    iqr = _quantile(ordered, 0.75) - _quantile(ordered, 0.25)
    lo = min(sd, iqr / 1.34)
    if lo == 0.0:
        lo = sd
    return 0.9 * lo * len(values) ** (-0.2)


def _binary_multiples(counts):
    """(index, scale) with one entry per set bit k of each count, in order:
    the count at position i is the sum of the scales whose index is i."""
    index, scale = [], []
    for i, count in enumerate(counts):
        for k in range(count.bit_length()):
            if count >> k & 1:
                index.append(i)
                scale.append(2.0 ** k)
    return index, scale


def kde(values, grid_points=512):
    """Gaussian kernel density over an even grid spanning the data +- 3h.

    Each grid point takes one `exp` per distinct value.  A value seen
    `count` times adds the term `t * 2**k` once for each set bit k of its
    count, not `count` copies of `t`.  That is exact: `t <= 1` and
    `2**k <= len(values)`, so the product neither rounds nor overflows, and
    the terms' exact sum is that of the copies.  `fsum` rounds the exact sum
    correctly, so the density is the per-value one bit for bit; `t * count`
    would round differently.

    `fsum` takes the terms of the values >= x rising, then those of the
    values < x falling, so each run starts at the value next to x.  The order
    changes only `fsum`'s speed, never its float.  The grid rises, so the
    order is built again only where the grid passes a value.
    """
    _count(grid_points, "grid_points", 2)
    _column(values, 2, "density")
    if min(values) == max(values):
        raise DegenerateData("density needs at least 2 distinct values")
    h = bandwidth_nrd0(values)
    lo = min(values) - 3.0 * h
    hi = max(values) + 3.0 * h
    step = (hi - lo) / (grid_points - 1)
    counts = Counter(values)
    distinct = sorted(counts)
    index, scale = _binary_multiples(map(counts.__getitem__, distinct))
    cut = None
    xs, ys = [], []
    try:
        norm = 1.0 / (len(values) * h * math.sqrt(2.0 * math.pi))
        for i in range(grid_points):
            x = lo + step * i
            xs.append(x)
            below = bisect_left(distinct, x)
            if below != cut:
                cut = below
                # entries of the values >= x rising, then the rest falling;
                # 2 distinct values give at least 2 entries, so each
                # itemgetter returns a tuple, never a lone item
                p = bisect_left(index, cut)
                order = itemgetter(*range(p, len(index)), *range(p - 1, -1, -1))
                feed, weights = itemgetter(*order(index)), order(scale)
            terms = [math.exp(-0.5 * ((x - v) / h) ** 2) for v in distinct]
            ys.append(norm * math.fsum(map(mul, feed(terms), weights)))
    except (ZeroDivisionError, OverflowError):
        # h underflowed to 0, or is so small against the spread that the
        # squared distance overflows
        raise DegenerateData(f"bandwidth {h!r} too small for the data's spread") from None
    _finite(ys, f"density at bandwidth {h!r}")
    return DensityCurve(xs, ys, h)


def sturges_bins(n):
    return max(1, math.ceil(math.log2(n)) + 1) if n > 1 else 1


def bhattacharyya(a, b, bins=None):
    """Histogram overlap coefficient: sum of sqrt(p_i * q_i), in [0, 1].

    Both samples share equal-width bins spanning their combined range; the
    default bin count is Sturges' rule on the combined sample size.  A value
    that is not finite, a range beyond the float range, or a bin width that
    underflows (as for any bin count past the float range) raises
    DegenerateData; a `bins` that is not an int >= 1 raises ValueError.
    """
    return _bhatt_counted(_counted(a), _counted(b), bins)


def _counted(values):
    """`Counter(values)` of a column of at least 1 finite value."""
    _column(values, 1, "Bhattacharyya coefficient")
    return Counter(values)


def _bhatt_counted(ca, cb, bins):
    """`bhattacharyya` of two samples given as value `Counter`s of finite
    values.

    A `Counter` keeps the first of equal keys, as `min` and `max` keep the
    first of equal values, so the range is the per-value one, signed zeros
    included.  Equal values share a bin, so binning each key once and adding
    its count gives the same integer bin counts.  Only bins occupied in both
    samples are summed: any other bin adds sqrt(0) = 0.0, and `fsum` is
    correctly rounded in any order.  A value's bin is clamped to the last
    before `int`, since a subnormal width can put it past the float range.
    """
    na, nb = ca.total(), cb.total()
    if bins is None:
        bins = sturges_bins(na + nb)
    _count(bins, "bins", 1)
    lo = min(min(ca), min(cb))
    hi = max(max(ca), max(cb))
    if hi == lo:
        return 1.0
    try:
        width = (hi - lo) / bins
    except OverflowError:  # bins is past the float range
        width = 0.0
    if not 0.0 < width < math.inf:
        raise DegenerateData(f"the range {lo!r} to {hi!r} overflows, or its bins underflow")

    top = bins - 1

    def binned(counts):
        out = {}
        for x, count in counts.items():
            q = (x - lo) / width
            i = int(q) if q < top else top
            out[i] = out.get(i, 0) + count
        return out

    pa, pb = binned(ca), binned(cb)
    overlap = math.fsum([math.sqrt(count * pb[i]) for i, count in pa.items() if i in pb])
    bc = overlap / math.sqrt(na * nb)
    return min(1.0, max(0.0, bc))


def bhatt_matrix(columns, bins=None):
    """Bhattacharyya coefficient for every pair of columns of the name ->
    values mapping.

    The coefficients are meant for t-scored columns, so callers pass
    `tscore` results.  Each column is counted once; an empty one raises
    DegenerateData, as in `bhattacharyya`.  Returns (names, coefficients):
    the names in mapping order, and an `array('d')` with one coefficient
    per column pair, in `DistanceMatrix.upper_pairs` order.
    """
    names = list(columns)
    if len(names) < 2:
        raise DegenerateData("need at least 2 columns")
    counted = [_counted(columns[name]) for name in names]
    return names, array("d", (_bhatt_counted(counted[i], counted[j], bins)
                              for i, j in DistanceMatrix.upper_pairs(len(names))))


def bhatt_distance_matrix(names, bcs):
    """1 - Bhattacharyya, from the (names, coefficients) of `bhatt_matrix`,
    as a DistanceMatrix ready for clustering."""
    return DistanceMatrix(names, (1.0 - bc for bc in bcs))


class RegressionResult(Record):
    def __init__(self, slope, intercept, r_squared, n):
        self.slope = slope
        self.intercept = intercept
        self.r_squared = r_squared
        self.n = n


def linregress(x, y):
    """Ordinary least squares y = slope*x + intercept, with R-squared.

    A constant y gives slope 0 and R-squared 0.  A non-finite value, or
    sums, squares, a slope or an intercept beyond the float range, raise
    DegenerateData.
    """
    try:
        if len(x) != len(y):
            raise DegenerateData(f"x has {len(x)} values, y has {len(y)}")
    except TypeError:  # one has no len, which `_column` names
        pass
    _column(x, 3, "regression x")
    _column(y, 3, "regression y")
    n = len(x)
    try:
        mx = math.fsum(x) / n
        my = math.fsum(y) / n
        sxx = math.fsum((v - mx) ** 2 for v in x)
        if sxx == 0.0:
            raise DegenerateData("x has zero variance")
        sxy = math.fsum((vx - mx) * (vy - my) for vx, vy in zip(x, y))
        slope = sxy / sxx
        intercept = my - slope * mx
        _finite((slope, intercept), "regression slope or intercept")
        ss_tot = math.fsum((v - my) ** 2 for v in y)
        if ss_tot == 0.0:
            return RegressionResult(slope, intercept, 0.0, n)
        ss_res = math.fsum((vy - (intercept + slope * vx)) ** 2 for vx, vy in zip(x, y))
    except OverflowError:
        raise DegenerateData(_OVERFLOW) from None
    r2 = 1.0 - ss_res / ss_tot
    return RegressionResult(slope, intercept, min(1.0, max(0.0, r2)), n)
