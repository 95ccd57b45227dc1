import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_bhattacharyya, reference_kde

from lingdist.editdist import DistanceMatrix
from lingdist.errors import DegenerateData
from lingdist.stats import (bandwidth_nrd0, bhatt_distance_matrix, bhatt_matrix,
                            bhattacharyya, kde, linregress, mean_sd, sturges_bins,
                            tscore)


def trapezoid(xs, ys):
    return sum((ys[i] + ys[i + 1]) * 0.5 * (xs[i + 1] - xs[i])
               for i in range(len(xs) - 1))


# --- mean/sd -----------------------------------------------------------------

def test_mean_sd_constant_column():
    rows = mean_sd({"c": [5.0, 5.0, 5.0]})
    assert rows == [("c", 5.0, 0.0, 0.0)]


def test_mean_sd_hand_case():
    # mean (0+1)/2, sd sqrt(((0-.5)^2+(1-.5)^2)/1) = sqrt(0.5)
    [(name, m, sd, prod)] = mean_sd({"c": [0.0, 1.0]})
    assert name == "c"
    assert m == 0.5
    assert sd == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert prod == pytest.approx(0.5 * math.sqrt(0.5), abs=1e-15)


def test_mean_sd_empty_frame():
    assert mean_sd({}) == []


def test_mean_sd_column_too_short():
    with pytest.raises(DegenerateData, match=r"^sd of column 'c' needs 2 or more values, got 1$"):
        mean_sd({"c": [1.0]})


def test_mean_sd_product_recompute_property():
    rng = random.Random(11)
    for _ in range(30):
        values = [rng.uniform(-5, 5) for _ in range(rng.randint(2, 20))]
        [(_n, m, sd, prod)] = mean_sd({"x": values})
        assert prod == pytest.approx(m * sd, abs=1e-12)


# --- t-scores ----------------------------------------------------------------

def test_tscore_hand_case():
    assert tscore([1.0, 2.0, 3.0]) == [40.0, 50.0, 60.0]


def test_tscore_mean_and_spread():
    values = [0.4, 1.7, 2.2, 9.0, 3.3]
    scored = tscore(values)
    assert sum(scored) / len(scored) == pytest.approx(50.0, abs=1e-12)
    m = sum(scored) / len(scored)
    sd = math.sqrt(sum((x - m) ** 2 for x in scored) / (len(scored) - 1))
    assert sd == pytest.approx(10.0, abs=1e-12)


def test_tscore_idempotent_and_affine_invariant():
    rng = random.Random(19)
    for _ in range(20):
        values = [rng.uniform(-3, 3) for _ in range(rng.randint(2, 15))]
        if max(values) == min(values):
            continue
        once = tscore(values)
        twice = tscore(once)
        for x, y in zip(once, twice):
            assert y == pytest.approx(x, abs=1e-12)
        a, b = rng.uniform(0.1, 4.0), rng.uniform(-9, 9)
        rescaled = tscore([a * x + b for x in values])
        for x, y in zip(once, rescaled):
            assert y == pytest.approx(x, abs=1e-9)


def test_tscore_zero_variance():
    with pytest.raises(DegenerateData, match=r"t-score undefined for constant values"):
        tscore([2.0, 2.0, 2.0])
    with pytest.raises(DegenerateData, match=r"^t-score needs 2 or more values, got 1$"):
        tscore([1.0])


# --- kernel density -----------------------------------------------------------

def test_kde_integral_near_one():
    rng = random.Random(101)
    values = [rng.gauss(0.0, 1.0) for _ in range(200)]
    curve = kde(values)
    assert len(curve.xs) == len(curve.ys) == 512
    assert curve.bandwidth > 0
    assert trapezoid(curve.xs, curve.ys) == pytest.approx(1.0, abs=1e-3)


def test_kde_symmetric_data_symmetric_curve():
    values = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
    curve = kde(values)
    n = len(curve.ys)
    for i in range(n // 2):
        assert curve.ys[i] == pytest.approx(curve.ys[n - 1 - i], abs=1e-6)


def test_kde_two_clumps_two_maxima():
    values = [0.0, 0.05, 0.1, 0.12, 5.0, 5.02, 5.1, 5.15]
    curve = kde(values)
    maxima = sum(
        1 for i in range(1, len(curve.ys) - 1)
        if curve.ys[i] > curve.ys[i - 1] and curve.ys[i] >= curve.ys[i + 1])
    assert maxima == 2


def test_kde_degenerate():
    with pytest.raises(DegenerateData):
        kde([3.0, 3.0, 3.0])
    with pytest.raises(DegenerateData):
        kde([1.0])
    with pytest.raises(ValueError):
        kde([1.0, 2.0], grid_points=1)


@pytest.mark.parametrize("values", [[math.inf, 1.0], [math.nan, 1.0, 2.0],
                                    [1.0, 2.0, -math.inf]])
def test_kde_non_finite_value_is_degenerate_data(values):
    with pytest.raises(DegenerateData):
        kde(values, 8)


@pytest.mark.parametrize("call, error, message", [
    (lambda: tscore([math.inf, 1.0, 2.0]), DegenerateData, None),
    (lambda: mean_sd({"a": [math.inf, 1.0]}), DegenerateData, None),
    (lambda: bandwidth_nrd0([1.0]), DegenerateData, None),
    (lambda: bandwidth_nrd0([]), DegenerateData, None),
    (lambda: bandwidth_nrd0([math.inf, 1.0]), DegenerateData, None),
    # an int past the float range, which `math.isfinite` cannot take
    (lambda: tscore([10**400, 1.0, 2.0]), DegenerateData, None),
    (lambda: mean_sd({"a": [1.0, 10**400]}), DegenerateData, None),
    (lambda: kde([1.0, 2.0, 10**400], 8), DegenerateData, None),
    (lambda: bandwidth_nrd0([1.0, -10**400]), DegenerateData, None),
    (lambda: bhattacharyya([1.0], [10**5000]), DegenerateData, None),  # past 4,300 digits repr raises
    (lambda: bhatt_matrix({"a": [1.0, 2.0], "b": [10**400]}), DegenerateData, None),
    (lambda: linregress([1.0, 2.0, 10**400], [1.0, 2.0, 3.0]), DegenerateData, None),
    (lambda: linregress([1.0, 2.0, 3.0], [10**400, 2.0, 3.0]), DegenerateData, None),
    # a value that is not a real number is misuse, named by its type, not its repr
    (lambda: tscore(["a", "b"]), ValueError,
     "^t-score needs a collection of real numbers: must be real number, not str$"),
    (lambda: kde([None, 1.0]), ValueError,
     "^density needs a collection of real numbers: must be real number, not NoneType$"),
    (lambda: mean_sd({"a": [1.0, 1j]}), ValueError,
     "^sd of column 'a' needs a collection of real numbers: must be real number, not complex$"),
    (lambda: bandwidth_nrd0([1.0, b"2"]), ValueError,
     "^bandwidth needs a collection of real numbers: must be real number, not bytes$"),
    (lambda: bhattacharyya([1.0], [[2.0]]), ValueError,
     "^Bhattacharyya coefficient needs a collection of real numbers: must be real number, not list$"),
    (lambda: bhatt_matrix({"a": [1.0, 2.0], "b": ["1"]}), ValueError,
     "^Bhattacharyya coefficient needs a collection of real numbers: must be real number, not str$"),
    (lambda: linregress([1.0, None, 3.0], [1.0, 2.0, 3.0]), ValueError,
     "^regression x needs a collection of real numbers: must be real number, not NoneType$"),
    (lambda: linregress([1.0, 2.0, 3.0], [1.0, 2.0, "3"]), ValueError,
     "^regression y needs a collection of real numbers: must be real number, not str$"),
    # a column that is not a collection, or has no len
    (lambda: kde(5), ValueError,
     "^density needs a collection of real numbers: object of type 'int' has no len\\(\\)$"),
    (lambda: tscore(None), ValueError,
     "^t-score needs a collection of real numbers: object of type 'NoneType' has no len\\(\\)$"),
    (lambda: mean_sd({"a": 5}), ValueError,
     "^sd of column 'a' needs a collection of real numbers: object of type 'int' has no len\\(\\)$"),
    (lambda: bandwidth_nrd0(x for x in [1.0, 2.0]), ValueError,
     "^bandwidth needs a collection of real numbers: "
     "object of type 'generator' has no len\\(\\)$"),
    (lambda: linregress(5, [1.0, 2.0, 3.0]), ValueError,
     "^regression x needs a collection of real numbers: object of type 'int' has no len\\(\\)$"),
    (lambda: linregress([1.0, 2.0, 3.0], None), ValueError,
     "^regression y needs a collection of real numbers: "
     "object of type 'NoneType' has no len\\(\\)$"),
    (lambda: linregress((x for x in [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]), ValueError,
     "^regression x needs a collection of real numbers: "
     "object of type 'generator' has no len\\(\\)$"),
], ids=["tscore-inf", "mean_sd-inf", "bandwidth-one", "bandwidth-empty", "bandwidth-inf",
        "tscore-big-int", "mean_sd-big-int", "kde-big-int", "bandwidth-big-int",
        "bhattacharyya-big-int", "bhatt_matrix-big-int", "linregress-x-big-int",
        "linregress-y-big-int", "tscore-str", "kde-none", "mean_sd-complex", "bandwidth-bytes",
        "bhattacharyya-list", "bhatt_matrix-str", "linregress-x-none", "linregress-y-str",
        "kde-int", "tscore-none", "mean_sd-int-column", "bandwidth-generator",
        "linregress-x-int", "linregress-y-none", "linregress-x-generator"])
def test_every_column_statistic_refuses_a_short_or_non_finite_column(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_column_statistics_take_ints_inside_the_float_range():
    assert kde([1, 2, 3], 4) == kde([1.0, 2.0, 3.0], 4)
    assert tscore([1, 2, 3]) == [40.0, 50.0, 60.0]


@pytest.mark.parametrize("call, message", [
    # the squares of x's deviations are subnormal, so sxy / sxx overflows
    (lambda: linregress([0.0, 1e-161, 2e-161], [1e150, 1e150, -1e150]),
     r"^regression slope or intercept overflows a float$"),
    # sd**2 is finite, but the mean is too large for mean * sd
    (lambda: mean_sd({"a": [1e165, 1e165 + 2e153]}), r"^mean\*sd of column 'a' overflows a float$"),
    # a quartile gap of 2e-313 gives a bandwidth whose 1/h overflows
    (lambda: kde([0.0, 0.0, 0.0, 1.0, 2.2250738585e-313], 16),
     r"^density at bandwidth 1.0831488467e-313 overflows a float$"),
], ids=["regression", "mean_sd", "density"])
def test_a_result_that_overflows_is_degenerate_data(call, message):
    with pytest.raises(DegenerateData, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda: kde([0.0, 1.0, 2.0], grid_points=2.5),
    lambda: kde([0.0, 1.0, 2.0], grid_points=True),
    lambda: bhattacharyya([0.0, 1.0, 2.0], [0.5, 1.5, 2.5], bins=2.5),
    lambda: bhattacharyya([0.0, 1.0, 2.0], [0.5, 1.5, 2.5], bins=True),
    lambda: bhatt_matrix({"a": [0.0, 1.0], "b": [0.5, 2.0]}, bins=2.0),
], ids=["grid-fraction", "grid-bool", "bins-fraction", "bins-bool", "matrix-bins-float"])
def test_bins_and_grid_points_must_be_ints(call):
    with pytest.raises(ValueError, match=r"(bins|grid_points) must be an int, got (float|bool)"):
        call()


def test_kde_grid_spans_data_plus_bandwidth():
    values = [0.0, 1.0, 2.0, 4.0]
    curve = kde(values, grid_points=64)
    assert curve.xs[0] == pytest.approx(0.0 - 3 * curve.bandwidth)
    assert curve.xs[-1] == pytest.approx(4.0 + 3 * curve.bandwidth)


# --- Bhattacharyya ------------------------------------------------------------

def test_bc_identical_lists():
    assert bhattacharyya([1.0, 2.0, 3.5], [1.0, 2.0, 3.5]) == 1.0


def test_bc_disjoint_supports():
    assert bhattacharyya([0.0, 0.1], [10.0, 10.1], bins=4) == 0.0


def test_bc_counts_only_occupied_bins():
    # 10**12 bins would take terabytes as a dense list; a and b share only
    # the last bin, which holds 1 and 1 of 2 and 2 values
    assert bhattacharyya([0.0, 1.0], [0.5, 1.0], bins=10**12) == 0.5
    assert bhattacharyya([0.0, 1.0], [0.0, 1.0], bins=10**12) == 1.0
    # the width rounds to the smallest subnormal, so 1.04e-15 / width is inf
    assert bhattacharyya([0.0], [1.04e-15], bins=int(1.5e308)) == 0.0


def test_bc_hand_case():
    got = bhattacharyya([1.0, 1.0, 2.0], [1.0, 2.0, 2.0], bins=2)
    # two bins: p=(2/3,1/3), q=(1/3,2/3); BC = 2*sqrt(2)/3
    assert got == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)
    assert got == pytest.approx(0.9428, abs=1e-4)


def test_bc_empty_input():
    message = r"^Bhattacharyya coefficient needs 1 or more values, got 0$"
    with pytest.raises(DegenerateData, match=message):
        bhattacharyya([], [1.0])
    with pytest.raises(DegenerateData, match=message):
        bhattacharyya([1.0], [])


def test_bc_constant_identical_range():
    assert bhattacharyya([2.0, 2.0], [2.0]) == 1.0


@pytest.mark.parametrize("a, b, bins", [
    ([1e308, -1e308], [0.0], None),  # the combined range overflows
    ([math.inf, 1.0], [1.0], None),
    ([1.0, 2.0], [math.nan], None),
    ([1.0, math.nan], [1.0], None),  # min and max of the values skip the nan
    ([0.0], [5e-324], 64),  # the bin width underflows to 0
    ([0.0], [1.0], 10**400),  # the bin count is past the float range
])
def test_bc_non_finite_or_overflowing_range_is_degenerate_data(a, b, bins):
    with pytest.raises(DegenerateData):
        bhattacharyya(a, b, bins)
    with pytest.raises(DegenerateData):
        bhattacharyya(b, a, bins)


def test_bhatt_matrix_non_finite_is_degenerate_data():
    with pytest.raises(DegenerateData):
        bhatt_matrix({"a": [1.0, math.inf], "b": [1.0, 2.0], "c": [0.5, 3.0]})


def test_columns_may_differ_in_length():
    columns = {"a": [1.0, 2.0], "b": [1.0, 2.0, 4.0]}
    assert [row[:2] for row in mean_sd(columns)] == [("a", 1.5), ("b", 7.0 / 3.0)]
    names, bcs = bhatt_matrix(columns, bins=2)
    assert names == ["a", "b"]
    assert list(bcs) == [bhattacharyya(columns["a"], columns["b"], bins=2)]


def test_bhatt_matrix_empty_column_is_degenerate_data():
    for columns in ({"a": [], "b": [1.0]}, {"a": [1.0], "b": []}):
        with pytest.raises(DegenerateData,
                           match=r"^Bhattacharyya coefficient needs 1 or more values, got 0$"):
            bhatt_matrix(columns)


def test_bc_symmetry_and_range():
    rng = random.Random(29)
    for _ in range(50):
        a = [rng.uniform(0, 10) for _ in range(rng.randint(1, 30))]
        b = [rng.uniform(0, 10) for _ in range(rng.randint(1, 30))]
        bins = rng.choice((None, 1, 2, 5, 8))
        x = bhattacharyya(a, b, bins=bins)
        assert x == bhattacharyya(b, a, bins=bins)
        assert 0.0 <= x <= 1.0


def test_sturges():
    assert sturges_bins(1) == 1
    assert sturges_bins(2) == 2
    assert sturges_bins(64) == 7
    assert sturges_bins(100) == 8


def test_bhatt_matrix_duplicate_columns():
    columns = {"a": [1.0, 2.0, 4.0], "b": [1.0, 2.0, 4.0], "c": [9.0, 1.0, 3.0]}
    names, bcs = bhatt_matrix(columns)
    assert names == ["a", "b", "c"]
    pairs = list(DistanceMatrix.upper_pairs(3))
    assert len(bcs) == len(pairs)
    assert bcs[pairs.index((0, 1))] == 1.0  # identical columns overlap fully
    # the same pairs with the columns in reverse order: the same coefficients
    rev_names, rev_bcs = bhatt_matrix(dict(reversed(columns.items())))
    by_pair = {frozenset((rev_names[i], rev_names[j])): bc
               for (i, j), bc in zip(DistanceMatrix.upper_pairs(3), rev_bcs)}
    for (i, j), bc in zip(pairs, bcs):
        assert by_pair[frozenset((names[i], names[j]))] == bc


def test_bhatt_matrix_matches_pairwise_calls():
    columns = {"a": [1.0, 2.0, 4.0, 0.5], "b": [2.0, 1.0, 3.0, 8.0],
               "c": [9.0, 1.0, 3.0, 2.0]}
    scored = {name: tscore(values) for name, values in columns.items()}
    names, bcs = bhatt_matrix(scored, bins=3)
    pairs = list(DistanceMatrix.upper_pairs(3))
    assert len(bcs) == len(pairs)
    for (i, j), bc in zip(pairs, bcs):
        direct = bhattacharyya(tscore(columns[names[i]]), tscore(columns[names[j]]), bins=3)
        assert bc == direct


def test_bhatt_matrix_needs_two_columns():
    with pytest.raises(DegenerateData, match=r"need at least 2 columns"):
        bhatt_matrix({"a": [1.0, 2.0]})


def test_bhatt_distance_matrix():
    columns = {"a": [1.0, 2.0, 4.0], "b": [1.0, 2.0, 4.0], "c": [9.0, 1.0, 3.0]}
    names, bcs = bhatt_matrix(columns)
    m = bhatt_distance_matrix(names, bcs)
    assert list(m.values) == [1.0 - bc for bc in bcs]
    assert m.labels == ["a", "b", "c"]
    assert m.get("a", "b") == 0.0  # identical columns, BC 1, distance 0
    assert all(row[i] == 0.0 for i, row in enumerate(m.rows()))


# --- regression -----------------------------------------------------------------

def test_linregress_exact_line():
    r = linregress([1.0, 2.0, 3.0, 4.0], [3.0, 5.0, 7.0, 9.0])
    assert r.slope == pytest.approx(2.0, abs=1e-15)
    assert r.intercept == pytest.approx(1.0, abs=1e-14)
    assert r.r_squared == pytest.approx(1.0, abs=1e-12)
    assert r.n == 4


def test_linregress_constant_y():
    r = linregress([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    assert r.slope == 0.0
    assert r.r_squared == 0.0


def test_linregress_matches_normal_equations():
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randint(3, 40)
        x = [rng.uniform(0.5, 10) for _ in range(n)]
        y = [2.5 * v - 1.0 + rng.gauss(0, 0.3) for v in x]
        r = linregress(x, y)
        # raw normal equations as an independent route
        sx, sy = sum(x), sum(y)
        sxx = sum(v * v for v in x)
        sxy = sum(a * b for a, b in zip(x, y))
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        intercept = (sy - slope * sx) / n
        assert r.slope == pytest.approx(slope, abs=1e-9)
        assert r.intercept == pytest.approx(intercept, abs=1e-9)
        ss_res = sum((b - (intercept + slope * a)) ** 2 for a, b in zip(x, y))
        ss_tot = sum((b - sy / n) ** 2 for b in y)
        assert r.r_squared == pytest.approx(1 - ss_res / ss_tot, abs=1e-9)


def test_linregress_errors():
    with pytest.raises(DegenerateData, match=r"x has 2 values, y has 3"):
        linregress([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateData, match=r"^regression x needs 3 or more values, got 2$"):
        linregress([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DegenerateData, match=r"x has zero variance"):
        linregress([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("x, y", [
    ([1.0, 2.0, math.inf], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0]),
    ([1.0, 2.0, 3.0], [1e200, 3e200, 2e200]),  # squared deviations overflow
    ([1e308, 1.7e308, 2.0], [1.0, 2.0, 3.0]),  # the sum overflows
])
def test_linregress_degenerate_data(x, y):
    with pytest.raises(DegenerateData):
        linregress(x, y)


def test_mean_sd_overflow_is_degenerate_data():
    for column in ([1e200, 3e200, 2e200], [1.7e308, 1.7e308, 1.0]):
        with pytest.raises(DegenerateData):
            mean_sd({"w": column})


def test_linregress_r2_affine_invariant_in_x():
    rng = random.Random(43)
    x = [rng.uniform(1, 9) for _ in range(12)]
    y = [0.7 * v + rng.gauss(0, 0.5) for v in x]
    base = linregress(x, y).r_squared
    scaled = linregress([3.0 * v + 11.0 for v in x], y).r_squared
    assert scaled == pytest.approx(base, abs=1e-12)


# --- the numeric contract -------------------------------------------------------

EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308,
                               5e-324, -5e-324])
VALUES = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False),
                   EDGE_FLOATS)
COLUMNS = st.lists(VALUES, max_size=6)


def _unless_refused(call, *args, **kwargs):
    """The call's result, or None if it raised DegenerateData or ValueError;
    any other exception propagates and fails the test."""
    try:
        return call(*args, **kwargs)
    except (DegenerateData, ValueError):
        return None


def _assert_finite(floats):
    floats = list(floats)
    assert all(math.isfinite(x) for x in floats), floats


@settings(max_examples=300, deadline=None)
@given(a=COLUMNS, b=COLUMNS, c=COLUMNS, pairs=st.lists(st.tuples(VALUES, VALUES), max_size=6),
       bins=st.one_of(st.none(), st.integers(1, 64)))
def test_column_statistics_give_finite_floats_or_refuse(a, b, c, pairs, bins):
    """Every statistic, on columns that mix edge floats (NaN, infinities,
    -0.0, 1e308, subnormals) with ordinary ones, returns finite floats equal
    to its oracle's by float.hex, or refuses with DegenerateData or ValueError."""
    if (rows := _unless_refused(mean_sd, {"a": a, "b": b})) is not None:
        _assert_finite(x for _name, *floats in rows for x in floats)
    for column in (a, b):
        if (scored := _unless_refused(tscore, column)) is not None:
            _assert_finite(scored)
        if (h := _unless_refused(bandwidth_nrd0, column)) is not None:
            _assert_finite([h])
        if (curve := _unless_refused(kde, column, 16)) is not None:
            _assert_finite([*curve.xs, *curve.ys, curve.bandwidth])
            xs, ys = reference_kde(column, 16)
            assert [x.hex() for x in curve.xs + curve.ys] == [x.hex() for x in xs + ys]
    if (bc := _unless_refused(bhattacharyya, a, b, bins)) is not None:
        _assert_finite([bc])
        assert bc.hex() == reference_bhattacharyya(a, b, bins).hex()
    if (grid := _unless_refused(bhatt_matrix, {"a": a, "b": b, "c": c}, bins)) is not None:
        _names, bcs = grid
        _assert_finite(bcs)
        assert [x.hex() for x in bcs] == [
            reference_bhattacharyya((a, b, c)[i], (a, b, c)[j], bins).hex()
            for i, j in DistanceMatrix.upper_pairs(3)]
    x, y = [p[0] for p in pairs], [p[1] for p in pairs]
    if (fit := _unless_refused(linregress, x, y)) is not None:
        _assert_finite([fit.slope, fit.intercept, fit.r_squared])
