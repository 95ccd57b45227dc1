import math
import random

import pytest

from lingdist.errors import (ColumnTooShort, DegenerateData, DegenerateX,
                             EmptyInput, LengthMismatch, NonPositiveX,
                             ZeroVariance)
from lingdist.stats import (AnalysisFrame, bhatt_distance_matrix,
                            bhatt_matrix, bhattacharyya, kde, linregress,
                            mean_sd, sturges_bins, tscore)


def trapezoid(xs, ys):
    return sum((ys[i] + ys[i + 1]) * 0.5 * (xs[i + 1] - xs[i])
               for i in range(len(xs) - 1))


# --- frames and mean/sd -----------------------------------------------------

def test_frame_validation():
    with pytest.raises(LengthMismatch):
        AnalysisFrame({"a": [1.0, 2.0], "b": [1.0]})
    with pytest.raises(LengthMismatch):
        AnalysisFrame({"a": []})
    with pytest.raises(LengthMismatch):
        AnalysisFrame({"a": [1.0]}, row_labels=["r1", "r2"])


def test_mean_sd_constant_column():
    rows = mean_sd(AnalysisFrame({"c": [5.0, 5.0, 5.0]}))
    assert rows == [("c", 5.0, 0.0, 0.0)]


def test_mean_sd_hand_case():
    # mean (0+1)/2, sd sqrt(((0-.5)^2+(1-.5)^2)/1) = sqrt(0.5)
    [(name, m, sd, prod)] = mean_sd(AnalysisFrame({"c": [0.0, 1.0]}))
    assert name == "c"
    assert m == 0.5
    assert sd == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert prod == pytest.approx(0.5 * math.sqrt(0.5), abs=1e-15)


def test_mean_sd_empty_frame():
    assert mean_sd(AnalysisFrame({})) == []


def test_mean_sd_column_too_short():
    with pytest.raises(ColumnTooShort):
        mean_sd(AnalysisFrame({"c": [1.0]}))


def test_mean_sd_product_recompute_property():
    rng = random.Random(11)
    for _ in range(30):
        values = [rng.uniform(-5, 5) for _ in range(rng.randint(2, 20))]
        [(_n, m, sd, prod)] = mean_sd(AnalysisFrame({"x": values}))
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
    with pytest.raises(ZeroVariance):
        tscore([2.0, 2.0, 2.0])
    with pytest.raises(ZeroVariance):
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


def test_bc_hand_case():
    got = bhattacharyya([1.0, 1.0, 2.0], [1.0, 2.0, 2.0], bins=2)
    # two bins: p=(2/3,1/3), q=(1/3,2/3); BC = 2*sqrt(2)/3
    assert got == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)
    assert got == pytest.approx(0.9428, abs=1e-4)


def test_bc_empty_input():
    with pytest.raises(EmptyInput):
        bhattacharyya([], [1.0])
    with pytest.raises(EmptyInput):
        bhattacharyya([1.0], [])


def test_bc_constant_identical_range():
    assert bhattacharyya([2.0, 2.0], [2.0]) == 1.0


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
    frame = AnalysisFrame({"a": [1.0, 2.0, 4.0], "b": [1.0, 2.0, 4.0],
                           "c": [9.0, 1.0, 3.0]})
    names, grid = bhatt_matrix(frame)
    assert names == ["a", "b", "c"]
    assert grid[0][1] == 1.0  # identical columns overlap fully
    for i in range(3):
        assert grid[i][i] == 1.0
        for j in range(3):
            assert grid[i][j] == grid[j][i]


def test_bhatt_matrix_matches_pairwise_calls():
    frame = AnalysisFrame({"a": [1.0, 2.0, 4.0, 0.5], "b": [2.0, 1.0, 3.0, 8.0],
                           "c": [9.0, 1.0, 3.0, 2.0]})
    scored = AnalysisFrame({name: tscore(values) for name, values in frame.columns.items()})
    names, grid = bhatt_matrix(scored, bins=3)
    for i in range(3):
        for j in range(i + 1, 3):
            direct = bhattacharyya(tscore(frame.columns[names[i]]),
                                   tscore(frame.columns[names[j]]), bins=3)
            assert grid[i][j] == direct


def test_bhatt_matrix_needs_two_columns():
    with pytest.raises(EmptyInput):
        bhatt_matrix(AnalysisFrame({"a": [1.0, 2.0]}))


def test_bhatt_distance_matrix():
    frame = AnalysisFrame({"a": [1.0, 2.0, 4.0], "b": [1.0, 2.0, 4.0],
                           "c": [9.0, 1.0, 3.0]})
    m = bhatt_distance_matrix(*bhatt_matrix(frame))
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


def test_linregress_log10_mode():
    x = [1.0, 10.0, 100.0, 1000.0]
    y = [0.0, 1.0, 2.0, 3.0]
    r = linregress(x, y, log10_x=True)
    assert r.slope == pytest.approx(1.0, abs=1e-12)
    assert r.intercept == pytest.approx(0.0, abs=1e-12)
    assert r.r_squared == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NonPositiveX):
        linregress([1.0, 0.0, 2.0], [1.0, 2.0, 3.0], log10_x=True)


def test_linregress_errors():
    with pytest.raises(LengthMismatch):
        linregress([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(LengthMismatch):
        linregress([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DegenerateX):
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
            mean_sd(AnalysisFrame({"w": column}))


def test_linregress_r2_affine_invariant_in_x():
    rng = random.Random(43)
    x = [rng.uniform(1, 9) for _ in range(12)]
    y = [0.7 * v + rng.gauss(0, 0.5) for v in x]
    base = linregress(x, y).r_squared
    scaled = linregress([3.0 * v + 11.0 for v in x], y).r_squared
    assert scaled == pytest.approx(base, abs=1e-12)
