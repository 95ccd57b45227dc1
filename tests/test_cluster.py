import math
import random
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import direct_silhouette, random_distance_matrix, reference_cut_scan

from lingdist.cluster import (LINKAGES, ClusterAssignment, Dendrogram,
                              agglomerate, best_cut, cut, export_newick,
                              export_svg, purity, silhouette, silhouette_scan)
from lingdist.editdist import DistanceMatrix
from lingdist.errors import DegenerateData


def _matrix(labels, pairs):
    cells = {frozenset(pair): v for pair, v in pairs.items()}
    return DistanceMatrix(labels, [cells.get(frozenset((labels[i], labels[j])), 0.0)
                                   for i, j in DistanceMatrix.upper_pairs(len(labels))])


TWO_PAIRS = _matrix("abcd", {("a", "b"): 0.1, ("c", "d"): 0.1,
                             ("a", "c"): 0.9, ("a", "d"): 0.9,
                             ("b", "c"): 0.9, ("b", "d"): 0.9})

# five points with a hand-run agglomeration trace as the oracle
FIVE = _matrix("ABCDE", {("A", "B"): 0.2, ("A", "C"): 0.9, ("A", "D"): 0.85,
                         ("A", "E"): 0.95, ("B", "C"): 0.88, ("B", "D"): 0.8,
                         ("B", "E"): 0.9, ("C", "D"): 0.3, ("C", "E"): 0.5,
                         ("D", "E"): 0.55})

# worked by hand with the Lance-Williams update for each linkage
FIVE_TRACES = {
    "complete": [(0, 1, 0.2), (2, 3, 0.3), (4, 6, 0.55), (5, 7, 0.95)],
    "average": [(0, 1, 0.2), (2, 3, 0.3), (4, 6, 0.525), (5, 7, 0.88)],
    "single": [(0, 1, 0.2), (2, 3, 0.3), (4, 6, 0.5), (5, 7, 0.8)],
}


def test_two_items_single_merge():
    m = _matrix("ab", {("a", "b"): 0.4})
    for linkage in ("single", "complete", "average"):
        d = agglomerate(m, linkage)
        assert d.merges == ((0, 1, 0.4),)


def test_well_separated_pairs_merge_first():
    for linkage in ("single", "complete", "average"):
        d = agglomerate(TWO_PAIRS, linkage)
        assert d.merges[0][:2] == (0, 1)
        assert d.merges[1][:2] == (2, 3)


@pytest.mark.parametrize("linkage", ["complete", "average", "single"])
def test_five_point_trace(linkage):
    d = agglomerate(FIVE, linkage)
    expected = FIVE_TRACES[linkage]
    assert len(d.merges) == 4
    for got, want in zip(d.merges, expected):
        assert got[:2] == want[:2]
        assert got[2] == pytest.approx(want[2], abs=1e-12)


def test_heights_non_decreasing():
    rng = random.Random(31)
    for _ in range(30):
        m = random_distance_matrix(rng, rng.randint(2, 10))
        for linkage in ("single", "complete", "average"):
            heights = [h for _a, _b, h in agglomerate(m, linkage).merges]
            assert heights == sorted(heights)


def test_tie_break_is_lexicographic():
    m = _matrix("wxyz", {(a, b): 0.5 for a, b in
                         [("w", "x"), ("w", "y"), ("w", "z"),
                          ("x", "y"), ("x", "z"), ("y", "z")]})
    d = agglomerate(m, "complete")
    assert [merge[:2] for merge in d.merges] == [(0, 1), (2, 3), (4, 5)]


def test_unknown_linkage_and_too_few():
    with pytest.raises(ValueError):
        agglomerate(TWO_PAIRS, "ward")
    with pytest.raises(DegenerateData, match=r"need at least 2 items to cluster, got 1"):
        agglomerate(DistanceMatrix(["only"], []), "complete")


@pytest.mark.parametrize("far", [1e308, sys.float_info.max])
def test_an_average_whose_weighted_sum_overflows_stays_finite(far):
    # (1 * far + 1 * far) / 2 overflows; far + (far - far) * 0.5 is the average
    assert agglomerate(DistanceMatrix("abc", [far] * 3), "average").merges \
        == ((0, 1, far), (2, 3, far))


def test_cut_extremes():
    d = agglomerate(FIVE, "complete")
    ones = cut(d, 1)
    assert set(ones.member_of.values()) == {1}
    singles = cut(d, 5)
    assert sorted(singles.member_of.values()) == [1, 2, 3, 4, 5]
    with pytest.raises(DegenerateData, match=r"k must be in 1\.\.5, got 0"):
        cut(d, 0)
    with pytest.raises(DegenerateData, match=r"k must be in 1\.\.5, got 6"):
        cut(d, 6)


@pytest.mark.parametrize("k", [1.5, 2.0, True], ids=["fraction", "whole-float", "bool"])
def test_cut_k_must_be_an_int(k):
    # 2.0 == 2 and True == 1 pass the range check by value alone
    with pytest.raises(ValueError, match="k must be an int"):
        cut(agglomerate(FIVE, "complete"), k)


def test_cut_two_pairs():
    d = agglomerate(TWO_PAIRS, "complete")
    got = cut(d, 2)
    assert got.member_of == {"a": 1, "b": 1, "c": 2, "d": 2}


def test_silhouette_two_pairs():
    got = silhouette(TWO_PAIRS, cut(agglomerate(TWO_PAIRS), 2))
    expected = (0.9 - 0.1) / 0.9  # direct formula, a=0.1, b=0.9
    for value in got.per_point.values():
        assert value == pytest.approx(expected, abs=1e-12)
    assert got.mean == pytest.approx(expected, abs=1e-12)


def test_silhouette_singleton_is_zero():
    assignment = ClusterAssignment(2, {"a": 1, "b": 1, "c": 1, "d": 2})
    got = silhouette(TWO_PAIRS, assignment)
    assert got.per_point["d"] == 0.0


def test_silhouette_equal_distances_boundary():
    m = _matrix("abcd", {(a, b): 0.7 for a, b in
                         [("a", "b"), ("a", "c"), ("a", "d"),
                          ("b", "c"), ("b", "d"), ("c", "d")]})
    got = silhouette(m, ClusterAssignment(2, {"a": 1, "b": 1, "c": 2, "d": 2}))
    # a(i) = b(i) = 0.7 everywhere, so every s(i) is 0
    assert got.mean == pytest.approx(0.0, abs=1e-15)
    assert got.mean <= 0.0 + 1e-15


def test_silhouette_bad_k():
    d = agglomerate(TWO_PAIRS)
    with pytest.raises(DegenerateData, match=r"silhouette needs 2 <= k <= 3, got k=1"):
        silhouette(TWO_PAIRS, cut(d, 1))
    with pytest.raises(DegenerateData, match=r"silhouette needs 2 <= k <= 3, got k=4"):
        silhouette(TWO_PAIRS, cut(d, 4))


def test_silhouette_refuses_an_assignment_of_other_than_k_clusters():
    matrix = DistanceMatrix(list("abc"), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"count of distinct cluster ids is 1, not k = 2"):
        silhouette(matrix, ClusterAssignment(2, {"a": 1, "b": 1, "c": 1}))


def test_silhouette_refuses_an_assignment_of_other_labels():
    with pytest.raises(ValueError, match="^assignment labels do not match the matrix labels$"):
        silhouette(TWO_PAIRS, ClusterAssignment(2, {"a": 1, "b": 1, "c": 2, "x": 2}))


def test_silhouette_matches_direct_reimplementation():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(3, 12)
        tied = random_distance_matrix(rng, n, distinct=False)
        # five levels, so many distances tie and some are 0 (a = b = 0)
        tied = DistanceMatrix(tied.labels, [round(v * 4) / 4 for v in tied.values])
        for m in (random_distance_matrix(rng, n), tied):
            d = agglomerate(m, rng.choice(("single", "complete", "average")))
            for k in range(2, n):
                assignment = cut(d, k)
                report = silhouette(m, assignment)
                oracle = direct_silhouette(m, assignment)
                for label in m.labels:  # both take correctly rounded sums: bit for bit
                    assert report.per_point[label].hex() == oracle[label].hex()
                    assert -1.0 <= report.per_point[label] <= 1.0


def test_best_cut_two_pairs_plus_outlier():
    labels = "abcde"
    pairs = {("a", "b"): 0.1, ("c", "d"): 0.1}
    for x in "ab":
        for y in "cd":
            pairs[(x, y)] = 0.9
    for x in "abcd":
        pairs[(x, "e")] = 2.0
    m = _matrix(labels, pairs)
    d = agglomerate(m, "complete")
    # exhaustive scan oracle over every k
    scores = {}
    for k in range(2, 5):
        oracle = direct_silhouette(m, cut(d, k))
        scores[k] = sum(oracle.values()) / len(oracle)
    want_k = min(k for k, s in scores.items() if s == max(scores.values()))
    assignment, report, means = best_cut(m, d)
    assert assignment.k == want_k == 3
    assert [k for k, _s in means] == [2, 3, 4]
    assert assignment.member_of == {"a": 1, "b": 1, "c": 2, "d": 2, "e": 3}
    assert report.mean == pytest.approx(scores[3], abs=1e-12)


def test_best_cut_three_items_only_k2():
    m = _matrix("abc", {("a", "b"): 0.2, ("a", "c"): 0.9, ("b", "c"): 0.8})
    assignment, _report, means = best_cut(m, agglomerate(m))
    assert assignment.k == 2
    assert [k for k, _s in means] == [2]
    assert assignment.member_of == {"a": 1, "b": 1, "c": 2}
    with pytest.raises(DegenerateData, match=r"need at least 3 items to scan cuts, got 2"):
        two = _matrix("ab", {("a", "b"): 0.4})
        best_cut(two, agglomerate(two))


def test_best_cut_separation_example():
    assignment, _report, _means = best_cut(TWO_PAIRS, agglomerate(TWO_PAIRS))
    assert assignment.k == 2
    assert assignment.member_of == {"a": 1, "b": 1, "c": 2, "d": 2}


def test_best_cut_range_property():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(3, 10)
        m = random_distance_matrix(rng, n)
        assignment, _r, _means = best_cut(m, agglomerate(m))
        assert 2 <= assignment.k <= n - 1


def test_silhouette_scan_covers_all_k():
    scan = silhouette_scan(FIVE, agglomerate(FIVE))
    assert [k for k, _s in scan] == [2, 3, 4]


def test_best_cut_is_first_argmax_of_silhouette_scan():
    rng = random.Random(71)
    tied = 0
    for trial in range(60):
        n = rng.randint(3, 9)
        if trial % 3 == 0:
            m = random_distance_matrix(rng, n)
        else:  # tied distances; when all are equal, every cut scores 0
            levels = (0.5, 1.0) if trial % 3 == 1 else (0.5,)
            labels = [f"p{i}" for i in range(n)]
            m = _matrix(labels, {(a, b): rng.choice(levels)
                                 for i, a in enumerate(labels) for b in labels[i + 1:]})
        d = agglomerate(m, rng.choice(LINKAGES))
        scan = silhouette_scan(m, d)
        top = max(s for _k, s in scan)
        want = next(k for k, s in scan if s == top)
        tied += sum(s == top for _k, s in scan) > 1
        assignment, report, means = best_cut(m, d)
        assert assignment.k == want
        assert report.mean == top
        assert assignment == cut(d, want)
        assert means == scan
    assert tied > 0


def test_best_cut_rescans_when_rounding_lifts_both_halves():
    # q1, q2 sit 0.7 from every p, and fsum([0.7] * 3) / 3 < 0.7.  Splitting
    # {p1..p6} into two triples keeps b(q) at that rounded mean; splitting
    # each triple into 0.7-mean halves must raise b(q) back to 0.7, which
    # only a rescan of the live clusters finds.
    pairs = {("q1", "q2"): 0.1, ("p2", "p3"): 0.1, ("p5", "p6"): 0.1,
             ("p1", "p2"): 0.2, ("p1", "p3"): 0.2, ("p4", "p5"): 0.2, ("p4", "p6"): 0.2}
    for a in ("p1", "p2", "p3"):
        for b in ("p4", "p5", "p6"):
            pairs[(a, b)] = 0.3
    for q in ("q1", "q2"):
        for p in ("p1", "p2", "p3", "p4", "p5", "p6"):
            pairs[(q, p)] = 0.7
    m = _matrix(["q1", "q2", "p1", "p2", "p3", "p4", "p5", "p6"], pairs)
    assert math.fsum([0.7] * 3) / 3 < 0.7
    for linkage in LINKAGES:
        d = agglomerate(m, linkage)
        assignment, report, means = best_cut(m, d)
        (want_k, want_assignment, want_report), want_means = reference_cut_scan(m, d)
        assert (assignment.k, assignment) == (want_k, want_assignment)
        assert report.per_point == want_report.per_point
        assert [(k, v.hex()) for k, v in means] == [(k, v.hex()) for k, v in want_means]


@pytest.mark.parametrize("labels", ["aebcdf", "aebdcf"])
def test_a_matrix_refuses_an_infinite_distance(labels):
    # every cell 1.0 but d(a, b) = d(a, d) = 1e308 and d(a, c) = inf: a sum
    # over {b, c, d} of 1e308, inf and 1e308 is inf in one order and an
    # OverflowError in the other, so no silhouette may see such a cell
    far = {"b": 1e308, "c": math.inf, "d": 1e308}
    cells = [far.get(y, 1.0) if x == "a" else 1.0
             for x, y in ((labels[i], labels[j]) for i, j in DistanceMatrix.upper_pairs(6))]
    with pytest.raises(DegenerateData, match="^the distance between 'a' and 'c' is infinite$"):
        DistanceMatrix(list(labels), cells)


def test_best_cut_and_scan_refuse_a_dendrogram_of_other_leaves():
    # the scan reads rows by leaf number, so a dendrogram over the labels in
    # another order would score another clustering
    labels = FIVE.labels[::-1]
    reversed_five = DistanceMatrix(labels, [FIVE.get(labels[i], labels[j])
                                            for i, j in DistanceMatrix.upper_pairs(5)])
    other = _matrix("VWXYZ", {})
    for dendrogram in (agglomerate(reversed_five), agglomerate(other)):
        with pytest.raises(ValueError, match="leaf labels are not the matrix labels"):
            best_cut(FIVE, dendrogram)
        with pytest.raises(ValueError, match="leaf labels are not the matrix labels"):
            silhouette_scan(FIVE, dendrogram)
    assert silhouette_scan(reversed_five, agglomerate(reversed_five)) \
        == silhouette_scan(FIVE, agglomerate(FIVE))  # no ties: the same clustering


def test_label_permutation_equivariance():
    rng = random.Random(61)
    for _ in range(10):
        n = rng.randint(3, 8)
        m = random_distance_matrix(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        labels2 = [m.labels[p] for p in perm]
        m2 = DistanceMatrix(labels2, [m.get(labels2[i], labels2[j])
                                      for i, j in DistanceMatrix.upper_pairs(n)])
        d1, d2 = agglomerate(m), agglomerate(m2)
        a1, r1, _means1 = best_cut(m, d1)
        a2, r2, _means2 = best_cut(m2, d2)
        assert a1.k == a2.k
        assert r1.mean == pytest.approx(r2.mean, abs=1e-12)
        # the grouping is the same, cluster ids may be renamed
        groups1 = {frozenset(l for l, c in a1.member_of.items() if c == cid)
                   for cid in set(a1.member_of.values())}
        groups2 = {frozenset(l for l, c in a2.member_of.items() if c == cid)
                   for cid in set(a2.member_of.values())}
        assert groups1 == groups2


FINITE_EDGES = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0, 1e308, sys.float_info.max])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(3, 6))
def test_silhouette_scores_follow_a_relabelling(data, n):
    """Renaming and reordering the points of a matrix of finite edge cells,
    and renaming the cluster ids, permutes `silhouette`'s per-point scores,
    the same floats by float.hex, or both calls refuse with the same class."""
    labels = [f"p{i}" for i in range(n)]
    matrix = DistanceMatrix(labels, data.draw(st.lists(FINITE_EDGES, min_size=n * (n - 1) // 2,
                                                       max_size=n * (n - 1) // 2)))
    k = data.draw(st.integers(1, n))
    ids = data.draw(st.permutations([*range(1, k + 1)] + data.draw(
        st.lists(st.integers(1, k), min_size=n - k, max_size=n - k))))
    place = data.draw(st.permutations(range(n)))  # point i becomes q{place[i]}, at place[i]
    rename = data.draw(st.permutations(range(1, k + 1)))  # cluster id c becomes rename[c - 1]
    point_at = {p: i for i, p in enumerate(place)}
    moved = DistanceMatrix([f"q{p}" for p in range(n)],
                           [matrix.get(labels[point_at[u]], labels[point_at[v]])
                            for u, v in DistanceMatrix.upper_pairs(n)])
    outcomes = []
    for m, member_of in ((matrix, dict(zip(labels, ids))),
                         (moved, {f"q{place[i]}": rename[c - 1] for i, c in enumerate(ids)})):
        try:
            report = silhouette(m, ClusterAssignment(k, member_of))
        except DegenerateData as exc:
            outcomes.append(type(exc))
        else:
            outcomes.append({label: s.hex() for label, s in report.per_point.items()})
    if isinstance(outcomes[0], dict):
        outcomes[0] = {f"q{place[i]}": outcomes[0][label] for i, label in enumerate(labels)}
    assert outcomes[0] == outcomes[1]


def test_purity_singletons_and_mixed():
    singles = ClusterAssignment(3, {"a": 1, "b": 2, "c": 3})
    report = purity(singles, {"a": "x", "b": "x", "c": "y"})
    assert all(v == 1.0 for v in report.per_cluster.values())
    assert report.overall == 1.0

    mixed = ClusterAssignment(1, {"a": 1, "b": 1, "c": 1})
    report = purity(mixed, {"a": "1", "b": "1", "c": "2"})
    assert report.per_cluster[1] == pytest.approx(2 / 3)
    assert report.overall == pytest.approx(2 / 3)


def test_purity_two_of_ten_clusters_pure():
    # synthetic cut mirroring a mostly-impure 10-cluster outcome
    member_of = {}
    truth = {}
    label = 0
    for cid in range(1, 11):
        for i in range(3):
            name = f"item{label}"
            member_of[name] = cid
            truth[name] = "five" if cid <= 2 else f"num{(label + i) % 7}"
            label += 1
    report = purity(ClusterAssignment(10, member_of), truth)
    pure = [cid for cid, v in report.per_cluster.items() if v == 1.0]
    assert pure == [1, 2]
    assert 0.0 < report.overall < 1.0


def test_purity_missing_truth_label():
    with pytest.raises(DegenerateData, match=r"no truth class for 'a'"):
        purity(ClusterAssignment(1, {"a": 1}), {})


@pytest.mark.parametrize("k, member_of, message", [
    (0, {}, r"k must be an int >= 1, got 0"),
    (True, {"a": 1}, r"k must be an int >= 1, got True"),
    (2.0, {"a": 1, "b": 2}, r"k must be an int >= 1, got 2\.0"),
    (2, {"a": 1, "b": True}, r"cluster id True is not an int in 1\.\.2"),
    (1, {"a": "x", "b": "x", "c": "x"}, r"cluster id 'x' is not an int in 1\.\.1"),
    (2, {"a": 1, "b": 3}, r"cluster id 3 is not an int in 1\.\.2"),
    (2, {"a": 0, "b": 1}, r"cluster id 0 is not an int in 1\.\.2"),
    (2, {"a": 1, "b": 2.0}, r"cluster id 2\.0 is not an int in 1\.\.2"),
    (3, {"a": 1, "b": 3}, r"the assignment's count of distinct cluster ids is 2, not k = 3"),
    (1, {"a": 1, "b": 2}, r"cluster id 2 is not an int in 1\.\.1"),
    (10**9, {"a": 1}, r"the assignment's count of distinct cluster ids is 1, not k = 1000000000"),
], ids=["k0-empty", "k-true", "k-float", "bool-id", "str-id", "id-past-k", "id-zero",
        "float-id", "fewer-ids", "more-ids", "huge-k"])
def test_cluster_assignment_refuses_misuse(k, member_of, message):
    # the ids of a k-cluster assignment are the ints 1..k, each used, so an
    # empty assignment, or the str ids `export_svg` could not colour, is
    # refused when built, before any call reads it
    with pytest.raises(ValueError, match=f"^{message}$"):
        ClusterAssignment(k, member_of)


def test_purity_range_and_perfect_iff_single_class():
    rng = random.Random(83)
    for _ in range(40):
        labels = [f"x{i}" for i in range(rng.randint(1, 12))]
        drawn = {label: rng.randint(1, 4) for label in labels}
        ids = {cid: new for new, cid in enumerate(sorted(set(drawn.values())), start=1)}
        member = {label: ids[cid] for label, cid in drawn.items()}  # ids 1..k, each used
        truth = {label: rng.choice("pqr") for label in labels}
        report = purity(ClusterAssignment(len(ids), member), truth)
        for value in report.per_cluster.values():
            assert 0.0 < value <= 1.0
        single_class = all(
            len({truth[l] for l in labels if member[l] == cid}) == 1
            for cid in set(member.values()))
        assert (report.overall == 1.0) == single_class


def test_purity_overall_weighted_by_size():
    assignment = ClusterAssignment(2, {"a": 1, "b": 1, "c": 1, "d": 2})
    truth = {"a": "x", "b": "x", "c": "y", "d": "z"}
    report = purity(assignment, truth)
    assert report.overall == pytest.approx((2 + 1) / 4)


def test_purity_refuses_tied_classes_that_do_not_order():
    # a majority tie goes to the smallest tied class, so those classes must order
    with pytest.raises(ValueError, match=r"^cluster 1's tied truth classes do not order$"):
        purity(ClusterAssignment(1, {"a": 1, "b": 1}), {"a": 1, "b": "x"})
    untied = purity(ClusterAssignment(1, {"a": 1, "b": 1, "c": 1}), {"a": 1, "b": "x", "c": 1})
    assert untied.majority == {1: 1}
    tied = purity(ClusterAssignment(1, {"a": 1, "b": 1}), {"a": "y", "b": "x"})
    assert tied.majority == {1: "x"}


@pytest.mark.parametrize("labels, merges", [
    ((), ()),
    (("a", "b", "c"), ((0, 1, 0.5),)),
    (("a", "b"), ((0, 1, 0.5), (2, 2, 0.6))),
    (("a", "b"), ((0, 0, 0.5),)),
    (("a", "b", "c"), ((0, 3, 0.5), (1, 2, 0.6))),
    (("a", "b", "c"), ((-1, 1, 0.5), (2, 3, 0.6))),
    (("a", "b", "c"), ((0, 1, 0.5), (0, 2, 0.6))),
    (("a", "b", "c", "d"), ((0, 1, 0.1), (4, 2, 0.2), (4, 3, 0.3))),
], ids=["no-leaves", "too-few-merges", "too-many-merges", "self-merge",
        "node-not-yet-made", "negative-id", "leaf-merged-twice", "node-merged-twice"])
def test_dendrogram_must_be_one_full_tree(labels, merges):
    with pytest.raises(ValueError):
        Dendrogram(labels, merges)


@pytest.mark.parametrize("merges", [
    ((0.0, 1, 0.5), (2, 3, 0.7)),
    ((0, 1, 0.5), (2, 3.0, 0.7)),
    ((False, True, 0.5), (2, 3, 0.7)),
    ((True, 2, 0.5), (0, 3, 0.7)),
], ids=["float-leaf", "float-node", "bool-leaves", "bool-leaf"])
def test_dendrogram_node_ids_must_be_ints(merges):
    # each tree passes a check by value alone, as 0.0 == 0 and True == 1
    with pytest.raises(ValueError, match="node ids must be ints"):
        Dendrogram(("a", "b", "c"), merges)


@pytest.mark.parametrize("labels, merges, message", [
    (("a", "a"), ((0, 1, 0.1),), "labels must be unique"),
    (("a", "b", "a"), ((0, 1, 0.1), (2, 3, 0.2)), "labels must be unique"),
    (("a", "b"), ((0, 1, math.nan),), "height must be >= 0"),
    (("a", "b"), ((0, 1, -1.0),), "height must be >= 0"),
    (("a", "b", "c"), ((0, 1, 0.1), (2, 3, -math.inf)), "height must be >= 0"),
    (("a", "b", "c"), ((0, 1, -0.0), (2, 3, math.inf)), "merge 1 height must be >= 0 and finite"),
    # ints the exports could not turn into floats; past 4,300 digits repr raises
    (("a", "b"), ((0, 1, 10**400),), "^merge 0 height must be >= 0 and finite$"),
    (("a", "b"), ((0, 1, -10**5000),), "^merge 0 height must be >= 0 and finite$"),
    # a value that is not a real number, named by its type, not its repr
    (("a", "b"), ((0, 1, "x"),), "^merge 0 height must be a real number, got str$"),
    (("a", "b", "c"), ((0, 1, 0.5), (2, 3, None)),
     "^merge 1 height must be a real number, got NoneType$"),
    (("a", "b"), [5],
     r"^merges must be \(node, node, height\) triples: 'int' object is not iterable$"),
    (("a",), 5, r"^merges must be \(node, node, height\) triples: 'int' object is not iterable$"),
], ids=["repeated-pair", "repeated-apart", "nan-height", "negative-height", "minus-inf-height",
        "inf-height", "int-height-past-range", "int-height-past-repr", "str-height",
        "none-height", "merge-not-a-triple", "merges-not-iterable"])
def test_dendrogram_refuses_repeated_labels_and_bad_heights(labels, merges, message):
    with pytest.raises(ValueError, match=message):
        Dendrogram(labels, merges)


def test_an_int_height_inside_the_float_range_exports():
    assert export_newick(Dendrogram(("a", "b"), ((0, 1, 1),))) == "(a:0.5,b:0.5);"


def test_a_dendrogram_built_from_lists_equals_the_one_agglomerate_builds():
    m = DistanceMatrix(list("abcd"), [1.0, 4.0, 5.0, 3.0, 6.0, 2.0])
    d = agglomerate(m)
    listed = Dendrogram(list(d.leaf_labels), [list(merge) for merge in d.merges])
    assert listed == d
    assert best_cut(m, listed) == best_cut(m, d)


def test_export_svg_refuses_an_assignment_of_other_labels():
    dendrogram = agglomerate(DistanceMatrix(list("abc"), [1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="labels do not match the dendrogram's leaf labels"):
        export_svg(dendrogram, ClusterAssignment(1, {"a": 1}))


def test_newick_two_leaves():
    d = Dendrogram(("A", "B"), ((0, 1, 0.4),))
    assert export_newick(d) == "(A:0.2,B:0.2);"


def test_newick_three_leaves_ultrametric():
    d = Dendrogram(("A", "B", "C"), ((0, 1, 0.2), (2, 3, 0.6)))
    assert export_newick(d) == "(C:0.3,(A:0.1,B:0.1):0.2);"


def test_exports_never_place_a_merge_below_its_children():
    low = Dendrogram(("a", "b", "c"), ((0, 1, 0.8), (2, 3, 0.2)))
    level = Dendrogram(("a", "b", "c"), ((0, 1, 0.8), (2, 3, 0.8)))
    assert export_newick(low) == "(c:0.4,(a:0.4,b:0.4):0);"
    assert export_svg(low) == export_svg(level)
    # a -0.0 height ties its children at 0.0, and the children's zero is drawn
    assert export_newick(Dendrogram(("a", "b"), ((0, 1, -0.0),))) == "(a:0,b:0);"


def test_newick_quotes_awkward_labels():
    d = Dendrogram(("a:1", "b c"), ((0, 1, 0.4),))
    assert export_newick(d) == "('a:1':0.2,'b c':0.2);"


# Labels need not be str: the exports and messages print a label as its str.
INT_LABELLED = agglomerate(DistanceMatrix([1, 2, 3], [1.0, 2.0, 3.0]))
STR_LABELLED = agglomerate(DistanceMatrix(["1", "2", "3"], [1.0, 2.0, 3.0]))


def test_newick_prints_a_label_as_its_str():
    assert export_newick(INT_LABELLED) == export_newick(STR_LABELLED) == "(3:1.5,(1:0.5,2:0.5):1);"
    tuples = Dendrogram((("a",), ("b",)), ((0, 1, 1.0),))
    assert export_newick(tuples) == "('(''a'',)':0.5,'(''b'',)':0.5);"


def test_svg_prints_a_label_as_its_str():
    assert export_svg(INT_LABELLED, cut(INT_LABELLED, 2)) == export_svg(STR_LABELLED,
                                                                         cut(STR_LABELLED, 2))


def test_purity_names_a_label_without_a_truth_class_by_its_str():
    with pytest.raises(DegenerateData, match=r"^no truth class for '1'$"):
        purity(cut(INT_LABELLED, 2), {})


def test_newick_deterministic():
    d = agglomerate(FIVE, "average")
    assert export_newick(d) == export_newick(agglomerate(FIVE, "average"))


def test_svg_well_formed_and_deterministic():
    d = agglomerate(FIVE, "complete")
    doc = export_svg(d, cut(d, 2))
    assert doc == export_svg(agglomerate(FIVE, "complete"), cut(d, 2))
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    text = ET.tostring(root, encoding="unicode")
    for label in FIVE.labels:
        assert label in text


def test_cut_then_silhouette_full_pipeline():
    rng = random.Random(71)
    m = random_distance_matrix(rng, 6)
    d = agglomerate(m)
    assert set(cut(d, 6).member_of.values()) == {1, 2, 3, 4, 5, 6}
    assert set(cut(d, 1).member_of.values()) == {1}


DISTANCES = st.one_of(st.floats(0.0, 10.0), st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308,
                                       -1e308, 5e-324]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 4), linkage=st.sampled_from(LINKAGES))
def test_cluster_calls_give_finite_floats_or_refuse(data, n, linkage):
    """`silhouette`, `purity` and `export_svg` on matrices that mix edge
    floats with ordinary ones, and on cuts or arbitrary (possibly mislabelled)
    assignments, return finite floats (the silhouette equal to its oracle's
    by float.hex) or refuse with DegenerateData or ValueError.  An infinite
    distance is refused with DegenerateData when the matrix is built, and an
    arbitrary assignment whose ids are not 1..k, each used, with ValueError
    when it is built."""
    labels = list("abcd"[:n])
    values = data.draw(st.lists(DISTANCES, min_size=n * (n - 1) // 2,
                                max_size=n * (n - 1) // 2))
    try:
        matrix = DistanceMatrix(labels, values)
    except ValueError:  # a NaN or negative distance
        return
    except DegenerateData:  # an infinite distance
        assert math.inf in values
        return
    dendrogram = agglomerate(matrix, linkage)
    k = data.draw(st.integers(0, n + 1))
    if 1 <= k <= n and data.draw(st.booleans()):
        assignment = cut(dendrogram, k)
    else:
        members = data.draw(st.lists(st.sampled_from(labels), unique=True))
        try:
            assignment = ClusterAssignment(k, {label: data.draw(st.integers(1, 3))
                                               for label in members})
        except ValueError:  # not the ids 1..k, each used
            return
    truth = {label: data.draw(st.sampled_from("xy")) for label in labels}
    try:
        report = silhouette(matrix, assignment)
    except (DegenerateData, ValueError):
        pass
    else:
        assert all(map(math.isfinite, [*report.per_point.values(), report.mean]))
        oracle = direct_silhouette(matrix, assignment)
        assert {label: s.hex() for label, s in report.per_point.items()} \
            == {label: s.hex() for label, s in oracle.items()}
    try:
        scores = purity(assignment, truth)
    except (DegenerateData, ValueError):
        pass
    else:
        assert all(map(math.isfinite, [*scores.per_cluster.values(), scores.overall]))
    try:
        export_svg(dendrogram, assignment)
    except ValueError:
        pass
