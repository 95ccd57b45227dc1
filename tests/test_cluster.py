import math
import random
import xml.etree.ElementTree as ET

import pytest

from oracles import direct_silhouette, random_distance_matrix, reference_cut_scan

from lingdist.cluster import (LINKAGES, ClusterAssignment, Dendrogram,
                              agglomerate, best_cut, cut, export_newick,
                              export_svg, purity, silhouette, silhouette_scan)
from lingdist.editdist import DistanceMatrix
from lingdist.errors import DegenerateData, FormatError


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


def test_purity_range_and_perfect_iff_single_class():
    rng = random.Random(83)
    for _ in range(40):
        labels = [f"x{i}" for i in range(rng.randint(1, 12))]
        member = {label: rng.randint(1, 4) for label in labels}
        truth = {label: rng.choice("pqr") for label in labels}
        report = purity(ClusterAssignment(len(set(member.values())), member), truth)
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
], ids=["repeated-pair", "repeated-apart", "nan-height", "negative-height", "minus-inf-height"])
def test_dendrogram_refuses_repeated_labels_and_bad_heights(labels, merges, message):
    with pytest.raises(ValueError, match=message):
        Dendrogram(labels, merges)


def test_exports_refuse_an_infinite_height():
    # agglomerate emits such a height on an overflowing matrix; -0.0 is a height
    tree = Dendrogram(("a", "b", "c"), ((0, 1, -0.0), (2, 3, math.inf)))
    with pytest.raises(FormatError, match="merge 1 has an infinite height"):
        export_newick(tree)
    with pytest.raises(FormatError, match="merge 1 has an infinite height"):
        export_svg(tree)


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


def test_newick_quotes_awkward_labels():
    d = Dendrogram(("a:1", "b c"), ((0, 1, 0.4),))
    assert export_newick(d) == "('a:1':0.2,'b c':0.2);"


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
