import random
from fractions import Fraction

import pytest

from isolev.constructs import catalog, catalog_graph, theorem2_language, unary_language
from isolev.editdist import DistanceMatrix, Weights, distance_matrix
from isolev.isomgroup import (
    DegreeMismatch,
    DegreeTooLarge,
    GroupTooLarge,
    Permutation,
    PermutationGroup,
    _color_matrix,
    _refine_classes,
    graph_automorphisms,
    isometries,
    isometries_brute,
    same_group,
)


def perm(*images):
    return Permutation(images)


def test_permutation_basics():
    p = perm(1, 0, 2)
    q = perm(0, 2, 1)
    assert (p * q)(0) == 2  # p then q
    assert p.inverse() * p == Permutation.identity(3)
    assert p.order() == 2
    assert perm(1, 2, 0).order() == 3
    assert perm(1, 2, 3, 0).cycles() == [(0, 1, 2, 3)]
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(DegreeMismatch):
        p * Permutation.identity(4)


def test_group_order_examples():
    s4 = PermutationGroup(4, [perm(1, 0, 2, 3), perm(1, 2, 3, 0)])
    assert s4.order() == 24
    assert PermutationGroup(5, []).order() == 1


def test_contains():
    c3 = PermutationGroup(3, [perm(1, 2, 0)])
    assert c3.contains(Permutation.identity(3))
    assert not c3.contains(perm(1, 0, 2))
    with pytest.raises(DegreeMismatch):
        c3.contains(Permutation.identity(4))


def test_elements_and_cap():
    c3 = PermutationGroup(3, [perm(1, 2, 0)])
    assert len(c3.elements(10)) == 3
    assert PermutationGroup(2, []).elements(5) == [Permutation.identity(2)]
    with pytest.raises(GroupTooLarge):
        PermutationGroup(4, [perm(1, 0, 2, 3), perm(1, 2, 3, 0)]).elements(10)


def test_orbits():
    trivial = PermutationGroup(3, [])
    assert trivial.orbits().blocks == ((0,), (1,), (2,))
    g = PermutationGroup(4, [perm(1, 0, 2, 3)])
    assert g.orbits().blocks == ((0, 1), (2,), (3,))
    assert g.orbits().sizes() == (2, 1, 1)


def test_chain_order_matches_enumeration_for_random_groups():
    rng = random.Random(2024)
    for _ in range(30):
        degree = rng.randint(2, 6)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(images))
        group = PermutationGroup(degree, gens)
        assert group.order() == len(group.elements(10_000))


def test_isometries_two_point_space():
    m = distance_matrix(["a", "b"])
    assert isometries(m).order() == 2


def test_isometries_line_metric_is_rigid():
    lang = unary_language([0, 1, 3])  # pairwise distances 1, 2, 3
    group = isometries(distance_matrix(lang))
    assert group.order() == 1


def test_isometries_all_equal_matrix_gives_full_symmetric_group():
    rows = tuple(
        tuple(Fraction(0) if i == j else Fraction(4) for j in range(4)) for i in range(4)
    )
    group = isometries(DistanceMatrix(("a", "b", "c", "d"), rows))
    assert group.order() == 24


def test_brute_examples():
    assert isometries_brute(distance_matrix(["x"])).order() == 1
    line = distance_matrix(["", "a", "aa"])
    assert isometries_brute(line).order() == 2
    with pytest.raises(DegreeTooLarge):
        isometries_brute(distance_matrix([f"{i:04b}" for i in range(10)]))


def test_brute_order_equals_preserving_count():
    from itertools import permutations as allperms

    lang = unary_language([1, 3, 5])
    m = distance_matrix(lang)
    count = 0
    for images in allperms(range(m.n)):
        if all(
            m.entry(i, j) == m.entry(images[i], images[j])
            for i in range(m.n)
            for j in range(m.n)
        ):
            count += 1
    assert isometries_brute(m).order() == count == 2


def test_solver_matches_brute_on_fixtures():
    fixtures = [
        distance_matrix(["a", "b"]),
        distance_matrix(["", "a", "aa"]),
        distance_matrix(["", "0", "00", "1", "11"], Weights(1, 2)),
        distance_matrix(list(theorem2_language(catalog_graph("k4")))),
        distance_matrix(["00", "11", "000101", "110101"]),
    ]
    for m in fixtures:
        a = isometries(m)
        b = isometries_brute(m)
        assert same_group(a, b)
        assert a.order() == b.order()


def test_solver_is_deterministic():
    m = distance_matrix(list(theorem2_language(catalog_graph("k33"))))
    g1 = isometries(m)
    g2 = isometries(m)
    assert g1.generators == g2.generators
    assert g1.orbits() == g2.orbits()


def test_solver_generators_preserve_matrix():
    m = distance_matrix(["", "0", "1", "01", "10"])
    group = isometries(m)
    for g in group.generators:
        for i in range(m.n):
            for j in range(m.n):
                assert m.entry(i, j) == m.entry(g(i), g(j))


def test_orbit_distance_multiset_invariant():
    m = distance_matrix(list(theorem2_language(catalog_graph("k33"))))
    group = isometries(m)
    blocks = group.orbits().blocks
    for block in blocks:
        for other in blocks:
            profiles = {
                tuple(sorted(m.entry(i, j) for j in other if j != i)) for i in block
            }
            assert len(profiles) == 1


def test_graph_automorphism_orders_match_catalog():
    for entry in catalog():
        assert graph_automorphisms(entry.graph).order() == entry.aut_order


def test_frucht_rigidity_by_independent_refinement():
    # Shortest-path metric refinement splits the Frucht graph into singletons,
    # which certifies a trivial automorphism group without any backtracking.
    g = catalog_graph("frucht")
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = []
    for s in range(g.n):
        row = [-1] * g.n
        row[s] = 0
        queue = [s]
        while queue:
            x = queue.pop(0)
            for y in adj[x]:
                if row[y] < 0:
                    row[y] = row[x] + 1
                    queue.append(y)
        dist.append(row)
    matrix = DistanceMatrix(
        tuple(str(i) for i in range(g.n)),
        tuple(tuple(Fraction(d) for d in row) for row in dist),
    )
    classes = _refine_classes(_color_matrix(matrix))
    assert sorted(classes) == list(range(g.n))


def test_same_group_requires_matching_degree():
    with pytest.raises(DegreeMismatch):
        same_group(PermutationGroup(2, []), PermutationGroup(3, []))
