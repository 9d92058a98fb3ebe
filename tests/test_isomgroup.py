import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolev.constructs import (
    SimpleGraph,
    catalog,
    catalog_graph,
    theorem2_language,
    theorem6_language,
    unary_language,
)
from isolev.editdist import DistanceMatrix, Weights, distance_matrix
from isolev.isomgroup import (
    DegreeMismatch,
    DegreeTooLarge,
    Permutation,
    PermutationGroup,
    _individualize,
    _refine,
    _root_partition,
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
    assert perm(1, 2, 3, 0).cycles() == [(0, 1, 2, 3)]
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(DegreeMismatch):
        p * Permutation.identity(4)


def test_group_order_examples():
    # four equidistant words give S4; distances 1, 3, 7, 15 apart give no symmetry
    assert isometries(distance_matrix(["a", "b", "c", "d"])).order() == 24
    rigid = distance_matrix(unary_language([0, 1, 3, 7, 15]))
    assert isometries(rigid).order() == 1
    assert isometries_brute(rigid).order() == 1


def _matrix(*rows):
    return DistanceMatrix(tuple(map(str, range(len(rows)))), rows)


def test_contains():
    # points 0 and 1 are twins, point 2 is fixed
    swap = isometries(_matrix((0, 1, 2), (1, 0, 2), (2, 2, 0)))
    assert [g.images for g in swap.generators] == [(1, 0, 2)]
    assert swap.contains(Permutation.identity(3))
    assert swap.contains(perm(1, 0, 2))
    assert not swap.contains(perm(0, 2, 1))
    assert not swap.contains(perm(1, 2, 0))
    with pytest.raises(DegreeMismatch):
        swap.contains(Permutation.identity(4))


def test_orbits():
    trivial = isometries(distance_matrix(unary_language([0, 1, 3])))
    assert trivial.orbits().blocks == ((0,), (1,), (2,))
    g = isometries(_matrix((0, 1, 3, 4), (1, 0, 3, 4), (3, 3, 0, 5), (4, 4, 5, 0)))
    assert g.orbits().blocks == ((0, 1), (2,), (3,))
    assert g.orbits().sizes() == (2, 1, 1)


def test_oracle_chain_pinned():
    """The brute-force oracle's chain for five equidistant words, fixed
    literally: each sift divides by the inverse of a path in the level's
    breadth-first tree, so an orbit left unrebuilt, or walked over the
    generators in another order, changes the residues that join the chain
    even when the order stays 120.  Each inverse must be its point's path's
    in the final tree, not one kept from before a rebuild."""
    group = isometries_brute(distance_matrix(["a", "b", "c", "d", "e"]))
    assert group.order() == 120
    chain = group._chain
    assert [(lvl.base, [list(g.images) for g in lvl.introduced]) for lvl in chain] == [
        (3, [[0, 1, 2, 4, 3], [0, 1, 3, 2, 4]]),
        (2, [[0, 1, 4, 3, 2], [0, 2, 1, 3, 4]]),
        (1, [[0, 4, 2, 3, 1], [1, 0, 2, 3, 4]]),
        (0, [[4, 1, 2, 3, 0]]),
    ]
    assert len(group.generators) == 7
    # each orbit point's parent in its level's tree
    assert [{p: step[0] for p, step in lvl.schreier.items() if step} for lvl in chain] == [
        {0: 4, 1: 4, 2: 3, 4: 3}, {0: 4, 1: 2, 4: 2}, {0: 1, 4: 1}, {4: 0}]
    for lvl in chain:
        for point in lvl.schreier.keys() - {lvl.base}:
            inv = lvl.inverse_at(point)
            assert inv(point) == lvl.base
            path, q = Permutation.identity(5), point
            while q != lvl.base:
                q, g = lvl.schreier[q]
                path = g * path
            assert (path * inv).is_identity()


def test_isometries_two_point_space():
    m = distance_matrix(["a", "b"])
    assert isometries(m).order() == 2


def test_isometries_line_metric_is_rigid():
    lang = unary_language([0, 1, 3])  # pairwise distances 1, 2, 3
    group = isometries(distance_matrix(lang))
    assert group.order() == 1


def test_isometries_all_equal_matrix_gives_full_symmetric_group():
    rows = tuple(tuple(0 if i == j else 4 for j in range(4)) for i in range(4))
    group = isometries(DistanceMatrix(("a", "b", "c", "d"), rows))
    assert group.order() == 24


def test_brute_examples():
    assert isometries_brute(distance_matrix(["x"])).order() == 1
    line = distance_matrix(["", "a", "aa"])
    assert isometries_brute(line).order() == 2
    with pytest.raises(DegreeTooLarge):
        isometries_brute(distance_matrix([f"{i:04b}" for i in range(10)]))


# Entry values for random matrices; one value gives the full symmetric group,
# and a skewed choice leaves room for smaller symmetric groups.
_SYMMETRIC_PALETTES = [(1,), (1, 1, 1, 1, 2), (1, 2, 2, 2, 2), (1, 2)]


def _preserving_count(m):
    """Permutations preserving every entry of m, counted by a plain loop."""
    from itertools import permutations as allperms

    count = 0
    for images in allperms(range(m.n)):
        if all(
            m.entry(i, j) == m.entry(images[i], images[j])
            for i in range(m.n)
            for j in range(m.n)
        ):
            count += 1
    return count


def test_brute_order_equals_preserving_count():
    m = distance_matrix(unary_language([1, 3, 5]))
    assert isometries_brute(m).order() == _preserving_count(m) == 2
    rng = random.Random(11)
    for trial in range(24):
        n = 7 if trial % 6 == 0 else rng.randint(0, 6)
        m = _random_matrix(rng, n, rng.choice(_SYMMETRIC_PALETTES))
        group = isometries_brute(m)
        assert group.order() == _preserving_count(m)
        assert len(group.generators) <= n * (n - 1) // 2
        for g in group.generators:
            for i in range(n):
                for j in range(n):
                    assert m.entry(i, j) == m.entry(g(i), g(j))


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
        tuple(map(tuple, dist)),
    )
    lab, size = _root_partition(matrix.rows)
    assert sorted(lab) == list(range(g.n))
    assert size == [1] * g.n


def test_same_group_requires_matching_degree():
    with pytest.raises(DegreeMismatch):
        same_group(PermutationGroup(2, []), PermutationGroup(3, []))


# ---- graph families built in code, with closed-form automorphism orders ----


def _cycle(offset, n, step=1):
    return [(offset + i, offset + (i + step) % n) for i in range(n)]


def generalized_petersen(n, k):
    """GP(n, k); GP(n, 1) is the prism C_n x K2."""
    edges = _cycle(0, n) + _cycle(n, n, k) + [(i, n + i) for i in range(n)]
    return SimpleGraph.from_edges(2 * n, edges)


def hypercube(d):
    return SimpleGraph.from_edges(
        2**d, [(v, v ^ (1 << b)) for v in range(2**d) for b in range(d) if v < v ^ (1 << b)]
    )


def paley(p):
    squares = {x * x % p for x in range(1, p)}
    return SimpleGraph.from_edges(
        p, [(a, b) for a in range(p) for b in range(a + 1, p) if (b - a) % p in squares]
    )


def random_cubic(n, seed):
    """Simple cubic graph from the seeded pairing model."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return SimpleGraph.from_edges(n, sorted(edges))


def test_prism_orders_are_4n():
    for n in (3, 5, 6, 7, 8, 12, 16, 50):
        assert graph_automorphisms(generalized_petersen(n, 1)).order() == 4 * n
    # C_4 x K2 is the cube Q3, with 48 automorphisms rather than 16.
    assert graph_automorphisms(generalized_petersen(4, 1)).order() == 48


def test_hypercube_orders():
    for d in range(1, 7):
        assert graph_automorphisms(hypercube(d)).order() == 2**d * math.factorial(d)


def test_paley_orders():
    for p in (5, 13, 17, 29, 37, 41):
        assert graph_automorphisms(paley(p)).order() == p * (p - 1) // 2


def _complement(graph):
    n = graph.n
    return SimpleGraph.from_edges(
        n, [(a, b) for a in range(n) for b in range(a + 1, n) if not graph.has_edge(a, b)]
    )


def _graph_aut_inputs():
    """The benchmark's graph families at its sizes, and four random cubic graphs."""
    graphs = [generalized_petersen(n, 1) for n in (8, 10, 12, 14, 16)]
    graphs += [hypercube(d) for d in (4, 5, 6)]
    graphs += [paley(q) for q in (13, 17, 29, 37, 41)]
    graphs += [generalized_petersen(n, k) for n, k in ((8, 3), (10, 2), (10, 3), (12, 5), (13, 5))]
    graphs += [catalog_graph("petersen"), catalog_graph("frucht")]
    return graphs + [random_cubic(n, seed) for n, seed in ((24, 1), (24, 2), (24, 3), (100, 4))]


def test_complement_has_the_same_automorphisms():
    """Aut(G) = Aut(complement of G): the two matrices swap the entries 1
    and 2, and each generator maps the edge set onto itself."""
    for graph in _graph_aut_inputs():
        group = graph_automorphisms(graph)
        edges = set(graph.edges)
        for g in group.generators:
            assert {(min(g(a), g(b)), max(g(a), g(b))) for a, b in edges} == edges
        assert same_group(group, graph_automorphisms(_complement(graph)))


# Generator lists of the solver, fixed literally: the search is deterministic,
# so any change to its candidate order or pruning that alters them fails.
PINNED_AUT_GENERATORS = {
    "petersen": [[1, 0, 4, 3, 2, 6, 5, 9, 8, 7], [0, 4, 3, 2, 1, 5, 9, 8, 7, 6],
                 [0, 1, 2, 7, 5, 4, 6, 3, 9, 8], [0, 1, 6, 9, 4, 5, 2, 8, 7, 3]],
    "gp(8,3)": [[1, 0, 7, 6, 5, 4, 3, 2, 9, 8, 15, 14, 13, 12, 11, 10],
                [0, 7, 6, 5, 4, 3, 2, 1, 8, 15, 14, 13, 12, 11, 10, 9],
                [0, 1, 9, 12, 4, 5, 13, 8, 7, 2, 14, 15, 3, 6, 10, 11]],
}


def test_graph_automorphism_generators_pinned():
    graphs = {"petersen": catalog_graph("petersen"), "gp(8,3)": generalized_petersen(8, 3)}
    for name, graph in graphs.items():
        group = graph_automorphisms(graph)
        assert [list(g.images) for g in group.generators] == PINNED_AUT_GENERATORS[name]


def test_list_rows_give_the_same_generators_as_tuple_rows():
    def listed(m):
        return DistanceMatrix(m.words, [list(row) for row in m.rows], m.den)

    m = distance_matrix(list(theorem2_language(catalog_graph("petersen"))))
    assert isometries(listed(m)).generators == isometries(m).generators
    assert len(isometries(m).generators) == 4
    small = m.submatrix(range(6))
    assert isometries_brute(listed(small)).generators == isometries_brute(small).generators


def test_generalized_petersen_orders():
    expected = {(5, 2): 120, (8, 3): 96, (10, 2): 120, (10, 3): 240}
    for (n, k), order in expected.items():
        assert graph_automorphisms(generalized_petersen(n, k)).order() == order


def count_automorphisms(graph):
    """Independent oracle: extend a vertex map one vertex at a time."""
    adj = [set() for _ in range(graph.n)]
    for a, b in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    image = []

    def extend(v):
        if v == graph.n:
            return 1
        total = 0
        for w in set(range(graph.n)) - set(image):
            if all((u in adj[v]) == (image[u] in adj[w]) for u in range(v)):
                image.append(w)
                total += extend(v + 1)
                image.pop()
        return total

    return extend(0)


def test_random_cubic_orders_match_independent_count():
    # Seeds 152 and 184 give 10-vertex graphs whose search must backtrack
    # below a candidate: the first child it tries there leads to no isometry.
    for n, seed in ((10, 152), (10, 184), (10, 1), (12, 2), (12, 3)):
        graph = random_cubic(n, seed)
        assert graph_automorphisms(graph).order() == count_automorphisms(graph)


def test_relabelling_conjugates_the_group():
    for n, seed in ((24, 1), (24, 2), (24, 3), (100, 4)):
        graph = random_cubic(n, seed)
        images = list(range(n))
        random.Random(seed).shuffle(images)
        relabel = Permutation(images)
        moved = SimpleGraph.from_edges(n, [(images[a], images[b]) for a, b in graph.edges])
        g, h = graph_automorphisms(graph), graph_automorphisms(moved)
        assert g.order() == h.order()
        assert h.orbits().blocks == tuple(
            sorted(tuple(sorted(images[x] for x in block)) for block in g.orbits().blocks)
        )
        back = relabel.inverse()
        assert all(h.contains(back * x * relabel) for x in g.generators)
        assert all(g.contains(relabel * y * back) for y in h.generators)


def _random_matrix(rng, n, values):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice(values)
    return DistanceMatrix(tuple(map(str, range(n))), tuple(map(tuple, rows)))


# Two values a <= b <= 2a always satisfy the triangle inequality, and so do
# three values 2 <= c <= 4.  Skewed choices leave room for symmetry.
PALETTES = [(1, 2), (1, 2, 2, 2), (1, 1, 1, 2), (2, 3, 4), (2, 2, 2, 3, 4)]


def test_solver_matches_brute_on_random_matrices():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(2, 8) if trial % 10 else 9
        m = _random_matrix(rng, n, rng.choice(PALETTES))
        m.validate()
        a, b = isometries(m), isometries_brute(m)
        assert a.order() == b.order()
        assert same_group(a, b)


def _cells(lab, size):
    s, cells = 0, []
    while s < len(lab):
        cells.append(lab[s : s + size[s]])
        s += size[s]
    return cells


def _assert_equitable(rows, lab, size):
    cells = _cells(lab, size)
    for cell in cells:
        for other in cells:
            assert len({tuple(sorted(rows[x][y] for y in other)) for x in cell}) == 1


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=12), st.sampled_from(PALETTES))
def test_refine_is_equitable_and_replays_its_trace(data, n, palette):
    """After the root refinement and after each of 0-3 individualized
    points, every cell's points have the same sorted entries into every
    cell, and refining a copy against the trace returns the trace."""
    rows = _random_matrix(random.Random(data.draw(st.integers(0, 2**32))), n, palette).rows
    lab, size = _root_partition(rows)
    _assert_equitable(rows, lab, size)
    for v in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        s = next(lab.index(c[0]) for c in _cells(lab, size) if v in c)
        if size[s] == 1:
            continue
        lab, size = _individualize(lab, size, s, v)
        copy = (lab.copy(), size.copy())
        trace = _refine(rows, lab, size, [s])
        _assert_equitable(rows, lab, size)
        assert _refine(rows, *copy, [s], ref=trace) == trace
        assert copy == (lab, size)


def _two_colour_rows(graph):
    return [[0 if a == b else 1 if graph.has_edge(a, b) else 2 for b in range(graph.n)]
            for a in range(graph.n)]


def test_root_partitions_pinned():
    """Partitions and piece order, fixed literally."""
    petersen = _two_colour_rows(catalog_graph("petersen"))
    lab, size = _root_partition(petersen)
    assert (lab, size) == (list(range(10)), [10] + [0] * 9)
    lab, size = _individualize(lab, size, 0, 0)
    assert _refine(petersen, lab, size, [0]) == [(1, ((1, 3), (2, 6)))]
    assert (lab, size) == ([0, 1, 4, 5, 2, 3, 6, 7, 8, 9], [1, 3, 0, 0, 6, 0, 0, 0, 0, 0])
    assert _root_partition(_theorem6_matrix(3, Fraction(3, 2)).rows) == (
        [6, 7, 8, 9, 10, 11, 2, 3, 4, 5, 0, 1], [6, 0, 0, 0, 0, 0, 4, 0, 0, 0, 2, 0])
    # Here a cell splits while it still waits to split others, so every
    # piece must wait.  Leaving its largest piece out ends at the cells
    # 4 | 0 1 6 | 2 | 3 5, where 0 has two neighbours in its own cell and
    # 1 and 6 have one.
    waiting = SimpleGraph.from_edges(7, [(0, 1), (0, 4), (0, 6), (1, 3), (1, 4), (2, 4),
                                         (4, 6), (5, 6)])
    rows = _two_colour_rows(waiting)
    assert _root_partition(rows) == ([4, 1, 6, 0, 2, 3, 5], [1, 2, 0, 1, 1, 2, 0])
    _assert_equitable(rows, *_root_partition(rows))


def _disjoint_union(g, h):
    return SimpleGraph.from_edges(g.n + h.n, [*g.edges, *((a + g.n, b + g.n) for a, b in h.edges)])


@functools.lru_cache(maxsize=None)
def _theorem6_matrix(layers, theta):
    return distance_matrix(list(theorem6_language(layers)), Weights(1, theta))


def test_search_refine_calls_pinned(monkeypatch):
    """The number of refinements each search runs, fixed literally: a change
    that only makes the search retry candidates keeps every group but fails
    here.  Only on the disjoint unions does the skip set save work by
    covering the orbits of refuted candidates.  On theorem6 every twin's
    transposition is emitted without a search, so the count grows linearly
    in the layers: 10, 65 and 145 calls at 3, 8 and 12 layers."""
    from isolev import isomgroup

    calls = 0
    refine = isomgroup._refine

    def counting(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    monkeypatch.setattr(isomgroup, "_refine", counting)
    theta = Fraction(3, 2)
    cases = [
        (lambda: isometries(_theorem6_matrix(3, theta)), 10),
        (lambda: isometries(_theorem6_matrix(8, theta)), 65),
        (lambda: isometries(_theorem6_matrix(12, theta)), 145),
        (lambda: graph_automorphisms(catalog_graph("petersen")), 15),
        (lambda: graph_automorphisms(
            _disjoint_union(generalized_petersen(3, 1), catalog_graph("k33"))), 29),
        (lambda: graph_automorphisms(
            _disjoint_union(generalized_petersen(8, 1), generalized_petersen(8, 3))), 27),
    ]
    counts = []
    for search, _ in cases:
        _theorem6_matrix(12, theta)  # built outside the count
        calls = 0
        search()
        counts.append(calls)
    assert counts == [pinned for _, pinned in cases]


def test_search_multiplies_no_permutations(monkeypatch):
    """The search, its order and its orbits read Schreier vectors and
    multiply out no transversal element.  The oracle multiplies only in its
    sifts, and no more often than when it kept every transversal product."""
    counts = {"products": 0, "inverses": 0}
    mul, inverse = Permutation.__mul__, Permutation.inverse

    def counting_mul(p, q):
        counts["products"] += 1
        return mul(p, q)

    def counting_inverse(p):
        counts["inverses"] += 1
        return inverse(p)

    theorem6 = _theorem6_matrix(12, Fraction(3, 2))  # built outside the count
    monkeypatch.setattr(Permutation, "__mul__", counting_mul)
    monkeypatch.setattr(Permutation, "inverse", counting_inverse)
    for group in (isometries(theorem6), graph_automorphisms(hypercube(6))):
        group.order()
        group.orbits()
    assert counts == {"products": 0, "inverses": 0}
    assert isometries_brute(distance_matrix(list("abcdefg"))).order() == 5040
    assert counts["products"] <= 22228


def _swap(n, a, b):
    images = list(range(n))
    images[a], images[b] = b, a
    return Permutation(images)


def test_theorem6_closed_form():
    """Layer i of theorem6 is a class of 2i twins, so the group is the
    product of the symmetric groups S_2i, at every substitution weight.
    Sifting a transposition inside the last layer, and one across the last
    two, multiplies out inverses from the search's Schreier vectors."""
    thetas = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    cases = [(layers, theta) for layers in range(1, 9) for theta in thetas]
    for layers, theta in cases + [(12, Fraction(3, 2))]:
        group = isometries(_theorem6_matrix(layers, theta))
        assert group.order() == math.prod(math.factorial(2 * i) for i in range(1, layers + 1))
        assert group.orbits().sizes() == tuple(range(2, 2 * layers + 1, 2))
        n = layers * (layers + 1)
        first = n - 2 * layers  # the last layer holds the words first..n-1
        assert group.contains(_swap(n, first, n - 1))
        assert layers == 1 or not group.contains(_swap(n, first - 1, first))


def test_solver_matches_brute_on_planted_twins():
    """Random metric matrices with planted twin classes and near-twins.
    Near-twins u, v differ at one third point x, where refinement parts
    them, or at two, x and y, where v holds u's two entries swapped and x, y
    are near-twins in the same way.  Then (u v)(x y) is an isometry but
    (u v) is not, and x, y lie before, between or after u and v, so a twin
    test that skips any part of the rows emits a false generator."""
    rng = random.Random(12)
    palettes = [(1, 2), (1, 2, 2, 2), (1, 1, 1, 2), (2, 3, 4)]
    for trial in range(40):
        n = rng.randint(4, 8) if trial % 20 else 9
        palette = rng.choice(palettes)
        m = _random_matrix(rng, n, palette)
        rows = [list(row) for row in m.rows]

        def copy_row(src, dst):
            for x in range(n):
                if x not in (src, dst):
                    rows[dst][x] = rows[x][dst] = rows[src][x]

        def put(a, b, d):
            rows[a][b] = rows[b][a] = d

        points = list(range(n))
        rng.shuffle(points)
        low, high = sorted(set(palette))[:2]
        if trial % 3 == 1:
            u, v, x = points[:3]
            del points[:3]
            copy_row(u, v)
            put(u, x, low)
            put(v, x, high)
        elif trial % 3 == 2:
            p = sorted(points[:4])
            del points[:4]
            # x and y before, between or after u and v
            orders = ((2, 3, 0, 1), (0, 3, 1, 2), (0, 1, 2, 3))
            u, v, x, y = (p[i] for i in orders[trial // 3 % 3])
            copy_row(u, v)
            copy_row(x, y)
            put(u, x, low)
            put(v, y, low)
            put(u, y, high)
            put(v, x, high)
        while len(points) >= 2 and rng.random() < 0.7:
            k = rng.randint(2, len(points))
            twins, points = points[:k], points[k:]
            for dst in twins[1:]:
                copy_row(twins[0], dst)
        m = DistanceMatrix(m.words, tuple(map(tuple, rows)))
        m.validate()
        a, b = isometries(m), isometries_brute(m)
        assert a.order() == b.order()
        assert same_group(a, b)
        for g in a.generators:
            assert all(rows[g(i)][g(j)] == rows[i][j] for i in range(n) for j in range(n))
