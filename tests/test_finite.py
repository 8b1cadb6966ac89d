from fractions import Fraction
import itertools
import random
import time

import numpy as np
import pytest

import finite_oracle as oracle
from rotagraph import finite as fn
from rotagraph.errors import BoundExceededError, ParseError, PreconditionError


def test_permutation_basics():
    p = fn.Permutation.from_cycles("(0 1 2)", 4)
    assert p.images == (1, 2, 0, 3)
    assert p.cycle_string() == "(0 1 2)"
    assert (p * p.inverse()).is_identity()
    q = fn.Permutation.from_cycles("(0 1)", 4)
    # composition applies the right factor first
    assert (p * q).images == (2, 1, 0, 3)
    assert p.fixed_count() == 1


def test_from_cycles_rejects_garbage():
    with pytest.raises(ParseError):
        fn.Permutation.from_cycles("(0 1)(1 2)", 3)   # duplicate point
    # ... whichever cycle names it first, a cycle of one point too
    for text in ("(1)(0 1)", "(0 1)(1)", "(2)(2)", "(0)(1 2)(0)"):
        with pytest.raises(ParseError, match="across cycles"):
            fn.Permutation.from_cycles(text, 3)
    assert fn.Permutation.from_cycles("(0)(1 2)", 3).images == (0, 2, 1)
    with pytest.raises(ParseError):
        fn.Permutation.from_cycles("(0 5)", 3)        # out of range


def test_cycle_indices_are_ascii_digits():
    # int() reads the digits of other scripts; the notation does not
    for text in ("(\u0660 1 2)", "(0 \U0001d7d9)", "(0 1 \u0968)"):
        with pytest.raises(ParseError):
            fn.Permutation.from_cycles(text, 3)


def test_from_cycles_parses_in_linear_time():
    start = time.monotonic()
    with pytest.raises(ParseError):
        fn.Permutation.from_cycles("(" + "1" * 60 + "]", 5)
    assert time.monotonic() - start < 1
    assert fn.Permutation.from_cycles("()", 3).is_identity()
    assert fn.Permutation.from_cycles("(0,1, 2 )", 3).images == (1, 2, 0)
    assert fn.Permutation.from_cycles("(0 1)(2 3)", 4).images == (1, 0, 3, 2)


def test_perm_group_closure_and_orbits():
    g = fn.PermGroup(4, [fn.Permutation.from_cycles("(0 1)", 4)])
    assert g.order == 2
    assert [tuple(o) for o in g.orbits()] == [(0, 1), (2,), (3,)]
    assert not g.is_transitive()
    assert fn.symmetric_group(4).order == 24
    assert fn.cyclic_group(5).order == 5
    assert fn.dihedral_group(6).order == 12


def test_orbit_count_and_cauchy_frobenius():
    s4 = fn.symmetric_group(4)
    assert fn.orbit_count(s4) == 1
    assert fn.cauchy_frobenius(s4) == Fraction(1)
    c4 = fn.cyclic_group(4)
    assert fn.cauchy_frobenius(c4) == Fraction(1)
    triv = fn.PermGroup(3, [fn.Permutation.identity(3)])
    assert fn.orbit_count(triv) == 3
    assert fn.cauchy_frobenius(triv) == Fraction(3)
    two = fn.PermGroup(4, [fn.Permutation.from_cycles("(0 1)", 4)])
    # orbits {0,1},{2},{3}: average fixed points (4+2)/2 = 3
    assert fn.cauchy_frobenius(two) == Fraction(3)
    assert fn.cauchy_frobenius(two) == fn.orbit_count(two)


def test_rotary_action_only_in_degree_one():
    assert fn.is_rotarily_transitive_action(fn.symmetric_group(1))
    assert not fn.is_rotarily_transitive_action(fn.cyclic_group(4))
    assert not fn.is_rotarily_transitive_action(fn.symmetric_group(3))
    intrans = fn.PermGroup(3, [fn.Permutation.from_cycles("(0 1)", 3)])
    assert not fn.is_rotarily_transitive_action(intrans)


def test_jordan_witness():
    for g in (fn.cyclic_group(4), fn.symmetric_group(5), fn.dihedral_group(5)):
        w = fn.jordan_witness(g)
        assert w.fixed_count() == 0 and w in g.elements()
    with pytest.raises(PreconditionError):
        fn.jordan_witness(fn.PermGroup(3, [fn.Permutation.from_cycles("(0 1)", 3)]))


def test_finite_group_table_validation():
    with pytest.raises(PreconditionError):
        fn.FiniteGroup([[0, 1], [0, 1]])          # column not a permutation
    with pytest.raises(PreconditionError):
        fn.FiniteGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])   # no identity
    q8 = fn.quaternion_group()
    assert q8.order == 8
    i, j, mk = q8.names.index("i"), q8.names.index("j"), q8.names.index("-k")
    assert q8.mul(j, i) == mk
    assert q8.names[q8.inv(i)] == "-i"
    assert len(q8.cyclic_subgroup(i)) == 4
    assert len(q8.conjugacy_class(i)) == 2


def test_quaternion_table():
    q8 = fn.quaternion_group()
    assert q8.names == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    assert [row.tolist() for row in q8.table] == [
        [0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6],
        [2, 3, 1, 0, 6, 7, 5, 4], [3, 2, 0, 1, 7, 6, 4, 5],
        [4, 5, 7, 6, 1, 0, 2, 3], [5, 4, 6, 7, 0, 1, 3, 2],
        [6, 7, 4, 5, 3, 2, 1, 0], [7, 6, 5, 4, 2, 3, 0, 1]]
    # i^2 = j^2 = k^2 = ijk = -1
    i, j, k = (q8.names.index(x) for x in "ijk")
    assert q8.mul(i, i) == q8.mul(j, j) == q8.mul(k, k) \
        == q8.mul(q8.mul(i, j), k) == q8.names.index("-1")


def test_all_subgroups_counts():
    assert len(fn.all_subgroups(fn.cyclic_group(4))) == 3
    assert len(fn.all_subgroups(fn.symmetric_group(3))) == 6
    assert len(fn.all_subgroups(fn.symmetric_group(4))) == 30
    assert len(fn.all_subgroups(fn.symmetric_group(5))) == 156
    # element orders with a prime factor above 13
    assert len(fn.all_subgroups(fn.cyclic_group(17))) == 2
    assert len(fn.all_subgroups(fn.dihedral_group(17))) == 20
    with pytest.raises(BoundExceededError):   # 7! exceeds the lattice budget
        fn.all_subgroups(fn.symmetric_group(7))


def test_all_subgroups_are_closed_and_lagrange():
    g = fn.symmetric_group(4)
    subs = fn.all_subgroups(g)
    whole = set(g.elements())
    for sub in subs:
        assert g.order % sub.order == 0
        elems = set(sub.elements())
        assert elems <= whole
        assert all(a * b in elems for a in elems for b in elems)


def test_graph_automorphisms():
    edgeless3 = fn.FiniteGraph(3, [])
    assert fn.graph_automorphisms(edgeless3).order == 6
    path3 = fn.FiniteGraph(3, [(0, 1), (1, 2)])
    assert fn.graph_automorphisms(path3).order == 2
    cyc4 = fn.FiniteGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert fn.graph_automorphisms(cyc4).order == 8
    with pytest.raises(BoundExceededError):
        fn.graph_automorphisms(fn.FiniteGraph(9, []))


def test_rotary_graph_check():
    assert fn.is_rotarily_transitive_graph(fn.FiniteGraph(1, []))
    assert not fn.is_rotarily_transitive_graph(
        fn.FiniteGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert not fn.is_rotarily_transitive_graph(
        fn.FiniteGraph(3, [(0, 1), (1, 2)]))   # intransitive shortcut
    # K6 and its complement: Aut = S6, of order 720
    pairs = list(itertools.combinations(range(6), 2))
    for fg in (fn.FiniteGraph(6, pairs), fn.FiniteGraph(6, [])):
        assert fn.is_rotarily_transitive_graph(fg) is False
    # Aut(K8) = S8 exceeds the Cayley table budget
    with pytest.raises(BoundExceededError):
        fn.is_rotarily_transitive_graph(
            fn.FiniteGraph(8, list(itertools.combinations(range(8), 2))))


def test_bipartite():
    for k in range(1, 6):
        even = fn.FiniteGraph(2 * k, [(i, (i + 1) % (2 * k)) for i in range(2 * k)])
        assert fn.is_bipartite(even) is not None
        odd = fn.FiniteGraph(2 * k + 1,
                             [(i, (i + 1) % (2 * k + 1)) for i in range(2 * k + 1)])
        assert fn.is_bipartite(odd) is None


def test_conjugation_graph_s3():
    s3 = fn.FiniteGroup.from_permutations(
        [fn.Permutation.from_cycles("(0 1)", 3),
         fn.Permutation.from_cycles("(0 1 2)", 3)])
    g1 = s3.names.index("(0 1)")
    g3 = s3.names.index("(0 1 2)")
    fg, action, diag = fn.conjugation_graph(s3, g1, g3)
    assert diag["class_size"] == 3
    assert diag["acts_by_automorphisms"]
    assert diag["transitive"]
    assert not diag["by_rotations"]            # the 3-cycles act freely
    assert action.order == s3.order // 1 or action.order <= s3.order
    assert fn.graph_automorphisms(fg).order >= action.order


def test_conjugation_graph_q8():
    q8 = fn.quaternion_group()
    g1, g3 = q8.names.index("i"), q8.names.index("j")
    fg, action, diag = fn.conjugation_graph(q8, g1, g3)
    assert diag["class_size"] == 2
    assert sorted(diag["class_names"]) == ["-i", "i"]
    assert diag["transitive"]


def test_conjugation_graph_preconditions():
    q8 = fn.quaternion_group()
    with pytest.raises(PreconditionError):
        fn.conjugation_graph(q8, q8.identity, q8.names.index("j"))
    with pytest.raises(PreconditionError):
        fn.conjugation_graph(q8, q8.names.index("i"), q8.names.index("-i"))


def test_finite_graph_json_round_trip():
    fg = fn.FiniteGraph(4, [(0, 1), (2, 3)])
    assert fn.FiniteGraph.from_json(fg.to_json()) == fg


def test_finite_graph_json_takes_n_and_edges_only():
    with pytest.raises(PreconditionError,
                       match=r"^a graph has keys n and edges only, not 'name', 'x'$"):
        fn.FiniteGraph.from_json({"n": 2, "edges": [[0, 1]], "x": 1, "name": "K2"})


def test_census_small():
    rep = fn.census(2)
    assert rep["counts"]["graphs"] == 3      # 1-vertex, edgeless pair, K2
    assert all(rep["assertions"].values())
    rep4 = fn.census(4)
    assert rep4["counts"]["graphs"] == 1 + 2 + 4 + 11
    assert rep4["counts"]["unverified"] == 0
    assert all(rep4["assertions"].values())
    with pytest.raises(BoundExceededError):
        fn.census(8)


def _orbits_by_union_find(g):
    """PermGroup.orbits without its cache: one union-find per call."""
    return tuple(map(tuple, fn._components(
        g.degree, ((i, j) for p in g.generators for i, j in enumerate(p.images)))))


def test_census_finds_each_groups_orbits_once(monkeypatch):
    calls = []
    components = fn._components
    monkeypatch.setattr(fn, "_components", lambda *a: calls.append(1) or components(*a))
    got = fn.census(5)
    # one union-find per graph, and one per connectivity test
    assert len(calls) <= 59
    monkeypatch.setattr(fn.PermGroup, "orbits", _orbits_by_union_find)
    assert got == fn.census(5)


# -- differential tests against the definitions ------------------------------

A4 = fn.PermGroup(4, [fn.Permutation.from_cycles("(0 1 2)", 4),
                      fn.Permutation.from_cycles("(1 2 3)", 4)])


def _table_by_definition(elems):
    index = {p: i for i, p in enumerate(elems)}
    return [[index[a * b] for b in elems] for a in elems]


def test_cayley_table_matches_definition():
    # cyclic_group(20) has degree 20, where 20**20 overflows an int64 code
    for g in (fn.symmetric_group(5), fn.dihedral_group(7), A4, fn.cyclic_group(20)):
        elems = g.elements()
        assert [row.tolist() for row in fn._cayley_table(elems)] == \
            _table_by_definition(elems)


def test_table_budget():
    s7 = fn.symmetric_group(7)
    table = fn._cayley_table(s7.elements())
    assert len(table) == 5040 and all(len(row) == 5040 for row in table)
    assert all(row.itemsize == 2 for row in table)
    assert sum(row.buffer_info()[1] * row.itemsize for row in table) == 2 * 5040 ** 2
    grp = fn.FiniteGroup.from_permutations(list(s7.generators))
    assert grp.order == 5040 and all(row.itemsize == 2 for row in grp.table)
    assert all(grp.mul(i, grp.inv(i)) == grp.identity for i in range(5040))
    s8 = [fn.Permutation.from_cycles("(0 1)", 8),
          fn.Permutation.from_cycles("(0 1 2 3 4 5 6 7)", 8)]
    with pytest.raises(BoundExceededError):
        fn.FiniteGroup.from_permutations(s8)


def test_trusted_s7_table_is_a_latin_square():
    # from_permutations skips the row and column checks of passed-in
    # tables; its own table must pass them anyway
    grp = fn.FiniteGroup.from_permutations(list(fn.symmetric_group(7).generators))
    rng = list(range(5040))
    assert all(sorted(row) == rng for row in grp.table)
    assert all(sorted(col) == rng for col in zip(*grp.table))
    assert grp.table[grp.identity].tolist() == rng
    assert [row[grp.identity] for row in grp.table] == rng
    assert all(row[grp._inv[i]] == grp.identity for i, row in enumerate(grp.table))
    assert all(grp.table[grp._inv[i]][i] == grp.identity for i in rng)


def test_from_permutations_matches_definition():
    for g in (fn.symmetric_group(3), fn.symmetric_group(5), fn.dihedral_group(4), A4):
        elems = g.elements()
        index = {p: i for i, p in enumerate(elems)}
        grp = fn.FiniteGroup.from_permutations(list(g.generators))
        assert [row.tolist() for row in grp.table] == _table_by_definition(elems)
        assert grp.names == tuple(p.cycle_string() for p in elems)
        assert grp.identity == index[fn.Permutation.identity(g.degree)]
        assert [grp.inv(i) for i in range(len(elems))] == \
            [index[p.inverse()] for p in elems]


def _automorphisms_by_definition(fg):
    return [images for images in itertools.permutations(range(fg.n))
            if all((min(images[i], images[j]), max(images[i], images[j]))
                   in fg.edges for i, j in fg.edges)]


def test_graph_automorphisms_match_definition():
    graphs = [fn._mask_to_graph(n, mask)
              for n in range(1, 6) for mask in fn._iso_class_reps(n)]
    assert len(graphs) == 52
    rng = random.Random(5)
    for n in (7, 8):
        pairs = list(itertools.combinations(range(n), 2))
        graphs += [fn.FiniteGraph(n, [e for e in pairs if rng.random() < 0.4])
                   for _ in range(4)]
        graphs.append(fn.FiniteGraph(n, [(i, (i + 1) % n) for i in range(n)]))
    graphs.append(fn.FiniteGraph(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4)]))
    for fg in graphs:
        got = [p.images for p in fn.graph_automorphisms(fg).elements()]
        assert got == _automorphisms_by_definition(fg)


def _iso_class_reps_by_definition(n):
    """The distinct values of the least edge bitmask over all relabelings,
    taken for every mask at once, one relabeling at a time."""
    _, moves = oracle._relabelings(n)
    m = moves.shape[1]
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1   # 2^m x m
    weights = np.int64(1) << np.arange(m)
    best = np.full(1 << m, np.iinfo(np.int64).max)
    for pm in moves:
        best = np.minimum(best, bits[:, pm] @ weights)
    return tuple(np.unique(best).tolist())


def test_iso_class_reps_match_definition():
    for n in range(1, 7):
        assert fn._iso_class_reps(n) == _iso_class_reps_by_definition(n), n


def _fixing_mask(g):
    """Which elements of g (in `elements()` order) fix some point."""
    return [p.fixed_count() > 0 for p in g.elements()]


def test_derangement_free_search_matches_filtered_lattice():
    a5 = fn.PermGroup(5, [fn.Permutation.from_cycles("(0 1 2)", 5),
                          fn.Permutation.from_cycles("(0 1 2 3 4)", 5)])
    groups = [fn.symmetric_group(n) for n in (4, 5, 6)]
    groups += [fn.dihedral_group(n) for n in range(5, 9)] + [A4, a5]
    counts = []
    for g in groups:
        elems = g.elements()
        fixing = _fixing_mask(g)
        inside = {p for p, ok in zip(elems, fixing) if ok}
        want = {frozenset(h.elements()) for h in fn.all_subgroups(g)
                if set(h.elements()) <= inside}
        got = fn._subgroups_inside(fn._cayley_table(elems), fixing)
        assert {frozenset(elems[i] for i in h) for h in got} == want
        # Jordan: none of them is transitive
        assert not any(fn.PermGroup(g.degree, h).is_transitive() for h in want)
        counts.append(len(want))
    assert counts[:3] == [15, 116, 596]


# -- differential tests against the former numpy implementation --------------

A5 = fn.PermGroup(5, [fn.Permutation.from_cycles("(0 1 2)", 5),
                      fn.Permutation.from_cycles("(0 1 2 3 4)", 5)])
ORACLE_GROUPS = ([fn.symmetric_group(n) for n in (4, 5, 6, 7)]
                 + [fn.dihedral_group(n) for n in range(5, 9)] + [A4, A5])


@pytest.mark.parametrize("g", ORACLE_GROUPS, ids=repr)
def test_tables_and_subgroup_search_match_numpy_oracle(g):
    """Same Cayley table, and the same subgroups with the same generator
    lists: under the fixing mask everywhere, over the whole group where the
    lattice is listed."""
    elems = g.elements()
    table = fn._cayley_table(elems)
    want = oracle._cayley_table(elems)
    assert [row.tolist() for row in table] == want.tolist()
    masks = [_fixing_mask(g)]
    if len(elems) <= fn.MAX_LATTICE_ORDER:
        masks.append([True] * len(elems))
    for mask in masks:
        got = fn._subgroups_inside(table, mask)
        assert got == oracle._subgroups_inside(want, mask)
        assert all(type(x) is int for gens in got.values() for x in gens)


def test_quaternion_subgroups_match_numpy_oracle():
    q8 = fn.quaternion_group()
    rows = [row.tolist() for row in q8.table]
    got = fn._subgroups_inside(q8.table, [True] * 8)
    assert len(got) == 6
    assert got == oracle._subgroups_inside(rows, [True] * 8)


def test_census_graphs_match_numpy_oracle():
    """Representatives and automorphism groups of every graph the census
    visits, to 7 vertices, element order included."""
    for n in range(1, fn.MAX_CENSUS_VERTICES + 1):
        reps = fn._iso_class_reps(n)
        assert reps == oracle._iso_class_reps(n), n
        for mask in reps:
            fg = fn._mask_to_graph(n, mask)
            got = [p.images for p in fn.graph_automorphisms(fg).elements()]
            assert got == oracle.graph_automorphisms(fg)
