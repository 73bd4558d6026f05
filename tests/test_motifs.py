import itertools
import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from graphonstat import (K2, K3, C4, K12, Motif, MultiMotif, MotifSizeError, clique,
                         cycle, parse_motif, path, star, vertex_join)
import graphonstat.motifs as motif_module

from oracles import all_motifs_up_to, brute_pin_orbits, canonical_multigraph_key, edge_join


def brute_aut(m: Motif, colours=None) -> int:
    count = 0
    for p in itertools.permutations(range(1, m.k + 1)):
        perm = dict(zip(range(1, m.k + 1), p))
        if all(tuple(sorted((perm[u], perm[v]))) in m.edges for u, v in m.edges) and \
                (colours is None or all(colours[perm[v] - 1] == colours[v - 1] for v in perm)):
            count += 1
    return count


@st.composite
def motifs(draw, max_k=6):
    k = draw(st.integers(2, max_k))
    pairs = list(itertools.combinations(range(1, k + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    return Motif.from_edges(k, edges)


class TestAutomorphisms:
    def test_edge(self):
        assert K2.aut == 2

    def test_triangle(self):
        assert K3.aut == 6

    def test_two_star(self):
        # independent check: of the 6 permutations of 3 vertices, exactly the
        # identity and the leaf swap preserve the star
        assert brute_aut(K12) == 2
        assert K12.aut == 2

    def test_c4(self):
        assert C4.aut == 8

    def test_cap(self):
        big = clique(8)
        assert big.aut == 40320
        # the centre is fixed; each 7-clique is permuted freely, and the two swap
        assert vertex_join(big, 1, big, 1).aut == 2 * factorial(7) ** 2

    @given(motifs())
    @settings(max_examples=60, deadline=None)
    def test_relabeling_invariance(self, m):
        perm = dict(zip(range(1, m.k + 1), range(m.k, 0, -1)))
        assert m.relabel(perm).aut == m.aut

    @given(motifs(max_k=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_independent_enumeration(self, m):
        assert m.aut == brute_aut(m)


def random_relabel(m, rng):
    labels = list(range(1, m.k + 1))
    rng.shuffle(labels)
    return dict(zip(range(1, m.k + 1), labels))


class TestCanonicalForm:
    def test_all_motifs_up_to_six_vertices(self):
        # one motif per isomorphism class (classes by exhaustive permutation),
        # checked again under a random relabeling
        rng = random.Random(0)
        motifs = all_motifs_up_to(6)
        assert len(motifs) == 202
        keys = {}
        for m in motifs:
            other = m.relabel(random_relabel(m, rng))
            assert other.canonical_key() == m.canonical_key()
            assert other.aut == m.aut == brute_aut(other)
            keys[m.canonical_key()] = m
            # the labelling relabels the motif onto its key
            _, labelling, _ = other._form()
            relabelled = other.relabel({v: labelling[v - 1] for v in range(1, other.k + 1)})
            assert (relabelled.k, tuple((e, 1) for e in sorted(relabelled.edges))) == \
                other.canonical_key()
        assert len(keys) == len(motifs)

    @pytest.mark.parametrize("size", [1, 2], ids=["vertex", "pair"])
    def test_pinned_keys_and_orbits_up_to_five_vertices(self, size):
        # pins coloured 1, 2, ...: keys split (motif, pins) the way a
        # colour-preserving brute force does, under a random relabeling; aut
        # counts colour-preserving automorphisms; _pin_orbits matches brute force
        rng = random.Random(1)
        ours, brute = {}, {}
        for m in all_motifs_up_to(5):
            assert list(motif_module._pin_orbits(m, size).values()) == brute_pin_orbits(m, size)
            for pins in itertools.combinations(range(1, m.k + 1), size):
                perm = random_relabel(m, rng)
                other = m.relabel(perm)
                colours = [0] * m.k
                for i, p in enumerate(pins, 1):
                    colours[perm[p] - 1] = i
                edges = tuple((e, 1) for e in sorted(other.edges))
                key, labelling, aut = motif_module._canonical_form(m.k, edges, tuple(colours))
                assert aut == brute_aut(other, colours)
                # the labelling maps the coloured graph onto the key
                relabel = {v: labelling[v - 1] for v in range(1, m.k + 1)}
                assert tuple((e, 1) for e in sorted(other.relabel(relabel).edges)) == key[1]
                assert key[2] == tuple(colours[labelling.index(pos)] for pos in range(1, m.k + 1))
                ours.setdefault(key, set()).add((m, pins))
                brute.setdefault(canonical_multigraph_key(m.k, edges, tuple(colours)),
                                 set()).add((m, pins))
        assert set(map(frozenset, ours.values())) == set(map(frozenset, brute.values()))

    def test_multimotif_keys_match_brute_force_isomorphism(self):
        base = [K2, K12, K3, C4, path(4)]
        joins = {edge_join(h1, p1, h2, p2, mode)
                 for h1 in base for h2 in base
                 for p1 in h1.ordered_edges() for p2 in h2.ordered_edges()
                 for mode in ("weak", "strong")}
        ours, brute = {}, {}
        for j in joins:
            ours.setdefault(j.canonical_key(), set()).add(j)
            brute.setdefault(canonical_multigraph_key(j.k, j.edges), set()).add(j)
        assert set(map(frozenset, ours.values())) == set(map(frozenset, brute.values()))
        assert any(max(j.multiplicities.values()) > 1 for j in joins)

    def test_beyond_the_old_caps(self):
        assert cycle(8).aut == 16
        # two 8-cycles at one vertex: reflect either cycle, or swap them
        assert vertex_join(cycle(8), 1, cycle(8), 1).aut == 8
        # 2^7 7! automorphisms and no twin cell: orbit pruning keeps it cheap
        matching = Motif.from_edges(14, [(2 * i + 1, 2 * i + 2) for i in range(7)])
        assert matching.aut == 2 ** 7 * factorial(7)

    def test_leaf_guard(self, monkeypatch):
        # the guard allows K_MAX! leaves; at K_MAX = 3 (6 leaves) the perfect
        # matching on 14 vertices needs more, at K_MAX = 4 (24 leaves) it fits
        edges = tuple(((2 * i + 1, 2 * i + 2), 1) for i in range(7))
        search = motif_module._canonical_form.__wrapped__   # bypass the cache
        monkeypatch.setattr(motif_module, "K_MAX", 3)
        with pytest.raises(MotifSizeError):
            search(14, edges)
        monkeypatch.setattr(motif_module, "K_MAX", 4)
        assert search(14, edges)[2] == 2 ** 7 * factorial(7)


class TestVertexJoin:
    def test_two_edges_make_a_path(self):
        joined = vertex_join(K2, 1, K2, 1)
        assert joined.canonical_key() == K12.canonical_key()
        assert joined.canonical_key() == path(3).canonical_key()

    def test_pan_graph(self):
        # triangle with a pendant edge
        pan = vertex_join(K2, 1, K3, 1)
        assert pan.k == 4 and pan.n_edges == 4
        assert sorted(len(pan.neighbors(v)) for v in range(1, 5)) == [1, 2, 2, 3]

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            vertex_join(K2, 3, K2, 1)
        with pytest.raises(ValueError):
            vertex_join(K2, 1, K3, 0)

    @given(motifs(max_k=5), motifs(max_k=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_forced_by_definition(self, h1, h2, data):
        a = data.draw(st.integers(1, h1.k))
        b = data.draw(st.integers(1, h2.k))
        j = vertex_join(h1, a, h2, b)
        assert j.k == h1.k + h2.k - 1
        assert j.n_edges == h1.n_edges + h2.n_edges


DIAMOND = Motif.from_edges(4, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])


class TestEdgeJoin:
    def test_weak_join_of_edges(self):
        j = edge_join(K2, (1, 2), K2, (1, 2), "weak")
        assert j.canonical_key() == K2.canonical_key()

    def test_strong_join_of_edges_doubles(self):
        j = edge_join(K2, (1, 2), K2, (1, 2), "strong")
        assert j.k == 2
        assert j.multiplicities == {(1, 2): 2}

    def test_weak_join_of_triangles(self):
        j = edge_join(K3, (1, 2), K3, (1, 2), "weak")
        assert j.k == 4
        assert sum(j.multiplicities.values()) == 5
        # two triangles sharing one edge: simple, the diamond K4 less an edge
        assert j.canonical_key() == DIAMOND.canonical_key()

    def test_strong_join_of_triangles(self):
        j = edge_join(K3, (1, 2), K3, (1, 2), "strong")
        assert sum(j.multiplicities.values()) == 6
        assert j.multiplicities[(1, 2)] == 2

    def test_non_edge_rejected_when_strict(self):
        with pytest.raises(ValueError):
            edge_join(C4, (1, 3), C4, (1, 2), "weak")

    def test_extended_join_on_non_edges(self):
        # both modes merge without adding an edge on the joined pair
        weak = edge_join(C4, (1, 3), C4, (1, 3), "weak", strict=False)
        strong = edge_join(C4, (1, 3), C4, (1, 3), "strong", strict=False)
        assert weak == strong
        assert (1, 3) not in weak.multiplicities

    def test_ordered_pairs_matter(self):
        # joining triangle edges in opposite orientations still merges 2 vertices
        j = edge_join(K3, (1, 2), K3, (2, 1), "weak")
        assert j.canonical_key() == DIAMOND.canonical_key()

    @given(motifs(max_k=5), motifs(max_k=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_weak_strong_differ_only_on_merged_pair(self, h1, h2, data):
        if not h1.edges or not h2.edges:
            return
        p1 = data.draw(st.sampled_from(h1.ordered_edges()))
        p2 = data.draw(st.sampled_from(h2.ordered_edges()))
        weak = edge_join(h1, p1, h2, p2, "weak")
        strong = edge_join(h1, p1, h2, p2, "strong")
        assert weak.k == strong.k == h1.k + h2.k - 2
        a, b = p1
        merged = (min(a, b), max(a, b))
        assert weak.multiplicities[merged] == 1
        assert strong.multiplicities[merged] == 2
        rest = [{e: m for e, m in j.multiplicities.items() if e != merged} for j in (weak, strong)]
        assert rest[0] == rest[1]


class TestIsomorphism:
    def test_relabelled_triangle(self):
        other = Motif.from_edges(3, [(3, 2), (2, 1), (1, 3)])
        assert K3.canonical_key() == other.canonical_key()

    def test_path_is_two_star(self):
        assert K12.canonical_key() == Motif.from_edges(3, [(1, 2), (2, 3)]).canonical_key()

    def test_different_edge_counts(self):
        assert K12.canonical_key() != K3.canonical_key()

    def test_equivalence_relation_on_corpus(self):
        corpus = [K2, K3, C4, K12, path(4), star(3), clique(4),
                  Motif.from_edges(4, [(1, 2), (3, 4)]),
                  Motif.from_edges(4, [(2, 1), (4, 3)]),
                  cycle(4).relabel({1: 3, 2: 1, 3: 4, 4: 2})]
        for a in corpus:
            assert a.canonical_key() == a.canonical_key()
            for b in corpus:
                assert (a.canonical_key() == b.canonical_key()) == \
                    (b.canonical_key() == a.canonical_key())
                for c in corpus:
                    if a.canonical_key() == b.canonical_key() == c.canonical_key():
                        assert a.canonical_key() == c.canonical_key()


class TestValidation:
    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            Motif.from_edges(3, [(1, 1)])

    def test_edge_endpoints_in_range(self):
        with pytest.raises(ValueError):
            Motif.from_edges(3, [(1, 4)])

    def test_min_vertices(self):
        with pytest.raises(ValueError):
            Motif(1, frozenset())

    def test_multimotif_roundtrip(self):
        mm = MultiMotif.from_multiplicities(3, {(1, 2): 1, (2, 3): 1})
        assert mm.canonical_key() == K12.canonical_key()

    def test_multimotif_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError):
            MultiMotif.from_multiplicities(2, {(1, 2): 0})


class TestParse:
    @pytest.mark.parametrize("text,expected", [
        ("k2", K2), ("k3", K3), ("c4", C4), ("p3", K12), ("k12", K12),
        ("n=4;edges=1-2,2-3,3-4,4-1", C4),
    ])
    def test_literals(self, text, expected):
        assert parse_motif(text).canonical_key() == expected.canonical_key()

    def test_explicit_with_isolated_vertex(self):
        m = parse_motif("n=3;edges=1-2")
        assert m.k == 3 and m.n_edges == 1

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_motif("spider")

    def test_rejects_over_cap(self):
        with pytest.raises(MotifSizeError):
            parse_motif("k9")
