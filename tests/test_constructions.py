from __future__ import annotations

import pytest

from bruhat_cubulator import constructions as cx
from bruhat_cubulator.bruhat import interval
from bruhat_cubulator.coxeter import CoxeterSystem, build_system
from bruhat_cubulator.kl import all_trivial
from bruhat_cubulator.search import cubulate, verify_certificate

from conftest import system


class TestNormalFormForest:
    """The forest's trees are read off the parabolic factors x_k of w0."""

    def test_a3_paths(self, a3):
        paths = [x.word for x in a3.parabolic_factorize(a3.longest_element())]
        assert paths == [(1,), (2, 1), (3, 2, 1)]
        assert cx.path_forest_cubulation(a3).lattice.params == (1, 2, 3)

    def test_b3_paths(self, b3):
        paths = [x.word for x in b3.parabolic_factorize(b3.longest_element())]
        assert paths == [(1,), (2, 1, 2), (3, 2, 1, 2, 3)]
        assert cx.path_forest_cubulation(b3).lattice.params == (1, 3, 5)

    def test_d4_branches(self):
        d4 = system("D4")
        w0 = d4.longest_element()
        nodes_if_paths = 1
        for x in d4.parabolic_factorize(w0):
            nodes_if_paths *= x.length + 1
        assert nodes_if_paths < len(interval(w0).vertices) == 192
        with pytest.raises(ValueError, match="not a path forest"):
            cx.path_forest_cubulation(d4)


@pytest.mark.parametrize(
    "tag,top,construct",
    [
        ("Atilde2", lambda s: cx.y_m(s, 6), lambda s: cx.atilde2_cubulation(s, 6)),
        ("B4", CoxeterSystem.longest_element, cx.path_forest_cubulation),
    ],
    ids=["atilde2-6", "path-forest-B4"],
)
def test_constructions_canonicalize_no_word(monkeypatch, tag, top, construct):
    """Past the top element, a construction finds each vertex's id by
    ``id_of`` on an index word: no word is canonicalized, although the
    interval interns no vertex Element."""
    sys = build_system(tag)
    top(sys)
    calls = []
    canonical = CoxeterSystem._canonical

    def counting(self, key):
        calls.append(key)
        return canonical(self, key)

    monkeypatch.setattr(CoxeterSystem, "_canonical", counting)
    assert construct(sys).tag in ("atilde2", "nff-B")
    assert calls == []


class TestPathForestCubulation:
    @pytest.mark.parametrize(
        "tag,params,tag_name",
        [
            ("A1", (1,), "nff-A"),
            ("A2", (1, 2), "nff-A"),
            ("A3", (1, 2, 3), "nff-A"),
            ("A4", (1, 2, 3, 4), "nff-A"),
            ("B2", (1, 3), "nff-B"),
            ("B3", (1, 3, 5), "nff-B"),
            ("G2", (1, 5), "nff-B"),
            ("I2(5)", (1, 4), "nff-B"),
            ("I2(8)", (1, 7), "nff-B"),
        ],
    )
    def test_families(self, tag, params, tag_name):
        res = cx.path_forest_cubulation(system(tag))
        assert res.lattice.params == params
        assert res.tag == tag_name
        assert verify_certificate(res.interval, res.certificate)

    def test_branching_forest_rejected(self):
        for tag in ("D4", "D5", "F4", "H3"):
            with pytest.raises(ValueError, match="not a path forest"):
                cx.path_forest_cubulation(system(tag))

    def test_infinite_rejected(self, atilde2):
        with pytest.raises(ValueError, match="finite system"):
            cx.path_forest_cubulation(atilde2)


class TestBoolean:
    def test_coxeter_element(self, a3):
        res = cx.standard_parabolic_coxeter_cubulation(a3.element((2, 1, 3)))
        assert res.lattice.params == (1, 1, 1)
        assert len(res.interval.vertices) == 8
        assert verify_certificate(res.interval, res.certificate)

    def test_identity(self, a3):
        res = cx.standard_parabolic_coxeter_cubulation(a3.identity)
        assert res.lattice.params == (0,)

    def test_repeated_letter_rejected(self, a3):
        with pytest.raises(ValueError):
            cx.standard_parabolic_coxeter_cubulation(a3.element((1, 2, 1)))


class TestDihedral:
    @pytest.mark.parametrize("tag,k", [("I2(5)", 3), ("I2(5)", 5), ("I2(7)", 4), ("Atilde1", 6)])
    def test_lengths(self, tag, k):
        sys = system(tag)
        word = tuple(1 if i % 2 == 0 else 2 for i in range(k)) if tag != "Atilde1" else tuple(
            0 if i % 2 == 0 else 1 for i in range(k)
        )
        res = cx.dihedral_cubulation(sys.element(word))
        assert res.lattice.params == (1, k - 1)
        assert verify_certificate(res.interval, res.certificate)

    def test_short_rejected(self):
        with pytest.raises(ValueError):
            cx.dihedral_cubulation(system("I2(5)").generator(1))

    def test_rank_guard(self, a3):
        with pytest.raises(ValueError):
            cx.dihedral_cubulation(a3.element((1, 2)))


class TestAffineFamily:
    def test_y_m_words(self, atilde2):
        assert cx.y_m(atilde2, 0).word == (1, 2, 1)
        assert cx.y_m(atilde2, 1).length == 5
        assert cx.y_m(atilde2, 3).length == 9
        with pytest.raises(ValueError):
            cx.y_m(atilde2, -1)

    def test_wrong_system_rejected(self, a3):
        with pytest.raises(ValueError):
            cx.y_m(a3, 1)
        with pytest.raises(ValueError):
            cx.atilde2_cubulation(system("Ctilde2"), 1)

    @pytest.mark.parametrize("m,params,size", [(1, (2, 1, 2), 18), (2, (2, 2, 3), 36), (3, (2, 3, 4), 60)])
    def test_small_members(self, atilde2, m, params, size):
        res = cx.atilde2_cubulation(atilde2, m)
        assert res.lattice.params == params
        assert len(res.interval.vertices) == size
        assert verify_certificate(res.interval, res.certificate)
        # the maximal lattice vertex maps onto the interval top
        top_coords = (2, m, m + 1)
        assert res.certificate.assignment[top_coords] == len(res.interval.vertices) - 1

    def test_m_zero_is_dihedral(self, atilde2):
        with pytest.raises(ValueError):
            cx.atilde2_cubulation(atilde2, 0)

    def test_search_agrees(self, atilde2):
        for m in (1, 2):
            y = cx.y_m(atilde2, m)
            assert cubulate(y).status == "Found"


class TestTrivialEnumeration:
    def test_short_range_classes(self, atilde2):
        pairs = cx.atilde2_trivial_enumeration(atilde2, 3)
        assert all(all_trivial(y) for y, _ in pairs)
        # every element of length <= 3 has a trivial table: lengths 0-2 are
        # boolean or dihedral, and length 3 splits into six distinct-letter
        # elements and three dihedral-type elements
        lengths = sorted(y.length for y, _ in pairs)
        assert lengths == [0] + [1] * 3 + [2] * 6 + [3] * 9
        reps = {rep.word for _, rep in pairs}
        assert reps == {(), (1,), (1, 2), (1, 2, 0), (1, 2, 1)}

    def test_unmatched_class_at_length_four(self, atilde2):
        # the trivial length-4 elements are s_a s_b s_a s_c and their
        # inverses s_c s_a s_b s_a; inversion is not a relabeling, so they
        # form two classes of three elements each
        pairs = cx.atilde2_trivial_enumeration(atilde2, 4)
        assert all(all_trivial(y) for y, _ in pairs)
        length_four = {y.word: rep.word for y, rep in pairs if y.length == 4}
        assert length_four == {
            (1, 2, 1, 0): (1, 2, 1, 0),
            (0, 1, 0, 2): (1, 2, 1, 0),
            (0, 2, 0, 1): (1, 2, 1, 0),
            (0, 1, 2, 1): (0, 1, 2, 1),
            (1, 0, 2, 0): (0, 1, 2, 1),
            (2, 0, 1, 0): (0, 1, 2, 1),
        }
