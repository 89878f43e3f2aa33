from __future__ import annotations

import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_cubulator import serialize
from bruhat_cubulator.bruhat import interval
from bruhat_cubulator.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    Cubulation,
    _augment,
    _match_rank,
    candidate_shapes,
    cubulate,
    search,
    verify_certificate,
    verify_certificate_detailed,
)

import oracles
from conftest import system


def replay_at(iv, path, min_id) -> dict:
    """A checkpoint of the search of ``iv`` that replays ``path`` and then
    ``min_id``; its job fields come from a budget=1 run's checkpoint."""
    return dict(search(iv, budget=1).checkpoint, path=path, min_id=min_id)


class TestCandidateShapes:
    def test_a2(self, a2):
        assert candidate_shapes(interval(a2.longest_element())) == [(2, 3)]

    def test_identity(self, a2):
        assert candidate_shapes(interval(a2.identity)) == [()]

    def test_obstructed(self, a3):
        # a non-palindromic rank generating function admits no shape
        assert candidate_shapes(interval(a3.element((2, 1, 3, 2)))) == []

    @pytest.mark.parametrize("tag,max_length", [("A4", None), ("B3", None), ("H3", None), ("Atilde2", 7)])
    def test_at_most_one_shape(self, tag, max_length):
        sys = system(tag)
        if max_length is None:
            max_length = sys.longest_element().length
        for layer in sys.ball_layers(max_length):
            for y in layer:
                assert len(candidate_shapes(interval(y))) <= 1, y


class TestSearch:
    def test_found_verifies(self, a3):
        iv = interval(a3.longest_element())
        out = search(iv)
        assert out.status == FOUND
        assert verify_certificate(iv, out.certificate)
        assert out.stats["nodes_expanded"] > 0

    def test_budget_and_resume_reproduce_full_run(self, b3):
        iv = interval(b3.longest_element())
        full = search(iv)
        assert full.status == FOUND
        # walk the same tree in slices and confirm the identical certificate
        out = search(iv, budget=40)
        used = out.stats["nodes_expanded"]
        while out.status == BUDGET_EXCEEDED:
            out = search(iv, budget=40, checkpoint=out.checkpoint)
            used += out.stats["nodes_expanded"]
        assert out.status == FOUND
        assert out.certificate.assignment == full.certificate.assignment
        assert used == full.stats["nodes_expanded"]

    def test_budget_must_be_positive(self, a2):
        with pytest.raises(ValueError):
            search(interval(a2.longest_element()), budget=0)

    def test_checkpoint_replay_guard(self, a2):
        iv = interval(a2.longest_element())
        out = search(iv, budget=3)
        assert out.status == BUDGET_EXCEEDED
        with pytest.raises(ValueError, match="does not replay"):
            search(iv, checkpoint=dict(out.checkpoint, path=[99], min_id=0))

    def test_checkpoint_min_id_must_replay(self, b3):
        # min_id replays like one more path entry: it must be a candidate,
        # and there must be a depth left to hold it
        iv = interval(b3.longest_element())
        out = search(iv, budget=5)
        assert out.status == BUDGET_EXCEEDED
        full = search(iv)
        complete = [full.certificate.assignment[v] for v in full.certificate.lattice.vertices()]
        for path, min_id in ((out.checkpoint["path"], 1000), (complete, 0)):
            with pytest.raises(ValueError, match="does not replay"):
                search(iv, checkpoint=replay_at(iv, path, min_id))

    def test_checkpoint_id_past_the_interval_is_stale_unshifted(self, a2):
        # an id is checked against the interval before a mask is shifted by
        # it, so a small document cannot set the size of an allocation
        iv = interval(a2.longest_element())
        cp = replay_at(iv, [0], 10**8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="does not replay"):
                search(iv, checkpoint=cp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError, match="does not replay"):
            search(iv, checkpoint=dict(cp, path=[10**8], min_id=0))

    @pytest.mark.parametrize(
        "tag,status,nodes,forward,matching",
        [
            ("A4", FOUND, 124, 0, 4),
            ("B3", FOUND, 800, 20, 173),
            ("H3", FOUND, 165, 1, 11),
            ("D4", FOUND, 227, 1, 13),
            ("B4", FOUND, 29_904, 595, 4_996),
            ("D5", FOUND, 18_963, 410, 2_771),
            ("F4", EXHAUSTED, 56_049, 2_088, 10_168),
        ],
        ids=["A4", "B3", "H3", "D4", "B4", "D5", "F4"],
    )
    def test_node_counts(self, tag, status, nodes, forward, matching):
        # node counts are behaviour: a change to the candidate sets or the
        # pruning rules moves them, and the prune counts pin each rule's
        # decisions
        out = cubulate(system(tag).longest_element())
        assert out.status == status
        assert out.stats["nodes_expanded"] == nodes
        assert out.stats["prunes_forward"] == forward
        assert out.stats["prunes_matching"] == matching

    def test_equal_parameters_order_the_unit_vectors(self):
        # D4 w0 has shape (2, 4, 4, 6), lattice C(1, 3, 3, 5): e_1 and e_2
        # have equal parameters and e_2 is searched first, so the image of
        # e_1 must exceed that of e_2
        d4 = system("D4")
        iv = interval(d4.longest_element())
        assert candidate_shapes(iv) == [(2, 4, 4, 6)]
        s1, s2, s3, s4 = (iv.id_of(d4.generator(a).iword) for a in (1, 2, 3, 4))
        # search positions 0-3: the origin, e_3, e_2, e_1
        ok = replay_at(iv, [0, s1, s3, s4], s2)
        assert search(iv, budget=1, checkpoint=ok).status == BUDGET_EXCEEDED
        swapped = dict(ok, path=[0, s1, s4, s3])
        with pytest.raises(ValueError, match="does not replay"):
            search(iv, budget=1, checkpoint=swapped)

    def test_position_one_takes_orbit_minima(self):
        # the diagram automorphism of F4 fixes w0 and swaps s1 <-> s4 and
        # s2 <-> s3, so the first rank-1 lattice vertex takes s1 or s2 only
        f4 = system("F4")
        iv = interval(f4.longest_element())
        ids = {a: iv.id_of(f4.generator(a).iword) for a in f4.labels}
        for a in f4.labels:
            cp = replay_at(iv, [0], ids[a])
            if a in (1, 2):
                assert search(iv, budget=1, checkpoint=cp).status == BUDGET_EXCEEDED
            else:
                with pytest.raises(ValueError, match="does not replay"):
                    search(iv, budget=1, checkpoint=cp)

    def test_forward_prunes_are_counted_apart(self, b3):
        iv = interval(b3.longest_element())
        out = search(iv)
        assert 0 < out.stats["prunes_forward"] < out.stats["nodes_expanded"]
        assert "prunes_forward" not in serialize.outcome_doc(iv, out)["stats"]

    def test_matching_prunes_are_counted_apart(self, b3):
        iv = interval(b3.longest_element())
        out = search(iv)
        assert 0 < out.stats["prunes_matching"] < out.stats["nodes_expanded"]
        assert "prunes_matching" not in serialize.outcome_doc(iv, out)["stats"]

    def test_f4_budget_and_resume_sum_to_the_full_count(self):
        f4 = system("F4")
        iv = interval(f4.longest_element())
        first = search(iv, budget=20_000)
        assert first.status == BUDGET_EXCEEDED
        rest = search(iv, checkpoint=first.checkpoint)
        assert rest.status == EXHAUSTED
        assert first.stats["nodes_expanded"] + rest.stats["nodes_expanded"] == 56_049

    def test_b4_budget_and_resume_reproduce_the_full_run(self):
        iv = interval(system("B4").longest_element())
        full = search(iv)
        assert full.stats["nodes_expanded"] == 29_904
        first = search(iv, budget=10_000)
        assert first.status == BUDGET_EXCEEDED
        rest = search(iv, checkpoint=first.checkpoint)
        assert rest.status == FOUND
        assert rest.certificate.assignment == full.certificate.assignment
        assert first.stats["nodes_expanded"] + rest.stats["nodes_expanded"] == 29_904

    def test_b4_checkpoint_of_search_rules_2_resumes(self):
        # a checkpoint written at 10,000 nodes by an earlier implementation
        # of the same rules (SEARCH_RULES 2) resumes to its certificate and
        # to the full count
        iv = interval(system("B4").longest_element())
        cp = dict(
            search(iv, budget=1).checkpoint,
            path=[
                0, 1, 4, 3, 2, 8, 7, 13, 6, 12, 9, 5, 10, 11, 14, 22, 19, 29, 26, 18, 28,
                21, 24, 15, 20, 16, 25, 17, 27, 23, 31, 32, 44, 39, 53, 36, 50, 38, 52, 45,
                43, 47, 40, 34, 30, 41, 35, 48, 49, 37, 51, 42, 46, 33, 56, 57, 58, 74, 85,
                67, 59, 64, 82,
            ],
            min_id=66,
        )
        rest = search(iv, checkpoint=cp)
        assert rest.status == FOUND
        assert 10_000 + rest.stats["nodes_expanded"] == 29_904
        cert = rest.certificate
        ids = [cert.assignment[v] for v in cert.lattice.vertices()]
        # SHA-256 of the JSON list of ids in lattice vertex order
        assert hashlib.sha256(json.dumps(ids).encode()).hexdigest() == (
            "eb7da8789517ed5551922ec5e7495cec84cf278044e58d739d696bfb07173a57"
        )


class TestCheckpointBinding:
    """``search`` binds a checkpoint to its job before replaying it, so every
    caller (``cubulate``, the CLI, the suites) refuses another job's."""

    @pytest.fixture
    def cp(self, a3):
        # 1 2 and its inverse 2 1 have the same candidate shape, (2, 2)
        out = search(interval(a3.element((1, 2))), budget=1)
        assert out.status == BUDGET_EXCEEDED
        return out.checkpoint

    def test_own_job_resumes(self, a3, cp):
        assert search(interval(a3.element((1, 2))), checkpoint=cp).status == FOUND

    def test_inverse_is_refused(self, a3, cp):
        with pytest.raises(ValueError, match="checkpoint top"):
            search(interval(a3.element((2, 1))), checkpoint=cp)

    def test_other_shape_is_refused(self, a3, cp):
        with pytest.raises(ValueError, match="checkpoint shape"):
            search(interval(a3.element((1, 2))), checkpoint=dict(cp, shape=[2, 3]))

    def test_other_system_is_refused(self, cp):
        with pytest.raises(ValueError, match="checkpoint system"):
            search(interval(system("B3").element((1, 2))), checkpoint=cp)

    def test_other_search_rules_are_refused(self, a3, cp):
        with pytest.raises(ValueError, match="checkpoint search_rules"):
            search(interval(a3.element((1, 2))), checkpoint=dict(cp, search_rules=1))

    @pytest.mark.parametrize("field", ["system", "top", "search_rules", "shape"])
    def test_missing_job_field_is_refused(self, a3, cp, field):
        unbound = {k: v for k, v in cp.items() if k != field}
        with pytest.raises(ValueError, match=f"checkpoint lacks {field}"):
            search(interval(a3.element((1, 2))), checkpoint=unbound)

    def test_shapeless_job_refuses_a_checkpoint(self, a3):
        # 2 1 3 2 has no candidate shape; a checkpoint naming one is not its own
        iv = interval(a3.element((2, 1, 3, 2)))
        cp = dict(replay_at(interval(a3.element((1, 2))), [0], 1), top=[2, 1, 3, 2])
        with pytest.raises(ValueError, match="checkpoint shape"):
            search(iv, checkpoint=cp)


def hall_condition(domains) -> bool:
    """Brute force: every set of vertices has at least as many ids in the
    union of its domains (Hall, 1935)."""
    for subset in range(1 << len(domains)):
        union = 0
        for q, dom in enumerate(domains):
            if subset >> q & 1:
                union |= dom
        if bin(union).count("1") < bin(subset).count("1"):
            return False
    return True


def check_matching(domains, blocked, match, vertices):
    held = [match[q] for q in vertices]
    assert len(set(held)) == len(held)
    for q in vertices:
        assert (domains[q] & ~blocked) >> match[q] & 1


class TestMatching:
    """The rank matching agrees with Hall's condition, built fresh and
    repaired after each of a run of assignments.  A family of k domains
    over the ids 0..k-1 has a perfect matching exactly when Hall's
    condition holds."""

    families = st.integers(1, 6).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, (1 << k) - 1), min_size=k, max_size=k),
            st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=k),
        )
    )

    @settings(max_examples=300, deadline=None)
    @given(families)
    def test_agrees_with_hall(self, family):
        domains, steps = family
        k = len(domains)
        match, owner = [0] * k, [0] * k
        ok = _match_rank(0, k, domains, match, owner)
        assert ok == hall_condition(domains)
        if not ok:
            return
        check_matching(domains, 0, match, range(k))
        # assign vertices one at a time, as the search does: each takes an
        # id of its domain, and the rest must be matched onto the other ids
        rest, blocked = list(range(k)), 0
        for which, pick in steps:
            p = rest[which % len(rest)]
            choices = [i for i in range(k) if (domains[p] & ~blocked) >> i & 1]
            cid = choices[pick % len(choices)]
            others = [q for q in rest if q != p]
            expected = hall_condition([domains[q] & ~blocked & ~(1 << cid) for q in others])
            before = list(match)
            o = owner[cid]
            repaired = o == p or _augment(o, 1 << match[p], domains, blocked | 1 << cid, match, owner) >= 0
            assert repaired == expected
            if not repaired:
                assert match == before
                return
            # the vertices assigned before keep their ids
            assert all(match[q] == before[q] for q in range(k) if q not in rest)
            match[p] = cid
            owner[cid] = p
            rest, blocked = others, blocked | 1 << cid
            check_matching(domains, blocked, match, rest)

    def test_ids_in_no_domain(self):
        # four vertices whose domains leave id 3 out: no perfect matching
        match, owner = [0] * 4, [0] * 4
        assert not _match_rank(0, 4, [0b0111, 0b0011, 0b0101, 0b0110], match, owner)
        assert not _match_rank(0, 2, [0b01, 0], match, owner)


class TestCubulate:
    def test_identity(self, a2):
        out = cubulate(a2.identity)
        assert out.status == FOUND
        assert out.certificate.lattice.params == (0,)

    def test_exhausted_no_shapes(self, a3):
        out = cubulate(a3.element((2, 1, 3, 2)))
        assert out.status == EXHAUSTED
        assert out.stats["shapes_tried"] == 0

    def test_h4_w0_is_exhausted(self):
        # the one candidate shape of H4 w0, (2, 12, 20, 30), has no cubulation
        out = cubulate(system("H4").longest_element())
        assert out.status == EXHAUSTED
        assert out.stats["nodes_expanded"] == 544_863

    def test_checkpoint_is_bound_to_its_job(self, a3):
        # 1 2 and its inverse 2 1 have the same candidate shape, (2, 2)
        y = a3.element((1, 2))
        out = cubulate(y, budget=1)
        assert out.status == BUDGET_EXCEEDED
        assert cubulate(y, checkpoint=out.checkpoint).status == FOUND
        with pytest.raises(ValueError, match="checkpoint top"):
            cubulate(a3.element((2, 1)), checkpoint=out.checkpoint)
        with pytest.raises(ValueError, match="checkpoint system"):
            cubulate(system("B3").element((1, 2)), checkpoint=out.checkpoint)
        with pytest.raises(ValueError, match="checkpoint search_rules"):
            cubulate(y, checkpoint=dict(out.checkpoint, search_rules=1))
        unbound = {k: v for k, v in out.checkpoint.items() if k != "search_rules"}
        with pytest.raises(ValueError, match="checkpoint lacks search_rules"):
            cubulate(y, checkpoint=unbound)

    def test_budget_checkpoint_names_shape(self, b3):
        out = cubulate(b3.longest_element(), budget=5)
        assert out.status == BUDGET_EXCEEDED
        assert tuple(out.checkpoint["shape"]) in candidate_shapes(interval(b3.longest_element()))
        resumed = cubulate(b3.longest_element(), checkpoint=out.checkpoint)
        assert resumed.status == FOUND


class TestVerifier:
    def _found(self, sys):
        iv = interval(sys.longest_element())
        out = search(iv)
        return iv, out.certificate

    def test_accepts_good_certificate(self, a3):
        iv, cert = self._found(a3)
        assert verify_certificate(iv, cert)

    def test_rejects_missing_vertex(self, a2):
        iv, cert = self._found(a2)
        bad = dict(cert.assignment)
        del bad[(1, 2)]
        ok, msg = verify_certificate_detailed(iv, Cubulation(cert.lattice, bad))
        assert not ok and "vertices" in msg

    def test_rejects_non_bijection(self, a2):
        iv, cert = self._found(a2)
        bad = dict(cert.assignment)
        bad[(1, 2)] = bad[(0, 0)]
        ok, msg = verify_certificate_detailed(iv, Cubulation(cert.lattice, bad))
        assert not ok and "bijection" in msg

    def test_rejects_rank_mismatch(self, a2):
        iv, cert = self._found(a2)
        bad = dict(cert.assignment)
        # swap two vertices of different rank
        bad[(0, 0)], bad[(1, 2)] = bad[(1, 2)], bad[(0, 0)]
        ok, msg = verify_certificate_detailed(iv, Cubulation(cert.lattice, bad))
        assert not ok and "rank" in msg

    def test_rejects_non_edge(self, b3):
        # some same-rank swap must break a lattice edge and be rejected with
        # an edge-specific message
        iv, cert = self._found(b3)
        coords = sorted(cert.assignment)
        saw_edge_rejection = False
        for i, u in enumerate(coords):
            for v in coords[i + 1 :]:
                if sum(u) != sum(v):
                    continue
                bad = dict(cert.assignment)
                bad[u], bad[v] = bad[v], bad[u]
                ok, msg = verify_certificate_detailed(iv, Cubulation(cert.lattice, bad))
                if not ok and "edge" in msg:
                    saw_edge_rejection = True
                    break
            if saw_edge_rejection:
                break
        assert saw_edge_rejection

    def test_rejects_non_reflection_label_in_the_ring_tier(self):
        # H3's root coordinates lie in Z[2cos(pi/5)]: swap two same-rank
        # vertices until an edge keeps its lengths but not a reflection
        iv, cert = self._found(system("H3"))
        assert verify_certificate(iv, cert)
        coords = sorted(cert.assignment, key=sum)
        for u, v in zip(coords, coords[1:]):
            if sum(u) != sum(v):
                continue
            bad = dict(cert.assignment)
            bad[u], bad[v] = bad[v], bad[u]
            ok, msg = verify_certificate_detailed(iv, Cubulation(cert.lattice, bad))
            if not ok:
                assert msg.endswith("label is not a reflection"), msg
                return
        pytest.fail("no swap was rejected")


class TestOracleAgreement:
    """The search returns the naive recursion's first, lexicographically
    least, assignment: its pruning rules cut only what that one survives."""

    @pytest.mark.parametrize("tag", ["A3", "B3", "H3", "Atilde2"])
    def test_small_elements(self, tag):
        sys = system(tag)
        radius = 4 if tag == "Atilde2" else sys.longest_element().length
        for layer in sys.ball_layers(radius):
            for y in layer:
                out = cubulate(y)
                cert = out.certificate.assignment if out.certificate else None
                assert (out.status, cert) == oracles.naive_cubulate(y), y
