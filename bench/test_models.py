"""Tests of the reference models and of the checks built on them.

Run from the root of a checkout:  python3 -m pytest bench -q

The model tests use known facts about the groups, never the program.  The
check tests feed the checks real CLI output with a planted fault and
expect them to reject it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import models  # noqa: E402
from run import Output  # noqa: E402

# Coxeter matrices of the program's labellings, written out by hand
BONDS = {
    ("A", 3): {(1, 2): 3, (2, 3): 3},
    ("A", 4): {(1, 2): 3, (2, 3): 3, (3, 4): 3},
    ("B", 3): {(1, 2): 4, (2, 3): 3},
    ("B", 4): {(1, 2): 4, (2, 3): 3, (3, 4): 3},
    ("D", 4): {(1, 2): 3, (2, 3): 3, (2, 4): 3},
    ("D", 5): {(1, 2): 3, (2, 3): 3, (3, 4): 3, (3, 5): 3},
}


def element_order(compose, identity, w):
    k, x = 1, w
    while x != identity:
        x, k = compose(x, w), k + 1
    return k


@pytest.mark.parametrize("kind,n", sorted(BONDS))
def test_signed_permutations_have_the_program_bond_orders(kind, n):
    model = models.SignedPermutations(kind, n)
    gens = model.gens
    for a in gens:
        assert model.length(gens[a]) == 1
        for b in gens:
            if a < b:
                want = BONDS[(kind, n)].get((a, b), 2)
                got = element_order(model.compose, model.identity, model.compose(gens[a], gens[b]))
                assert got == want, (a, b)


@pytest.mark.parametrize("kind,n", sorted(BONDS))
def test_group_order_poincare_polynomial_and_reflections(kind, n):
    model = models.SignedPermutations(kind, n)
    elems = model.elements()
    assert len(elems) == model.order()
    counts = [0] * (len(model.positive_roots) + 1)
    for w in elems:
        counts[model.length(w)] += 1
    assert counts == models.qproduct(model.degrees())
    assert len(model.reflections) == len(model.positive_roots)
    for t in model.reflections:
        assert model.compose(t, t) == model.identity and model.length(t) % 2 == 1
    w = model.from_word([1, 2, 1] if kind != "B" else [2, 1, 2])
    assert model.compose(w, model.inverse(w)) == model.identity


def test_two_bruhat_tests_of_the_symmetric_group_agree():
    S = models.Permutations(4)
    signed = models.SignedPermutations("A", 3)
    words = {}
    for w in S.elements():
        # a reduced word by bubble sort
        word, x = [], list(w)
        while x != sorted(x):
            i = next(i for i in range(3) if x[i] > x[i + 1])
            x[i], x[i + 1] = x[i + 1], x[i]
            word.append(i + 1)
        words[w] = word[::-1]
    assert all(S.from_word(word) == w for w, word in words.items())
    order, index, below = models.bruhat_below(signed, signed.elements())
    for x, wx in words.items():
        for y, wy in words.items():
            a, b = signed.from_word(wx), signed.from_word(wy)
            assert S.leq(x, y) == bool(below[index[b]] >> index[a] & 1)


def test_symmetric_kl_polynomials():
    S = models.Permutations(4)
    P = S.kl_polynomials()
    e = S.identity
    nontrivial = {w for (x, w), p in P.items() if x == e and p != [1]}
    assert nontrivial == {(3, 4, 1, 2), (4, 2, 3, 1)}
    assert P[(e, (3, 4, 1, 2))] == P[(e, (4, 2, 3, 1))] == [1, 1]
    for n in (4, 5):
        S = models.Permutations(n)
        P = S.kl_polynomials()
        w0 = tuple(range(n, 0, -1))
        assert all(p == [1] for (x, w), p in P.items() if w == w0)


def test_affine_permutations():
    A = models.AffinePermutations(3)
    g = A.gens
    for a in g:
        assert A.length(g[a]) == 1 and A.compose(g[a], g[a]) == A.identity
        assert A.is_reflection(g[a])
        for b in g:
            if a < b:
                assert element_order(A.compose, A.identity, A.compose(g[a], g[b])) == 3
    ball = A.ball(8)
    counts = [0] * 9
    for w in ball:
        counts[A.length(w)] += 1
    assert counts == models.bott_series([1, 2], 8)
    for w, word in ball.items():
        assert A.from_word(word) == w and A.compose(w, A.inverse(w)) == A.identity
    # conjugates of generators are reflections, products of two are not
    x = A.from_word([0, 1, 2, 1])
    assert A.is_reflection(A.compose(A.compose(x, g[0]), A.inverse(x)))
    assert not A.is_reflection(A.compose(g[0], g[1]))
    for m in range(5):
        word = checks.y_m_word(m)
        assert len(A.lower_interval(word)) == 3 * (m + 1) * (m + 2)


def test_affine_growth_of_rank_four_matches_bott():
    A = models.AffinePermutations(5)
    counts = [0] * 7
    for w in A.ball(6):
        counts[A.length(w)] += 1
    assert counts == models.bott_series([1, 2, 3, 4], 6)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_bott_series_of_affine_type_a(n):
    # (1 - z^(n+1)) / (1 - z)^(n+1)
    denom = [1]
    for _ in range(n + 1):
        denom = models.pmul(denom, [1, -1])
    numer = [1] + [0] * n + [-1]
    assert models.bott_series(range(1, n + 1), 12) == models.series_div(numer, denom, 12)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 8, 12])
def test_dihedral_r_closed_form_matches_the_descent_recursion(m):
    D = models.Dihedral(m)
    elems = sorted(D.elements(), key=D.length)
    memo = {}

    def R(x, y):
        if x == y:
            return [1]
        if D.length(x) >= D.length(y):
            return []
        if (x, y) not in memo:
            s = next(g for g in D.gens.values() if D.length(D.compose(y, g)) < D.length(y))
            xs, ys = D.compose(x, s), D.compose(y, s)
            if D.length(xs) < D.length(x):
                memo[(x, y)] = R(xs, ys)
            else:
                memo[(x, y)] = models.padd(models.pscale(R(xs, ys), 1, 1), models.pmul([-1, 1], R(x, ys)))
        return memo[(x, y)]

    for x in elems:
        for y in elems:
            if D.length(x) < D.length(y):
                assert R(x, y) == models.dihedral_r(D.length(y) - D.length(x))
    assert models.dihedral_r(3) == [-1, 2, -2, 1]


# ---------------------------------------------------------------------------
# the checks reject planted faults


def cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "bruhat_cubulator.cli", *argv], capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return Output(proc.returncode, proc.stdout, proc.stderr.decode(), 0.0, 0.0)


def altered(out, doc):
    return Output(out.code, json.dumps(doc).encode(), out.stderr, 0.0, 0.0)


def test_certificate_check_rejects_a_swapped_pair():
    out = cli("cubulate", "--system", "A3", "--element", "w0")
    check = checks.cubulate_w0("A", 3)
    check(out, {})
    doc = json.loads(out.stdout)
    entries = doc["certificate"]["assignment"]
    rank2 = [e for e in entries if sum(e["coords"]) == 2]
    rank2[0]["word"], rank2[1]["word"] = rank2[1]["word"], rank2[0]["word"]
    with pytest.raises(checks.Wrong):
        check(altered(out, doc), {})


def test_dihedral_check_rejects_r_as_a_power_of_q_minus_1():
    out = cli("kl", "--system", "I2(5)", "--element", "w0")
    check = checks.kl_dihedral(5)
    check(out, {})
    doc = json.loads(out.stdout)
    lengths = [v["length"] for v in doc["vertices"]]
    for e in doc["pairs"]:
        d = lengths[e["y"]] - lengths[e["x"]]
        r = [1]
        for _ in range(d):
            r = models.pmul(r, [-1, 1])
        e["R"] = r
    with pytest.raises(checks.Wrong):
        check(altered(out, doc), {})


def test_interval_check_rejects_a_dropped_vertex():
    out = cli("interval", "--system", "A3", "--element", "w0")
    check = checks.interval_w0("A", 3)
    check(out, {})
    doc = json.loads(out.stdout)
    doc["vertices"].pop(5)
    with pytest.raises(checks.Wrong):
        check(altered(out, doc), {})


def test_kl_properties_reject_a_wrong_polynomial():
    out = cli("kl", "--system", "A3", "--word", "2 1 3 2")
    check = checks.kl_symmetric(3, checks.a3_2132_values)
    check(out, {})
    doc = json.loads(out.stdout)
    bad = next(e for e in doc["pairs"] if e["P"] == [1, 1])
    bad["P"] = [1]
    with pytest.raises(checks.Wrong):
        checks.kl_properties(doc)


def test_stale_checkpoint_verdicts():
    exhausted = Output(1, b'{"status": "Exhausted"}', "", 0.0, 0.0)
    with pytest.raises(checks.Failed):
        checks.stale_resume(exhausted, {})
    checks.stale_resume(Output(2, b"", "error: checkpoint is for B3", 0.0, 0.0), {})
    with pytest.raises(checks.Failed):
        checks.stale_resume(Output(2, b"", "", 0.0, 0.0), {})


def test_enumeration_check_rejects_a_missing_element():
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "enumerate_job.py"), "6"], capture_output=True, env=env
    )
    out = Output(proc.returncode, proc.stdout, "", 0.0, 0.0)
    check = checks.enumeration(6)
    check(out, {})
    doc = json.loads(out.stdout)
    doc["trivial"].pop()
    with pytest.raises(checks.Wrong):
        check(altered(out, doc), {})
