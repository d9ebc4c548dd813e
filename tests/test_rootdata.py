"""Root-system and Weyl-group tests."""

import json
import math

import numpy as np
import pytest

from sphfun import cfun
from sphfun import complexmath as cm
from sphfun import rootdata as rd
import conventions as cv

RNG = np.random.default_rng(55)
# every catalog datum, BC2 (m_short2 > 0) included
CATALOG = [rd.datum_a1(), rd.datum_a1(2, 1), rd.datum_a1xa1(),
           rd.datum_a2(), rd.datum_b2(), rd.datum_b2(2, 3, 1)]


def random_param(rank, rng=RNG):
    return rd.SpectralParam.of(
        rng.uniform(-2, 2, rank) + 1j * rng.uniform(-2, 2, rank))


def vec(lam):
    return np.asarray(lam.coords)


def reflection_matrix(d, w):
    """The matrix of w = s_{i1} ... s_{ip}, each s_i = 1 - 2 a a^T / a.a
    formed from the simple root a = simple_roots[i - 1] in NumPy."""
    out = np.eye(d.rank)
    for letter in w.word:
        a = np.asarray(d.simple_roots[letter - 1], dtype=float)
        out = out @ (np.eye(d.rank) - 2.0 * np.outer(a, a) / (a @ a))
    return out


def float_negative_set(d, w):
    """Reference negative set: each positive root mapped by the NumPy
    reflection matrix of w and matched against the negated listed
    roots."""
    pos = np.asarray(d.positive_roots, dtype=float)
    images = pos @ reflection_matrix(d, w).T
    return [i for i, image in enumerate(images)
            if any(np.allclose(image, -gamma, atol=1e-9) for gamma in pos)]


def doc_of(simple, positive, rank=None):
    return {"rank": len(simple[0]) if rank is None else rank,
            "simple_roots": [list(r) for r in simple],
            "positive_indivisible_roots": [list(r) for r in positive],
            "multiplicities": []}


S3 = 3 ** 0.5 / 2
A2_SIMPLE = ((1.0, 0.0), (-0.5, S3))
A2_POSITIVE = A2_SIMPLE + ((0.5, S3),)
# A2 without alpha1 + alpha2, and A1xA1 without its second simple root
INCOMPLETE_DATA = [
    (A2_SIMPLE, A2_SIMPLE),
    (((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0),)),
]


def with_mult(doc, root_index):
    return dict(doc, multiplicities=[
        {"root_index": i, "m_alpha": 1} for i in root_index])


# documents the datum validation rejects, each with RootDatumError
MALFORMED = {
    "zero root": doc_of(A2_SIMPLE, A2_POSITIVE + ((0.0, 0.0),)),
    "zero simple root": doc_of(((1.0, 0.0), (0.0, 0.0)), A2_POSITIVE),
    "wrong length": doc_of(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
                           ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), rank=2),
    "no positive roots": doc_of(A2_SIMPLE, ()),
    "outside the span": doc_of(((1.0, 0.0),), ((1.0, 0.0), (0.0, 1.0)),
                               rank=2),
    "negative coefficient": doc_of(A2_SIMPLE,
                                   A2_POSITIVE + ((1.5, -S3),)),
    "non-integer coefficient": doc_of(A2_SIMPLE,
                                      A2_POSITIVE + ((0.5, 0.0),)),
    "non-crystallographic pair": doc_of(((1.0, 0.0), (-0.4, 1.0)),
                                        ((1.0, 0.0), (-0.4, 1.0))),
    "reflection image not listed": doc_of(*INCOMPLETE_DATA[0]),
    "simple root not listed": doc_of(*INCOMPLETE_DATA[1]),
    "repeated root_index": with_mult(doc_of(A2_SIMPLE, A2_POSITIVE),
                                     (0, 1, 1)),
    "root_index out of range": with_mult(doc_of(A2_SIMPLE, A2_POSITIVE),
                                         (3,)),
    "zero multiplicity": dict(doc_of(A2_SIMPLE, A2_POSITIVE),
                              multiplicities=[{"root_index": 0,
                                               "m_alpha": 0}]),
    "rank zero": doc_of(A2_SIMPLE, A2_POSITIVE, rank=0),
    # json parses NaN; NumPy's solve printed LAPACK noise and raised
    # LinAlgError on it, and |root|^2 = inf gave a ValueError
    "NaN coordinate": doc_of(((math.nan, 0.0), (0.0, 1.0)),
                             ((math.nan, 0.0), (0.0, 1.0))),
    "overflowing coordinate": doc_of(((1.0, 0.0), (0.0, 1.0)),
                                     ((1.0, 0.0), (0.0, 1.0),
                                      (1e300, 1.0))),
    "infinite coordinate": doc_of(A2_SIMPLE,
                                  A2_POSITIVE + ((math.inf, 0.0),)),
}


class TestRho:
    def test_rank_one_unit(self):
        d = rd.datum_a1(1, 0)
        assert cv.rho(d).coords == ((0.5 + 0j),)

    def test_rank_one_hyperbolic_family(self):
        for n in (2, 3, 4, 7):
            d = rd.datum_a1(n - 1, 0)
            assert cv.rho(d).coords[0] == pytest.approx((n - 1) / 2)

    def test_rank_one_with_double_root(self):
        d = rd.datum_a1(2, 1)
        assert cv.rho(d).coords[0] == pytest.approx(2.0)

    def test_a2_sum_of_simples(self):
        d = rd.datum_a2()
        expected = np.add(d.simple_roots[0], d.simple_roots[1])
        assert np.allclose(vec(cv.rho(d)), expected)


class TestWeylApply:
    def test_identity(self):
        d = rd.datum_a2()
        lam = random_param(2)
        out = rd.weyl_apply(d, rd.WeylElement.identity(), lam)
        assert np.allclose(vec(out), vec(lam))

    def test_rank_one_flip(self):
        d = rd.datum_a1(3, 0)
        lam = rd.SpectralParam.of([0.7 - 0.4j])
        out = rd.weyl_apply(d, rd.WeylElement.of(1), lam)
        assert out.coords[0] == pytest.approx(-(0.7 - 0.4j))

    def test_braid_relation(self):
        d = rd.datum_a2()
        for _ in range(50):
            lam = random_param(2)
            a = rd.weyl_apply(d, rd.WeylElement.of(1, 2, 1), lam)
            b = rd.weyl_apply(d, rd.WeylElement.of(2, 1, 2), lam)
            assert np.allclose(vec(a), vec(b), atol=1e-13)

    def test_involution(self):
        for d in (rd.datum_a2(), rd.datum_b2()):
            for letter in (1, 2):
                w = rd.WeylElement.of(letter, letter)
                for _ in range(50):
                    lam = random_param(2)
                    out = rd.weyl_apply(d, w, lam)
                    assert np.allclose(vec(out), vec(lam), atol=1e-14)

    def test_inner_product_preserved(self):
        d = rd.datum_b2()
        w = rd.WeylElement.of(2, 1)
        for _ in range(30):
            lam, mu = random_param(2), random_param(2)
            before = complex(vec(lam) @ vec(mu))
            after = complex(vec(rd.weyl_apply(d, w, lam))
                            @ vec(rd.weyl_apply(d, w, mu)))
            assert abs(before - after) < 1e-13

    def test_letter_out_of_range(self):
        d = rd.datum_a1(1, 0)
        with pytest.raises(IndexError):
            rd.weyl_apply(d, rd.WeylElement.of(2), random_param(1))


class TestNegativeSet:
    def test_identity_empty(self):
        assert rd.negative_set_indices(rd.datum_a2(),
                                       rd.WeylElement.identity()) == []

    def test_longest_all(self):
        for d in (rd.datum_a1(2, 1), rd.datum_a1xa1(), rd.datum_a2(),
                  rd.datum_b2(), rd.datum_b2(2, 3, 1)):
            w0 = rd.longest_element(d)
            assert len(rd.negative_set_indices(d, w0)) == d.n_positive

    def test_a2_single_reflection(self):
        d = rd.datum_a2()
        assert rd.negative_set_indices(d, rd.WeylElement.of(1)) == [0]

    def test_length_additivity_over_group(self):
        for d in (rd.datum_a1xa1(), rd.datum_a2(), rd.datum_b2(),
                  rd.datum_b2(2, 3, 1)):
            for w in rd.enumerate_weyl(d):
                indices = rd.negative_set_indices(d, w)
                assert len(indices) == len(w.word)
                assert indices == float_negative_set(d, w)

    def test_reducedness_check(self):
        d = rd.datum_a2()
        assert rd.is_reduced(d, rd.WeylElement.of(1, 2))
        assert not rd.is_reduced(d, rd.WeylElement.of(1, 1))
        assert not rd.is_reduced(d, rd.WeylElement.of(1, 2, 1, 2))


class TestLongestAndEnumeration:
    def test_a1(self):
        assert rd.longest_element(rd.datum_a1(5, 2)).word == (1,)

    def test_a2_via_enumeration(self):
        d = rd.datum_a2()
        elements = rd.enumerate_weyl(d)
        assert len(elements) == 6
        maxlen = max(len(w.word) for w in elements)
        assert len(rd.longest_element(d).word) == maxlen == 3
        assert rd.longest_element(d).word == (1, 2, 1)

    def test_b2_via_enumeration(self):
        d = rd.datum_b2()
        elements = rd.enumerate_weyl(d)
        assert len(elements) == 8
        assert rd.longest_element(d).word == (1, 2, 1, 2)
        # BC2 has the Weyl group of B2
        assert rd.longest_element(rd.datum_b2(1, 2, 1)).word == (1, 2, 1, 2)

    def test_a1xa1(self):
        d = rd.datum_a1xa1()
        assert len(rd.enumerate_weyl(d)) == 4
        assert rd.longest_element(d).word == (1, 2)

    def test_unsupported(self):
        # a rank-3 orthogonal system, outside the catalog: its longest
        # element is derived as well, and sends every root negative
        d = rd.RootDatum(
            3,
            ((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)),
            ((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)),
            ((1, 0),) * 3)
        w0 = rd.longest_element(d)
        assert w0.word == (1, 2, 3)
        assert rd.negative_set_indices(d, w0) == [0, 1, 2]


class TestRestrict:
    def test_rho_shift_rank_one(self):
        for (m, m2) in ((1, 0), (2, 0), (4, 0), (2, 1), (4, 3), (8, 7)):
            d = rd.datum_a1(m, m2)
            value = rd.restrict(d, cv.rho(d), 0)
            assert value == pytest.approx(0.5 * m + m2, abs=1e-14)

    def test_rho_shift_simple_roots_b2(self):
        d = rd.datum_b2(2, 3, 1)
        lam = cv.rho(d)
        for letter in (1, 2):
            idx = d.simple_root_positive_index(letter)
            m, m2 = d.mult_of(idx)
            alpha = d.positive_roots[idx]
            # shift along each simple root includes the other roots'
            # contributions; check the defining bilinear form instead
            assert rd.restrict(d, lam, idx) == pytest.approx(
                complex(vec(lam) @ np.asarray(alpha))
                / (np.asarray(alpha) @ np.asarray(alpha)), abs=1e-14)

    def test_orthogonal_vanishes(self):
        d = rd.datum_a1xa1()
        lam = rd.SpectralParam.of([0.0, 2.3 - 1j])
        assert rd.restrict(d, lam, 0) == 0


def mp_restrict(mp, d, coords, i):
    a = [mp.mpf(x) for x in d.positive_roots[i]]
    return sum(mp.mpc(z) * x for z, x in zip(coords, a)) / sum(
        x * x for x in a)


def mp_weyl_apply(mp, d, w, coords):
    v = [mp.mpc(z) for z in coords]
    for letter in reversed(w.word):
        a = [mp.mpf(x) for x in d.simple_roots[letter - 1]]
        c = 2 * sum(z * x for z, x in zip(v, a)) / sum(x * x for x in a)
        v = [z - c * x for z, x in zip(v, a)]
    return v


def cocycle_allowance(d, lam, roots, log_gamma_sums=True):
    """Relative error the product over `roots` may carry beyond 1e-12.
    Near a Gamma pole, an argument z rounded by about 1e-16 |z| moves
    Gamma by 1e-16 |z| / dist at distance dist (as in the c-factor
    tests).  At large |Lam| a factor formed from log-Gammas sums them and
    (rho0 - w) log 2, of size L, before its exp, each with an absolute
    rounding of about eps L: 2e-12 relative at |Lam| ~ 1e3.  The factors
    of even m and even m2 are Pochhammer quotients and sum none
    (log_gamma_sums=False)."""
    poles = sizes = 0.0
    for i in roots:
        w = 1j * rd.restrict(d, lam, i)
        num, dens = cfun._factor_arguments(w, *d.mult[i])
        for z in (num, *dens):
            poles += abs(z) / cm.distance_to_nonpos_int(z)
            sizes += abs(cm.log_gamma(z))
        sizes += abs(w) * math.log(2.0)
    return 1e-15 * poles + (2.0 ** -51 * sizes if log_gamma_sums else 0.0)


def draw_param(st, data, rank):
    """Lam with |Lam| from 1e-8 to 1e3 and one sign of Im Lam throughout,
    each drawn."""
    scale = 10.0 ** data.draw(st.floats(-8.0, 3.0))
    sign = data.draw(st.sampled_from((1.0, -1.0)))
    return [scale * complex(data.draw(st.floats(-1.0, 1.0)),
                            sign * data.draw(st.floats(0.05, 1.0)))
            for _ in range(rank)]


def assert_cocycle_law(d, lam, log_gamma_sums=True, base=1e-12):
    """c_sigma(uv) = c_sigma(u, v lam) c_sigma(v, lam) for every reduced
    uv of nontrivial u and v, within base plus cocycle_allowance."""
    elements = rd.enumerate_weyl(d)
    for u in elements:
        for v in elements:
            uv = rd.WeylElement(u.word + v.word)
            if not (len(u) and len(v) and rd.is_reduced(d, uv)):
                continue

            def rhs():
                return (cfun.c_sigma(d, u, rd.weyl_apply(d, v, lam))
                        .value * cfun.c_sigma(d, v, lam).value)
            try:
                lhs = cfun.c_sigma(d, uv, lam).value
            except cfun.CPoleError:
                # a pole of one side is a pole of the other
                with pytest.raises(cfun.CPoleError):
                    rhs()
                continue
            bound = base + cocycle_allowance(
                d, lam, rd.negative_set_indices(d, uv), log_gamma_sums)
            assert abs(lhs - rhs()) <= bound * abs(lhs)


# data whose every root has even m_alpha and even m_2alpha
EVEN_DATA = [rd.datum_a1(2, 0), rd.datum_a1(4, 2), rd.datum_a1xa1(2, 4),
             rd.datum_a2(2), rd.datum_a2(4), rd.datum_b2(2, 2, 0),
             rd.datum_b2(4, 2, 2)]


class TestMatchesMpmath:
    """restrict and weyl_apply against 30-digit mpmath, and the cocycle
    law of the partial c-functions, on every catalog datum at |Lam| from
    1e-8 to 1e3 with either sign of Im Lam."""

    def test_restrict_weyl_apply_and_cocycle(self):
        mp = pytest.importorskip("mpmath")
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        eps = 2.0 ** -52

        @hyp.settings(derandomize=True, deadline=None, database=None,
                      max_examples=120)
        @hyp.given(st.sampled_from(CATALOG), st.data())
        def check(d, data):
            coords = draw_param(st, data, d.rank)
            lam = rd.SpectralParam.of(coords)
            size = max(abs(z) for z in coords)
            with mp.workdps(30):
                for i in range(d.n_positive):
                    want = complex(mp_restrict(mp, d, coords, i))
                    assert abs(rd.restrict(d, lam, i) - want) \
                        <= 4 * eps * size
                for w in rd.enumerate_weyl(d):
                    got = rd.weyl_apply(d, w, lam).coords
                    want = mp_weyl_apply(mp, d, w, coords)
                    for z, ref in zip(got, want):
                        assert abs(z - complex(ref)) \
                            <= 4 * (1 + len(w)) * eps * size
            assert_cocycle_law(d, lam)

        check()

    def test_cocycle_of_even_multiplicities_sums_no_log_gamma(self):
        # the factors of even m and even m2 are Pochhammer quotients, so
        # the law holds without the log-Gamma sums' allowance, at |Lam|
        # up to 1e3 too, and within 1e-13 rather than 1e-12: a few dozen
        # rounded products (the log-Gamma form read 9.2e-13 on these data)
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(derandomize=True, deadline=None, database=None,
                      max_examples=120)
        @hyp.given(st.sampled_from(EVEN_DATA), st.data())
        @hyp.example(rd.datum_a2(2), None)
        def check(d, data):
            coords = ([891.0 - 3.0j, -420.5 - 17.25j] if data is None
                      else draw_param(st, data, d.rank))
            assert_cocycle_law(d, rd.SpectralParam.of(coords), False, 1e-13)

        check()


class TestValidationAndIO:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_document_rejected(self, name):
        with pytest.raises(rd.RootDatumError):
            rd.datum_from_dict(MALFORMED[name])

    def test_ragged_roots_rejected(self):
        # NumPy raised its own ValueError on ragged rows; the length check
        # names them now
        for simple, positive in ((((1.0, 0.0), (0.0,)), A2_POSITIVE),
                                 (A2_SIMPLE, A2_POSITIVE + ((1.0,),))):
            with pytest.raises(rd.RootDatumError, match="length"):
                rd.datum_from_dict(doc_of(simple, positive, rank=2))

    def test_noncrystallographic_rejected(self):
        with pytest.raises(rd.RootDatumError):
            rd.RootDatum(
                2,
                ((1.0, 0.0), (-0.4, 1.0)),
                ((1.0, 0.0), (-0.4, 1.0)),
                ((1, 0), (1, 0)))

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(rd.RootDatumError):
            rd.datum_a1(0, 0)

    def test_positive_root_outside_span_rejected(self):
        with pytest.raises(rd.RootDatumError):
            rd.RootDatum(
                2,
                ((1.0, 0.0), (0.0, 1.0)),
                ((1.0, 0.0), (0.0, 1.0), (1.0, -1.0)),
                ((1, 0),) * 3)

    @pytest.mark.parametrize("simple,positive", INCOMPLETE_DATA)
    def test_incomplete_datum_rejected(self, simple, positive):
        # the positive roots must be closed under the simple reflections
        # and list every simple root
        with pytest.raises(rd.RootDatumError):
            rd.RootDatum(2, simple, positive, ((1, 0),) * len(positive))

    @pytest.mark.parametrize("simple,positive", [
        (((1.0,),), ((1.0,), (0.0,))),
        # |root|^2 underflows to 0 in the crystallographic check
        (((1.0,),), ((1.0,), (1e-200,))),
        (((1.0, 0.0), (0.0, 0.0)), ((1.0, 0.0), (0.0, 0.0))),
    ])
    def test_zero_root_rejected(self, simple, positive):
        with pytest.raises(rd.RootDatumError, match="nonzero"):
            rd.RootDatum(len(simple[0]), simple, positive,
                         ((1, 0),) * len(positive))

    def test_json_roundtrip(self, tmp_path):
        d = rd.datum_b2(2, 1, 1)
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(rd.datum_to_dict(d)), encoding="utf-8")
        assert rd.datum_from_json(path) == d

    def test_malformed_document(self):
        with pytest.raises(rd.RootDatumError):
            rd.datum_from_dict({"rank": 2})
        # a negative index would set the last root's multiplicity, and a
        # repeated one would override the earlier entry
        for index in (-1, 3, 1):
            doc = rd.datum_to_dict(rd.datum_a2())
            doc["multiplicities"][2]["root_index"] = index
            with pytest.raises(rd.RootDatumError, match="root_index"):
                rd.datum_from_dict(doc)
