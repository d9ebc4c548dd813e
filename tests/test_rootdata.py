"""Root-system and Weyl-group tests."""

import json

import numpy as np
import pytest

from sphfun import rootdata as rd

RNG = np.random.default_rng(55)


def random_param(rank, rng=RNG):
    return rd.SpectralParam.of(
        rng.uniform(-2, 2, rank) + 1j * rng.uniform(-2, 2, rank))


def float_negative_set(d, w):
    """Reference negative set: each positive root mapped by weyl_apply and
    matched against the negated listed roots."""
    pos = d.positive_array()
    out = []
    for i, beta in enumerate(pos):
        image = rd.weyl_apply(d, w, rd.SpectralParam.of(beta)).array()
        if any(np.allclose(image, -gamma, atol=1e-9) for gamma in pos):
            out.append(i)
    return out


# A2 without alpha1 + alpha2, and A1xA1 without its second simple root
INCOMPLETE_DATA = [
    (((1.0, 0.0), (-0.5, 3 ** 0.5 / 2)),
     ((1.0, 0.0), (-0.5, 3 ** 0.5 / 2))),
    (((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0),)),
]


class TestRho:
    def test_rank_one_unit(self):
        d = rd.datum_a1(1, 0)
        assert rd.rho(d).coords == ((0.5 + 0j),)

    def test_rank_one_hyperbolic_family(self):
        for n in (2, 3, 4, 7):
            d = rd.datum_a1(n - 1, 0)
            assert rd.rho(d).coords[0] == pytest.approx((n - 1) / 2)

    def test_rank_one_with_double_root(self):
        d = rd.datum_a1(2, 1)
        assert rd.rho(d).coords[0] == pytest.approx(2.0)

    def test_a2_sum_of_simples(self):
        d = rd.datum_a2()
        expected = np.add(d.simple_roots[0], d.simple_roots[1])
        assert np.allclose(rd.rho(d).array(), expected)


class TestWeylApply:
    def test_identity(self):
        d = rd.datum_a2()
        lam = random_param(2)
        out = rd.weyl_apply(d, rd.WeylElement.identity(), lam)
        assert np.allclose(out.array(), lam.array())

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
            assert np.allclose(a.array(), b.array(), atol=1e-13)

    def test_involution(self):
        for d in (rd.datum_a2(), rd.datum_b2()):
            for letter in (1, 2):
                w = rd.WeylElement.of(letter, letter)
                for _ in range(50):
                    lam = random_param(2)
                    out = rd.weyl_apply(d, w, lam)
                    assert np.allclose(out.array(), lam.array(), atol=1e-14)

    def test_inner_product_preserved(self):
        d = rd.datum_b2()
        w = rd.WeylElement.of(2, 1)
        for _ in range(30):
            lam, mu = random_param(2), random_param(2)
            before = complex(lam.array() @ mu.array())
            after = complex(rd.weyl_apply(d, w, lam).array()
                            @ rd.weyl_apply(d, w, mu).array())
            assert abs(before - after) < 1e-13

    def test_letter_out_of_range(self):
        d = rd.datum_a1(1, 0)
        with pytest.raises(IndexError):
            rd.weyl_apply(d, rd.WeylElement.of(2), random_param(1))


class TestNegativeSet:
    def test_identity_empty(self):
        assert rd.negative_set(rd.datum_a2(), rd.WeylElement.identity()) == []

    def test_longest_all(self):
        for d in (rd.datum_a1(2, 1), rd.datum_a1xa1(), rd.datum_a2(),
                  rd.datum_b2(), rd.datum_b2(2, 3, 1)):
            w0 = rd.longest_element(d)
            assert len(rd.negative_set_indices(d, w0)) == d.n_positive

    def test_a2_single_reflection(self):
        d = rd.datum_a2()
        assert rd.negative_set(d, rd.WeylElement.of(1)) == \
            [d.positive_roots[0]]

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

    def test_b2_via_enumeration(self):
        d = rd.datum_b2()
        elements = rd.enumerate_weyl(d)
        assert len(elements) == 8
        assert len(rd.longest_element(d).word) == 4

    def test_a1xa1(self):
        d = rd.datum_a1xa1()
        assert len(rd.enumerate_weyl(d)) == 4
        assert len(rd.longest_element(d).word) == 2

    def test_unsupported(self):
        # a fake rank-3 orthogonal system is outside the table
        d = rd.RootDatum(
            3,
            ((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)),
            ((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)),
            ((1, 0),) * 3)
        with pytest.raises(rd.RootDatumError):
            rd.longest_element(d)


class TestRestrict:
    def test_rho_shift_rank_one(self):
        for (m, m2) in ((1, 0), (2, 0), (4, 0), (2, 1), (4, 3), (8, 7)):
            d = rd.datum_a1(m, m2)
            value = rd.restrict(d, rd.rho(d), 0)
            assert value == pytest.approx(0.5 * m + m2, abs=1e-14)

    def test_rho_shift_simple_roots_b2(self):
        d = rd.datum_b2(2, 3, 1)
        lam = rd.rho(d)
        for letter in (1, 2):
            idx = d.simple_root_positive_index(letter)
            m, m2 = d.mult_of(idx)
            alpha = d.positive_roots[idx]
            # shift along each simple root includes the other roots'
            # contributions; check the defining bilinear form instead
            assert rd.restrict(d, lam, idx) == pytest.approx(
                complex(lam.array() @ np.asarray(alpha))
                / (np.asarray(alpha) @ np.asarray(alpha)), abs=1e-14)

    def test_orthogonal_vanishes(self):
        d = rd.datum_a1xa1()
        lam = rd.SpectralParam.of([0.0, 2.3 - 1j])
        assert rd.restrict(d, lam, 0) == 0


class TestValidationAndIO:
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
