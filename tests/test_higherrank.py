"""Higher-rank composite tests: parameter chain, determinant formula,
cocycle law and the Hilbert-Schmidt identity."""

import json
from pathlib import Path

import numpy as np
import pytest

from sphfun import cfun
from sphfun import higherrank as hr
from sphfun import rankone as r1
from sphfun import rootdata as rd

DATA = Path(__file__).parent / "data"
RNG = np.random.default_rng(99)


def random_param(datum, rng=RNG):
    return rd.SpectralParam.of(
        rng.uniform(0.2, 2.0, datum.rank)
        - 1j * rng.uniform(0.1, 1.2, datum.rank))


class TestLambdaChain:
    def test_single_reflection(self):
        d = rd.datum_a2()
        lam = random_param(d)
        chain = hr.lambda_chain(d, rd.WeylElement.of(1), lam)
        assert chain == [rd.restrict(d, lam, 0)]

    def test_rank_one(self):
        d = rd.datum_a1(2, 1)
        lam = rd.SpectralParam.of([0.7 - 0.3j])
        assert hr.lambda_chain(d, rd.WeylElement.of(1), lam) == \
            [0.7 - 0.3j]

    def test_against_direct_reflections(self):
        d = rd.datum_a2()
        for _ in range(20):
            lam = random_param(d)
            chain = hr.lambda_chain(d, rd.WeylElement.of(1, 2), lam)
            s2lam = rd.weyl_apply(d, rd.WeylElement.of(2), lam)
            expected = [rd.restrict(d, s2lam, 0), rd.restrict(d, lam, 1)]
            assert np.allclose(chain, expected)

    def test_length_matches_word(self):
        d = rd.datum_b2()
        for w in rd.enumerate_weyl(d):
            chain = hr.lambda_chain(d, w, random_param(d))
            assert len(chain) == len(w.word)

    def test_non_reduced_rejected(self):
        d = rd.datum_a2()
        with pytest.raises(rd.NonReducedWordError):
            hr.lambda_chain(d, rd.WeylElement.of(1, 1), random_param(d))

    def test_factorization_matches_negative_set_product(self):
        # the chained rank-one product equals the partial c over the
        # negative set, for every group element
        for d in (rd.datum_a2(), rd.datum_b2(1, 2, 1)):
            for w in rd.enumerate_weyl(d):
                if not w.word:
                    continue
                lam = random_param(d)
                chain = hr.lambda_chain(d, w, lam)
                prod = 1.0 + 0j
                for letter, lam_j in zip(w.word, chain):
                    idx = d.simple_root_positive_index(letter)
                    m, m2 = d.mult_of(idx)
                    prod *= cfun.c_alpha(lam_j, m, m2).value
                ref = cfun.c_sigma(d, w, lam).value
                assert prod == pytest.approx(ref, rel=1e-12)


class TestDetA:
    def test_trivial_types(self):
        d = rd.datum_a2()
        w0 = rd.longest_element(d)
        lam = random_param(d)
        table = hr.FactorKTypeTable(w0.word, 2, {
            (j, i): r1.TRIVIAL_KTYPE
            for j in range(1, len(w0.word) + 1) for i in (1, 2)})
        det = hr.det_A(d, w0, lam, table)
        assert det == pytest.approx(cfun.c_sigma(d, w0, lam).value ** 2,
                                    rel=1e-13)

    def test_rank_one_reduction(self):
        d = rd.datum_a1(1, 0)
        h2 = r1.RankOneSpace(1, 0)
        kt = r1.ktype_from_rs(h2, 0, 2)
        table = hr.FactorKTypeTable((1,), 1, {(1, 1): kt})
        for _ in range(20):
            lam = complex(RNG.uniform(0.3, 2.0), RNG.uniform(-1.0, 1.0))
            det = hr.det_A(d, rd.WeylElement.of(1),
                           rd.SpectralParam.of([lam]), table)
            assert det == pytest.approx(
                r1.C_sigma_minus(h2, kt, lam), rel=1e-12)

    def test_two_path_agreement_supplied_table(self):
        d = rd.datum_a2()
        w0 = rd.longest_element(d)
        table = hr.table_from_json(DATA / "a2_table.json")
        for _ in range(10):
            lam = random_param(d)
            d1 = hr.det_A(d, w0, lam, table)
            d2 = hr.det_A_by_factors(d, w0, lam, table)
            assert d1 == pytest.approx(d2, rel=1e-10)

    def test_braid_word_independence(self):
        # same per-factor data on both braid words of the longest
        # element (all roots share one multiplicity, so entries match
        # positionally)
        d = rd.datum_a2()
        kt = r1.ktype_from_rs(r1.RankOneSpace(1, 0), 0, 2)
        t1 = hr.FactorKTypeTable((1, 2, 1), 1,
                                 {(j, 1): kt for j in (1, 2, 3)})
        t2 = hr.FactorKTypeTable((2, 1, 2), 1,
                                 {(j, 1): kt for j in (1, 2, 3)})
        for _ in range(10):
            lam = random_param(d)
            a = hr.det_A(d, rd.WeylElement.of(1, 2, 1), lam, t1)
            b = hr.det_A(d, rd.WeylElement.of(2, 1, 2), lam, t2)
            assert a == pytest.approx(b, rel=1e-10)

    def test_word_mismatch_rejected(self):
        d = rd.datum_a2()
        table = hr.FactorKTypeTable((1, 2), 1, {
            (j, 1): r1.TRIVIAL_KTYPE for j in (1, 2)})
        with pytest.raises(ValueError):
            hr.det_A(d, rd.WeylElement.of(2, 1), random_param(d), table)

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError):
            hr.FactorKTypeTable((1, 2), 2, {(1, 1): r1.TRIVIAL_KTYPE})

    def test_table_validation_against_multiplicities(self):
        d = rd.datum_b2(2, 3, 0)
        # an entry solving the plane quadratics fails against m_alpha=3
        bad = r1.KTypeRankOne(-4.0, 0.0, 0, 2)
        table = hr.FactorKTypeTable((2,), 1, {(1, 1): bad})
        with pytest.raises(ValueError):
            hr.validate_table(d, table)

    def test_pole_reported(self):
        d = rd.datum_a1(1, 0)
        kt = r1.ktype_from_rs(r1.RankOneSpace(1, 0), 0, 1)
        table = hr.FactorKTypeTable((1,), 1, {(1, 1): kt})
        with pytest.raises(cfun.CPoleError):
            hr.det_A(d, rd.WeylElement.of(1),
                     rd.SpectralParam.of([0.0]), table)


class TestDetCSigma:
    def test_rank_one_matches_scalar_coefficient(self):
        d = rd.datum_a1(1, 0)
        h2 = r1.RankOneSpace(1, 0)
        kt = r1.ktype_from_rs(h2, 0, 2)
        table = hr.FactorKTypeTable((1,), 1, {(1, 1): kt})
        lam = 0.7 - 0.3j
        got = hr.det_C_sigma_at(d, rd.WeylElement.of(1),
                                rd.SpectralParam.of([lam]), table)
        # the scalar second coefficient at lam itself
        expected = (r1.c_lambda_delta(h2, kt, lam)
                    / r1.c_lambda_delta(h2, kt, -lam)
                    * cfun.c_alpha(-lam, 1, 0).value)
        assert got == pytest.approx(expected, rel=1e-12)


class TestHSNorm:
    def test_trivial_type(self):
        h2 = r1.RankOneSpace(1, 0)
        rep = hr.hs_norm_check(h2, r1.TRIVIAL_KTYPE, 0.8)
        assert rep.rel_err < 1e-12

    def test_plane_s2(self):
        h2 = r1.RankOneSpace(1, 0)
        kt = r1.ktype_from_rs(h2, 0, 2)
        assert hr.hs_norm_check(h2, kt, 0.9).rel_err < 1e-8

    def test_five_space_s1(self):
        h5 = r1.RankOneSpace(4, 0)
        kt = r1.ktype_from_rs(h5, 0, 1)
        assert hr.hs_norm_check(h5, kt, 1.7).rel_err < 1e-8

    def test_report_contract(self):
        h2 = r1.RankOneSpace(1, 0)
        rep = hr.hs_norm_check(h2, r1.TRIVIAL_KTYPE, 1.2)
        assert rep.abs_err == abs(rep.closed_form - rep.quadrature)


class TestTableIO:
    def test_roundtrip_fixture(self):
        table = hr.table_from_json(DATA / "a2_table.json")
        assert table.word == (1, 2, 1)
        assert table.ell == 2
        assert table.entry(2, 2).s == 3

    def test_bad_entry_rejected(self):
        # (r, s) off the quadratics, then indices outside the word or
        # below 1, and a (j, i) listed twice on the A2 fixture
        with pytest.raises(ValueError):
            hr.table_from_dict({
                "word": [1],
                "entries": [{"j": 1, "i": 1, "m_alpha": 1, "m_2alpha": 0,
                             "d_alpha": -4.0, "d_2alpha": 0.0,
                             "r": 0, "s": 1}],
            })
        doc = json.loads((DATA / "a2_table.json").read_text())
        for j, i in ((4, 1), (1, 0), (3, 2)):
            extra = dict(doc["entries"][1], j=j, i=i)  # s = 2
            bad = dict(doc, entries=doc["entries"] + [extra])
            with pytest.raises(ValueError, match="listed twice or outside"):
                hr.table_from_dict(bad)
