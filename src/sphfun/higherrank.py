"""Higher-rank composites built from the rank-one scalars.

For a reduced word w = s_{i_1} ... s_{i_p} the spectral parameter chains
through the tail subwords: lam_j = <sigma^{(j)} lam, alpha_{i_j}^0> with
sigma^{(j)} = s_{i_{j+1}} ... s_{i_p}.  The partial c-function factors as
the product of the rank-one c's along the chain, and the determinant of
the standard intertwining operator restricted to the fixed subspace is

    det A = c_w(lam)^ell * prod_j prod_i ratio(i, j),
    ratio(i, j) = c_{-lam_j, delta(i,j)} / c_{lam_j, delta(i,j)},

with the per-factor K-type data delta(i, j) supplied as input (the
operator itself, which would require branching data, is deliberately not
constructed).  A factor-by-factor evaluation order is provided as an
independent code path for cross-checking, together with the
Hilbert-Schmidt norm identity |C_sigma(lam)| = |c(lam)| at real lam.
"""

import json
from dataclasses import dataclass

from .cfun import c_alpha, c_full, c_sigma
from .models import OracleReport
from .rankone import (KTypeRankOne, RankOneSpace, C_sigma_minus,
                      c_lambda_delta, validate_ktype)
from .rootdata import (NonReducedWordError, RootDatum, SpectralParam,
                       WeylElement, is_reduced, restrict, weyl_apply)


@dataclass(frozen=True)
class FactorKTypeTable:
    """Per-factor rank-one K-type data delta(i, j) for a reduced word of
    length p and fixed-subspace dimension ell: entries[(j, i)] for
    j in 1..p (word position) and i in 1..ell."""

    word: tuple[int, ...]
    ell: int
    entries: dict[tuple[int, int], KTypeRankOne]

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        for j in range(1, len(self.word) + 1):
            for i in range(1, self.ell + 1):
                if (j, i) not in self.entries:
                    raise ValueError(f"missing table entry (j={j}, i={i})")

    def entry(self, j: int, i: int) -> KTypeRankOne:
        return self.entries[(j, i)]


def validate_table(datum: RootDatum, table: FactorKTypeTable) -> None:
    """Check each entry's (r, s) against the quadratics for the
    multiplicities of its word letter's simple root."""
    for j, letter in enumerate(table.word, start=1):
        idx = datum.simple_root_positive_index(letter)
        m, m2 = datum.mult_of(idx)
        space = RankOneSpace(m, m2)
        for i in range(1, table.ell + 1):
            validate_ktype(space, table.entry(j, i))


def lambda_chain(datum: RootDatum, w: WeylElement,
                 lam: SpectralParam) -> list[complex]:
    """[lam_1, ..., lam_p]: restriction of the tail-transformed parameter
    to each word letter's root, rightmost letter applied first."""
    if not is_reduced(datum, w):
        raise NonReducedWordError(f"word {w.word} is not reduced")
    chain: list[complex] = []
    current = lam
    for letter in reversed(w.word):
        idx = datum.simple_root_positive_index(letter)
        chain.append(restrict(datum, current, idx))
        current = weyl_apply(datum, WeylElement.of(letter), current)
    chain.reverse()
    return chain


def _factor_spaces(datum: RootDatum,
                   word: tuple[int, ...]) -> list[RankOneSpace]:
    out = []
    for letter in word:
        idx = datum.simple_root_positive_index(letter)
        m, m2 = datum.mult_of(idx)
        out.append(RankOneSpace(m, m2))
    return out


def det_A(datum: RootDatum, w: WeylElement, lam: SpectralParam,
          table: FactorKTypeTable) -> complex:
    """Determinant of the intertwining operator on the fixed subspace:
    c_w(lam)^ell times the product of the reflected-constant ratios."""
    if w.word != table.word:
        raise ValueError("table word does not match the Weyl word")
    validate_table(datum, table)
    chain = lambda_chain(datum, w, lam)
    spaces = _factor_spaces(datum, w.word)
    acc = c_sigma(datum, w, lam).value ** table.ell
    for j, (lam_j, space) in enumerate(zip(chain, spaces), start=1):
        for i in range(1, table.ell + 1):
            kt = table.entry(j, i)
            acc *= (c_lambda_delta(space, kt, -lam_j)
                    / c_lambda_delta(space, kt, lam_j))
    return acc


def det_A_by_factors(datum: RootDatum, w: WeylElement, lam: SpectralParam,
                     table: FactorKTypeTable) -> complex:
    """Independent evaluation order: the product over word positions of
    each factor's own determinant (rank-one c times ratio, over i)."""
    if w.word != table.word:
        raise ValueError("table word does not match the Weyl word")
    validate_table(datum, table)
    chain = lambda_chain(datum, w, lam)
    spaces = _factor_spaces(datum, w.word)
    acc = 1.0 + 0j
    for j, (lam_j, space) in enumerate(zip(chain, spaces), start=1):
        factor = c_alpha(lam_j, space.m_alpha,
                         space.m_2alpha).value ** table.ell
        for i in range(1, table.ell + 1):
            kt = table.entry(j, i)
            factor *= (c_lambda_delta(space, kt, -lam_j)
                       / c_lambda_delta(space, kt, lam_j))
        acc *= factor
    return acc


def det_C_sigma_at(datum: RootDatum, w: WeylElement, lam: SpectralParam,
                   table: FactorKTypeTable) -> complex:
    """det of the second-coefficient operator of the inverse word at the
    reflected parameter, via the adjoint identity

        det C_{w^{-1}}(-w lam)
            = conj(det A(conj(lam), w)) * (c(-lam) / c_w(-lam))^ell,

    derived from the adjoint formula for the intertwining operator; the
    rank-one case reduces to the scalar second coefficient."""
    lam_bar = SpectralParam.of([z.conjugate() for z in lam.coords])
    neg = SpectralParam.of([-z for z in lam.coords])
    det_adj = det_A(datum, w, lam_bar, table).conjugate()
    scale = (c_full(datum, neg).value
             / c_sigma(datum, w, neg).value) ** table.ell
    return det_adj * scale


def hs_norm_check(space: RankOneSpace, kt: KTypeRankOne,
                  Lam_real: float) -> OracleReport:
    """Hilbert-Schmidt identity at a real (tempered) parameter:
    |C_sigma(-lam)|^2 against |c(lam)|^2 times the fixed-subspace
    dimension (1 in rank one)."""
    Lam = float(Lam_real)
    lhs = abs(C_sigma_minus(space, kt, Lam)) ** 2
    rhs = abs(c_alpha(Lam, space.m_alpha, space.m_2alpha).value) ** 2
    return OracleReport.build(complex(rhs), complex(lhs), 0)


# ---------------------------------------------------------------------------
# table file format

def table_from_dict(doc: dict) -> FactorKTypeTable:
    """Factor-table document: {word: [letters], entries: [{j, i, m_alpha,
    m_2alpha, d_alpha, d_2alpha, r, s}]}; multiplicities in each entry are
    redundant against the datum and are validated by ``validate_table``."""
    word = tuple(int(x) for x in doc["word"])
    entries: dict[tuple[int, int], KTypeRankOne] = {}
    ell = 0
    for rec in doc["entries"]:
        j, i = int(rec["j"]), int(rec["i"])
        if not 1 <= j <= len(word) or i < 1 or (j, i) in entries:
            raise ValueError(f"table entry (j={j}, i={i}) is listed twice "
                             f"or outside j = 1..{len(word)}, i >= 1")
        ell = max(ell, i)
        space = RankOneSpace(int(rec["m_alpha"]), int(rec.get("m_2alpha", 0)))
        kt = KTypeRankOne(float(rec["d_alpha"]),
                          float(rec.get("d_2alpha", 0.0)),
                          int(rec["r"]), int(rec["s"]))
        validate_ktype(space, kt)
        entries[(j, i)] = kt
    return FactorKTypeTable(word, ell, entries)


def table_from_json(path) -> FactorKTypeTable:
    with open(path, encoding="utf-8") as fh:
        return table_from_dict(json.load(fh))
