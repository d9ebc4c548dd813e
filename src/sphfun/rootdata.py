"""Restricted root-system data and Weyl-group machinery.

Roots are stored as explicit coordinate vectors in an orthonormal basis of
the dual of the Cartan subspace, because the c-function needs the numbers
<lam, alpha>/<alpha, alpha>, not just combinatorics.  Weyl elements are
reduced words in 1-based simple-root indices; words are not auto-reduced,
``is_reduced`` checks and the operations that require reducedness reject
non-reduced input.

Rank-one normalization: the basis vector H of the Cartan subspace is fixed
by alpha(H) = 1, so a spectral parameter is the single complex number
lam(H) and <i lam, alpha_0> = i lam(H).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

_TOL = 1e-9


class RootDatumError(ValueError):
    """Invalid root-system data."""


class NonReducedWordError(ValueError):
    """Weyl word is not reduced."""


class WordError(RootDatumError, IndexError):
    """A Weyl word letter that names no simple root of the datum (an
    IndexError too: a letter indexes the simple roots)."""


@dataclass(frozen=True)
class RootDatum:
    """Restricted root system with per-root multiplicities.

    positive_roots lists the positive indivisible roots; a nonzero
    m_2alpha entry encodes that 2*alpha is also a (divisible) root.
    mult[i] = (m_alpha, m_2alpha) for positive_roots[i].
    """

    rank: int
    simple_roots: tuple[tuple[float, ...], ...]
    positive_roots: tuple[tuple[float, ...], ...]
    mult: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _validate_datum(self)
        # derived attributes, outside the fields that eq and hash compare
        simple_index, reflections = _weyl_tables(self)
        object.__setattr__(self, "_simple_index", simple_index)
        object.__setattr__(self, "_reflections", reflections)

    @property
    def n_positive(self) -> int:
        return len(self.positive_roots)

    def simple_array(self) -> np.ndarray:
        return np.asarray(self.simple_roots, dtype=float)

    def positive_array(self) -> np.ndarray:
        return np.asarray(self.positive_roots, dtype=float)

    def mult_of(self, index: int) -> tuple[int, int]:
        return self.mult[index]

    def simple_root_positive_index(self, letter: int) -> int:
        """Index into positive_roots of the simple root numbered `letter`
        (1-based)."""
        return self._simple_index[_letter_index(self, letter)]


@dataclass(frozen=True)
class SpectralParam:
    """A point of the complexified dual Cartan space, as coordinates in
    the orthonormal basis."""

    coords: tuple[complex, ...]

    def __post_init__(self):
        for z in self.coords:
            z = complex(z)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("non-finite spectral coordinate")

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=complex)

    @staticmethod
    def of(values) -> "SpectralParam":
        return SpectralParam(tuple(complex(v) for v in values))


@dataclass(frozen=True)
class WeylElement:
    """A Weyl-group element held as a word in 1-based simple-root indices."""

    word: tuple[int, ...]

    def __post_init__(self):
        for letter in self.word:
            if not isinstance(letter, int) or letter < 1:
                raise ValueError(f"bad word letter {letter!r}")

    def __len__(self) -> int:
        return len(self.word)

    @staticmethod
    def identity() -> "WeylElement":
        return WeylElement(())

    @staticmethod
    def of(*letters: int) -> "WeylElement":
        return WeylElement(tuple(letters))


def _validate_datum(datum: RootDatum) -> None:
    if datum.rank < 1:
        raise RootDatumError("rank must be positive")
    simple = np.asarray(datum.simple_roots, dtype=float)
    pos = np.asarray(datum.positive_roots, dtype=float)
    if simple.shape != (len(datum.simple_roots), datum.rank):
        raise RootDatumError("simple roots must have length == rank")
    if pos.ndim != 2 or pos.shape[1] != datum.rank:
        raise RootDatumError("positive roots must have length == rank")
    if np.any(np.linalg.norm(np.vstack([simple, pos]), axis=1) <= _TOL):
        raise RootDatumError("roots must be nonzero")
    if len(datum.mult) != len(datum.positive_roots):
        raise RootDatumError("one multiplicity pair per positive root")
    for m, m2 in datum.mult:
        if m < 1:
            raise RootDatumError("m_alpha must be >= 1 for every root")
        if m2 < 0:
            raise RootDatumError("m_2alpha must be >= 0")
    # positive roots are nonnegative integer combinations of simple roots
    coeffs, *_ = np.linalg.lstsq(simple.T, pos.T, rcond=None)
    if not np.allclose(simple.T @ coeffs, pos.T, atol=_TOL):
        raise RootDatumError("positive roots not in the simple-root span")
    if np.any(coeffs < -_TOL) or \
            np.any(np.abs(coeffs - np.round(coeffs)) > _TOL):
        raise RootDatumError(
            "positive roots must be nonnegative integer combinations "
            "of simple roots")
    # crystallographic condition over all pairs of listed roots
    for beta in pos:
        bb = float(beta @ beta)
        for alpha in pos:
            cartan = 2.0 * float(alpha @ beta) / bb
            if abs(cartan - round(cartan)) > _TOL:
                raise RootDatumError(
                    f"non-crystallographic pair {alpha}, {beta}")


def _weyl_tables(datum: RootDatum) -> tuple[tuple, tuple]:
    """The Weyl action as integers: the positive-root index of each simple
    root, and each simple reflection as a permutation of the signed roots,
    where index k < n is positive root k and k + n is its negative.
    Matching the reflected vectors is the one float comparison of the
    Weyl combinatorics; a root that matches nothing is incomplete data."""
    pos = datum.positive_array()
    signed = np.concatenate([pos, -pos])

    def match(vec: np.ndarray) -> int:
        hits = np.flatnonzero(np.all(np.abs(signed - vec) <= _TOL, axis=1))
        if not len(hits):
            raise RootDatumError(f"root {vec} is not a listed positive root "
                                 "or its negative")
        return int(hits[0])

    simple = datum.simple_array()
    return (tuple(match(alpha) for alpha in simple),
            tuple(tuple(match(_reflect(alpha, v)) for v in signed)
                  for alpha in simple))


def rho(datum: RootDatum) -> SpectralParam:
    """Half the multiplicity-weighted sum of the positive roots:
    rho = 1/2 sum (m_alpha + 2 m_2alpha) alpha over indivisible alpha."""
    acc = np.zeros(datum.rank)
    for alpha, (m, m2) in zip(datum.positive_array(), datum.mult):
        acc = acc + 0.5 * (m + 2.0 * m2) * alpha
    return SpectralParam.of(acc)


def _reflect(alpha: np.ndarray, vec: np.ndarray) -> np.ndarray:
    return vec - (2.0 * (vec @ alpha) / (alpha @ alpha)) * alpha


def _letter_index(datum: RootDatum, letter: int) -> int:
    """The 0-based simple-root index of a 1-based word letter."""
    if letter > datum.rank:
        raise WordError(f"word letter {letter} exceeds rank {datum.rank}")
    return letter - 1


def weyl_apply(datum: RootDatum, w: WeylElement,
               lam: SpectralParam) -> SpectralParam:
    """Apply w = s_{i1} ... s_{ip} to lam (rightmost letter acts first),
    each s_i the reflection in the i-th simple root, extended
    complex-linearly."""
    vec = lam.array()
    simple = datum.simple_array()
    for letter in reversed(w.word):
        vec = _reflect(simple[_letter_index(datum, letter)], vec)
    return SpectralParam.of(vec)


def _signed_images(datum: RootDatum, w: WeylElement) -> tuple[int, ...]:
    """Signed-root indices (see _weyl_tables) of w(root k), k < n."""
    images = range(datum.n_positive)
    for letter in reversed(w.word):
        perm = datum._reflections[_letter_index(datum, letter)]
        images = [perm[x] for x in images]
    return tuple(images)


def negative_set_indices(datum: RootDatum, w: WeylElement) -> list[int]:
    """Indices i with w(positive_roots[i]) a negative root."""
    return [i for i, image in enumerate(_signed_images(datum, w))
            if image >= datum.n_positive]


def negative_set(datum: RootDatum, w: WeylElement) -> list[tuple[float, ...]]:
    """The roots alpha in the positive set with w(alpha) negative."""
    return [datum.positive_roots[i]
            for i in negative_set_indices(datum, w)]


def is_reduced(datum: RootDatum, w: WeylElement) -> bool:
    """A word is reduced iff its length equals |negative set|."""
    return len(negative_set_indices(datum, w)) == len(w.word)


def restrict(datum: RootDatum, lam: SpectralParam, alpha) -> complex:
    """<lam, alpha_0> = <lam, alpha>/<alpha, alpha>, the scalar spectral
    parameter of the rank-one factor attached to alpha.  `alpha` is a
    root vector or an index into positive_roots."""
    if isinstance(alpha, (int, np.integer)):
        alpha = datum.positive_roots[alpha]
    a = np.asarray(alpha, dtype=float)
    return complex((lam.array() @ a) / (a @ a))


def enumerate_weyl(datum: RootDatum) -> list[WeylElement]:
    """All Weyl elements with a reduced word each, by breadth-first
    closure over right multiplication by simple reflections (feasible for
    the built-in rank <= 2 catalog)."""
    seen = {_signed_images(datum, WeylElement.identity()):
            WeylElement.identity()}
    frontier = [WeylElement.identity()]
    while frontier:
        nxt = []
        for w in frontier:
            for letter in range(1, datum.rank + 1):
                cand = WeylElement(w.word + (letter,))
                key = _signed_images(datum, cand)
                if key not in seen:
                    seen[key] = cand
                    nxt.append(cand)
        frontier = nxt
    return sorted(seen.values(), key=lambda w: (len(w.word), w.word))


def longest_element(datum: RootDatum) -> WeylElement:
    """Reduced word for the longest element, from the table of supported
    types (A1, A1xA1, A2, B2/BC2)."""
    npos = datum.n_positive
    if datum.rank == 1 and npos == 1:
        w = WeylElement.of(1)
    elif datum.rank == 2 and npos == 2:
        w = WeylElement.of(1, 2)
    elif datum.rank == 2 and npos == 3:
        w = WeylElement.of(1, 2, 1)
    elif datum.rank == 2 and npos == 4:
        w = WeylElement.of(1, 2, 1, 2)
    else:
        raise RootDatumError(
            f"no longest-element table entry for rank {datum.rank} with "
            f"{npos} positive roots")
    if len(negative_set_indices(datum, w)) != npos:
        raise RootDatumError("longest-element table inconsistent with datum")
    return w


# ---------------------------------------------------------------------------
# built-in catalog

def datum_a1(m_alpha: int = 1, m_2alpha: int = 0) -> RootDatum:
    """Rank one with alpha = (1,), modelling every rank-one space through
    its multiplicities; alpha(H) = 1 normalization."""
    return RootDatum(1, ((1.0,),), ((1.0,),), ((m_alpha, m_2alpha),))


def datum_a1xa1(m_first: int = 1, m_second: int = 1) -> RootDatum:
    return RootDatum(
        2,
        ((1.0, 0.0), (0.0, 1.0)),
        ((1.0, 0.0), (0.0, 1.0)),
        ((m_first, 0), (m_second, 0)),
    )


def datum_a2(m: int = 1) -> RootDatum:
    s3 = math.sqrt(3.0) / 2.0
    a1 = (1.0, 0.0)
    a2 = (-0.5, s3)
    a12 = (0.5, s3)
    return RootDatum(2, (a1, a2), (a1, a2, a12), ((m, 0),) * 3)


def datum_b2(m_long: int = 1, m_short: int = 1,
             m_short2: int = 0) -> RootDatum:
    """B2 coordinates: simple roots e1-e2 (long) and e2 (short); positive
    roots e1-e2, e2, e1, e1+e2.  m_short2 > 0 turns the short roots into
    the indivisible members of a BC2 system."""
    a1 = (1.0, -1.0)
    a2 = (0.0, 1.0)
    b1 = (1.0, 0.0)
    b2 = (1.0, 1.0)
    return RootDatum(
        2, (a1, a2), (a1, a2, b1, b2),
        ((m_long, 0), (m_short, m_short2), (m_short, m_short2), (m_long, 0)),
    )


_CATALOG = {
    "a1": datum_a1,
    "a1xa1": datum_a1xa1,
    "a2": datum_a2,
    "b2": datum_b2,
}


def datum_by_name(name: str, *args) -> RootDatum:
    try:
        return _CATALOG[name.lower()](*args)
    except KeyError:
        raise RootDatumError(f"unknown catalog datum {name!r}") from None


def datum_from_dict(doc: dict) -> RootDatum:
    """Build a datum from the JSON document layout: rank, simple_roots,
    positive_indivisible_roots, multiplicities (root_index 0-based, each
    listed at most once; an unlisted root has multiplicity (1, 0))."""
    try:
        rank = int(doc["rank"])
        simple = tuple(tuple(float(x) for x in r) for r in doc["simple_roots"])
        pos = tuple(tuple(float(x) for x in r)
                    for r in doc["positive_indivisible_roots"])
        mult = {}
        for ent in doc["multiplicities"]:
            i = int(ent["root_index"])
            if not 0 <= i < len(pos) or i in mult:
                raise RootDatumError(f"root_index {i} is listed twice or "
                                     f"outside 0..{len(pos) - 1}")
            mult[i] = (int(ent["m_alpha"]), int(ent.get("m_2alpha", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise RootDatumError(f"malformed root-datum document: {exc}") from exc
    return RootDatum(rank, simple, pos,
                     tuple(mult.get(i, (1, 0)) for i in range(len(pos))))


def datum_from_json(path) -> RootDatum:
    with open(path, encoding="utf-8") as fh:
        return datum_from_dict(json.load(fh))


def datum_to_dict(datum: RootDatum) -> dict:
    return {
        "rank": datum.rank,
        "simple_roots": [list(r) for r in datum.simple_roots],
        "positive_indivisible_roots": [list(r) for r in datum.positive_roots],
        "multiplicities": [
            {"root_index": i, "m_alpha": m, "m_2alpha": m2}
            for i, (m, m2) in enumerate(datum.mult)
        ],
    }
