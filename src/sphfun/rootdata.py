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
        norms, coeffs, cartan = _validate_datum(self)
        simple_index, reflections = _weyl_tables(self, coeffs, cartan)
        # derived attributes, outside the fields that eq and hash compare;
        # 1/<alpha, alpha> because restrict and the reflections scale by
        # it; _negative_sets fills with the words this datum meets
        derived = {
            "_inv_norms": tuple(1.0 / aa for aa in norms),
            "_simple_inv_norms": tuple(1.0 / _dot(a, a)
                                       for a in self.simple_roots),
            "_simple_index": simple_index,
            "_reflections": reflections,
            "_negative_sets": {},
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def n_positive(self) -> int:
        return len(self.positive_roots)

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


def _dot(u, v):
    """sum u_k v_k, left to right."""
    acc = 0.0
    for a, b in zip(u, v):
        acc += a * b
    return acc


def _validate_datum(datum: RootDatum) -> tuple[list, list, list]:
    """Raise RootDatumError unless the datum is crystallographic data.
    Returns each positive root's <beta, beta>, its integer coefficients in
    the simple roots, and the Cartan integers cartan[k][j] = 2 <beta_k,
    beta_j> / <beta_j, beta_j>."""
    if datum.rank < 1:
        raise RootDatumError("rank must be positive")
    for name, roots in (("simple", datum.simple_roots),
                        ("positive", datum.positive_roots)):
        if not roots or any(len(r) != datum.rank for r in roots):
            raise RootDatumError(f"{name} roots must have length == rank")
    # a NaN would reach the solve below, and a |root|^2 beyond the double
    # range the crystallographic check; 2 |r|^2 finite for every root
    # bounds every 2 <alpha, beta> there
    if not all(math.isfinite(2.0 * _dot(r, r))
               for r in datum.simple_roots + datum.positive_roots):
        raise RootDatumError("root coordinates must be finite, with "
                             "2 |root|^2 in the double range")
    if any(math.hypot(*r) <= _TOL
           for r in datum.simple_roots + datum.positive_roots):
        raise RootDatumError("roots must be nonzero")
    if len(datum.mult) != len(datum.positive_roots):
        raise RootDatumError("one multiplicity pair per positive root")
    for m, m2 in datum.mult:
        if m < 1:
            raise RootDatumError("m_alpha must be >= 1 for every root")
        if m2 < 0:
            raise RootDatumError("m_2alpha must be >= 0")
    # positive roots are nonnegative integer combinations of simple roots
    coeffs = np.linalg.lstsq(np.asarray(datum.simple_roots, dtype=float).T,
                             np.asarray(datum.positive_roots, dtype=float).T,
                             rcond=None)[0].T.tolist()
    for beta, c in zip(datum.positive_roots, coeffs):
        # to 1e-9 plus 1e-5 relative, np.allclose's default
        if not all(abs(_dot(c, axis) - b) <= _TOL + 1e-5 * abs(b)
                   for b, axis in zip(beta, zip(*datum.simple_roots))):
            raise RootDatumError("positive roots not in the simple-root "
                                 "span")
    if any(x < -_TOL or abs(x - round(x)) > _TOL for c in coeffs for x in c):
        raise RootDatumError(
            "positive roots must be nonnegative integer combinations "
            "of simple roots")
    coeffs = [tuple(round(x) for x in c) for c in coeffs]
    # crystallographic condition over all pairs of listed roots
    norms = [_dot(beta, beta) for beta in datum.positive_roots]
    cartan = []
    for alpha in datum.positive_roots:
        row = []
        for beta, bb in zip(datum.positive_roots, norms):
            n = 2.0 * _dot(alpha, beta) / bb
            if abs(n - round(n)) > _TOL:
                raise RootDatumError(
                    f"non-crystallographic pair {alpha}, {beta}")
            row.append(round(n))
        cartan.append(row)
    return norms, coeffs, cartan


def _weyl_tables(datum: RootDatum, coeffs, cartan) -> tuple[tuple, tuple]:
    """The Weyl action as integers: the positive-root index of each simple
    root, and each simple reflection as a permutation of the signed roots,
    where index k < n is positive root k and k + n is its negative.  A
    root is its simple-root coefficients; s_i beta_k takes the Cartan
    integer <beta_k, alpha_i^vee> times alpha_i off them.  A root that
    is not listed, or listed as neither sign, is incomplete data."""
    n = datum.n_positive
    signed = {}
    for sign, offset in ((1, 0), (-1, n)):
        for k, c in enumerate(coeffs):
            signed.setdefault(tuple(sign * x for x in c), k + offset)

    def unlisted(vec):
        return RootDatumError(f"root {vec} is not a listed positive root "
                              "or its negative")

    simple_index = []
    for i, alpha in enumerate(datum.simple_roots):
        k = signed.get(tuple(int(j == i) for j in range(len(coeffs[0]))))
        if k is None:
            raise unlisted(alpha)
        simple_index.append(k)
    reflections = []
    for i, j in enumerate(simple_index):
        perm = [0] * (2 * n)
        for k, c in enumerate(coeffs):
            step = cartan[k][j]
            image = list(c)
            image[i] -= step
            for sign, x in ((1, k), (-1, k + n)):
                y = signed.get(tuple(sign * v for v in image))
                if y is None:
                    raise unlisted(tuple(
                        sign * (b - step * a) for b, a in
                        zip(datum.positive_roots[k], datum.simple_roots[i])))
                perm[x] = y
        reflections.append(tuple(perm))
    return tuple(simple_index), tuple(reflections)


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
    vec = lam.coords
    for letter in reversed(w.word):
        i = _letter_index(datum, letter)
        alpha = datum.simple_roots[i]
        c = 2.0 * _dot(vec, alpha) * datum._simple_inv_norms[i]
        vec = [z - c * x for z, x in zip(vec, alpha)]
    return SpectralParam.of(vec)


def _signed_images(datum: RootDatum, w: WeylElement) -> tuple[int, ...]:
    """Signed-root indices (see _weyl_tables) of w(root k), k < n."""
    images = range(datum.n_positive)
    for letter in reversed(w.word):
        perm = datum._reflections[_letter_index(datum, letter)]
        images = [perm[x] for x in images]
    return tuple(images)


def negative_set_indices(datum: RootDatum, w: WeylElement) -> list[int]:
    """Indices i with w(positive_roots[i]) a negative root.  The datum
    keeps each word's set once it is found."""
    found = datum._negative_sets.get(w.word)
    if found is None:
        found = tuple(i for i, image in enumerate(_signed_images(datum, w))
                      if image >= datum.n_positive)
        datum._negative_sets[w.word] = found
    return list(found)


def is_reduced(datum: RootDatum, w: WeylElement) -> bool:
    """A word is reduced iff its length equals |negative set|."""
    return len(negative_set_indices(datum, w)) == len(w.word)


def restrict(datum: RootDatum, lam: SpectralParam, index: int) -> complex:
    """<lam, alpha_0> = <lam, alpha>/<alpha, alpha> for alpha =
    positive_roots[index], the scalar spectral parameter of the rank-one
    factor attached to alpha."""
    return _dot(lam.coords, datum.positive_roots[index]) \
        * datum._inv_norms[index]


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
    """Reduced word for the longest element: from the identity, append
    the smallest letter that leaves the word reduced, until no letter
    does.  Every reduced word extends to a reduced word of the longest
    element, the one element that no letter lengthens."""
    word = ()
    while True:
        for letter in range(1, datum.rank + 1):
            if is_reduced(datum, WeylElement(word + (letter,))):
                word += (letter,)
                break
        else:
            return WeylElement(word)


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


def datum_by_name(name: str) -> RootDatum:
    try:
        return _CATALOG[name.lower()]()
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
