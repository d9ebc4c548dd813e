"""sphfun: c-functions and spherical functions on noncompact symmetric
spaces, rank one in full and the small higher-rank Weyl groups, with
quadrature oracles for every defining integral.

Subpackages follow the pipeline: ``complexmath`` (Gamma / 2F1 kernels),
``rootdata`` (restricted root systems and Weyl words), ``cfun`` (the
c-function product formulas), ``rankone`` (K-type spherical functions and
their asymptotics), ``models`` (quadrature oracles on the ball model),
``higherrank`` (cocycle and determinant composites), ``cli``.
"""

__version__ = "0.1.0"
__all__ = ["__version__"]
