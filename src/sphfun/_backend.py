"""``sphfun._kernels_py`` under the name ``kernels``.

The library imports the kernels from here.  The module stays only because
``perfbench/tracer.py`` resolves the kernels it hooks as
``sphfun._backend.kernels``.
"""

from . import _kernels_py as kernels
