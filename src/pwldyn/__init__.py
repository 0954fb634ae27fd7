"""Tools for continuous piecewise-linear maps near border collisions.

The package builds two-piece piecewise-linear maps on R^n, detects when the
two pieces share an eigenvalue, restricts the dynamics to the resulting
invariant plane, constructs the induced return map when one piece is
singular, and classifies eigenvalues on the unit circle.  Its public names
are those of its library modules, each listed once in the module's
``__all__``: the paper's objects; the machinery behind them stays in its
module.  The modules ``errors``, ``linalg``, ``pwlmap``, ``reduction``,
``analysis`` and ``cli`` are layers, each importing only from those before.
"""
from . import analysis, errors, linalg, pwlmap, reduction
from .analysis import *
from .errors import *
from .linalg import *
from .pwlmap import *
from .reduction import *

__version__ = "0.1.0"

__all__ = [*analysis.__all__, *errors.__all__, *linalg.__all__, *pwlmap.__all__,
           *reduction.__all__]
