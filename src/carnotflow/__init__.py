"""Step-two Carnot group calculus and horizontal mean curvature flow.

The package has five layers:

    groups     group law, dilations, gauge, frame
    calculus   exact jets, horizontal gradient/Hessian, the operator F and
               its semicontinuous envelopes
    barriers   closed-form sub/supersolutions with classifications and
               extinction-time formulas
    verdicts   pointwise viscosity residuals, sweeps, the norm-lemma and
               restricted-test-class checks
    solver     explicit level-set evolution on a box with singular-node
               schemes, front extraction and extinction detection

plus a batch CLI (python -m carnotflow / carnotflow) driving verification
suites and evolution experiments from a JSON config.
"""

from . import barriers, calculus, groups, solver, verdicts
from .groups import *
from .calculus import *
from .barriers import *
from .verdicts import *
from .solver import *

__all__ = groups.__all__ + calculus.__all__ + barriers.__all__ + verdicts.__all__ + solver.__all__

__version__ = "0.1.0"
