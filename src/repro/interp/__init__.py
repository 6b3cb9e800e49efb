"""Interpreted execution.

:mod:`~repro.interp.interpreter` is the stock-MATLAB-like tree-walking
interpreter — the paper's baseline ``t_i``.  Every value is a boxed MxArray
and every operation goes through the generic runtime-dispatch layer, which
is precisely the overhead compilation removes.

:mod:`~repro.interp.frontend` wraps it into the MaJIC front end of
Section 2: a compatible interpreter that executes top-level code itself but
*defers computationally complex tasks (function calls) to the code
repository* (name, argument values and ``nargout`` — the invocation —
handed to its ``execute``).
"""

from repro.interp.environment import Environment
from repro.interp.interpreter import Interpreter
from repro.interp.frontend import MajicFrontEnd, Invocation

__all__ = ["Environment", "Interpreter", "MajicFrontEnd", "Invocation"]
