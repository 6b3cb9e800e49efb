"""PyMaJIC — a reproduction of "MaJIC: Compiling MATLAB for Speed and
Responsiveness" (Almási & Padua, PLDI 2002).

The top-level API is :class:`~repro.core.majic.MajicSession`::

    from repro import MajicSession

    s = MajicSession(platform="sparc")
    s.add_source('''
    function p = poly(x)
    p = x.^5 + 3*x + 2;
    ''')
    s.call("poly", 4)      # JIT-compiled on first use -> 1038.0
    s.speculate_all()      # speculative ahead-of-time compilation

Subpackages
-----------
``runtime``     boxed MxArray values, generic operators, builtins
``frontend``    MATLAB lexer/parser/AST
``analysis``    CFG, dataflow, symbol disambiguation
``typesys``     the Li x Ls x Ls x Ll type lattice and signatures
``inference``   type calculator, JIT inference, the speculator
``vcode``       ICODE IR, linear-scan register allocation, emission
``codegen``     JIT and optimizing (speculative) code generators
``repository``  the compiled-code database and directory snooping
``interp``      the interpreter baseline and the MaJIC front end
``baselines``   mcc and FALCON comparators
``benchsuite``  the 16 benchmarks of Table 1
``experiments`` harnesses regenerating every table and figure
"""

from repro.core.majic import MajicSession, ensure_recursion_limit
from repro.core.platformcfg import AblationFlags, MIPS, SPARC, platform_by_name
from repro.faults import FaultPlan, InjectedFault
from repro.resilience import ResiliencePolicy
from repro.tiering import TieringPolicy

__version__ = "1.0.0"

__all__ = [
    "MajicSession",
    "AblationFlags",
    "SPARC",
    "MIPS",
    "platform_by_name",
    "FaultPlan",
    "InjectedFault",
    "ResiliencePolicy",
    "TieringPolicy",
    "ensure_recursion_limit",
    "__version__",
]
