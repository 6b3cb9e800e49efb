"""The MaJIC front end (Section 2).

Users interact with a MATLAB-compatible interpreter that executes top-level
code at roughly interpreter speed, but *defers computationally complex
tasks — function calls — to the code repository*: the front end hands the
repository the invocation — function name, parameter values, ``nargout``
— as the three arguments of ``CodeRepository.execute``, which locates or
compiles suitable code.  An :class:`Invocation` is the same triple as one
value, built only where the repository keeps or ranks it (a miss, a
deopt, a supervised call).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.parser import parse
from repro.interp.environment import Environment
from repro.interp.interpreter import Interpreter
from repro.runtime.display import OutputSink
from repro.runtime.mxarray import MxArray
from repro.typesys.signature import Signature, signature_of_values


@dataclass(slots=True)
class Invocation:
    """A deferred function call passed from the front end to the
    repository (Section 2: "an invocation containing the name of a MATLAB
    function and the values of the parameters")."""

    name: str
    args: list[MxArray]
    nargout: int = 1

    @property
    def signature(self) -> Signature:
        return signature_of_values(self.args)


class MajicFrontEnd:
    """Interactive front end: interprets top-level code, defers calls."""

    def __init__(self, repository, sink: OutputSink | None = None):
        self.repository = repository
        self.sink = sink if sink is not None else OutputSink()
        self.workspace = Environment()
        # A user call of top-level code is deferred to the repository
        # through its own interpreter hook.
        self.interpreter = Interpreter(
            function_lookup=repository.lookup_function,
            sink=self.sink,
            call_dispatcher=repository.dispatch,
        )

    # ------------------------------------------------------------------
    def eval(self, text: str) -> None:
        """Execute one chunk of top-level MATLAB code."""
        program = parse(text)
        if not program.is_script:
            raise ValueError(
                "function definitions belong in files on the path; "
                "use repository.add_source/add_path"
            )
        self.interpreter.run_statements(program.script, self.workspace)
