"""What type inference concludes for every Table-1 program, pinned by hash
— and how much work it does to conclude it, pinned by count.

One smoke-scale call of each program on the ``jit`` and ``spec`` rows of
:data:`repro.backends.BACKENDS` runs :meth:`TypeInferenceEngine.infer`
some number of times (one per JIT compile; several per speculated
function).  ``tests/golden/annotations_sha256.json`` holds, keyed
``program/row/run/function/signature``, a sha256 over everything each run
returned: the type of every expression in AST preorder, the load/store
safety of every subscript site, the sorted ``var_types`` and
``output_types``, ``converged``, ``iterations`` and the three table
sizes.  Inference is deterministic, so a changed hash means the engine
concludes something else — which moves emitted code
(``test_emitted_golden.py``) or, for ``iterations``, the solver's
schedule.  A change that only makes the solver *cheaper* must leave this
file alone.

Regenerate by running this file as a script::

    PYTHONPATH=src python tests/test_annotations_golden.py
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import backends
from repro.backends import Program
from repro.benchsuite.registry import benchmark_names
from repro.frontend import ast_nodes as ast
from repro.inference.engine import TypeInferenceEngine

GOLDEN = Path(__file__).parent / "golden" / "annotations_sha256.json"
ROWS = ("jit", "spec")

#: perfbench's ``scalar_loops`` workload: the programs whose first call
#: is mostly analysis.
SCALAR_LOOPS = ("dirich", "finedif", "icn", "mandel", "crnich", "galrkn")


@contextmanager
def recorded_inference():
    """Every ``infer`` run inside the block, as ``(fn, signature,
    disambiguation, annotations, transfers)`` — the last being the number
    of ``_transfer`` calls the run made."""
    runs: list[tuple] = []
    transfers = [0]
    infer, transfer = TypeInferenceEngine.infer, TypeInferenceEngine._transfer

    def counting_transfer(self, *args, **kwargs):
        transfers[0] += 1
        return transfer(self, *args, **kwargs)

    def recording_infer(self, fn, signature, disambiguation=None):
        before = transfers[0]
        annotations = infer(self, fn, signature, disambiguation)
        runs.append((fn, signature, disambiguation, annotations,
                     transfers[0] - before))
        return annotations

    TypeInferenceEngine.infer = recording_infer
    TypeInferenceEngine._transfer = counting_transfer
    try:
        yield runs
    finally:
        TypeInferenceEngine.infer = infer
        TypeInferenceEngine._transfer = transfer


def digest(fn: ast.FunctionDef, annotations) -> str:
    """sha256 of everything ``annotations`` says about ``fn``, with the
    identity-keyed tables read back in AST preorder."""
    lines: list[str] = []

    def visit(expr: ast.Expr) -> None:
        for node in ast.walk_expr(expr):
            lines.append(f"{type(node).__name__} "
                         f"{annotations.expr_types.get(id(node))!r} "
                         f"{annotations.load_safety.get(id(node))}")

    for stmt in ast.walk_stmts(fn.body):
        lines.append(type(stmt).__name__)
        targets = (
            [stmt.target] if isinstance(stmt, ast.Assign)
            else stmt.targets if isinstance(stmt, ast.MultiAssign) else []
        )
        for target in targets:
            lines.append(f"store {annotations.store_safety.get(id(target))}")
        for expr in ast.stmt_exprs(stmt):
            visit(expr)
    lines.append(repr(sorted(annotations.var_types.items())))
    lines.append(repr(sorted(annotations.output_types.items())))
    lines.append(repr((
        annotations.converged, annotations.iterations,
        len(annotations.expr_types), len(annotations.load_safety),
        len(annotations.store_safety),
    )))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def annotation_hashes(name: str) -> dict[str, str]:
    """``key -> digest`` for every inference run one call of ``name``
    causes on each row, in the order the runs happen."""
    hashes = {}
    for row in ROWS:
        with recorded_inference() as runs:
            with backends.open(Program.benchmark(name), row) as handle:
                handle.call()
        for number, (fn, signature, _, annotations, _) in enumerate(runs):
            key = f"{name}/{row}/{number:02d}/{fn.name}/{signature!r}"
            hashes[key] = digest(fn, annotations)
    return hashes


@pytest.mark.parametrize("name", benchmark_names())
def test_annotations_match_golden(name):
    golden = {
        key: value
        for key, value in json.loads(GOLDEN.read_text()).items()
        if key.startswith(name + "/")
    }
    assert golden, f"no golden entries for {name}; regenerate {GOLDEN.name}"
    found = annotation_hashes(name)
    differing = sorted(
        key for key in golden.keys() | found.keys()
        if golden.get(key) != found.get(key)
    )
    assert not differing, (
        f"inference of {name} concludes something else than the golden on:"
        "\n  " + "\n  ".join(differing)
    )


def test_solver_transfers_each_block_only_on_changed_input():
    """A round-robin solver that re-transfers every block on every sweep
    and then re-walks the function to annotate makes exactly
    ``(iterations + 1) x atoms`` transfer calls per run.  Re-evaluating a
    block only when its input state changed, and recording annotations on
    that last evaluation, must need at most 60 % of that on the
    scalar-loop programs.  Counts repeat exactly: no clock involved."""
    made = ceiling = 0
    for name in SCALAR_LOOPS:
        with recorded_inference() as runs:
            with backends.open(Program.benchmark(name), "jit") as handle:
                handle.call()
        assert runs, f"{name}: the jit row ran no inference"
        for _, _, disambiguation, annotations, transfers in runs:
            atoms = sum(len(b.atoms) for b in disambiguation.cfg.blocks)
            ceiling += (annotations.iterations + 1) * atoms
            made += transfers
    assert made <= 0.6 * ceiling, (
        f"{made} transfers for a round-robin ceiling of {ceiling} "
        f"({made / ceiling:.0%}; at most 60% expected)"
    )


if __name__ == "__main__":
    table: dict[str, str] = {}
    for benchmark_name in benchmark_names():
        table.update(annotation_hashes(benchmark_name))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} hashes to {GOLDEN}")
