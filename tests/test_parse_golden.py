"""What the front end makes of a fixed corpus, pinned by hash.

The corpus is the 16 Table-1 sources, the benchmark's own
``perfbench/programs/*.m`` (read only) and the fuzz grammar's programs for
seeds 0–299, each with six seeded character-level mutants that replace
1–3 characters with one of :data:`MUTATIONS`.  ``tests/golden/
parse_sha256.json`` holds, per input, a sha256 of either the AST
``parse`` returns, dumped field by field (node type, then every field in
sorted order, source locations included), or the ``ParseError`` /
``LexError`` it raises (type, message, location).  A parser or lexer
change that is meant to be exact — a faster loop, a smaller table — must
leave every hash alone; one that changes what parses, or where an error
is reported, regenerates the file and lists the keys.

Regenerate by running this file as a script::

    PYTHONPATH=src python tests/test_parse_golden.py
"""

from __future__ import annotations

import enum
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.benchsuite.registry import benchmark_names, source_of
from repro.errors import LexError, ParseError, SourceLocation
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.fuzz.grammar import generate_program

GOLDEN = Path(__file__).parent / "golden" / "parse_sha256.json"
PERFBENCH_PROGRAMS = Path(__file__).parent.parent / "perfbench" / "programs"
FUZZ_SEEDS = range(300)
MUTANTS = 6
#: What a mutation writes over one character: the tokens whose
#: misplacement exercises the precedence levels, subscripts, matrix rows,
#: transposes and block structure.
MUTATIONS = ("(", ")", "+", "*", ":", "==", "&&", "'", "end", "-", "^",
             "[", "]", ";", "\n")
_NODES = (ast.Expr, ast.Stmt, ast.LValue, ast.FunctionDef, ast.Program)


def corpus() -> dict[str, dict[str, str]]:
    """``family -> {key: source}`` for the unmutated inputs."""
    return {
        "table1": {f"table1/{name}": source_of(name)
                   for name in benchmark_names()},
        "perfbench": {f"perfbench/{path.stem}": path.read_text()
                      for path in sorted(PERFBENCH_PROGRAMS.glob("*.m"))},
        "fuzz": {f"fuzz/{seed:03d}": generate_program(seed).source
                 for seed in FUZZ_SEEDS},
    }


def mutants(key: str, source: str) -> dict[str, str]:
    """``key -> text`` for the source and its seeded mutants."""
    inputs = {key: source}
    for number in range(1, MUTANTS + 1):
        rng = random.Random(f"{key}/{number}")
        text = source
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text))
            text = text[:at] + rng.choice(MUTATIONS) + text[at + 1:]
        inputs[f"{key}/m{number}"] = text
    return inputs


def dump(value) -> str:
    """Every field of an AST, in a fixed order."""
    if isinstance(value, _NODES):
        fields = sorted(vars(value).items())
        return (f"{type(value).__name__}("
                + ", ".join(f"{name}={dump(item)}" for name, item in fields)
                + ")")
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(dump(item) for item in value) + "]"
    if isinstance(value, (SourceLocation, enum.Enum, str, float, bool))\
            or value is None:
        return repr(value)
    raise TypeError(f"unexpected {type(value).__name__} in the AST")


def digest(source: str) -> str:
    try:
        text = dump(parse(source))
    except (ParseError, LexError) as exc:
        text = f"{type(exc).__name__}: {exc} @ {exc.location!r}"
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def parse_hashes(family: str) -> dict[str, str]:
    hashes = {}
    for key, source in corpus()[family].items():
        for name, text in mutants(key, source).items():
            hashes[name] = digest(text)
    return hashes


@pytest.mark.parametrize("family", ["table1", "perfbench", "fuzz"])
def test_parse_matches_golden(family):
    golden = {
        key: value
        for key, value in json.loads(GOLDEN.read_text()).items()
        if key.startswith(family + "/")
    }
    assert golden, f"no golden entries for {family}; regenerate {GOLDEN.name}"
    found = parse_hashes(family)
    differing = sorted(
        key for key in golden.keys() | found.keys()
        if golden.get(key) != found.get(key)
    )
    assert not differing, (
        f"the front end reads {len(differing)} {family} inputs differently "
        "from the golden:\n  " + "\n  ".join(differing[:40])
    )


if __name__ == "__main__":
    table: dict[str, str] = {}
    for family_name in corpus():
        table.update(parse_hashes(family_name))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} hashes to {GOLDEN}")
