"""Soundness rechecks are raises, not asserts that python -O strips.

Each case stubs one recheck to fail and runs its entry point in a fresh
interpreter under -O; the run must end in VerificationError.  Five AST
scans keep the library free of assert statements, of unused imports, of
environment reads, of imports below module level and of top-level
definitions that no library code reads.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ramsey_forge

PRELUDE = """
import sys
from fractions import Fraction
from ramsey_forge import dense, drc, generators as gen, oracles, pipeline, regularity, rga
from ramsey_forge.graphs import EdgeColoring, Graph, WeightedGraph
from ramsey_forge.morphisms import (
    CapVerdict, HomVerdict, SearchOutcome, VerificationError, VertexMap,
)

if __debug__:
    sys.exit("not running under -O")

def reject(*args):
    return HomVerdict(False, ((0, 1),))

def reject_into(target, real):
    # fails only maps into `target`, so precondition checks still pass
    return lambda g, h, f: reject() if h is target else real(g, h, f)


# degree budget 1 and rho 1/2: each side of a bi-density witness needs 2 of 8
DENSE = dense.DenseParams(
    alpha=Fraction(1, 8), beta=Fraction(1, 4), rho=Fraction(1, 2), delta=Fraction(1, 2), max_deg=1
)
"""

# entry point -> code that stubs its recheck and then calls it; without the
# stub every call below returns a verified result
CASES = {
    "mono_copy_search": """
        oracles.verify_homomorphism = reject
        host = gen.complete(4)
        oracles.mono_copy_search(
            EdgeColoring(host, host.edges()), WeightedGraph.unit(gen.complete(3))
        )
    """,
    "rga_blowup_embed": """
        base = gen.complete(2)
        host, partition = rga.blowup_instance(base, 8)
        rga.verify_homomorphism = reject_into(host, rga.verify_homomorphism)
        rga.rga_blowup_embed(
            host, partition, base, gen.cycle(4), VertexMap(4, 2, (0, 1, 0, 1)),
            rga.RgaParams(delta=Fraction(1, 2), xi=Fraction(1, 4)),
        )
    """,
    "dense_greedy_embed": """
        dense.verify_capacity = lambda f, profile: CapVerdict(False, ())
        host = gen.complete(6)
        dense.dense_greedy_embed(
            host, dense.DenseWitness.trivial(host, 2), WeightedGraph.unit(gen.path(4)),
            Fraction(1, 2),
        )
    """,
    "wheel_mono_embed": """
        dense.verify_homomorphism = reject
        host = gen.complete(8)
        dense.wheel_mono_embed(EdgeColoring(host, host.edges()), 4, [1] * 4)
    """,
    "drc_select": """
        drc.common_neighborhood = lambda g, vertices: 0
        drc.drc_select(gen.complete(6), range(6), 1, Fraction(1, 4))
    """,
    "drc_bandwidth_embed": """
        drc.verify_homomorphism = reject
        h = Graph(12, [(2 * i, 2 * i + 1) for i in range(6)])
        drc.drc_bandwidth_embed(
            gen.complete(40), h, list(range(12)), Fraction(1, 2),
            max_deg=1, beta=Fraction(1, 8),
        )
    """,
    "regularity_check": """
        # a witness that does not violate: every subpair of K_8 has density 1
        bad = regularity.RegularityVerdict(
            regularity.VIOLATED, frozenset([0, 1]), frozenset([4, 5])
        )
        regularity._check_exhaustive = lambda *args: bad
        regularity.regularity_check(
            gen.complete(8), range(4), range(4, 8), regularity.RegularityParams(Fraction(1, 4))
        )
    """,
    "regularity_check_sampled": """
        bad = regularity.RegularityVerdict(
            regularity.VIOLATED, frozenset([0, 1]), frozenset([4, 5]), 1
        )
        regularity._check_sampled = lambda *args: bad
        regularity.regularity_check(
            gen.complete(8), range(4), range(4, 8), regularity.RegularityParams(Fraction(1, 4)),
            regularity.MODE_SAMPLED,
        )
    """,
    "dense_witness_check": """
        # a pair that does not violate: every pair of K_8 has density 1
        dense.bi_dense_violation = lambda *args: (frozenset([0, 1]), frozenset([4, 5]))
        dense.dense_witness_check(
            gen.complete(8), dense.DenseWitness.trivial(gen.complete(8), 1), DENSE
        )
    """,
    "dense_witness_check_sampled": """
        dense._sampled_bi_dense_violation = lambda *args: (frozenset([0, 1]), frozenset([4, 5]))
        dense.dense_witness_check(
            gen.complete(8), dense.DenseWitness.trivial(gen.complete(8), 1), DENSE, "sampled"
        )
    """,
    "lovasz_partition": """
        # every ratio compares equal, so the first class is always the minimum
        dense.Fraction = lambda num, den: 0
        dense.lovasz_partition(gen.complete(4), [1, 1])
    """,
    "transference_pipeline": """
        # the all-zero map of K_2 into the reduced graph sends the edge onto
        # a loop and puts two vertices on a capacity-1 vertex
        pipeline.find_capacity_homomorphism = lambda h, reduced, profile: SearchOutcome(
            VertexMap(h.n, reduced.n, (0,) * h.n), 1
        )
        host = gen.complete(24)
        pipeline.transference_pipeline(
            gen.cycle(4), gen.complete(2), VertexMap(4, 2, (0, 1, 0, 1)),
            EdgeColoring(host, host.edges()),
            pipeline.PipelineParams(Fraction(1, 4), Fraction(1, 4), 4),
        )
    """,
    "random_min_degree_host": """
        Graph.min_degree = lambda self: -1
        gen.random_min_degree_host(8, Fraction(1, 4), 0)
    """,
}


@pytest.mark.parametrize("entry", sorted(CASES))
def test_tripwire_survives_optimize(entry: str) -> None:
    script = PRELUDE + textwrap.dedent(
        """
        try:
        {body}
        except VerificationError:
            sys.exit(0)
        sys.exit("invalid result accepted")
        """
    ).format(body=textwrap.indent(textwrap.dedent(CASES[entry]).strip(), "    "))
    src = str(Path(ramsey_forge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def _library_modules() -> list[tuple[Path, ast.Module]]:
    package = Path(ramsey_forge.__file__).resolve().parent
    return [(path, ast.parse(path.read_text(), str(path))) for path in sorted(package.glob("*.py"))]


def test_library_has_no_assert_statements() -> None:
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _library_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _reads_environment(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv")
        )
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in ("environ", "getenv") for alias in node.names)
    return False


def test_library_reads_no_environment() -> None:
    # every setting is an argument or a config field, never an environment variable
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _library_modules()
        for node in ast.walk(tree)
        if _reads_environment(node)
    ]
    assert found == []


def test_library_imports_only_at_module_level() -> None:
    # every dependency of a module shows in its header, none inside a function
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _library_modules()
        for stmt in tree.body
        for node in ast.walk(stmt)
        if node is not stmt and isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


# bound but never read on purpose: perfbench/layers.py traces these names on
# the pipeline module
TRACED_BINDINGS = {("pipeline.py", "pair_density"), ("pipeline.py", "regularity_check")}


def test_library_has_no_unused_imports() -> None:
    found = []
    for path, tree in _library_modules():
        if path.name == "__init__.py":  # its imports are the public API
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and (path.name, name) not in TRACED_BINDINGS:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


# read by no library code on purpose: perfbench/layers.py traces this name,
# and its smoke test fails on an absent binding
TRACED_NAMES = {("oracles.py", "plain_embeds")}


def _reads(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) or isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def test_every_library_definition_has_a_library_reader() -> None:
    # a top-level function or class is public API or read by other library
    # code (its own body does not count); one that only tests call belongs in
    # tests/
    stmts = [(path, stmt) for path, tree in _library_modules() for stmt in tree.body]
    reads = [_reads(stmt) for _, stmt in stmts]
    found = [
        f"{path.name} {stmt.name}"
        for k, (path, stmt) in enumerate(stmts)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name not in ramsey_forge.__all__
        and (path.name, stmt.name) not in TRACED_NAMES
        and not any(stmt.name in r for j, r in enumerate(reads) if j != k)
    ]
    assert found == []
