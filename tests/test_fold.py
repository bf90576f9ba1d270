"""Every tree interpreter is one memoized, iterative fold: deep trees do
not exhaust the Python stack, and shared subtrees are interpreted once."""

import pytest

from qdops.cli import main
from qdops.exactscalar import scalar
from qdops.opexpr import EAdd, EGen, evaluate, parse
from qdops.opsym import equals, generator
from qdops.qgroup import alpha
from qdops.rings import POLY_X
from qdops.shapes import shape_normalize

LEVELS = 64
TWO_TO_LEVELS = scalar(2 ** LEVELS)


def doubling(leaf, levels=LEVELS):
    """e_0 = leaf, e_k = e_{k-1} + e_{k-1}: 2^levels leaves, levels+1 nodes."""
    e = leaf
    for _ in range(levels):
        e = EAdd(e, e)
    return e


def test_dag_shape_normalize():
    sf = shape_normalize(doubling(EGen("D", 1)))
    assert sf.classes == {(0, (1,)): {0: TWO_TO_LEVELS}}


def test_dag_alpha():
    assert equals(alpha(doubling(EGen("E"))), alpha("E") * TWO_TO_LEVELS)


def test_dag_evaluate():
    want = generator("dbeta", POLY_X, 1) * TWO_TO_LEVELS
    assert equals(evaluate(doubling(EGen("D", 1))), want)


@pytest.mark.parametrize("argv", [
    ["eval", "+".join(["x"] * 5000)],
    ["uq", "+".join(["E"] * 5000)],
    ["simplicity-witness", "+".join(["x"] * 5000)],
    ["eval", "*".join(["s[1]"] * 5000)],
], ids=["eval-sum", "uq-sum", "witness-sum", "eval-product"])
def test_deep_input_through_cli(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "5000" in out


def test_deep_trees_compare_and_hash_by_identity():
    # expressions compare and hash by identity, without walking the tree
    text = "+".join(["x"] * 5000)
    a, b = parse(text), parse(text)
    assert a == a and a != b
    assert len({a, b, a}) == 2
