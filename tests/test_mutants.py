"""The mutant list stays current: each mutant's old text occurs exactly
once in its file, and each test it names exists.  Running the mutants
takes a pytest run each: `python tests/mutants.py`."""

import ast

import mutants


def _test_names(path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_mutant_applies_once_and_names_existing_tests():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        text = (mutants.REPO / "src" / "surfgraph" / m.file).read_text()
        assert text.count(m.old) == 1 and m.old != m.new and m.tests, m.name
        for test in m.tests:
            path, name = test.split("::")
            assert name.startswith("test_") and name in _test_names(mutants.REPO / path), (m.name, test)
