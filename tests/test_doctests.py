"""Keep the docstring examples and the README's quick tour true."""
import doctest
from pathlib import Path

import signbalance321.ballots
import signbalance321.enumeration
import signbalance321.permutations

README = Path(__file__).resolve().parents[1] / "README.md"


def test_module_doctests():
    for module in (
        signbalance321.permutations,
        signbalance321.ballots,
        signbalance321.enumeration,
    ):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__


def test_readme_quick_tour():
    # The >>> block of "Library quick tour", without its closing fence (which
    # doctest would read as expected output of the last example).
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "quick tour", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0
    assert result.attempted == len(test.examples) > 0
