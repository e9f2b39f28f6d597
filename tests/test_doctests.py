"""Run the doctests embedded in public docstrings and in the docs.

The examples in docstrings are part of the documented API contract, and
the fenced ``>>>`` snippets in the Markdown docs are executable claims
about the system; this keeps both honest.
"""

import doctest
import pathlib
import re

import pytest

import repro.namespace.namespace
import repro.rsl.constraints
import repro.rsl.expressions
import repro.rsl.parser

MODULES = [
    repro.rsl.expressions,
    repro.rsl.parser,
    repro.rsl.constraints,
    repro.namespace.namespace,
]

DOCS_DIR = pathlib.Path(__file__).parent.parent / "docs"

#: Markdown documents whose ```python blocks must run as doctests.
DOC_FILES = ["fault-tolerance.md", "observability.md", "durability.md",
             "architecture.md", "performance.md", "wire-protocol.md",
             "replication.md"]


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda module: module.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0


def python_snippets(markdown_text):
    """Fenced ```python blocks containing ``>>>`` examples."""
    blocks = re.findall(r"```python\n(.*?)```", markdown_text, re.DOTALL)
    return [block for block in blocks if ">>>" in block]


@pytest.mark.parametrize("doc_name", DOC_FILES)
def test_doc_snippets_run_clean(doc_name):
    """Each snippet runs in a fresh namespace, top to bottom."""
    text = (DOCS_DIR / doc_name).read_text()
    snippets = python_snippets(text)
    assert snippets, f"{doc_name} lost its runnable snippets"
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    for index, snippet in enumerate(snippets):
        test = parser.get_doctest(snippet, {}, f"{doc_name}[{index}]",
                                  doc_name, 0)
        runner.run(test)
    assert runner.tries > 0
    assert runner.failures == 0, \
        f"{runner.failures} doc snippet example(s) failed in {doc_name}"
