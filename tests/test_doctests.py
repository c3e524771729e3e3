"""Run the doctest examples embedded in public-module docstrings."""

import doctest

import pytest

import repro.cluster.listener
import repro.docstore.documents
import repro.docstore.matching
import repro.search.columnar
import repro.search.query
import repro.serve.service
import repro.text.normalize
import repro.text.stemmer
import repro.text.tokenizer

MODULES = [
    repro.cluster.listener,
    repro.docstore.documents,
    repro.docstore.matching,
    repro.search.columnar,
    repro.search.query,
    repro.serve.service,
    repro.text.normalize,
    repro.text.stemmer,
    repro.text.tokenizer,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=[module.__name__ for module in MODULES]
)
def test_module_doctests(module):
    results = doctest.testmod(
        module, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert results.failed == 0, f"{results.failed} doctest failures"
    assert results.attempted > 0, "module lost its doctest examples"
