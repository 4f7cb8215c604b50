"""Property test: no job document, however mangled, escapes the exit-code contract.

Each example takes one fixture or malformed job, in half the examples sets
its outputs to a random subset of its kind's, and replaces one or two of
its subtrees with random JSON. ``run_job`` must return or raise
``SchemaError`` (exit 1) or ``LawViolation`` (exit 2); anything else would be
a traceback. Integers stay in [-40, 40] so that every example is cheap to
compute; the probes at large bit sizes live in ``test_bitsize.py``.

Hypothesis is seeded from GAUGEWORKS_SEED like the other random corpora and
keeps no example database, so every run draws the same examples.
"""

import copy
import json
import os
import pathlib

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import DEFAULT_SEED, HangGuard
from gaugeworks.cli import DEFAULT_OUTPUTS, run_job
from gaugeworks.errors import LawViolation, SchemaError

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
DOCS = [json.loads(path.read_text(encoding="utf-8"))
        for folder in ("jobs", "malformed")
        for path in sorted((FIXTURES / folder).glob("*.json"))]

RATIONALS = st.sampled_from(["0", "1", "-3", "2/3", "-7/4", "9/1", "1/0", "1.5",
                             " 2", "x", ""])
DEGREE_KEYS = st.sampled_from(["-2", "-1", "0", "1", "2", "3", "+1", "x", ""])
LEAVES = st.none() | st.booleans() | st.integers(-40, 40) | RATIONALS
JSON = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(DEGREE_KEYS, kids, max_size=3),
    max_leaves=12)


def _subtrees(node, path=()):
    """The path to every subtree below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _subtrees(child, path + (key,))


@st.composite
def mutated_jobs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    if draw(st.booleans()):
        # any subset of outputs: the constructors meet lawless input first
        doc["outputs"] = draw(st.lists(st.sampled_from(DEFAULT_OUTPUTS[doc["kind"]]),
                                       min_size=1, unique=True))
    for _ in range(draw(st.integers(1, 2))):
        *parents, last = draw(st.sampled_from(list(_subtrees(doc))))
        node = doc
        for key in parents:
            node = node[key]
        node[last] = draw(JSON)
    return doc


@seed(int(os.environ.get("GAUGEWORKS_SEED", DEFAULT_SEED)))
@settings(max_examples=300, deadline=None, database=None)
@given(doc=mutated_jobs(), prime_flag=st.sampled_from([None, 3]))
def test_mutated_jobs_exit_0_1_or_2(doc, prime_flag):
    with HangGuard(60):
        try:
            text, _ = run_job(doc, prime_flag)
        except (SchemaError, LawViolation):
            return
    assert text.startswith("kind: ") and text.endswith("\n")
