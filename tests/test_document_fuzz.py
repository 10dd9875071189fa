"""Document fuzzer: a shipped scenario with one key deleted or one value
replaced, at any depth, either parses into a Scenario or is refused with a
ValidationError, never another exception."""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cbilab.cli import load_document, parse_scenario
from cbilab.errors import ValidationError
from cbilab.verify import Scenario

SHIPPED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every key path below node: dict keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_documents_parse_or_are_refused(tmp_path_factory, data):
    doc = json.loads(data.draw(st.sampled_from(SHIPPED)).read_text())
    *parents, key = data.draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for k in parents:
        node = node[k]
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(JSON_VALUES)
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))  # non-finite floats become NaN/Infinity tokens
    try:
        scenario = parse_scenario(load_document(path))
    except ValidationError:
        return
    assert isinstance(scenario, Scenario)
