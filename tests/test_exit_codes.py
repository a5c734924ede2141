"""The exit-code contract as a property: mutated config files make
`protodetect gradcheck` return 0, 2, 3 or 4, and never raise.

Each example starts from the full default config and applies one to
three mutations: a leaf replaced by a value of the wrong type, an
unknown key at the top level or inside a section, a section turned into
a non-object or dropped, a numeric leaf set out of range. Integers come
from a small range, so no mutation builds a large net.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings, strategies as st

from protodetect.cli import main
from protodetect.config import RunConfig

BASE = RunConfig.from_dict({}).to_dict()
SECTIONS = ("world", "train", "protocol")
EXIT_CODES = (0, 2, 3, 4)

small_ints = st.integers(-3, 6)
wrong_types = st.one_of(st.text(max_size=3), st.lists(small_ints, max_size=2), st.none(),
                        st.dictionaries(st.text(max_size=2), small_ints, max_size=2),
                        st.booleans())
non_objects = st.one_of(st.lists(small_ints, max_size=2), small_ints, st.text(max_size=3),
                        st.none(), st.booleans())
out_of_range = st.one_of(st.integers(-3, 0), st.sampled_from(
    [-1.0, -1e-9, 0.0, 5e-324, 1e308, -1e308, float("nan"), float("inf")]))


def _numeric(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 3))):
        sections = [s for s in SECTIONS if isinstance(doc.get(s), dict) and doc[s]]
        kind = draw(st.sampled_from(["type", "unknown", "section", "drop", "range"]
                                    if sections else ["unknown", "section", "drop"]))
        if kind == "type":
            section = doc[draw(st.sampled_from(sections))]
            section[draw(st.sampled_from(sorted(section)))] = draw(wrong_types)
        elif kind == "unknown":
            where = draw(st.sampled_from([None, *sections]))
            target = doc if where is None else doc[where]
            target[draw(st.text(min_size=1, max_size=4))] = draw(small_ints)
        elif kind == "section":
            doc[draw(st.sampled_from(SECTIONS))] = draw(non_objects)
        elif kind == "drop":
            doc.pop(draw(st.sampled_from(SECTIONS)), None)
        else:
            numeric = [(s, k) for s in sections for k in sorted(doc[s]) if _numeric(doc[s][k])]
            if numeric:
                s, k = draw(st.sampled_from(numeric))
                doc[s][k] = draw(out_of_range)
    return doc


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(doc=mutated_configs())
def test_gradcheck_exit_code_on_mutated_configs(doc, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["gradcheck", "--config", str(path)])
    assert rc in EXIT_CODES
