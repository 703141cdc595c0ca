"""Random presentation and points files through the JSON-reading commands.

Every run of pipeline, pipeline --c 1/8, reduce --passes minimize,sparse and
sg-check --delta 1/2 ends in exit 0, 1 or 2 and raises nothing, and exit 2
writes one line to standard error, starting with "error: ".
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from zncomplex.cli import main
from zncomplex.presentation import dumps_presentation, standard_zn

COMMANDS = (
    ["pipeline"],
    ["pipeline", "--c", "1/8"],
    ["reduce", "--passes", "minimize,sparse"],
    ["sg-check", "--delta", "1/2"],
)


def _edited(pres, drop, repeat):
    data = json.loads(dumps_presentation(pres))
    rels = data["relations"]
    if 0 <= repeat < len(rels):
        rels.append(rels[repeat])
    if 0 <= drop < len(rels):
        del rels[drop]
    return data


names = st.sampled_from(["a", "b", "c", "d", "e"])
syllables = st.tuples(names, st.integers(-3, 3)).map(list)
relations = st.lists(syllables, min_size=1, max_size=4)
presentations = st.builds(
    lambda gens, rels: {"generators": gens, "relations": rels},
    st.lists(names, max_size=5, unique=True), st.lists(relations, max_size=6))
# The intro3 presentations of Z^1..Z^3 pass every check; dropping or
# repeating a relation may break them.
standard = st.builds(
    lambda n, drop, repeat: _edited(standard_zn(n, "intro3"), drop, repeat),
    st.integers(1, 3), st.integers(-1, 5), st.integers(-1, 5))
points = st.integers(1, 3).flatmap(lambda dimension: st.builds(
    lambda pts: {"dimension": dimension, "points": pts},
    st.lists(st.lists(st.integers(-3, 3), min_size=dimension,
                      max_size=dimension), max_size=7)))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20),
              st.floats(allow_nan=False), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(
            ["generators", "relations", "points", "dimension", "x"]),
            inner, max_size=4)),
    max_leaves=12)
# Well-formed objects with one key's value swapped for a random one.
malformed = st.builds(
    lambda data, key, value: {**data, key: value},
    st.one_of(presentations, points),
    st.sampled_from(["generators", "relations", "points", "dimension"]),
    json_values)


texts = st.one_of(
    st.one_of(presentations, standard, points, malformed, json_values).map(
        json.dumps),
    # Truncated JSON.
    st.builds(lambda data, cut: json.dumps(data)[:cut],
              st.one_of(presentations, points), st.integers(0, 30)),
)
files = st.one_of(texts.map(str.encode), st.binary(max_size=40))


@settings(max_examples=150, deadline=None)
@given(files)
def test_json_files_end_in_exit_0_1_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_bytes(data)
        for command in COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                text = err.getvalue()
                assert text.startswith("error: ") and text.count("\n") == 1, text
