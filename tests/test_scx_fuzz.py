"""Random .scx files: loads_scx and the verify and homology commands.

Every input either loads or raises ScxFormatError, and every command ends
in exit 0, 1 or 2, with exit 2 writing one line to standard error.
"""

import io
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from zncomplex.cli import main
from zncomplex.errors import ScxFormatError
from zncomplex.simplicial import MAX_FACE_VERTICES, loads_scx


def joined(values):
    return " ".join(map(str, values))


headers = st.one_of(st.just("scx 1"),
                    st.sampled_from([" scx 1 ", "scx 2", "", "SCX 1", "scx"]))
counts = st.one_of(st.integers(-3, 14), st.integers(-10 ** 30, 10 ** 30))
count_lines = st.one_of(
    counts.map(lambda n: f"v {n}"),
    st.sampled_from(["v", "v ", "v x", "w 3", "", "v 1.5", "v 3 4", "v 0x3"]))
# Sorted and duplicate-free, so these load; some use ids outside 0..v-1.
faces = st.lists(st.integers(-2, 12), max_size=4).map(
    lambda vs: joined(sorted(set(vs))))
any_lines = st.one_of(
    faces,
    # Random order, repeats and huge values.
    st.lists(st.integers(-10 ** 20, 10 ** 20), max_size=40).map(joined),
    # Over the cap.
    st.lists(st.integers(0, 60), min_size=MAX_FACE_VERTICES + 1, max_size=40,
             unique=True).map(lambda vs: joined(sorted(vs))),
    st.sampled_from(["", "   ", "a b", "1 x 2", "1.0 2", "0x1", "--1", "1_0 2"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@st.composite
def valid_texts(draw):
    """Faces relabeled onto 0..n-1 under the count n: these validate."""
    raw = draw(st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=4),
                        max_size=8))
    used = sorted({v for face in raw for v in face})
    relabel = {v: i for i, v in enumerate(used)}
    lines = [joined(sorted({relabel[v] for v in face})) for face in raw]
    return "\n".join(["scx 1", f"v {len(used)}", *lines])


scx_texts = st.one_of(
    valid_texts(),
    st.builds(lambda header, count, lines: "\n".join([header, count, *lines]),
              headers, count_lines,
              st.one_of(st.lists(faces, max_size=8),
                        st.lists(any_lines, max_size=6))))
files = st.one_of(scx_texts.map(str.encode), st.binary(max_size=40))


@settings(max_examples=150, deadline=None)
@given(files, st.integers(-1, 3), st.integers(-1, 3))
def test_scx_files_end_in_exit_0_1_or_2(data, rank, dim):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        try:
            loads_scx(text)
        except ScxFormatError:
            pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scx"
        path.write_bytes(data)
        for argv in (["verify", str(path)],
                     ["verify", str(path), "--expect-rank", str(rank)],
                     ["homology", str(path), "--dim", str(dim)]):
            err = io.StringIO()
            with redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert err.getvalue().count("\n") == 1, err.getvalue()

