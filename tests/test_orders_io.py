import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ldimkit.intparse
from ldimkit import (FormatError, RealizerFamily, b4_family,
                     build_singleton_realizer, emit_orders_text, fixture_text,
                     parse_orders_family, parse_orders_text,
                     read_orders_family, write_orders_file)
from ldimkit.cli import main
from ldimkit.intparse import parse_ints


def test_parse_tolerant():
    text = "# header comment\n\n 1  2\t3 \n\n4 5  # trailing note\n\t\n"
    assert parse_orders_text(text) == [(1, 2, 3), (4, 5)]


def test_parse_empty_and_comment_only():
    assert parse_orders_text("") == []
    assert parse_orders_text("# nothing\n\n") == []


def test_parse_rejects_non_integers():
    with pytest.raises(FormatError) as exc:
        parse_orders_text("1 2\n3 x 4\n")
    assert "line 2" in str(exc.value)


def test_emit_normalized():
    rows = [(1, 2, 3), (4, 5)]
    text = emit_orders_text(rows)
    assert text == "1 2 3\n4 5\n"
    assert parse_orders_text(text) == rows
    # emission is a fixed point
    assert emit_orders_text(parse_orders_text(text)) == text


def test_fixture_round_trip():
    text = fixture_text("b4")
    rows = parse_orders_text(text)
    assert emit_orders_text(rows) == text
    assert rows == list(b4_family())
    assert text.splitlines()[0] == "0 8 1 9 2 3 11 4 6 7 12 14 13 15"


def test_file_round_trip(tmp_path):
    path = tmp_path / "orders.txt"
    rows = [(9, 8, 7), (1,)]
    write_orders_file(path, rows)
    assert list(read_orders_family(path)) == rows
    assert path.read_text(encoding="utf-8") == "9 8 7\n1\n"


# --------------------------------------------- the shared integer reader

_INT64 = np.iinfo(np.int64)
_TOKENS = st.one_of(
    st.integers(-(1 << 70), 1 << 70).map(str),
    st.integers(0, 99).map(str),
    st.sampled_from([
        "+", "-", "+7", "-0", "007", "1_000", "_1", "1__0", "1_", "\u0663",
        "1\u0663", "x", "1.5", "0x1f", "1e3", "--1", "+-1",
        str(_INT64.max), str(_INT64.max + 1), str(_INT64.min),
        str(_INT64.min - 1)]))
_BLANKS = st.sampled_from([" ", "  ", "\t", "\x1f", "\u00a0", " \t "])
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"])


@st.composite
def _lines(draw):
    """Orders text: lines of tokens and blanks, some with a # comment."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        tokens = draw(st.lists(_TOKENS, max_size=8))
        line = draw(st.sampled_from(["", " ", "\u00a0", "\t"]))
        for token in tokens:
            line += token + draw(_BLANKS)
        if draw(st.booleans()):
            line += "#" + draw(st.sampled_from(["", " x 1", "#", "1 2"]))
        lines.append(line + draw(_LINE_ENDS))
    return "".join(lines)


class _Bad(Exception):
    pass


def _int_reading(text: str):
    """The values int() reads from text's tokens, clipped to int64, or the
    first token it rejects."""
    values = []
    for token in text.split():
        try:
            values.append(min(max(int(token), _INT64.min), _INT64.max))
        except ValueError:
            return "bad", token
    return values


def _array_reading(text: str, sign_slice: int):
    try:
        # a function-scoped fixture would not be reset between examples
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ldimkit.intparse, "_SIGN_SLICE", sign_slice)
            values = parse_ints(text, _Bad)
    except _Bad as exc:
        return "bad", exc.args[0]
    assert values.dtype == np.int64
    return values.tolist()


@settings(max_examples=300, deadline=None)
@given(_lines(), st.integers(1, 9))
@example("1 +\n2", 1)
@example("- 2 0 +3", 2)
@example("1\x1f2 \u0663 1_0\t\u00a0+4", 3)
@example(f"{1 << 63} {-(1 << 63) - 1} 5", 4)
def test_array_reader_agrees_with_int(text, sign_slice):
    assert _array_reading(text, sign_slice) == _int_reading(text)


def _orders_reading(text: str):
    """Orders text as the tuple parser read it before the arrays."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                rows.append(tuple(int(token) for token in line.split()))
            except ValueError:
                return "error", (f"line {lineno}: expected whitespace-"
                                 f"separated integers, got {raw!r}")
    return rows


@settings(max_examples=300, deadline=None)
@given(_lines())
@example("# header\n 1  2\t3 \n\n4 5  # note\n\t\n")
@example(f"1 {1 << 63} 3\n{_INT64.max} {_INT64.min}\n")
def test_orders_reader_agrees_with_int(text):
    try:
        family = parse_orders_family(text)
    except FormatError as exc:
        assert _orders_reading(text) == ("error", str(exc))
        return
    rows = _orders_reading(text)
    assert list(family) == rows == parse_orders_text(text)
    # every id within int64 is held in an int64 array
    for ids, row in zip(family.arrays, rows):
        within = all(_INT64.min <= a <= _INT64.max for a in row)
        assert (ids.dtype == np.int64) == within
        assert not ids.flags.writeable


@pytest.mark.parametrize("style", ["warn", "raise"])
def test_array_reader_under_either_numpy(monkeypatch, style):
    # numpy before 2.3 warns and stops at a token it cannot read, numpy
    # 2.3 and later raises: force each on whichever numpy is installed
    real = np.fromstring
    stopped = []

    def fromstring(text, dtype, sep):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            try:
                return real(text, dtype=dtype, sep=sep)
            except (ValueError, DeprecationWarning):
                stopped.append(text)
        if style == "raise":
            raise ValueError("string or file could not be read to its end")
        warnings.warn("string or file could not be read to its end due to "
                      "unmatched data", DeprecationWarning, stacklevel=2)
        return np.zeros(1, dtype)  # what was read before the stop

    monkeypatch.setattr(ldimkit.intparse.np, "fromstring", fromstring)
    stopping = ["1_0 2", "1\x1f2", "7 0x1f", "4 1.5", "-3 1e3", "1 x 2"]
    for text in ["1 2 3", f"2 {1 << 64}", *stopping]:
        assert _array_reading(text, 4) == _int_reading(text), text
    assert list(parse_orders_family("5 1_0\n")) == [(5, 10)]
    assert stopped == [*stopping, "5 1_0"]


# ------------------------------------------- families held as id arrays


def test_family_from_text_is_never_viewed_as_tuples(monkeypatch, capsys,
                                                    tmp_path):
    text = emit_orders_text(build_singleton_realizer(6))
    good, bad = tmp_path / "good.orders", tmp_path / "bad.orders"
    good.write_text(text)
    # the last member dropped, an element repeated in the first
    bad.write_text("5 " + text[:text.rindex("\n", 0, len(text) - 1) + 1])

    def refuse(self):
        raise AssertionError("the tuple view of a family was built")

    monkeypatch.setattr(RealizerFamily, "ples", property(refuse))
    for orders, code in ((good, 0), (bad, 1)):
        for fmt in ("text", "json"):
            assert main(["verify", "--poset", "singleton:6", "--orders",
                         str(orders), "--format", fmt]) == code
    assert main(["build", "--poset", "singleton:6", "-o",
                 str(tmp_path / "built.orders")]) == 0
    assert (tmp_path / "built.orders").read_text() == text
    assert main(["build", "--poset", "boolean:9"]) == 0
    capsys.readouterr()
    family = read_orders_family(good)
    assert all(ids.dtype == np.int64 for ids in family.arrays)


def test_emit_table_and_plain_paths_agree():
    # dense ids go through the table of id strings, sparse ones do not
    for rows in ([(3, 1, 2), (), (2, 3)], [(1, 10 ** 12), (5,)],
                 [(-4, -1, 0), (-2,)], [(1 << 70, 2)], [()], []):
        want = "".join(" ".join(map(str, row)) + "\n" for row in rows)
        assert emit_orders_text(rows) == want
        assert emit_orders_text(RealizerFamily(rows)) == want
