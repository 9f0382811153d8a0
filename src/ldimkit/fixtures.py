"""Embedded certificate tables.

Two published orders files are shipped with the package, whitespace
normalized to the canonical emission format:

* ``b4``: four partial linear extensions forming a local realizer of
  boolean:4 with frequency 3;
* ``b7``: seven partial linear extensions forming a local realizer of
  boolean:7 with frequency 5.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParameterError
from .orders_io import parse_orders_family
from .realizers import RealizerFamily

ORDERS4_TEXT = """\
0 8 1 9 2 3 11 4 6 7 12 14 13 15
0 8 5 12 13 2 10 6 14 3 7 11 15
0 10 4 12 14 1 9 11 5 13 15
4 2 6 1 3 5 7 8 9 10
"""

ORDERS7_TEXT = """\
32 1 33 8 40 4 5 36 37 9 12 13 2 10 34 42 6 41 38 7 14 11 15 39 44 45 43 46 47 16 48 24 56 17 18 50 49 20 22 28 21 23 52 60 26 54 30 53 55 25 57 58 62 27 29 59 61 31 63 64 80 68 66 82 84 70 86 65 81 72 73 76 69 77 96 88 89 92 85 91 93 100 112 97 116 95 113 117 104 124 105 121 125 98 106 114 122 107 123 102 103 111 118 126 119 127
0 96 34 98 16 48 50 112 114 4 68 84 36 100 52 38 54 102 8 72 40 12 104 76 44 108 24 60 46 116 118 92 58 62 74 106 78 120 124 90 110 94 122 126 1 65 5 69 67 9 13 73 77 33 97 37 41 101 105 45 11 75 99 107 71 109 79 103 111 17 19 49 51 81 113 83 25 27 89 57 59 91 21 85 121 123 29 93 53 117 61 125 23 55 95
88 2 10 32 104 56 120 42 1 9 25 33 41 57 26 58 3 35 19 73 51 11 27 43 59 74 106 90 122 83 89 75 113 115 105 91 121 107 123 4 68 6 70 20 84 22 86 12 28 5 69 13 76 77 36 100 14 30 92 21 7 85 78 15 79 87 29 31 94 95 37 44 45 38 46 39 47 52 60 54 61 62 63 108 110 101 109 111 116 119 124 127
64 16 8 72 24 4 12 28 1 88 65 17 21 81 84 85 25 89 92 29 93 32 96 48 112 33 36 37 52 116 40 49 113 56 44 53 101 117 41 45 108 109 57 60 61 120 124 121 125 2 34 66 98 18 82 50 114 6 38 70 22 54 86 102 10 42 14 46 110 118 62 122 126 3 35 7 39 15 43 47 19 51 59 55 63 67 99 83 115 123 71 87
16 20 80 2 66 6 70 18 82 22 86 8 14 74 26 30 1 17 90 81 78 9 5 13 94 3 19 11 27 7 15 23 31 67 75 83 91 71 79 87 95 32 40 48 33 34 49 50 35 96 98 97 99 36 38 51 112 100 114 115 102 53 118 39 103 55 119 56 41 104 105 42 57 43 106 46 107 47 110 111 60 58 59 62 63 120 122 123
0 18 3 35 17 19 49 51 64 66 65 67 96 98 80 82 81 83 97 99 4 5 7 68 69 20 21 71 23 37 85 87 113 39 53 55 101 103 115 116 118 117 119 8 12 72 76 24 28 9 73 13 88 77 10 29 89 93 40 44 121 45 14 61 108 124 42 26 109 125 30 11 15 27 31 58 47 63 74 90 78 94 126 75 91 79
0 72 65 73 68 76 69 77 32 97 100 101 104 108 105 2 34 66 10 109 74 106 3 35 67 99 6 70 71 102 78 103 43 75 79 110 107 111 16 18 80 48 50 82 112 114 20 84 22 86 52 24 54 88 117 56 115 23 87 119 25 120 28 92 125 26 90 30 94 126 31 95 127
"""

_TABLES = {"b4": ORDERS4_TEXT, "b7": ORDERS7_TEXT}


def fixture_text(which: str) -> str:
    """Canonical text of an embedded table ('b4' or 'b7')."""
    try:
        return _TABLES[which]
    except KeyError:
        raise ParameterError(
            f"unknown table {which!r}; available: {sorted(_TABLES)}") from None


@lru_cache(maxsize=None)
def b4_family() -> RealizerFamily:
    """The embedded frequency-3 local realizer of boolean:4."""
    return parse_orders_family(ORDERS4_TEXT)


@lru_cache(maxsize=None)
def b7_family() -> RealizerFamily:
    """The embedded frequency-5 local realizer of boolean:7."""
    return parse_orders_family(ORDERS7_TEXT)
