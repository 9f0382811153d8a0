"""Reading whitespace-separated integer text into int64 arrays.

One reader serves orders files, DIMACS bodies and solver models: each
token is read as ``int()`` reads it, and plain ASCII text is read by one
numpy parse instead of token by token.
"""

from __future__ import annotations

import warnings

import numpy as np

_INT64 = np.iinfo(np.int64)

# characters of text that the sign check reads at a time
_SIGN_SLICE = 1 << 16


def _lone_sign(text: str) -> bool:
    """Whether some '+' or '-' of ASCII text has no digit after it: numpy
    reads a lone sign as 0, or joins it to the next token.  ``_SIGN_SLICE``
    characters at a time, so the check holds a few bytes per character of
    one slice only."""
    step = _SIGN_SLICE
    for start in range(0, len(text), step):
        raw = np.frombuffer(text[start:start + step + 1].encode() + b" ",
                            dtype=np.uint8)
        head = raw[:step]
        after = raw[np.flatnonzero((head == ord("+")) | (head == ord("-")))
                    + 1]
        if ((after < ord("0")) | (after > ord("9"))).any():
            return True
    return False


def parse_ints(text: str, bad_token) -> np.ndarray:
    """The integers of whitespace-separated text, each token read as int()
    reads it; raises ``bad_token(token)`` for the first token int()
    rejects.  ASCII text that numpy parses in one pass, as it does plain
    decimal ids and literals, is read that way; anything else token by
    token.  A value beyond int64 is clipped to its limits, so an int64
    limit in the result may stand for a token beyond it."""
    if text.isascii() and text and not text.isspace() \
            and not _lone_sign(text):
        try:
            with warnings.catch_warnings():
                # numpy before 2.3 warns and stops at a token it cannot read
                warnings.simplefilter("error", DeprecationWarning)
                values = np.fromstring(text, dtype=np.int64, sep=" ")
            # numpy reads a value beyond int64, of either sign, as the
            # maximum
            if _INT64.min < values.min() and values.max() < _INT64.max:
                return values
        except (ValueError, DeprecationWarning):
            pass
    values = []
    for token in text.split():
        try:
            values.append(min(max(int(token), _INT64.min), _INT64.max))
        except ValueError:
            raise bad_token(token) from None
    return np.array(values, dtype=np.int64)
