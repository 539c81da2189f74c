"""Limits and error quotes shared by the word and polynomial parsers.

words and laurent both import this module and nothing else of the
package, so neither parser loads the other's layer: a command that reads
only words compiles no polynomial code.

A number, or a word exponent, has at most _MAX_DIGITS digits, CPython's
default int() limit.  An error quotes a text of up to _QUOTE_LIMIT
characters whole; a longer one by its length and the _QUOTE_SPAN
characters on either side of the error, so a huge malformed argument
gives a short message.
"""

_MAX_DIGITS = 4300
_QUOTE_LIMIT = 1000
_QUOTE_SPAN = 40


def _quote(text: str, at: int) -> str:
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    lo = max(at - _QUOTE_SPAN, 0)
    return f"a text of {len(text)} characters, near {text[lo:at + _QUOTE_SPAN]!r} from position {lo}"
