"""Byte renderers for patterns and move words.

text: the pattern text format (round-trips through the parser).
pbm:  portable bitmap P1, nonzero cells as 1 over the domain bounding box.
svg-paths: a move word as a single polyline, one point per visited height.
"""
from __future__ import annotations

from .errors import UnsupportedFormat
from .paths import MoveWord, integrate
from .patterns import Pattern, format_pattern, write_rows

PATTERN_FORMATS = ("text", "pbm")


def render_pattern(pattern: Pattern, fmt: str) -> bytes:
    if fmt == "text":
        return format_pattern(pattern).encode()
    if fmt == "pbm":
        return _pbm(pattern)
    raise UnsupportedFormat(f"unknown pattern format {fmt!r}")


def _pbm(pattern: Pattern) -> bytes:
    alpha = pattern.alphabet
    bits = dict.fromkeys(alpha.symbols, "1") | {alpha.zero: "0", None: "0"}
    rows = write_rows(pattern, bits)
    width = len(rows[0]) if rows else 0
    body = "".join(row + "\n" for row in rows)
    return f"P1\n{width} {len(rows)}\n{body}".encode()


def render_moves(word: MoveWord) -> bytes:
    """SVG polyline of the walk, one point per height, y drawn downward."""
    scale = 4  # pixels per step and per unit of height
    heights = integrate(word).heights
    top = max(heights)
    points = " ".join(f"{i * scale},{(top - h) * scale}"
                      for i, h in enumerate(heights))
    width = (len(heights) - 1) * scale
    height = (top - min(heights)) * scale
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width}" height="{height}" '
        f'viewBox="-1 -1 {width + 2} {height + 2}">\n'
        f'<polyline fill="none" stroke="black" stroke-width="1" '
        f'points="{points}"/>\n</svg>\n').encode()
