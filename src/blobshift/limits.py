"""Global size caps.

Substitution iteration, block hierarchies and padding grow quickly;
the cap turns runaway inputs into clean :class:`~blobshift.errors.SizeLimit`
errors instead of memory exhaustion. ``BLOBSHIFT_CELL_CAP`` overrides the
default for a whole process.
"""
import os

from .errors import BlobshiftError

DEFAULT_CELL_CAP = 2 ** 26


def cell_cap() -> int:
    """Return the active cell cap (env override or the default)."""
    raw = os.environ.get("BLOBSHIFT_CELL_CAP")
    if raw is None:
        return DEFAULT_CELL_CAP
    if not raw.strip().isdecimal() or int(raw) <= 0:
        raise BlobshiftError(
            f"BLOBSHIFT_CELL_CAP must be a positive integer, got {raw!r}")
    return int(raw)
