"""Global size caps.

Substitution iteration, block hierarchies and padding grow quickly;
the cap turns runaway inputs into clean :class:`~blobshift.errors.SizeLimit`
errors instead of memory exhaustion. ``BLOBSHIFT_CELL_CAP`` overrides the
default for a whole process, and is the only way to set the cap. Every
allocation that grows with its input charges its cells to
:func:`check_cells` before it is built.
"""
import os

from .errors import BlobshiftError, SizeLimit

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


def check_cells(cells: int, what: str) -> None:
    """Raise SizeLimit when what, needing cells cells, passes the cap."""
    cap = cell_cap()
    if cells > cap:
        raise SizeLimit(f"{what} needs {cells} cells, past the {cap}-cell cap")
