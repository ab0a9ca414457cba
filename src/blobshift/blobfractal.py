"""Blob hierarchies and the finite-scale trichotomy.

A hierarchy collects, per radius of a strictly increasing schedule, the
blobs of a source window, each level scanned from that window itself.
The three nesting axioms on consecutive levels ask every bigger blob to
(a) reassemble bit-exactly by zero-gluing translated smaller blobs that
the lower level recorded, (b) contain a translate of every recorded
smaller blob, and (c) contain at least two smaller blobs with disjoint
supports. Axiom (a) is a lemma for levels scanned from one window (see
:func:`verify_axioms`); verification checks (b) and (c). Blobs whose
padding exits the window are flagged truncated and excluded from the
checks rather than guessed.

Verdicts are explicitly "candidate" tags: a window certifies structure at
its own scale and no further. A schedule that fails the axioms does not
refute anything; the radii may simply grow too slowly.
"""
from __future__ import annotations

from typing import Sequence

from .errors import RadiiNotIncreasing
from .patterns import (
    Blob,
    Cell,
    Pattern,
    connected_components,
    translate_values,
    _Record,
    _blob_scan,
)
from .pathcover import geodesic_witness


class BlobPlacement(_Record):
    __slots__ = ("anchor", "blob", "truncated")

    def __init__(self, anchor: Cell, blob: Blob, truncated: bool):
        self._fill(anchor, blob, truncated)

    def absolute_support(self) -> frozenset:
        return frozenset(translate_values(
            dict.fromkeys(self.blob.support()), self.anchor))


class HierarchyLevel(_Record):
    __slots__ = ("radius", "placements")

    def __init__(self, radius: int, placements: tuple[BlobPlacement, ...]):
        self._fill(radius, placements)

    def distinct(self) -> dict[Blob, int]:
        """Occurrence counts of the non-truncated blobs."""
        counts: dict[Blob, int] = {}
        for pl in self.placements:
            if not pl.truncated:
                counts[pl.blob] = counts.get(pl.blob, 0) + 1
        return counts


class BlobHierarchy(_Record):
    """Blob level per radius, scanned from ``source`` and from nothing else.

    ``levels`` is computed from the other two fields.
    """

    __slots__ = ("source", "radii", "levels")

    def __init__(self, source: Pattern, radii: tuple[int, ...]):
        if any(b <= a for a, b in zip(radii, radii[1:])) or not radii:
            raise RadiiNotIncreasing(
                "radii must be nonempty and strictly increasing")
        if any(r < 0 for r in radii):
            raise RadiiNotIncreasing("radii must be nonnegative")
        self._fill(source, radii, tuple(
            HierarchyLevel(r, tuple(BlobPlacement(*found)
                                    for found in _blob_scan(source, r)))
            for r in radii))


class LevelPairReport(_Record):
    __slots__ = ("lower_radius", "upper_radius", "checked",
                 "skipped_truncated", "glue_exact", "contains_all",
                 "splits_in_two", "counterexample")

    def __init__(self, lower_radius: int, upper_radius: int, checked: int,
                 skipped_truncated: int, glue_exact: bool, contains_all: bool,
                 splits_in_two: bool, counterexample: dict | None = None):
        self._fill(lower_radius, upper_radius, checked, skipped_truncated,
                   glue_exact, contains_all, splits_in_two, counterexample)

    def passed(self) -> bool:
        return (self.checked > 0 and self.glue_exact
                and self.contains_all and self.splits_in_two)


class FractalVerdict(_Record):
    """Finite-scale classification: candidate tags only.

    ``tag`` is finite_point, unbounded_component, blob_fractal (the first
    level pair passes the axioms) or inconclusive (no passing first pair).
    ``levels_verified`` is, for finite_point, the trailing single-blob
    levels, no pair checked; for blob_fractal and inconclusive, 1 plus
    the leading run of passing pairs.
    """

    __slots__ = ("tag", "radius", "witness_length", "levels_verified",
                 "report")

    def __init__(self, tag: str, radius: int | None = None,
                 witness_length: int | None = None,
                 levels_verified: int | None = None,
                 report: tuple[LevelPairReport, ...] = ()):
        self._fill(tag, radius, witness_length, levels_verified, report)


def build_hierarchy(pattern: Pattern, radii: Sequence[int]) -> BlobHierarchy:
    """Blob level per radius, truncation flagged instead of fatal."""
    return BlobHierarchy(pattern, tuple(radii))


def verify_axioms(hierarchy: BlobHierarchy) -> tuple[LevelPairReport, ...]:
    """Check the three nesting axioms on every consecutive level pair.

    For r < R every r-component of the support lies inside one
    R-component, so an upper blob's constituents are the lower placements
    anchored in its support, in the order a scan of that support finds.

    Axiom (a), ``glue_exact``, is a lemma, as every level is scanned from
    the one source: an untruncated upper blob's constituents are
    untruncated (an r-dilation lies inside the R-dilation), partition its
    support with the window's values, and lie more than r apart, so no
    padding meets another's support. Zero-gluing them rebuilds the blob
    without conflict; only (b) and (c) are checked.
    """
    levels = hierarchy.levels
    if len(levels) < 2:
        raise ValueError("axiom checks need at least two levels")
    reports = []
    for lower, upper in zip(levels, levels[1:]):
        lower_set = set(lower.distinct())
        targets = {ix: pl.absolute_support()
                   for ix, pl in enumerate(upper.placements)
                   if not pl.truncated}
        owner = {c: ix for ix, target in targets.items() for c in target}
        constituents = {ix: [] for ix in targets}
        for part in lower.placements:
            if part.anchor in owner:
                constituents[owner[part.anchor]].append(part)
        # axiom -> its first counterexample; the report's counterexample is
        # the first of these found
        failed: dict[str, dict] = {}
        for ix, parts in constituents.items():
            anchor = list(upper.placements[ix].anchor)
            if len(parts) < 2 and "splits_in_two" not in failed:
                failed["splits_in_two"] = {
                    "axiom": "splits_in_two", "anchor": anchor,
                    "constituents": len(parts)}
            missing = lower_set - {p.blob for p in parts}
            if missing and "contains_all" not in failed:
                failed["contains_all"] = {
                    "axiom": "contains_all", "anchor": anchor,
                    "missing": len(missing)}
        reports.append(LevelPairReport(
            lower.radius, upper.radius,
            len(targets), len(upper.placements) - len(targets),
            True, "contains_all" not in failed,
            "splits_in_two" not in failed,
            next(iter(failed.values()), None)))
    return tuple(reports)


def classify(pattern: Pattern, radii_schedule: Sequence[int],
             component_threshold: int) -> FractalVerdict:
    """Finite / unbounded-component / blob-fractal candidate trichotomy.

    `blob_fractal` needs the first level pair to pass the axioms; a window
    that gives neither a finite point, a long component nor a passing
    first pair is `inconclusive`, whatever the later pairs give. For both,
    `levels_verified` is 1 plus the leading run of passing pairs; for a
    finite point it counts the trailing single-blob levels, with an empty
    report, since no pair is checked.

    An r-component whose geodesic witness reaches the threshold wins
    first: a window-filling component can masquerade as a single padded
    blob, so the size check must precede the finite-point reading.
    """
    if component_threshold <= 0:
        raise ValueError("component threshold must be positive")
    return _classify(build_hierarchy(pattern, radii_schedule),
                     component_threshold)


def _classify(hierarchy: BlobHierarchy,
              component_threshold: int) -> FractalVerdict:
    """:func:`classify` on a hierarchy already built."""
    pattern = hierarchy.source
    if not pattern.support():
        return FractalVerdict("finite_point")

    for level in hierarchy.levels:
        witness = geodesic_witness(pattern, level.radius)
        if len(witness) >= component_threshold:
            return FractalVerdict("unbounded_component", radius=level.radius,
                                  witness_length=len(witness))

    # a level with a single blob holds the whole support
    suffix = 0
    for level in reversed(hierarchy.levels):
        if len(level.placements) != 1 or level.placements[0].truncated:
            break
        suffix += 1
    if suffix >= 2:
        return FractalVerdict("finite_point",
                              levels_verified=suffix)

    report = verify_axioms(hierarchy) if len(hierarchy.levels) >= 2 else ()
    verified = 1
    for pair in report:
        if pair.passed():
            verified += 1
        else:
            break
    # the first level holds for any window; the tag needs a passing pair
    tag = "blob_fractal" if verified >= 2 else "inconclusive"
    return FractalVerdict(tag, levels_verified=verified, report=tuple(report))


def auto_radii(pattern: Pattern) -> list[int]:
    """Double the radius from 1 until the blob count stabilizes, 12 at most.

    A heuristic schedule; failing the axioms under it never refutes
    fractal structure, it only means the radii grew too slowly.
    """
    radii = []
    r = 1
    prev = None
    for _ in range(12):
        radii.append(r)
        count = len(connected_components(pattern.support(), r))
        if prev is not None and count == prev and count <= 1:
            break
        prev = count
        r *= 2
    return radii
