"""Blob hierarchies and the finite-scale trichotomy.

A hierarchy collects, per radius of a strictly increasing schedule, the
blobs of a source window. Verification checks the three nesting axioms on
consecutive levels: every bigger blob must (a) reassemble bit-exactly by
zero-gluing translated smaller blobs that the lower level recorded, (b)
contain a translate of every recorded smaller blob, and (c) contain at
least two smaller blobs with disjoint supports. Blobs whose padding
exits the window are flagged truncated and excluded from the checks
rather than guessed.

Verdicts are explicitly "candidate" tags: a window certifies structure at
its own scale and no further. A schedule that fails the axioms does not
refute anything; the radii may simply grow too slowly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import RadiiNotIncreasing
from .patterns import (
    Blob,
    Cell,
    Pattern,
    connected_components,
    translate_cell,
    zero_glue,
    _blob_scan,
)
from .pathcover import geodesic_witness


@dataclass(frozen=True)
class BlobPlacement:
    anchor: Cell
    blob: Blob
    truncated: bool

    def absolute_support(self) -> frozenset:
        return frozenset(translate_cell(c, self.anchor)
                         for c in self.blob.support())


@dataclass(frozen=True)
class HierarchyLevel:
    radius: int
    placements: tuple[BlobPlacement, ...]

    def distinct(self) -> dict[Blob, int]:
        """Occurrence counts of the non-truncated blobs."""
        counts: dict[Blob, int] = {}
        for pl in self.placements:
            if not pl.truncated:
                counts[pl.blob] = counts.get(pl.blob, 0) + 1
        return counts


@dataclass(frozen=True)
class BlobHierarchy:
    source: Pattern
    levels: tuple[HierarchyLevel, ...]


@dataclass(frozen=True)
class LevelPairReport:
    lower_radius: int
    upper_radius: int
    checked: int
    skipped_truncated: int
    glue_exact: bool
    contains_all: bool
    splits_in_two: bool
    counterexample: dict | None = None

    def passed(self) -> bool:
        return (self.checked > 0 and self.glue_exact
                and self.contains_all and self.splits_in_two)


@dataclass(frozen=True)
class FractalVerdict:
    """Finite-scale classification: candidate tags only."""

    # finite_point | unbounded_component | blob_fractal (at least one
    # level pair passes the axioms) | inconclusive (none passes)
    tag: str
    radius: int | None = None
    witness_length: int | None = None
    levels_verified: int | None = None
    report: tuple[LevelPairReport, ...] = field(default=())


def build_hierarchy(pattern: Pattern, radii: Sequence[int]) -> BlobHierarchy:
    """Blob level per radius, truncation flagged instead of fatal."""
    radii = list(radii)
    if any(b <= a for a, b in zip(radii, radii[1:])) or not radii:
        raise RadiiNotIncreasing("radii must be nonempty and strictly increasing")
    if any(r < 0 for r in radii):
        raise RadiiNotIncreasing("radii must be nonnegative")
    levels = tuple(
        HierarchyLevel(r, tuple(BlobPlacement(*found)
                                for found in _blob_scan(pattern, r)))
        for r in radii)
    return BlobHierarchy(pattern, levels)


def verify_axioms(hierarchy: BlobHierarchy) -> tuple[LevelPairReport, ...]:
    """Check the three nesting axioms on every consecutive level pair.

    For r < R every r-component of the support lies inside one
    R-component, so an upper blob's constituents are the lower placements
    anchored in its support, in the order a scan of that support finds.
    """
    levels = hierarchy.levels
    if len(levels) < 2:
        raise ValueError("axiom checks need at least two levels")
    if any(b.radius <= a.radius for a, b in zip(levels, levels[1:])):
        raise RadiiNotIncreasing("level radii must be strictly increasing")
    pattern = hierarchy.source
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
        checked = len(targets)
        skipped = len(upper.placements) - checked
        glue_exact = True
        contains_all = True
        splits = True
        counterexample = None
        for ix, parts in constituents.items():
            anchor = list(upper.placements[ix].anchor)
            part_blobs = {p.blob for p in parts}

            if len(parts) < 2 and splits:
                splits = False
                counterexample = counterexample or {
                    "axiom": "splits_in_two", "anchor": anchor,
                    "constituents": len(parts)}
            missing = lower_set - part_blobs
            if missing and contains_all:
                contains_all = False
                counterexample = counterexample or {
                    "axiom": "contains_all", "anchor": anchor,
                    "missing": len(missing)}
            unknown = part_blobs - lower_set
            if unknown and glue_exact:
                # a constituent the lower level never recorded untruncated
                glue_exact = False
                counterexample = counterexample or {
                    "axiom": "glue_exact", "anchor": anchor,
                    "reason": "constituent missing from the lower level"}
            if glue_exact:
                rebuilt = None
                for part in parts:
                    piece = part.blob.pattern.translate(part.anchor)
                    rebuilt = piece if rebuilt is None else zero_glue(rebuilt, piece)
                target = targets[ix]
                ok = (rebuilt is not None
                      and rebuilt.support() == target
                      and all(rebuilt.value(c) == pattern.value(c)
                              for c in target))
                if not ok:
                    glue_exact = False
                    counterexample = counterexample or {
                        "axiom": "glue_exact", "anchor": anchor}
        reports.append(LevelPairReport(
            lower.radius, upper.radius, checked, skipped,
            glue_exact, contains_all, splits, counterexample))
    return tuple(reports)


def classify(pattern: Pattern, radii_schedule: Sequence[int],
             component_threshold: int) -> FractalVerdict:
    """Finite / unbounded-component / blob-fractal candidate trichotomy.

    `blob_fractal` needs at least one level pair that passes the axioms;
    a window that gives neither a finite point, a long component nor a
    passing pair is `inconclusive`.

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
