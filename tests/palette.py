"""The paper's palette-projection proof device, kept for its own tests.

Relative to a divisor u of n, the residue classes R_i = {x : x = i mod u}
of Z_n each carry a palette, the set of colors seen on them.  Projecting a
coloring of Z_n through those palettes gives a coloring of Z_u, and a
rainbow solution in the projection lifts to one in the original.  The
package never needs the projection to compute rb, so it lives here, outside
the package, where the projection-lemma tests check it.
"""

from __future__ import annotations

from dataclasses import dataclass

from rainbownum.coloring import Coloring
from rainbownum.errors import NotDivisorError, RainbowError


class NotProjectableError(RainbowError):
    """Some palette exceeds the reference palette by two or more colors."""


@dataclass(frozen=True)
class PaletteView:
    """Residue classes R_i = {x : x = i mod u} and the set of colors seen
    on each (its palette)."""

    u: int
    classes: tuple[frozenset[int], ...]
    palettes: tuple[frozenset[int], ...]


def palette_view(coloring: Coloring, u: int) -> PaletteView:
    """Classes and palettes of the coloring relative to a divisor u >= 2."""
    n = coloring.n
    if u < 2 or n % u != 0:
        raise NotDivisorError(f"{u} is not a divisor >= 2 of {n}")
    classes = [frozenset(range(i, n, u)) for i in range(u)]
    palettes = [frozenset(coloring.assign[x] for x in block) for block in classes]
    return PaletteView(u, tuple(classes), tuple(palettes))


def project_palette_coloring(coloring: Coloring, u: int, j: int) -> Coloring:
    """Collapse a coloring of Z_n onto Z_u through palettes relative to class j.

    Class i maps to a fresh color ("yellow") when its palette sits inside
    class j's palette, and otherwise to the unique extra color; if any
    palette has two extra colors the projection is undefined
    (NotProjectableError).  Colors are compacted to a contiguous range with
    yellow highest, so the result is again an exact coloring.
    """
    view = palette_view(coloring, u)
    if not 0 <= j < u:
        raise ValueError(f"class index {j} outside [0, {u})")
    pj = view.palettes[j]
    raw: list[int | None] = []
    for i, pi in enumerate(view.palettes):
        extra = pi - pj
        if len(extra) > 1:
            raise NotProjectableError(
                f"palette {i} exceeds palette {j} by {len(extra)} colors"
            )
        raw.append(next(iter(extra)) if extra else None)
    kept = sorted({c for c in raw if c is not None})
    remap = {c: k for k, c in enumerate(kept)}
    yellow = len(kept)
    return Coloring(tuple([yellow if c is None else remap[c] for c in raw]))
