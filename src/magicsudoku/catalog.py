"""Named symmetry generators and the concrete groups built from them.

Cell-permutation builders cover the physical moves (band/pillar swaps,
row/column swaps, transpose, rotation, cyclic shifts, and simultaneous
triple transpositions); digit-permutation builders cover the relabeling
moves. Each builder returns a NamedGenerator whose token round-trips
through parse_generator.

The physical groups are built once per generator list as the product
they are, transpose x row moves x column moves (PhysicalGroup), whose
elements are decoded from an index: a draw builds no element table.
Breadth-first closure builds only the line groups and S_MM.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .boards import _Catalog, modular_magic_blocks, semi_magic_blocks
from .errors import DomainError, IntegrityError, _in_range
from .perms import PermGroup, Symmetry, _sort_rows, closure

__all__ = [
    "NamedGenerator",
    "transpose",
    "rot90",
    "swap_rows",
    "swap_cols",
    "swap_bands",
    "swap_pillars",
    "cycle_rows",
    "cycle_cols",
    "triple_rows",
    "triple_cols",
    "mu",
    "rho",
    "relabeling",
    "parse_generator",
    "digit_cycles",
    "h_mm_generators",
    "h_mm_group",
    "h_gamma_generators",
    "h_gamma_group",
    "g_mm_group",
    "h9_generators",
    "h9_group",
    "s_mm_generators",
    "s_mm_elements",
    "s_sm_group",
    "g_sm_order",
    "g_k_generators",
]


@dataclass(frozen=True)
class NamedGenerator:
    """A symmetry together with its CLI token."""

    name: str
    symmetry: Symmetry

    def __str__(self) -> str:
        return self.name


def _from_row_perm(rp: Sequence[int]) -> tuple[int, ...]:
    return tuple(9 * rp[r] + c for r in range(9) for c in range(9))


def _from_col_perm(cp: Sequence[int]) -> tuple[int, ...]:
    return tuple(9 * r + cp[c] for r in range(9) for c in range(9))


def _check_range(value: int, top: int, what: str) -> None:
    _in_range(value, f"{what} must lie in 0..{top}, got {value!r}", 0, top)


_TRANSPOSE_CELL = tuple(9 * c + r for r in range(9) for c in range(9))
# Quarter turn clockwise: cell (r, c) moves to (c, 8 - r).
_ROT90_CELL = tuple(9 * c + 8 - r for r in range(9) for c in range(9))


def transpose() -> NamedGenerator:
    """Reflect the grid across its main diagonal."""
    return NamedGenerator("transpose", Symmetry.from_cell(_TRANSPOSE_CELL))


def rot90() -> NamedGenerator:
    """Rotate the grid a quarter turn clockwise."""
    return NamedGenerator("rot90", Symmetry.from_cell(_ROT90_CELL))


def _line_move(name: str, perm: list[int], columns: bool) -> NamedGenerator:
    """The move sending row r to row perm[r], or column c to perm[c]."""
    image = _from_col_perm(perm) if columns else _from_row_perm(perm)
    return NamedGenerator(name, Symmetry.from_cell(image))


def _swap(kind: str, what: str, i: int, j: int) -> NamedGenerator:
    """swap_<kind>(i, j) of two lines, or of two bands or pillars."""
    width = 3 if kind in ("bands", "pillars") else 1
    for line in (i, j):
        _check_range(line, 9 // width - 1, what)
    if i == j:
        raise DomainError(f"swap_{kind} needs two distinct {what}s")
    perm = list(range(9))
    for k in range(width):
        perm[width * i + k], perm[width * j + k] = width * j + k, width * i + k
    return _line_move(f"swap_{kind}({min(i, j)},{max(i, j)})", perm, kind in ("cols", "pillars"))


def swap_rows(r1: int, r2: int) -> NamedGenerator:
    """Swap two rows of the grid."""
    return _swap("rows", "row", r1, r2)


def swap_cols(c1: int, c2: int) -> NamedGenerator:
    """Swap two columns of the grid."""
    return _swap("cols", "column", c1, c2)


def swap_bands(i: int, j: int) -> NamedGenerator:
    """Swap two bands (horizontal block rows)."""
    return _swap("bands", "band", i, j)


def swap_pillars(i: int, j: int) -> NamedGenerator:
    """Swap two pillars (vertical block columns)."""
    return _swap("pillars", "pillar", i, j)


def _cycle(kind: str, what: str, unit: int) -> NamedGenerator:
    _check_range(unit, 2, what)
    perm = list(range(9))
    perm[3 * unit : 3 * unit + 3] = perm[3 * unit + 1 : 3 * unit + 3] + [3 * unit]
    return _line_move(f"cycle_{kind}({unit})", perm, kind == "cols")


def cycle_rows(band: int) -> NamedGenerator:
    """Cyclically shift the three rows of a band downward by one."""
    return _cycle("rows", "band", band)


def cycle_cols(pillar: int) -> NamedGenerator:
    """Cyclically shift the three columns of a pillar rightward by one."""
    return _cycle("cols", "pillar", pillar)


def _triple(kind: str, what: str, fixed: tuple[int, int, int]) -> NamedGenerator:
    perm = list(range(9))
    for unit, p in enumerate(fixed):
        _check_range(p, 2, f"fixed {what} position")
        a, b = (3 * unit + x for x in range(3) if x != p)
        perm[a], perm[b] = b, a
    return _line_move(f"triple_{kind}({','.join(map(str, fixed))})", perm, kind == "cols")


def triple_rows(p1: int, p2: int, p3: int) -> NamedGenerator:
    """Swap one row pair in every band simultaneously.

    In band k the two rows other than position pk are swapped, so pk
    names the fixed row within its band.
    """
    return _triple("rows", "row", (p1, p2, p3))


def triple_cols(p1: int, p2: int, p3: int) -> NamedGenerator:
    """Swap one column pair in every pillar simultaneously (pk fixed)."""
    return _triple("cols", "column", (p1, p2, p3))


_MU_K = frozenset((1, 2, 4, 5, 7, 8))
_MU_L = frozenset((0, 3, 6))


def mu(k: int, l: int) -> NamedGenerator:
    """The digit relabeling n -> k*n + l mod 9 for k in {1,2,4,5,7,8}
    and l in {0,3,6}."""
    bad = f"mu requires k in {sorted(_MU_K)} and l in {sorted(_MU_L)}"
    k, l = _in_range(k, bad), _in_range(l, bad)
    if k not in _MU_K or l not in _MU_L:
        raise DomainError(bad)
    return NamedGenerator(
        f"mu({k},{l})", Symmetry.from_digit(tuple((k * n + l) % 9 for n in range(9)))
    )


def rho() -> NamedGenerator:
    """The digit relabeling (12)(45)(78)."""
    return NamedGenerator("rho", Symmetry.from_digit((0, 2, 1, 3, 5, 4, 6, 8, 7)))


def digit_cycles(image: Sequence[int]) -> str:
    """Canonical cycle notation for a digit permutation; "()" if identity.

    Raises DomainError unless ``image`` is a permutation of 0..8.
    """
    bad = f"not a permutation of 0..8: {image!r}"
    if not isinstance(image, Iterable) or sorted(_in_range(d, bad) for d in image) != [*range(9)]:
        raise DomainError(bad)
    seen: set[int] = set()
    cycles = []
    for start in range(9):
        if start in seen or image[start] == start:
            continue
        cycle = [start]
        while image[cycle[-1]] != start:
            cycle.append(image[cycle[-1]])
        seen.update(cycle)
        cycles.append("(" + "".join(map(str, cycle)) + ")")
    return "".join(cycles) or "()"


def relabeling(image: Sequence[int]) -> NamedGenerator:
    """Wrap an arbitrary digit permutation, named by its cycle notation."""
    sym = Symmetry.from_digit(image)
    return NamedGenerator(digit_cycles(sym.digit), sym)


# Token name -> (builder, count of its single-digit arguments).
_BUILDERS = {
    "transpose": (transpose, 0), "rot90": (rot90, 0), "rho": (rho, 0), "mu": (mu, 2),
    "swap_rows": (swap_rows, 2), "swap_cols": (swap_cols, 2),
    "swap_bands": (swap_bands, 2), "swap_pillars": (swap_pillars, 2),
    "cycle_rows": (cycle_rows, 1), "cycle_cols": (cycle_cols, 1),
    "triple_rows": (triple_rows, 3), "triple_cols": (triple_cols, 3),
}
_TOKEN_RE = re.compile(r"(\w+?)(?:\((\d(?:,\d)*)\))?")
_CYCLES_RE = re.compile(r"(\(\d*\))+")


def _parse_cycles(text: str) -> NamedGenerator:
    image = list(range(9))
    moved: set[int] = set()
    for part in re.findall(r"\((\d*)\)", text):
        digits = [int(ch) for ch in part]
        if any(d > 8 for d in digits):
            raise DomainError(f"cycle digit out of range in {text!r}")
        if len(set(digits)) != len(digits) or moved & set(digits):
            raise DomainError(f"repeated digit in cycle notation {text!r}")
        moved.update(digits)
        for i, d in enumerate(digits):
            image[d] = digits[(i + 1) % len(digits)]
    return relabeling(image)


def parse_generator(token: str) -> NamedGenerator:
    """Parse a generator token ("rho", "mu(4,0)", "swap_bands(0,1)",
    digit cycle notation, and so on) into a NamedGenerator. Any other
    value, a str or not, raises DomainError."""
    text = str(token).strip()
    m = _TOKEN_RE.fullmatch(text)
    if m and m.group(1) in _BUILDERS:
        builder, arity = _BUILDERS[m.group(1)]
        args = [int(d) for d in (m.group(2) or "").split(",") if d]
        if len(args) == arity:
            return builder(*args)
    if _CYCLES_RE.fullmatch(text):
        return _parse_cycles(text)
    raise DomainError(f"unrecognized generator token {token!r}")


# --- generator lists for the named groups ---


def _band_pillar_swaps() -> list[NamedGenerator]:
    pairs = [(0, 1), (0, 2), (1, 2)]
    return [swap_bands(i, j) for i, j in pairs] + [swap_pillars(i, j) for i, j in pairs]


def _within_swaps(swap) -> list[NamedGenerator]:
    """Every swap of two rows in one band (swap=swap_rows) or of two
    columns in one pillar (swap=swap_cols)."""
    return [swap(3 * k + x, 3 * k + y) for k in range(3) for x, y in ((0, 1), (0, 2), (1, 2))]


def h_mm_generators() -> list[NamedGenerator]:
    """Physical generators preserving the modular-magic condition: band
    and pillar swaps, transpose, rotation, and the outer row/column swap
    of each band/pillar (the swaps that fix every mini-diagonal set)."""
    outer_rows = [swap_rows(b, b + 2) for b in (0, 3, 6)]
    outer_cols = [swap_cols(p, p + 2) for p in (0, 3, 6)]
    return _band_pillar_swaps() + [transpose(), rot90()] + outer_rows + outer_cols


def h_gamma_generators() -> list[NamedGenerator]:
    """Physical generators preserving semi-magic gnomon structure:
    transpose, every within-band row swap and within-pillar column swap,
    and the band and pillar swaps not moving band/pillar 0."""
    return (
        [transpose(), swap_bands(1, 2), swap_pillars(1, 2)]
        + _within_swaps(swap_rows)
        + _within_swaps(swap_cols)
    )


def h9_generators() -> list[NamedGenerator]:
    """Generators of the full physical group: all within-band row swaps,
    within-pillar column swaps, band swaps, pillar swaps, and transpose."""
    return (
        [transpose()]
        + _band_pillar_swaps()
        + _within_swaps(swap_rows)
        + _within_swaps(swap_cols)
    )


def s_mm_generators() -> list[NamedGenerator]:
    """The four relabelings generating the modular-magic relabeling group."""
    return [rho(), mu(4, 0), mu(5, 3), mu(5, 6)]


# --- physical groups, factored as transpose x row moves x column moves ---


def _split(s: Symmetry) -> tuple[int, tuple[int, ...], tuple[int, ...]] | None:
    """(e, rp, cp) with s = transpose^e after the line move sending each
    cell (r, c) to (rp[r], cp[c]); None if s is no such product."""
    if s.digit != tuple(range(9)):
        return None
    for e, cell in enumerate((s.cell, tuple(_TRANSPOSE_CELL[k] for k in s.cell))):
        rp = tuple(cell[9 * r] // 9 for r in range(9))
        cp = tuple(cell[c] % 9 for c in range(9))
        if all(cell[9 * r + c] == 9 * rp[r] + cp[c] for r in range(9) for c in range(9)):
            return e, rp, cp
    return None


class PhysicalGroup:
    """A physical group generated by transpose and line moves, held
    through its factorization instead of an element list.

    Every generator must be transpose^e after a move of rows only or of
    columns only. Transpose turns a row move into the same move of the
    columns, so the group is every transpose^e after (rp, cp), with rp
    and cp drawn from one line group R closed from all the generators'
    line parts; its order is 2·|R|².

    Why F = {T^e ∘ (rp, cp) : e in {0, 1}, rp, cp in R} is exactly the
    group <gens> the generators span (T the transpose), so that no
    element-by-element oracle is needed:
    1. The constructor checks that each generator is T^e after a
       row-only or column-only move, and that T itself is a generator.
    2. F is a group, because R is one and T ∘ (rp, cp) ∘ T = (cp, rp).
       It holds every generator, so <gens> ⊆ F.
    3. Each line part p gives its row move or its column move in <gens>:
       the generator itself, or T times it. Conjugating by T gives the
       other axis. So (R, id), (id, R) and T lie in <gens>, and F ⊆ <gens>.
    4. T is no line move, so |F| = 2·|R|².
    What is left to check is the code of the index decoder: index
    i = e·|R|² + a·|R| + b is T^e after row move _lines[a] and column
    move _lines[b]. That is a bijection onto F, so uniform indices give
    uniform elements, and each decoded element must split back to its
    own (e, _lines[a], _lines[b]).
    """

    def __init__(self, generators: Sequence[NamedGenerator]):
        self.generators = tuple(generators)
        ident = tuple(range(9))
        parts = []
        has_transpose = False
        for g in self.generators:
            split = _split(g.symmetry)
            if split is None:
                raise IntegrityError(f"{g.name} is not transpose^e after a line move")
            e, rp, cp = split
            moved = [p for p in (rp, cp) if p != ident]
            if len(moved) > 1:
                raise IntegrityError(f"{g.name} moves rows and columns together")
            has_transpose |= e == 1 and not moved
            parts += moved
        if not has_transpose:
            raise IntegrityError("transpose is not among the generators")
        lines = closure([Symmetry.from_cell(_from_row_perm(p)) for p in parts])
        self._lines = lines.cell_images[:, ::9] // 9  # (|R|, 9) row perms
        self.order = 2 * len(self._lines) ** 2
        # T^e after (rp, cp) sends cell (r, c) to 9·rp[r] + cp[c] if e = 0, rp[r] + 9·cp[c] if 1.
        rows, cols = np.repeat(self._lines, 9, axis=1), np.tile(self._lines, 9)  # at cell (r, c)
        self._row_parts = np.concatenate([9 * rows, rows])  # index e·|R| + a
        self._col_parts = np.concatenate([cols, 9 * cols])  # index e·|R| + b

    def __contains__(self, s: Symmetry) -> bool:
        """Membership test: s splits into transpose^e after (rp, cp)
        with rp and cp both in the line group."""
        split = _split(s)
        return split is not None and all((self._lines == p).all(axis=1).any() for p in split[1:])

    def _decode(self, i):
        """(e, a, b, cell images) of index i = e·|R|² + a·|R| + b, or of each index of
        an array: transpose^e after row move _lines[a] and column move _lines[b]."""
        n = len(self._lines)
        e, ab = divmod(i, n * n)
        a, b = divmod(ab, n)
        return e, a, b, self._row_parts[e * n + a] + self._col_parts[e * n + b]

    def materialize(self) -> PermGroup:
        """Every decoded element, in the sorted row order closure gives."""
        digits = np.broadcast_to(np.arange(9, dtype=np.uint8), (self.order, 9))
        rows = np.hstack([self._decode(np.arange(self.order))[3], digits])
        return PermGroup([g.symmetry for g in self.generators], _sort_rows(rows))


@cache
def _physical_group(generators_fn: Callable[[], list[NamedGenerator]]) -> PhysicalGroup:
    """The factored group of a generator list, built once per list."""
    return PhysicalGroup(generators_fn())


@cache
def h_mm_group() -> PermGroup:
    """The modular-magic physical group (order 4608 = 2·48²)."""
    return _physical_group(h_mm_generators).materialize()


@cache
def h_gamma_group() -> PermGroup:
    """The gnomon-preserving physical group (order 72^3 = 2·432²)."""
    return _physical_group(h_gamma_generators).materialize()


@cache
def g_mm_group() -> PermGroup:
    """The full modular-magic group (order 165,888): the direct product
    of H_MM, which moves only cells (materialize writes the identity
    digit part), and S_MM, which moves only digits (its catalog check
    pins every element as a pure relabeling), each sorted factor broadcast
    into the table, whose rows are then already sorted."""
    h, s = h_mm_group(), s_mm_elements()
    rows = np.empty((h.order, s.order, 90), dtype=np.uint8)
    rows[:, :, :81] = h.cell_images[:, None]
    rows[:, :, 81:] = s.digit_images
    return PermGroup(h.generators + s.generators, rows.reshape(-1, 90))


def h9_group() -> PhysicalGroup:
    """The full physical group (order 3,359,232 = 2·1296²), never
    materialized."""
    return _physical_group(h9_generators)


@cache
def _relabelings(catalog_fn: _Catalog) -> PermGroup:
    """The digit relabelings that map every block of the catalog to a
    catalog block, read off the candidates sending block 0 to block i."""
    cat = np.array(catalog_fn(), dtype=np.intp).reshape(-1, 9)
    weights = 9 ** np.arange(9)
    codes = set((cat @ weights).tolist())
    perms = np.empty_like(cat)
    perms[:, cat[0]] = cat
    images = (perms[:, cat] @ weights).tolist()  # base-9 code of each block's image
    keep = [p for p, row in zip(perms.tolist(), images) if codes.issuperset(row)]
    return PermGroup.from_symmetries(Symmetry.from_digit(p) for p in keep)


@cache
def s_mm_elements() -> PermGroup:
    """The modular-magic relabeling group (order 36): the closure of the
    four generators, cross-checked against the relabelings that keep the
    modular-magic catalog; disagreement raises IntegrityError."""
    group = closure([g.symmetry for g in s_mm_generators()])
    if not np.array_equal(group._rows, _relabelings(modular_magic_blocks)._rows):
        raise IntegrityError("relabeling group of the generators disagrees with the catalog")
    return group


def s_sm_group() -> PermGroup:
    """The semi-magic relabeling group (order 72). Block 0 holds each
    digit once, so a relabeling is fixed by where it sends block 0, and
    one that keeps the catalog sends it to a catalog block: the 72
    candidates, block 0 sent to each catalog block, hold every element."""
    return _relabelings(semi_magic_blocks)


def g_sm_order() -> int:
    """Order of the full semi-magic symmetry group: physical times
    relabeling (the factors move cells and digits independently)."""
    return h9_group().order * s_sm_group().order


def g_k_generators() -> list[NamedGenerator]:
    """Generators of the Keedwell-preserving family: transpose, band and
    pillar swaps, one row cycle per band and column cycle per pillar,
    all 27 row and 27 column triple transpositions, and the digit
    relabeling family marked by two generators of the full symmetric
    group on digits."""
    triples = list(itertools.product(range(3), repeat=3))
    return (
        [transpose()]
        + _band_pillar_swaps()
        + [cycle_rows(b) for b in range(3)]
        + [cycle_cols(p) for p in range(3)]
        + [triple_rows(*t) for t in triples]
        + [triple_cols(*t) for t in triples]
        + [
            relabeling((1, 0, 2, 3, 4, 5, 6, 7, 8)),
            relabeling((1, 2, 3, 4, 5, 6, 7, 8, 0)),
        ]
    )
