"""Named symmetry generators and the concrete groups built from them.

Cell-permutation builders cover the physical moves (band/pillar swaps,
row/column swaps, transpose, rotation, cyclic shifts, and simultaneous
triple transpositions); digit-permutation builders cover the relabeling
moves. Each builder returns a NamedGenerator whose token round-trips
through parse_generator.

The physical groups are built from their generator lists as the product
they are, transpose x row moves x column moves (PhysicalGroup), and the
full modular-magic group as physical x relabeling; breadth-first closure
builds only the line groups and the relabeling groups.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .enumeration import semi_magic_blocks
from .errors import DomainError, IntegrityError
from .perms import PermGroup, Symmetry, _sort_rows, closure, compose

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


def _check_index(value: int, what: str) -> None:
    if not 0 <= value <= 8:
        raise DomainError(f"{what} must lie in 0..8, got {value}")


def _check_small(value: int, what: str) -> None:
    if not 0 <= value <= 2:
        raise DomainError(f"{what} must lie in 0..2, got {value}")


_TRANSPOSE_CELL = tuple(9 * c + r for r in range(9) for c in range(9))
# Quarter turn clockwise: cell (r, c) moves to (c, 8 - r).
_ROT90_CELL = tuple(9 * c + 8 - r for r in range(9) for c in range(9))


def transpose() -> NamedGenerator:
    """Reflect the grid across its main diagonal."""
    return NamedGenerator("transpose", Symmetry.from_cell(_TRANSPOSE_CELL))


def rot90() -> NamedGenerator:
    """Rotate the grid a quarter turn clockwise."""
    return NamedGenerator("rot90", Symmetry.from_cell(_ROT90_CELL))


def swap_rows(r1: int, r2: int) -> NamedGenerator:
    """Swap two rows of the grid."""
    _check_index(r1, "row")
    _check_index(r2, "row")
    if r1 == r2:
        raise DomainError("swap_rows needs two distinct rows")
    rp = list(range(9))
    rp[r1], rp[r2] = rp[r2], rp[r1]
    return NamedGenerator(
        f"swap_rows({min(r1, r2)},{max(r1, r2)})", Symmetry.from_cell(_from_row_perm(rp))
    )


def swap_cols(c1: int, c2: int) -> NamedGenerator:
    """Swap two columns of the grid."""
    _check_index(c1, "column")
    _check_index(c2, "column")
    if c1 == c2:
        raise DomainError("swap_cols needs two distinct columns")
    cp = list(range(9))
    cp[c1], cp[c2] = cp[c2], cp[c1]
    return NamedGenerator(
        f"swap_cols({min(c1, c2)},{max(c1, c2)})", Symmetry.from_cell(_from_col_perm(cp))
    )


def swap_bands(i: int, j: int) -> NamedGenerator:
    """Swap two bands (horizontal block rows)."""
    _check_small(i, "band")
    _check_small(j, "band")
    if i == j:
        raise DomainError("swap_bands needs two distinct bands")
    rp = list(range(9))
    for k in range(3):
        rp[3 * i + k], rp[3 * j + k] = rp[3 * j + k], rp[3 * i + k]
    return NamedGenerator(
        f"swap_bands({min(i, j)},{max(i, j)})", Symmetry.from_cell(_from_row_perm(rp))
    )


def swap_pillars(i: int, j: int) -> NamedGenerator:
    """Swap two pillars (vertical block columns)."""
    _check_small(i, "pillar")
    _check_small(j, "pillar")
    if i == j:
        raise DomainError("swap_pillars needs two distinct pillars")
    cp = list(range(9))
    for k in range(3):
        cp[3 * i + k], cp[3 * j + k] = cp[3 * j + k], cp[3 * i + k]
    return NamedGenerator(
        f"swap_pillars({min(i, j)},{max(i, j)})", Symmetry.from_cell(_from_col_perm(cp))
    )


def cycle_rows(band: int) -> NamedGenerator:
    """Cyclically shift the three rows of a band downward by one."""
    _check_small(band, "band")
    rp = list(range(9))
    for k in range(3):
        rp[3 * band + k] = 3 * band + (k + 1) % 3
    return NamedGenerator(f"cycle_rows({band})", Symmetry.from_cell(_from_row_perm(rp)))


def cycle_cols(pillar: int) -> NamedGenerator:
    """Cyclically shift the three columns of a pillar rightward by one."""
    _check_small(pillar, "pillar")
    cp = list(range(9))
    for k in range(3):
        cp[3 * pillar + k] = 3 * pillar + (k + 1) % 3
    return NamedGenerator(f"cycle_cols({pillar})", Symmetry.from_cell(_from_col_perm(cp)))


def triple_rows(p1: int, p2: int, p3: int) -> NamedGenerator:
    """Swap one row pair in every band simultaneously.

    In band k the two rows other than position pk are swapped, so pk
    names the fixed row within its band.
    """
    fixed = (p1, p2, p3)
    rp = list(range(9))
    for band, p in enumerate(fixed):
        _check_small(p, "fixed row position")
        a, b = (x for x in range(3) if x != p)
        rp[3 * band + a], rp[3 * band + b] = rp[3 * band + b], rp[3 * band + a]
    return NamedGenerator(
        f"triple_rows({p1},{p2},{p3})", Symmetry.from_cell(_from_row_perm(rp))
    )


def triple_cols(p1: int, p2: int, p3: int) -> NamedGenerator:
    """Swap one column pair in every pillar simultaneously (pk fixed)."""
    fixed = (p1, p2, p3)
    cp = list(range(9))
    for pillar, p in enumerate(fixed):
        _check_small(p, "fixed column position")
        a, b = (x for x in range(3) if x != p)
        cp[3 * pillar + a], cp[3 * pillar + b] = cp[3 * pillar + b], cp[3 * pillar + a]
    return NamedGenerator(
        f"triple_cols({p1},{p2},{p3})", Symmetry.from_cell(_from_col_perm(cp))
    )


_MU_K = frozenset((1, 2, 4, 5, 7, 8))
_MU_L = frozenset((0, 3, 6))


def mu(k: int, l: int) -> NamedGenerator:
    """The digit relabeling n -> k*n + l mod 9 for k in {1,2,4,5,7,8}
    and l in {0,3,6}."""
    if k not in _MU_K or l not in _MU_L:
        raise DomainError(f"mu requires k in {sorted(_MU_K)} and l in {sorted(_MU_L)}")
    return NamedGenerator(
        f"mu({k},{l})", Symmetry.from_digit(tuple((k * n + l) % 9 for n in range(9)))
    )


def rho() -> NamedGenerator:
    """The digit relabeling (12)(45)(78)."""
    return NamedGenerator("rho", Symmetry.from_digit((0, 2, 1, 3, 5, 4, 6, 8, 7)))


def digit_cycles(image: Sequence[int]) -> str:
    """Canonical cycle notation for a digit permutation; "()" if identity."""
    seen = [False] * 9
    cycles = []
    for start in range(9):
        if seen[start] or image[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        n = image[start]
        while n != start:
            cycle.append(n)
            seen[n] = True
            n = image[n]
        cycles.append("(" + "".join(str(d) for d in cycle) + ")")
    return "".join(cycles) if cycles else "()"


def relabeling(image: Sequence[int]) -> NamedGenerator:
    """Wrap an arbitrary digit permutation, named by its cycle notation."""
    sym = Symmetry.from_digit(tuple(image))
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
    digit cycle notation, and so on) into a NamedGenerator."""
    text = token.strip()
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
        self._line_keys = frozenset(p.tobytes() for p in self._lines)
        self.order = 2 * len(self._lines) ** 2

    def contains(self, s: Symmetry) -> bool:
        """Membership test: s splits into transpose^e after (rp, cp)
        with rp and cp both in the line group."""
        split = _split(s)
        return split is not None and all(bytes(p) in self._line_keys for p in split[1:])

    __contains__ = contains

    def materialize(self) -> PermGroup:
        """Every element, in the sorted row order closure gives."""
        lines = self._lines
        n = len(lines)
        moves = (9 * lines[:, None, :, None] + lines[None, :, None, :]).reshape(n * n, 81)
        rows = np.empty((2 * n * n, 90), dtype=np.uint8)
        rows[: n * n, :81] = moves
        rows[n * n :, :81] = np.array(_TRANSPOSE_CELL, dtype=np.uint8)[moves]
        rows[:, 81:] = np.arange(9, dtype=np.uint8)
        return PermGroup([g.symmetry for g in self.generators], _sort_rows(rows))


@cache
def h_mm_group() -> PermGroup:
    """The modular-magic physical group (order 4608 = 2·48²)."""
    return PhysicalGroup(h_mm_generators()).materialize()


@cache
def h_gamma_group() -> PermGroup:
    """The gnomon-preserving physical group (order 72^3 = 2·432²)."""
    return PhysicalGroup(h_gamma_generators()).materialize()


@cache
def g_mm_group() -> PermGroup:
    """The full modular-magic group (order 165,888): the direct product
    of H_MM, which moves only cells, and S_MM, which moves only digits
    (its formula check pins every element as a pure relabeling)."""
    h, s = h_mm_group(), s_mm_elements()
    if not h.is_cell_only:
        raise IntegrityError("modular-magic physical group relabels digits")
    rows = np.empty((h.order * s.order, 90), dtype=np.uint8)
    rows[:, :81] = np.repeat(h.cell_images, s.order, axis=0)
    rows[:, 81:] = np.tile(s.digit_images, (h.order, 1))
    return PermGroup(h.generators + s.generators, _sort_rows(rows))


@cache
def h9_group() -> PhysicalGroup:
    """The full physical group (order 3,359,232 = 2·1296²), never
    materialized."""
    return PhysicalGroup(h9_generators())


@cache
def s_mm_elements() -> PermGroup:
    """The modular-magic relabeling group (order 36).

    Built as the closure of the four generators and cross-checked
    against the explicit element formula (the 18 affine maps mu(k,l)
    and their compositions with rho); disagreement raises IntegrityError.
    """
    group = closure([g.symmetry for g in s_mm_generators()])
    formula = set()
    for k in sorted(_MU_K):
        for l in sorted(_MU_L):
            m = mu(k, l).symmetry
            formula.add(m.key())
            formula.add(compose(rho().symmetry, m).key())
    if len(formula) != 36 or {group.element(i).key() for i in range(group.order)} != formula:
        raise IntegrityError("relabeling group formula disagrees with closure")
    return group


@cache
def s_sm_group() -> PermGroup:
    """The semi-magic relabeling group, found by brute force.

    Keeps exactly the digit permutations that map every one of the 72
    semi-magic blocks to a semi-magic block: all 9! permutations, as
    rows p with p[d] the image of digit d, are filtered block by block
    by the base-9 code of the block's image against the catalog's codes.
    """
    catalog = np.array(semi_magic_blocks(), dtype=np.intp).reshape(-1, 9)
    weights = 9 ** np.arange(9)
    codes = catalog @ weights
    every = itertools.chain.from_iterable(itertools.permutations(range(9)))
    perms = np.frombuffer(bytes(every), dtype=np.uint8).reshape(-1, 9)
    for blk in catalog:
        perms = perms[np.isin(perms[:, blk] @ weights, codes)]
    return PermGroup.from_symmetries(Symmetry.from_digit(p) for p in perms.tolist())


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
