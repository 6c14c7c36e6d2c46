"""Superboolean arithmetic and boolean-matrix independence.

The superboolean semiring has three elements {0, 1, 1nu} with saturating
addition (1 + 1 = 1nu) and multiplication absorbing on 0.  Boolean matrices
(entries 0/1) are viewed as matrices over this semiring; a square matrix is
nonsingular when its permanent is exactly 1, equivalently when independent row
and column permutations put it into lower triangular form with unit diagonal
and zeros strictly above.  A column subset J of a rectangular matrix is
independent when some equipotent row subset I makes M[I,J] nonsingular; such
an I is a witness for J.  Both tests are one greedy marker peel over row
bitmasks (`_peel`), with no backtracking: O(|J| * rows) row visits.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import DimensionError, FormatError, SizeError, TooLarge, UnknownColumn

PERMANENT_GUARD = 12
MATRIX_RANK_MAX_PEELS = 1 << 16

_AUTO_ROW = re.compile(r"^r\d+$")


class SB(enum.Enum):
    """A superboolean value: 0, 1 or the saturated 1nu."""

    ZERO = 0
    ONE = 1
    ONE_NU = 2

    def __add__(self, other: "SB") -> "SB":
        return SB(min(self.value + other.value, 2))

    def __mul__(self, other: "SB") -> "SB":
        if self.value == 0 or other.value == 0:
            return SB.ZERO
        return SB(max(self.value, other.value))

    def __str__(self) -> str:
        return {0: "0", 1: "1", 2: "1nu"}[self.value]


def _auto_rows(n: int) -> tuple[str, ...]:
    return tuple(f"r{i}" for i in range(n))


def _auto_cols(n: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(n))


def _check_labels(n_rows: int, col_labels: Sequence[str], row_labels: Sequence[str]
                  ) -> None:
    if len(set(col_labels)) != len(col_labels):
        raise FormatError("duplicate column labels")
    if len(set(row_labels)) != len(row_labels):
        raise FormatError("duplicate row labels")
    if len(row_labels) != n_rows:
        raise FormatError("row label count does not match row count")


@dataclass(frozen=True, init=False)
class BoolMatrix:
    """An immutable 0/1 matrix with labelled rows and ground-set columns.

    Each row is stored as `ones_masks`, the mask of its columns holding a 1
    (bit i is column i); the 0/1 tuples in `rows` are made on first use.
    """

    ones_masks: tuple[int, ...]
    col_labels: tuple[str, ...]
    row_labels: tuple[str, ...]

    def __init__(self, rows: Sequence[Sequence[int]], col_labels: Sequence[str],
                 row_labels: Sequence[str]) -> None:
        _check_labels(len(rows), col_labels, row_labels)
        w = len(col_labels)
        masks = []
        for r in rows:
            if len(r) != w:
                raise FormatError("ragged row")
            if any(v not in (0, 1) for v in r):
                raise FormatError("entries must be 0 or 1")
            masks.append(sum(1 << i for i, v in enumerate(r) if v))
        self._store(tuple(masks), col_labels, row_labels)

    def _store(self, masks: tuple[int, ...], col_labels: Sequence[str],
               row_labels: Sequence[str]) -> None:
        object.__setattr__(self, "ones_masks", masks)
        object.__setattr__(self, "col_labels", tuple(col_labels))
        object.__setattr__(self, "row_labels", tuple(row_labels))

    @classmethod
    def from_masks(cls, masks: Sequence[int], col_labels: Sequence[str],
                   row_labels: Sequence[str]) -> "BoolMatrix":
        """The matrix whose rows have 1s at the set bits of the masks, validated."""
        _check_labels(len(masks), col_labels, row_labels)
        full = (1 << len(col_labels)) - 1
        for m in masks:
            if m & ~full:
                raise FormatError(f"mask {m} outside the columns")
        obj = object.__new__(cls)
        obj._store(tuple(masks), col_labels, row_labels)
        return obj

    @classmethod
    def build(
        cls,
        rows: Sequence[Sequence[int]],
        col_labels: Optional[Sequence[str]] = None,
        row_labels: Optional[Sequence[str]] = None,
    ) -> "BoolMatrix":
        rows_t = tuple(tuple(int(v) for v in r) for r in rows)
        ncols = len(rows_t[0]) if rows_t else (len(col_labels) if col_labels else 0)
        cols = tuple(col_labels) if col_labels is not None else _auto_cols(ncols)
        rl = tuple(row_labels) if row_labels is not None else _auto_rows(len(rows_t))
        return cls(rows_t, cols, rl)

    # -- shape and lookup ----------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.ones_masks)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    @cached_property
    def _col_index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.col_labels)}

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows as 0/1 tuples (a view of `ones_masks`)."""
        w = self.n_cols
        return tuple(tuple(m >> i & 1 for i in range(w)) for m in self.ones_masks)

    # -- text format -----------------------------------------------------------

    def to_text(self) -> str:
        """Serialize: a `cols:` header then one 0/1 line per row.

        Row labels are emitted with a `row:` prefix unless they are the
        auto-generated r0, r1, ... pattern; round-trips bit-exactly.
        """
        lines = ["cols: " + " ".join(self.col_labels)]
        auto = self.row_labels == _auto_rows(self.n_rows)
        w = self.n_cols
        for label, m in zip(self.row_labels, self.ones_masks):
            bits = "".join("01"[m >> i & 1] for i in range(w))
            lines.append(bits if auto else f"row: {label} {bits}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BoolMatrix":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("cols:"):
            raise FormatError("matrix text must start with a 'cols:' line")
        cols = tuple(lines[0][len("cols:"):].split())
        masks, labels = [], []
        for k, ln in enumerate(lines[1:]):
            if ln.startswith("row:"):
                parts = ln[len("row:"):].split()
                if len(parts) != 2:
                    raise FormatError(f"bad row line: {ln!r}")
                label, bits = parts
            else:
                label, bits = f"r{k}", ln
            if not set(bits) <= {"0", "1"} or len(bits) != len(cols):
                raise FormatError(f"bad bit string on line: {ln!r}")
            labels.append(label)
            masks.append(int(bits[::-1], 2))  # bits is nonempty: blank lines are dropped
        return cls.from_masks(masks, cols, labels)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class Witness:
    """A certificate that a column subset is independent.

    `row_order`/`col_order` are index sequences such that the submatrix read
    in that order is lower triangular with 1s on the diagonal and 0s strictly
    above it.
    """

    row_order: tuple[int, ...]
    col_order: tuple[int, ...]


# -- permanent ----------------------------------------------------------------


def permanent(m: BoolMatrix) -> SB:
    """Permanent over the superboolean semiring (guarded to n <= 12).

    Retained as the nonsingularity oracle; marker peeling is the production
    test.
    """
    n = m.n_rows
    if n != m.n_cols:
        raise DimensionError(f"permanent needs a square matrix, got {n}x{m.n_cols}")
    if n < 1:
        raise DimensionError("permanent needs n >= 1")
    if n > PERMANENT_GUARD:
        raise SizeError(f"permanent guard: n = {n} > {PERMANENT_GUARD}")

    masks = m.ones_masks
    total = 0  # 0, 1 or 2 with saturation at 2; 0/1 entries keep products in {0,1}

    def rec(row: int, avail: int) -> None:
        nonlocal total
        if total == 2:
            return
        if row == n:
            total = min(total + 1, 2)
            return
        choices = masks[row] & avail
        while choices:
            low = choices & (-choices)
            rec(row + 1, avail & ~low)
            if total == 2:
                return
            choices ^= low

    rec(0, (1 << n) - 1)
    return SB(total)


# -- marker peeling -------------------------------------------------------------


def _peel(masks: Sequence[int], cols: int, order: Optional[list] = None) -> bool:
    """Greedy marker peel: is the column mask `cols` independent over these rows?

    Repeatedly take the first row whose AND with the remaining columns is a
    single bit (a marker row) and clear that bit; fail when no row qualifies.
    A peeled row is zero on what remains, so no row is taken twice, and the
    cost is at most |cols| passes over the rows.  When `order` is given, each
    step appends (row mask, column bit) to it.
    """
    while cols:
        for r in masks:
            rest = r & cols
            if rest and not rest & (rest - 1):
                cols ^= rest
                if order is not None:
                    order.append((r, rest))
                break
        else:
            return False
    return True


def _col_mask(m: BoolMatrix, cols: Iterable[str]) -> int:
    index = m._col_index
    target = 0
    for c in cols:
        try:
            target |= 1 << index[c]
        except KeyError:
            raise UnknownColumn(c) from None
    return target


def triangular_certificate(m: BoolMatrix) -> Optional[Witness]:
    """Marker-peel a square matrix into triangular form.

    Peeling preserves the permanent, so it succeeds iff the matrix is
    nonsingular; the certificate is the peel order of all the columns.
    """
    n = m.n_rows
    if n != m.n_cols:
        raise DimensionError(f"nonsingularity needs a square matrix, got {n}x{m.n_cols}")
    return witness_for_mask(m, (1 << n) - 1)


def is_nonsingular(m: BoolMatrix) -> bool:
    return triangular_certificate(m) is not None


# -- column independence --------------------------------------------------------


def witness_for(m: BoolMatrix, cols: Iterable[str]) -> Optional[Witness]:
    """The greedy peel's witness for the given column labels, or None.

    The peel is complete.  If J is independent and row r has a single 1 on J,
    at column c, then J - c is independent (independence is closed downward)
    and any witness of J - c avoids r, which is zero on J - c; r followed by
    that witness is a witness of J.  So any marker row can be peeled without
    losing a witness.  Ties break to the lowest row index, giving
    deterministic certificates.
    """
    return witness_for_mask(m, _col_mask(m, cols))


def witness_for_mask(m: BoolMatrix, target: int) -> Optional[Witness]:
    """witness_for the columns j whose bits are set in target."""
    masks = m.ones_masks
    order: list[tuple[int, int]] = []
    if not _peel(masks, target, order):
        return None
    # An earlier row with the same mask would have been peeled instead, so
    # each peeled row is the first row holding its mask.
    return Witness(tuple(masks.index(r) for r, _ in order),
                   tuple(bit.bit_length() - 1 for _, bit in order))


def columns_independent(m: BoolMatrix, cols: Iterable[str]) -> bool:
    return _peel(m.ones_masks, _col_mask(m, cols))


def matrix_rank(m: BoolMatrix) -> int:
    """Maximum size of an independent column subset.

    A greedy pass gives a lower bound k.  Independent sets are closed
    downward, so the rank is the first k with no independent (k+1)-subset:
    sizes are scanned upward from the bound, moving on at the first
    independent subset.  More than MATRIX_RANK_MAX_PEELS column subsets
    tried after the greedy pass raise TooLarge.
    """
    masks = m.ones_masks
    current = 0
    for j in range(m.n_cols):
        if _peel(masks, current | 1 << j):
            current |= 1 << j
    rank = current.bit_count()
    tried = 0
    while rank < min(m.n_rows, m.n_cols):
        for combo in itertools.combinations(range(m.n_cols), rank + 1):
            tried += 1
            if tried > MATRIX_RANK_MAX_PEELS:
                raise TooLarge(
                    f"matrix_rank exceeds its budget of {MATRIX_RANK_MAX_PEELS} peels")
            if _peel(masks, sum(1 << j for j in combo)):
                break
        else:
            return rank
        rank += 1
    return rank
