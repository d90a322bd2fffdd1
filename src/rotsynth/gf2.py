"""Exact linear algebra over GF(2) on bit-packed vectors and matrices.

Rows are stored as Python integers, bit j of row i holding entry (i, j).
Row XOR is a single integer operation and column extraction / column
addition are O(n), which is what the greedy CNOT synthesis loop needs.
All public types are immutable values: operations return new objects, so
speculative copies inside search loops are cheap and thread-safe.

`rank`, `independent` and `invert` share one elimination, the incremental
xor basis `_basis`: rank is its size, and the inputs recorded for each unit
vector reduced against the basis of a matrix's rows give the inverse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible over GF(2) is singular."""


@dataclass(frozen=True)
class BitVec:
    """Fixed-length vector over GF(2), packed into an int (bit i = entry i)."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise DimensionError(f"negative length {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise DimensionError(f"bits 0x{self.bits:x} out of range for length {self.n}")

    @staticmethod
    def basis(n: int, i: int) -> "BitVec":
        if not 0 <= i < n:
            raise DimensionError(f"basis index {i} out of range for length {n}")
        return BitVec(n, 1 << i)

    @staticmethod
    def from_bits(bits) -> "BitVec":
        bits = list(bits)
        value = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"entry {b!r} not in {{0, 1}}")
            value |= b << i
        return BitVec(len(bits), value)

    @staticmethod
    def from_string(s: str) -> "BitVec":
        """Parse a bitstring with index 0 leftmost, e.g. '1011'."""
        if set(s) - {"0", "1"}:
            raise ValueError(f"bitstring {s!r} contains characters other than 0/1")
        return BitVec.from_bits(int(c) for c in s)

    def to_string(self) -> str:
        return "".join(str(self[i]) for i in range(self.n))

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return ((self.bits >> i) & 1 for i in range(self.n))

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise DimensionError(f"length mismatch {self.n} != {other.n}")
        return BitVec(self.n, self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def weight(self) -> int:
        return self.bits.bit_count()

    def dot(self, other: "BitVec") -> int:
        """Inner product mod 2."""
        if self.n != other.n:
            raise DimensionError(f"length mismatch {self.n} != {other.n}")
        return (self.bits & other.bits).bit_count() & 1

    def support(self) -> tuple[int, ...]:
        """Indices of nonzero entries."""
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)

    def __repr__(self) -> str:
        return f"BitVec({self.to_string()!r})"


@dataclass(frozen=True)
class GF2Matrix:
    """Dense binary matrix; rows packed as ints (bit j of rows[i] = entry i,j)."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n_rows:
            raise DimensionError("row count mismatch")
        mask_excess = -1 << self.n_cols
        for r in self.rows:
            if r < 0 or (r & mask_excess):
                raise DimensionError("row bits out of range")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(n_rows: int, n_cols: int) -> "GF2Matrix":
        return GF2Matrix(n_rows, n_cols, (0,) * n_rows)

    @staticmethod
    def identity(n: int) -> "GF2Matrix":
        return GF2Matrix(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_rows(rows) -> "GF2Matrix":
        """Build from an iterable of rows (each a BitVec or 0/1 sequence)."""
        packed = []
        width = None
        for row in rows:
            v = row if isinstance(row, BitVec) else BitVec.from_bits(row)
            if width is None:
                width = v.n
            elif v.n != width:
                raise DimensionError("ragged rows")
            packed.append(v.bits)
        if width is None:
            raise DimensionError("empty matrix")
        return GF2Matrix(len(packed), width, tuple(packed))

    @staticmethod
    def from_cols(cols) -> "GF2Matrix":
        vecs = [c if isinstance(c, BitVec) else BitVec.from_bits(c) for c in cols]
        if not vecs:
            raise DimensionError("empty matrix")
        n = vecs[0].n
        if any(v.n != n for v in vecs):
            raise DimensionError("ragged columns")
        rows = tuple(
            sum(((v.bits >> i) & 1) << j for j, v in enumerate(vecs)) for i in range(n)
        )
        return GF2Matrix(n, len(vecs), rows)

    # -- accessors ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def row(self, i: int) -> BitVec:
        return BitVec(self.n_cols, self.rows[i])

    def col(self, j: int) -> BitVec:
        bits = 0
        for i in range(self.n_rows):
            bits |= ((self.rows[i] >> j) & 1) << i
        return BitVec(self.n_rows, bits)

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.n_cols)] for r in self.rows]

    def __repr__(self) -> str:
        body = ";".join("".join(str((r >> j) & 1) for j in range(self.n_cols)) for r in self.rows)
        return f"GF2Matrix[{body}]"

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "GF2Matrix":
        rows = tuple(
            sum(((self.rows[i] >> j) & 1) << i for i in range(self.n_rows))
            for j in range(self.n_cols)
        )
        return GF2Matrix(self.n_cols, self.n_rows, rows)

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.n_cols != other.n_rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        out = []
        for r in self.rows:
            acc = 0
            rr = r
            while rr:
                low = rr & -rr
                acc ^= other.rows[low.bit_length() - 1]
                rr ^= low
            out.append(acc)
        return GF2Matrix(self.n_rows, other.n_cols, tuple(out))

    def mul_vec(self, v: BitVec) -> BitVec:
        if v.n != self.n_cols:
            raise DimensionError("vector length mismatch")
        bits = 0
        for i, r in enumerate(self.rows):
            bits |= ((r & v.bits).bit_count() & 1) << i
        return BitVec(self.n_rows, bits)


def _basis(vectors) -> dict[int, tuple[int, int]]:
    """Xor basis of `vectors` (packed ints), leading bit -> (vector, inputs):
    bit i of `inputs` is set for each input i that XORs to the vector, and
    its highest bit is the input whose remainder the vector is."""
    basis: dict[int, tuple[int, int]] = {}
    for i, v in enumerate(vectors):
        v, inputs = _reduce(basis, v, 1 << i)
        if v:
            basis[v.bit_length() - 1] = (v, inputs)
    return basis


def _reduce(basis: dict[int, tuple[int, int]], v: int, inputs: int) -> tuple[int, int]:
    """v reduced until its leading bit has no basis vector, and `inputs`
    XORed with the inputs of the basis vectors taken."""
    while v:
        hit = basis.get(v.bit_length() - 1)
        if hit is None:
            break
        v ^= hit[0]
        inputs ^= hit[1]
    return v, inputs


def independent(vectors) -> list[int]:
    """Indices, ascending, of the vectors (packed ints) that are not in the
    span of the vectors before them."""
    return sorted(inputs.bit_length() - 1 for _, inputs in _basis(vectors).values())


def rank(m: GF2Matrix) -> int:
    """GF(2) rank: the size of the xor basis of the rows."""
    return len(_basis(m.rows))


def is_invertible(m: GF2Matrix) -> bool:
    if m.n_rows != m.n_cols:
        raise DimensionError(f"invertibility needs a square matrix, got {m.shape}")
    return rank(m) == m.n_rows


def invert(m: GF2Matrix) -> GF2Matrix:
    """Inverse over GF(2): each unit vector e_j reduced against the xor basis
    of the rows; the rows that XOR to e_j form row j of the inverse."""
    if m.n_rows != m.n_cols:
        raise DimensionError(f"cannot invert shape {m.shape}")
    n = m.n_rows
    basis = _basis(m.rows)
    if len(basis) < n:
        raise SingularMatrixError("matrix is singular over GF(2)")
    return GF2Matrix(n, n, tuple(_reduce(basis, 1 << j, 0)[1] for j in range(n)))


def col_add(m: GF2Matrix, i: int, j: int) -> GF2Matrix:
    """Return a copy with column j replaced by column i XOR column j."""
    if i == j:
        raise IndexError("col_add requires distinct columns")
    if not (0 <= i < m.n_cols and 0 <= j < m.n_cols):
        raise IndexError(f"column index out of range for shape {m.shape}")
    rows = tuple(r ^ (((r >> i) & 1) << j) for r in m.rows)
    return GF2Matrix(m.n_rows, m.n_cols, rows)


def is_permutation(m: GF2Matrix) -> bool:
    """True iff every row sum and every column sum equals one."""
    if m.n_rows != m.n_cols:
        raise DimensionError(f"permutation test needs a square matrix, got {m.shape}")
    seen = 0
    for r in m.rows:
        if r.bit_count() != 1:
            return False
        seen |= r
    return seen == (1 << m.n_cols) - 1


def permutation_matrix(images: list[int] | tuple[int, ...]) -> GF2Matrix:
    """Matrix P with P e_i = e_images[i] (column i has its one in row images[i])."""
    n = len(images)
    if sorted(images) != list(range(n)):
        raise DimensionError(f"{images!r} is not a permutation of 0..{n - 1}")
    rows = [0] * n
    for col, row in enumerate(images):
        rows[row] |= 1 << col
    return GF2Matrix(n, n, tuple(rows))


def random_matrix(n_rows: int, n_cols: int, rng: random.Random) -> GF2Matrix:
    return GF2Matrix(
        n_rows, n_cols, tuple(rng.getrandbits(n_cols) for _ in range(n_rows))
    )


def random_invertible(n: int, seed: int) -> GF2Matrix:
    """Deterministic random invertible n x n matrix (rejection sampling)."""
    if n < 1:
        raise DimensionError("need n >= 1")
    rng = random.Random(seed)
    while True:
        m = random_matrix(n, n, rng)
        if rank(m) == n:
            return m
