"""Exact linear algebra over the Scalar field.

Matrices are stored sparsely (one dict per row); subspaces are kept as
reduced row-echelon bases, so equal subspaces have equal representations.
All elimination goes through ``_reduce_row``.  ``rref`` keeps a column ->
pivots index and back-substitutes a new pivot only into the rows it names,
and ``kernel`` reads the reduced rows once.

Blocks: ``blocks`` splits rows into the connected blocks of their column
supports in one pass that merges the smaller block into the larger.  Rows
of different blocks never meet in an elimination, so ``rref`` reduces each
block alone, in the order of its rows, with the operations that one
elimination of all rows performs on them: the RREF is unique, and every
row, pivot and dict key order is the same.  A block whose rows equal an
earlier block's of the same call, once both are written in local columns
(the k-th smallest column is k, which keeps the columns' order), takes that
block's result, copied into fresh dicts on its own columns.  The memo
compares the sparsity pattern first and then the entries by ``==``, so it
hashes no field element, and it lives for one call: it is no cache shared
between callers.  ``blocks`` builds no content key when it finds a single
block.
"""

from __future__ import annotations

from .scalars import DEFAULT_ASSIGNMENT, ONE, ZERO, PoleError, scalar


class DimensionMismatch(Exception):
    pass


class Mat:
    """Sparse matrix over Scalar: ``rows[i][j]`` holds the (i, j) entry."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)] if rows is None else rows

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, [{i: ONE} for i in range(n)])

    @staticmethod
    def from_dense(entries) -> "Mat":
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        m = Mat(nrows, ncols)
        for i, row in enumerate(entries):
            for j, v in enumerate(row):
                v = scalar(v)
                if v:
                    m.rows[i][j] = v
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i].get(j, ZERO)

    def set(self, i: int, j: int, value) -> None:
        value = scalar(value)
        if value:
            self.rows[i][j] = value
        else:
            self.rows[i].pop(j, None)

    def add_to(self, i: int, j: int, value) -> None:
        self.set(i, j, self.rows[i].get(j, ZERO) + value)

    def copy(self) -> "Mat":
        return Mat(self.nrows, self.ncols, [dict(r) for r in self.rows])

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        out = self.copy()
        for i, row in enumerate(other.rows):
            for j, v in row.items():
                out.add_to(i, j, v)
        return out

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        out = self.copy()
        for row, sub in zip(out.rows, other.rows):
            for j, v in sub.items():
                d = row.get(j, ZERO) - v
                if d:
                    row[j] = d
                else:
                    row.pop(j, None)
        return out

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self._matmul(other)
        c = scalar(other)
        out = Mat(self.nrows, self.ncols)
        if c:
            for i, row in enumerate(self.rows):
                out.rows[i] = {j: v * c for j, v in row.items()}
        return out

    __rmul__ = __mul__

    def _matmul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} * {other.shape}")
        out = Mat(self.nrows, other.ncols)
        for i, row in enumerate(self.rows):
            acc: dict = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    prev = acc.get(j)
                    acc[j] = a * b if prev is None else prev + a * b
            out.rows[i] = {j: v for j, v in acc.items() if v}
        return out

    def transpose(self) -> "Mat":
        out = Mat(self.ncols, self.nrows)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out.rows[j][i] = v
        return out

    def kron(self, other: "Mat") -> "Mat":
        """The Kronecker product.  Where one factor is ``ONE`` the entry is the
        other factor itself, with no product: every matrix ``legs`` builds
        is a Kronecker product with the identity.
        """
        out = Mat(self.nrows * other.nrows, self.ncols * other.ncols)
        for i, row in enumerate(self.rows):
            for j, a in row.items():
                base = j * other.ncols
                for k, orow in enumerate(other.rows):
                    target = out.rows[i * other.nrows + k]
                    if a is ONE:
                        for l, b in orow.items():
                            target[base + l] = b
                    else:
                        for l, b in orow.items():
                            target[base + l] = a if b is ONE else a * b
        return out

    def legs(self, n: int):
        """(self (x) 1_n, 1_n (x) self): self on the first or the last tensor leg."""
        eye = Mat.identity(n)
        return self.kron(eye), eye.kron(self)

    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.shape == other.shape
            and all(a == b for a, b in zip(self.rows, other.rows))
        )

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def inverse(self) -> "Mat":
        if self.nrows != self.ncols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.nrows
        aug = []
        for i, row in enumerate(self.rows):
            r = dict(row)
            r[n + i] = ONE
            aug.append(r)
        rows, pivots = rref(aug, 2 * n)
        if pivots != list(range(n)):
            raise DimensionMismatch("matrix is singular")
        out = Mat(n, n)
        for i, row in enumerate(rows):
            out.rows[i] = {j - n: v for j, v in row.items() if j >= n}
        return out

    def specialize(self, assignment: dict) -> "Mat":
        """Entrywise specialization; each distinct entry is specialized once."""
        out = Mat(self.nrows, self.ncols)
        seen: dict = {}
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                sv = seen.get(v)
                if sv is None:
                    sv = seen[v] = v.specialize(assignment)
                if sv:
                    out.rows[i][j] = sv
        return out

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}, nnz={sum(map(len, self.rows))})"

    def _same_shape(self, other: "Mat") -> None:
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} vs {other.shape}")


def rref(rows, ncols):
    """Reduced row echelon form of sparse rows.

    Returns (reduced_rows, pivot_columns); reduced rows are sorted by pivot,
    have pivot entry 1 and zeros above and below each pivot.  Each block of
    ``blocks`` is reduced alone, and a block equal to an earlier one takes
    that block's result in fresh dicts on its own columns.
    """
    basis: dict = {}  # pivot column -> reduced row
    found = blocks(rows)
    done = {}  # position of a block with new content -> its pivots and rows
    for pos, (cols, indices, same) in enumerate(found):
        if same == pos:
            done[pos] = part = {}
            _eliminate([rows[i] for i in indices], part)
            basis.update(part)
            continue
        # the map between two equal blocks' columns keeps their order, so
        # it carries one block's RREF, key order included, to the other
        to = dict(zip(found[same][0], cols))
        for p, row in done[same].items():
            basis[to[p]] = {to[j]: v for j, v in row.items()}
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots


def _eliminate(rows, basis: dict) -> None:
    """Reduce rows, in order, into ``basis`` (pivot column -> reduced row)."""
    holders: dict = {}  # column -> pivots whose row may be nonzero there
    for row in rows:
        row = _reduce_row(row, basis)
        if row:
            piv = min(row)
            if row[piv] != ONE:
                inv = 1 / row[piv]
                row = {j: v * inv for j, v in row.items()}
            new = {piv: row}
            held = holders.pop(piv, ())
            for p in held:
                basis[p] = _reduce_row(basis[p], new)
            for j in row:
                if j != piv:
                    holders.setdefault(j, set()).update(held, (piv,))
            basis[piv] = row


def blocks(rows) -> list:
    """The connected blocks of the rows' column supports.

    Two columns share a block when a chain of rows links them, so rows of
    different blocks never meet in an elimination.  Returns one
    ``(columns, indices, same)`` per block, in the order of the blocks' first
    rows: its columns in increasing order, the indices of its rows in input
    order, and the position of the first block whose rows equal its own,
    entry for entry and in dict order, once each block's k-th smallest
    column is written k; a block with new content names its own position.
    A row without entries lies in no block.
    """
    owner: dict = {}  # column -> its block's list of columns
    for row in rows:
        cols = []
        for j in row:
            other = owner.get(j)
            if other is None:
                cols.append(j)
                owner[j] = cols
            elif other is not cols:
                if len(cols) < len(other):
                    cols, other = other, cols
                for k in other:
                    owner[k] = cols
                cols += other
    by_id: dict = {}  # id of a block's column list -> (the list, its row indices)
    for i, row in enumerate(rows):
        if row:
            cols = owner[next(iter(row))]
            by_id.setdefault(id(cols), (cols, []))[1].append(i)
    found = list(by_id.values())
    if len(found) < 2:
        return [(sorted(cols), indices, 0) for cols, indices in found]
    # content: the local sparsity pattern first, then the entries
    seen: dict = {}  # pattern -> [(entries, position)]
    out = []
    for pos, (cols, indices) in enumerate(found):
        cols.sort()
        local = {c: k for k, c in enumerate(cols)}.__getitem__
        block = [rows[i] for i in indices]
        pattern = tuple(tuple(map(local, row)) for row in block)
        entries = [v for row in block for v in row.values()]
        earlier = seen.setdefault(pattern, [])
        same = next((at for other, at in earlier if other == entries), pos)
        if same == pos:
            earlier.append((entries, pos))
        out.append((cols, indices, same))
    return out


def _reduce_row(row: dict, basis: dict) -> dict:
    """Residual of row after eliminating every pivot column of a reduced basis.

    ``basis`` maps each pivot column to its row, whose entry there is 1.  The
    basis rows are zero in each other's pivot columns, so eliminating one
    pivot never brings back another and one pass over the row suffices.
    """
    row = {j: v for j, v in row.items() if v}
    for p in [j for j in row if j in basis]:
        c = row.pop(p)
        for j, v in basis[p].items():
            if j != p:
                newv = row.get(j, ZERO) - c * v
                if newv:
                    row[j] = newv
                else:
                    del row[j]
    return row


class SubspaceBasis:
    """A subspace of k^ambient_dim held as a canonical (RREF) basis."""

    __slots__ = ("ambient_dim", "rows", "pivots", "_basis")

    def __init__(self, ambient_dim: int, rows):
        self.ambient_dim = ambient_dim
        for r in rows:
            if any(j < 0 or j >= ambient_dim for j in r):
                raise DimensionMismatch("vector exceeds ambient dimension")
        self.rows, self.pivots = rref(rows, ambient_dim)
        self._basis = dict(zip(self.pivots, self.rows))  # pivot column -> row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after reduction against the basis (zero iff member)."""
        if any(j < 0 or j >= self.ambient_dim for j in vec):
            raise DimensionMismatch("vector exceeds ambient dimension")
        return _reduce_row(vec, self._basis)

    def __eq__(self, other):
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient_dim})"


def kernel(m: Mat) -> SubspaceBasis:
    """Right kernel {x : m x = 0} as a canonical basis."""
    rows, pivots = rref(m.rows, m.ncols)
    pivot_set = set(pivots)
    vecs = {f: {f: ONE} for f in range(m.ncols) if f not in pivot_set}
    for piv, row in zip(pivots, rows):
        for f, c in row.items():
            if f != piv:
                vecs[f][piv] = -c
    return SubspaceBasis(m.ncols, list(vecs.values()))


def image(m: Mat) -> SubspaceBasis:
    """Column space of m, as vectors of dimension m.nrows."""
    return SubspaceBasis(m.nrows, m.transpose().rows)


def intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Intersection of two subspaces (Zassenhaus block elimination)."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(f"ambient {a.ambient_dim} vs {b.ambient_dim}")
    d = a.ambient_dim
    block = []
    for row in a.rows:
        r = dict(row)
        for j, v in row.items():
            r[d + j] = v
        block.append(r)
    block.extend(dict(row) for row in b.rows)
    rows, _ = rref(block, 2 * d)
    inter = [
        {j - d: v for j, v in row.items()} for row in rows if min(row) >= d
    ]
    return SubspaceBasis(d, inter)


def complementary(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Whether the ambient space is the direct sum of a and b.

    With dim a + dim b = d, a and b meet only in zero exactly when the rows
    of a stay independent modulo b: their residuals against b's reduced
    basis have rank dim a.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(f"ambient {a.ambient_dim} vs {b.ambient_dim}")
    return a.dim + b.dim == a.ambient_dim and rank_modulo_reaches(a.rows, b, a.dim)


def rank_modulo_reaches(rows, b: SubspaceBasis, target: int) -> bool:
    """Whether the residuals of rows against b's reduced basis have rank target.

    The caller knows that rank is at most target.  It is taken first at the
    fast-mode point ``DEFAULT_ASSIGNMENT``.  b's basis stays reduced there
    (pivots 1, zeros zero), so the residuals at the point are the specialized
    residuals, and specializing never raises a rank: rank target at the
    point proves it over Q(q, h, lam).  The rank is taken over Q(q, h, lam)
    only when the point falls short or is a pole of some entry.
    """
    d = b.ambient_dim

    def rank(vecs, basis_rows):
        basis = dict(zip(b.pivots, basis_rows))
        return len(rref([_reduce_row(v, basis) for v in vecs], d)[0])

    try:
        point_rows, point_basis = (
            Mat(len(r), d, r).specialize(DEFAULT_ASSIGNMENT).rows for r in (rows, b.rows)
        )
    except PoleError:
        pass
    else:
        if rank(point_rows, point_basis) == target:
            return True
    return rank(rows, b.rows) == target


def annihilator(s: SubspaceBasis) -> SubspaceBasis:
    """Functionals vanishing on s (w.r.t. the standard pairing)."""
    return kernel(Mat(len(s.rows), s.ambient_dim, s.rows))
