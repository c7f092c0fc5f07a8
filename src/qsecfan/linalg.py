"""Exact vectors, matrices and Gale transforms over Scalar.

Everything is immutable and deterministic: Gaussian elimination always
picks the first nonzero pivot, reduced echelon form orders free
variables increasingly, so repeated calls give identical output.  A
Calibration reads every sign off its chirotope and integer codes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DimensionMismatchError, InvalidCalibrationError
from .scalar import S0, S1, IntVec, MinorTable, Scalar, common_field, divided, dot_sign, encode, minor_table

Vec = tuple[Scalar, ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Scalar.coerce(x) for x in entries)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot of lengths {len(u)} and {len(v)}")
    acc = S0
    for x, y in zip(u, v):
        acc = acc + x * y
    return acc


def vadd(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError(f"vadd of lengths {len(u)} and {len(v)}")
    return tuple(x + y for x, y in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError(f"vsub of lengths {len(u)} and {len(v)}")
    return tuple(x - y for x, y in zip(u, v))


def vscale(c, u: Sequence[Scalar]) -> Vec:
    c = Scalar.coerce(c)
    return tuple(c * x for x in u)


def is_zero_vec(u: Sequence[Scalar]) -> bool:
    return all(x.is_zero() for x in u)


def normalize_direction(u: Sequence[Scalar]) -> Vec:
    """Scale by a positive factor so the first nonzero entry is +1 or -1."""
    for x in u:
        if not x.is_zero():
            return vscale(abs(x).inv(), u)
    return tuple(u)


class Matrix:
    """A rectangular grid of Scalars sharing one quadratic field."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(vec(r) for r in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise DimensionMismatchError("ragged rows")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[S1 if i == j else S0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: Optional[int] = None) -> "Matrix":
        cols = [vec(c) for c in cols]
        if not cols:
            return cls([[] for _ in range(nrows or 0)])
        return cls([[c[i] for c in cols] for i in range(len(cols[0]))])

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.rows, nrows=self.ncols)

    def matvec(self, x: Sequence[Scalar]) -> Vec:
        return tuple(dot(r, x) for r in self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatchError("matrix product shape mismatch")
        cols = [self.matvec(other.column(j)) for j in range(other.ncols)]
        return Matrix.from_columns(cols, nrows=self.nrows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[list(map(repr, r)) for r in self.rows]})"


def rref(M: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with leftmost-pivot selection.

    Returns (R, pivot_columns).
    """
    rows = [list(r) for r in M.rows]
    nr, nc = len(rows), M.ncols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nr):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(rows), tuple(pivots)


def rank(M: Matrix) -> int:
    return len(rref(M)[1])


def det(M: Matrix) -> Scalar:
    """The determinant of a square matrix, its one bracket off the integer
    minor_table of its rows; raises MixedFieldError for two radicals."""
    if M.nrows != M.ncols:
        raise DimensionMismatchError("determinant of non-square matrix")
    return minor_table(M.rows, M.nrows).scalar_brackets()[0]


def kernel_basis(M: Matrix) -> list[Vec]:
    """Basis of {x : Mx = 0}, one vector per free column, in increasing order."""
    R, pivots = rref(M)
    nc = M.ncols
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        x = [S0] * nc
        x[f] = S1
        for r, p in enumerate(pivots):
            x[p] = -R.rows[r][f]
        basis.append(tuple(x))
    return basis


def solve(M: Matrix, rhs: Sequence[Scalar]) -> Optional[tuple[Vec, list[Vec]]]:
    """One solution of Mx = rhs plus a kernel basis, or None if infeasible."""
    if len(rhs) != M.nrows:
        raise DimensionMismatchError("rhs length mismatch")
    aug = Matrix([list(r) + [b] for r, b in zip(M.rows, vec(rhs))])
    R, pivots = rref(aug)
    nc = M.ncols
    if nc in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [S0] * nc
    for r, p in enumerate(pivots):
        x[p] = R.rows[r][nc]
    return tuple(x), kernel_basis(M)


def solve_unique(M: Matrix, rhs: Sequence[Scalar]) -> Optional[Vec]:
    """The solution of Mx = rhs when there is exactly one, else None:
    one rref of [M | rhs], whose pivots are then exactly the columns of M."""
    if len(rhs) != M.nrows:
        raise DimensionMismatchError("rhs length mismatch")
    nc = M.ncols
    R, pivots = rref(Matrix([list(r) + [b] for r, b in zip(M.rows, vec(rhs))]))
    if pivots != tuple(range(nc)):
        return None
    return tuple(R.rows[i][nc] for i in range(nc))


def facet_normals(candidates: Iterable[Sequence[Scalar]], vectors: Sequence[Sequence[Scalar]]) -> frozenset:
    """The inward facet normals of Cone(vectors), normalized, from
    candidates that hold a normal of every hyperplane the vectors span:
    each nonzero candidate with every vector on one side of it, turned to
    that side.  When the cone is full-dimensional these are also the
    extreme rays of its dual {x : <v, x> >= 0 for every vector v}."""
    codes = [encode(v) for v in vectors]
    found = set()
    for w in candidates:
        if is_zero_vec(w):
            continue
        e = encode(w)
        signs = {dot_sign(e, c) for c in codes}
        if not {1, -1} <= signs:
            found.add(normalize_direction(vscale(-1, w) if -1 in signs else w))
    return frozenset(found)


def in_cone(gens: Sequence[Vec], x: Sequence[Scalar]) -> bool:
    """Membership of x in Cone(gens), decided exactly without an LP.

    By Caratheodory's conic theorem x lies in the cone exactly when it
    has nonnegative coordinates in some independent subset of gens.
    Every independent subset extends inside gens to one of rank(gens)
    elements, so only those are tried, each by in_simplicial_cone.  With
    no generators the cone is {0}.
    """
    xx = vec(x)
    if gens and len(xx) != len(gens[0]):
        raise DimensionMismatchError(
            f"vector of length {len(xx)} in a cone of R^{len(gens[0])}")
    return any(in_simplicial_cone(S, xx) for S in combinations(gens, rank(Matrix(gens))))


def in_simplicial_cone(gens: Sequence[Vec], x: Vec) -> bool:
    """x has nonnegative coordinates in gens, which are independent: the
    rref of the columns [gens | x] has its pivots exactly on gens."""
    k = len(gens)
    R, pivots = rref(Matrix.from_columns(list(gens) + [x]))
    return pivots == tuple(range(k)) and all(R.rows[i][k].sign() >= 0 for i in range(k))


def inverse(M: Matrix) -> Optional[Matrix]:
    """The inverse of a square matrix, or None when it is singular."""
    n = M.nrows
    eye = Matrix.identity(n)
    R, pivots = rref(Matrix([r + e for r, e in zip(M.rows, eye.rows)]))
    if pivots != tuple(range(n)):
        return None
    return Matrix([r[n:] for r in R.rows])


def split_radical(M: Matrix) -> tuple[Matrix, Matrix, Optional[int]]:
    """Write M = A + B*sqrt(m) with rational A, B."""
    m = None
    for r in M.rows:
        for x in r:
            m = common_field(m, x.m)
    A = Matrix([[Scalar(x.a) for x in r] for r in M.rows])
    B = Matrix([[Scalar(x.b) for x in r] for r in M.rows])
    return A, B, m


def integer_kernel_rank(M: Matrix) -> int:
    """Rank of the lattice {x in Z^ncols : Mx = 0}.

    Over Q(sqrt(m)) the condition splits into two rational systems, so the
    integer kernel is the rational kernel of the stacked matrix [A; B].
    """
    A, B, m = split_radical(M)
    if m is None:
        stacked = A
    else:
        stacked = Matrix(list(A.rows) + list(B.rows))
    return M.ncols - rank(stacked)


@dataclass(frozen=True)
class Calibration:
    """The epimorphism h as a d x n column matrix plus virtual indices (1-based)."""

    d: int
    n: int
    columns: tuple[Vec, ...]
    virtual: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        cols = tuple(vec(c) for c in self.columns)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "virtual", frozenset(self.virtual))
        if len(cols) != self.n or any(len(c) != self.d for c in cols):
            raise InvalidCalibrationError("column shape does not match (d, n)")
        if any(is_zero_vec(c) for c in cols):
            raise InvalidCalibrationError("zero generator column")
        if rank(self.matrix()) != self.d:
            raise InvalidCalibrationError("h is not an epimorphism (rank < d)")
        if not self.virtual <= set(range(1, self.n + 1)):
            raise InvalidCalibrationError("virtual indices out of range")

    def matrix(self) -> Matrix:
        return Matrix.from_columns(self.columns, nrows=self.d)

    def column(self, i: int) -> Vec:
        """1-based generator column h(e_i)."""
        if not 1 <= i <= self.n:
            raise DimensionMismatchError("generator index must lie in 1..n")
        return self.columns[i - 1]

    @property
    def field_m(self) -> Optional[int]:
        m = None
        for c in self.columns:
            for x in c:
                m = common_field(m, x.m)
        return m

    def is_geometric(self) -> bool:
        """No two generator columns are collinear."""
        dirs = set()
        for c in self.columns:
            key = normalize_direction(c)
            key2 = vscale(-1, key)
            if key in dirs or key2 in dirs:
                return False
            dirs.add(key)
        return True

    def is_standard(self) -> bool:
        if self.virtual and self.virtual != frozenset(range(self.n - len(self.virtual) + 1, self.n + 1)):
            return False
        eye = Matrix.identity(self.d)
        return all(self.column(i + 1) == eye.column(i) for i in range(self.d))

    # -- facts fixed by the calibration ------------------------------------
    # Each is computed on first use and kept in the instance __dict__ by
    # cached_property, outside the dataclass fields, so it takes no part in
    # ==, hash, repr or to_json.  Each has a size fixed by (n, d) but
    # live_chambers, which holds live chambers weakly.  Signs are read off the
    # chirotope and integer codes; Scalars are built only where output.

    @cached_property
    def gale(self) -> Matrix:
        """The Gale transform k; see gale_transform."""
        return Matrix.from_columns(kernel_basis(self.matrix()), nrows=self.n)

    @cached_property
    def free_columns(self) -> tuple[int, ...]:
        """F, the free columns of rref(h) in increasing order.  kernel_basis
        sets column t of k to 1 at F[t], its last nonzero entry, and to 0 at
        the other free columns, so the Gale rows at F are the identity."""
        return tuple(max(i for i, g in enumerate(self.gale.rows) if not g[t].is_zero())
                     for t in range(self.n - self.d))

    @cached_property
    def gale_t(self) -> Matrix:
        """k^T, the map b -> chi."""
        return self.gale.transpose()

    @cached_property
    def preimage(self) -> Matrix:
        """P = k (k^T k)^{-1}; see preimage_matrix.  When n = d, k itself
        (n x 0): a Matrix has no 0 x n shape for k^T."""
        if self.n == self.d:
            return self.gale
        gram_inv = inverse(self.gale_t * self.gale)
        if gram_inv is None:
            raise DimensionMismatchError("Gale transform is rank-deficient")
        return self.gale * gram_inv

    @cached_property
    def gale_facet_normals(self) -> tuple:
        """Inward facet normals of the Gale cone, sorted.  The Gale rows
        span R^(n-d), so every facet contains n-d-1 independent Gale rows
        and lies on a wall hyperplane."""
        return tuple(sorted(facet_normals(self.wall_normals, self.gale.rows)))

    @cached_property
    def gale_facet_codes(self) -> tuple[IntVec, ...]:
        """gale_facet_normals encoded for scalar.dot_sign."""
        return tuple(map(encode, self.gale_facet_normals))

    @cached_property
    def wall_normals(self) -> tuple:
        """One normal per hyperplane spanned by n-d-1 Gale rows T: (c_S)_F for
        S the complement of T, orthogonal to the rows T as k (c_S)_F = c_S
        vanishes there, and nonzero exactly when they are independent;
        turned so that the last nonzero entry (where kernel_basis puts its 1)
        is positive, normalized.  Every wall of the secondary fan, and every
        cone on fewer than n-d Gale rows, lies in one of these hyperplanes.
        n-d = 1 gives (1,), the normal of {0}; n = d gives none."""
        m = self.n - self.d
        if m == 0:
            return ()
        normals, seen, table = [], set(), self.minor_table
        for T in combinations(range(self.n), m - 1):
            S = tuple(i for i in range(self.n) if i not in T)
            w = self._at_free(S, divided(table.circuit(S), (1, 0), table.m))  # L^d c_S
            last = next((x for x in reversed(w) if not x.is_zero()), None)
            if last is None:
                continue
            w = normalize_direction(w if last.sign() > 0 else vscale(-1, w))
            if w not in seen:
                seen.add(w)
                normals.append(w)
        return tuple(normals)

    @cached_property
    def wall_codes(self) -> tuple[IntVec, ...]:
        """wall_normals encoded for scalar.dot_sign."""
        return tuple(map(encode, self.wall_normals))

    @cached_property
    def positively_spanning(self) -> bool:
        """Cone(h) = R^d, so every P_b is bounded.  As h has rank d, this
        holds exactly when the columns are totally cyclic: each lies in the
        support of a circuit c_S whose nonzero entries share one sign
        (Bjorner et al., Oriented Matroids, ch. 3).  Every circuit is some
        c_S, signed by circuit_signs; d = 0 has no columns, n = d no
        circuits.  The scan stops once every column is covered."""
        covered = set()
        for S in combinations(range(self.n), self.d + 1):
            signs = self.circuit_signs(S)
            if not {1, -1} <= set(signs):
                covered.update(s for s, x in zip(S, signs) if x)
                if len(covered) == self.n:
                    return True
        return len(covered) == self.n

    @cached_property
    def minor_table(self) -> MinorTable:
        """The integer cofactor normals N_S and brackets D_J of the columns,
        over their least common denominator L, from one pass; see
        scalar.MinorTable."""
        return minor_table(self.columns, self.d)

    @cached_property
    def chirotope(self) -> Mapping[tuple[int, ...], int]:
        """sign [J] = sign D_J (L^d > 0) by 0-based d-subset J, in lexicographic order."""
        return MappingProxyType(self.minor_table.chirotope())

    def circuit_signs(self, S: tuple[int, ...]) -> tuple[int, ...]:
        """sign((-1)^t [S - S_t]) at S_t: the signs of c_S at a (d+1)-subset S."""
        return tuple((-1) ** t * self.chirotope[S[:t] + S[t + 1:]] for t in range(len(S)))

    @cached_property
    def brackets(self) -> tuple[Scalar, ...]:
        """[J] = det M_J for every 0-based d-subset J, in lexicographic
        order, where M_J has rows h(e_j), j in J: D_J / L^d off the minor
        table."""
        return self.minor_table.scalar_brackets()

    @cached_property
    def hyperplane_normals(self) -> Mapping[tuple[int, ...], IntVec]:
        """The code N_S = L^(d-1) n_S (n_S itself is minor_table.normal(S)) of
        every 0-based (d-1)-subset S spanning a hyperplane, in lexicographic
        order: n_S . x = det(x, h(e_s), s in S), and n_{J - J_k} is (-1)^k [J]
        times column k of M_J^{-1}, as n_{J - J_k} . h(e_{J_k}) = (-1)^k [J]."""
        return MappingProxyType(self.minor_table.normal_codes())

    @cached_property
    def basis_inverses(self) -> Mapping[tuple[int, ...], Matrix]:
        """M_J^{-1} for every 0-based d-subset J (in lexicographic order) with
        [J] != 0, column k read off the minor table's normal n_{J - J_k}."""
        table, out = self.minor_table, {}
        for (J, s), bracket in zip(self.chirotope.items(), self.brackets):
            if s:
                scale = bracket.inv()
                out[J] = Matrix.from_columns([vscale(-scale if k % 2 else scale,
                                                     table.normal(J[:k] + J[k + 1:]))
                                              for k in range(self.d)], nrows=self.d)
        return MappingProxyType(out)

    @cached_property
    def inverse_codes(self) -> Mapping[tuple[int, ...], tuple[IntVec, ...]]:
        """For every J with [J] != 0, in lexicographic order, the columns of
        M_J^{-1} coded up to positive factors: the code of n_{J - J_k} turned
        by the chirotope's sign of (-1)^k [J].  Their signs against x are
        those of the coordinates M_J^{-T} x of x in the basis h(e_j), j in J."""
        normals, out = self.hyperplane_normals, {}
        for J, s in self.chirotope.items():
            if s:
                out[J] = tuple(normals[J[:k] + J[k + 1:]] if s == (-1) ** k
                               else -normals[J[:k] + J[k + 1:]] for k in range(self.d))
        return MappingProxyType(out)

    @cached_property
    def circuits(self) -> Mapping[tuple[int, ...], IntVec]:
        """The code L^d c_S over all n columns of the circuit c_S = sum_t
        (-1)^t [S - S_t] e_{S_t} of every 0-based (d+1)-subset S, in
        lexicographic order, zero off S and everywhere when S spans no R^d.
        h c_S = 0 by Cramer's rule, so c_S = k (c_S)_F."""
        table, n = self.minor_table, self.n
        return MappingProxyType({S: table.circuit_code(S, n)
                                 for S in combinations(range(n), self.d + 1)})

    def _at_free(self, S: tuple[int, ...], entries: Sequence[Scalar]) -> Vec:
        """The vector with these entries at S, zero elsewhere, at the free columns F."""
        return tuple(entries[S.index(f)] if f in S else S0 for f in self.free_columns)

    def chamber_form(self, J: tuple[int, ...], j: int) -> Vec:
        """z(J, j) = ((-1)^p / [J]) (c_S)_F for a 0-based d-subset J with
        [J] != 0 and j outside J, S = J with j in place p: the circuit
        c = e_j - sum_k y_k e_{J_k} at the free columns F, with
        y = M_J^{-T} h(e_j), y_k = [J with J_k -> j] / [J] by Cramer's rule.
        h c = 0, so c = k c_F and z . k^T b = c . b, the slack
        <x, h(e_j)> + b_j at the vertex x = M_J^{-1} (-b_J) of P_b, for every b."""
        p = sum(i < j for i in J)  # j sorts into place p
        S = J[:p] + (j,) + J[p:]
        c = self.minor_table.circuit(S)  # L^d c_S, (-1)^p L^d [J] at j
        return self._at_free(S, divided(c, c[p], self.minor_table.m))

    @cached_property
    def gale_row_codes(self) -> tuple[IntVec, ...]:
        """The Gale rows encoded for scalar.dot_sign."""
        return tuple(map(encode, self.gale.rows))

    @cached_property
    def live_chambers(self) -> weakref.WeakValueDictionary:
        """secondary.chamber_of's live chambers, held weakly, by the tight sets of their scan."""
        return weakref.WeakValueDictionary()

    def with_columns(self, columns) -> "Calibration":
        return Calibration(self.d, self.n, tuple(vec(c) for c in columns), self.virtual)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "m": self.field_m,
            "columns": [[x.to_json() for x in c] for c in self.columns],
            "virtual": sorted(self.virtual),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Calibration":
        d, n, virtual = data["d"], data["n"], data.get("virtual", [])
        if any(type(x) is not int for x in (d, n, *virtual)):
            raise InvalidCalibrationError("d, n and the virtual indices must be integers")
        cols = data["columns"]
        if type(cols) is not list or any(type(v) is not list for v in (virtual, *cols)):
            raise InvalidCalibrationError("columns, each column and virtual must be JSON arrays")
        return cls(d, n, tuple(tuple(Scalar.from_json(x) for x in c) for c in cols), frozenset(virtual))


def gale_transform(c: Calibration) -> Matrix:
    """An n x (n-d) kernel basis k of h, so that h k = 0 and rank k = n - d.

    Deterministic: reduced echelon form with leftmost pivots, free
    variables in increasing order.
    """
    return c.gale


def gale_rows(c: Calibration) -> list[Vec]:
    """The vectors k^T(e_1), ..., k^T(e_n) in R^(n-d)."""
    return list(c.gale.rows)


def preimage_matrix(c: Calibration) -> Matrix:
    """The n x (n-d) map chi -> b = k (k^T k)^{-1} chi (minimum-norm preimage)."""
    return c.preimage


def preimage_of_chi(c: Calibration, chi: Sequence[Scalar]) -> Vec:
    """Minimum-norm b with k^T b = chi, namely b = k (k^T k)^{-1} chi."""
    if len(chi) != c.n - c.d:
        raise DimensionMismatchError("chi has wrong length for this calibration")
    return c.preimage.matvec(vec(chi))


def preimage_at_free(c: Calibration, chi: Sequence[Scalar]) -> Vec:
    """The b with chi at the free columns F and zeros elsewhere: k^T b = chi,
    as the Gale rows at F are the identity."""
    if len(chi) != c.n - c.d:
        raise DimensionMismatchError("chi has wrong length for this calibration")
    b = [S0] * c.n
    for f, x in zip(c.free_columns, vec(chi)):
        b[f] = x
    return tuple(b)


def chi_of_b(c: Calibration, b: Sequence[Scalar]) -> Vec:
    return c.gale_t.matvec(vec(b))
