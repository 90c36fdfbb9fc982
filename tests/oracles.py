"""Independent reference implementations used to cross-check the library.

Everything here works on plain data (edge lists, lists of Fraction rows)
and is written without touching the package's own linear algebra, so a bug
cannot hide on both sides of a comparison. Linear-algebra ground truth
comes from sympy.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import sympy


def det_cofactor(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = Fraction(rows[0][j]) * det_cofactor(minor)
        total += -term if j % 2 else term
    return total


def first_affinely_dependent(points, k):
    """First lexicographic k-subset of the points, as 1-based indices, whose
    vectors (p, 1) have zero determinant; None when there is none."""
    for subset in combinations(range(len(points)), k):
        rows = [[Fraction(x) for x in points[i]] + [Fraction(1)] for i in subset]
        if det_cofactor(rows) == 0:
            return tuple(i + 1 for i in subset)
    return None


def cofactor_vector(rows):
    """The cofactors of a last row below the k-1 rows of length k: entry t
    is (-1)^(k-1+t) times the minor without column t, so its dot product
    with a row x is the determinant of the rows stacked over x."""
    k = len(rows) + 1
    return [(-1) ** (k - 1 + t) * det_cofactor([row[:t] + row[t + 1:] for row in rows])
            for t in range(k)]


def equal_sq_distances(points_a, points_b, pairs):
    """Whether every 1-based pair (u, v) is at the same squared distance in
    both point lists, each distance summed in Fractions."""
    def sq(points, u, v):
        return sum((Fraction(x) - Fraction(y)) ** 2
                   for x, y in zip(points[u - 1], points[v - 1]))
    return all(sq(points_a, u, v) == sq(points_b, u, v) for u, v in pairs)


def reflect_point(normal, offset, p):
    """The mirror image of p in the hyperplane normal . x = offset, by the
    plain formula p - 2 (n.p - o) / |n|^2 n in Fractions."""
    n = [Fraction(a) for a in normal]
    t = 2 * (sum(a * Fraction(x) for a, x in zip(n, p)) - Fraction(offset)) / sum(a * a for a in n)
    return tuple(Fraction(x) - t * a for x, a in zip(p, n))


def principal_minors_nonneg(rows):
    """PSD test for a symmetric matrix: every nonempty principal minor >= 0."""
    n = len(rows)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            sub = [[rows[i][j] for j in subset] for i in subset]
            if det_cofactor(sub) < 0:
                return False
    return True


def rank_and_generic_profile(rows):
    """Rank of a square matrix by sympy, and whether its first rank leading
    principal minors, each by cofactor expansion, are all nonzero."""
    k = sym_rank(rows)
    return k, all(det_cofactor([row[:j] for row in rows[:j]]) != 0
                  for j in range(1, k + 1))


def sym_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          if isinstance(x, Fraction) else sympy.Rational(x)
                          for x in row] for row in rows])


def sym_rank(rows):
    return sym_matrix(rows).rank()


def sym_det(rows):
    d = sym_matrix(rows).det()
    return Fraction(d.p, d.q)


def sym_rref(rows):
    """sympy's reduced row echelon form, as rows of Fractions, and its
    pivot columns."""
    m, pivots = sym_matrix(rows).rref()
    return ([[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)],
            list(pivots))


def sym_solve(a_rows, b_rows):
    """The X with A X = B for an A of full column rank, solved by sympy, as
    rows of Fractions; None when there is none."""
    a = sym_matrix(a_rows)
    assert a.rank() == a.cols
    try:
        x, _ = a.gauss_jordan_solve(sym_matrix(b_rows))
    except ValueError:
        return None
    return [[Fraction(int(v.p), int(v.q)) for v in x.row(i)] for i in range(x.rows)]


def psi_by_solving(z_rows, s_rows):
    """The Psi with S = Z Psi Z^T for a Z of full column rank, by two sympy
    solves: Z X = S for X = Psi Z^T, then Z Psi^T = X^T. Rows of Fractions;
    None when S does not factor through Z."""
    x = sym_solve(z_rows, s_rows)
    psi_t = None if x is None else sym_solve(z_rows, [list(c) for c in zip(*x)])
    return None if psi_t is None else [list(c) for c in zip(*psi_t)]


def in_affine_hull(points, q):
    """Whether q is an affine combination of the points: the sympy rank of
    the rows (p, 1) does not grow when (q, 1) is added. False for no
    points."""
    if not points:
        return False
    rows = [list(p) + [1] for p in points]
    return sym_rank(rows) == sym_rank(rows + [list(q) + [1]])


def sym_nullity(rows):
    m = sym_matrix(rows)
    return m.cols - m.rank()


def _adjacency(n, edges):
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_connected_without(n, edges, removed=()):
    """Connectivity of the graph after deleting the given vertices (DFS)."""
    gone = set(removed)
    left = [v for v in range(1, n + 1) if v not in gone]
    if not left:
        return True
    adj = _adjacency(n, edges)
    seen = {left[0]}
    stack = [left[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in gone and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(left)


def brute_connectivity(n, edges):
    """Vertex connectivity by exhausting all deletion subsets (K_n -> n-1)."""
    if not is_connected_without(n, edges):
        return 0
    for k in range(n - 1):
        for subset in combinations(range(1, n + 1), k):
            if not is_connected_without(n, edges, subset):
                return k
    return n - 1


def is_chordal_simplicial(n, edges):
    """Chordality by repeatedly deleting simplicial vertices."""
    adj = _adjacency(n, edges)
    remaining = set(range(1, n + 1))
    while remaining:
        for v in sorted(remaining):
            nbrs = [u for u in adj[v] if u in remaining]
            if all(b in adj[a] for a, b in combinations(nbrs, 2)):
                remaining.discard(v)
                break
        else:
            return False
    return True


def peo_witness(n, edges, order):
    """The elimination-order check on plain data, by the standard
    reduction: for each position in turn, the later neighbours of its
    vertex v other than the earliest-positioned one u must all be adjacent
    to u. Returns (v, min(u, w), max(u, w)) for the first position that
    fails, w its smallest later neighbour not adjacent to u, else None."""
    adj = _adjacency(n, edges)
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if len(later) < 2:
            continue
        u = min(later, key=pos.get)
        missing = [w for w in later if w != u and w not in adj[u]]
        if missing:
            w = min(missing)
            return v, min(u, w), max(u, w)
    return None


def later_neighbours_are_cliques(n, edges, order):
    """Whether every vertex's later neighbours in ``order`` are pairwise
    adjacent, by checking every pair."""
    adj = _adjacency(n, edges)
    pos = {v: i for i, v in enumerate(order)}
    return all(b in adj[a] for v in order
               for a, b in combinations([u for u in adj[v] if pos[u] > pos[v]], 2))


def unit_triangular_gale_by_solving(points, edges, order):
    """The unit-triangular Gale matrix of a chordal framework, as n rows of
    n-r-1 Fractions, each column solved by sympy: column j is 1 at the
    vertex v in position j of ``order`` and, at the r+1 earliest-positioned
    later neighbours u_k of v, the solution x of sum x_k (p_{u_k}, 1) =
    -(p_v, 1)."""
    n, r = len(points), len(points[0])
    adj = _adjacency(n, edges)
    pos = {v: i for i, v in enumerate(order, 1)}
    z = [[Fraction(0)] * (n - r - 1) for _ in range(n)]
    for j in range(1, n - r):
        v = order[j - 1]
        support = sorted((u for u in adj[v] if pos[u] > j), key=pos.get)[:r + 1]
        a = sym_matrix([[*points[u - 1], 1] for u in support]).T
        b = sym_matrix([[-x] for x in (*points[v - 1], 1)])
        z[v - 1][j - 1] = Fraction(1)
        for u, x in zip(support, a.LUsolve(b)):
            z[u - 1][j - 1] = Fraction(int(x.p), int(x.q))
    return z


def primitive_dependency(points, v, support):
    """The affine dependency of the point v on the support (0-based
    indices), from sympy's null space of the matrix whose columns are
    (p_v, 1) and the (p_u, 1) of the support: the primitive integer vector
    w with w_v > 0, as {index: w} without its zero entries. None when the
    null space is not one-dimensional or w_v = 0."""
    keys = [v, *support]
    null = sym_matrix([[*points[u], 1] for u in keys]).T.nullspace()
    if len(null) != 1 or null[0][0] == 0:
        return None
    x = [Fraction(int(e.p), int(e.q)) for e in null[0]]
    scale = lcm(*[q.denominator for q in x])
    ints = [int(q * scale) for q in x]
    g = gcd(*ints) if ints[0] > 0 else -gcd(*ints)
    return {u: c // g for u, c in zip(keys, ints) if c}


def first_independent(points, candidates, k):
    """The first k candidates (0-based, in order) whose points are
    affinely independent, each kept when the sympy rank of the rows (p, 1)
    kept so far grows; None when fewer than k are."""
    kept = []
    for u in candidates:
        if sym_rank([[*points[w], 1] for w in kept + [u]]) == len(kept) + 1:
            kept.append(u)
            if len(kept) == k:
                return kept
    return None


def conic_at_infinity(fw):
    """A nonzero symmetric Q, as r rows of Fractions, with d^T Q d = 0 for
    every edge direction d = p_i - p_j, from the first vector of sympy's
    null space of the |E| x r(r+1)/2 matrix of the products d_a d_b,
    a <= b; None when the null space is trivial. Reads only the framework's
    points and edge list."""
    r = len(fw.points[0])
    pairs = [(a, b) for a in range(r) for b in range(a, r)]
    rows = []
    for u, v in fw.graph.edges:
        d = [Fraction(x) - Fraction(y) for x, y in zip(fw.points[u - 1], fw.points[v - 1])]
        rows.append([d[a] * d[b] for a, b in pairs])
    null = sym_matrix(rows).nullspace()
    if not null:
        return None
    q = [[Fraction(0)] * r for _ in range(r)]
    for (a, b), x in zip(pairs, null[0]):
        q[a][b] = q[b][a] = Fraction(int(x.p), int(x.q)) / (1 if a == b else 2)
    return q
