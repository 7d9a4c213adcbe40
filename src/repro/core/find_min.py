"""FindMin (Proposition 2): the ``p`` lexicographically smallest hash values
of ``h(Sol(phi))``.

* **DNF** (polynomial time): the graph ``{(h(x), x)}`` of the hash is
  reduced once, MSB-first with the value above the input, which gives
  coordinates ``z`` in which ``h(x)`` is nondecreasing.  A term fixing
  ``x_F`` is then an ``|F|``-equation solve in ``z``, whose reduced
  solution set hands over its ``p`` smallest values by doubling.  Per-term
  lists are heap-merged with deduplication.  A second, paper-faithful
  implementation (`find_min_term_prefix_search`) performs the proof's
  explicit prefix search with Gaussian-elimination feasibility tests; the
  test suite checks the two agree.

  Cost per hash ``n -> m`` (``n`` inputs, ``p`` values, terms of width
  ``w``): the graph's column table (one :func:`~repro.gf2.matrix.transpose`
  of the ``m`` rows), one MSB-first reduction of ``n`` vectors of
  ``m + n`` bits (``O(n^2)`` XORs), and ``U``'s ``n`` rows by
  :func:`~repro.gf2.matrix.mat_vec_mul` (``n^2`` popcounts).  Per term:
  one :func:`~repro.gf2.matrix.solve_affine_system` of ``w`` equations in
  ``n`` unknowns (``O(w^2)`` XORs plus ``n - w`` nullspace vectors read by
  strided slices), at most ``w + 1`` XORs to map each of the lowest
  nullspace vectors doubling needs (about ``log2 p``), and ``p`` XORs of
  doubling.

* **CNF** (``O(p * m)`` NP-oracle calls): hash output variables
  ``y_r == h(x)_r`` are attached to the solver once, through the same
  :class:`~repro.core.cell_search.HashedSession` substrate the incremental
  cell-search engine uses; the lexicographically smallest value extending
  a fixed prefix is found by greedy bit descent on assumptions, and
  successors by the proof's rightmost-zero scan.
"""

from __future__ import annotations

import heapq
from typing import List, NamedTuple, Optional, Union

from repro.common.errors import InvalidParameterError
from repro.core.cell_search import HashedSession
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula, DnfTerm
from repro.gf2.affine import AffineSubspace
from repro.gf2.matrix import (
    apply_columns,
    mat_vec_mul,
    solve_affine_system,
)
from repro.hashing.base import LinearHash
from repro.sat.oracle import NpOracle, OracleSession

Formula = Union[CnfFormula, DnfFormula]


# ----------------------------------------------------------------------
# DNF: polynomial-time path
# ----------------------------------------------------------------------

def _term_image(term: DnfTerm, num_vars: int,
                h: LinearHash) -> Optional[AffineSubspace]:
    space = term.solution_space(num_vars)
    if space is None:
        return None
    return h.image_space(space)


class _GraphFrame(NamedTuple):
    """One hash's graph ``{(h(x), x)}`` in reduced coordinates.

    ``z`` bit ``k`` toggles the ``k``-th lowest-pivot vector of the
    graph's MSB-first reduced basis, so ``(h(x), x)`` -- and with it
    ``h(x)`` -- is nondecreasing in ``z``: ``x = x_c ^ U z`` and
    ``h(x) = v_c ^ V z``.
    """

    v_columns: List[int]  # V e_k: the value part of basis vector k.
    u_rows: List[int]     # Row f of U: bit k is bit f of basis vector k.
    x_c: int              # Input part of the reduced origin.
    v_c: int              # Value part of the reduced origin, h(x_c).


def _graph_frame(h: LinearHash) -> _GraphFrame:
    """Reduce the graph of ``h`` once: the image of the full input space
    under ``x -> (h(x) << n) | x``.  The value sits above the input, so
    the MSB-first reduction orders the graph by value first, and the
    directions of ``h``'s kernel (value part 0) take the lowest pivots."""
    n, m = h.in_bits, h.out_bits
    aug = [(col << n) | (1 << j) for j, col in enumerate(h.columns())]
    graph = AffineSubspace.full_space(n).image(
        aug, h.packed_offset() << n, m + n)
    basis = graph.basis[::-1]  # Increasing pivot: z bit k is basis[k].
    low = (1 << n) - 1
    # U's columns are the input parts; row f is U^T e_f.  DESIGN.md,
    # "#DNF FindMin over GF(2)", says why this is not a transpose.
    u_columns = [b & low for b in basis]
    return _GraphFrame(
        v_columns=[b >> n for b in basis],
        u_rows=[mat_vec_mul(u_columns, 1 << f) for f in range(n)],
        x_c=graph.origin & low, v_c=graph.origin >> n)


def _term_smallest(term: DnfTerm, frame: _GraphFrame, p: int) -> List[int]:
    """The ``p`` smallest values of ``h`` over a term's subcube.

    The term fixes ``x_F = a_F``: in graph coordinates that is the
    ``|F|``-equation system ``(U z)_F = a_F ^ (x_c)_F``.  Its nullspace
    basis (one vector per free column, in increasing order, with that
    column as its leading bit and no other free column) is MSB-first
    reduced, and ``V`` keeps what matters: a mapped vector's leading bit
    is its free column's graph pivot, which no other mapped vector and
    not the mapped origin holds.  So over the vectors that do not map to
    0 the values strictly increase with the choice vector, and the ``p``
    smallest double up from the lowest.  Vectors that map to 0 are free
    columns among ``h``'s kernel directions (graph pivots in the input
    part, below every value pivot); skipping them drops exactly the
    repeated values.
    """
    fixed = term.pos_mask | term.neg_mask
    target = term.pos_mask ^ frame.x_c
    rows: List[int] = []
    rhs: List[int] = []
    while fixed:
        f = (fixed & -fixed).bit_length() - 1
        rows.append(frame.u_rows[f])
        rhs.append((target >> f) & 1)
        fixed &= fixed - 1
    solved = solve_affine_system(rows, rhs, len(frame.v_columns))
    # U is invertible (the graph projects onto x one to one), so any
    # consistent assignment of x_F is reached.
    assert solved is not None
    z0, nullspace = solved
    out = [frame.v_c ^ apply_columns(frame.v_columns, z0)]
    for vec in nullspace:
        if len(out) >= p:
            break
        mapped = apply_columns(frame.v_columns, vec)
        if mapped:
            out.extend([x ^ mapped for x in out[:p - len(out)]])
    return out


def find_min_dnf(formula: DnfFormula, h: LinearHash, p: int) -> List[int]:
    """Heap-merge the per-term sorted value streams; keep ``p`` smallest.

    The hash's graph is reduced once (:func:`_graph_frame`); each term is
    then an ``|F|``-equation solve (:func:`_term_smallest`).
    """
    if p < 0:
        raise InvalidParameterError("p must be non-negative")
    if p == 0:
        return []
    if h.in_bits != formula.num_vars:
        raise ValueError(f"map has {h.in_bits} columns for a "
                         f"{formula.num_vars}-bit space")
    frame = _graph_frame(h)
    streams: List[List[int]] = [
        _term_smallest(term, frame, p)
        for term in formula.terms if not term.is_contradictory]
    out: List[int] = []
    last = -1
    for value in heapq.merge(*streams):
        if value == last:
            continue  # Deduplicate across terms.
        out.append(value)
        last = value
        if len(out) == p:
            break
    return out


def find_min_term_prefix_search(term: DnfTerm, num_vars: int,
                                h: LinearHash, p: int) -> List[int]:
    """The proof-of-Proposition-2 algorithm, verbatim.

    Computes the ``p`` smallest elements of ``h(Sol(T))`` by repeated
    prefix-search: the basic primitive "is some value with this prefix in
    the image?" is a Gaussian-elimination feasibility check, the first
    minimum is a greedy bit descent, and each successor scans the rightmost
    zeros of the current value.  Kept as an executable cross-check of the
    optimised :func:`find_min_dnf`; complexity ``O(m^3 n p)`` as stated in
    the paper.
    """
    image = _term_image(term, num_vars, h)
    if image is None:
        return []
    m = h.out_bits

    def feasible_with_prefix(prefix_bits: List[int]) -> bool:
        # Value bit for row r sits at position m - 1 - r.
        rows = [1 << (m - 1 - r) for r in range(len(prefix_bits))]
        return image.intersect(rows, prefix_bits) is not None

    def smallest_extending(prefix_bits: List[int]) -> Optional[int]:
        if not feasible_with_prefix(prefix_bits):
            return None
        bits = list(prefix_bits)
        for _ in range(m - len(prefix_bits)):
            if feasible_with_prefix(bits + [0]):
                bits.append(0)
            else:
                bits.append(1)
        value = 0
        for b in bits:
            value = (value << 1) | b
        return value

    out: List[int] = []
    current = smallest_extending([])
    while current is not None and len(out) < p:
        out.append(current)
        bits = [(current >> (m - 1 - r)) & 1 for r in range(m)]
        successor = None
        for r in range(m - 1, -1, -1):
            if bits[r] == 1:
                continue
            candidate = smallest_extending(bits[:r] + [1])
            if candidate is not None:
                successor = candidate
                break
        current = successor
    return out


# ----------------------------------------------------------------------
# CNF: NP-oracle path
# ----------------------------------------------------------------------

def _smallest_extending_cnf(session: OracleSession, y_vars: List[int],
                            prefix_bits: List[int]) -> Optional[List[int]]:
    """Greedy bit descent: the smallest feasible completion of a prefix."""
    assumptions = [y if b else -y
                   for y, b in zip(y_vars, prefix_bits)]
    if not session.solve(assumptions):
        return None
    bits = list(prefix_bits)
    for r in range(len(prefix_bits), len(y_vars)):
        if session.solve(assumptions + [-y_vars[r]]):
            bits.append(0)
            assumptions.append(-y_vars[r])
        else:
            bits.append(1)
            assumptions.append(y_vars[r])
    return bits


def find_min_cnf(oracle: NpOracle, h: LinearHash, p: int,
                 hashed: Optional[HashedSession] = None) -> List[int]:
    """CNF FindMin through ``O(p * m)`` oracle calls (Proposition 2).

    ``hashed`` supplies an existing :class:`HashedSession` (hash outputs
    already attached); by default a fresh one is opened on ``oracle``.
    """
    if p < 0:
        raise InvalidParameterError("p must be non-negative")
    if p == 0:
        return []
    if hashed is None:
        hashed = HashedSession(oracle, h)
    session = hashed.session
    y_vars = hashed.y_vars
    m = h.out_bits

    def bits_to_value(bits: List[int]) -> int:
        value = 0
        for b in bits:
            value = (value << 1) | b
        return value

    out: List[int] = []
    bits = _smallest_extending_cnf(session, y_vars, [])
    while bits is not None and len(out) < p:
        out.append(bits_to_value(bits))
        successor = None
        for r in range(m - 1, -1, -1):
            if bits[r] == 1:
                continue
            candidate = _smallest_extending_cnf(session, y_vars,
                                                bits[:r] + [1])
            if candidate is not None:
                successor = candidate
                break
        bits = successor
    return out


def find_min(formula: Formula, h: LinearHash, p: int,
             oracle: Optional[NpOracle] = None,
             hashed: Optional[HashedSession] = None) -> List[int]:
    """Dispatch FindMin on the formula representation.

    The CNF prefix search runs on whatever solver backend the supplied
    oracle resolves (``NpOracle(formula, backend=...)`` -- see
    :mod:`repro.sat.backends`); the descent itself only consumes
    SAT/UNSAT answers, so every registered backend yields the same values
    and the same call count.
    """
    if isinstance(formula, DnfFormula):
        return find_min_dnf(formula, h, p)
    if oracle is None:
        raise InvalidParameterError("find_min on CNF requires an NpOracle")
    return find_min_cnf(oracle, h, p, hashed=hashed)
