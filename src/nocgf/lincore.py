"""Small dense complex linear algebra with the column-stacking conventions
used throughout the gate-refinement pipeline.

Everything here acts on 2x2 or 4x4 complex matrices (or stacks of them with
arbitrary leading axes) and on length-N^2 column-stacked vectors.  Batched
`@` is slow on stacks of matrices this small, so products of long stacks are
formed by entry arithmetic on component-major views (entry_matmul), where
every matrix entry is one vector across the stack.  One-qubit propagators
also have a Cayley-Klein form (cayley_klein_matmul): the one-qubit
generators i f.sigma lie in su(2), and a matrix in the real span of su(2)
and I is [[alpha, -conj(beta)], [beta, conj(alpha)]], fixed by its first
column; products of such matrices stay in that span.  A generator X of
su(2) has an imaginary alpha and squares to -(|alpha|^2 + |beta|^2) I, so
a polynomial in one generator needs no product at all (the integrator's
step-map completion uses this).  The Cayley-Klein helpers take a bare
(2, 1) element as well as stacks.
pauli_coordinates takes column-stacked 2x2 or 4x4 matrices to the real
coordinates of their Hermitian part in the one- or two-qubit Pauli basis.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# The two-qubit Pauli products P_a = s_i (x) s_j, a = 4 i + j, with
# s_0 = I, s_1..3 = sigma_x, y, z, formed as one outer product; the P_a / 2
# are an orthonormal basis of the 4x4 matrices, as the s_a / sqrt(2) are of
# the 2x2 ones.
_PAULIS = np.stack([ID2, SIGMA_X, SIGMA_Y, SIGMA_Z])
PAULI_PRODUCTS = np.einsum("sij,tkl->stikjl", _PAULIS, _PAULIS).reshape(16, 4, 4)


def _pauli_table(basis: np.ndarray):
    """(table, columns) of the projection onto the m = n² Pauli matrices
    of an n x n system, basis shape (m, n, n).

    Coordinate a of the column-stacked vec(X) is x_a = t[a] . vec(X), t[a]
    the basis matrix P_a / sqrt(n) in row-major order.  Every P_a is real
    or imaginary, so w[a] = t.real - t.imag is real and w[a] . Re vec(X),
    w[a] . Im vec(X) are (Re x_a, Im x_a) or (-Im x_a, Re x_a).  The (m, m)
    table's columns are the w[a], imaginary P_a first; columns orders the
    2 m products (Re vec(X) . table, Im vec(X) . table) as the Re x_a, x_0
    first, then the imaginary parts.
    """
    m, n, _ = basis.shape
    t = basis.reshape(m, m) / math.sqrt(n)
    imaginary = t.imag.any(axis=1)
    order = np.argsort(imaginary, kind="stable")
    q = int(imaginary.sum())
    table = np.ascontiguousarray((t.real - t.imag)[np.roll(order, q)].T)
    columns = np.concatenate([q + np.argsort(order), np.arange(q),
                              np.arange(q + m, 2 * m)])
    return table, columns


# projection tables by vector length: 2x2 and 4x4 matrices
_PAULI_TABLES = {4: _pauli_table(_PAULIS), 16: _pauli_table(PAULI_PRODUCTS)}


def vectorize(m: np.ndarray) -> np.ndarray:
    """Stack the columns of a square matrix into a single vector.

    For a batch of matrices (..., n, n) the result is (..., n*n).
    """
    m = np.asarray(m)
    n = m.shape[-1]
    if m.shape[-2] != n:
        raise ValueError("vectorize expects a square matrix")
    return np.swapaxes(m, -1, -2).reshape(*m.shape[:-2], n * n)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M†)/2."""
    m = np.asarray(m)
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def pauli_coordinates(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Real Pauli coordinates of column-stacked 2x2 or 4x4 matrices.

    v has shape (..., m), m = 4 or 16: x_a = tr(s_a X) / sqrt(2) on the
    basis s_a / sqrt(2) of the 2x2 matrices, x_a = tr(P_a X) / 2 on the
    basis P_a / 2 of the 4x4 ones (PAULI_PRODUCTS).  The change of basis is
    unitary, so ||x|| = ||vec(X)|| and inner products are kept.  The
    coordinates of a Hermitian X are real: returns their real parts, shape
    (..., m), and the largest imaginary part discarded, which measures how
    far X is from Hermitian.

    The vectors are the rows of v.T, which for control.drive_matrix's
    samples is their memory: no copy.  One real product with the table of
    _pauli_table gives every real and imaginary part (a complex product
    costs several times more); as its right operand the table gives each
    row the same bits however many rows the product takes.  The parts go
    to (..., 2 m) memory, real parts first; the result is its (..., m) view.
    """
    v = np.asarray(v)
    m = v.shape[-1]
    if m not in _PAULI_TABLES:
        raise ValueError(f"vector length {m} is not that of a 2x2 or 4x4 matrix")
    table, columns = _PAULI_TABLES[m]
    rows = np.ascontiguousarray(v.T, dtype=complex)
    stack = rows.shape[1:]      # v's stack axes, reversed
    parts = (rows.reshape(m, -1).view(float).T @ table).reshape(*stack, 2 * m)
    out = np.empty((*v.shape[:-1], 2 * m))
    # out with its stack axes reversed, as they are in parts
    out_rows = out.transpose(*reversed(range(out.ndim - 1)), out.ndim - 1)
    out_rows[...] = parts[..., columns]
    residue = float(np.abs(out[..., m:]).max(initial=0.0))
    return out[..., :m], residue


# Crossover (measured on 2x2 and 4x4 stacks) between the two product forms
# of entry_matmul: 2**14 complex entries, 256 KiB per operand.
ROW_PRODUCT_MAX_ENTRIES = 1 << 14


def component_major(a: np.ndarray) -> np.ndarray:
    """View (..., n, n) as (n, n, ...); each entry a[..., i, k] becomes x[i, k]."""
    return a.transpose(a.ndim - 2, a.ndim - 1, *range(a.ndim - 2))


def matrix_major(x: np.ndarray) -> np.ndarray:
    """Inverse of component_major: view (n, n, ...) as (..., n, n)."""
    return x.transpose(*range(2, x.ndim), 0, 1)


def entry_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of component-major stacks (n, n, ...), entry by entry.

    Entry (i, j) is sum_k a[i, k] b[k, j], summed in k order; the stack axes
    broadcast and the result is contiguous and component-major.  Small
    stacks form whole rows per call (n calls), which keeps the per-call
    overhead low; larger ones form one entry per call (n^3 calls), whose
    temporaries stay in cache where whole-row temporaries do not.
    """
    n = a.shape[0]
    lead = a.shape[2:]
    if b.shape[2:] != lead:
        lead = np.broadcast_shapes(lead, b.shape[2:])
    if n * n * math.prod(lead) <= ROW_PRODUCT_MAX_ENTRIES:
        out = a[:, 0, None] * b[0]
        for k in range(1, n):
            out += a[:, k, None] * b[k]
        return out
    out = np.empty((n, n, *lead), dtype=np.result_type(a, b))
    for i in range(n):
        for j in range(n):
            acc = a[i, 0] * b[0, j]
            for k in range(1, n):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def cayley_klein_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of one-qubit matrices in Cayley-Klein form, by first columns.

    a and b are component-major first columns (2, 1, ...) of matrices
    [[alpha, -conj(beta)], [beta, conj(alpha)]]; the product's first column
    is (a0 b0 - conj(a1) b1, a1 b0 + conj(a0) b1), 4 complex multiplies
    where entry_matmul on the whole matrices takes 8.  The stack axes
    broadcast, and the result is a contiguous complex (2, 1, ...) array; a
    bare (2, 1) element has no stack axes.
    """
    # with the ellipsis, an entry of a bare element is a writable 0-d view,
    # not a scalar
    a0, a1, b0, b1 = a[0, 0, ...], a[1, 0, ...], b[0, 0, ...], b[1, 0, ...]
    first = a0 * b0         # shaped like the broadcast stack axes
    out = np.empty((2, 1, *first.shape), dtype=complex)
    alpha, beta = out[0, 0, ...], out[1, 0, ...]
    # the other terms are written in place: a temporary per operation costs
    # as much as the operation on a chunk-sized stack
    np.conj(a0, out=alpha)
    alpha *= b1
    np.multiply(a1, b0, out=beta)
    beta += alpha
    np.conj(a1, out=alpha)
    alpha *= b1
    np.subtract(first, alpha, out=alpha)
    return out


def cayley_klein_expand(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The matrices [[alpha, -conj(beta)], [beta, conj(alpha)]] of
    component-major first columns x (2, 1, *stack), written to out (or a new
    array) of shape (*stack, 2, 2)."""
    alpha, beta = x[:, 0]
    if out is None:
        out = np.empty((*alpha.shape, 2, 2), dtype=complex)
    out[..., 0, 0] = alpha
    out[..., 1, 0] = beta
    # not np.negative: in numpy 2.4.6 its float64 loop writes wrong values
    # to a strided output when the input's stride is exactly 8 elements,
    # as beta.real's is for first columns 4 complex entries apart
    np.multiply(beta.real, -1.0, out=out[..., 0, 1].real)
    out[..., 0, 1].imag = beta.imag
    out[..., 1, 1].real = alpha.real
    np.multiply(alpha.imag, -1.0, out=out[..., 1, 1].imag)
    return out


def cayley_klein_defect(x: np.ndarray) -> float:
    """max | |alpha|^2 + |beta|^2 - 1 | over first columns x (2, 1, ...).

    For [[alpha, -conj(beta)], [beta, conj(alpha)]], U†U - I is
    (|alpha|^2 + |beta|^2 - 1) I, so this equals unitarity_defect of the
    expanded matrices to within eps, which rounds its complex products
    differently (9e-24 apart on the production hadamard sweep).
    A NaN gives a NaN defect.
    """
    alpha, beta = x[:, 0]
    norm = alpha.real * alpha.real
    norm += alpha.imag * alpha.imag
    norm += beta.real * beta.real
    norm += beta.imag * beta.imag
    norm -= 1.0
    return float(np.abs(norm).max())


def unitarity_defect(u: np.ndarray) -> float:
    """max-norm of U†U - I; zero for exactly unitary input.

    U†U is Hermitian, so only its upper triangle is formed, one entry at a
    time across the whole stack: batched `@` is slow on stacks of 2x2 and
    4x4 matrices.  A NaN anywhere in U gives a NaN defect.
    """
    u = np.asarray(u)
    n = u.shape[-1]
    worst = []
    for i in range(n):
        # one conjugated column at a time, not a trajectory-sized copy
        ubar = np.conj(u[..., i])
        for j in range(i, n):
            g = ubar[..., 0] * u[..., 0, j]
            for k in range(1, n):
                g += ubar[..., k] * u[..., k, j]
            if i == j:
                g -= 1.0
            worst.append(np.abs(g).max())
    return float(np.max(worst))

