"""Fixed-step time-ordered integration of the sweep propagators and of the
feedback state equation over [-tau0/2, +tau0/2].

The one-step map is the classical fourth-order Runge-Kutta transfer matrix
completed with the degree-5..7 powers of the Simpson-averaged generator.
The completion leaves the fourth-order accuracy untouched (it only adds
O(h^5) terms) but extends the stability polynomial of the map so that its
modulus on the imaginary axis is 1 + O(z^10).  At production step sizes the
unitarity defect of the propagator then stays near roundoff without any
re-unitarization, so integration error remains a measurable diagnostic.

Step nodes.  One integrator (_integrate) steps over an array of nodes, on
one path for every kind of node and storage mode.  One sampler
(_sample_rows) hands the generator a (rows, steps) time array whose row j
lies j/(2 refine) of the way through every step of a chunk, so row
`refine` is the step midpoint, and one step-map path reads those rows.  A
TimeGrid is the uniform special case: its steps share their end samples,
so it takes 2 refine rows over one step more than the chunk and reads the
end row as row 0 shifted by one step.  The sampler also hands over the
chunk's first grid step, so the control modification is interpolated with
fixed row weights on contiguous slices of its grid samples, with no search
(_control_fun).  Noisy propagation steps over StepNodes, the grid points
plus the pulse edges of a realization clipped to the sweep.  The phase
noise is piecewise constant, so on those nodes it is constant inside every
step; the generator builder (_generator_fun) evaluates it once per step,
at the midpoint row, and each step samples its own end row (row 2 refine)
because the generator may jump at a node.  The fourth-order rate, which a
step straddling a jump loses, is then kept.  These nodes are not grid
steps, so the control modification is interpolated there by np.interp on
the grid points around them.

Noisy segments.  Shot noise is a set of short pulses, and outside them the
noisy generator is the improved sweep's own.  So a realization is
integrated only over its noisy segments: every pulse, clipped to the
sweep, widened to the grid points around it, overlapping or touching
intervals merged (noisy_segments).  Each segment is integrated from I on
StepNodes, the segment's grid points plus the realization's edges inside
it.  Every quiet stretch between segments is one factor
Q = U(t_a) U(t_prev)^-1 of the stored improved trajectory, taken by an
exact solve rather than with the adjoint, which would carry each sample's
unitarity defect into the product.  The final propagator is the composite
Q_M S_M ... Q_1 S_1 Q_0.

Error estimate.  The unitarity defect does not track accuracy at noise
jumps, so every noisy segment is also a step-doubling pair: the same
samples are integrated at refine 2 (reported) and at refine 1, and both
composites share the quiet factors.  max|U_2 - U_1| is then the error
estimate of the refine-1 steps where the noisy generator differs from the
improved one, and it bounds the reported refine-2 error there (about 1/16
of it at fourth order).  The quiet steps are the improved sweep's own,
checked by its unitarity defect; the defects of the composite and of
every segment's refine-2 propagators at each of its nodes are checked
again.  The estimate must stay within DOUBLING_BUDGET, as the defect must
within UNITARITY_BUDGET; either check raises AccuracyError naming itself.

Memory layout.  The propagators are 2x2 or 4x4, far too small for batched
`@` to pay off, so the integrator works on component-major stacks: a
chunk's generator samples live in one (n, n, *batch, times) buffer, and
every matrix entry of every member is one contiguous vector across the
chunk's times.  Every integration takes its generator from one builder,
_generator_fun, which has control.generator write it in that layout, from
scalar series (twist phase, ramps, interpolated control modification);
noise enters only as control.generator's offset of the twist phase.  The
step maps and the products between them are formed in an algebra
(Algebra): a product, an identity and the step map's degree-5..7
completion on the first k columns of the matrices, one contiguous vector
per entry.  Two instances share the one step-map formula and the one
scan:

- whole matrices, k = n, by entry arithmetic (lincore.entry_matmul), for
  the 4x4 propagators; the completion takes four products;
- one-qubit matrices in Cayley-Klein form, k = 1.  A = i f.sigma lies in
  the real span of I, i sigma_x, i sigma_y, i sigma_z, which is closed
  under products and real combinations, so every step map, prefix product
  and propagator is exactly [[alpha, -conj(beta)], [beta, conj(alpha)]]
  and is fixed by its first column (alpha, beta), the generator's entries
  [0, 0] and [1, 0].  The product (lincore.cayley_klein_matmul) takes 4
  complex multiplies where entry arithmetic takes 8, and the unitarity
  defect is max | |alpha|^2 + |beta|^2 - 1 |.  The completion takes no
  product: by Cayley-Hamilton every power of a 2x2 matrix is a real
  combination of it and I, with coefficients from its trace and
  determinant, so a step map takes the three products of its Runge-Kutta
  stages.

_integrate chooses the algebra from the dimension, and expands elements to
n x n matrices at one boundary only: when it writes the grid samples or the
final propagator.  Trajectories, the drive matrix, the metrics and the
quiet factors of noisy runs all read complex (..., n, n) arrays.

Feedback equation.  dy/dtau = -G G† y (G the n² x 3 drive matrix) uses the
same one-step map in vector form, but its generator has rank 3, so every
map is exactly I + W C W† with W = [G(tau) | G(tau + h/2) | G(tau + h)]
and a 9x9 core C built from the Gram matrix W† W (see feedback_maps).
No n² x n² generator or product besides W C W† itself is formed; the maps
match the batched-`@` form of step_maps to about 1e-16.
integrate_delta_y advances y over the steps of a run of drive samples, so
the caller can stream the samples chunk by chunk (noc.strategy2_solve).
Both follow the dtype of their input on one code path.  Strategy 2 passes
real arrays: G and y in the orthonormal basis P_a/2 of the two-qubit Pauli
products (lincore.pauli_coordinates), a unitary change of basis in which
every Hermitian column is real, so the maps are real 16x16 matrices.

Product order.  A step's map is the product of its substep maps, and
within a chunk the step maps are multiplied by a recursive blocked scan
(see _blocked_scan): local prefix products inside blocks of SCAN_WIDTH
consecutive steps, the block totals scanned from the chunk's start value
by the same scan, then every block's local prefixes multiplied by its
offset.  The products are the algebra's, each over at least SCAN_WIDTH
blocks; fewer than 2 SCAN_WIDTH factors are chained instead, by one small
`@` of the expanded factor per step.  This reassociates the sequential
product M_k ... M_1 M_0 U.  For unitary factors both carry roundoff
bounded by order (factors) x eps, about 1e-11 for a production sweep.
Measured over every grid sample of the production nominal sweeps, the
scan and a step-by-step product of the same maps differ by 2.7e-14 to
4.1e-14 for the one-qubit gates (Cayley-Klein form) and by 2.0e-12 for
cphase, in max-norm, far below the 1e-10 unitarity budget.  Against a
long-double product, almost all of cphase's 2.0e-12 is a norm drift that
the step-by-step product (5.6e-14) does not have: near-identity partial
products round with a bias.  The scan is the same for both storage modes, which
only choose what is written: the grid samples, or the final propagator,
the last of them.  Both measure the unitarity defect of every chunk's
prefix products.  Strategy 2's nominal sweep, which needs samples at the
half steps, runs on twice the steps at one substep each: the same sample
times and substep size as the grid at two substeps.

Batches.  The generator builder (_generator_fun) always writes a batch of
scalar sweeps on one grid, each with or without the control modification;
only this module knows about batches.  The batch axis lies ahead of the
times, so a member's samples are a slab of the chunk's buffer, which one
scalar control.generator call writes in place.  propagate_finals
integrates a whole batch at once; a single sweep and a noisy segment are
batches of one that read member 0, a view with no batch axis, so
_integrate runs them with batch=().  Each member of a larger batch keeps
the rows, chunks and scan of a single sweep, so its final propagator is
that sweep's bit for bit, but for an ulp after a one-step chunk, where
numpy rounds the step maps' in-place complex products of a single sweep's
one-element arrays differently (the scan multiplies no stack that short).
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import control
from .lincore import (
    cayley_klein_defect,
    cayley_klein_expand,
    cayley_klein_matmul,
    component_major,
    entry_matmul,
    matrix_major,
    unitarity_defect,
)

DEFAULT_STEPS_1Q = 160_000
DEFAULT_STEPS_2Q = 120_000
DEFAULT_REFINE = 2          # internal substeps per grid step
UNITARITY_BUDGET = 1e-10
# Budget on the step-doubling estimate max|U(refine 2) - U(refine 1)| of a
# noisy propagation over its noisy segments; the reported refine-2 result is
# about 16 times more accurate than the estimate.  Edge-aligned segments
# measure up to 2.5e-10 at the production grids and 2.1e-8 at a quarter of
# the one-qubit grid; steps straddling the noise jumps gave errors of 1e-6 to
# 8e-6 at the production grids.
DOUBLING_BUDGET = 1e-6
# grid steps (or step nodes) sampled and scanned at once by _integrate
CHUNK = 4096
# Block width of the recursive scan over a chunk's step maps (_blocked_scan)
SCAN_WIDTH = 8


class AccuracyError(RuntimeError):
    """An integration accuracy check exceeded its budget.

    check names the failed check ("unitarity defect", "step-doubling error
    estimate" or noc's "Riccati energy balance"); value is what it measured.
    """

    def __init__(self, check: str, value: float, budget: float):
        super().__init__(
            f"{check} {value:.3e} exceeds budget {budget:.3e}; "
            "increase the step count"
        )
        self.check = check
        self.value = value
        self.budget = budget


def check_budget(check: str, value: float, budget: float) -> None:
    """Raise AccuracyError when value exceeds budget or is NaN, as an
    unstable (too coarse) step size makes it."""
    if not (value <= budget):
        raise AccuracyError(check, value, budget)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid tau_k = -tau0/2 + k h, k = 0..steps, h = tau0/steps."""

    tau0: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (np.isfinite(self.tau0) and self.tau0 > 0):
            raise ValueError("tau0 must be finite and positive")

    @property
    def tau_start(self) -> float:
        return -self.tau0 / 2.0

    @property
    def h(self) -> float:
        return self.tau0 / self.steps

    def points(self) -> np.ndarray:
        return self.tau_start + np.arange(self.steps + 1) * self.h


@dataclass(frozen=True)
class StepNodes:
    """Explicit step nodes taus[0] < taus[1] < ... < taus[steps].

    Unlike a TimeGrid's steps, these may be unequal, and the generator may
    jump at any node (see _integrate).
    """

    taus: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.taus) - 1

    @staticmethod
    def with_edges(points: np.ndarray, edges) -> "StepNodes":
        """The sorted points plus every edge clipped to their span.

        A clipped edge outside the span lands on the first or last point,
        and an edge on a point adds no node.
        """
        edges = np.clip(np.asarray(edges, dtype=float), points[0], points[-1])
        return StepNodes(np.union1d(points, edges))


@dataclass
class Trajectory:
    """Propagator samples U(tau, -tau0/2) at the steps + 1 points of a
    TimeGrid, in time order."""

    grid: TimeGrid
    unitaries: np.ndarray
    defect: float = field(default=0.0)

    def __post_init__(self):
        if len(self.unitaries) != self.grid.steps + 1:
            raise ValueError(
                f"a trajectory on {self.grid.steps} steps holds {self.grid.steps + 1} "
                f"samples, got {len(self.unitaries)}"
            )

    @property
    def final(self) -> np.ndarray:
        return self.unitaries[-1]


@dataclass(frozen=True)
class NoisyFinals:
    """Final propagators of a noise batch, shape (batch, n, n), with the
    steps integrated for each realization (its noisy segments' steps) and
    their two accuracy measures."""

    unitaries: np.ndarray
    steps: np.ndarray
    defect: float
    error_estimate: float


def noisy_segments(grid: TimeGrid, edges) -> np.ndarray:
    """Grid-index intervals [a, b] that hold a realization's pulses.

    edges are the 2 count pulse edges, left edges first (as
    NoiseRealization.edges() gives them).  Every pulse is clipped to the
    sweep and widened to the grid points around it, pts[a] <= left and
    pts[b] >= right, so a segment always contains its pulse, also when an
    edge lands on a grid point.  Overlapping or touching intervals are
    merged; a pulse outside the sweep clips to no interval.  Returns the
    sorted, disjoint segments, shape (segments, 2).
    """
    pts = grid.points()
    left, right = np.clip(np.reshape(edges, (2, -1)), pts[0], pts[-1])
    a = np.searchsorted(pts, left, side="right") - 1
    b = np.searchsorted(pts, right, side="left")
    keep = b > a
    order = np.argsort(a[keep], kind="stable")
    a, b = a[keep][order], np.maximum.accumulate(b[keep][order])
    # a segment starts at every interval that begins after all earlier ones
    # end, and ends at the interval before the next start
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] > b[:-1]
    return np.stack([a[first], b[np.roll(first, -1)]], axis=-1)


@dataclass(frozen=True)
class Algebra:
    """The product the integrator multiplies propagators with.

    An element is a component-major stack (n, k, *stack): the first k
    columns of n x n matrices, enough to fix them.  product multiplies two
    stacks (their stack axes broadcast), identity is the (n, k) element of
    I, expand writes the n x n matrices of a stack matrix-major to
    (*stack, n, n) (to out, when given), and defect is the max-norm of
    U†U - I over a stack.  completion returns the step map's modulus
    completion pbar^5/120 + pbar^6/720 + pbar^7/5760 of a contiguous stack
    pbar as a contiguous stack, written over pbar or fresh; pbar is scratch
    afterwards.
    """

    product: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity: np.ndarray
    expand: Callable[..., np.ndarray]
    defect: Callable[[np.ndarray], float]
    completion: Callable[[np.ndarray], np.ndarray]

    def unit(self, stack=()) -> np.ndarray:
        """The identity element broadcast over the stack axes."""
        i = self.identity
        return np.broadcast_to(i.reshape(i.shape + (1,) * len(stack)), (*i.shape, *stack))


def _expand_matrices(x, out=None):
    if out is None:
        return matrix_major(x)
    out[...] = matrix_major(x)
    return out


def _matrix_defect(x) -> float:
    return unitarity_defect(matrix_major(x))


def _matrix_completion(pbar):
    # p5 (pbar/720 + p2/5760 + I/120), four entry products
    p2 = entry_matmul(pbar, pbar)
    p5 = entry_matmul(entry_matmul(p2, p2), pbar)
    inner = pbar
    inner /= 720.0
    p2 /= 5760.0
    inner += p2
    n = len(pbar)
    inner += np.eye(n).reshape(n, n, *(1,) * (pbar.ndim - 2)) / 120.0
    return entry_matmul(p5, inner)


def matrix_algebra(n: int) -> Algebra:
    """Whole n x n matrices multiplied by entry arithmetic (entry_matmul)."""
    return Algebra(entry_matmul, np.eye(n), _expand_matrices, _matrix_defect,
                   _matrix_completion)


def _cayley_klein_completion(pbar):
    """The completion in closed form, by Cayley-Hamilton, written over pbar.

    Every 2x2 X satisfies X^2 = t X - d I (t = tr X, d = det X), so a
    polynomial c(X) equals r(X) = p X + q I, where r = p x + q is the
    remainder of c modulo x^2 - t x + d.  Horner's rule on the coefficients
    of c, highest degree first, gives it: (p, q) <- (p t + q, c_k - p d).
    For [[alpha, -conj(beta)], [beta, conj(alpha)]], t = 2 Re alpha and
    d = |alpha|^2 + |beta|^2 are real, so p and q are real vectors: about
    30 real vector operations in place of four products.  No trace
    condition is needed; for a generator i f.sigma, t is 0.
    """
    alpha, beta = pbar[:, 0]
    t, nd, p, q, tmp = np.empty((5, *alpha.shape))
    np.multiply(alpha.real, 2.0, out=t)
    np.multiply(alpha.real, alpha.real, out=nd)
    for x in (alpha.imag, beta.real, beta.imag):
        np.multiply(x, x, out=tmp)
        nd += tmp
    nd *= -1.0
    # c = x^7/5760 + x^6/720 + x^5/120: (p, q) is (0, 1/5760) after x^7
    # and (1/5760, 1/720) after x^6; then x^5
    np.multiply(t, 1 / 5760.0, out=p)
    p += 1 / 720.0
    np.multiply(nd, 1 / 5760.0, out=q)
    q += 1 / 120.0
    for _ in range(5):
        # x^4 .. x^0, whose coefficients are 0: the new q is -p d
        np.multiply(p, nd, out=tmp)
        p *= t
        p += q
        q, tmp = tmp, q
    # a real p keeps pbar in the span; q I adds to alpha's real part alone
    pbar *= p
    re = pbar[0, 0, ...].real
    re += q
    return pbar


# One-qubit generators i f.sigma, and so every step map and propagator, lie
# in the real span of I, i sigma_x, i sigma_y, i sigma_z: each is
# [[alpha, -conj(beta)], [beta, conj(alpha)]], fixed by its first column.
CAYLEY_KLEIN = Algebra(cayley_klein_matmul, np.eye(2, 1), cayley_klein_expand,
                       cayley_klein_defect, _cayley_klein_completion)


def step_maps(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray, dt,
              algebra: Algebra) -> np.ndarray:
    """One-step transfer matrices for U' = A(tau) U on a batch of steps.

    a1, a2, a3 are A evaluated at the step start, midpoint and end, as
    elements of the algebra seen matrix-major (shape (..., n, k); whole
    matrices, matrix_algebra(n), take (..., n, n)); the returned M
    satisfies U(tau+dt) = M U(tau).  dt is a scalar or a per-step array that
    broadcasts against the stack axes (...) of the inputs.  The products
    are formed by the algebra's product, entry by entry, and M is a
    component-major view; the inputs should be component-major views too
    (see component_major), or every entry is a strided gather.  The
    degree-5..7 completion is the algebra's own (Algebra.completion): four
    products on whole matrices, none in Cayley-Klein form.
    """
    x1, x2, x3 = (component_major(a) for a in (a1, a2, a3))
    mul = algebra.product
    eye = algebra.unit((1,) * (x1.ndim - 2))
    # Every line evaluates the formula in the comment above it, in place on
    # the fresh arrays the products return: a temporary per operation costs
    # as much as the operation on a chunk-sized stack.
    # k2 = x2 + (dt/2) x2 x1, k3 = x2 + (dt/2) x2 k2, k4 = x3 + dt x3 k3
    k2 = mul(x2, x1)
    k2 *= dt / 2.0
    k2 += x2
    k3 = mul(x2, k2)
    k3 *= dt / 2.0
    k3 += x2
    k4 = mul(x3, k3)
    k4 *= dt
    k4 += x3
    # m = (dt/6)(x1 + 2 k2 + 2 k3 + k4) + I
    m = k2
    m *= 2.0
    m += x1
    k3 *= 2.0
    m += k3
    m += k4
    m *= dt / 6.0
    m += eye
    # modulus completion: degree 5..7 powers of the Simpson-averaged
    # generator pbar = (x1 + 4 x2 + x3)(dt/6), by the algebra
    pbar = x2 * 4.0
    pbar += x1
    pbar += x3
    pbar *= dt / 6.0
    out = algebra.completion(pbar)
    out += m
    return matrix_major(out)


def _blocked_scan(x: np.ndarray, u: np.ndarray, algebra: Algebra) -> np.ndarray:
    """Ordered products of a stack x (n, k, *rest, C) of algebra elements.

    u is the start element (n, k, *rest).  Returns the prefix products
    p[..., k] = x_k ... x_0 u for every k, component-major (n, k, *rest, C).

    The C factors are split into blocks of SCAN_WIDTH consecutive factors,
    narrower when C < SCAN_WIDTH^2 so that there are at least SCAN_WIDTH
    blocks.  Each in-block position is one vectorized product across all
    blocks (local prefixes).  This same function scans the block totals
    from u, which gives every block its incoming offset, and every block's
    local prefixes are then multiplied by it at once.  Fewer than
    2 SCAN_WIDTH factors are chained onto u one at a time, by one batched
    `@` of the expanded factor per step, which beats a product call on a
    stack that short.  A chunk of C steps then takes about
    SCAN_WIDTH log(C) / log(SCAN_WIDTH) Python-level products instead of C.
    Every product runs over at least SCAN_WIDTH elements per member: numpy
    rounds a complex product of one-element operands differently, which
    would tie a batch member's bits to the batch.  Each result is a
    reassociation of the sequential product, so for unitary factors it
    differs from it by roundoff of order C eps.
    """
    n, k, *rest, c = x.shape
    if c < 2 * SCAN_WIDTH:
        factors = algebra.expand(x)
        p = np.empty((*rest, c, n, k), dtype=complex)
        v = matrix_major(u)
        for b in range(c):
            v = np.matmul(factors[..., b, :, :], v, out=p[..., b, :, :])
        return component_major(p)
    width = min(SCAN_WIDTH, c // SCAN_WIDTH)
    blocks = -(-c // width)
    pad = blocks * width - c
    if pad:
        # identity factors multiply exactly
        x = np.concatenate([x, algebra.unit((*rest, pad))], axis=-1)
    # y[:, :, j, ..., b] = factor b*width + j: every in-block position is
    # one contiguous slab across the rest axes and the blocks
    y = np.ascontiguousarray(np.moveaxis(x.reshape(n, k, *rest, blocks, width), -1, 2))
    for j in range(1, width):
        y[:, :, j] = algebra.product(y[:, :, j], y[:, :, j - 1])
    # block b's offset is totals b-1 .. 0 on u
    offsets = _blocked_scan(y[:, :, width - 1, ..., :-1], u, algebra)
    offsets = np.concatenate([u[..., None], offsets], axis=-1)
    p = algebra.product(y, offsets[:, :, None])
    return np.moveaxis(p, 2, -1).reshape(n, k, *rest, blocks * width)[..., :c]


def _sample_rows(afun, grid, c0: int, cs: int, refine: int):
    """Sample rows of steps c0 .. c0 + cs - 1 (see _integrate), and their
    step sizes, a scalar or one per step along the rows' trailing axis.

    afun receives a (rows, steps) time array, row j at j/(2 refine) of the
    way through every step, and the first step's grid index c0 on a
    TimeGrid (None on StepNodes).  A TimeGrid's steps share their end
    samples: its 2 refine rows span cs + 1 steps, and the end row is row 0
    shifted by one step.  StepNodes sample their own end row, row 2 refine.
    """
    nodes = isinstance(grid, StepNodes)
    if nodes:
        t = grid.taus[c0:c0 + cs + 1]
        dt = np.diff(t)
        taus = t[:-1] + np.arange(2 * refine + 1)[:, None] / (2 * refine) * dt
    else:
        s = np.arange(cs + 1) * (2 * refine) + np.arange(2 * refine)[:, None]
        taus = grid.tau_start + c0 * grid.h + s * (grid.h / refine / 2.0)
    x = np.ascontiguousarray(component_major(afun(taus, None if nodes else c0)))
    rows = [x[..., j, :cs] for j in range(2 * refine)]
    if nodes:
        return [*rows, x[..., 2 * refine, :]], dt
    return [*rows, x[..., 0, 1:]], grid.h


def _step_map(rows, dt, refine: int, r: int, algebra: Algebra):
    """The map of every step, the product of its r substep maps (r divides
    refine), component-major (n, k, *batch, steps).

    Substep i reads rows 2wi, 2wi + w and 2w(i + 1), w = refine / r, as its
    start, midpoint and end: a coarser level reads every w-th row.
    """
    w = refine // r
    maps = (component_major(step_maps(matrix_major(rows[2 * w * i]),
                                      matrix_major(rows[2 * w * i + w]),
                                      matrix_major(rows[2 * w * (i + 1)]), dt / r,
                                      algebra))
            for i in range(r))
    return functools.reduce(lambda g, s: algebra.product(s, g), maps)


def _integrate(afun, grid, dim: int, batch=(), refine=DEFAULT_REFINE,
               store: str = "grid"):
    """Core fixed-step integrator for U' = A(tau) U, U(tau_start) = I.

    grid gives the step nodes: a TimeGrid or StepNodes.  Every step is split
    into `refine` equal substeps.

    A chunk of CHUNK steps (fewer in the last one) is sampled by
    _sample_rows: afun(taus, c0) receives a (rows, steps) time array, row j
    at j/(2 refine) of the way through every step, so row `refine` is the
    step midpoint for both kinds of nodes, and the grid index c0 of the
    chunk's first step on a TimeGrid (None on StepNodes); it returns A with
    shape (*batch, *taus.shape, dim, dim), a matrix-major view of
    component-major memory (see Memory layout).
    Every step's map is the product of its substep maps, and a blocked scan
    over the chunk's step maps gives the propagator at every node; this
    path is the same for both storage modes, which only choose what is
    written.

    The maps and products are those of the algebra for dim: Cayley-Klein
    first columns for 2x2, whole matrices for 4x4.  So a 2x2 A must lie in
    the real span of I, i sigma_x, i sigma_y, i sigma_z, as every one-qubit
    generator i f.sigma does: only its first column is read.  They are
    expanded to dim x dim matrices only where they are written, so the
    samples and U_final are complex (..., dim, dim) arrays either way.  The
    returned defect is the max-norm of U†U - I at every node, over the
    batch and (on StepNodes) of the refine level, measured per chunk on the
    algebra's elements in both storage modes.

    store is "grid" (samples (*batch, steps + 1, dim, dim) at the nodes) or
    "final".  StepNodes allow only "final", at an even refine: the same rows
    are integrated at refine // 2 and at refine, and U_final has shape
    (2, *batch, dim, dim), in that order.  Returns (samples | None, U_final,
    defect).
    """
    if store not in ("grid", "final"):
        raise ValueError(f"store must be 'grid' or 'final', got {store!r}")
    nodes = isinstance(grid, StepNodes)
    if nodes and (store != "final" or refine % 2):
        raise ValueError("step nodes integrate final propagators at an even refine")
    # an unstable coarse grid overflows to inf and NaN; the defect check of
    # every caller turns those into an AccuracyError, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        # step nodes carry their two levels along a leading axis of u
        levels, lead = ((refine // 2, refine), (2,)) if nodes else ((refine,), ())
        algebra = CAYLEY_KLEIN if dim == 2 else matrix_algebra(dim)
        k = algebra.identity.shape[1]
        steps = grid.steps
        u = algebra.unit((*lead, *batch))
        out = None
        defects = []
        if store == "grid":
            out = np.empty((*batch, steps + 1, dim, dim), dtype=complex)
            algebra.expand(u, out[..., 0, :, :])
        for c0 in range(0, steps, CHUNK):
            cs = min(CHUNK, steps - c0)
            rows, dt = _sample_rows(afun, grid, c0, cs, refine)
            rows = [x[:, :k] for x in rows]
            m = [_step_map(rows, dt, refine, r, algebra) for r in levels]
            p = _blocked_scan(np.stack(m, axis=2) if lead else m[0], u, algebra)
            if out is not None:
                algebra.expand(p, out[..., c0 + 1:c0 + cs + 1, :, :])
            # the defect of the level a noisy run reports, refine, on StepNodes
            defects.append(algebra.defect(p[:, :, -1] if lead else p))
            u = p[..., -1]
        return out, algebra.expand(u), float(np.max(defects))


def _control_fun(grid: TimeGrid, delta_f):
    """delta_f (grid samples, shape (steps + 1, 3)) linearly interpolated to
    the sampler's times: a function (taus, c0) -> (*taus.shape, 3), a view
    of component-major memory.

    On a chunk of grid steps from c0, row j of the (rows, steps) time array
    lies j/rows of the way through step c0 + s, so there delta_f is
    f[c0 + s] + (j/rows)(f[c0 + s + 1] - f[c0 + s]): fixed row weights on
    contiguous slices of the samples, with no search.  The last chunk's end
    column has no next sample; it takes weight 0, and its rows j > 0 are
    never read.  StepNodes (c0 None) need not lie on grid steps, so there
    np.interp takes the general path, on the grid points from the last one
    at or before the first requested time to the first one after the last
    (one searchsorted): the brackets np.interp finds, and so its values,
    are those of the whole grid.
    """
    delta_f = np.asarray(delta_f, dtype=float)
    if delta_f.shape != (grid.steps + 1, 3):
        raise ValueError(
            f"delta_f must have shape ({grid.steps + 1}, 3), got {delta_f.shape}"
        )
    points = None       # the grid points, for np.interp on StepNodes

    def interpolate(taus, c0):
        nonlocal points
        if c0 is None:
            if points is None:
                points = grid.points()
            # taus[0, 0] is the first step's start, taus[-1, -1] the last one's end
            lo, hi = np.searchsorted(points, (taus[0, 0], taus[-1, -1]), side="right")
            span = slice(max(lo - 1, 0), hi + 1)
            comps = np.stack([np.interp(taus, points[span], delta_f[span, j])
                              for j in range(3)])
        else:
            rows, cols = taus.shape
            lo = delta_f[c0:c0 + cols]
            hi = delta_f[c0 + 1:c0 + cols + 1]
            diff = np.zeros_like(lo)
            np.subtract(hi, lo[:len(hi)], out=diff[:len(hi)])
            comps = diff.T[:, None, :] * (np.arange(rows) / rows)[:, None]
            comps += lo.T[:, None, :]
        return np.moveaxis(comps, 0, -1)

    return interpolate


def _generator_fun(grid: TimeGrid, members, delta_f=None, noise=None):
    """The afun of _integrate for a batch of sweeps on one grid: A(tau) of
    every member, shape (len(members), *taus.shape, n, n), a matrix-major
    view of component-major memory, so _integrate copies nothing.

    members is a list of (p, controlled) pairs: sweep parameters of one
    system size, and whether the control modification delta_f (grid
    samples, shape (steps + 1, 3), interpolated once per chunk by
    _control_fun) enters; with delta_f None, none does.  Member 0 of the
    result, afun(taus, c0)[0], is one sweep's generator (see Batches).

    noise, one noise realization, is added to every member's twist phase,
    held at its value at the step midpoint, the middle row of the time
    array, throughout the step (meant for StepNodes, where the noise is
    constant inside every step).
    """
    interpolate = None if delta_f is None else _control_fun(grid, delta_f)
    n = members[0][0].dim

    def afun(taus, c0):
        dfi = None if interpolate is None else interpolate(taus, c0)
        offset = 0.0 if noise is None else noise.evaluate(taus[len(taus) // 2])
        out = np.empty((n, n, len(members), *taus.shape), dtype=complex)
        for b, (p, controlled) in enumerate(members):
            control.generator(taus, p, dfi if controlled else None, offset,
                              out[:, :, b])
        return matrix_major(out)

    return afun


def propagate_sweep(p, grid: TimeGrid, delta_f=None, *,
                    refine: int = DEFAULT_REFINE) -> Trajectory:
    """Integrate i U' = H(tau) U over the sweep, storing the grid samples.

    H is the nominal sweep Hamiltonian, plus the control modification when
    delta_f is given: the three real field-modification components at the
    grid points, linearly interpolated to the substep sample times by fixed
    row weights (see _control_fun).  refine is the number of substeps per
    grid step.  Raises AccuracyError when the unitarity defect exceeds
    UNITARITY_BUDGET.
    """
    afun = _generator_fun(grid, [(p, True)], delta_f)
    out, _, defect = _integrate(lambda taus, c0: afun(taus, c0)[0], grid, p.dim,
                                refine=refine)
    check_budget("unitarity defect", defect, UNITARITY_BUDGET)
    return Trajectory(grid, out, defect=defect)


def propagate_finals(members, grid: TimeGrid, delta_f) -> np.ndarray:
    """Final propagators (len(members), n, n) of a batch of sweeps on one
    grid, in one integration.

    members is a list of (p, controlled) pairs: sweep parameters of one
    system size, and whether the control modification delta_f (grid
    samples, shape (steps + 1, 3)) enters.  Member (p, True) has the final
    of propagate_sweep(p, grid, delta_f) bit for bit, and (p, False) that
    of propagate_sweep(p, grid) (see Batches above).  The defect is
    checked at every grid point of every member: AccuracyError when it
    exceeds UNITARITY_BUDGET.
    """
    _, finals, defect = _integrate(_generator_fun(grid, members, delta_f), grid,
                                   members[0][0].dim, batch=(len(members),),
                                   store="final")
    check_budget("unitarity defect", defect, UNITARITY_BUDGET)
    return finals


def _noisy_composite(p, improved: Trajectory, delta_f, noise):
    """One realization's final propagator at DEFAULT_REFINE // 2 and
    DEFAULT_REFINE, shape (2, n, n), the steps of its noisy segments, and
    the largest unitarity defect of the segments' DEFAULT_REFINE-level
    propagators at every node.

    Each segment is integrated from I on StepNodes (the segment's grid
    points plus the realization's clipped edges inside it), and each quiet
    stretch between segments is one factor of the improved trajectory
    (_quiet_factor); both levels share the quiet factors.
    """
    grid = improved.grid
    pts, u_imp, edges = grid.points(), improved.unitaries, noise.edges()
    afun = _generator_fun(grid, [(p, True)], delta_f, noise)
    u = np.broadcast_to(np.eye(p.dim, dtype=complex), (2, p.dim, p.dim))
    steps, prev, defects = 0, 0, [0.0]
    for a, b in noisy_segments(grid, edges):
        nodes = StepNodes.with_edges(pts[a:b + 1], edges)
        _, seg, defect = _integrate(lambda taus, c0: afun(taus, c0)[0], nodes, p.dim,
                                    refine=DEFAULT_REFINE, store="final")
        u = seg @ (_quiet_factor(u_imp, prev, a) @ u)
        steps += nodes.steps
        defects.append(defect)
        prev = b
    return _quiet_factor(u_imp, prev, -1) @ u, steps, float(np.max(defects))


def _quiet_factor(u: np.ndarray, i: int, j: int) -> np.ndarray:
    """The propagator u[j] u[i]^-1 from sample i to sample j, by an exact
    solve: u[j] u[i]^dagger would add sample i's unitarity defect to the
    product (at the production cphase grid, composite defects of 9.5e-10
    to 1.2e-9, over the 1e-10 budget, against 1.9e-11 with the solve)."""
    return np.linalg.solve(u[i].T, u[j].T).T


def propagate_modified_batch(p, improved: Trajectory, delta_f, noises) -> NoisyFinals:
    """Final propagators for a batch of noise realizations sharing one delta_f.

    Used by the jitter ensemble, where only the final gate is needed.
    improved is the grid-stored trajectory of the sweep with delta_f and
    without noise (propagate_sweep(p, grid, delta_f)); its grid is the
    grid of the noisy runs.  Each realization is integrated only over its
    noisy segments (noisy_segments), on the grid points plus its pulse
    edges, so the noise is constant inside each step and is evaluated once
    per step, at its midpoint; the quiet stretches between segments are
    factors of the improved trajectory.  The segments are integrated at
    refine 1 and refine 2 from one set of generator samples; the refine-2
    composites are returned, and max|U_2 - U_1| over the batch is their
    step-doubling error estimate, which covers the noisy segments (the
    quiet steps are the improved sweep's own).  A realization without
    pulses returns the improved final propagator, with estimate 0.
    The defect is the largest of the refine-2 composites' and of their
    noisy segments' at every node.  Raises AccuracyError when the estimate
    exceeds DOUBLING_BUDGET or the defect exceeds UNITARITY_BUDGET.
    """
    runs = [_noisy_composite(p, improved, delta_f, nz) for nz in noises]
    coarse, fine = np.stack([u for u, _, _ in runs], axis=1)
    defect = float(np.max([unitarity_defect(fine), *(d for _, _, d in runs)]))
    estimate = float(np.abs(fine - coarse).max())
    check_budget("unitarity defect", defect, UNITARITY_BUDGET)
    check_budget("step-doubling error estimate", estimate, DOUBLING_BUDGET)
    return NoisyFinals(fine, np.array([steps for _, steps, _ in runs]), defect, estimate)


# Simpson weights of a feedback step's three drive samples: D = diag(1, 4, 1) x I3
_SIMPSON = np.repeat([1.0, 4.0, 1.0], 3)


def feedback_maps(g_half: np.ndarray, h: float) -> np.ndarray:
    """One-step maps of the feedback equation dy/dtau = -G G† y.

    g_half holds G at the nodes and midpoints of consecutive steps of size
    h, shape (2 steps + 1, N, 3).  Step k's map is step_maps' map for the
    samples B = -G G† at its start, midpoint and end.  B has rank 3, so the
    map is exactly M = I + W C W† with W = [G(tau) | G(tau+h/2) | G(tau+h)]
    (N x 9), and the 9x9 core C follows from the Gram matrix K = W† W:

    - with a1 = W X1 W†, X1 = -E1 (E_i selects column block i), each
      Runge-Kutta stage is W X W† with X one 3-row block: a_i Y is row
      block i of -K X_Y, a 3x3 times 3x9 product;
    - pbar = -c W D W†, c = h/6, so pbar^j = (-c)^j W D L^(j-1) W† with
      L = K D, and the degree-5..7 completion is
      W D L^4 (-c^5/120 + c^6/720 L - c^7/5760 L^2) W†.

    Returns (steps, N, N), real for real samples and complex for complex
    ones.  Measured against the batched-`@` form on the production cphase
    drive samples (|M - I| about 2e-3), the two agree to 1.1e-16 in
    max-norm.
    """
    w = np.concatenate([g_half[0:-1:2], g_half[1::2], g_half[2::2]], axis=-1)
    # conj() is a no-op on real samples
    wh = np.swapaxes(w, -1, -2).conj()
    k = wh @ w
    steps = len(k)
    c = h / 6.0
    eye3 = np.eye(3)
    # stage row blocks: a1, k2 = a2 + (h/2) a2 a1, k3 = a2 + (h/2) a2 k2,
    # k4 = a3 + h a3 k3
    x1 = np.zeros((steps, 3, 9), dtype=k.dtype)
    x1[:, :, 0:3] = -eye3
    x2 = (-h / 2.0) * (k[:, 3:6, 0:3] @ x1)
    x2[:, :, 3:6] -= eye3
    x3 = (-h / 2.0) * (k[:, 3:6, 3:6] @ x2)
    x3[:, :, 3:6] -= eye3
    x4 = -h * (k[:, 6:9, 3:6] @ x3)
    x4[:, :, 6:9] -= eye3
    core = np.empty((steps, 9, 9), dtype=k.dtype)
    core[:, 0:3] = c * x1
    core[:, 3:6] = (2.0 * c) * (x2 + x3)
    core[:, 6:9] = c * x4
    # modulus completion, with L = K D formed in place of K
    l1 = np.multiply(k, _SIMPSON, out=k)
    l2 = l1 @ l1
    poly = (c**6 / 720.0) * l1 - (c**7 / 5760.0) * l2
    poly.reshape(steps, 81)[:, ::10] -= c**5 / 120.0
    core += _SIMPSON[:, None] * ((l2 @ l2) @ poly)
    m = (w @ core) @ wh
    n = w.shape[1]
    m.reshape(steps, n * n)[:, ::n + 1] += 1.0
    return m


def integrate_delta_y(g_half: np.ndarray, y0: np.ndarray, h: float) -> np.ndarray:
    """Integrate the feedback state equation dy/dtau = -G G† y from y0.

    g_half holds the drive matrix at the nodes and midpoints of consecutive
    steps of size h, shape (2 steps + 1, N, 3), and y0 (length N) is y at
    the first node.  The steps use the rank-3 maps of feedback_maps, the
    one-step scheme of the propagators in vector form.  Returns y at the
    steps + 1 nodes, shape (steps + 1, N), starting with y0; it is real
    when the samples and y0 are (Pauli coordinates, noc.strategy2_solve)
    and complex otherwise.
    """
    g_half = np.asarray(g_half)
    y = np.asarray(y0)
    if (y.ndim != 1 or g_half.ndim != 3 or g_half.shape[0] < 3
            or g_half.shape[0] % 2 == 0 or g_half.shape[1:] != (len(y), 3)):
        raise ValueError(
            f"drive samples of shape {g_half.shape} do not hold 2 steps + 1 "
            f"samples (steps >= 1) of an (N, 3) drive matrix for y0 of shape {y.shape}"
        )
    m = feedback_maps(g_half, h)
    out = np.empty((len(m) + 1, len(y)), dtype=np.result_type(m, y))
    out[0] = y
    # one matrix-vector product per step, written in place
    for m_k, y_k, y_next in zip(m, out, out[1:]):
        np.dot(m_k, y_k, out=y_next)
    return out
