"""Fixed-step time-ordered integration of the sweep propagators and of the
feedback state equation over [-tau0/2, +tau0/2].

Two step rules share one integrator (_integrate).  The Runge-Kutta map is
the classical fourth-order Runge-Kutta transfer matrix completed with the
degree-5..7 powers of the Simpson-averaged generator.  The completion
leaves the fourth-order accuracy untouched (it only adds O(h^5) terms) but
extends the stability polynomial of the map so that its modulus on the
imaginary axis is 1 + O(z^10).  At production step sizes the unitarity
defect of the propagator then stays near roundoff without any
re-unitarization, so integration error remains a measurable diagnostic.
It serves the nominal sweeps (propagate_sweep), whose drive samples need
every grid point and whose defect check rejects a grid too coarse for the
pipeline, and the noisy segments.  The sixth-order Magnus map
(magnus_maps) serves propagate_finals, on up to a quarter of the grid's
steps: the final-only batches of the sensitivity rows, and the improved
sweep, stored at its own nodes.  It samples A at the three Gauss nodes of
a step and takes one exponential, in closed form for one qubit (exactly
unitary) and by a Taylor polynomial.

Step nodes.  One integrator (_integrate) steps over an array of nodes, on
one path for every kind of node, rule and storage mode.  One sampler
(_sample_rows) hands the generator a (rows, steps) time array at the rule's
fractions of every step of a chunk: the Runge-Kutta row j at j/(2 refine),
so row `refine` is the step midpoint, and the Magnus rows at the Gauss
nodes of every substep.  A TimeGrid's steps share their end samples, so
there the Runge-Kutta end row is row 0 shifted by one step.  On a TimeGrid
the sampler also hands over where the rows lie (ChunkRows: the chunk's
first step and the rows' fractions of a step), so the control modification,
a Catmull-Rom cubic of its grid samples (_control_fun), takes fixed row
weights on contiguous slices of the samples, with no search; the Magnus
rows, on a grid of 1/m of the steps, take fixed weights on m-strided
slices.  Noisy propagation steps over StepNodes, the grid points plus the
pulse edges of a realization clipped to the sweep.  The phase noise is
piecewise constant, so on those nodes it is constant inside every step; the
generator builder (_generator_fun) evaluates it once per step, at the
midpoint row, and each step samples its own end row (row 2 refine) because
the generator may jump at a node.  The fourth-order rate, which a step
straddling a jump loses, is then kept.  These nodes are not grid steps, so
the same cubic finds their grid steps by floor and gathers its samples
there.

Control interpolant.  The cubic's slopes are central differences of the
samples, and one-sided second-order differences at the ends (from a
quadratic ghost sample), so it is C^1 and fourth-order accurate.  On the
hadamard improved final the pipeline's observed order is 4.0 (errors
1.4e-9, 9.0e-11 and 5.5e-12 from 40k to 320k steps), where a linear
interpolant read 2.0; the Magnus rule keeps its order only on a C^1
control.

Noisy segments.  Shot noise is a set of short pulses, and outside them the
noisy generator is the improved sweep's own.  So a realization is
integrated only over its noisy segments: every pulse, clipped to the
sweep, widened to the grid points around it, overlapping or touching
intervals merged (noisy_segments).  The improved trajectory holds the
nodes of its Magnus grid, every m-th point of the control's grid, so the
segments are widened to those nodes.  Each segment is integrated from I on
StepNodes, the control grid's points of the segment plus the realization's
edges inside it.  Every quiet stretch between segments is one factor
Q = U(t_a) U(t_prev)^-1 of the stored improved trajectory, two of its node
samples, taken by an exact solve rather than with the adjoint, which would
carry each sample's unitarity defect into the product.  The final
propagator is the composite Q_M S_M ... Q_1 S_1 Q_0.

Error estimate.  The unitarity defect does not track accuracy at noise
jumps, so every noisy segment is also a step-doubling pair: the same
samples are integrated at refine 2 (reported) and at refine 1, and both
composites share the quiet factors.  max|U_2 - U_1| is then the error
estimate of the refine-1 steps where the noisy generator differs from the
improved one, and it bounds the reported refine-2 error there (about 1/16
of it at fourth order).  The quiet steps are the improved sweep's own
Magnus steps (see Magnus accuracy); the defects of the composite and of
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
  su(2), and products and real combinations keep the real span of I and
  su(2), so every step map, prefix product and propagator is exactly
  [[alpha, -conj(beta)], [beta, conj(alpha)]] and is fixed by its first
  column (alpha, beta), the generator's entries [0, 0] and [1, 0].  The
  product (lincore.cayley_klein_matmul) takes 4 complex multiplies where
  entry arithmetic takes 8, and the unitarity defect is
  max | |alpha|^2 + |beta|^2 - 1 |.  The completion takes no product: a
  generator X of su(2) squares to -det X I, so every power of it is a
  real multiple of X or I, and a step map takes the three products of its
  Runge-Kutta stages.

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
the caller can stream the samples chunk by chunk and keep no state history
(noc.strategy2_solve).
Both follow the dtype of their input on one code path.  Strategy 2 passes
real arrays: G and y in the orthonormal basis P_a/2 of the two-qubit Pauli
products (lincore.pauli_coordinates), a unitary change of basis in which
every Hermitian column is real, so the maps are real 16x16 matrices.

Product order.  Every step map reaches the product as its offset X = M - I
from the identity, for both rules: step_maps and magnus_maps return
offsets, and a step's map, the product of its substep maps, is composed as
offsets, (I + S)(I + G) - I = S + G + S G (_compose).  Within a chunk the
step maps are multiplied by a recursive blocked scan (see _blocked_scan):
local prefix products inside blocks of SCAN_WIDTH consecutive steps,
composed as offsets too, the block totals scanned from the chunk's start
value by the same scan, then every block's local prefixes multiplied by its
offset, a whole element.  This reassociates the sequential product M_k ...
M_1 M_0 U, with roundoff of order (factors) x eps.  A partial product of
near-identity maps rounds relative to its small offset, not to 1, so its
rounding has no bias in the norm, which whole maps I + X had.  Over every
grid sample of the production nominal sweeps (hadamard at 160,000 steps,
cphase at Strategy 2's 240,000 steps of one substep) the scan errs by
4.0e-15 and 1.3e-14 against a long-double product of the same offsets (a
step-by-step product by 2.2e-14), and the defects read 1.5e-14 and 3.3e-13,
where whole maps read 2.6e-12 and 1.9e-11.  Against a 240,000-step Magnus
reference the cphase nominal final errs by 6.1e-12 (1.1e-11 with whole
maps), its Runge-Kutta truncation.  The scan is the same for both storage
modes, which only choose what is written: the grid samples, or the final
propagator, the last of them.  Both measure the unitarity defect of every
chunk's prefix products.  Strategy 2's nominal sweep, which needs samples at
the half steps, runs on twice the steps at one substep each: the same
sample times and substep size as the grid at two substeps.

Batches.  The generator builder (_generator_fun) always writes a batch of
scalar sweeps on one grid, each with or without the control modification;
only this module knows about batches.  The batch axis lies ahead of the
times, so a member's samples are a slab of the chunk's buffer, which one
scalar control.generator call writes in place.  propagate_finals
integrates a whole batch at once, by the Magnus rule; a single sweep and a
noisy segment are batches of one that read member 0, a view with no batch
axis, so _integrate runs them with batch=().  A member's Magnus maps
depend on its own samples alone (the 4x4 exponential scales each matrix by
its own norm), so its final propagator is that of a one-member batch bit
for bit.

Magnus accuracy.  The Magnus batches run on TimeGrid(tau0, N/m) and
read the cubic of the N-point control samples, where m is the largest of
4, 3 and 2 that divides N and keeps the Magnus step m tau0 / N within the
production grids' 4e-3, else 1 (_magnus_coarsening).  So the production
grids take m = 4, a grid whose own steps are as long takes m = 1, and
every Magnus step straddles the cubic's knots at the same fractions.
Against four Magnus substeps per step on the same cubic, at the production
grids the hadamard/eta4 rows err by 8.8e-12 to 1.0e-11 and the cphase/d1
rows by 9.3e-12 (without the control) and 7.7e-11 (with it), each within
2.7 times its step-halving estimate |U(N/m) - U(N/2m)| / 63; on the
40,000-step one-qubit grid of the CLI examples (m = 1) the lam and eta4
rows err by 8.7e-12 to 1.0e-11.  The improved sweeps err by 9.0e-12
(hadamard) and 7.7e-11 (cphase), 1.0 and 2.7 times their estimates, where
Runge-Kutta steps at refine 2 on the whole grid erred by 1.1e-11 and
2.0e-11 at four times the cost.  The one-qubit maps are unitary to
roundoff at any step, and the defects read 1.4e-14 (hadamard/eta4) and
3.4e-14 (cphase/d1) for the batches, 1.3e-14 and 2.0e-14 for the improved
sweeps.
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
# Gauss-Legendre nodes of a Magnus step, as fractions of the step
GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * (np.sqrt(15.0) / 10.0)
# Magnus steps per unit tau at least, in propagate_finals: the production
# grids' Magnus step, 4 of their grid steps, is 4e-3
MAGNUS_STEPS_PER_TAU = 250
# The 4x4 exponential of a Magnus step: a Taylor polynomial of this degree,
# whose truncation, at most x^11/11! (1 + x) for an argument of 1-norm x, is
# below 1e-16 (8.7e-17) up to x = TAYLOR_NORM; larger arguments are scaled
# down by powers of 2 and the result squared back.  The production cphase
# grid's Magnus steps reach x = 0.1501, so none is scaled.
TAYLOR_DEGREE = 10
TAYLOR_NORM = 0.17


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


@dataclass(frozen=True)
class ChunkRows:
    """Where the rows of a TimeGrid chunk's (rows, steps) time array lie:
    row j at the fraction fractions[j], in [0, 1), of each of the steps
    c0, c0 + 1, ... of grid."""

    grid: TimeGrid
    c0: int
    fractions: np.ndarray


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

    edges are the 2 count pulse edges, left edges first, of pulses in
    ascending order of their left edges (as NoiseRealization.edges() gives
    them).  Every pulse is clipped to the sweep and widened to the grid
    points around it, pts[a] <= left and pts[b] >= right, so a segment
    always contains its pulse, also when an edge lands on a grid point.
    Overlapping or touching intervals are merged; a pulse outside the sweep
    clips to no interval.  Returns the sorted, disjoint segments, shape
    (segments, 2).
    """
    pts = grid.points()
    left, right = np.clip(np.reshape(edges, (2, -1)), pts[0], pts[-1])
    if np.any(np.diff(left) < 0):
        raise ValueError("pulses must be in ascending order of their left edges")
    # ordered left edges give ordered interval starts
    a = np.searchsorted(pts, left, side="right") - 1
    b = np.searchsorted(pts, right, side="left")
    keep = b > a
    a, b = a[keep], np.maximum.accumulate(b[keep])
    # a segment starts at every interval that begins after all earlier ones
    # end, and ends at the interval before the next start
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] > b[:-1]
    return np.stack([a[first], b[np.roll(first, -1)]], axis=-1)


@dataclass(frozen=True)
class Algebra:
    """The product the integrator multiplies propagators with.

    An element is a component-major stack (n, k, *stack): the first k
    columns of n x n matrices, enough to fix them.  A step map is held as its
    offset X = M - I, an element too (I lies in the algebra's span), and
    propagators as whole elements (see Product order).  product multiplies two
    stacks (their stack axes broadcast), identity is the (n, k) element of
    I, expand writes the n x n matrices of a stack matrix-major to
    (*stack, n, n) (to out, when given), and defect is the max-norm of
    U†U - I over a stack.  completion returns the step map's modulus
    completion pbar^5/120 + pbar^6/720 + pbar^7/5760 of a contiguous stack
    pbar of generators as a contiguous stack, written over pbar or fresh;
    pbar is scratch afterwards.

    The Magnus step (magnus_maps) works on stacks of generators as elements:
    commutator forms [a, b], and expm1 takes a stack to the elements
    exp(a) - I, the maps' offsets from the identity.
    """

    product: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity: np.ndarray
    expand: Callable[..., np.ndarray]
    defect: Callable[[np.ndarray], float]
    completion: Callable[[np.ndarray], np.ndarray]
    commutator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    expm1: Callable[[np.ndarray], np.ndarray]

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


def _matrix_commutator(a, b):
    out = entry_matmul(a, b)
    out -= entry_matmul(b, a)
    return out


def _matrix_expm1(omega):
    """exp - I of a component-major stack (n, n, *stack): the
    degree-TAYLOR_DEGREE Taylor polynomial by Horner's rule,
    omega (I + omega/2 (I + omega/3 (...))), with no I added.

    Every matrix whose 1-norm exceeds TAYLOR_NORM is scaled by 2^-s to
    within it, and its polynomial squared s times, as offsets:
    (I + X)^2 - I = 2 X + X^2; at the production Magnus steps no matrix is.
    So each matrix's exponential depends on it alone, not on the stack it
    came in.  A non-finite matrix takes s = 0, and its NaN reaches the
    caller's defect check.
    """
    norm = np.abs(omega).sum(axis=0).max(axis=0)
    s = np.zeros(norm.shape, dtype=int)
    big = np.isfinite(norm) & (norm > TAYLOR_NORM)
    if big.any():
        s[big] = np.ceil(np.log2(norm[big] / TAYLOR_NORM))
        omega = omega * np.ldexp(1.0, -s)
    diagonal = range(len(omega))
    p = omega / TAYLOR_DEGREE
    for d in range(TAYLOR_DEGREE - 1, 0, -1):
        for i in diagonal:
            p[i, i] += 1.0
        p = entry_matmul(omega, p)
        p /= d
    for r in range(s.max(initial=0)):
        q = p[:, :, s > r]
        square = entry_matmul(q, q)
        square += 2.0 * q
        p[:, :, s > r] = square
    return p


def matrix_algebra(n: int) -> Algebra:
    """Whole n x n matrices multiplied by entry arithmetic (entry_matmul).

    A commutator takes two products, and the exponential is _matrix_expm1's
    Taylor polynomial.
    """
    return Algebra(entry_matmul, np.eye(n), _expand_matrices, _matrix_defect,
                   _matrix_completion, _matrix_commutator, _matrix_expm1)


def _cayley_klein_completion(pbar):
    """The completion in closed form, written over pbar.

    A generator X of su(2), first column (alpha, beta) with alpha imaginary,
    squares to -d I, d = |alpha|^2 + |beta|^2, so the completion is
    p X + q I with the real p = d^2/120 - d^3/5760 and q = -d^3/720: about
    15 real vector operations in place of four products.
    """
    alpha, beta = pbar[:, 0]
    d, p, q = np.empty((3, *alpha.shape))
    np.multiply(alpha.imag, alpha.imag, out=d)
    for x in (beta.real, beta.imag):
        np.multiply(x, x, out=p)
        d += p
    np.multiply(d, -1 / 5760.0, out=p)
    p += 1 / 120.0
    np.multiply(d, -1 / 720.0, out=q)
    for y in (p, q):
        y *= d
        y *= d
    # a real p keeps pbar in the span; q I adds to alpha's real part alone
    pbar *= p
    re = pbar[0, 0, ...].real
    re += q
    return pbar


def _su2_commutator(a, b):
    """[a, b] of su(2) generators with first columns (i p, beta): its alpha
    is 2 i Im(beta_a conj(beta_b)) and its beta 2 i (p_b beta_a - p_a beta_b)."""
    (pa, beta_a), (pb, beta_b) = ((x[0, 0, ...].imag, x[1, 0, ...]) for x in (a, b))
    out = np.empty((2, 1, *np.broadcast_shapes(pa.shape, pb.shape)), dtype=complex)
    alpha, beta = out[0, 0, ...], out[1, 0, ...]
    alpha.real = 0.0
    for target, (x, y, z, t) in (
            (alpha.imag, (beta_a.imag, beta_b.real, beta_a.real, beta_b.imag)),
            (beta.real, (pa, beta_b.imag, beta_a.imag, pb)),
            (beta.imag, (beta_a.real, pb, pa, beta_b.real))):
        np.multiply(x, y, out=target)
        target -= z * t
        target *= 2.0
    return out


def _su2_expm1(x):
    """exp(X) - I in Cayley-Klein form (2, 1, *stack) of su(2) generators
    X = i w.sigma, first columns (i w3, -w2 + i w1), from
    exp(X) = cos|w| I + sin|w| X / |w|: alpha - 1 is -2 sin^2(|w|/2), free
    of the cancellation in cos|w| - 1.  It is unitary to roundoff."""
    alpha, beta = x[:, 0]
    theta = np.sqrt(beta.imag * beta.imag + beta.real * beta.real
                    + alpha.imag * alpha.imag)
    sinc = np.ones_like(theta)
    np.divide(np.sin(theta), theta, out=sinc, where=theta > 0.0)
    out = np.empty((2, 1, *theta.shape), dtype=complex)
    half = np.sin(0.5 * theta)
    half *= half
    np.multiply(half, -2.0, out=out[0, 0, ...].real)
    for entry, target in zip((alpha.imag, beta.real, beta.imag),
                             (out[0, 0, ...].imag, out[1, 0, ...].real, out[1, 0, ...].imag)):
        np.multiply(entry, sinc, out=target)
    return out


# One-qubit generators i f.sigma lie in su(2), and every step map and
# propagator in the real span of it and I: [[alpha, -conj(beta)],
# [beta, conj(alpha)]], fixed by its first column, with alpha imaginary on
# a generator.
CAYLEY_KLEIN = Algebra(cayley_klein_matmul, np.eye(2, 1), cayley_klein_expand,
                       cayley_klein_defect, _cayley_klein_completion,
                       _su2_commutator, _su2_expm1)


def step_maps(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray, dt,
              algebra: Algebra) -> np.ndarray:
    """One-step transfer matrices for U' = A(tau) U on a batch of steps, as
    their offsets from the identity.

    a1, a2, a3 are A evaluated at the step start, midpoint and end, as
    elements of the algebra seen matrix-major (shape (..., n, k); whole
    matrices, matrix_algebra(n), take (..., n, n)); the returned X
    satisfies U(tau+dt) = (I + X) U(tau).  dt is a scalar or a per-step
    array that broadcasts against the stack axes (...) of the inputs.  The
    products are formed by the algebra's product, entry by entry, and X is
    a component-major view; the inputs should be component-major views too
    (see component_major), or every entry is a strided gather.  The
    degree-5..7 completion is the algebra's own (Algebra.completion): four
    products on whole matrices, none in Cayley-Klein form.
    """
    x1, x2, x3 = (component_major(a) for a in (a1, a2, a3))
    mul = algebra.product
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
    # m = (dt/6)(x1 + 2 k2 + 2 k3 + k4)
    m = k2
    m *= 2.0
    m += x1
    k3 *= 2.0
    m += k3
    m += k4
    m *= dt / 6.0
    # modulus completion: degree 5..7 powers of the Simpson-averaged
    # generator pbar = (x1 + 4 x2 + x3)(dt/6), by the algebra
    pbar = x2 * 4.0
    pbar += x1
    pbar += x3
    pbar *= dt / 6.0
    out = algebra.completion(pbar)
    out += m
    return matrix_major(out)


def magnus_maps(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray, dt,
                algebra: Algebra) -> np.ndarray:
    """Sixth-order Magnus step maps for U' = A(tau) U on a batch of steps.

    a1, a2, a3 are A at the Gauss-Legendre nodes GAUSS of every step, as
    component-major stacks of the algebra's elements (n, k, *stack); dt is
    the step size.  With b1 = dt A2, b2 = (sqrt(15) dt / 3)(A3 - A1) and
    b3 = (10 dt / 3)(A3 - 2 A2 + A1), C1 = [b1, b2] and
    C2 = -[b1, 2 b3 + C1] / 60, the map is exp(Omega) with
    Omega = b1 + b3/12 + [-20 b1 - b3 + C1, b2 + C2] / 240 (Blanes, Casas and
    Ros, BIT 40 (2000) 434), formed on the algebra's elements: three
    commutators and one exponential.  Returns the maps' offsets from the
    identity, exp(Omega) - I, as a component-major stack (n, k, *stack),
    which _blocked_scan multiplies as offsets.
    """
    comm = algebra.commutator
    b1 = a2 * dt
    b2 = a3 - a1
    b2 *= np.sqrt(15.0) * dt / 3.0
    b3 = a3 + a1
    b3 -= 2.0 * a2
    b3 *= 10.0 * dt / 3.0
    c1 = comm(b1, b2)
    c2 = comm(b1, 2.0 * b3 + c1)
    c2 *= -1.0 / 60.0
    c2 += b2
    left = c1 - 20.0 * b1
    left -= b3
    omega = comm(left, c2)
    omega *= 1.0 / 240.0
    omega += b1
    b3 *= 1.0 / 12.0
    omega += b3
    return algebra.expm1(omega)


def _compose(algebra: Algebra, later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """The offset of a product of two maps from the offsets of its factors:
    (I + later)(I + earlier) - I = later earlier + later + earlier."""
    out = algebra.product(later, earlier)
    out += later
    out += earlier
    return out


def _blocked_scan(x: np.ndarray, u: np.ndarray, algebra: Algebra) -> np.ndarray:
    """Ordered products of a stack of maps I + x, x (n, k, *rest, C) their
    offsets from the identity.

    u is the start element (n, k, *rest).  Returns the prefix products
    p[..., k] = (I + x_k) ... (I + x_0) u for every k, component-major
    (n, k, *rest, C).  The in-block partial products are carried as offsets
    too (_compose), at two additions per product, so they round relative to
    their offsets (see Product order); a product with u or with a block's
    incoming offset, which are whole elements, adds that element.

    The C factors are split into blocks of SCAN_WIDTH consecutive factors,
    narrower when C < SCAN_WIDTH^2 so that there are at least SCAN_WIDTH
    blocks.  Each in-block position is one vectorized product across all
    blocks (local prefixes).  This same function scans the block totals
    from u, which gives every block its incoming offset, and every block's
    local prefixes are then multiplied by it at once.  Fewer than
    2 SCAN_WIDTH factors are chained onto u one at a time, by one batched
    `@` of the expanded offset per step, which beats a product call on a
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
            w = np.matmul(factors[..., b, :, :], v, out=p[..., b, :, :])
            w += v
            v = w
        return component_major(p)
    width = min(SCAN_WIDTH, c // SCAN_WIDTH)
    blocks = -(-c // width)
    pad = blocks * width - c
    if pad:
        # identity factors, offsets 0, multiply exactly
        x = np.concatenate([x, np.zeros((n, k, *rest, pad))], axis=-1)
    # y[:, :, j, ..., b] = factor b*width + j: every in-block position is
    # one contiguous slab across the rest axes and the blocks
    y = np.ascontiguousarray(np.moveaxis(x.reshape(n, k, *rest, blocks, width), -1, 2))
    for j in range(1, width):
        y[:, :, j] = _compose(algebra, y[:, :, j], y[:, :, j - 1])
    # block b's offset is totals b-1 .. 0 on u
    offsets = _blocked_scan(y[:, :, width - 1, ..., :-1], u, algebra)
    offsets = np.concatenate([u[..., None], offsets], axis=-1)
    p = algebra.product(y, offsets[:, :, None])
    p += offsets[:, :, None]
    return np.moveaxis(p, 2, -1).reshape(n, k, *rest, blocks * width)[..., :c]


def _sample_rows(afun, grid, c0: int, cs: int, fractions: np.ndarray, k: int):
    """Samples of A at the given fractions of each of the steps
    c0 .. c0 + cs - 1, and the step size, a scalar or one per step along
    the rows' trailing axis (afun as in _integrate).  Returns one row per
    fraction, the first k columns of the matrices, component-major
    (n, k, *batch, cs).  A TimeGrid's steps share their end samples: a last
    fraction of 1 (after a first one of 0) is not sampled but read as the
    first row shifted by one step, over one step more than the chunk.
    """
    nodes = isinstance(grid, StepNodes)
    shared = not nodes and fractions[-1] == 1.0
    sampled = fractions[:-1] if shared else fractions
    if nodes:
        t = grid.taus[c0:c0 + cs + 1]
        dt = np.diff(t)
        taus = t[:-1] + sampled[:, None] * dt
        where = None
    else:
        dt = grid.h
        cols = cs + 1 if shared else cs
        taus = grid.tau_start + c0 * dt + (np.arange(cols) + sampled[:, None]) * dt
        where = ChunkRows(grid, c0, sampled)
    x = np.ascontiguousarray(component_major(afun(taus, where)))[:, :k]
    rows = [x[..., j, :cs] for j in range(len(sampled))]
    if shared:
        rows.append(x[..., 0, 1:])
    return rows, dt


def _step_map(substep_maps, rows, substeps, dt, algebra: Algebra):
    """The map of every step as its offset from the identity, component-major
    (n, k, *batch, steps): the product of its substep maps, composed as
    offsets (_compose).  Substep i's map is substep_maps of the rows
    substeps[i] over dt / len(substeps)."""
    h = dt / len(substeps)
    return functools.reduce(lambda g, s: _compose(algebra, s, g),
                            (substep_maps(*(rows[j] for j in t), h, algebra)
                             for t in substeps))


def _integrate(afun, grid, dim: int, batch=(), refine=DEFAULT_REFINE,
               store: str = "grid", rule: str = "runge-kutta"):
    """Core fixed-step integrator for U' = A(tau) U, U(tau_start) = I.

    grid gives the step nodes: a TimeGrid or StepNodes.  Every step is split
    into `refine` equal substeps.  rule is the step map: "runge-kutta", the
    completed fourth-order map of step_maps, or "magnus", the sixth-order
    map of magnus_maps, on a TimeGrid only.

    A chunk of CHUNK steps (fewer in the last one) is sampled at once, at
    the rule's fractions of every step (_sample_rows): afun(taus, rows)
    receives a (rows, steps) time array and, on a TimeGrid, where its rows
    lie (ChunkRows; None on StepNodes); it returns A with shape
    (*batch, *taus.shape, dim, dim), a matrix-major view of component-major
    memory (see Memory layout).  Every step's map is the product of its
    substep maps, and a blocked scan over the chunk's step maps, all given
    as offsets from the identity, gives the propagator at every node; this
    path is the same for both rules and both storage modes, which only
    choose what is written.

    The maps and products are those of the algebra for dim: Cayley-Klein
    first columns for 2x2, whole matrices for 4x4.  So a 2x2 A must lie in
    su(2), as every one-qubit generator i f.sigma does: only its first
    column is read, and the kernels that act on generators (the
    completion, commutator and exponential) take alpha as imaginary.  The
    elements are expanded to dim x dim matrices only where they are
    written, so the samples and U_final are complex (..., dim, dim) arrays
    either way.  The returned defect is the max-norm of U†U - I at every
    node, over the batch and (on StepNodes) of the refine level, measured
    per chunk on the algebra's elements in both storage modes.

    store is "grid" (samples (*batch, steps + 1, dim, dim) at the nodes) or
    "final".  StepNodes allow only "final", at an even refine: the same rows
    are integrated at refine // 2 and at refine, and U_final has shape
    (2, *batch, dim, dim), in that order.  Returns (samples | None, U_final,
    defect).
    """
    if store not in ("grid", "final"):
        raise ValueError(f"store must be 'grid' or 'final', got {store!r}")
    if rule not in ("runge-kutta", "magnus"):
        raise ValueError(f"rule must be 'runge-kutta' or 'magnus', got {rule!r}")
    nodes = isinstance(grid, StepNodes)
    if nodes and (store != "final" or refine % 2 or rule != "runge-kutta"):
        raise ValueError("step nodes integrate final propagators at an even refine, "
                         "by the Runge-Kutta rule")
    if rule == "magnus":
        # rows 3i .. 3i + 2 at the Gauss nodes of substep i
        fractions = ((np.arange(refine)[:, None] + GAUSS) / refine).ravel()
        levels = [[(3 * i, 3 * i + 1, 3 * i + 2) for i in range(refine)]]
        substep_maps = magnus_maps
    else:
        # row j at j/(2 refine) of every step; a level of refine / w substeps
        # reads every w-th row, substep i rows 2wi, 2wi + w and 2w(i + 1).
        # Step nodes run the levels refine // 2 and refine.
        fractions = np.arange(2 * refine + 1) / (2 * refine)
        levels = [[(2 * w * i, 2 * w * i + w, 2 * w * (i + 1)) for i in range(refine // w)]
                  for w in ((2, 1) if nodes else (1,))]

        def substep_maps(a1, a2, a3, dt, algebra):
            return component_major(step_maps(*map(matrix_major, (a1, a2, a3)), dt, algebra))
    # an unstable coarse grid overflows to inf and NaN; the defect check of
    # every caller turns those into an AccuracyError, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        # step nodes carry their two levels along a leading axis of u
        lead = (2,) if nodes else ()
        algebra = CAYLEY_KLEIN if dim == 2 else matrix_algebra(dim)
        steps = grid.steps
        u = algebra.unit((*lead, *batch))
        out = None
        defects = []
        if store == "grid":
            out = np.empty((*batch, steps + 1, dim, dim), dtype=complex)
            algebra.expand(u, out[..., 0, :, :])
        for c0 in range(0, steps, CHUNK):
            cs = min(CHUNK, steps - c0)
            rows, dt = _sample_rows(afun, grid, c0, cs, fractions,
                                    algebra.identity.shape[1])
            m = [_step_map(substep_maps, rows, level, dt, algebra) for level in levels]
            p = _blocked_scan(np.stack(m, axis=2) if lead else m[0], u, algebra)
            if out is not None:
                algebra.expand(p, out[..., c0 + 1:c0 + cs + 1, :, :])
            # the defect of the level a noisy run reports, refine, on StepNodes
            defects.append(algebra.defect(p[:, :, -1] if lead else p))
            u = p[..., -1]
        return out, algebra.expand(u), float(np.max(defects))


def _catmull_rom(u):
    """Weights of the samples f[k - 1], f[k], f[k + 1], f[k + 2] of the
    Catmull-Rom cubic at the fraction u of step k: the cubic Hermite
    interpolant with the slopes (f[k + 1] - f[k - 1]) / 2 per step."""
    return (-0.5 * u * (1.0 - u) ** 2, 1.0 + u * u * (1.5 * u - 2.5),
            0.5 * u * (1.0 + u * (4.0 - 3.0 * u)), 0.5 * u * u * (u - 1.0))


def _control_fun(grid: TimeGrid, delta_f):
    """delta_f (grid samples, shape (steps + 1, 3)) interpolated to the
    sampler's times by one Catmull-Rom cubic (_catmull_rom): a function
    (taus, rows) -> (*taus.shape, 3), a view of component-major memory.

    Each end gets a ghost sample, the quadratic extrapolation
    3 f[0] - 3 f[1] + f[2] (the linear one on a one-step grid), so the end
    slopes are one-sided second-order differences.  The cubic is C^1, which
    keeps the Magnus rule's order where its steps straddle the samples.
    Every call copies the samples it reads, with the ghosts, to a
    component-major window; the whole series is never copied.

    On a TimeGrid chunk whose steps are m of this grid's (rows a ChunkRows
    of a grid of steps / m steps, for an m that divides the steps), row j
    lies at a fixed fraction of a fixed one of the m grid steps in every
    chunk step: four fixed weights on four m-strided slices of the window,
    with no search.  The last chunk of a grid-stored run samples one column
    past the final step, whose row 0 is f[steps] and whose other rows are
    never read.  On StepNodes (rows None) every time finds its step by floor
    and gathers its four samples.
    """
    delta_f = np.asarray(delta_f, dtype=float)
    n = grid.steps
    if delta_f.shape != (n + 1, 3):
        raise ValueError(
            f"delta_f must have shape ({n + 1}, 3), got {delta_f.shape}"
        )
    if n >= 2:
        ghosts = (3.0 * (delta_f[0] - delta_f[1]) + delta_f[2],
                  3.0 * (delta_f[n] - delta_f[n - 1]) + delta_f[n - 2])
    else:
        ghosts = (2.0 * delta_f[0] - delta_f[1], 2.0 * delta_f[1] - delta_f[0])

    def window(start, stop):
        # padded samples start .. stop - 1: index i is f[i - 1], the ghosts
        # are 0 and n + 2, and n + 3 is a zero that weight 0 reads
        out = np.zeros((3, stop - start))
        a, b = max(start, 1), min(stop, n + 2)
        out[:, a - start:b - start] = delta_f[a - 1:b - 1].T
        for i, ghost in zip((0, n + 2), ghosts):
            if start <= i < stop:
                out[:, i - start] = ghost
        return out

    def interpolate(taus, rows):
        if rows is not None:
            m, rest = divmod(n, rows.grid.steps)
            if rest or rows.grid.tau0 != grid.tau0:
                raise ValueError(f"chunk rows on {rows.grid} do not divide {grid}")
            cols = taus.shape[1]
            first = m * rows.c0
            g = window(first, first + m * cols + 3)
            comps = np.empty((3, *taus.shape))
            for out, x in zip(comps.swapaxes(0, 1), rows.fractions):
                q, u = divmod(x * m, 1.0)
                start = int(q)
                stop = start + m * (cols - 1) + 1
                for i, w in enumerate(_catmull_rom(u)):
                    term = g[:, start + i:stop + i:m]
                    if i:
                        out += w * term
                    else:
                        np.multiply(term, w, out=out)
        else:
            u = (taus - grid.tau_start) / grid.h
            k = np.clip(np.floor(u), 0, n - 1).astype(int)
            first = k.min()
            g = window(first, k.max() + 4)
            weights = _catmull_rom(u - k)
            k -= first
            # np.take and in-place products: a fancy index and a temporary
            # per term cost three times as much on a chunk
            comps = np.take(g, k, axis=1)
            comps *= weights[0]
            for i in range(1, 4):
                term = np.take(g, k + i, axis=1)
                term *= weights[i]
                comps += term
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
    grid points, interpolated to the substep sample times by a cubic with
    fixed row weights (see _control_fun).  refine is the number of
    Runge-Kutta substeps per grid step.  Raises AccuracyError when the
    unitarity defect exceeds UNITARITY_BUDGET.
    """
    afun = _generator_fun(grid, [(p, True)], delta_f)
    out, _, defect = _integrate(lambda taus, c0: afun(taus, c0)[0], grid, p.dim,
                                refine=refine)
    check_budget("unitarity defect", defect, UNITARITY_BUDGET)
    return Trajectory(grid, out, defect=defect)


def _magnus_coarsening(grid: TimeGrid) -> int:
    """Grid steps per Magnus step of propagate_finals: the largest m of 4, 3
    and 2 that divides grid.steps with steps >= MAGNUS_STEPS_PER_TAU m tau0,
    else 1."""
    return next((m for m in (4, 3, 2) if grid.steps % m == 0
                 and grid.steps >= MAGNUS_STEPS_PER_TAU * m * grid.tau0), 1)


def propagate_finals(members, grid: TimeGrid, delta_f, *, store: str = "final"):
    """Final propagators (len(members), n, n) of a batch of sweeps on one
    grid, in one integration.

    members is a list of (p, controlled) pairs: sweep parameters of one
    system size, and whether the control modification delta_f (grid
    samples, shape (steps + 1, 3)) enters.  The batch runs by the
    sixth-order Magnus rule on TimeGrid(tau0, steps / m), m grid steps per
    Magnus step (_magnus_coarsening: 4 at the production grids, 1 where the
    grid's steps are already as long as theirs), with the cubic of delta_f
    read from its samples on grid by m-strided slices (_control_fun).  A
    member's final is that of a one-member run bit for bit.  The defect is
    checked at every step of every member: AccuracyError when it exceeds
    UNITARITY_BUDGET.

    store "grid" returns one Trajectory per member in place of the finals,
    on that Magnus grid: the samples at every m-th point of grid, the last
    of them the member's final, bit for bit (the improved sweep,
    noc.improve_gate).
    """
    coarse = TimeGrid(grid.tau0, grid.steps // _magnus_coarsening(grid))
    out, finals, defect = _integrate(_generator_fun(grid, members, delta_f), coarse,
                                     members[0][0].dim, batch=(len(members),),
                                     refine=1, store=store, rule="magnus")
    check_budget("unitarity defect", defect, UNITARITY_BUDGET)
    if out is None:
        return finals
    return [Trajectory(coarse, u, defect=defect) for u in out]


def _noisy_composite(p, improved: Trajectory, delta_f, noise):
    """One realization's final propagator at DEFAULT_REFINE // 2 and
    DEFAULT_REFINE, shape (2, n, n), the steps of its noisy segments, and
    the largest unitarity defect of the segments' DEFAULT_REFINE-level
    propagators at every node.

    The segments snap to the improved trajectory's grid (noisy_segments),
    whose steps are m of the control's (delta_f's grid); each is integrated
    from I on StepNodes (the control grid's points of the segment, every
    m-th of them a trajectory point, plus the realization's clipped edges
    inside it), and each quiet stretch between segments is one factor of
    the improved trajectory (_quiet_factor); both levels share the quiet
    factors.
    """
    grid = improved.grid
    fine = TimeGrid(grid.tau0, len(delta_f) - 1)
    m = fine.steps // grid.steps
    pts, u_imp, edges = fine.points(), improved.unitaries, noise.edges()
    afun = _generator_fun(fine, [(p, True)], delta_f, noise)
    u = np.broadcast_to(np.eye(p.dim, dtype=complex), (2, p.dim, p.dim))
    steps, prev, defects = 0, 0, [0.0]
    for a, b in noisy_segments(grid, edges):
        nodes = StepNodes.with_edges(pts[m * a:m * b + 1], edges)
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
    delta_f holds the control's samples on its grid, shape (steps + 1, 3);
    improved is the stored trajectory of the sweep with delta_f and without
    noise, on that grid or on one of 1/m of its steps, as noc.improve_gate's
    Magnus sweep is (propagate_finals with store "grid").  Each realization
    is integrated only over its noisy segments (noisy_segments on the
    trajectory's grid, so they start and end at its samples), on the control
    grid's points plus its pulse edges, so the noise is constant inside each
    step and is evaluated once per step, at its midpoint; the quiet
    stretches between segments are factors of the improved trajectory.  The
    segments are integrated at
    refine 1 and refine 2 from one set of generator samples; the refine-2
    composites are returned, and max|U_2 - U_1| over the batch is their
    step-doubling error estimate, which covers the noisy segments (the
    quiet steps are the improved sweep's own).  A realization without
    pulses returns the improved final propagator, with estimate 0.
    The defect is the largest of the refine-2 composites' and of their
    noisy segments' at every node.  Raises ValueError when the trajectory's
    steps do not divide the control's, and AccuracyError when the estimate
    exceeds DOUBLING_BUDGET or the defect exceeds UNITARITY_BUDGET.
    """
    if (len(delta_f) - 1) % improved.grid.steps:
        raise ValueError(f"a trajectory on {improved.grid.steps} steps does not divide "
                         f"a control on {len(delta_f) - 1}")
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
    h, shape (2 steps + 1, N, 3).  Step k's map is I + X, X the offset
    step_maps returns for the samples B = -G G† at its start, midpoint and
    end, formed as a whole matrix, since y takes one matrix-vector product
    per step (integrate_delta_y).  B has rank 3, so the map is exactly
    M = I + W C W† with W = [G(tau) | G(tau+h/2) | G(tau+h)] (N x 9), and
    the 9x9 core C follows from the Gram matrix K = W† W:

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
