"""Fixed-step time-ordered integration of the sweep propagators and of the
feedback state equation, on a uniform grid over [-tau0/2, +tau0/2].

The one-step map is the classical fourth-order Runge-Kutta transfer matrix
completed with the degree-5..7 powers of the Simpson-averaged generator.
The completion leaves the fourth-order accuracy untouched (it only adds
O(h^5) terms) but extends the stability polynomial of the map so that its
modulus on the imaginary axis is 1 + O(z^10).  At production step sizes the
unitarity defect of the propagator then stays near roundoff without any
re-unitarization, so integration error remains a measurable diagnostic.

Memory layout.  The propagators are 2x2 or 4x4, far too small for batched
`@` to pay off, so the integrator works on component-major stacks: a
chunk's generator samples live in one (n, n, times, *batch) buffer, and
every matrix entry is one contiguous vector across the chunk's times.  The
step maps and the products between them are formed by entry arithmetic on
those vectors.  The 16x16 maps of the feedback equation keep `@`.  The
propagators' generator comes from control.generator already in that
layout, from scalar series (twist phase, ramps, interpolated control
modification); a noise batch adds only one phase series per realization.

Product order.  Within a chunk the grid-step maps are multiplied by a
blocked scan (see _blocked_scan): local prefix products inside about
sqrt(C) blocks of consecutive steps, then the block offsets carried from
the chunk's start value.  This reassociates the sequential product
M_k ... M_1 M_0 U.  For unitary factors both carry roundoff bounded by
order (factors) x eps, about 1e-11 for a production sweep; measured at the
production grids, the two differ by 1.5e-13 (hadamard) to 8e-13 (cphase)
in max-norm, far below the 1e-10 unitarity budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import control
from .lincore import unitarity_defect

DEFAULT_STEPS_1Q = 160_000
DEFAULT_STEPS_2Q = 120_000
DEFAULT_REFINE = 2          # internal substeps per grid step
UNITARITY_BUDGET = 1e-10
CHUNK = 4096


class AccuracyError(RuntimeError):
    """Integration accuracy budget exceeded; carries the measured defect."""

    def __init__(self, defect: float, budget: float):
        super().__init__(
            f"unitarity defect {defect:.3e} exceeds budget {budget:.3e}; "
            "increase the step count"
        )
        self.defect = defect
        self.budget = budget


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
    def tau_end(self) -> float:
        return self.tau0 / 2.0

    @property
    def h(self) -> float:
        return self.tau0 / self.steps

    def points(self) -> np.ndarray:
        return self.tau_start + np.arange(self.steps + 1) * self.h

    def half_points(self) -> np.ndarray:
        """Grid plus midpoints, spacing h/2 (2*steps + 1 values)."""
        return self.tau_start + np.arange(2 * self.steps + 1) * (self.h / 2.0)

    @staticmethod
    def default_for(p) -> "TimeGrid":
        steps = DEFAULT_STEPS_1Q if p.qubits == 1 else DEFAULT_STEPS_2Q
        return TimeGrid(p.tau0, steps)


@dataclass
class Trajectory:
    """Propagator samples U(tau_k, -tau0/2) on a TimeGrid.

    midpoints holds U at tau_k + h/2 when the integration recorded them
    (needed to sample the drive matrix at substage times).
    """

    grid: TimeGrid
    unitaries: np.ndarray
    midpoints: np.ndarray | None = None
    defect: float = field(default=0.0)

    @property
    def final(self) -> np.ndarray:
        return self.unitaries[-1]

    def half_unitaries(self) -> np.ndarray:
        """Interleaved samples at grid and midpoint times, shape (2K+1, n, n)."""
        if self.midpoints is None:
            raise ValueError("trajectory was integrated without midpoint storage")
        k = self.grid.steps
        n = self.unitaries.shape[-1]
        out = np.empty((2 * k + 1, n, n), dtype=complex)
        out[0::2] = self.unitaries
        out[1::2] = self.midpoints
        return out


# Largest matrix size whose products are formed by entry arithmetic on
# component-major stacks; above it, batched `@` is faster.
ENTRY_ARITHMETIC_MAX_DIM = 4
# Crossover (measured on 2x2 and 4x4 stacks) between the two product forms
# of _entry_matmul: 2**14 complex entries, 256 KiB per operand.
ROW_PRODUCT_MAX_ENTRIES = 1 << 14


def _component_major(a: np.ndarray) -> np.ndarray:
    """View (..., n, n) as (n, n, ...); each entry a[..., i, k] becomes x[i, k]."""
    return np.moveaxis(a, (-2, -1), (0, 1))


def _matrix_major(x: np.ndarray) -> np.ndarray:
    """Inverse of _component_major: view (n, n, ...) as (..., n, n)."""
    return np.moveaxis(x, (0, 1), (-2, -1))


def _entry_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of component-major stacks (n, n, ...), entry by entry.

    Entry (i, j) is sum_k a[i, k] b[k, j], summed in k order; the stack axes
    broadcast and the result is contiguous and component-major.  Small
    stacks form whole rows per call (n calls), which keeps the per-call
    overhead low; larger ones form one entry per call (n^3 calls), whose
    temporaries stay in cache where whole-row temporaries do not.
    """
    n = a.shape[0]
    lead = np.broadcast_shapes(a.shape[2:], b.shape[2:])
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


def _transfer(a1, a2, a3, dt, mm, eye):
    """The one-step map from generator samples, products taken by mm."""
    k2 = a2 + (dt / 2.0) * mm(a2, a1)
    k3 = a2 + (dt / 2.0) * mm(a2, k2)
    k4 = a3 + dt * mm(a3, k3)
    m = (dt / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4) + eye
    # modulus completion: degree 5..7 powers of the Simpson-averaged generator
    pbar = (a1 + 4.0 * a2 + a3) * (dt / 6.0)
    p2 = mm(pbar, pbar)
    p5 = mm(mm(p2, p2), pbar)
    return m + mm(p5, pbar / 720.0 + p2 / 5760.0 + eye / 120.0)


def step_maps(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray, dt: float) -> np.ndarray:
    """One-step transfer matrices for U' = A(tau) U on a batch of steps.

    a1, a2, a3 are A evaluated at the step start, midpoint and end
    (shape (..., n, n)); the returned M satisfies U(tau+dt) = M U(tau).
    Up to ENTRY_ARITHMETIC_MAX_DIM the products are formed entry by entry
    and M is a component-major view; the inputs should then be component-
    major views too (see _component_major), or every entry is a strided
    gather.  Larger matrices use batched `@` in the input layout.
    """
    n = a1.shape[-1]
    if n > ENTRY_ARITHMETIC_MAX_DIM:
        return _transfer(a1, a2, a3, dt, np.matmul, np.eye(n))
    x1, x2, x3 = (_component_major(a) for a in (a1, a2, a3))
    eye = np.eye(n).reshape(n, n, *(1,) * (x1.ndim - 2))
    return _matrix_major(_transfer(x1, x2, x3, dt, _entry_matmul, eye))


def _blocked_scan(x: np.ndarray, u: np.ndarray):
    """Ordered products of a component-major stack x (n, n, C, *rest).

    u is a matrix-major (*rest, n, n) start value.  Returns the prefix
    products p[k] = x_k ... x_0 u for every k, shape (C, *rest, n, n).

    The C factors are split into about sqrt(C) blocks of consecutive
    factors.  Each in-block position is one vectorized product across all
    blocks (local prefixes), the block totals are chained onto u one block
    at a time, and every block's local prefixes are then multiplied by its
    incoming offset at once: about 2 sqrt(C) Python-level steps instead of
    C.  Each result is a reassociation of the sequential product, so for
    unitary factors it differs from it by roundoff of order C eps.
    """
    n, _, c = x.shape[:3]
    rest = x.shape[3:]
    width = math.isqrt(c)
    blocks = -(-c // width)
    pad = blocks * width - c
    if pad:
        # identity factors multiply exactly
        ident = np.zeros((n, n, pad, *rest), dtype=x.dtype)
        for i in range(n):
            ident[i, i] = 1.0
        x = np.concatenate([x, ident], axis=2)
    # y[:, :, j, b] = factor b*width + j, contiguous across the blocks
    y = np.ascontiguousarray(
        x.reshape(n, n, blocks, width, *rest).swapaxes(2, 3))
    for j in range(1, width):
        y[:, :, j] = _entry_matmul(y[:, :, j], y[:, :, j - 1])
    # a single matrix per block: batched `@` beats entry arithmetic here
    totals = _matrix_major(y[:, :, width - 1])
    offsets = np.empty((blocks, *rest, n, n), dtype=complex)
    offsets[0] = u
    for b in range(1, blocks):
        offsets[b] = totals[b - 1] @ offsets[b - 1]
    p = _entry_matmul(y, _component_major(offsets)[:, :, None])
    p = _matrix_major(p).swapaxes(0, 1).reshape(blocks * width, *rest, n, n)
    return p[:c]


def _integrate(afun, grid: TimeGrid, dim: int, batch=(), refine=DEFAULT_REFINE,
               store: str = "grid", chunk: int = CHUNK):
    """Core fixed-step integrator for U' = A(tau) U, U(tau_start) = I.

    afun(taus) must return A at the requested times with shape
    (len(taus), *batch, dim, dim).  store is one of "grid" (grid points),
    "half" (grid plus midpoints; requires refine == 2) or "final".
    Returns (grid_samples | None, midpoint_samples | None, U_final).

    Each chunk's generator samples are held component-major (dim, dim,
    times, *batch), and the step-start and step-end samples are requested
    ahead of the midpoints, so every matrix entry of the three stage
    inputs is one contiguous vector.  The ordered products over the
    chunk's steps come from _blocked_scan.
    """
    if store == "half" and refine != 2:
        raise ValueError("midpoint storage requires refine == 2")
    h = grid.h
    q = h / refine
    steps = grid.steps
    u = np.broadcast_to(np.eye(dim, dtype=complex), (*batch, dim, dim)).copy()
    out = mid = None
    if store in ("grid", "half"):
        out = np.empty((steps + 1, *batch, dim, dim), dtype=complex)
        out[0] = u
    if store == "half":
        mid = np.empty((steps, *batch, dim, dim), dtype=complex)
    for c0 in range(0, steps, chunk):
        cs = min(chunk, steps - c0)
        subs = refine * cs
        taus = grid.tau_start + c0 * h + np.arange(2 * subs + 1) * (q / 2.0)
        a = _matrix_major(np.ascontiguousarray(_component_major(
            afun(np.concatenate([taus[0::2], taus[1::2]])))))
        m = _component_major(step_maps(a[:subs], a[subs + 1:], a[1:subs + 1], q))
        if store == "half":
            p = _blocked_scan(m, u)
            mid[c0:c0 + cs] = p[0::2]
            out[c0 + 1:c0 + cs + 1] = p[1::2]
        else:
            mg = m[:, :, 0::refine]
            for r in range(1, refine):
                mg = _entry_matmul(m[:, :, r::refine], mg)
            p = _blocked_scan(mg, u)
            if store == "grid":
                out[c0 + 1:c0 + cs + 1] = p
        u = p[-1]
    return out, mid, u


def _finish(grid, out, mid, ufinal, budget) -> Trajectory:
    samples = out if out is not None else ufinal[None]
    defect = unitarity_defect(samples)
    if mid is not None:
        defect = max(defect, unitarity_defect(mid))
    if budget is not None and not (defect <= budget):
        # "not <=" also catches NaN from an unstable (too coarse) step size
        raise AccuracyError(defect, budget)
    traj = Trajectory(grid, out if out is not None else ufinal[None],
                      midpoints=mid, defect=defect)
    return traj


def _generator_fun(p, grid: TimeGrid, delta_f=None, noise=None, batched=False):
    """The afun of _integrate: A(tau) from control.generator, matrix-major.

    delta_f (grid samples, shape (steps + 1, 3)) is linearly interpolated to
    the requested times.  With batched, noise is a sequence of noise
    realizations and A gains a batch axis after the time axis; otherwise it
    is a single noise argument of control.twist_phase.  The returned views
    are component-major underneath, so _integrate copies nothing.
    """
    if delta_f is not None:
        taus_grid = grid.points()
        delta_f = np.asarray(delta_f, dtype=float)
        if delta_f.shape != (grid.steps + 1, 3):
            raise ValueError(
                f"delta_f must have shape ({grid.steps + 1}, 3), got {delta_f.shape}"
            )

    def afun(taus):
        dfi = None
        if delta_f is not None:
            dfi = np.stack(
                [np.interp(taus, taus_grid, delta_f[:, j]) for j in range(3)], axis=-1
            )
        if batched:
            phase = np.stack([control.twist_phase(taus, p, nz) for nz in noise],
                             axis=-1)
        else:
            phase = control.twist_phase(taus, p, noise)
        return _matrix_major(control.generator(taus, p, dfi, phase))

    return afun


def propagate_nominal(p, grid: TimeGrid | None = None, noise=None, *,
                      refine=DEFAULT_REFINE, store: str = "grid",
                      unitarity_budget: float | None = UNITARITY_BUDGET) -> Trajectory:
    """Integrate i U' = H0(tau) U over the sweep for the nominal control."""
    grid = grid or TimeGrid.default_for(p)
    afun = _generator_fun(p, grid, noise=noise)
    out, mid, u = _integrate(afun, grid, p.dim, refine=refine, store=store)
    return _finish(grid, out, mid, u, unitarity_budget)


def propagate_modified(p, grid: TimeGrid, delta_f, noise=None, *,
                       refine=DEFAULT_REFINE, store: str = "grid",
                       unitarity_budget: float | None = UNITARITY_BUDGET) -> Trajectory:
    """Integrate the sweep with control modification samples delta_f.

    delta_f holds the three real field-modification components at the grid
    points; substage values are linearly interpolated.
    """
    afun = _generator_fun(p, grid, delta_f, noise)
    out, mid, u = _integrate(afun, grid, p.dim, refine=refine, store=store)
    return _finish(grid, out, mid, u, unitarity_budget)


def propagate_modified_batch(p, grid: TimeGrid, delta_f, noises, *,
                             refine: int | None = None) -> np.ndarray:
    """Final propagators for a batch of noise realizations sharing one delta_f.

    Returns an array (len(noises), n, n); used by the jitter ensemble where
    only the final gate is needed.  The noise pulses have discontinuous
    edges, which costs the one-step scheme some of its smooth-case accuracy;
    the default refinement is therefore raised (strongly for the stiffer
    two-qubit system) to keep the unitarity defect inside budget.
    """
    if refine is None:
        refine = DEFAULT_REFINE if p.qubits == 1 else 4 * DEFAULT_REFINE
    noises = list(noises)
    afun = _generator_fun(p, grid, delta_f, noises, batched=True)
    _, _, u = _integrate(afun, grid, p.dim, batch=(len(noises),),
                         refine=refine, store="final")
    defect = unitarity_defect(u)
    if defect > UNITARITY_BUDGET:
        raise AccuracyError(defect, UNITARITY_BUDGET)
    return u


def integrate_delta_y(g_half: np.ndarray, delta_b: np.ndarray,
                      grid: TimeGrid) -> np.ndarray:
    """Integrate the feedback state equation dy/dtau = -G G† y, y(start) = -delta_b.

    g_half holds the drive matrix at grid-plus-midpoint times, shape
    (2*steps + 1, n², 3).  Uses the same one-step scheme as the propagators
    (vector form).  Returns y at the grid points, shape (steps + 1, n²).
    """
    g_half = np.asarray(g_half)
    nsq = delta_b.shape[-1]
    if g_half.shape != (2 * grid.steps + 1, nsq, 3):
        raise ValueError(
            f"drive samples must have shape ({2 * grid.steps + 1}, {nsq}, 3)"
        )
    h = grid.h
    y = -np.asarray(delta_b, dtype=complex)
    out = np.empty((grid.steps + 1, nsq), dtype=complex)
    out[0] = y
    chunk = 2048
    for c0 in range(0, grid.steps, chunk):
        cs = min(chunk, grid.steps - c0)
        g = g_half[2 * c0:2 * (c0 + cs) + 1]
        b = -(g @ np.conj(np.swapaxes(g, -1, -2)))
        m = step_maps(b[0:-1:2], b[1::2], b[2::2], h)
        for k in range(cs):
            y = m[k] @ y
            out[c0 + k + 1] = y
    return out
