"""Adaptive cubature of weight * max(0, -W) for Coulomb-type integrands.

The integrands of interest look like  f(x) = q(x) * max(0, -W(x))  with q a
smooth nonnegative weight (density times Jacobian) and W a signed sum of
Coulomb terms.  Direct 3-d box refinement converges poorly because the
crease of max(0, -W) is a whole surface.  Here the crease is resolved
exactly instead:

  * outer coordinates (r, u = cos theta) carry an adaptive partition with
    embedded Gauss-Legendre 7x7 / 5x5 panels,
  * at every outer node the azimuthal negative set {phi : W < 0} is located
    by a dense sign scan plus batched Illinois steps on each sign-changing
    scan interval (regula falsi with the stale endpoint's value halved,
    falling back to the midpoint; roots to ~1e-14), and -W q is integrated
    over it with error-driven panel refinement.

Root positions vary continuously with (r, u), so the per-node result J(r, u)
is smooth wherever the exact one is, and the outer high-order rule converges
at its nominal rate.  Negative lobes narrower than the scan spacing can
escape detection while they are barely born; their mass is cubically small
in the spacing and bounded well below the tolerances used here.

Known singular points of W are placed on partition corners (radius and
polar edges; their azimuths become integration panel edges), keeping Gauss
nodes away from the 1/|x - x0| blowups; corner refinement then converges
geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_GLH_X, _GLH_W = np.polynomial.legendre.leggauss(7)
_GLL_X, _GLL_W = np.polynomial.legendre.leggauss(5)
_GL3_X, _GL3_W = np.polynomial.legendre.leggauss(3)
_GL2_X, _GL2_W = np.polynomial.legendre.leggauss(2)

_TWO_PI = 2.0 * math.pi
_N_SCAN = 192
_SCAN_PHI = _TWO_PI * np.arange(_N_SCAN) / _N_SCAN
_SCAN_COS = np.cos(_SCAN_PHI)
_SCAN_SIN = np.sin(_SCAN_PHI)
# root refinement stops at the width 44 bisection steps leave of a scan
# interval, or after 44 steps, whichever comes first
_MAX_ROOT_STEPS = 44
_ROOT_WIDTH = (_TWO_PI / _N_SCAN) * 2.0 ** -_MAX_ROOT_STEPS
_MIN_PHI_PANEL = 1e-11
_MAX_INNER_ROUNDS = 64


class QuadratureError(RuntimeError):
    """Non-convergence within the evaluation budget; carries the estimates."""

    def __init__(self, message: str, value: float, error: float, n_evals: int):
        super().__init__(f"{message} (value~{value:.6e}, error~{error:.3e}, evals={n_evals})")
        self.value = value
        self.error = error
        self.n_evals = n_evals


@dataclass(frozen=True)
class CubatureResult:
    value: float
    error: float
    n_evals: int


def orthonormal_basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed frame (e1, e2, e3) with e3 along the given axis."""
    e3 = np.asarray(axis, dtype=float)
    n = np.linalg.norm(e3)
    if n < 1e-300:
        e3 = np.array([0.0, 0.0, 1.0])
    else:
        e3 = e3 / n
    helper = np.array([1.0, 0.0, 0.0]) if abs(e3[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(helper, e3)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    return e1, e2, e3


def _edges_with(points: Sequence[float], lo: float, hi: float, base: Sequence[float]) -> np.ndarray:
    span = hi - lo
    vals = [lo, hi] + [p for p in base if lo < p < hi]
    vals += [p for p in points if lo + 1e-12 * span < p < hi - 1e-12 * span]
    return np.unique(np.asarray(vals, dtype=float))


class _AzimuthalIntegrator:
    """Vectorised phi-integration of q * max(0, -W) over batches of circles.

    All nodes of an outer evaluation batch are processed together, so every
    scan, root-refinement step, and panel round costs one batched call of
    the integrand.  The integrand receives points of shape (..., 3) and
    radii that broadcast against their leading shape.
    """

    def __init__(self, signed_and_weight, basis, forced_phis, inner_rel):
        self.f = signed_and_weight
        self.e1, self.e2, self.e3 = basis
        self.forced = sorted({p % _TWO_PI for p in forced_phis})
        self.inner_rel = inner_rel

    def _points(self, r, s, u, cos_phi, sin_phi):
        """Points r (s cos phi e1 + s sin phi e2 + u e3), shape (..., 3).

        Filled one Cartesian component at a time into a (3, ...) buffer;
        the returned array is a view of it.
        """
        cx = (r * s) * cos_phi
        cy = (r * s) * sin_phi
        cz = r * u
        out = np.empty((3,) + np.broadcast_shapes(cx.shape, cy.shape, np.shape(cz)))
        for k in range(3):
            comp = out[k]
            np.multiply(cx, self.e1[k], out=comp)
            comp += cy * self.e2[k]
            comp += cz * self.e3[k]
        return np.moveaxis(out, 0, -1)

    def _signed(self, r, s, u, cos_phi, sin_phi):
        g, _ = self.f(self._points(r, s, u, cos_phi, sin_phi), r)
        return g

    def _refine_roots(self, r, s, u, lo, hi, g_lo, g_hi):
        """Roots of g in the sign-changing brackets [lo, hi], by Illinois steps.

        g_lo and g_hi are the values already known at the bracket ends.  Each
        step evaluates g at the regula falsi point of every open bracket;
        when the same end moves twice in a row, the value kept at the other
        end is halved (the Illinois rule).  The point is kept at least half
        of _ROOT_WIDTH from both ends, so a bracket whose root sits at one
        end closes in one more step, and a point that is not finite becomes
        the midpoint.  The end whose sign the new value shares moves, so
        every bracket keeps its sign change; a value of exactly zero closes
        the bracket on its point.  A bracket closes once it is at most
        _ROOT_WIDTH wide, and all close after _MAX_ROOT_STEPS steps.
        Returns the bracket midpoints and the number of evaluations.
        """
        lo, hi = lo.copy(), hi.copy()
        g_lo, g_hi = g_lo.copy(), g_hi.copy()
        neg_lo = g_lo < 0.0
        moved = np.zeros(len(lo), dtype=np.int8)  # end moved last: -1 lo, +1 hi
        active = np.nonzero(hi - lo > _ROOT_WIDTH)[0]
        n_evals = 0
        for _ in range(_MAX_ROOT_STEPS):
            if not len(active):
                break
            a_lo, a_hi, ga, gb = lo[active], hi[active], g_lo[active], g_hi[active]
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                x = a_hi - gb * (a_hi - a_lo) / (gb - ga)
            x = np.clip(x, a_lo + 0.5 * _ROOT_WIDTH, a_hi - 0.5 * _ROOT_WIDTH)
            x = np.where((x > a_lo) & (x < a_hi), x, 0.5 * (a_lo + a_hi))
            gx = self._signed(r[active], s[active], u[active], np.cos(x), np.sin(x))
            n_evals += len(x)
            to_lo = (gx < 0.0) == neg_lo[active]
            exact = gx == 0.0  # a root to rounding: close the bracket on it
            last = moved[active]
            lo[active] = np.where(to_lo | exact, x, a_lo)
            hi[active] = np.where(to_lo & ~exact, a_hi, x)
            g_lo[active] = np.where(to_lo, gx, np.where(last == 1, 0.5 * ga, ga))
            g_hi[active] = np.where(to_lo, np.where(last == -1, 0.5 * gb, gb), gx)
            moved[active] = np.where(to_lo, -1, 1)
            active = active[hi[active] - lo[active] > _ROOT_WIDTH]
        return 0.5 * (lo + hi), n_evals

    def integrate(self, r_nodes: np.ndarray, u_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        n_nodes = len(r_nodes)
        s_nodes = np.sqrt(np.maximum(0.0, 1.0 - u_nodes * u_nodes))
        n_evals = 0

        # -- locate the negative set by scan + root refinement -------------
        g = self._signed(r_nodes[:, None], s_nodes[:, None], u_nodes[:, None], _SCAN_COS, _SCAN_SIN)
        n_evals += g.size
        neg = g < 0.0
        flips = neg != np.roll(neg, -1, axis=1)
        node_f, k_f = np.nonzero(flips)  # root between sample k and k+1 (mod N)
        k_next = (k_f + 1) % _N_SCAN

        lo = _SCAN_PHI[k_f]
        roots, n_root = self._refine_roots(
            r_nodes[node_f],
            s_nodes[node_f],
            u_nodes[node_f],
            lo,
            lo + _TWO_PI / _N_SCAN,
            g[node_f, k_f],
            g[node_f, k_next],
        )
        n_evals += n_root
        is_start = neg[node_f, k_next]  # entering the negative set

        # -- assemble negative intervals per node -------------------------
        starts_list: list[np.ndarray] = []
        ends_list: list[np.ndarray] = []
        ids_list: list[np.ndarray] = []
        if len(roots):
            counts = np.bincount(node_f, minlength=n_nodes)
            heads = np.concatenate([[0], np.cumsum(counts)[:-1]])
            # alternation is guaranteed; pair each start with the next root
            nxt = np.arange(len(roots)) + 1
            grp = node_f
            tail = nxt >= heads[grp] + counts[grp]
            nxt = np.where(tail, heads[grp], nxt)
            end_phi = roots[nxt] + np.where(tail, _TWO_PI, 0.0)
            sel = is_start
            starts_list.append(roots[sel])
            ends_list.append(end_phi[sel])
            ids_list.append(node_f[sel])
            covered = np.zeros(n_nodes, dtype=bool)
            covered[node_f] = True
        else:
            covered = np.zeros(n_nodes, dtype=bool)
        whole = (~covered) & neg[:, 0]  # negative everywhere on the circle
        if whole.any():
            ids = np.nonzero(whole)[0]
            starts_list.append(np.zeros(len(ids)))
            ends_list.append(np.full(len(ids), _TWO_PI))
            ids_list.append(ids)
        if not ids_list:
            return np.zeros(n_nodes), np.zeros(n_nodes), n_evals
        int_node = np.concatenate(ids_list)
        int_lo = np.concatenate(starts_list)
        int_hi = np.concatenate(ends_list)

        # -- split intervals at forced azimuths, then into base panels ----
        cuts_node, cuts_lo, cuts_hi = [int_node], [int_lo], [int_hi]
        for p in self.forced:
            for shift in (0.0, _TWO_PI, 2.0 * _TWO_PI):
                point = p + shift
                cn, cl, ch = np.concatenate(cuts_node), np.concatenate(cuts_lo), np.concatenate(cuts_hi)
                hit = (cl + 1e-13 < point) & (point < ch - 1e-13)
                if not hit.any():
                    cuts_node, cuts_lo, cuts_hi = [cn], [cl], [ch]
                    continue
                keep_n, keep_l, keep_h = cn[~hit], cl[~hit], ch[~hit]
                hn, hl, hh = cn[hit], cl[hit], ch[hit]
                cuts_node = [keep_n, hn, hn]
                cuts_lo = [keep_l, hl, np.full(len(hn), point)]
                cuts_hi = [keep_h, np.full(len(hn), point), hh]
        int_node = np.concatenate(cuts_node)
        int_lo = np.concatenate(cuts_lo)
        int_hi = np.concatenate(cuts_hi)

        n_base = np.maximum(1, np.ceil((int_hi - int_lo) / 0.6).astype(int))
        node_id = np.repeat(int_node, n_base)
        seg = np.arange(n_base.sum()) - np.repeat(np.cumsum(n_base) - n_base, n_base)
        width = np.repeat((int_hi - int_lo) / n_base, n_base)
        lo = np.repeat(int_lo, n_base) + seg * width
        hi = lo + width

        # -- error-driven panel refinement ---------------------------------
        J = np.zeros(n_nodes)
        errJ = np.zeros(n_nodes)
        budget = None
        for rnd in range(_MAX_INNER_ROUNDS):
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            phis = mid[:, None] + half[:, None] * np.concatenate([_GL3_X, _GL2_X])
            rr = r_nodes[node_id][:, None]
            ss = s_nodes[node_id][:, None]
            uu = u_nodes[node_id][:, None]
            gvals, qvals = self.f(self._points(rr, ss, uu, np.cos(phis), np.sin(phis)), rr)
            n_evals += phis.size
            prod = -gvals * qvals
            i3 = (prod[:, :3] @ _GL3_W) * half
            i2 = (prod[:, 3:] @ _GL2_W) * half
            err = np.abs(i3 - i2)

            if budget is None:
                scale = np.zeros(n_nodes)
                np.add.at(scale, node_id, np.abs(i3))
                budget = np.maximum(self.inner_rel * scale, 1e-300) / 16.0

            done = (err <= budget[node_id]) | ((hi - lo) <= _MIN_PHI_PANEL)
            if rnd == _MAX_INNER_ROUNDS - 1:
                done = np.ones_like(done)
            np.add.at(J, node_id[done], i3[done])
            np.add.at(errJ, node_id[done], err[done])
            if done.all():
                break
            rem = ~done
            node_id = np.repeat(node_id[rem], 2)
            mids = mid[rem]
            lo = np.stack([lo[rem], mids], axis=1).reshape(-1)
            hi = np.stack([mids, hi[rem]], axis=1).reshape(-1)
        return np.maximum(J, 0.0), errJ, n_evals


def negative_part_average(
    signed_and_weight: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    r_max: float,
    singular_points: Sequence[np.ndarray] = (),
    extra_radii: Sequence[float] = (),
    rel_tol: float = 1e-6,
    abs_floor: float = 1e-12,
    max_evals: int = 80_000_000,
    axis_hint: np.ndarray | None = None,
) -> CubatureResult:
    """Integrate q(x) * max(0, -W(x)) over the ball |x| <= r_max.

    signed_and_weight(points, radii) must return the pair (W values,
    q values) where q already contains the full radial measure weight, so
    the integral computed is  int dr du dphi  q * max(0, -W)  with the r^2
    Jacobian folded into q.  points has shape (..., 3); radii broadcasts
    against its leading shape (one radius per circle), and so may q.
    singular_points are Cartesian singular locations of W relative to the
    expansion origin; extra_radii adds radial partition edges (e.g. kink
    radii of the repulsive terms).
    """
    pts = [np.asarray(p, dtype=float) for p in singular_points]
    pts = [p for p in pts if np.linalg.norm(p) < r_max]
    if axis_hint is not None:
        basis = orthonormal_basis(axis_hint)
    elif pts:
        basis = orthonormal_basis(pts[0])
    else:
        basis = orthonormal_basis(np.array([0.0, 0.0, 1.0]))
    e1, e2, e3 = basis

    sing_r, sing_u, sing_p = [], [], []
    for p in pts:
        r = float(np.linalg.norm(p))
        if r < 1e-14:
            continue  # the origin is already a partition corner
        sing_r.append(r)
        u = float(np.clip(p @ e3 / r, -1.0, 1.0))
        sing_u.append(u)
        if abs(u) < 1.0 - 1e-12:
            sing_p.append(math.atan2(float(p @ e2), float(p @ e1)) % _TWO_PI)

    base_r = [f * r_max for f in (0.04, 0.1, 0.22, 0.4, 0.65)]
    r_edges = _edges_with(sing_r + list(extra_radii), 0.0, r_max, base_r)
    u_edges = _edges_with(sing_u, -1.0, 1.0, [-0.5, 0.0, 0.5])
    boxes = []
    for i in range(len(r_edges) - 1):
        for j in range(len(u_edges) - 1):
            boxes.append([[r_edges[i], r_edges[i + 1]], [u_edges[j], u_edges[j + 1]]])
    boxes = np.asarray(boxes, dtype=float)

    inner = _AzimuthalIntegrator(signed_and_weight, basis, sing_p, inner_rel=0.1 * rel_tol)
    nh, nl = len(_GLH_X), len(_GLL_X)

    def eval_boxes(bx: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        nb = len(bx)
        mid = 0.5 * (bx[:, :, 0] + bx[:, :, 1])
        half = 0.5 * (bx[:, :, 1] - bx[:, :, 0])
        area = half[:, 0] * half[:, 1]
        rh = mid[:, 0, None] + half[:, 0, None] * _GLH_X
        uh = mid[:, 1, None] + half[:, 1, None] * _GLH_X
        rl = mid[:, 0, None] + half[:, 0, None] * _GLL_X
        ul = mid[:, 1, None] + half[:, 1, None] * _GLL_X
        rn = np.concatenate(
            [np.repeat(rh, nh, axis=1).reshape(-1), np.repeat(rl, nl, axis=1).reshape(-1)]
        )
        un = np.concatenate(
            [np.tile(uh, (1, nh)).reshape(-1), np.tile(ul, (1, nl)).reshape(-1)]
        )
        J, errJ, ne = inner.integrate(rn, un)
        nhh = nb * nh * nh
        Jh = J[:nhh].reshape(nb, nh, nh)
        Jl = J[nhh:].reshape(nb, nl, nl)
        eh = errJ[:nhh].reshape(nb, nh, nh)
        wh = np.einsum("bij,i,j->b", Jh, _GLH_W, _GLH_W) * area
        wl = np.einsum("bij,i,j->b", Jl, _GLL_W, _GLL_W) * area
        inner_err = np.einsum("bij,i,j->b", eh, _GLH_W, _GLH_W) * area
        return wh, np.abs(wh - wl) + np.abs(inner_err), ne

    i4, err, n_evals = eval_boxes(boxes)
    while True:
        total = float(i4.sum())
        total_err = float(err.sum())
        target = max(rel_tol * abs(total), abs_floor)
        if total_err <= target:
            return CubatureResult(total, total_err, n_evals)
        if n_evals >= max_evals:
            raise QuadratureError("cubature did not converge within budget", total, total_err, n_evals)
        order = np.argsort(err)[::-1]
        k = int(np.count_nonzero(err > 0.25 * target / len(boxes)))
        k = min(max(k, 1), len(order), 1024)
        worst = order[:k]
        keep = np.ones(len(boxes), dtype=bool)
        keep[worst] = False
        children = []
        for idx in worst:
            b = boxes[idx]
            mids = 0.5 * (b[:, 0] + b[:, 1])
            for code in range(4):
                child = b.copy()
                for dim in range(2):
                    if (code >> dim) & 1:
                        child[dim, 0] = mids[dim]
                    else:
                        child[dim, 1] = mids[dim]
                children.append(child)
        c4, cerr, ne = eval_boxes(np.asarray(children))
        n_evals += ne
        boxes = np.concatenate([boxes[keep], children])
        i4 = np.concatenate([i4[keep], c4])
        err = np.concatenate([err[keep], cerr])
