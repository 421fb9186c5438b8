"""rho-bounded adversaries on the sphere-cap domain.

The feasible set for a perturbation of x is B_2(x, rho) intersected with the
domain X.  An adversary is one type, Adversary(name, cfg), that perturbs a
batch with .perturb(state, X, y, loss, tag).  The "worst" adversary
(attack_batch) approximates the worst case by multi-restart projected
gradient ascent; the "random" and "identity" baselines are rho-bounded by
construction.  Per-example randomness is keyed by (seed, tag, example
index, restart) so attacks are reproducible under any scheduling and larger
restart counts extend, not reshuffle, smaller ones.

The restarts of attack_batch advance in lockstep, but the network is
evaluated one restart at a time on one n-row network._Workspace, allocated
once per call: a forward gives the outputs and the activation mask, from
which the loss, its slope and the input gradient follow.  Ties between
restarts resolve in restart order.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dataspace import HEAD_RADIUS, validate_domain
from .network import NetworkState, _Workspace
from .rng import stream

_PROJECT_TOL = 1e-9
ADVERSARIES = ("worst", "random", "identity")


@dataclass(frozen=True)
class AttackConfig:
    rho: float
    steps: int = 20
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ValueError(f"rho must be finite and positive, got {self.rho!r}")
        if not (isinstance(self.steps, numbers.Integral) and self.steps >= 0):
            raise ValueError(f"steps must be an integer >= 0, got {self.steps!r}")
        if not (isinstance(self.restarts, numbers.Integral) and self.restarts >= 1):
            raise ValueError(f"restarts must be an integer >= 1, got {self.restarts!r}")


def input_gradient(state: NetworkState, x, y, loss) -> np.ndarray:
    """Subgradient of the loss in the input: l'(f(x), y) sum_r a_r W_r 1{active}."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    ws = _Workspace(state, len(X))
    g = ws.input_gradient(loss.slope(ws.forward(X), np.atleast_1d(y)))
    return g[0] if single else g


def _row_norms(A: np.ndarray) -> np.ndarray:
    # what np.linalg.norm(A, axis=1, keepdims=True) evaluates, bit for bit
    return np.sqrt(np.add.reduce(A * A, axis=1, keepdims=True))


def _rescale_heads(H: np.ndarray, fallback: np.ndarray) -> None:
    """Rescale the rows of H onto the head sphere in place; zero rows take fallback's."""
    norms = _row_norms(H)
    degenerate = norms[:, 0] < 1e-12
    if degenerate.any():
        H[degenerate] = fallback[degenerate]
        norms = _row_norms(H)
    H *= HEAD_RADIUS / norms


def _project_cap_batch(Z: np.ndarray, centers: np.ndarray, rho: float) -> np.ndarray:
    """Project each row of Z onto B_2(its center, rho) intersected with the domain X.

    Pin the last coordinate, rescale the head onto its sphere, and rotate a
    head outside the ball along the geodesic toward the center's head to chord
    distance rho.  A head still off by more than _PROJECT_TOL (non-finite, or
    antipodal at d = 2) falls back to the center.
    """
    Hc = centers[:, :-1]
    out = np.empty_like(Z)
    out[:, -1] = 0.5
    H = out[:, :-1]
    H[...] = Z[:, :-1]
    _rescale_heads(H, Hc)
    # chord rho on the head sphere corresponds to geodesic angle theta_max
    theta_max = 2.0 * math.asin(min(rho / (2.0 * HEAD_RADIUS), 1.0))
    over = _row_norms(H - Hc)[:, 0] > rho + _PROJECT_TOL
    # a one-coordinate head (d = 2) has no tangent to rotate along: its over
    # rows stay antipodal and fall back to the center below, the only cap
    # point within rho < sqrt(3) of it
    if over.any() and H.shape[1] > 1:
        u = Hc[over] / HEAD_RADIUS
        v = H[over] / HEAD_RADIUS
        w = v - np.add.reduce(u * v, axis=1, keepdims=True) * u
        wn = _row_norms(w)
        # exactly antipodal heads have no preferred tangent; take the basis
        # direction least aligned with the center (never parallel to it)
        flat = wn[:, 0] < 1e-12
        if flat.any():
            uf = u[flat]
            pick = np.zeros_like(uf)
            pick[np.arange(len(uf)), np.argmin(np.abs(uf), axis=1)] = 1.0
            w[flat] = pick - np.add.reduce(uf * pick, axis=1, keepdims=True) * uf
            wn[flat] = _row_norms(w[flat])
        w /= wn
        H[over] = HEAD_RADIUS * (math.cos(theta_max) * u + math.sin(theta_max) * w)
    bad = ~(_row_norms(H - Hc)[:, 0] <= rho + _PROJECT_TOL)  # negated so non-finite heads fall back too
    if bad.any():
        H[bad] = Hc[bad]
    return out


def random_cap_point(x: np.ndarray, rho: float, rng) -> np.ndarray:
    """Projection of a uniform-in-ball perturbation of x onto the cap."""
    return _random_cap_batch(np.atleast_2d(np.asarray(x, dtype=float)), rho, [rng])[0]


def _random_cap_batch(X: np.ndarray, rho: float, rngs) -> np.ndarray:
    """random_cap_point for each row X[i] with rngs[i], projected in one batch.

    A zero direction draw leaves its row at X[i].
    """
    d = X.shape[1]
    Z = X.copy()
    undrawn = np.zeros(len(X), dtype=bool)
    for i, rng in enumerate(rngs):
        direction = rng.standard_normal(d)
        norm = math.sqrt(direction.dot(direction))  # np.linalg.norm's vector 2-norm
        if norm == 0.0:
            undrawn[i] = True
            continue
        radius = rho * rng.uniform() ** (1.0 / d)
        Z[i] = X[i] + (radius / norm) * direction
    out = _project_cap_batch(Z, X, rho)
    if undrawn.any():
        out[undrawn] = X[undrawn]
    return out


def attack_batch(state, X, y, loss, cfg: AttackConfig, tag: int = 0) -> np.ndarray:
    """Multi-restart projected gradient ascent over a batch, one RNG stream per example.

    Returns, per example, the feasible iterate with the highest loss among
    all iterates of all restarts and the unperturbed point itself, so the
    attacked loss never falls below the clean loss; of equal losses the
    earliest wins, in restart order and then step order.  Raises ValueError
    for points off the domain.

    The restarts advance in lockstep: rows r*n ... r*n + n - 1 of one array
    hold restart r, which starts at X for r = 0 and at a random cap point
    otherwise.  Each step runs the forward and the input gradient of one
    restart after another on the n-row workspace, so every matrix product
    keeps the shape and bits of a single-restart attack, then projects,
    scores and keeps the best point of every (restart, example) at once.
    The restarts are folded in order at the end.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    validate_domain(X)
    n, k = len(X), cfg.restarts
    y = np.broadcast_to(np.asarray(y, dtype=float), (n,))
    step = cfg.rho / 5.0
    ws = _Workspace(state, n)
    out = X.copy()
    blocks = [slice(r * n, (r + 1) * n) for r in range(k)]
    centers = np.tile(X, (k, 1))
    ys = np.tile(y, k)
    cur = centers.copy()
    rngs = [stream(cfg.seed, "attack", tag, i, r) for r in range(1, k) for i in range(n)]
    cur[n:] = _random_cap_batch(centers[n:], cfg.rho, rngs)
    preds = np.empty(k * n)
    grad = np.empty_like(cur)
    for t in range(cfg.steps + 1):
        last = t == cfg.steps
        for rows in blocks:
            preds[rows] = ws.forward(cur[rows])
            if not last:
                grad[rows] = ws.input_gradient(loss.slope(preds[rows], y))
        losses = loss.value(preds, ys)
        if t == 0:
            # every (restart, example) starts from the clean point and loss
            out_l = losses[:n].copy()
            best_x, best_l = centers.copy(), np.tile(out_l, k)
        _consider(cur, losses, best_x, best_l)
        if not last:
            cur = _project_cap_batch(cur + step * grad, centers, cfg.rho)
    for rows in blocks:
        _consider(best_x[rows], best_l[rows], out, out_l)
    return out


def _consider(cur, losses, best_x, best_l):
    upd = losses > best_l
    if upd.any():
        best_l[upd] = losses[upd]
        best_x[upd] = cur[upd]


@dataclass(frozen=True)
class Adversary:
    """A rho-bounded adversary for the training loop, named worst, random or identity.

    "worst" is attack_batch; "random" draws one random_cap_point per example
    from its (seed, "attack-rand", tag, i) stream; "identity" returns a copy
    of the batch.
    """

    name: str
    cfg: AttackConfig

    def __post_init__(self):
        if self.name not in ADVERSARIES:
            raise ValueError(f"unknown adversary {self.name!r}; expected worst, random or identity")

    def perturb(self, state, X, y, loss, tag: int = 0) -> np.ndarray:
        if self.name == "worst":
            return attack_batch(state, X, y, loss, self.cfg, tag=tag)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        validate_domain(X)
        if self.name == "identity":
            return X.copy()
        rngs = [stream(self.cfg.seed, "attack-rand", tag, i) for i in range(len(X))]
        return _random_cap_batch(X, self.cfg.rho, rngs)
