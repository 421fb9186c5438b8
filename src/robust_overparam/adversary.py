"""rho-bounded adversaries on the sphere-cap domain.

The feasible set for a perturbation of x is B_2(x, rho) intersected with the
domain X.  An adversary is one type, Adversary(name, cfg), made by
make_adversary(name, cfg), that perturbs a batch with .perturb(state, X, y,
loss, tag).  The "worst" adversary (attack_batch) approximates the worst
case by multi-restart projected gradient ascent; the "random" and
"identity" baselines are rho-bounded by construction.  Per-example
randomness is keyed by (seed, tag, example index, restart) so attacks are
reproducible under any scheduling and larger restart counts extend, not
reshuffle, smaller ones.

Each PGA iterate is evaluated once: one network._Workspace forward gives the
outputs and the activation mask, from which the loss, its slope and the
input gradient all follow, and the evaluation after a projection is the next
step's forward pass.  The workspace is allocated once per attack_batch call
and refilled in place by every iterate.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dataspace import HEAD_RADIUS, validate_domain
from .network import NetworkState, _loss_slopes, _Workspace
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
    g = ws.input_gradient(_loss_slopes(loss, ws.forward(X), np.atleast_1d(y)))
    return g[0] if single else g


def project_to_cap(z, center, rho: float) -> np.ndarray:
    """Project z onto B_2(center, rho) intersected with the domain X.

    One pass: pin the last coordinate, rescale the head onto its sphere,
    and when the ball constraint is violated rotate the head along the
    geodesic toward the center's head to the angle where the ball constraint
    binds, which puts it at chord distance rho up to rounding.  Falls back
    to the center for a head that still misses the ball by more than 1e-9,
    such as a non-finite one.
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    out = _project_cap_batch(np.atleast_2d(z).copy(), np.atleast_2d(center), rho)
    return out[0] if single else out


def _rescale_heads(H: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(H, axis=1, keepdims=True)
    degenerate = norms[:, 0] < 1e-12
    if np.any(degenerate):
        H[degenerate] = fallback[degenerate]
        norms = np.linalg.norm(H, axis=1, keepdims=True)
    return H * (HEAD_RADIUS / norms)


def _project_cap_batch(Z: np.ndarray, centers: np.ndarray, rho: float) -> np.ndarray:
    Hc = centers[:, :-1]
    H = _rescale_heads(Z[:, :-1].copy(), Hc)
    # chord rho on the head sphere corresponds to geodesic angle theta_max
    theta_max = 2.0 * math.asin(min(rho / (2.0 * HEAD_RADIUS), 1.0))
    over = np.linalg.norm(H - Hc, axis=1) > rho + _PROJECT_TOL
    if np.any(over):
        u = Hc[over] / HEAD_RADIUS
        v = H[over] / HEAD_RADIUS
        w = v - np.sum(u * v, axis=1, keepdims=True) * u
        wn = np.linalg.norm(w, axis=1, keepdims=True)
        # exactly antipodal heads have no preferred tangent; take the basis
        # direction least aligned with the center (never parallel to it)
        flat = wn[:, 0] < 1e-12
        if np.any(flat):
            uf = u[flat]
            pick = np.zeros_like(uf)
            pick[np.arange(len(uf)), np.argmin(np.abs(uf), axis=1)] = 1.0
            w[flat] = pick - np.sum(uf * pick, axis=1, keepdims=True) * uf
            wn[flat] = np.linalg.norm(w[flat], axis=1, keepdims=True)
        w /= wn
        H[over] = HEAD_RADIUS * (math.cos(theta_max) * u + math.sin(theta_max) * w)
    dist = np.linalg.norm(H - Hc, axis=1)
    bad = ~(dist <= rho + _PROJECT_TOL)  # negated so non-finite heads fall back too
    if np.any(bad):
        H[bad] = Hc[bad]
    out = np.empty_like(Z)
    out[:, :-1] = H
    out[:, -1] = 0.5
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
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            undrawn[i] = True
            continue
        radius = rho * rng.uniform() ** (1.0 / d)
        Z[i] = X[i] + (radius / norm) * direction
    out = _project_cap_batch(Z, X, rho)
    out[undrawn] = X[undrawn]
    return out


def attack_batch(state, X, y, loss, cfg: AttackConfig, tag: int = 0) -> np.ndarray:
    """Multi-restart projected gradient ascent over a batch, one RNG stream per example.

    Returns, per example, the feasible iterate with the highest loss among
    all iterates of all restarts and the unperturbed point itself, so the
    attacked loss never falls below the clean loss.  Raises ValueError for
    points off the domain.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    validate_domain(X)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n = len(X)
    step = cfg.rho / 5.0
    ws = _Workspace(state, n)
    best_x = X.copy()
    preds = ws.forward(X)
    best_l = np.asarray(loss.value(preds, y), dtype=float)
    for r in range(cfg.restarts):
        if r == 0:
            cur = X
        else:
            rngs = [stream(cfg.seed, "attack", tag, i, r) for i in range(n)]
            cur = _random_cap_batch(X, cfg.rho, rngs)
            preds = ws.forward(cur)
            _consider(cur, loss.value(preds, y), best_x, best_l)
        for _ in range(cfg.steps):
            grad = ws.input_gradient(_loss_slopes(loss, preds, y))
            cur = _project_cap_batch(cur + step * grad, X, cfg.rho)
            preds = ws.forward(cur)
            _consider(cur, loss.value(preds, y), best_x, best_l)
    return best_x


def _consider(cur, losses, best_x, best_l):
    l = np.asarray(losses, dtype=float)
    upd = l > best_l
    if np.any(upd):
        best_l[upd] = l[upd]
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


def make_adversary(name: str, cfg: AttackConfig) -> Adversary:
    return Adversary(name, cfg)
