"""Continuous-time Markov chain engine.

A chain is a set of hashable state labels, its off-diagonal rates as
numpy triplets, and an initial distribution.  Two solvers cover the
analyses the rest of the package needs:

* ``transient_distribution``: state distribution at time ``t``.
* ``cumulative_occupancy`` and ``occupancy_from_each_start``: expected
  reward-weighted occupancy time over a finite horizon
  (availability-style rewards), from the initial distribution or from
  every start state.  Both are one kernel: the first is the initial
  distribution times the second.

Each solve takes one of two routes, chosen by the state count alone.
With ``q = 1.02 * max |diagonal|``, ``q*t`` bounds the expected number
of jumps over the horizon.  Rates in one model can span microseconds to
years, so ``q*t`` can reach 1e13; neither route's cost grows with it
beyond a logarithm.

* Repeated squaring, for chains of at most ``_SQUARING_MAX_N`` states:
  a few dense n x n products.  It splits the horizon into ``2**m``
  equal subintervals of at most ``_BASE_STEP_EVENTS`` expected jumps,
  builds the subinterval propagator ``M = exp(Q*dt) = sum_k w_k P**k``
  of the dense jump matrix ``P = I + Q/q`` from a short series of
  products, with ``w_k`` the Poisson(``q*dt``) pmf recurred from
  ``w_0 = exp(-q*dt)`` and cut where its tail falls to 1e-15, and
  chains subintervals by squaring::

      M(2t) = M(t) M(t)          c(2t) = c(t) + M(t) c(t)

  Occupancy is carried as the n x 2 block ``c = [C r, C 1]``, where
  ``C = int_0^dt exp(Q*s) ds`` is never formed.  All terms are
  nonnegative, so the squaring never cancels, and the exact row-sum
  identities (``M`` stochastic, ``C`` rows summing to the elapsed time)
  are restored after every level.  Entries of ``M`` below
  ``sqrt(tiny)`` are then flushed to zero, so no product is subnormal.
* Implicit (on ``Q`` for occupancy, ``Q^T`` for the distribution), for
  larger chains: equal steps of the L-stable Radau IIA method (three
  stages, order 5; Reibman & Trivedi 1988, Malhotra, Muppala & Trivedi
  1994), each a real and a complex sparse LU solve.  Its cost does not
  grow with ``q*t``: the stiff components decay within a step.  The
  step count is doubled, or sized from the error estimate, until runs
  of N and 2N steps agree.  Occupancy is integrated as the complement
  ``max(r) - r`` of the reward, so that the estimate is relative to the
  small downtime-style quantity, down to the rounding floor of the LU
  solves.

Accuracy is fixed, not a parameter.  Each squaring base step drops
1e-15 of Poisson mass.  The implicit route bounds the estimated error of
each probability, and of each start's occupancy complement
``max(reward) * horizon - occupancy``, by ``_IMPLICIT_TOL`` (1e-10)
relative to that quantity.  The solve's rounding floor ``n * eps *
max(reward) * horizon`` caps what it can meet: a complement below that
floor over ``_IMPLICIT_TOL`` is met to the floor, an absolute error.

The implicit route's floor of 48 steps and four factorizations costs
more than the n**3 products of squaring on small chains, and less once
n**3 grows.  One round of the on-premises PF pool and ARA extras sweeps
(chains of 32 to 1040 states; the ``onprem-plan`` benchmark workload)
took 2.09, 1.92, 1.81, 1.90, 1.90 and 2.01 s with the switch at 64, 96,
128, 160, 256 and 300 states (median of 5, one OpenBLAS thread, 2-core
x86_64), so squaring keeps chains of up to 128 states.

Building a chain and the squaring route use numpy alone.  ``scipy`` is
imported on first use by the two things that need it: the implicit
route's sparse LU factors and the ``Ctmc.generator`` CSR view.
Importing it costs more than most commands spend solving their small
chains.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, Tuple

import numpy as np

__all__ = [
    "Ctmc",
    "build_ctmc",
    "cumulative_occupancy",
    "indicator_reward",
    "occupancy_from_each_start",
    "transient_distribution",
]

StateLabel = Hashable
Transition = Tuple[StateLabel, StateLabel, float]

_UNIFORMIZATION_SLACK = 1.02
_BASE_STEP_EVENTS = 8.0         # target q*dt for the squaring base step
_BASE_STEP_TOL = 1e-15          # Poisson mass dropped per base step
_DENSE_ARRAYS = 3               # n x n float64 arrays a stiff solve may hold
_SQUARING_MAX_N = 128           # larger chains take the implicit route
_IMPLICIT_TOL = 1e-10           # implicit route's relative error bound
_FLUSH = math.sqrt(np.finfo(float).tiny)   # ~1.5e-154: squares stay normal

# Radau IIA (three stages, order 5) on a linear system z' = A z advances
# a step of size h exactly as z <- R(hA) z, where R is the (2,3) Pade
# approximant (1 + 2x/5 + x^2/20) / (1 - 3x/5 + 3x^2/20 - x^3/60) of exp.
# Partial fractions split R into a real pole and a conjugate pair,
#     R(x) = c1 / (x - p1) + 2 Re[c2 / (x - p2)],
# so a step is one real and one complex shifted sparse solve.  The poles
# are the roots of 60 - 36x + 9x^2 - x^3, the residues (60 + 24p + 3p^2)
# / (-36 + 18p - 3p^2); written out so that importing runs no LAPACK.
_RADAU_REAL_POLE = 3.637834252744496
_RADAU_REAL_RESIDUE = -18.297498174845842
_RADAU_COMPLEX_POLE = 2.6810828736277523 + 3.0504301992474105j
_RADAU_COMPLEX_RESIDUE = 7.648749087422922 + 4.171640244747437j
_RADAU_ERROR_DIVISOR = 31.0     # 2**5 - 1: Richardson estimate for order 5
_IMPLICIT_FIRST_STEPS = 16
_IMPLICIT_STEP_SAFETY = 1.2     # next pair sized for an estimate 1.2**5 below tol
_IMPLICIT_MAX_STEPS = 4096


@dataclass(frozen=True, eq=False)
class Ctmc:
    """Immutable CTMC: labelled states, off-diagonal rates, initial distribution.

    The constructor checks every chain, however it was made: a bad triplet
    is named by its state labels, the first in input order.

    Attributes
    ----------
    states : tuple
        Distinct state labels; all arrays in this module follow this order.
    rows, cols, rates : numpy.ndarray
        The off-diagonal rates ``Q[rows[k], cols[k]] = rates[k]``, each
        positive and finite between two distinct states.  The constructor
        sorts them by ``(row, col)`` and sums duplicate pairs.
    initial : numpy.ndarray
        Probability distribution over ``states`` at time zero, summing to
        one within 1e-9; the constructor keeps a normalised copy.
    exit_rates : numpy.ndarray
        Total rate out of each state, the negated diagonal of ``Q``;
        derived by the constructor, and finite.
    """

    states: tuple
    rows: np.ndarray
    cols: np.ndarray
    rates: np.ndarray
    initial: np.ndarray
    exit_rates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        states, n = self.states, len(self.states)
        if not n:
            raise ValueError("empty state set: a chain needs at least one state")
        index = {s: i for i, s in enumerate(states)}
        if len(index) != n:
            repeated = next(s for i, s in enumerate(states) if index[s] != i)
            raise ValueError(f"state label {repeated!r} appears more than once")
        initial = np.array(self.initial, dtype=float)
        if initial.shape != (n,) or not (initial.min() >= 0.0 and initial.max() < np.inf):
            raise ValueError(f"initial probabilities must be one finite, nonnegative "
                             f"entry per state ({n})")
        total = initial.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"initial probabilities sum to {float(total)!r}, expected 1")
        initial /= total
        rows = np.asarray(self.rows, dtype=np.intp).ravel()
        cols = np.asarray(self.cols, dtype=np.intp).ravel()
        rates = np.asarray(self.rates, dtype=float).ravel()
        if not rows.size == cols.size == rates.size or (rates.size and not (
                min(rows.min(), cols.min()) >= 0 and max(rows.max(), cols.max()) < n)):
            raise ValueError(f"rows, cols and rates must have one entry per rate, "
                             f"each index in 0..{n - 1}")
        bad = (rows == cols) | ~((rates > 0.0) & (rates < np.inf))
        if bad.any():
            k = int(np.argmax(bad))
            src, dst = states[rows[k]], states[cols[k]]
            if rows[k] == cols[k]:
                raise ValueError(f"self-loop transition rate on state {src!r} is not allowed")
            raise ValueError(f"transition rate for {src!r} -> {dst!r} must be positive "
                             f"and finite, got {float(rates[k])!r}")
        order = np.lexsort((cols, rows))
        rows, cols, rates = rows[order], cols[order], rates[order]
        first = np.ones(rates.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        if not first.all():
            starts = np.flatnonzero(first)
            with np.errstate(over="ignore"):    # an overflowing sum is refused below
                rows, cols, rates = rows[starts], cols[starts], np.add.reduceat(rates, starts)
        exit_rates = np.bincount(rows, rates, minlength=n)
        if exit_rates.max() == np.inf:
            label = states[int(np.argmax(exit_rates))]
            raise ValueError(f"the rates out of state {label!r} sum past the largest float")
        for name, value in (("rows", rows), ("cols", cols), ("rates", rates),
                            ("initial", initial), ("exit_rates", exit_rates)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.states)

    def index_of(self, state: StateLabel) -> int:
        try:
            return self._index[state]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"unknown state {state!r}") from None

    @cached_property
    def generator(self):
        """The rate matrix as a ``scipy.sparse.csr_matrix``, built on first access.

        Rows sum to zero; the diagonal holds the negated exit rates and
        is stored only where a state has one.
        """
        import scipy.sparse as sp

        leaving = np.flatnonzero(self.exit_rates)
        return sp.csr_matrix(
            (np.concatenate([self.rates, -self.exit_rates[leaving]]),
             (np.concatenate([self.rows, leaving]), np.concatenate([self.cols, leaving]))),
            shape=(self.n, self.n))


def build_ctmc(transitions: Iterable[Transition],
               initial: Mapping[StateLabel, float]) -> Ctmc:
    """Assemble a CTMC from ``(source, target, rate)`` transitions and a mapping
    from state label to time-zero probability, whose insertion order fixes
    the state indexing.  Duplicate (source, target) pairs are summed.

    This only translates labels to indices; :class:`Ctmc` checks the chain.
    """
    states = tuple(initial)
    index = {label: i for i, label in enumerate(states)}
    try:
        triplets = [(index[src], index[dst], rate) for src, dst, rate in transitions]
    except KeyError as err:
        raise ValueError(f"transition references unknown state {err.args[0]!r}") from None
    rows, cols, rates = zip(*triplets) if triplets else ((), (), ())
    return Ctmc(states, rows, cols, rates, list(initial.values()))


def indicator_reward(ctmc: Ctmc, predicate: Callable[[StateLabel], bool]) -> np.ndarray:
    """0/1 reward vector selecting the states where ``predicate`` holds."""
    return np.array([1.0 if predicate(s) else 0.0 for s in ctmc.states])


def transient_distribution(ctmc: Ctmc, t: float) -> np.ndarray:
    """State distribution at time ``t`` starting from ``ctmc.initial``.

    Parameters
    ----------
    ctmc : Ctmc
    t : float
        Nonnegative time in the generator's rate units.

    Returns
    -------
    numpy.ndarray
        Distribution aligned with ``ctmc.states``; sums to one.
    """
    q = _uniformization_rate(ctmc, t, allow_zero=True)
    if t == 0.0 or q == 0.0:
        return ctmc.initial.copy()
    _check_dense_fits(ctmc.n)
    if _route(ctmc) == "squaring":
        pi = ctmc.initial @ _propagator(ctmc, q, t)
    else:
        pi = np.maximum(
            _radau(ctmc.generator.T, ctmc.initial, t, _IMPLICIT_TOL, q * t, 1.0), 0.0)
    return pi / pi.sum()


def cumulative_occupancy(ctmc: Ctmc, reward: np.ndarray, horizon: float) -> float:
    """Expected value of ``int_0^horizon reward(X(s)) ds``.

    With a 0/1 reward this is the expected time spent in the selected
    states, so dividing by ``horizon`` gives interval availability.

    Parameters
    ----------
    ctmc : Ctmc
    reward : numpy.ndarray
        One bounded nonnegative reward per state.
    horizon : float
        Positive horizon in the generator's rate units.

    Returns
    -------
    float
        Expected accumulated reward (reward units times time units).
    """
    return float(ctmc.initial @ _occupancy(ctmc, reward, horizon))


def occupancy_from_each_start(ctmc: Ctmc, reward: np.ndarray,
                              horizon: float) -> np.ndarray:
    """Expected accumulated reward over ``horizon`` from every start state.

    Equivalent to evaluating :func:`cumulative_occupancy` once per
    deterministic start, but computed in a single pass.  Model families
    that share one generator and differ only in the initial state (node
    pools of different depths, over-provisioning levels) read their whole
    sweep off this vector.
    """
    return _occupancy(ctmc, reward, horizon)


def _occupancy(ctmc: Ctmc, reward: np.ndarray, horizon: float) -> np.ndarray:
    """The one occupancy kernel: ``int_0^horizon exp(Q s) ds @ reward``."""
    r = _check_reward(ctmc, reward)
    q = _uniformization_rate(ctmc, horizon, allow_zero=False)
    if q == 0.0:
        return r * horizon
    _check_dense_fits(ctmc.n)
    if _route(ctmc) == "squaring":
        occupancy = _propagator(ctmc, q, horizon, r)
    else:
        occupancy = _implicit_occupancy(ctmc, r, horizon, _IMPLICIT_TOL, q * horizon)
    # Either route can land an ulp outside the reward range.
    return np.clip(occupancy, 0.0, r.max() * horizon)


def _check_time(t: float, allow_zero: bool) -> None:
    if not math.isfinite(t) or t < 0.0 or (t == 0.0 and not allow_zero):
        kind = "nonnegative" if allow_zero else "positive"
        raise ValueError(f"time horizon must be finite and {kind}, got {t!r}")


def _is_integer(value) -> bool:
    """True for an integral number that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _uniformization_rate(ctmc: Ctmc, t: float, allow_zero: bool) -> float:
    """``q`` of a solve over ``t``, after checking ``t`` and that ``q*t`` does not overflow."""
    _check_time(t, allow_zero)
    q = _UNIFORMIZATION_SLACK * float(ctmc.exit_rates.max())
    if q * t == math.inf:   # t = 0 gives nan here, and needs no q
        raise ValueError(f"time horizon {t!r} is too long for rates up to {q:.3g}: "
                         "q*t overflows")
    return q


def _check_reward(ctmc: Ctmc, reward: np.ndarray) -> np.ndarray:
    r = np.asarray(reward, dtype=float)
    if r.shape != (ctmc.n,):
        raise ValueError(f"reward must have one entry per state ({ctmc.n}), "
                         f"got shape {r.shape}")
    if not np.all(np.isfinite(r)) or np.any(r < 0):
        raise ValueError("reward entries must be finite and nonnegative")
    return r


def _squaring_levels(qt: float) -> int:
    return max(1, math.ceil(math.log2(qt / _BASE_STEP_EVENTS)))


def _route(ctmc: Ctmc) -> str:
    """``"squaring"`` up to ``_SQUARING_MAX_N`` states, ``"implicit"`` above."""
    return "squaring" if ctmc.n <= _SQUARING_MAX_N else "implicit"


def _base_step_terms(qt: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(qt) pmf ``w[k]`` and tails ``P(N > k)`` for ``k = 0..K``.

    The pmf recurs from ``w[0] = exp(-qt)``, which stays normal because
    squaring keeps ``qt <= _BASE_STEP_EVENTS``.  It runs past the mode
    until a term falls below ``eps * _BASE_STEP_TOL``, so the reverse
    cumulative sums of the terms are the tails to rounding, with no
    ``1 - cumsum`` cancellation.  ``K`` is the first ``k`` whose tail is
    at most ``_BASE_STEP_TOL``.
    """
    floor = _BASE_STEP_TOL * np.finfo(float).eps
    terms = [math.exp(-qt)]
    while len(terms) <= qt or terms[-1] > floor:
        terms.append(terms[-1] * qt / len(terms))
    w = np.array(terms)
    tails = np.append(np.cumsum(w[:0:-1])[::-1], 0.0)
    last = int(np.argmax(tails <= _BASE_STEP_TOL))
    return w[:last + 1], tails[:last + 1]


def _implicit_occupancy(ctmc: Ctmc, reward: np.ndarray, t: float, tol: float,
                        qt: float) -> np.ndarray:
    """Occupancy from each start by Radau IIA on the complement of the reward.

    The complement ``v(t) = int_0^t exp(Q s) ds @ d``, ``d = max(r) - r``,
    solves ``v' = Q v + d`` from ``v(0) = 0``; integrating it makes the
    error estimate relative to the small downtime-style quantity.  The
    LU solves leave rounding noise of up to about ``n * eps * max(r) *
    t`` in every complement, so one below ``noise / tol`` is met to
    ``noise`` rather than to ``tol`` of itself: a start absorbing at
    ``max(r)``, whose complement is exactly zero, or one holding so many
    spares that its complement is 1e-13 of ``max(r) * t``.
    """
    top = float(reward.max())
    noise = ctmc.n * np.finfo(float).eps * top * t
    v = _radau(ctmc.generator, np.zeros(ctmc.n), t, tol, qt, noise / tol, top - reward)
    return top * t - v


def _radau(a, z0: np.ndarray, t: float, tol: float, qt: float,
           floor: float, forcing: np.ndarray | None = None) -> np.ndarray:
    """``z(t)`` of ``z' = a z + forcing`` by ``N`` equal Radau IIA steps.

    ``a`` is a scipy sparse matrix, ``Q`` or its transpose.

    A constant forcing is the augmented system ``[z, 1]' = [[a, forcing],
    [0, 0]] [z, 1]``; each shifted solve against it is eliminated by
    blocks, which leaves the forcing scaled by ``h / pole`` on the right
    and keeps the sparse factors of ``h a - pole I`` free of a dense
    column.  Steps of one size share the two factorizations.

    Runs of ``N`` and ``2N`` steps give the order-5 estimate ``|z_N -
    z_2N| / 31`` of each entry's error in ``z_2N``, which is returned once
    every estimate is at most ``tol * max(|z_2N|, floor)``: relative to
    the entry, but never finer than ``tol * floor``, such as the rounding
    noise the solves leave, which no step count removes.  Otherwise the
    estimate, falling like ``N**-5``, sizes the next pair; a pair beyond
    ``_IMPLICIT_MAX_STEPS`` fails the solve.
    """
    from scipy.sparse import csc_matrix, identity
    from scipy.sparse.linalg import splu

    n = a.shape[0]
    a = csc_matrix(a)
    eye = identity(n, format="csc")

    def advance(steps: int) -> np.ndarray:
        h = t / steps
        # Symmetric mode keeps COLAMD's order but lays the factors out so
        # that a solve runs about a third faster on the family chains.
        real = splu(h * a - _RADAU_REAL_POLE * eye, options={"SymmetricMode": True})
        cplx = splu(h * a - _RADAU_COMPLEX_POLE * eye, options={"SymmetricMode": True})
        push_real = push_cplx = 0.0
        if forcing is not None:
            push_real = (h / _RADAU_REAL_POLE) * forcing
            push_cplx = (h / _RADAU_COMPLEX_POLE) * forcing
        z = z0
        for _ in range(steps):
            z = (_RADAU_REAL_RESIDUE * real.solve(z + push_real)
                 + 2.0 * (_RADAU_COMPLEX_RESIDUE * cplx.solve(z + push_cplx)).real)
        return z

    steps = _IMPLICIT_FIRST_STEPS
    coarse = advance(steps)
    while True:
        fine = advance(2 * steps)
        estimate = np.abs(coarse - fine) / _RADAU_ERROR_DIVISOR
        scale = np.maximum(np.abs(fine), floor)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(estimate == 0.0, 0.0, estimate / scale)
        worst = float(ratio.max())   # a NaN fails every test below
        if worst <= tol:
            return fine
        target = steps * (worst / tol) ** 0.2 * _IMPLICIT_STEP_SAFETY
        grown = (2 * steps if target <= 2 * steps
                 else math.ceil(min(_IMPLICIT_MAX_STEPS, target)))
        if 2 * grown > _IMPLICIT_MAX_STEPS:
            raise ArithmeticError(
                f"implicit solve of a {n}-state chain at q*t = {qt:.3g} did "
                f"not converge: relative error estimate {worst:.2e} after "
                f"{2 * steps} steps exceeds tolerance {tol:.1e}")
        coarse = fine if grown == 2 * steps else advance(grown)
        steps = grown


def _propagator(ctmc: Ctmc, q: float, t: float,
                reward: np.ndarray | None = None) -> np.ndarray:
    """Repeated squaring: dense ``exp(Q t)``, or ``int_0^t exp(Q s) ds @ reward``.

    With a reward, the occupancy integral ``C`` is never formed: the
    block ``c = [C r, C 1]`` doubles as ``c += M c`` and is brought back
    to rows summing to the elapsed time by rescaling ``C r`` by
    ``dt / C 1``, which is the row renormalisation of ``C`` applied
    after the product with ``r``.  The last squaring of ``M`` is then
    not needed.
    """
    n = ctmc.n
    levels = _squaring_levels(q * t)
    dt = t / (1 << levels)

    w, tails = _base_step_terms(q * dt)
    right = len(w) - 1
    q_mat = np.zeros((n, n))
    q_mat[ctmc.rows, ctmc.cols] = ctmc.rates
    np.fill_diagonal(q_mat, -ctmc.exit_rates)
    p_step = np.eye(n) + q_mat / q

    # M(dt) sums P^k weighted by the Poisson pmf, c(dt) sums P^k [r, 1]
    # weighted by the Poisson tails.
    power = np.eye(n)
    m_mat = np.zeros((n, n))
    if reward is not None:
        u = np.column_stack([reward, np.ones(n)])
        c = np.zeros((n, 2))
    for k in range(right + 1):
        m_mat += w[k] * power
        if reward is not None:
            c += (tails[k] / q) * u
        if k < right:
            power = p_step @ power
            if reward is not None:
                u = p_step @ u
    del power   # free it before the squaring allocates
    _renormalize(m_mat)

    if reward is None:
        for _ in range(levels):
            m_mat = m_mat @ m_mat
            _renormalize(m_mat)
        return m_mat

    _rescale_occupancy(c, dt)
    for level in range(levels):
        c += m_mat @ c
        dt *= 2.0
        _rescale_occupancy(c, dt)
        if level + 1 < levels:
            m_mat = m_mat @ m_mat
            _renormalize(m_mat)
    return c[:, 0]


def _renormalize(mat: np.ndarray) -> None:
    """Rows back to sum one, then entries below ``_FLUSH`` to zero.

    No product of two kept entries is then subnormal, which would slow
    the next squaring several times over; the mass dropped is at most
    ``n * _FLUSH`` per row.
    """
    mat /= mat.sum(axis=1, keepdims=True)
    mat[mat < _FLUSH] = 0.0


def _rescale_occupancy(c: np.ndarray, elapsed: float) -> None:
    c[:, 0] *= elapsed / c[:, 1]
    c[:, 1] = elapsed


def _check_dense_fits(n: int) -> None:
    """Refuse a solve whose arrays could exceed physical memory.

    Squaring holds three dense n x n float arrays.  The implicit route's
    real and complex LU factors take as much at full fill, and SuperLU's
    fill is unknown before factoring, so both routes apply one bound.
    It depends on n alone, so a chain it refuses is refused at every
    ``q*t``.
    """
    physical = _physical_memory()
    if physical is None:
        return
    needed = _DENSE_ARRAYS * 8 * n * n
    if needed > physical:
        raise ValueError(
            f"a {n}-state chain may need about {needed / 1e9:.0f} GB to solve, "
            f"more than the {physical / 1e9:.0f} GB of physical memory; lower "
            f"search_cap or extra_nodes")


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):   # no sysconf: cannot tell
        return None
