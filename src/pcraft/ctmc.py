"""Continuous-time Markov chain engine.

A chain is a set of hashable state labels, its off-diagonal rates as
numpy triplets, and an initial distribution.  Two solvers cover the
analyses the rest of the package needs:

* ``transient_distribution``: state distribution at time ``t``.
* ``cumulative_occupancy`` and ``occupancy_from_each_start``: expected
  reward-weighted occupancy time over a finite horizon
  (availability-style rewards), from the initial distribution or from
  every start state.  Both are one kernel: the first is the initial
  distribution times the second.  ``occupancy_from_each_start`` also
  takes an n x k block of rewards, solved together.

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

  Occupancy is carried as the n x (k + 1) block ``c = [C r_1 ... C r_k,
  C 1]`` for k rewards, where ``C = int_0^dt exp(Q*s) ds`` is never
  formed.  All terms are nonnegative, so the squaring never cancels, and
  the exact row-sum
  identities (``M`` stochastic, ``C`` rows summing to the elapsed time)
  are restored after every level.  Entries of ``M`` below
  ``sqrt(tiny)`` are then flushed to zero, so no product is subnormal.
* Implicit (on ``Q`` for occupancy, ``Q^T`` for the distribution), for
  larger chains: equal steps of the L-stable Radau IIA method (four
  stages, order 7; Reibman & Trivedi 1988, Malhotra, Muppala & Trivedi
  1994; Hairer & Wanner, *Solving ODEs II*, IV.5), each two complex
  sparse LU solves.  Its cost does not grow with ``q*t``: the stiff
  components decay within a step.  The step count doubles from 16, each
  fine run serving as the next coarse one, until runs of N and 2N steps
  agree.  Occupancy is integrated as the complement ``max(r) - r`` of
  the reward, so that the estimate is relative to the small
  downtime-style quantity, down to the rounding floor of the LU solves;
  k rewards are k forcing columns against the same two factorizations.

Accuracy is fixed, not a parameter, and both routes meet one bound:
from every start, the occupancy complement ``max(r) * T - occupancy``
is within ``max(1e-10 * complement, n * eps * max(r) * T)`` of its
exact value, relative to the downtime-style quantity down to the
rounding floor of an n-state solve (checked against 30-digit mpmath on
both routes); each column of a reward block meets it with its own
``max(r)``.  Each squaring base step drops 1e-15 of Poisson mass; the
implicit route stops once the estimated error of each complement is
within ``_IMPLICIT_TOL`` (1e-10) of the larger of it and the floor, and
that of each probability of a distribution within 1e-10.  A horizon
whose ``q*t`` is below the smallest normal float resolves no jump: its
occupancy is ``r * t`` and its distribution the initial one, exact to
rounding.

The implicit route's floor of 48 steps and four complex factorizations
costs more than the n**3 products of squaring on small chains, and less
once n**3 grows.  One round of the on-premises PF pool and ARA extras
sweeps (chains of 11 to 1016 states; the ``onprem-plan`` benchmark
workload) took 0.272, 0.260, 0.272 and 0.321 s with the switch at 64,
96, 128 and 160 states (median of 5, one OpenBLAS thread, 2-core
x86_64), so squaring keeps chains of up to 96 states.

Memory is decided in one place, ``_check_memory``: a call sums the bytes
of the stages it will hold at once (a solve's dense arrays; a
simulation's chain build, jump table and batch) and is refused, before
any is allocated, when the sum exceeds physical memory.

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
import sys
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
_SQUARING_MAX_N = 96            # larger chains take the implicit route
_IMPLICIT_TOL = 1e-10           # implicit route's relative error bound
_TINY = float(np.finfo(float).tiny)        # smallest normal float
_FLUSH = math.sqrt(_TINY)                  # ~1.5e-154: squares stay normal
_FLOAT_MAX = sys.float_info.max            # a Python float: compares exactly with any int

# Radau IIA (four stages, order 7) on a linear system z' = A z advances a
# step of size h exactly as z <- R(hA) z, where R is the (3,4) Pade
# approximant (840 + 360x + 60x^2 + 4x^3) / (840 - 480x + 120x^2 - 16x^3
# + x^4) of exp.  Its partial fractions are two conjugate pole pairs,
#     R(x) = 2 Re[c1 / (x - p1)] + 2 Re[c2 / (x - p2)],
# so a step is two complex shifted sparse solves.  The poles are roots of
# the denominator D, the residues N(p) / D'(p); written out so that
# importing runs no LAPACK.
_RADAU_POLES = (4.787193103128466 + 1.5674764168952082j,
                3.212806896871534 + 4.773087433276642j)
_RADAU_RESIDUES = (13.301539995971487 - 60.07173273704744j,
                   -11.301539995971487 + 12.47167585025023j)
_RADAU_ORDER = 7
_RADAU_ERROR_DIVISOR = 2.0 ** _RADAU_ORDER - 1.0   # Richardson estimate from N and 2N steps
_IMPLICIT_FIRST_STEPS = 16
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
    """State distribution at a nonnegative time ``t`` (in the generator's rate
    units) from ``ctmc.initial``, aligned with ``ctmc.states``; it sums to one.
    A chain whose dense solve could exceed physical memory is refused."""
    q = _uniformization_rate(ctmc, t, allow_zero=True)
    if q * t < _TINY:
        return ctmc.initial.copy()
    _check_memory("solving", ctmc.n, _dense_arrays(ctmc.n))
    if _route(ctmc) == "squaring":
        pi = ctmc.initial @ _propagator(ctmc, q, t, np.zeros(ctmc.n))[0]
    else:
        pi = np.maximum(_radau(ctmc.generator.T, ctmc.initial, t, q * t, 1.0), 0.0)
    return pi / pi.sum()


def cumulative_occupancy(ctmc: Ctmc, reward: np.ndarray, horizon: float) -> float:
    """Expected value, in reward units times time units, of ``int_0^horizon
    reward(X(s)) ds`` from ``ctmc.initial``, for one finite, nonnegative reward
    per state and a positive ``horizon`` in the generator's rate units.

    With a 0/1 reward this is the expected time spent in the selected
    states, so dividing by ``horizon`` gives interval availability.  A chain
    whose dense solve could exceed physical memory is refused.
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

    ``reward`` is one entry per state, or an ``(n, k)`` block of k reward
    columns, answered as an ``(n, k)`` block from the same solve: each
    column as accurate as its own one-column solve.
    """
    return _occupancy(ctmc, reward, horizon, block=True)


def _occupancy(ctmc: Ctmc, reward: np.ndarray, horizon: float,
               block: bool = False) -> np.ndarray:
    """The one occupancy kernel: ``int_0^horizon exp(Q s) ds @ reward``."""
    r = _check_reward(ctmc, reward, block)
    q = _uniformization_rate(ctmc, horizon, allow_zero=False)
    if q * horizon < _TINY:
        return r * horizon
    _check_memory("solving", ctmc.n, _dense_arrays(ctmc.n))
    if _route(ctmc) == "squaring":
        occupancy = _propagator(ctmc, q, horizon, r)[1]
    else:
        occupancy = _implicit_occupancy(ctmc, r, horizon, q * horizon)
    # Either route can land an ulp outside the reward range.
    return np.clip(occupancy, 0.0, r.max(axis=0) * horizon)


def _check_number(name: str, value, least: float = 0.0, *, above: bool = True,
                  integer: bool = False, most: float = math.inf):
    """The one rule for every public number: ``value`` if it is a real number,
    not a bool, finite, integral when ``integer``, above ``least`` (at least it,
    unless ``above``) and at most ``most``; otherwise a ``ValueError`` naming ``name``."""
    # Builtins are tested before the far slower numbers ABCs.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        ok = False
    elif integer:
        ok = isinstance(value, (int, numbers.Integral))
    else:   # refuses nan, +-inf and an int too large for a float
        ok = -_FLOAT_MAX <= value <= _FLOAT_MAX
    if ok and (value > least if above else value >= least) and value <= most:
        return value
    if most < math.inf:
        bounds = f"in [{least:g}, {most:g}]"
    elif least:
        bounds = f"{'above' if above else 'at least'} {least:g}"
    else:
        bounds = "positive" if above else "nonnegative"
    kind = f"an integer and {bounds}" if integer else f"{bounds} and finite"
    raise ValueError(f"{name} must be {kind}, got {value!r}")


def _check_time(t: float, allow_zero: bool) -> None:
    _check_number("time horizon", t, above=not allow_zero)


def _uniformization_rate(ctmc: Ctmc, t: float, allow_zero: bool) -> float:
    """``q`` of a solve over ``t``, after checking ``t`` and that ``q*t`` does not overflow."""
    _check_time(t, allow_zero)
    q = _UNIFORMIZATION_SLACK * float(ctmc.exit_rates.max())
    if q * t == math.inf:   # t = 0 gives nan here, and needs no q
        raise ValueError(f"time horizon {t!r} is too long for rates up to {q:.3g}: "
                         "q*t overflows")
    return q


def _check_reward(ctmc: Ctmc, reward: np.ndarray, block: bool = False) -> np.ndarray:
    """``reward`` as floats: one entry per state, or with ``block`` also an
    ``(n, k)`` array of k >= 1 reward columns."""
    r = np.asarray(reward, dtype=float)
    if r.shape != (ctmc.n,) and not (block and r.ndim == 2 and r.shape[0] == ctmc.n
                                     and r.shape[1] >= 1):
        columns = " or an (n, k) block of k >= 1 columns" if block else ""
        raise ValueError(f"reward must have one entry per state ({ctmc.n}){columns}, "
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


def _implicit_occupancy(ctmc: Ctmc, reward: np.ndarray, t: float,
                        qt: float) -> np.ndarray:
    """Occupancy from each start by Radau IIA on the complement of the reward.

    The complement ``v(t) = int_0^t exp(Q s) ds @ d``, ``d = max(r) - r``,
    solves ``v' = Q v + d`` from ``v(0) = 0``; integrating it makes the
    error estimate relative to the small downtime-style quantity.  The
    LU solves leave rounding noise of up to about ``n * eps * max(r) *
    t`` in every complement, so one below ``noise / _IMPLICIT_TOL`` is
    met to ``noise`` rather than to ``_IMPLICIT_TOL`` of itself: a start
    absorbing at ``max(r)``, whose complement is exactly zero, or one
    holding so many spares that its complement is 1e-13 of ``max(r) * t``.
    Each column of a reward block has its own ``max(r)`` and floor.
    """
    top = reward.max(axis=0)
    noise = ctmc.n * np.finfo(float).eps * top * t
    v = _radau(ctmc.generator, np.zeros(reward.shape), t, qt, noise / _IMPLICIT_TOL,
               top - reward)
    return top * t - v


def _radau(a, z0: np.ndarray, t: float, qt: float, floor: float,
           forcing: np.ndarray | None = None) -> np.ndarray:
    """``z(t)`` of ``z' = a z + forcing`` by ``N`` equal Radau IIA steps.

    ``a`` is a scipy sparse matrix, ``Q`` or its transpose.  ``z0`` and
    ``forcing`` are one vector or ``(n, k)`` blocks of k columns, each
    solve taking all k against the same factors; ``floor`` is a scalar
    or one per column.

    A constant forcing is the augmented system ``[z, 1]' = [[a, forcing],
    [0, 0]] [z, 1]``; each shifted solve against it is eliminated by
    blocks, which leaves the forcing scaled by ``h / pole`` on the right
    and keeps the sparse factors of ``h a - pole I`` free of a dense
    column.  Steps of one size share the two factorizations.

    ``N`` doubles from ``_IMPLICIT_FIRST_STEPS``, and each fine run is
    the next coarse one.  Runs of ``N`` and ``2N`` steps give the order-7
    estimate ``|z_N - z_2N| / 127`` of each entry's error in ``z_2N``,
    which is returned once every estimate is at most ``_IMPLICIT_TOL *
    max(|z_2N|, floor)``: relative to the entry, but never finer than
    ``_IMPLICIT_TOL * floor``, such as the rounding noise the solves
    leave, which no step count removes.  A run beyond
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
        lu1, lu2 = (splu(h * a - p * eye, options={"SymmetricMode": True})
                    for p in _RADAU_POLES)
        push1, push2 = (0.0 if forcing is None else (h / p) * forcing for p in _RADAU_POLES)
        c1, c2 = _RADAU_RESIDUES
        z = z0
        for _ in range(steps):
            z = 2.0 * ((c1 * lu1.solve(z + push1)).real + (c2 * lu2.solve(z + push2)).real)
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
        if worst <= _IMPLICIT_TOL:
            return fine
        if 4 * steps > _IMPLICIT_MAX_STEPS:
            raise ArithmeticError(
                f"implicit solve of a {n}-state chain at q*t = {qt:.3g} did "
                f"not converge: relative error estimate {worst:.2e} after "
                f"{2 * steps} steps exceeds tolerance {_IMPLICIT_TOL:.1e}")
        coarse, steps = fine, 2 * steps


def _propagator(ctmc: Ctmc, q: float, t: float,
                reward: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Repeated squaring: dense ``M = exp(Q t)`` and ``int_0^t exp(Q s) ds @ reward``.

    One Poisson series builds both over the base step, and one loop
    doubles both.  The occupancy integral ``C`` is never formed: the
    block ``c = [C r, C 1]`` (``[C r_1 ... C r_k, C 1]`` for an ``(n, k)``
    reward block) doubles as ``c += M c``, ahead of ``M = M M``.
    ``transient_distribution`` passes a zero reward and reads ``M``.
    """
    n = ctmc.n
    # Halving a subnormal horizon would round it, to zero at 5e-324; q*t
    # is then below 4, so the whole horizon is one base step.
    levels = _squaring_levels(q * t) if t >= _TINY else 0
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
    u = np.column_stack([reward, np.ones(n)])
    c = np.zeros(u.shape)
    for k in range(right + 1):
        m_mat += w[k] * power
        c += (tails[k] / q) * u
        if k < right:
            power = p_step @ power
            u = p_step @ u
    del power   # free it before the squaring allocates
    _restore(m_mat, c, dt)
    for _ in range(levels):
        c += m_mat @ c
        m_mat = m_mat @ m_mat
        dt *= 2.0
        _restore(m_mat, c, dt)
    return m_mat, c[:, :-1].reshape(reward.shape)


def _restore(m_mat: np.ndarray, c: np.ndarray, elapsed: float) -> None:
    """Restore the row sums: ``M`` stochastic, ``C 1`` the elapsed time.

    Each ``C r`` is rescaled by ``elapsed / C 1``, the row renormalisation
    of ``C`` applied after the product with ``r``.  Entries of ``M`` below
    ``_FLUSH`` then go to zero, so no product of two kept entries is
    subnormal, which would slow the next squaring several times over;
    the mass dropped is at most ``n * _FLUSH`` per row.
    """
    m_mat /= m_mat.sum(axis=1, keepdims=True)
    m_mat[m_mat < _FLUSH] = 0.0
    scale = elapsed / c[:, -1]
    for j in range(c.shape[1] - 1):   # a column at a time: no broadcast
        c[:, j] *= scale
    c[:, -1] = elapsed


def _dense_arrays(n: int) -> tuple[str, int, str]:
    """A solve's memory stage: squaring's three dense n x n arrays, which the
    implicit route's LU factors match at full fill (SuperLU's fill is unknown
    before factoring), so a chain is refused by n alone, at every ``q*t``."""
    return "the dense arrays", _DENSE_ARRAYS * 8 * n * n, "search_cap, extra_nodes or sert_multiplier"


def _check_memory(action: str, n: int, *stages: tuple[str, int, str]) -> None:
    """The one memory decision: refuse ``action`` on an ``n``-state chain when
    its ``(what, bytes, knob)`` stages, held at once, exceed physical memory,
    naming the total and the largest stage's knob to lower."""
    physical = _physical_memory()
    total = sum(stage[1] for stage in stages)
    if physical is not None and total > physical:
        what, size, knob = max(stages, key=lambda stage: stage[1])
        raise ValueError(
            f"{action} a {n}-state chain needs about {_gigabytes(total)} at once, more "
            f"than the {_gigabytes(physical)} of physical memory; the largest part, "
            f"{what} ({_gigabytes(size)}): lower {knob}")


def _gigabytes(size: int) -> str:
    return "%d.%d GB" % divmod((size + 5 * 10**7) // 10**8, 10)   # exact for ints of any size


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):   # no sysconf: cannot tell
        return None
