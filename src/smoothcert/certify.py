"""Closed-form certification margins and statistical bounds on Monte-Carlo
vote probabilities.

Every function here is pure and safe for unrestricted concurrent use. The
statistics use ``scipy.special`` only: importing ``scipy.stats`` took
0.4-0.9 s and about 43 MB per process on a 2-vCPU machine. The bounds call
``betaincinv``, which agrees with ``stats.beta.ppf`` bit for bit, and the
p-value calls the binomial CDF kernel that ``stats.binom.cdf`` calls.
"""
from __future__ import annotations

from operator import index

import numpy as np
from scipy import special
from scipy.special._ufuncs import _binom_cdf

from .sampling import SmoothingParams

RHO_CAP = 10**6  # radius searches over the injected-node budget stop here


def largest_certified_rho(holds, rows: int) -> np.ndarray:
    """Each of ``rows`` certificates' radius: the largest budget rho in
    ``[0, RHO_CAP]`` at which it holds, or -1 where it fails at rho = 0.

    ``holds(rho, live)`` tests the rows ``live`` at the int64 budgets ``rho``,
    one each, and must be true on ``0..radius`` only. Each row is tested at
    rho = 0, then at doubling budgets while it passes, then by halving the
    interval up to its first failure: a scan's answer in about 2 log2(radius)
    tests instead of radius + 2.
    """
    passed = np.full(rows, -1, dtype=np.int64)          # largest budget held
    failed = np.full(rows, RHO_CAP + 1, dtype=np.int64)  # smallest budget failed
    live = np.arange(rows)
    while live.size:
        lo, hi = passed[live], failed[live]
        rho = np.where(hi > RHO_CAP, np.minimum(2 * lo + 2, RHO_CAP), (lo + hi) // 2)
        ok = np.asarray(holds(rho, live), dtype=bool)
        passed[live[ok]] = rho[ok]
        failed[live[~ok]] = rho[~ok]
        live = live[failed[live] - passed[live] > 1]
    return passed


def _all_removed(p_n: float, q: float, tau, rho):
    """``(p_n + (1 - p_n) * q**tau) ** rho``: the probability that each of
    rho injected nodes is deleted or loses all its (at most tau) edges, an
    edge being lost with probability ``q``. Integers give a float, and a 1-d
    integer array of ``tau`` or of ``rho`` an array, each distinct value
    evaluated once. Python's scalar powers throughout: numpy's array power
    rounds some of them differently."""
    if np.ndim(tau) or np.ndim(rho):
        by_tau = np.ndim(tau) > 0
        values, at = np.unique(tau if by_tau else rho, return_inverse=True)
        return np.array([_all_removed(p_n, q, v, rho) if by_tau
                         else _all_removed(p_n, q, tau, v)
                         for v in values.tolist()])[at]
    tau, rho = index(tau), index(rho)
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    return 1.0 if rho == 0 else (p_n + (1.0 - p_n) * q**tau) ** rho


def prob_all_removed(params: SmoothingParams, tau, rho):
    """Probability that smoothing disconnects every injected node.

    An injected node vanishes from the sample if the node-deletion coin fires,
    or if each of its (at most tau) edges is dropped, an edge falling either
    to the edge coin or to deletion of the endpoint it attaches to. With rho
    independent injected nodes the probability is
    ``(p_n + (1 - p_n) * (p_e + p_n - p_e * p_n)**tau) ** rho``, at each
    value of a 1-d integer array of ``tau`` or of ``rho``."""
    q = params.p_e + params.p_n - params.p_e * params.p_n
    return _all_removed(params.p_n, q, tau, rho)


def prob_all_removed_recsys(params: SmoothingParams, tau, rho):
    """Bipartite variant of :func:`prob_all_removed`, over the same arguments.

    Injected users attach only to items, and items are never deleted, so each
    injected rating survives unless its own coin fires:
    ``(p_n + (1 - p_n) * p_e**tau) ** rho``.
    """
    return _all_removed(params.p_n, params.p_e, tau, rho)


def node_retention_probs(params: SmoothingParams, degree):
    """Isolation probabilities of a degree-d node, clean and attacked.

    Returns ``(p_isolated, p_isolated_attacked_lower)``: the exact probability
    that smoothing isolates the node in the clean graph (exponent d) and a
    lower bound on the same probability after an attack that may at most
    double the node's degree (exponent 2d). The first always dominates the
    second since the per-edge survival factor is at most one. A 1-d integer
    array of degrees gives a pair of arrays."""
    if np.any(np.less(degree, 1)):
        raise ValueError("exclusion mode is undefined for isolated nodes (degree 0)")
    if params.p_e >= 1.0 or params.p_n >= 1.0:
        raise ValueError("retention probabilities require p_e < 1 and p_n < 1")
    # A node is isolated as often as an injected node with its edges is removed.
    return (prob_all_removed(params, degree, 1),
            prob_all_removed(params, 2 * degree, 1))


def margin(p_top_lower, p_runner_upper, p_all_removed, p_isolated=0.0,
           p_isolated_attacked_lower=0.0):
    """Worst-case vote margin of the certificate, over floats or arrays.

    When isolated nodes abstain from voting (exclude mode),
    ``p_isolated`` is the clean-graph isolation probability of the query node
    and ``p_isolated_attacked_lower`` the degree-doubled lower bound on the
    attacked one; the two sides of the margin are bounded with the endpoint
    that is conservative for each. When isolated nodes still receive
    predictions (include mode), both are zero: a node that is never
    isolated. Total in the first three arguments, including crossed bounds.
    """
    if np.any(np.greater_equal(p_isolated, 1.0)):
        raise ValueError("p_isolated must be < 1 (node would never vote)")
    kept_attacked = 1.0 - p_isolated_attacked_lower
    return (p_all_removed * (p_top_lower
                             - kept_attacked * p_runner_upper / (1.0 - p_isolated)
                             + kept_attacked)
            - kept_attacked)


margin_include = margin_exclude = margin  # the two modes' names


def _checked_counts(successes, trials: int, level):
    """``successes`` as int64, whatever narrower integer type holds them,
    and ``level`` broadcast to their shape."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    successes = np.asarray(successes)
    if np.any((successes < 0) | (successes > trials)):
        raise ValueError("successes out of range")
    return (successes.astype(np.int64, copy=False),
            np.broadcast_to(level, successes.shape))


def _once_per_pair(bound, trials: int, s: np.ndarray, level: np.ndarray):
    """``bound(s, level)`` over 1-d counts ``s`` in ``[0, trials]`` and their
    levels, evaluated once per distinct (count, level) pair and gathered:
    a curve's bounds repeat a few hundred pairs over tens of thousands of
    entries. Each pair goes through the same call, so the bits match an
    element-wise call."""
    levels, rank = np.unique(level, return_inverse=True)
    if (int(trials) + 1) * levels.size > 2**63:  # a key would overflow int64
        return bound(s, level)
    pairs, at = np.unique(s * levels.size + rank, return_inverse=True)
    return bound(pairs // levels.size, levels[pairs % levels.size])[at]


def clopper_pearson_lower(successes, trials: int, level):
    """One-sided Clopper-Pearson lower confidence limit at the given level.

    ``successes`` is a count or an array of counts out of ``trials``; a
    count gives a float, an array an array of limits. ``level`` may be an
    array of levels, one per count.
    """
    successes, level = _checked_counts(successes, trials, level)
    out = np.zeros(successes.shape)
    some = successes > 0
    out[some] = _once_per_pair(
        lambda s, lv: special.betaincinv(s, trials - s + 1, lv),
        trials, successes[some], level[some])
    return float(out) if out.ndim == 0 else out


def clopper_pearson_upper(successes, trials: int, level):
    """One-sided Clopper-Pearson upper confidence limit at the given level.

    Takes counts and levels like :func:`clopper_pearson_lower`.
    """
    successes, level = _checked_counts(successes, trials, level)
    out = np.ones(successes.shape)
    some = successes < trials
    out[some] = _once_per_pair(
        lambda s, lv: special.betaincinv(s + 1, trials - s, 1.0 - lv),
        trials, successes[some], level[some])
    return float(out) if out.ndim == 0 else out


def majority_pvalue(top_votes: int, runner_votes: int) -> float:
    """Exact two-sided binomial p-value of the top count at p = 1/2.

    The null distribution is symmetric, so both tails weigh the same and the
    p-value is twice the lower tail at the runner-up count.
    """
    if top_votes < runner_votes:
        raise ValueError("top_votes must be >= runner_votes")
    if runner_votes < 0:
        raise ValueError("runner_votes must be >= 0")
    trials = top_votes + runner_votes
    if runner_votes >= trials:  # no votes: the CDF is 1 at its support's end
        return 1.0
    return min(1.0, 2.0 * float(_binom_cdf(runner_votes, trials, 0.5)))


def abstain_test(top_votes: int, runner_votes: int, alpha: float) -> bool:
    """True when the top class is not statistically separable from the runner-up."""
    return majority_pvalue(top_votes, runner_votes) > alpha
