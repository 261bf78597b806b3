"""Closed-form certification margins and statistical bounds on Monte-Carlo
vote probabilities.

Every function here is pure and safe for unrestricted concurrent use.
"""
from __future__ import annotations

import numpy as np
from scipy import stats

from .sampling import SmoothingParams

RHO_CAP = 10**6  # radius scans over the injected-node budget stop here


def _validate_counts(tau: int, rho: int) -> None:
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if rho < 0:
        raise ValueError("rho must be >= 0")


def prob_all_removed(params: SmoothingParams, tau: int, rho: int) -> float:
    """Probability that smoothing disconnects every injected node.

    An injected node vanishes from the sample if the node-deletion coin fires,
    or if each of its (at most tau) edges is dropped, an edge falling either
    to the edge coin or to deletion of the endpoint it attaches to. With rho
    independent injected nodes the probability is
    ``(p_n + (1 - p_n) * (p_e + p_n - p_e * p_n)**tau) ** rho``.
    """
    _validate_counts(tau, rho)
    if rho == 0:
        return 1.0
    q = params.p_e + params.p_n - params.p_e * params.p_n
    inner = params.p_n + (1.0 - params.p_n) * q**tau
    return inner**rho


def prob_all_removed_recsys(params: SmoothingParams, tau: int, rho: int) -> float:
    """Bipartite variant of :func:`prob_all_removed`.

    Injected users attach only to items, and items are never deleted, so each
    injected rating survives unless its own coin fires:
    ``(p_n + (1 - p_n) * p_e**tau) ** rho``.
    """
    _validate_counts(tau, rho)
    if rho == 0:
        return 1.0
    inner = params.p_n + (1.0 - params.p_n) * params.p_e**tau
    return inner**rho


def node_retention_probs(params: SmoothingParams, degree: int) -> tuple[float, float]:
    """Isolation probabilities of a degree-d node, clean and attacked.

    Returns ``(p_isolated, p_isolated_attacked_lower)``: the exact probability
    that smoothing isolates the node in the clean graph (exponent d) and a
    lower bound on the same probability after an attack that may at most
    double the node's degree (exponent 2d). The first always dominates the
    second since the per-edge survival factor is at most one.
    """
    if degree < 1:
        raise ValueError("exclusion mode is undefined for isolated nodes (degree 0)")
    if params.p_e >= 1.0 or params.p_n >= 1.0:
        raise ValueError("retention probabilities require p_e < 1 and p_n < 1")
    # A node is isolated as often as an injected node with its edges is removed.
    return (prob_all_removed(params, degree, 1),
            prob_all_removed(params, 2 * degree, 1))


def margin_include(p_top_lower: float, p_runner_upper: float,
                   p_all_removed: float) -> float:
    """Worst-case vote margin when isolated nodes still receive predictions:
    :func:`margin_exclude` for a node that is never isolated. Total in all
    arguments, including crossed bounds."""
    return margin_exclude(p_top_lower, p_runner_upper, p_all_removed, 0.0, 0.0)


def margin_exclude(p_top_lower: float, p_runner_upper: float, p_all_removed: float,
                   p_isolated: float, p_isolated_attacked_lower: float) -> float:
    """Worst-case vote margin when isolated nodes abstain from voting.

    ``p_isolated`` is the clean-graph isolation probability of the query node
    and ``p_isolated_attacked_lower`` the degree-doubled lower bound on the
    attacked one; the two sides of the margin are bounded with the endpoint
    that is conservative for each.
    """
    if p_isolated >= 1.0:
        raise ValueError("p_isolated must be < 1 (node would never vote)")
    kept_attacked = 1.0 - p_isolated_attacked_lower
    return (p_all_removed * (p_top_lower
                             - kept_attacked * p_runner_upper / (1.0 - p_isolated)
                             + kept_attacked)
            - kept_attacked)


def _checked_counts(successes, trials: int, level):
    if trials <= 0:
        raise ValueError("trials must be positive")
    successes = np.asarray(successes)
    if np.any((successes < 0) | (successes > trials)):
        raise ValueError("successes out of range")
    return successes, np.broadcast_to(level, successes.shape)


def clopper_pearson_lower(successes, trials: int, level):
    """One-sided Clopper-Pearson lower confidence limit at the given level.

    ``successes`` is a count or an array of counts out of ``trials``; a
    count gives a float, an array an array of limits. ``level`` may be an
    array of levels, one per count.
    """
    successes, level = _checked_counts(successes, trials, level)
    out = np.zeros(successes.shape)
    some = successes > 0
    s = successes[some]
    if s.size:  # scipy costs as much on an empty array as on a short one
        out[some] = stats.beta.ppf(level[some], s, trials - s + 1)
    return float(out) if out.ndim == 0 else out


def clopper_pearson_upper(successes, trials: int, level):
    """One-sided Clopper-Pearson upper confidence limit at the given level.

    Takes counts and levels like :func:`clopper_pearson_lower`.
    """
    successes, level = _checked_counts(successes, trials, level)
    out = np.ones(successes.shape)
    some = successes < trials
    s = successes[some]
    if s.size:
        out[some] = stats.beta.ppf(1.0 - level[some], s + 1, trials - s)
    return float(out) if out.ndim == 0 else out


def majority_pvalue(top_votes: int, runner_votes: int) -> float:
    """Exact two-sided binomial p-value of the top count at p = 1/2.

    The null distribution is symmetric, so both tails weigh the same and the
    p-value is twice the lower tail at the runner-up count.
    """
    if top_votes < runner_votes:
        raise ValueError("top_votes must be >= runner_votes")
    tail = stats.binom.cdf(runner_votes, top_votes + runner_votes, 0.5)
    return min(1.0, 2.0 * float(tail))


def abstain_test(top_votes: int, runner_votes: int, alpha: float) -> bool:
    """True when the top class is not statistically separable from the runner-up."""
    return majority_pvalue(top_votes, runner_votes) > alpha
