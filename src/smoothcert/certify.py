"""Closed-form certification margins and statistical bounds on Monte-Carlo
vote probabilities.

Every function here is pure and safe for unrestricted concurrent use.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy import stats

from .graph import PerturbationBudget
from .sampling import SmoothingParams

RHO_CAP = 10**6  # radius scans over the injected-node budget stop here


class Outcome(Enum):
    CERTIFIED = "certified"
    ABSTAIN = "abstain"
    NOT_CERTIFIED = "not_certified"


@dataclass(frozen=True)
class VoteStats:
    """Top-two vote counts for one node out of ``num_samples`` draws."""

    top_votes: int
    runner_votes: int
    top_class: int
    runner_class: int
    num_samples: int
    abstain_count: int = 0

    def __post_init__(self):
        if self.num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if self.top_votes < self.runner_votes:
            raise ValueError("top_votes must be >= runner_votes")
        if min(self.top_votes, self.runner_votes, self.abstain_count) < 0:
            raise ValueError("counts must be non-negative")
        if self.top_votes + self.runner_votes + self.abstain_count > self.num_samples:
            raise ValueError("counts exceed num_samples")

    @classmethod
    def from_counts(cls, counts, num_samples: int, abstain_count: int = 0) -> "VoteStats":
        """Build stats from a per-class count vector (ties go to the lower id)."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size < 2:
            raise ValueError("counts must be a vector over >= 2 classes")
        top = int(np.argmax(counts))
        masked = counts.copy()
        masked[top] = -1
        runner = int(np.argmax(masked))
        return cls(top_votes=int(counts[top]), runner_votes=int(counts[runner]),
                   top_class=top, runner_class=runner,
                   num_samples=int(num_samples), abstain_count=int(abstain_count))


@dataclass(frozen=True)
class CertConfig:
    """Certification settings: significance level, class count, vote mode."""

    alpha: float
    num_classes: int
    mode: str = "include"

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.mode not in ("include", "exclude"):
            raise ValueError("mode must be 'include' or 'exclude'")


@dataclass(frozen=True)
class CertDecision:
    outcome: Outcome
    certified_class: Optional[int]
    margin: Optional[float]
    p_top_lower: Optional[float]
    p_runner_upper: Optional[float]


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
    q = params.p_e + params.p_n - params.p_e * params.p_n
    p_isolated = params.p_n + (1.0 - params.p_n) * q**degree
    p_isolated_attacked = params.p_n + (1.0 - params.p_n) * q**(2 * degree)
    return p_isolated, p_isolated_attacked


def margin_include(p_top_lower: float, p_runner_upper: float,
                   p_all_removed: float) -> float:
    """Worst-case vote margin when isolated nodes still receive predictions.

    Total in all arguments, including crossed bounds.
    """
    return p_all_removed * (p_top_lower - p_runner_upper + 1.0) - 1.0


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


def vote_bounds(votes: VoteStats, config: CertConfig) -> tuple[float, float]:
    """Confidence bounds on the top and runner-up vote probabilities.

    One-sided Clopper-Pearson limits, each at level ``alpha / num_classes``.
    """
    level = config.alpha / config.num_classes
    lower = clopper_pearson_lower(votes.top_votes, votes.num_samples, level)
    upper = clopper_pearson_upper(votes.runner_votes, votes.num_samples, level)
    return lower, upper


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


def _margin_for(votes_lower: float, votes_upper: float, params: SmoothingParams,
                tau: int, rho: int, mode: str, degree: Optional[int]) -> float:
    p_removed = prob_all_removed(params, tau, rho)
    if mode == "include":
        return margin_include(votes_lower, votes_upper, p_removed)
    if degree is None:
        raise ValueError("exclusion mode requires the node's original degree")
    p_iso, p_iso_attacked = node_retention_probs(params, degree)
    return margin_exclude(votes_lower, votes_upper, p_removed, p_iso, p_iso_attacked)


def certify_node(votes: VoteStats, params: SmoothingParams,
                 budget: PerturbationBudget, config: CertConfig,
                 degree: Optional[int] = None) -> CertDecision:
    """Certify one node's smoothed prediction against the given budget.

    Runs the abstention test at level ``alpha``; if the top class is
    separable, bounds the vote probabilities and evaluates the worst-case
    margin for the configured mode. The prediction is certified exactly when
    the margin is positive.
    """
    params.require_certifiable()
    if config.mode == "exclude" and (degree is None or degree < 1):
        raise ValueError("exclusion mode requires degree >= 1")
    if abstain_test(votes.top_votes, votes.runner_votes, config.alpha):
        return CertDecision(Outcome.ABSTAIN, None, None, None, None)
    lower, upper = vote_bounds(votes, config)
    margin = _margin_for(lower, upper, params, budget.tau, budget.rho,
                         config.mode, degree)
    if margin > 0.0:
        return CertDecision(Outcome.CERTIFIED, votes.top_class, margin, lower, upper)
    return CertDecision(Outcome.NOT_CERTIFIED, None, margin, lower, upper)
