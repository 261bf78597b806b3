"""Randomized-smoothing robustness certificates for graph classifiers and
recommenders under node-injection attacks."""

from .graph import (DataSplit, Graph, InteractionMatrix, ParseError,
                    PerturbationBudget, generate_sbm,
                    load_interaction_dataset, load_node_classification_dataset,
                    save_node_classification_dataset, seeded_split)
from .sampling import (SmoothedSample, SmoothingParams, derive_sample_seed,
                       sample_smoothed_graph, sample_smoothed_ratings)
from .certify import (abstain_test, clopper_pearson_lower, clopper_pearson_upper,
                      majority_pvalue, margin, margin_exclude, margin_include,
                      node_retention_probs, prob_all_removed,
                      prob_all_removed_recsys)
from .models import (ClassifierSpec, TrainedModel, predict,
                     train_predict_end_to_end, train_with_noise)
from .pipeline import (CertCurve, VoteTable,
                       average_certified_radius, certified_accuracy_curve,
                       certified_radii, collect_votes_evasion,
                       collect_votes_poisoning, write_report)
from .recsys import (ItemVoteTable, RecommenderCurve, build_similarity,
                     certified_overlap_radii, certify_user_overlap,
                     collect_item_votes, recommend_topk, recommender_curve,
                     top_items, write_recommender_report)
from .attack import (AttackPlan, apply_attack, craft_injection,
                     empirical_accuracy)

__version__ = "0.1.0"
