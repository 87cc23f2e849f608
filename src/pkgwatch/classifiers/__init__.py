"""Classifier estimators, the model table, evaluation harness, and model
persistence."""

from .base import check_labels, check_matrix
from .evaluation import (
    MODEL_IDS,
    MODEL_NB,
    MODEL_SVM,
    MODEL_TREE,
    MODELS,
    CrossValidationResult,
    LabeledDataset,
    Metrics,
    calibrate_nu,
    cross_validate,
    predict_all,
    stratified_folds,
    train_all,
)
from .naive_bayes import BernoulliNaiveBayes
from .ocsvm import LinearOneClassSvm
from .serialize import load_model, save_model
from .tree import DecisionTreeClassifier

__all__ = [
    "BernoulliNaiveBayes",
    "CrossValidationResult",
    "DecisionTreeClassifier",
    "LabeledDataset",
    "LinearOneClassSvm",
    "MODELS",
    "MODEL_IDS",
    "MODEL_NB",
    "MODEL_SVM",
    "MODEL_TREE",
    "Metrics",
    "calibrate_nu",
    "check_labels",
    "check_matrix",
    "cross_validate",
    "load_model",
    "predict_all",
    "save_model",
    "stratified_folds",
    "train_all",
]
