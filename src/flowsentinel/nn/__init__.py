"""Minimal neural-network core: float32 layers, losses and Adam.

The finite-difference gradient oracle that checks them lives in
``tests/conftest.py``.
"""

from .activations import (
    relu,
    sigmoid,
    sigmoid_backward,
    softmax,
    tanh,
    tanh_backward,
)
from .adam import Adam
from .layers import (
    LSTM,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool1D,
    Parameter,
    ReLU,
)
from .losses import (
    EPSILON,
    binary_cross_entropy,
    binary_logit_grad,
    sparse_categorical_cross_entropy,
    sparse_categorical_logit_grad,
)

__all__ = [
    "Adam",
    "Conv1D",
    "Dense",
    "Dropout",
    "EPSILON",
    "Flatten",
    "LSTM",
    "Layer",
    "MaxPool1D",
    "Parameter",
    "ReLU",
    "binary_cross_entropy",
    "binary_logit_grad",
    "relu",
    "sigmoid",
    "sigmoid_backward",
    "softmax",
    "sparse_categorical_cross_entropy",
    "sparse_categorical_logit_grad",
    "tanh",
    "tanh_backward",
]
