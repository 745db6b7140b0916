"""Minimal neural-network core: layers, losses, Adam, gradient checking."""

from .activations import (
    relu,
    sigmoid,
    sigmoid_backward,
    softmax,
    tanh,
    tanh_backward,
)
from .adam import Adam
from .gradcheck import GradCheckReport, check_layer, gradient_check, numeric_gradient
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
    binary_cross_entropy_grad,
    binary_logit_grad,
    sparse_categorical_cross_entropy,
    sparse_categorical_logit_grad,
)
from .tensor import active_dtype, precision

__all__ = [
    "Adam",
    "Conv1D",
    "Dense",
    "Dropout",
    "EPSILON",
    "Flatten",
    "GradCheckReport",
    "LSTM",
    "Layer",
    "MaxPool1D",
    "Parameter",
    "ReLU",
    "active_dtype",
    "binary_cross_entropy",
    "binary_cross_entropy_grad",
    "binary_logit_grad",
    "check_layer",
    "gradient_check",
    "numeric_gradient",
    "precision",
    "relu",
    "sigmoid",
    "sigmoid_backward",
    "softmax",
    "sparse_categorical_cross_entropy",
    "sparse_categorical_logit_grad",
    "tanh",
    "tanh_backward",
]
