"""Sequential model: a stack of layers with a Keras-like training loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import ModelError
from repro.neural.layers import Layer
from repro.neural.losses import BinaryCrossEntropy
from repro.neural.metrics import binary_metrics
from repro.neural.optimizers import Adam


@dataclass
class History:
    """Per-epoch training history."""

    losses: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds)


def batches(num_samples: int, batch_size: int,
            rng: np.random.Generator | None = None
            ) -> Iterator[np.ndarray]:
    """Yield index batches, shuffled when an rng is supplied."""
    order = np.arange(num_samples)
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, num_samples, batch_size):
        yield order[start:start + batch_size]


class Sequential:
    """A linear stack of layers trained with mini-batch gradient descent."""

    def __init__(self, layers: list[Layer], loss=None, optimizer=None,
                 seed: int = 0) -> None:
        if not layers:
            raise ModelError("Sequential requires at least one layer")
        self.layers = layers
        self.loss = loss or BinaryCrossEntropy()
        self.optimizer = optimizer or Adam(clip_norm=5.0)
        self.seed = seed

    @property
    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def forward(self, inputs: np.ndarray,
                training: bool = False) -> np.ndarray:
        outputs = inputs
        for layer in self.layers:
            outputs = layer.forward(outputs, training)
        return outputs

    def backward(self, grad_outputs: np.ndarray) -> np.ndarray:
        grad = grad_outputs
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def fit(self, inputs: np.ndarray, targets: np.ndarray,
            epochs: int = 10, batch_size: int = 32,
            verbose: bool = False,
            validation_data: tuple[np.ndarray, np.ndarray] | None = None,
            patience: int | None = None) -> History:
        """Train; returns the loss/time history.

        With ``validation_data`` the held-out loss is recorded per epoch;
        adding ``patience`` enables early stopping — training halts once
        the validation loss fails to improve for that many consecutive
        epochs.
        """
        inputs = np.asarray(inputs)
        targets = np.asarray(targets, dtype=np.float64)
        if len(inputs) != len(targets):
            raise ModelError("inputs and targets disagree in length")
        if patience is not None and validation_data is None:
            raise ModelError("patience requires validation_data")
        rng = np.random.default_rng(self.seed)
        history = History()
        best_validation = float("inf")
        epochs_without_improvement = 0
        for epoch in range(epochs):
            started = time.perf_counter()
            epoch_loss = 0.0
            num_batches = 0
            for batch_idx in batches(len(inputs), batch_size, rng):
                batch_inputs = inputs[batch_idx]
                batch_targets = targets[batch_idx]
                outputs = self.forward(batch_inputs, training=True)
                flat_outputs = outputs.reshape(batch_targets.shape)
                epoch_loss += self.loss.forward(flat_outputs, batch_targets)
                grad = self.loss.backward(flat_outputs, batch_targets)
                self.zero_grads()
                self.backward(grad.reshape(outputs.shape))
                self.optimizer.step(self.params, self.grads)
                num_batches += 1
            history.losses.append(epoch_loss / max(1, num_batches))
            history.seconds.append(time.perf_counter() - started)
            if validation_data is not None:
                val_inputs, val_targets = validation_data
                val_targets = np.asarray(val_targets, dtype=np.float64)
                val_outputs = self.forward(
                    np.asarray(val_inputs), training=False
                )
                validation_loss = self.loss.forward(
                    val_outputs.reshape(val_targets.shape), val_targets
                )
                history.validation_losses.append(validation_loss)
                if patience is not None:
                    if validation_loss < best_validation - 1e-12:
                        best_validation = validation_loss
                        epochs_without_improvement = 0
                    else:
                        epochs_without_improvement += 1
                        if epochs_without_improvement >= patience:
                            history.stopped_early = True
                            break
            if verbose:
                print(f"epoch {epoch + 1}/{epochs} "
                      f"loss={history.losses[-1]:.4f}")
        return history

    def predict_proba(self, inputs: np.ndarray,
                      batch_size: int = 256) -> np.ndarray:
        """Predicted probabilities, flattened to (num_samples,)."""
        inputs = np.asarray(inputs)
        chunks = []
        for batch_idx in batches(len(inputs), batch_size):
            outputs = self.forward(inputs[batch_idx], training=False)
            chunks.append(outputs.reshape(len(batch_idx), -1)[:, 0])
        return np.concatenate(chunks) if chunks else np.array([])

    def predict(self, inputs: np.ndarray,
                threshold: float = 0.5) -> np.ndarray:
        """Hard binary labels in {0, 1}."""
        return (self.predict_proba(inputs) >= threshold).astype(int)

    def evaluate(self, inputs: np.ndarray,
                 targets: np.ndarray) -> dict[str, float]:
        """Binary P/R/F1/accuracy on a held-out set."""
        predictions = self.predict(inputs)
        return binary_metrics(np.asarray(targets), predictions)

    def num_parameters(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.params)
