"""The BiGRU ensemble with parallel embedding layers (paper Figure 3).

Architecture, per tuple:

1. the tuple is pre-processed (numeric substitution) and rendered twice —
   as a *term* sequence and as a *cell* sequence (parallel inputs);
2. each path embeds its sequence (Word2Vec-initialized, fine-tuned
   end-to-end) and runs a bidirectional RNN over it;
3. the RNN output is **concatenated with the original embeddings** to form
   the enriched contextualized vectors ``c_i``;
4. each path is flattened; the two paths are concatenated;
5. a dense layer of 16 units, batch normalization, dropout, and a dense
   binary (sigmoid) classifier finish the model.

The recurrent cell is pluggable (``"gru"`` or ``"lstm"``) so the
Section 3.6 BiGRU-vs-BiLSTM ablation is a one-argument change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.classify.dataset import MetadataDataset
from repro.embeddings.tabular import TabularEmbedder
from repro.errors import ModelError, NotFittedError
from repro.neural.layers import (
    BatchNorm,
    Dense,
    Dropout,
    Embedding,
    GlobalAveragePooling,
)
from repro.neural.losses import BinaryCrossEntropy
from repro.neural.model import batches
from repro.neural.optimizers import Adam
from repro.neural.recurrent import Bidirectional
from repro.text.vocabulary import Vocabulary


@dataclass
class TrainingHistory:
    losses: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds)


class _SequencePath:
    """One parallel path: Embedding -> context encoder -> flatten.

    ``mode`` selects the Figure 3 design ("bi": bidirectional RNN whose
    output is concatenated with the original embeddings) or one of the
    ablation baselines the paper rejects in Section 3.6: "uni" (a
    traditional forward-only RNN, order-dependent) and "gap" (global
    average pooling over the static embeddings, which loses context).
    """

    def __init__(self, vocab_size: int, embed_dim: int, hidden: int,
                 seq_len: int, cell: str, seed: int,
                 pretrained: np.ndarray | None,
                 mode: str = "bi") -> None:
        if mode not in ("bi", "uni", "gap"):
            raise ModelError(f"unknown path mode {mode!r}")
        if cell not in ("gru", "lstm"):
            raise ModelError(f"unknown cell {cell!r}")
        self.embedding = Embedding(vocab_size, embed_dim, seed=seed,
                                   weights=pretrained)
        self.mode = mode
        if mode == "bi":
            factory = (Bidirectional.gru if cell == "gru"
                       else Bidirectional.lstm)
            self.encoder = factory(embed_dim, hidden, seed=seed + 1)
            context_width = 2 * hidden
        elif mode == "uni":
            from repro.neural.recurrent import GRU, LSTM  # noqa: PLC0415
            rnn_cls = GRU if cell == "gru" else LSTM
            self.encoder = rnn_cls(embed_dim, hidden, return_sequences=True,
                                   seed=seed + 1)
            context_width = hidden
        else:
            self.encoder = GlobalAveragePooling()
            context_width = 0
        self.seq_len = seq_len
        self.embed_dim = embed_dim
        self._context_width = context_width
        if mode == "gap":
            self.out_width = embed_dim
        else:
            self.out_width = seq_len * (context_width + embed_dim)
        self._embedded: np.ndarray | None = None

    @property
    def layers(self):
        return [self.embedding, self.encoder]

    def forward(self, indices: np.ndarray, training: bool) -> np.ndarray:
        embedded = self.embedding.forward(indices, training)
        self._embedded = embedded
        contextual = self.encoder.forward(embedded, training)
        if self.mode == "gap":
            return contextual
        enriched = np.concatenate([contextual, embedded], axis=-1)
        return enriched.reshape(len(indices), -1)

    def backward(self, grad_flat: np.ndarray) -> None:
        if self._embedded is None:
            raise ModelError("backward before forward")
        batch = grad_flat.shape[0]
        if self.mode == "gap":
            self.embedding.backward(self.encoder.backward(grad_flat))
            return
        grad = grad_flat.reshape(
            batch, self.seq_len, self._context_width + self.embed_dim
        )
        grad_context = grad[:, :, :self._context_width]
        grad_embedded_direct = grad[:, :, self._context_width:]
        grad_embedded_rnn = self.encoder.backward(grad_context)
        self.embedding.backward(grad_embedded_rnn + grad_embedded_direct)


class NeuralMetadataClassifier:
    """Figure 3's two-path BiRNN tuple classifier (GRU or LSTM cells)."""

    def __init__(self, vocabulary: Vocabulary, cell: str = "gru",
                 embed_dim: int = 24, hidden: int = 16,
                 max_terms: int = 24, max_cells: int = 8,
                 dense_units: int = 16, dropout: float = 0.2,
                 learning_rate: float = 0.005, seed: int = 0,
                 pretrained_vectors: np.ndarray | None = None,
                 mode: str = "bi") -> None:
        self.vocabulary = vocabulary
        self.cell = cell
        self.mode = mode
        self.embedder = TabularEmbedder(
            vocabulary, max_terms=max_terms, max_cells=max_cells
        )
        if pretrained_vectors is not None and \
                pretrained_vectors.shape[1] != embed_dim:
            raise ModelError(
                "pretrained vector width must equal embed_dim"
            )
        self.term_path = _SequencePath(
            len(vocabulary), embed_dim, hidden, max_terms, cell,
            seed=seed, pretrained=pretrained_vectors, mode=mode,
        )
        self.cell_path = _SequencePath(
            len(vocabulary), embed_dim, hidden, max_cells, cell,
            seed=seed + 10, pretrained=pretrained_vectors, mode=mode,
        )
        joint_width = self.term_path.out_width + self.cell_path.out_width
        self.dense = Dense(joint_width, dense_units, activation="relu",
                           seed=seed + 20)
        self.batch_norm = BatchNorm(dense_units)
        self.dropout = Dropout(dropout, seed=seed + 21)
        self.classifier = Dense(dense_units, 1, activation="sigmoid",
                                seed=seed + 22)
        self.loss = BinaryCrossEntropy()
        self.optimizer = Adam(learning_rate=learning_rate, clip_norm=5.0)
        self.seed = seed
        self._fitted = False

    # -- plumbing --------------------------------------------------------

    @property
    def _layers(self):
        return (self.term_path.layers + self.cell_path.layers
                + [self.dense, self.batch_norm, self.dropout,
                   self.classifier])

    @property
    def params(self) -> list[np.ndarray]:
        return [p for layer in self._layers for p in layer.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [g for layer in self._layers for g in layer.grads]

    def zero_grads(self) -> None:
        for layer in self._layers:
            layer.zero_grads()

    def _encode(self, cell_lists: list[list[str]]
                ) -> tuple[np.ndarray, np.ndarray]:
        terms = self.embedder.batch_term_indices(cell_lists)
        cells = self.embedder.batch_cell_indices(cell_lists)
        return terms, cells

    def _forward(self, terms: np.ndarray, cells: np.ndarray,
                 training: bool) -> np.ndarray:
        term_flat = self.term_path.forward(terms, training)
        cell_flat = self.cell_path.forward(cells, training)
        joint = np.concatenate([term_flat, cell_flat], axis=1)
        hidden = self.dense.forward(joint, training)
        hidden = self.batch_norm.forward(hidden, training)
        hidden = self.dropout.forward(hidden, training)
        return self.classifier.forward(hidden, training)

    def _backward(self, grad_output: np.ndarray) -> None:
        grad = self.classifier.backward(grad_output)
        grad = self.dropout.backward(grad)
        grad = self.batch_norm.backward(grad)
        grad = self.dense.backward(grad)
        split = self.term_path.out_width
        self.term_path.backward(grad[:, :split])
        self.cell_path.backward(grad[:, split:])

    # -- public API ---------------------------------------------------------

    def fit(self, dataset: MetadataDataset, epochs: int = 8,
            batch_size: int = 32) -> TrainingHistory:
        dataset.require_both_classes()
        terms, cells = self._encode(dataset.cell_lists)
        targets = dataset.labels.astype(np.float64)
        rng = np.random.default_rng(self.seed)
        history = TrainingHistory()
        for _ in range(epochs):
            started = time.perf_counter()
            epoch_loss, num_batches = 0.0, 0
            for batch_idx in batches(len(targets), batch_size, rng):
                outputs = self._forward(
                    terms[batch_idx], cells[batch_idx], training=True
                )
                probs = outputs[:, 0]
                batch_targets = targets[batch_idx]
                epoch_loss += self.loss.forward(probs, batch_targets)
                grad = self.loss.backward(probs, batch_targets)
                self.zero_grads()
                self._backward(grad[:, None])
                self.optimizer.step(self.params, self.grads)
                num_batches += 1
            history.losses.append(epoch_loss / max(1, num_batches))
            history.seconds.append(time.perf_counter() - started)
        self._fitted = True
        return history

    def predict_proba(self, dataset: MetadataDataset,
                      batch_size: int = 256) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError("NeuralMetadataClassifier.fit has not run")
        terms, cells = self._encode(dataset.cell_lists)
        chunks = []
        for batch_idx in batches(len(dataset), batch_size):
            outputs = self._forward(
                terms[batch_idx], cells[batch_idx], training=False
            )
            chunks.append(outputs[:, 0])
        return np.concatenate(chunks) if chunks else np.array([])

    def predict(self, dataset: MetadataDataset,
                threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(dataset) >= threshold).astype(int)

    def num_parameters(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.params)
