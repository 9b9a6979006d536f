"""The simulated decoder-only transformer language model.

:class:`TransformerLM` combines the layers from :mod:`repro.models.layers`
into an OPT / LLaMA-style decoder:

``tokens → token embedding (+ learned positions for OPT) → N transformer
blocks → final norm → LM head → logits``

The class exposes exactly the handles the rest of the reproduction needs:

* ``forward`` with optional activation capture (the full-precision activation
  statistics EmMark's robustness score and the activation-aware quantizers
  consume),
* ``loss_and_gradients`` for the pre-training / fine-tuning loops,
* ``named_linear_layers`` enumerating the quantizable weight matrices in a
  stable order (these are the paper's "quantization layers"),
* ``sequence_log_likelihood`` used by the zero-shot evaluation harness, and
* ``clone`` / ``state_dict`` round-tripping for attacks that need pristine
  copies.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.models.config import ModelConfig
from repro.models.layers import (
    Embedding,
    LayerNorm,
    Linear,
    RMSNorm,
    TransformerBlock,
    cross_entropy,
    cross_entropy_backward,
)
from repro.models.parameters import ParameterModule
from repro.utils.rng import new_rng

__all__ = ["TransformerLM"]


class _Unsampled:
    """Stands in for the init RNG when every parameter is loaded right after.

    The layers draw their initial weights with ``rng.normal``; this returns
    uninitialised storage of the right shape instead of sampling it.  Only
    :meth:`TransformerLM.from_state` uses it, and it strict-loads every
    parameter before returning the model.
    """

    @staticmethod
    def normal(loc: float, scale: float, size) -> np.ndarray:
        return np.empty(size)


class TransformerLM(ParameterModule):
    """Decoder-only transformer language model backed by NumPy.

    Parameters
    ----------
    config:
        Architecture description.
    seed:
        Seed for weight initialisation.  Two models built with the same
        config and seed are bit-identical.
    """

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        self._build(config, seed, sample_weights=True)

    @classmethod
    def from_state(
        cls, config: ModelConfig, seed: int, state: Dict[str, np.ndarray]
    ) -> "TransformerLM":
        """The model of ``config``/``seed`` holding the parameters in ``state``.

        The structural outlier channels are drawn from ``seed`` exactly as
        in ``__init__``; the random weight initialisation is skipped, since
        ``state`` is loaded strictly over every parameter (a missing or
        unexpected entry raises :class:`KeyError`).
        """
        model = cls.__new__(cls)
        model._build(config, seed, sample_weights=False)
        model.load_state_dict(state)
        return model

    def _build(self, config: ModelConfig, seed: int, sample_weights: bool) -> None:
        self.config = config
        self.seed = int(seed)
        rng = new_rng(seed, "model-init", config.name)
        outlier_count = max(1, int(round(config.d_model * config.outlier_channel_fraction)))
        outlier_channels = rng.choice(config.d_model, size=outlier_count, replace=False)
        self.outlier_channels = np.sort(outlier_channels)
        if not sample_weights:
            rng = _Unsampled()

        self.token_embedding = Embedding(config.vocab_size, config.d_model, rng, config.init_std)
        self.uses_positional_embedding = config.family != "llama2"
        if self.uses_positional_embedding:
            self.position_embedding = Embedding(
                config.max_seq_len, config.d_model, rng, config.init_std
            )
        self.blocks = [
            TransformerBlock(
                config.d_model,
                config.n_heads,
                config.d_ff,
                rng,
                norm_type=config.norm_type,
                activation=config.activation,
                init_std=config.init_std,
                outlier_channels=self.outlier_channels,
                outlier_gain=config.outlier_gain,
            )
            for _ in range(config.n_layers)
        ]
        norm_cls = LayerNorm if config.norm_type == "layernorm" else RMSNorm
        self.final_norm = norm_cls(config.d_model)
        self.lm_head = Linear(config.d_model, config.vocab_size, rng, config.init_std, bias=False)
        self._assign_linear_names()

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def _assign_linear_names(self) -> None:
        """Store each linear layer's dotted path on the layer itself."""
        for name, linear in self.named_linear_layers(include_lm_head=True):
            linear.full_name = name

    def named_linear_layers(
        self, include_lm_head: bool = False
    ) -> Iterator[Tuple[str, Linear]]:
        """Yield ``(dotted_name, Linear)`` for every quantizable projection.

        The iteration order is deterministic (block index, then q/k/v/o,
        fc_in, fc_out) — the quantization and watermarking code rely on the
        order being stable between runs.  The LM head is excluded by default
        because the quantization frameworks the paper builds on keep it in
        full precision.
        """
        for index, block in enumerate(self.blocks):
            yield f"blocks.{index}.attn.q_proj", block.attn.q_proj
            yield f"blocks.{index}.attn.k_proj", block.attn.k_proj
            yield f"blocks.{index}.attn.v_proj", block.attn.v_proj
            yield f"blocks.{index}.attn.o_proj", block.attn.o_proj
            yield f"blocks.{index}.mlp.fc_in", block.mlp.fc_in
            yield f"blocks.{index}.mlp.fc_out", block.mlp.fc_out
        if include_lm_head:
            yield "lm_head", self.lm_head

    def linear_layer_names(self) -> List[str]:
        """Names of the quantizable linear layers, in canonical order."""
        return [name for name, _ in self.named_linear_layers()]

    def get_linear(self, name: str) -> Linear:
        """Look up a linear layer by its dotted name."""
        for candidate_name, linear in self.named_linear_layers(include_lm_head=True):
            if candidate_name == name:
                return linear
        raise KeyError(f"no linear layer named {name!r}")

    @property
    def num_quantization_layers(self) -> int:
        """Number of quantizable linear layers (the paper's ``n``)."""
        return len(self.linear_layer_names())

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(
        self,
        tokens: np.ndarray,
        capture=None,
        return_cache: bool = False,
    ):
        """Compute logits for ``tokens`` of shape ``(batch, seq)``.

        Parameters
        ----------
        tokens:
            Integer token ids.
        capture:
            Optional activation-capture object with an ``update(name, x)``
            method; when provided, every linear layer reports its input.
        return_cache:
            When true, also return the cache needed for a backward pass.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        batch, seq = tokens.shape
        if seq > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {seq} exceeds max_seq_len {self.config.max_seq_len}"
            )
        hidden, cache_tok = self.token_embedding.forward(tokens)
        cache_pos = None
        if self.uses_positional_embedding:
            positions = np.broadcast_to(np.arange(seq), (batch, seq))
            pos_embed, cache_pos = self.position_embedding.forward(positions)
            hidden = hidden + pos_embed
        block_caches = []
        for block in self.blocks:
            hidden, block_cache = block.forward(hidden, capture)
            block_caches.append(block_cache)
        normed, cache_norm = self.final_norm.forward(hidden)
        logits, cache_head = self.lm_head.forward(normed, capture)
        if not return_cache:
            return logits
        cache = {
            "cache_tok": cache_tok,
            "cache_pos": cache_pos,
            "block_caches": block_caches,
            "cache_norm": cache_norm,
            "cache_head": cache_head,
        }
        return logits, cache

    def backward_from_logits(self, dlogits: np.ndarray, cache: Dict) -> None:
        """Back-propagate a logits gradient, accumulating parameter grads."""
        dnormed = self.lm_head.backward(dlogits, cache["cache_head"])
        dhidden = self.final_norm.backward(dnormed, cache["cache_norm"])
        for block, block_cache in zip(reversed(self.blocks), reversed(cache["block_caches"])):
            dhidden = block.backward(dhidden, block_cache)
        if self.uses_positional_embedding and cache["cache_pos"] is not None:
            self.position_embedding.backward(dhidden, cache["cache_pos"])
        self.token_embedding.backward(dhidden, cache["cache_tok"])

    def loss_and_gradients(self, tokens: np.ndarray) -> float:
        """Next-token cross-entropy loss on ``tokens``; accumulates gradients.

        Tokens of shape ``(batch, seq)`` are split into inputs
        ``tokens[:, :-1]`` and targets ``tokens[:, 1:]``.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        inputs, targets = tokens[:, :-1], tokens[:, 1:]
        logits, cache = self.forward(inputs, return_cache=True)
        flat_logits = logits.reshape(-1, self.config.vocab_size)
        flat_targets = targets.reshape(-1)
        loss, probs = cross_entropy(flat_logits, flat_targets)
        dlogits = cross_entropy_backward(probs, flat_targets).reshape(logits.shape)
        self.backward_from_logits(dlogits, cache)
        return loss

    def loss(self, tokens: np.ndarray) -> float:
        """Next-token cross-entropy loss without computing gradients."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        inputs, targets = tokens[:, :-1], tokens[:, 1:]
        logits = self.forward(inputs)
        flat_logits = logits.reshape(-1, self.config.vocab_size)
        flat_targets = targets.reshape(-1)
        loss, _ = cross_entropy(flat_logits, flat_targets)
        return loss

    # ------------------------------------------------------------------
    # Scoring / generation utilities
    # ------------------------------------------------------------------
    def token_log_probs(self, tokens: np.ndarray) -> np.ndarray:
        """Per-position log-probabilities of the observed next tokens.

        Returns an array of shape ``(batch, seq - 1)`` where entry ``[b, t]``
        is ``log p(tokens[b, t + 1] | tokens[b, : t + 1])``.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        inputs, targets = tokens[:, :-1], tokens[:, 1:]
        logits = self.forward(inputs)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        log_probs = shifted - log_z
        batch_index = np.arange(tokens.shape[0])[:, None]
        pos_index = np.arange(targets.shape[1])[None, :]
        return log_probs[batch_index, pos_index, targets]

    def sequence_log_likelihood(
        self, context: np.ndarray, continuation: np.ndarray, normalize: bool = True
    ) -> float:
        """Log-likelihood of ``continuation`` given ``context``.

        This is the scoring primitive of the zero-shot evaluation protocol:
        the candidate continuations of a multiple-choice example are ranked by
        this value.  When ``normalize`` is true the log-likelihood is divided
        by the continuation length (the "acc_norm" convention).
        """
        context = np.asarray(context, dtype=np.int64).reshape(-1)
        continuation = np.asarray(continuation, dtype=np.int64).reshape(-1)
        if continuation.size == 0:
            raise ValueError("continuation must contain at least one token")
        full = np.concatenate([context, continuation])[None, :]
        max_len = self.config.max_seq_len
        if full.shape[1] > max_len:
            full = full[:, -max_len:]
        log_probs = self.token_log_probs(full)[0]
        continuation_scores = log_probs[-continuation.size :]
        total = float(continuation_scores.sum())
        if normalize:
            return total / continuation.size
        return total

    def greedy_generate(self, prompt: np.ndarray, num_tokens: int) -> np.ndarray:
        """Greedy decoding used by the examples to show the model in action."""
        tokens = np.asarray(prompt, dtype=np.int64).reshape(-1).tolist()
        for _ in range(num_tokens):
            window = np.array(tokens[-self.config.max_seq_len :], dtype=np.int64)
            logits = self.forward(window[None, :])
            next_token = int(np.argmax(logits[0, -1]))
            tokens.append(next_token)
        return np.array(tokens, dtype=np.int64)

    # ------------------------------------------------------------------
    # Copy helpers
    # ------------------------------------------------------------------
    def clone(self) -> "TransformerLM":
        """Deep copy of the model (same config/seed, copied weights)."""
        return TransformerLM.from_state(self.config, self.seed, self.state_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TransformerLM({self.config.describe()})"
