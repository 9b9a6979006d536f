"""Tests for the TransformerLM model."""

import numpy as np
import pytest

from repro.models.transformer import TransformerLM

from tests.conftest import make_tiny_config, make_tiny_llama_config


class TestConstruction:
    def test_same_seed_same_weights(self, tiny_config):
        a = TransformerLM(tiny_config, seed=7)
        b = TransformerLM(tiny_config, seed=7)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_different_seeds_differ(self, tiny_config):
        a = TransformerLM(tiny_config, seed=7)
        b = TransformerLM(tiny_config, seed=8)
        assert not np.array_equal(a.lm_head.weight.value, b.lm_head.weight.value)

    def test_parameter_count_matches_config(self, tiny_config):
        model = TransformerLM(tiny_config, seed=0)
        assert model.num_parameters() == tiny_config.num_parameters()

    def test_llama_has_no_positional_embedding(self):
        model = TransformerLM(make_tiny_llama_config(), seed=0)
        assert not model.uses_positional_embedding
        assert not hasattr(model, "position_embedding")

    def test_opt_has_positional_embedding(self, tiny_config):
        model = TransformerLM(tiny_config, seed=0)
        assert model.uses_positional_embedding


class TestLinearLayerEnumeration:
    def test_six_linears_per_block(self, untrained_model, tiny_config):
        names = untrained_model.linear_layer_names()
        assert len(names) == tiny_config.n_layers * 6
        assert untrained_model.num_quantization_layers == len(names)

    def test_lm_head_excluded_by_default(self, untrained_model):
        assert "lm_head" not in untrained_model.linear_layer_names()

    def test_lm_head_included_on_request(self, untrained_model):
        names = [n for n, _ in untrained_model.named_linear_layers(include_lm_head=True)]
        assert "lm_head" in names

    def test_order_is_stable(self, untrained_model):
        first = untrained_model.linear_layer_names()
        second = untrained_model.linear_layer_names()
        assert first == second

    def test_get_linear(self, untrained_model):
        name = untrained_model.linear_layer_names()[0]
        layer = untrained_model.get_linear(name)
        assert layer.full_name == name

    def test_get_linear_unknown_raises(self, untrained_model):
        with pytest.raises(KeyError):
            untrained_model.get_linear("blocks.99.attn.q_proj")


class TestForward:
    def test_logits_shape(self, untrained_model, tiny_config):
        tokens = np.zeros((2, 10), dtype=np.int64)
        logits = untrained_model.forward(tokens)
        assert logits.shape == (2, 10, tiny_config.vocab_size)

    def test_1d_input_promoted_to_batch(self, untrained_model, tiny_config):
        logits = untrained_model.forward(np.zeros(5, dtype=np.int64))
        assert logits.shape == (1, 5, tiny_config.vocab_size)

    def test_sequence_length_limit_enforced(self, untrained_model, tiny_config):
        too_long = np.zeros((1, tiny_config.max_seq_len + 1), dtype=np.int64)
        with pytest.raises(ValueError):
            untrained_model.forward(too_long)

    def test_forward_is_deterministic(self, untrained_model, rng):
        tokens = rng.integers(0, 100, size=(2, 8))
        np.testing.assert_array_equal(
            untrained_model.forward(tokens), untrained_model.forward(tokens)
        )

    def test_causality_of_full_model(self, untrained_model, rng):
        tokens = rng.integers(4, 100, size=(1, 8))
        logits_full = untrained_model.forward(tokens)
        altered = tokens.copy()
        altered[0, -1] = (altered[0, -1] + 1) % 100
        logits_altered = untrained_model.forward(altered)
        np.testing.assert_allclose(logits_full[0, :-1], logits_altered[0, :-1], atol=1e-10)


class TestLossAndGradients:
    def test_loss_positive_and_near_uniform_for_untrained(self, untrained_model, tiny_config, rng):
        tokens = rng.integers(4, tiny_config.vocab_size, size=(4, 16))
        loss = untrained_model.loss(tokens)
        assert 0 < loss < np.log(tiny_config.vocab_size) + 1.0

    def test_loss_and_gradients_populates_grads(self, untrained_model, rng):
        tokens = rng.integers(4, 100, size=(2, 12))
        untrained_model.zero_grad()
        untrained_model.loss_and_gradients(tokens)
        grad_norms = [np.abs(p.grad).sum() for p in untrained_model.parameters()]
        assert sum(g > 0 for g in grad_norms) > len(grad_norms) * 0.8

    def test_loss_matches_loss_and_gradients(self, untrained_model, rng):
        tokens = rng.integers(4, 100, size=(2, 12))
        assert np.isclose(untrained_model.loss(tokens), untrained_model.loss_and_gradients(tokens))

    def test_model_gradient_check_on_small_subset(self, rng):
        """Finite-difference check of the end-to-end loss for a few weights."""
        config = make_tiny_config(name="grad-check", d_model=8, n_layers=1, n_heads=2, d_ff=16,
                                  vocab_size=32, max_seq_len=8)
        model = TransformerLM(config, seed=1)
        tokens = rng.integers(4, 32, size=(2, 6))
        model.zero_grad()
        model.loss_and_gradients(tokens)
        target = model.blocks[0].attn.q_proj.weight
        eps = 1e-5
        for index in [(0, 0), (3, 5), (7, 2)]:
            original = target.value[index]
            target.value[index] = original + eps
            up = model.loss(tokens)
            target.value[index] = original - eps
            down = model.loss(tokens)
            target.value[index] = original
            numeric = (up - down) / (2 * eps)
            assert np.isclose(target.grad[index], numeric, atol=1e-5)


class TestScoringUtilities:
    def test_token_log_probs_shape(self, untrained_model, rng):
        tokens = rng.integers(4, 100, size=(3, 9))
        log_probs = untrained_model.token_log_probs(tokens)
        assert log_probs.shape == (3, 8)
        assert np.all(log_probs <= 0)

    def test_sequence_log_likelihood_prefers_trained_patterns(self, trained_model, small_dataset):
        """A trained model should prefer real corpus text over noise."""
        tokens = small_dataset.validation.tokens[:20]
        context, continuation = tokens[:12], tokens[12:16]
        noise = np.full(4, small_dataset.vocabulary.first_regular_id + 90)
        good = trained_model.sequence_log_likelihood(context, continuation)
        bad = trained_model.sequence_log_likelihood(context, noise)
        assert good > bad

    def test_sequence_log_likelihood_requires_continuation(self, untrained_model):
        with pytest.raises(ValueError):
            untrained_model.sequence_log_likelihood(np.array([4, 5]), np.array([]))

    def test_greedy_generate_length(self, untrained_model):
        out = untrained_model.greedy_generate(np.array([4, 5, 6]), num_tokens=5)
        assert out.size == 8


class TestCloneAndState:
    def test_clone_preserves_function(self, untrained_model, rng):
        tokens = rng.integers(4, 100, size=(1, 8))
        clone = untrained_model.clone()
        np.testing.assert_allclose(untrained_model.forward(tokens), clone.forward(tokens))

    def test_clone_is_bit_identical(self, trained_model):
        clone = trained_model.clone()
        np.testing.assert_array_equal(clone.outlier_channels, trained_model.outlier_channels)
        ours, theirs = clone.state_dict(), trained_model.state_dict()
        assert list(ours) == list(theirs)
        for name, value in theirs.items():
            assert ours[name].tobytes() == value.tobytes(), name

    def test_from_state_needs_every_parameter(self, untrained_model):
        state = untrained_model.state_dict()
        del state["final_norm.gamma"]
        with pytest.raises(KeyError, match="final_norm.gamma"):
            TransformerLM.from_state(untrained_model.config, untrained_model.seed, state)

    def test_clone_is_independent(self, untrained_model):
        clone = untrained_model.clone()
        clone.lm_head.weight.value[...] = 0.0
        assert not np.array_equal(clone.lm_head.weight.value, untrained_model.lm_head.weight.value)
