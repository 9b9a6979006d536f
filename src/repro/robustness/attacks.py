"""Declarative attack registry for the robustness gauntlet.

Every removal and forging attack in the repository — parameter overwriting,
re-watermarking, magnitude pruning, LoRA fine-tuning, RTN and GPTQ
re-quantization, scale tampering, outlier-column rewrites, structured
head/row pruning, the adaptive (algorithm-aware) attacker and
distillation-style model souping — is implemented by one spec class behind
one uniform interface:

    ``spec.apply(model, strength, rng) -> AttackOutcome``

so the :class:`~repro.robustness.gauntlet.Gauntlet` can execute arbitrary
(attack × strength × model) grids without knowing any attack's plumbing.
``strength`` is the attack's own sweep axis (weights per layer, bits per
layer, sparsity fraction, fine-tuning steps, target bit-width), whose valid
domain :meth:`AttackSpec.check_strength` states, and ``rng`` is a per-cell
generator derived by the gauntlet from its seed, so a grid's outcome is a
pure function of (subjects, attacks, strengths, seed) — never of execution
order or worker count.

The threat model (Section 3) gives the adversary full access to the deployed
integer weights and knowledge of the EmMark algorithm, but not the
full-precision model, the owner's signature or the seed.  Specs that need
attacker-side resources (a calibration corpus for re-watermarking and
fine-tuning) receive them at construction time via :func:`build_attack`,
keeping ``apply`` itself resource-free.  New attack scenarios plug in with
:func:`register_attack`:

>>> @register_attack
... class BitFlipAttack(AttackSpec):
...     name = "bit-flip"
...     ...
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.config import EmMarkConfig
from repro.engine.engine import get_default_engine
from repro.quant.base import QuantizedLinear, QuantizedModel
from repro.quant.llm_int8 import rewrite_outlier_entries
from repro.utils.rng import new_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import KeyLike

__all__ = [
    "AttackOutcome",
    "AttackSpec",
    "ATTACK_REGISTRY",
    "register_attack",
    "build_attack",
    "available_attacks",
    "corpus_free_attacks",
    "IdentityAttack",
    "OverwriteAttack",
    "RewatermarkAttack",
    "RewatermarkAttackConfig",
    "PruningAttack",
    "LoRAFineTuneAttack",
    "RequantizeAttack",
    "ScaleTamperingAttack",
    "OutlierColumnAttack",
    "StructuredPruningAttack",
    "AdaptiveOverwriteAttack",
    "OracleAdaptiveOverwriteAttack",
    "SoupAttack",
    "GPTQRequantizeAttack",
]


@dataclass
class AttackOutcome:
    """What one attack application produced.

    Attributes
    ----------
    model:
        The attacked model (always a copy; the subject is never mutated).
    attacker_key:
        What verifies the adversary's own watermark, for attacks that insert
        one (re-watermarking, the soup partner): the
        :class:`~repro.engine.ticket.VerificationTicket` their insertion
        built, not the full key, which is dropped with the attack.  The
        gauntlet additionally extracts the attacker's signature when this is
        present.
    info:
        Attack-specific JSON-able diagnostics (e.g. the LoRA attack's final
        loss, or whether the quantized weights moved).
    """

    model: QuantizedModel
    attacker_key: Optional[KeyLike] = None
    info: Dict[str, object] = field(default_factory=dict)


class AttackSpec:
    """Base class of registry attacks.

    Subclasses define the class attributes below and implement
    :meth:`apply`.  ``strength`` semantics are attack-specific; the
    ``strength_unit`` string documents them for reports and tables.
    """

    #: Registry name (also the CLI / server identifier).
    name: str = "abstract"
    #: Human-readable unit of the strength axis.
    strength_unit: str = ""
    #: Default sweep used when the caller does not pick strengths.
    default_strengths: Sequence[float] = ()
    #: Whether construction needs an attacker-side calibration corpus.
    requires_corpus: bool = False
    #: Whether construction needs the virgin (pre-watermark) base model and
    #: its activation statistics — the true two-clone scenarios, where the
    #: "attack" is another legitimate custody of the same open base.
    requires_base_model: bool = False
    #: Closed interval of valid strengths (read by :meth:`check_strength`).
    strength_bounds: Tuple[float, float] = (-math.inf, math.inf)
    #: Whether strengths are counts (weights, bits, steps) that must be whole.
    integer_strength: bool = False

    @classmethod
    def check_strength(cls, strength: float) -> None:
        """Raise ``ValueError`` unless ``strength`` lies in this attack's domain.

        :meth:`apply` calls it, and the gauntlet calls it for every cell
        while building a grid, so a bad strength is refused before any cell
        runs.  The default domain is every finite number.
        """
        value = float(strength)
        low, high = cls.strength_bounds
        if not (math.isfinite(value) and low <= value <= high):
            if high < math.inf:
                domain = f"in [{low:g}, {high:g}]"
            else:
                domain = f">= {low:g}" if low > -math.inf else "finite"
            raise ValueError(f"{cls.name} strength must be {domain}, got {strength!r}")
        if cls.integer_strength and not value.is_integer():
            raise ValueError(
                f"{cls.name} strength counts {cls.strength_unit} and must be a "
                f"whole number, got {strength!r}"
            )

    def apply(
        self, model: QuantizedModel, strength: float, rng: np.random.Generator
    ) -> AttackOutcome:
        """Attack ``model`` at ``strength`` and return the outcome."""
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """JSON-able description (used by reports and the service)."""
        return {
            "name": self.name,
            "strength_unit": self.strength_unit,
            "default_strengths": list(self.default_strengths),
            "requires_corpus": self.requires_corpus,
            "requires_base_model": self.requires_base_model,
        }


ATTACK_REGISTRY: Dict[str, Type[AttackSpec]] = {}


def register_attack(cls: Type[AttackSpec]) -> Type[AttackSpec]:
    """Class decorator adding an :class:`AttackSpec` to the registry."""
    if not getattr(cls, "name", None) or cls.name == "abstract":
        raise ValueError("attack specs must define a non-empty registry name")
    if cls.name in ATTACK_REGISTRY:
        raise ValueError(f"attack {cls.name!r} is already registered")
    ATTACK_REGISTRY[cls.name] = cls
    return cls


def available_attacks() -> List[str]:
    """Sorted names of every registered attack."""
    return sorted(ATTACK_REGISTRY)


def corpus_free_attacks() -> List[str]:
    """Names of attacks needing no attacker-side resources (server-safe).

    Excludes both corpus-backed specs and the true two-clone scenarios that
    need the virgin base model — the verification server holds keys and
    suspect snapshots only.
    """
    return sorted(
        name
        for name, cls in ATTACK_REGISTRY.items()
        if not cls.requires_corpus and not cls.requires_base_model
    )


def build_attack(
    name: str,
    calibration_corpus=None,
    base_model=None,
    base_activations=None,
    **kwargs,
) -> AttackSpec:
    """Instantiate a registered attack by name.

    Parameters
    ----------
    name:
        Registry name (see :func:`available_attacks`).
    calibration_corpus:
        Attacker-side corpus, forwarded to specs with
        ``requires_corpus=True`` and ignored otherwise.
    base_model, base_activations:
        The virgin (pre-watermark) quantized base and its activation
        statistics, forwarded to specs with ``requires_base_model=True``
        (the true two-clone scenarios) and ignored otherwise.
    kwargs:
        Spec-specific constructor arguments (e.g. ``style`` for overwrite).
    """
    try:
        cls = ATTACK_REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown attack {name!r}; available: {available_attacks()}"
        ) from exc
    init_kwargs = dict(kwargs)
    if cls.requires_corpus:
        if calibration_corpus is None:
            raise ValueError(
                f"attack {name!r} needs an attacker-side calibration corpus"
            )
        init_kwargs["calibration_corpus"] = calibration_corpus
    if cls.requires_base_model:
        if base_model is None or base_activations is None:
            raise ValueError(
                f"attack {name!r} needs the virgin base model and its activation "
                "statistics (base_model=..., base_activations=...)"
            )
        init_kwargs["base_model"] = base_model
        init_kwargs["base_activations"] = base_activations
    return cls(**init_kwargs)


def _derived_seed(rng: np.random.Generator) -> int:
    """A 31-bit seed drawn from the cell generator (deterministic per cell)."""
    return int(rng.integers(0, 2**31 - 1))


class _PerSubjectMemo:
    """Memoizes one expensive per-subject computation (corpus-backed attackers).

    A lock guards the memo maps only; the computation itself runs under a
    per-model lock (same protocol as ``FleetVerificationSession``), so
    distinct subjects compute concurrently while same-subject races share
    one computation.  Entries are keyed by ``id(model)`` and hold weakrefs —
    an id-reused object cannot alias a stale entry; dead entries are pruned
    on the next miss, no GC callbacks needed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_model: Dict[int, Tuple[weakref.ref, object]] = {}
        self._compute_locks: Dict[int, threading.Lock] = {}

    def __reduce__(self):
        # Locks and weakrefs don't pickle, and a memo keyed by ``id(model)``
        # is meaningless in another process anyway: attacks shipped to
        # process-pool gauntlet workers carry an *empty* memo and re-warm it
        # against the worker's own shared-memory model views.  (A plain
        # ``__getstate__`` returning ``{}`` would be skipped by pickle for
        # being falsy, so the reconstruction is spelled as ``__reduce__``.)
        return (self.__class__, ())

    def get(self, model: QuantizedModel, compute):
        key = id(model)
        with self._lock:
            entry = self._by_model.get(key)
            if entry is not None and entry[0]() is model:
                return entry[1]
            for dead in [k for k, (ref, _) in self._by_model.items() if ref() is None]:
                del self._by_model[dead]
                self._compute_locks.pop(dead, None)
            compute_lock = self._compute_locks.setdefault(key, threading.Lock())
        with compute_lock:
            with self._lock:
                entry = self._by_model.get(key)
                if entry is not None and entry[0]() is model:
                    return entry[1]
            value = compute()
            with self._lock:
                self._by_model[key] = (weakref.ref(model), value)
            return value


# ----------------------------------------------------------------------
# Built-in specs
# ----------------------------------------------------------------------
@register_attack
class IdentityAttack(AttackSpec):
    """No-op attack: the unmodified subject.

    Used for baseline rows of every sweep and for capacity studies (Figure
    3), where each subject carries a different payload and the interesting
    measurement is quality + WER of the *untouched* watermarked model.
    """

    name = "none"
    strength_unit = "-"
    default_strengths = (0,)

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        return AttackOutcome(model=model.clone())


@register_attack
class OverwriteAttack(AttackSpec):
    """Parameter overwriting (Figure 2a); strength = weights per layer.

    The threat model's "other values replace model parameters": the
    adversary rewrites randomly chosen weight positions in every
    quantization layer.  Section 5.3 sweeps 100–500 positions per layer and
    shows model quality collapsing well before the watermark does.  Two
    styles:

    * ``"resample"`` (default) — the chosen weights are replaced with fresh
      uniform levels of the quantization grid;
    * ``"increment"`` — the chosen weights move by a random ±1 step (the
      lighter variant of Section 5.3's prose).

    Both are oblivious to the watermark locations, so the WER only falls in
    proportion to the fraction of weights touched.  Positions are drawn from
    :meth:`~repro.quant.base.QuantizedLinear.quantized_mask`: LLM.int8()
    outlier columns are re-inserted at full precision by
    ``effective_weight()``, so hits there would change nothing the deployed
    model computes and would silently under-report the attack.
    """

    name = "overwrite"
    strength_unit = "weights/layer"
    default_strengths = (0, 100, 200, 300, 400, 500)
    strength_bounds = (0, math.inf)
    integer_strength = True
    STYLES = ("resample", "increment")

    def __init__(self, style: str = "resample") -> None:
        if style not in self.STYLES:
            raise ValueError(f"overwrite style must be one of {self.STYLES}, got {style!r}")
        self.style = style

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        per_layer = int(strength)
        seed = _derived_seed(rng)
        attacked = model.clone()
        if per_layer == 0:
            return AttackOutcome(model=attacked)
        for layer in attacked.iter_layers():
            layer_rng = new_rng(seed, "overwrite", layer.name)
            eligible = np.flatnonzero(layer.quantized_mask().reshape(-1))
            count = min(per_layer, eligible.size)
            if count == 0:
                continue
            positions = layer_rng.choice(eligible, size=count, replace=False)
            current = layer.weight_int.reshape(-1)[positions]
            if self.style == "resample":
                replacement = layer_rng.integers(
                    layer.grid.qmin, layer.grid.qmax + 1, size=count
                )
                deltas = replacement - current
            else:
                deltas = layer_rng.choice(np.array([-1, 1], dtype=np.int64), size=count)
            # The shared mutation primitive: grid-overflow handling matches
            # watermark insertion exactly.
            layer.add_to_weights(positions, deltas)
        return AttackOutcome(model=attacked)

    def describe(self):
        return {**super().describe(), "style": self.style}


@dataclass(frozen=True)
class RewatermarkAttackConfig:
    """The re-watermarking adversary's own EmMark hyper-parameters.

    ``alpha``, ``beta`` and ``seed`` are his scoring coefficients and
    sub-sampling seed — the paper sets them to 1, 1.5 and 22, all different
    from the owner's — and ``signature_seed`` seeds his Rademacher
    signature.  Bits per layer are the attack strength, not a field.
    """

    alpha: float = 1.0
    beta: float = 1.5
    seed: int = 22
    signature_seed: int = 999


@register_attack
class RewatermarkAttack(AttackSpec):
    """Re-watermarking (Figure 2b); strength = attacker bits per layer.

    The adversary knows EmMark's insertion algorithm but not the owner's
    secrets, so he runs the same scoring + insertion on the watermarked
    model with his own :class:`RewatermarkAttackConfig` (the paper's α=1,
    β=1.5, seed 22 by default; ``config_overrides`` may set any field) and
    with activations measured on the **quantized** model — he has no
    full-precision one.  His positions partially overlap the owner's, so
    the attack nibbles at the owner's WER, which Section 5.3 shows stays
    high even once the attacker's bits visibly damage the model.

    The activation estimate (attacker-side calibration corpus, quantized
    model) is computed once per subject per spec instance: it depends on
    neither the strength nor the cell RNG, so a sweep re-uses one estimate
    across all its strengths.  The outcome's ``attacker_key`` is the ticket
    the adversary's insertion built.
    """

    name = "rewatermark"
    strength_unit = "bits/layer"
    default_strengths = (0, 100, 150, 200, 250, 300)
    strength_bounds = (0, math.inf)
    integer_strength = True
    requires_corpus = True

    def __init__(self, calibration_corpus, **config_overrides) -> None:
        if "bits_per_layer" in config_overrides:
            raise ValueError(
                "rewatermark: bits_per_layer is the strength axis, not an override"
            )
        self.calibration_corpus = calibration_corpus
        # Built once so a bad override fails here, not in the first cell.
        self.config = RewatermarkAttackConfig(**config_overrides)
        self._memo = _PerSubjectMemo()

    def _attacker_activations(self, model: QuantizedModel):
        """The adversary's activation estimate for ``model`` (memoized per subject)."""
        # Looked up at call time, as the adaptive specs do.
        from repro.models.activations import collect_activation_stats

        return self._memo.get(
            model,
            lambda: collect_activation_stats(model.materialize(), self.calibration_corpus),
        )

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        bits_per_layer = int(strength)
        if bits_per_layer == 0:
            return AttackOutcome(model=model.clone())
        signature = new_rng(self.config.signature_seed, "attacker-signature").choice(
            np.array([-1, 1], dtype=np.int64),
            size=bits_per_layer * model.num_quantization_layers,
        )
        # replace() on a default config: only the fields the attacker
        # controls are overridden; every other EmMarkConfig field keeps its
        # default.
        attacker_config = replace(
            EmMarkConfig(),
            bits_per_layer=bits_per_layer,
            alpha=self.config.alpha,
            beta=self.config.beta,
            seed=self.config.seed,
            signature_seed=self.config.signature_seed,
        )
        attacked, _, report = get_default_engine().insert(
            model,
            self._attacker_activations(model),
            config=attacker_config,
            signature=signature,
        )
        return AttackOutcome(model=attacked, attacker_key=report.ticket)

    def describe(self):
        return {
            **super().describe(),
            "alpha": self.config.alpha,
            "beta": self.config.beta,
            "seed": self.config.seed,
            "signature_seed": self.config.signature_seed,
        }


@register_attack
class PruningAttack(AttackSpec):
    """Magnitude pruning; strength = sparsity fraction in [0, 1].

    Zeroes the smallest-magnitude fraction of every layer's integer weights.
    Sections 3 and 5.3 argue pruning is no viable removal attack on an
    already-compressed model: pruning hard enough to disturb the watermark
    (which sits on large-magnitude weights, pruned *last*) destroys the
    model's perplexity first.

    A layer of ``n`` weights loses ``k = round(n * sparsity)`` of them.  The
    threshold level ``t`` is the smallest ``|w|`` whose cumulative level
    count reaches ``k``; every weight with ``|w| < t`` is zeroed, and ties at
    the threshold level are admitted in index order until ``k`` are zeroed —
    exactly the set a stable ascending argsort of ``|w|`` puts first.  The
    magnitudes are integers in ``[0, qmax]``, so counting levels finds that
    set in O(n) per layer, with no sort.
    """

    name = "pruning"
    strength_unit = "sparsity"
    default_strengths = (0.0, 0.3, 0.6, 0.9)
    strength_bounds = (0.0, 1.0)

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        sparsity = float(strength)
        attacked = model.clone()
        if sparsity == 0.0:
            return AttackOutcome(model=attacked)
        for layer in attacked.iter_layers():
            count = int(round(layer.num_weights * sparsity))
            if count == 0:
                continue
            magnitude = np.abs(layer.weight_int)
            cumulative = np.cumsum(np.bincount(magnitude.reshape(-1)))
            threshold = int(np.searchsorted(cumulative, count))
            pruned = layer.weight_int * (magnitude >= threshold)
            admitted = count - (int(cumulative[threshold - 1]) if threshold else 0)
            pruned.reshape(-1)[np.flatnonzero(magnitude == threshold)[:admitted]] = 0
            layer.weight_int = pruned
        return AttackOutcome(model=attacked)


@register_attack
class LoRAFineTuneAttack(AttackSpec):
    """QLoRA-style fine-tuning; strength = optimization steps.

    The paper rules fine-tuning out as a removal attack because QLoRA
    freezes the quantized weights and learns additive low-rank adapters.
    The spec carries that out: it trains adapters on the attacker's corpus
    and ``info`` records the mechanical proof (``weights_unchanged``) plus
    the final loss (showing the adapters actually trained).  Verification
    reads the deployed quantized tensors, not the adapter outputs.
    """

    name = "lora-finetune"
    strength_unit = "steps"
    default_strengths = (0, 20, 60)
    strength_bounds = (0, math.inf)
    integer_strength = True
    requires_corpus = True

    def __init__(self, calibration_corpus, rank: int = 4) -> None:
        self.calibration_corpus = calibration_corpus
        self.rank = rank

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        if int(strength) == 0:
            return AttackOutcome(model=model.clone())
        # Imported lazily: the finetune package pulls in the training stack.
        from repro.finetune.lora import LoRAConfig, LoRAFineTuner

        config = LoRAConfig(
            rank=self.rank, steps=int(strength), seed=_derived_seed(rng)
        )
        attacked = model.clone()
        tuner = LoRAFineTuner(attacked, config=config)
        losses = tuner.fine_tune(self.calibration_corpus)["loss"]
        return AttackOutcome(
            model=attacked,
            info={
                "weights_unchanged": bool(tuner.quantized_weights_unchanged(model)),
                "final_loss": float(losses[-1]) if losses else float("nan"),
            },
        )


@register_attack
class RequantizeAttack(AttackSpec):
    """Re-quantization: dequantize and round-trip through RTN.

    Strength = target bit-width.  Whether the watermark survives depends on
    how far the attacker's grid is from the deployed one: a plain RTN model
    round-trips almost losslessly (the watermark rides along), while
    smoothing- or scale-changing deployments (SmoothQuant / AWQ) re-derive
    different integer levels and the integer-domain signature dissolves.
    The paper does not sweep this scenario — the registry exists to measure
    exactly such gaps.
    """

    name = "requantize"
    strength_unit = "bits"
    default_strengths = (8, 6, 4)
    strength_bounds = (2, 16)
    integer_strength = True

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        # Imported lazily to avoid a repro.quant.api ↔ attacks import cycle
        # at package-init time.
        from repro.quant.api import quantize_model

        requantized = quantize_model(model.materialize(), "rtn", bits=int(strength))
        return AttackOutcome(
            model=requantized, info={"requantized_bits": int(strength)}
        )


@register_attack
class GPTQRequantizeAttack(AttackSpec):
    """Re-quantization through GPTQ's error-compensated rounding.

    Strength = target bit-width.  The plain :class:`RequantizeAttack` rounds
    each weight independently (RTN), so a matching grid round-trips almost
    losslessly and the watermark rides along.  GPTQ instead quantizes column
    by column and pushes every column's rounding residue onto the columns not
    yet quantized, so integer levels move *even at the deployed bit-width* —
    a structurally different threat to an integer-domain signature, which is
    why the gauntlet measures it separately.  The adversary needs his own
    calibration corpus to estimate the layer Hessians.
    """

    name = "gptq-requantize"
    strength_unit = "bits"
    default_strengths = (8, 4)
    strength_bounds = (2, 16)
    integer_strength = True
    requires_corpus = True

    def __init__(self, calibration_corpus, damping: float = 0.01, act_order: bool = True) -> None:
        self.calibration_corpus = calibration_corpus
        self.damping = damping
        self.act_order = act_order

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        # Imported lazily: repro.quant.gptq's hook pulls in repro.quant.api.
        from repro.quant.gptq import gptq_requantize

        requantized = gptq_requantize(
            model,
            int(strength),
            self.calibration_corpus,
            damping=self.damping,
            act_order=self.act_order,
        )
        return AttackOutcome(
            model=requantized,
            info={"requantized_bits": int(strength), "method": "gptq"},
        )


@register_attack
class ScaleTamperingAttack(AttackSpec):
    """Scale tampering: perturb the float side of the quantization.

    Strength = relative perturbation bound.  Every per-output-channel
    ``scale`` (and, where present, every per-input-channel smoothing factor)
    is multiplied by a factor drawn uniformly from ``[1 − s, 1 + s]``; the
    integer weights — the only thing extraction reads — are untouched.  This
    probes whether an adversary can trade model quality against the watermark
    *outside* the integer domain: the expected answer (and the measured one)
    is that the WER stays at 100% while quality falls, i.e. the float side
    offers no removal leverage at all.
    """

    name = "scale-tamper"
    strength_unit = "rel-perturbation"
    default_strengths = (0.0, 0.05, 0.1, 0.3)
    strength_bounds = (0.0, math.inf)
    #: Multiplicative factors are clipped here so a large strength cannot
    #: zero or sign-flip a scale (which no rational attacker would ship).
    MIN_FACTOR = 0.05

    def __init__(self, tamper_smoothing: bool = True) -> None:
        self.tamper_smoothing = tamper_smoothing

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        bound = float(strength)
        attacked = model.clone()
        if bound == 0.0:
            return AttackOutcome(model=attacked)
        smoothed_layers = 0
        for layer in attacked.iter_layers():
            factors = 1.0 + rng.uniform(-bound, bound, size=layer.scale.shape)
            layer.scale = layer.scale * np.maximum(factors, self.MIN_FACTOR)
            if self.tamper_smoothing and layer.input_smoothing is not None:
                smoothing_factors = 1.0 + rng.uniform(
                    -bound, bound, size=layer.input_smoothing.shape
                )
                layer.input_smoothing = layer.input_smoothing * np.maximum(
                    smoothing_factors, self.MIN_FACTOR
                )
                smoothed_layers += 1
        return AttackOutcome(
            model=attacked,
            info={"weight_int_untouched": True, "layers_with_smoothing": smoothed_layers},
        )

    def describe(self):
        return {**super().describe(), "tamper_smoothing": self.tamper_smoothing}


@register_attack
class OutlierColumnAttack(AttackSpec):
    """Rewrite the full-precision outlier columns of LLM.int8() models.

    Strength = fraction of outlier entries resampled.  The inverse of the
    overwrite-placement fix: ``effective_weight()`` re-inserts
    ``outlier_weight`` verbatim over whatever the integer tensor holds, so
    rewriting those entries damages exactly the channels LLM.int8() deemed
    most activation-critical while leaving the integer-domain watermark
    untouched — quality collapses, WER stays at 100%.  On backends without an
    outlier decomposition the attack is a measured no-op (``info`` says so).
    """

    name = "outlier-rewrite"
    strength_unit = "fraction"
    default_strengths = (0.0, 0.5, 1.0)
    strength_bounds = (0.0, 1.0)

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        fraction = float(strength)
        attacked = model.clone()
        rewritten = 0
        outlier_layers = 0
        for layer in attacked.iter_layers():
            if layer.outlier_weight is not None:
                outlier_layers += 1
            rewritten += rewrite_outlier_entries(layer, fraction, rng)
        return AttackOutcome(
            model=attacked,
            info={
                "entries_rewritten": rewritten,
                "layers_with_outliers": outlier_layers,
                "weight_int_untouched": True,
            },
        )


@register_attack
class StructuredPruningAttack(AttackSpec):
    """Structured pruning: remove whole attention heads and MLP rows.

    Strength = fraction of structure removed per block.  Unlike magnitude
    pruning (scattered zeros, same shapes), this attack physically deletes
    output rows: the head rows of every ``q/k/v`` projection and a matching
    fraction of each ``mlp.fc_in``'s hidden rows.  The attacked tensors are
    genuinely narrower, so ownership verification exercises the
    ``strict_layout=False`` path — reshaped layers cannot be aligned with the
    key's reference and contribute 0% WER, while the untouched ``o_proj`` /
    ``fc_out`` layers keep their bits.  Quality evaluation still works: the
    kept rows are recorded in ``metadata["pruned_rows"]`` and
    :meth:`~repro.quant.base.QuantizedModel.materialize` scatters them back
    into zero-filled full-shape matrices (a removed row computes exactly
    nothing).  The measured story is honest and two-sided: structured pruning
    *does* break verification alignment — at the price of deleting a fraction
    of every block, which destroys the model long before a competitor could
    resell it.
    """

    name = "structured-prune"
    strength_unit = "fraction"
    default_strengths = (0.0, 0.25, 0.5)
    strength_bounds = (0.0, 1.0)

    @classmethod
    def check_strength(cls, strength):
        super().check_strength(strength)
        # Removing every row would leave no model to verify.
        if float(strength) == 1.0:
            raise ValueError(f"{cls.name} strength must be in [0, 1), got {strength!r}")

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        fraction = float(strength)
        attacked = model.clone()
        if fraction == 0.0:
            return AttackOutcome(model=attacked)
        n_heads = attacked.config.n_heads
        head_dim = attacked.config.d_model // n_heads
        heads_to_drop = min(int(round(fraction * n_heads)), n_heads - 1)
        # Head choices are drawn per block *before* the layer loop, in block
        # order, so q/k/v of one block lose the same heads and the draw
        # sequence never depends on dict iteration details.
        dropped_heads = {
            block: np.sort(rng.choice(n_heads, size=heads_to_drop, replace=False))
            for block in range(attacked.config.n_layers)
        } if heads_to_drop else {}
        pruned_rows: Dict[str, Dict[str, object]] = {}
        rows_removed = 0
        for name in attacked.layer_names():
            layer = attacked.layers[name]
            if name.endswith((".attn.q_proj", ".attn.k_proj", ".attn.v_proj")):
                block = int(name.split(".")[1])
                heads = dropped_heads.get(block)
                if heads is None:
                    continue
                drop = np.concatenate(
                    [np.arange(h * head_dim, (h + 1) * head_dim) for h in heads]
                )
            elif name.endswith(".mlp.fc_in"):
                count = min(
                    int(round(fraction * layer.out_features)), layer.out_features - 1
                )
                if count <= 0:
                    continue
                drop = np.sort(rng.choice(layer.out_features, size=count, replace=False))
            else:
                continue
            kept = np.setdiff1d(np.arange(layer.out_features), drop)
            attacked.layers[name] = _remove_rows(layer, kept)
            pruned_rows[name] = {
                "out_features": int(layer.out_features),
                "kept_rows": kept,
            }
            rows_removed += int(drop.size)
        if pruned_rows:
            attacked.metadata["pruned_rows"] = pruned_rows
        return AttackOutcome(
            model=attacked,
            info={
                "rows_removed": rows_removed,
                "layers_reshaped": len(pruned_rows),
                "heads_dropped_per_block": heads_to_drop,
            },
        )


def _remove_rows(layer: QuantizedLinear, kept: np.ndarray) -> QuantizedLinear:
    """A copy of ``layer`` keeping only the output rows in ``kept``."""
    return QuantizedLinear(
        name=layer.name,
        weight_int=layer.weight_int[kept],
        scale=layer.scale[kept].copy(),
        grid=layer.grid,
        bias=None if layer.bias is None else layer.bias[kept].copy(),
        input_smoothing=(
            None if layer.input_smoothing is None else layer.input_smoothing.copy()
        ),
        outlier_columns=(
            None if layer.outlier_columns is None else layer.outlier_columns.copy()
        ),
        outlier_weight=(
            None if layer.outlier_weight is None else layer.outlier_weight[kept].copy()
        ),
    )


@register_attack
class AdaptiveOverwriteAttack(AttackSpec):
    """The adaptive attacker: EmMark's own scoring turned against it.

    Strength = overwrites per layer (the Figure 2a axis).  The adversary
    knows the published algorithm — scoring function, pool rule, everything
    except the owner's secrets — so instead of spraying random positions he
    re-runs candidate selection himself: activations are *estimated* by
    running the quantized model he holds over his own corpus (he has no
    full-precision model), scoring is repeated at several (α, β) guesses, and
    the overwrites are concentrated on the **union** of the guessed candidate
    pools.

    What the resulting WER measures is the secrecy provided by the seed ``d``
    alone: even when the union pool covers the owner's true candidate pool,
    the attacker cannot tell *which* pool positions carry bits, so removing
    the watermark still requires rewriting a pool-sized fraction of the layer
    — the quality cost the quality columns record.  ``info`` reports how far
    each layer's union pool is from that worst case.
    """

    name = "adaptive-overwrite"
    strength_unit = "weights/layer"
    default_strengths = (0, 100, 200, 300)
    strength_bounds = (0, math.inf)
    integer_strength = True
    requires_corpus = True

    #: (α, β) guesses bracketing the published defaults (0.5/0.5) and the
    #: single-score extremes.
    DEFAULT_GUESSES = ((0.5, 0.5), (1.0, 1.5), (1.0, 0.0), (0.0, 1.0))

    def __init__(
        self,
        calibration_corpus,
        guesses: Sequence[Tuple[float, float]] = DEFAULT_GUESSES,
        pool_fraction: float = 0.25,
    ) -> None:
        if not guesses:
            raise ValueError("adaptive attacker needs at least one (alpha, beta) guess")
        if not 0.0 < pool_fraction <= 1.0:
            raise ValueError("pool_fraction must be in (0, 1]")
        self.calibration_corpus = calibration_corpus
        self.guesses = tuple((float(a), float(b)) for a, b in guesses)
        self.pool_fraction = float(pool_fraction)
        self._memo = _PerSubjectMemo()

    def _union_pools(self, model: QuantizedModel) -> Dict[str, np.ndarray]:
        """Per-layer union candidate pools of ``model`` (memoized per subject).

        The pools depend only on the subject's weights, the estimated
        activations and the constructor-fixed guesses — never on the cell
        RNG or the strength — so every subject in a grid pays for activation
        estimation and scoring exactly once, however many strengths sweep it.
        """
        # Imported lazily: core.scoring pulls no extra weight, but
        # models.activations → transformer keeps parity with the other
        # corpus-backed specs which defer their heavy imports.
        from repro.core.scoring import select_candidates
        from repro.models.activations import collect_activation_stats

        def compute() -> Dict[str, np.ndarray]:
            estimated = collect_activation_stats(
                model.materialize(), self.calibration_corpus
            )
            pools = {}
            for layer in model.iter_layers():
                saliency = estimated.channel_saliency(layer.name)
                pool_size = max(1, int(layer.num_weights * self.pool_fraction))
                guessed = [
                    select_candidates(
                        layer, saliency, alpha=alpha, beta=beta, pool_size=pool_size
                    ).candidate_indices
                    for alpha, beta in self.guesses
                ]
                pools[layer.name] = np.unique(np.concatenate(guessed))
            return pools

        return self._memo.get(model, compute)

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        per_layer = int(strength)
        attacked = model.clone()
        if per_layer == 0:
            return AttackOutcome(model=attacked)
        union_pools = self._union_pools(model)
        union_fractions = []
        overwritten = 0
        for layer in attacked.iter_layers():
            union = union_pools[layer.name]
            union_fractions.append(union.size / layer.num_weights)
            count = min(per_layer, union.size)
            positions = rng.choice(union, size=count, replace=False)
            current = layer.weight_int.reshape(-1)[positions]
            replacement = rng.integers(
                layer.grid.qmin, layer.grid.qmax + 1, size=count
            )
            layer.add_to_weights(positions, replacement - current)
            overwritten += count
        return AttackOutcome(
            model=attacked,
            info={
                "guesses": [list(guess) for guess in self.guesses],
                "mean_union_pool_fraction": float(np.mean(union_fractions)),
                "positions_overwritten": overwritten,
                "activations_estimated_on_quantized_model": True,
            },
        )

    def describe(self):
        return {
            **super().describe(),
            "guesses": [list(guess) for guess in self.guesses],
            "pool_fraction": self.pool_fraction,
        }


@register_attack
class OracleAdaptiveOverwriteAttack(AttackSpec):
    """The oracle-adaptive attacker: exact (α, β) and pool size, no seed ``d``.

    The strongest published-algorithm adversary short of holding the key: he
    knows the owner's *exact* scoring coefficients and candidate-pool sizing
    (not guesses — e.g. because the owner used the published defaults), so
    the only secrets left are the seed ``d`` and the full-precision
    activations.  He re-derives the candidate pool with activations
    estimated on the quantized model he holds, then overwrites a **pool
    coverage fraction** of it — the strength axis sweeps that fraction from
    0 to 1, charting secrecy vs. the quality the overwrites burn.

    What the residual WER at full coverage measures is the protection of
    ``A_f`` secrecy alone: the estimated pool only partially overlaps the
    owner's true (full-precision-scored) pool, and within the overlap the
    seed still hides which positions carry bits — so pushing the WER down
    keeps requiring pool-scale collateral damage.
    """

    name = "adaptive-oracle"
    strength_unit = "pool-coverage"
    default_strengths = (0.0, 0.25, 0.5, 1.0)
    strength_bounds = (0.0, 1.0)
    requires_corpus = True

    def __init__(self, calibration_corpus, owner_config=None) -> None:
        """``owner_config``: the owner's exact :class:`EmMarkConfig` (α, β and
        pool rule are read; the seed is deliberately ignored).  Defaults to
        the published per-model scaling rule, which *is* the owner's
        configuration whenever the owner used the defaults."""
        self.calibration_corpus = calibration_corpus
        self.owner_config = owner_config
        self._memo = _PerSubjectMemo()

    def _exact_pools(self, model: QuantizedModel) -> Dict[str, np.ndarray]:
        """The owner's candidate pool re-derived with estimated activations."""
        from repro.core.scoring import select_candidates
        from repro.models.activations import collect_activation_stats

        def compute() -> Dict[str, np.ndarray]:
            config = self.owner_config or EmMarkConfig.scaled_for_model(model)
            estimated = collect_activation_stats(
                model.materialize(), self.calibration_corpus
            )
            return {
                layer.name: select_candidates(
                    layer,
                    estimated.channel_saliency(layer.name),
                    alpha=config.alpha,
                    beta=config.beta,
                    pool_size=config.candidate_pool_size(layer.num_weights),
                    exclude_saturated=config.exclude_saturated,
                ).candidate_indices
                for layer in model.iter_layers()
            }

        return self._memo.get(model, compute)

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        coverage = float(strength)
        attacked = model.clone()
        if coverage == 0.0:
            return AttackOutcome(model=attacked)
        pools = self._exact_pools(model)
        overwritten = 0
        pool_total = 0
        for layer in attacked.iter_layers():
            pool = pools[layer.name]
            pool_total += int(pool.size)
            count = min(int(pool.size), int(round(coverage * pool.size)))
            if count <= 0:
                continue
            positions = rng.choice(pool, size=count, replace=False)
            current = layer.weight_int.reshape(-1)[positions]
            replacement = rng.integers(layer.grid.qmin, layer.grid.qmax + 1, size=count)
            layer.add_to_weights(positions, replacement - current)
            overwritten += count
        return AttackOutcome(
            model=attacked,
            info={
                "pool_coverage": coverage,
                "positions_overwritten": overwritten,
                "estimated_pool_size": pool_total,
                "knows_exact_coefficients": True,
                "knows_pool_size": True,
                "knows_seed": False,
                "activations_estimated_on_quantized_model": True,
            },
        )

    def describe(self):
        described = {**super().describe(), "owner_config_supplied": self.owner_config is not None}
        if self.owner_config is not None:
            described["alpha"] = self.owner_config.alpha
            described["beta"] = self.owner_config.beta
        return described


@register_attack
class SoupAttack(AttackSpec):
    """True two-clone souping: merge two independent custodies of one base.

    Strength = soup ratio ``t`` in [0, 1].  Two owners independently
    watermark the *same* virgin quantized base — the subject handed to the
    gauntlet is owner A's clone; the spec watermarks a second clone of the
    base with partner seeds (drawn from the cell RNG) for owner B.  The
    "attack" merges the clones position-wise in the integer domain: every
    position takes clone B's value with probability ``t`` (``t = 0`` is
    clone A untouched, ``t = 1`` clone B exactly).

    The gauntlet reports **both owners' evidence per cell** — owner A's WER
    (``wer_percent``) and owner B's (``attacker_wer_percent``) — so the
    sweep charts the honest coexistence story: each owner's extraction rate
    tracks the share of the soup drawn from their clone (A ≈ 100·(1−t),
    B ≈ 100·t), both decaying gracefully rather than either vanishing.

    This replaces the earlier fabricated-partner soup (which re-watermarked
    the *deployed* model, so the "partner" inherited A's bits); souping two
    genuinely independent clones of the same base is the scenario the
    ROADMAP's multi-owner fixtures exist for.
    """

    name = "soup"
    strength_unit = "soup-ratio"
    default_strengths = (0.0, 0.5, 1.0)
    strength_bounds = (0.0, 1.0)
    requires_base_model = True

    def __init__(
        self,
        base_model: QuantizedModel,
        base_activations,
        partner_bits_per_layer: Optional[int] = None,
    ) -> None:
        self.base_model = base_model
        self.base_activations = base_activations
        self.partner_bits_per_layer = partner_bits_per_layer

    def apply(self, model, strength, rng):
        self.check_strength(strength)
        ratio = float(strength)
        if ratio == 0.0:
            return AttackOutcome(model=model.clone())
        if self.base_model.layer_names() != model.layer_names():
            raise ValueError(
                "soup base model does not match the subject's layer layout; "
                "the two clones must share one virgin base"
            )
        partner_config = EmMarkConfig.scaled_for_model(
            self.base_model,
            bits_per_layer=self.partner_bits_per_layer,
            seed=_derived_seed(rng),
            signature_seed=_derived_seed(rng),
        )
        partner, _, partner_report = get_default_engine().insert(
            self.base_model, self.base_activations, config=partner_config
        )
        souped = model.clone()
        differing = 0
        taken = 0
        for name in souped.layer_names():
            base = souped.layers[name]
            other = partner.layers[name].weight_int
            diff_mask = other != base.weight_int
            take = rng.random(base.weight_int.shape) < ratio
            merged = np.where(take, other, base.weight_int)
            base.weight_int = merged
            differing += int(np.count_nonzero(diff_mask))
            taken += int(np.count_nonzero(diff_mask & take))
        return AttackOutcome(
            model=souped,
            attacker_key=partner_report.ticket,
            info={
                "soup_ratio": ratio,
                "true_two_clone": True,
                "positions_differing": differing,
                "positions_taken_from_partner": taken,
            },
        )

    def describe(self):
        return {**super().describe(), "partner_bits_per_layer": self.partner_bits_per_layer}
