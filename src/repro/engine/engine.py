"""The unified watermarking engine.

:class:`WatermarkEngine` is the single shared execution substrate underneath
every EmMark pipeline in the repository: insertion and extraction, the
ownership-verification entry points, and the attack/ablation experiment
sweeps.  It combines three mechanisms:

1. **Cached location plans** — scoring + seeded sub-sampling per layer is a
   pure function of its inputs, so the engine memoizes each
   :class:`~repro.engine.plan.LocationPlan` in an LRU
   :class:`~repro.engine.cache.PlanCache` keyed by a content fingerprint.
   Insertion warms the cache; every later extraction or verification against
   the same key performs **zero rescoring**.
2. **Fused top-k scoring** — planning calls the
   :func:`repro.core.scoring.select_candidates` kernel, which ranks with
   ``np.argpartition`` + a stable pool sort and keeps exclusions as boolean
   masks (see :mod:`repro.core.scoring`).
3. **A serial per-layer loop** — each call scores, inserts or reproduces its
   layers one after another, in canonical layer order, on the caller's own
   thread.  Per-layer NumPy work is too short to release the GIL, so a thread
   pool would add hand-offs and no parallelism; concurrency lives one level
   up, in the callers (the gauntlet's cell executors, the service's request
   threads), which may share one engine and its thread-safe plan cache.

On top of the single-model operations the engine exposes the batch serving
API used by the "millions of users" verification workload:

>>> engine = WatermarkEngine()
>>> report = engine.verify_fleet({"deploy-a": suspect_a, "deploy-b": suspect_b},
...                              {"owner": key})
>>> [pair.suspect_id for pair in report.owned_pairs()]
['deploy-a']

and ``engine.insert_multi(model, activations, owners)`` for placing several
independently keyed owners in one model.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import EmMarkConfig
from repro.core.keys import WatermarkKey
from repro.core.scoring import select_candidates
from repro.core.signature import (
    generate_signature,
    split_signature_per_layer,
    validate_signature,
)
from repro.engine.allocator import SlotAllocator
from repro.engine.cache import CacheStats, PlanCache
from repro.engine.plan import LocationPlan, plan_fingerprint
from repro.engine.ticket import VerificationTicket
from repro.engine.reports import (
    DEFAULT_MAX_FALSE_CLAIM_PROBABILITY,
    DEFAULT_OWNERSHIP_THRESHOLD,
    ExtractionResult,
    FleetVerificationReport,
    InsertionReport,
    MultiOwnerInsertionResult,
    OwnerInsertion,
    PairVerification,
)
from repro.models.activations import ActivationStats
from repro.obs.trace import span
from repro.quant.base import QuantizationGrid, QuantizedLinear, QuantizedModel
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng

__all__ = [
    "EngineConfig",
    "WatermarkEngine",
    "FleetVerificationSession",
    "get_default_engine",
    "derive_owner_configs",
]

logger = get_logger("engine")

ModelGroup = Union[QuantizedModel, Sequence[QuantizedModel], Mapping[str, QuantizedModel]]
#: What verification accepts in place of a key: the key itself, or its ticket.
KeyLike = Union[WatermarkKey, VerificationTicket]
KeyGroup = Union[KeyLike, Sequence[KeyLike], Mapping[str, KeyLike]]


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs of a :class:`WatermarkEngine`.

    Attributes
    ----------
    plan_cache_entries:
        Capacity of the LRU :class:`~repro.engine.cache.PlanCache`.
    """

    plan_cache_entries: int = 256

    def __post_init__(self) -> None:
        if self.plan_cache_entries < 1:
            raise ValueError("plan_cache_entries must be >= 1")


def _named_items(group, prefix: str) -> List[Tuple[str, object]]:
    """Normalize a model/key group into ``(id, item)`` pairs."""
    if isinstance(group, Mapping):
        return list(group.items())
    if isinstance(group, (list, tuple)):
        return [(f"{prefix}-{index}", item) for index, item in enumerate(group)]
    return [(f"{prefix}-0", group)]


class FleetVerificationSession:
    """Incremental fleet verification: register keys once, stream suspects.

    The batched :meth:`WatermarkEngine.verify_fleet` needs every suspect in
    memory before the sweep starts, which pins a whole grid of attacked
    models at once.  A session inverts the control flow: keys (or ready
    tickets, used verbatim) are registered up front or as they appear, each
    key becomes a :class:`~repro.engine.ticket.VerificationTicket` **exactly
    once** — lazily, on the first suspect that needs it — and :meth:`verify`
    turns one ``(suspect, key)`` pair into a
    :class:`~repro.engine.reports.PairVerification` the moment the suspect
    exists.  The caller can then drop the suspect immediately, so a
    streaming pipeline holds O(in-flight suspects), not O(fleet size).

    Thread safety: :meth:`verify` and :meth:`add_key` may be called from
    concurrent workers.  Ticket derivation is guarded per key (two workers
    racing on a cold key derive it once; one blocks), and the match pass
    itself only reads.

    Decisions are bit-identical to a batched sweep over the same pairs —
    both paths share :meth:`WatermarkEngine.ticket_for` and the ticket
    matcher.

    Created via :meth:`WatermarkEngine.verification_session`; ``verify_fleet``
    itself runs on a session internally.
    """

    def __init__(
        self,
        engine: "WatermarkEngine",
        keys: Optional[Mapping[str, KeyLike]] = None,
        wer_threshold: float = DEFAULT_OWNERSHIP_THRESHOLD,
        max_false_claim_probability: Optional[float] = DEFAULT_MAX_FALSE_CLAIM_PROBABILITY,
    ) -> None:
        self._engine = engine
        self.wer_threshold = float(wer_threshold)
        self.max_false_claim_probability = max_false_claim_probability
        self._keys: Dict[str, KeyLike] = {}
        self._tickets: Dict[str, VerificationTicket] = {}
        self._key_locks: Dict[str, threading.Lock] = {}
        self._registry_lock = threading.Lock()
        self._stats_at_open = engine.cache.stats()
        self._opened_at = time.perf_counter()
        for key_id, key in (keys or {}).items():
            self.add_key(key_id, key)

    def add_key(self, key_id: str, key: KeyLike) -> None:
        """Register (idempotently) a key or ticket under ``key_id``.

        Re-registering the same object is a no-op; binding a *different* key
        to an existing id is an error — it would silently change what already
        -issued verdicts meant.
        """
        with self._registry_lock:
            existing = self._keys.get(key_id)
            if existing is not None and existing is not key:
                raise ValueError(
                    f"key id {key_id!r} is already bound to a different key in this session"
                )
            self._keys[key_id] = key
            self._key_locks.setdefault(key_id, threading.Lock())
            if isinstance(key, VerificationTicket):
                self._tickets[key_id] = key

    def key_ids(self) -> List[str]:
        """Ids of the registered keys (insertion order)."""
        with self._registry_lock:
            return list(self._keys)

    def ticket(self, key_id: str) -> VerificationTicket:
        """The (per-session memoized) verification ticket of one key."""
        cached = self._tickets.get(key_id)
        if cached is not None:
            return cached
        with self._registry_lock:
            try:
                key = self._keys[key_id]
            except KeyError as exc:
                raise KeyError(
                    f"unknown key id {key_id!r}; registered: {list(self._keys)[:4]}"
                ) from exc
            lock = self._key_locks[key_id]
        with lock:
            cached = self._tickets.get(key_id)
            if cached is None:
                cached = self._engine.ticket_for(key)
                self._tickets[key_id] = cached
        return cached

    def _evaluate_pair(
        self,
        suspect_id: str,
        suspect: QuantizedModel,
        ticket: VerificationTicket,
        key_id: str,
    ) -> PairVerification:
        pair_start = time.perf_counter()
        result = ticket.match(suspect)
        owned = result.wer_percent >= self.wer_threshold and (
            self.max_false_claim_probability is None
            or result.false_claim_probability <= self.max_false_claim_probability
        )
        return PairVerification(
            suspect_id=suspect_id,
            key_id=key_id,
            total_bits=result.total_bits,
            matched_bits=result.matched_bits,
            wer_percent=result.wer_percent,
            false_claim_probability=result.false_claim_probability,
            owned=owned,
            seconds=time.perf_counter() - pair_start,
        )

    def verify(
        self, suspect_id: str, suspect: QuantizedModel, key_id: str
    ) -> PairVerification:
        """Verify one suspect against one registered key, right now.

        Returns the same evidence a batched ``verify_fleet`` sweep would
        produce for the pair.  The suspect is not retained — the caller may
        release it as soon as this returns.
        """
        with span("engine.verify_pair", suspect=suspect_id, key=key_id):
            return self._evaluate_pair(suspect_id, suspect, self.ticket(key_id), key_id)

    def verify_once(
        self, suspect_id: str, suspect: QuantizedModel, key: KeyLike, key_id: str
    ) -> PairVerification:
        """Verify against a one-shot key or ticket without registering anything.

        For keys that will never be consulted again (e.g. a re-watermarking
        cell's per-attack adversary): the evidence is bit-identical to
        :meth:`verify` on a registered key, but nothing is retained in the
        session, so streaming pipelines stay O(in-flight suspects) even when
        every cell brings its own key.  A ticket — what the gauntlet's
        attacks hand forward from their insertion — is matched as given; a
        full key is first turned into one by :meth:`WatermarkEngine.ticket_for`
        (its layer plans land in the engine's bounded LRU cache, so a key
        that *does* come back is served warm).
        """
        ticket = self._engine.ticket_for(key)
        return self._evaluate_pair(suspect_id, suspect, ticket, key_id)

    def cache_traffic(self) -> CacheStats:
        """Plan-cache traffic since the session opened (delta counters).

        Counts everything the underlying engine served in the interval, so
        if attacks or insertions share the engine their traffic is included.
        """
        return self._engine.cache.stats().delta(self._stats_at_open)

    def report(self, pairs: Sequence[PairVerification]) -> FleetVerificationReport:
        """Wrap verified pairs into a report with session-wide cache traffic."""
        traffic = self.cache_traffic()
        return FleetVerificationReport(
            pairs=list(pairs),
            wall_clock_seconds=time.perf_counter() - self._opened_at,
            cache_hits=traffic.hits,
            cache_misses=traffic.misses,
            cache_evictions=traffic.evictions,
        )


class WatermarkEngine:
    """Shared cached execution engine for watermark pipelines.

    Parameters
    ----------
    config:
        Engine tuning; defaults to :class:`EngineConfig` defaults.
    cache:
        An externally owned :class:`~repro.engine.cache.PlanCache` to share
        between engines; a private cache is created when omitted.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        cache: Optional[PlanCache] = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        # `is not None`, not truthiness: an empty PlanCache has len() == 0.
        self.cache = (
            cache if cache is not None else PlanCache(max_entries=self.config.plan_cache_entries)
        )
        _live_engines.add(self)

    def close(self) -> None:
        """No-op: an engine holds no threads or handles to release.

        Kept so callers that close their engines keep working.
        """

    # ------------------------------------------------------------------
    # Location planning (cached)
    # ------------------------------------------------------------------
    def plan_for_layer(
        self,
        layer: QuantizedLinear,
        channel_activations: np.ndarray,
        bits_needed: int,
        config: EmMarkConfig,
        occupied: Optional[np.ndarray] = None,
    ) -> LocationPlan:
        """The (cached) location plan of one layer.

        Computes the candidate pool (fused scoring + ``argpartition`` top-k)
        and the seed-``d`` sub-sample exactly once per distinct input
        fingerprint; insertion, extraction and every verification path call
        this method, which is what guarantees they agree on locations.

        ``occupied`` lists flat indices already claimed by co-resident
        watermarks (see :class:`~repro.engine.allocator.SlotAllocator`): the
        pool deterministically re-ranks past them, so co-resident plans are
        disjoint by construction.  ``None``/empty is the virgin-model path —
        bit-identical plans and fingerprints to an occupancy-free call.
        """
        pool_size = config.candidate_pool_size(layer.num_weights)
        if occupied is not None:
            occupied = np.asarray(occupied, dtype=np.int64)
            if occupied.size == 0:
                occupied = None
        fingerprint = plan_fingerprint(
            layer_name=layer.name,
            grid_bits=layer.grid.bits,
            weight_int=layer.weight_int,
            outlier_columns=layer.outlier_columns,
            channel_activations=channel_activations,
            alpha=config.alpha,
            beta=config.beta,
            seed=config.seed,
            exclude_saturated=config.exclude_saturated,
            pool_size=pool_size,
            bits_needed=bits_needed,
            occupied=occupied,
        )
        return self.cache.get_or_compute(
            fingerprint,
            lambda: self._compute_plan(
                layer, channel_activations, bits_needed, config, pool_size, fingerprint,
                occupied,
            ),
        )

    def _compute_plan(
        self,
        layer: QuantizedLinear,
        channel_activations: np.ndarray,
        bits_needed: int,
        config: EmMarkConfig,
        pool_size: int,
        fingerprint: str,
        occupied: Optional[np.ndarray] = None,
    ) -> LocationPlan:
        start = time.perf_counter()
        with span("engine.plan", layer=layer.name, bits=bits_needed):
            # Re-rank past occupied slots: the top-k ranking is extended by the
            # occupancy size so that after dropping occupied positions the pool
            # is still the |B_c| best *free* positions (in the same ascending
            # score order a virgin ranking would give them).  Zero occupancy
            # degenerates to the exact pre-allocator pipeline.
            extension = 0 if occupied is None else int(occupied.size)
            with span("engine.score_topk", layer=layer.name):
                scores = select_candidates(
                    layer,
                    channel_activations,
                    alpha=config.alpha,
                    beta=config.beta,
                    pool_size=pool_size + extension,
                    exclude_saturated=config.exclude_saturated,
                )
            candidates = scores.candidate_indices
            if occupied is not None:
                candidates = candidates[~np.isin(candidates, occupied)][:pool_size]
            if candidates.size < bits_needed:
                raise ValueError(
                    f"layer {layer.name!r} offers only {candidates.size} candidate positions "
                    f"but {bits_needed} signature bits were requested; lower bits_per_layer"
                )
            rng = new_rng(config.seed, "selection", layer.name)
            chosen = rng.choice(candidates, size=bits_needed, replace=False)
        return LocationPlan(
            layer_name=layer.name,
            fingerprint=fingerprint,
            candidate_indices=candidates,
            locations=np.asarray(chosen, dtype=np.int64),
            pool_size=int(candidates.size),
            num_weights=layer.num_weights,
            compute_seconds=time.perf_counter() - start,
        )

    def cache_info(self) -> CacheStats:
        """Snapshot of the plan-cache counters."""
        return self.cache.stats()

    def cache_stats(self) -> Dict[str, object]:
        """JSON-able plan-cache counters (hit/miss/eviction, size, hit rate).

        This is the serving-observability surface: the verification service's
        ``/stats`` endpoint reports it verbatim so cache efficacy is visible
        under live traffic.
        """
        return self.cache.stats().to_dict()

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(
        self,
        model: QuantizedModel,
        activations: ActivationStats,
        config: Optional[EmMarkConfig] = None,
        signature: Optional[np.ndarray] = None,
        in_place: bool = False,
        occupied: "Optional[Union[SlotAllocator, Mapping[str, np.ndarray]]]" = None,
        owner: Optional[str] = None,
    ) -> Tuple[QuantizedModel, WatermarkKey, InsertionReport]:
        """Insert an EmMark watermark into ``model``, one layer at a time.

        The paper pipeline (Section 4.1): score every quantized weight of
        each layer, keep the ``|B_c|`` best-scoring positions as candidates,
        sub-sample ``|B|/n`` of them with the secret seed ``d`` and add the
        layer's signature bits there (Equation 5: ``W'[L_i] = W[L_i] + b_i``).
        Each layer's location plan is memoized, so a follow-up
        :meth:`extract` against the returned key is pure cache lookups, and
        ``report.ticket`` carries the key's
        :class:`~repro.engine.ticket.VerificationTicket`, built from the
        plans this call already holds — identical to :meth:`ticket_for`
        on the returned key, without re-fingerprinting it.

        Parameters
        ----------
        model:
            The original quantized model (INT8 or INT4).
        activations:
            Full-precision activation statistics collected with
            :func:`repro.models.activations.collect_activation_stats`.
        config:
            Insertion hyper-parameters; defaults to
            :meth:`EmMarkConfig.scaled_for_model` for the given model.
        signature:
            Optional explicit ±1 signature of length
            ``bits_per_layer × num_layers``; generated from
            ``config.signature_seed`` when omitted.
        in_place:
            Modify ``model`` directly instead of watermarking a copy.
        occupied:
            Makes the insertion *co-resident aware*: a
            :class:`~repro.engine.allocator.SlotAllocator` (or a plain
            ``{layer: flat indices}`` mapping) naming the slots earlier
            owners already hold.  Planning re-ranks past those slots, so the
            new signature lands on a disjoint pool; the occupancy the key was
            planned under is recorded in ``key.metadata["occupied_slots"]``
            so extraction reproduces the same re-ranked plan from the key
            alone.  An empty occupancy is bit-identical to omitting it.
        owner:
            Label the new key's slots are claimed under when ``occupied`` is
            an allocator: its slots are claimed on it before returning, so
            handing the same allocator to the next insertion is all
            multi-tenancy takes.

        Returns
        -------
        (watermarked_model, key, report)
            The watermarked model, the owner's key, and timing information
            (per-layer CPU cost plus the call's wall-clock; see
            :class:`~repro.engine.reports.InsertionReport`).
        """
        wall_start = time.perf_counter()
        if config is None:
            config = EmMarkConfig.scaled_for_model(model)
        allocator = occupied if isinstance(occupied, SlotAllocator) else None
        # Explicit emptiness test: an empty mapping means "no occupancy",
        # while `if occupied:` would conflate that with None (REP002).
        if allocator is None and occupied is not None and len(occupied) > 0:
            allocator_view = SlotAllocator(occupied=occupied)
        else:
            allocator_view = allocator
        # Occupancy is snapshotted before planning: every layer must see one
        # consistent view (a concurrent caller may claim on the same
        # allocator), and the key must record the occupancy its plans were
        # computed under (not the post-claim state).
        occupancy_snapshot: Dict[str, np.ndarray] = (
            allocator_view.snapshot() if allocator_view is not None else {}
        )
        layer_names = model.layer_names()
        total_bits = config.total_bits(len(layer_names))
        if signature is None:
            signature = generate_signature(total_bits, config.signature_seed)
        else:
            signature = validate_signature(signature)
            if signature.size != total_bits:
                raise ValueError(
                    f"signature has {signature.size} bits but the configuration requires {total_bits}"
                )
        per_layer_signature = split_signature_per_layer(
            signature, layer_names, config.bits_per_layer
        )

        missing_activations = [
            name for name in layer_names if name not in activations.mean_abs
        ]
        if missing_activations:
            raise ValueError(
                "activation statistics missing for layers: "
                f"{missing_activations[:4]} — collect stats with the full-precision model"
            )

        watermarked = model if in_place else model.clone()
        reference_weights = model.integer_weight_snapshot()

        # This thread's own lookups: the engine-wide counters would also
        # count concurrent callers' insertions sharing the cache.
        hits, misses = self.cache.thread_lookups()
        per_layer_seconds: List[float] = []
        pool_sizes: Dict[str, int] = {}
        locations: Dict[str, np.ndarray] = {}
        with span("engine.insert", model=model.config.name, layers=len(layer_names)):
            for name in layer_names:
                # thread_time, not perf_counter: a wall span would include
                # concurrent callers' GIL and memory-bandwidth contention;
                # Table 2's per-layer metric is the layer's own CPU cost.
                start = time.thread_time()
                layer = watermarked.get_layer(name)
                layer_signature = per_layer_signature[name]
                plan = self.plan_for_layer(
                    layer,
                    activations.channel_saliency(name),
                    layer_signature.size,
                    config,
                    occupied=occupancy_snapshot.get(name),
                )
                layer.add_to_weights(plan.locations, layer_signature)
                per_layer_seconds.append(time.thread_time() - start)
                pool_sizes[name] = plan.pool_size
                locations[name] = plan.locations
        hits_after, misses_after = self.cache.thread_lookups()

        metadata: Dict[str, object] = {}
        if occupancy_snapshot:
            metadata["occupied_slots"] = {
                name: [int(i) for i in idx] for name, idx in occupancy_snapshot.items()
            }
        if allocator_view is not None and not allocator_view.is_empty:
            co_residents = [
                label
                for label in allocator_view.owners()
                if label != SlotAllocator.ANONYMOUS
            ]
            if co_residents:
                metadata["co_residents"] = co_residents
        if allocator is not None:
            # Claim on the *caller's* allocator only — a plain mapping was
            # wrapped in a throwaway view and has nothing durable to update.
            for name, locs in locations.items():
                allocator.claim(name, locs, owner=owner or SlotAllocator.ANONYMOUS)

        outlier_columns = {
            name: layer.outlier_columns.copy()
            for name, layer in model.layers.items()
            if layer.outlier_columns is not None
        }
        key = WatermarkKey(
            signature=signature,
            config=config,
            reference_weights=reference_weights,
            # A_f of the planned layers is all extraction reads; the rest of
            # the calibration statistics (RMS, maxima, Gram) stays out.
            activations=ActivationStats(
                mean_abs={name: activations.channel_saliency(name) for name in layer_names}
            ),
            layer_names=layer_names,
            method=model.method,
            bits=model.bits,
            model_name=model.config.name,
            outlier_columns=outlier_columns,
            metadata=metadata,
        )
        # The plans are in hand: a ticket built from them spares whoever
        # verifies this key next a re-hash of its reference weights.
        ticket = VerificationTicket.from_key(key, locations)
        report = InsertionReport(
            total_bits=total_bits,
            num_layers=len(layer_names),
            per_layer_seconds=per_layer_seconds,
            candidate_pool_sizes=pool_sizes,
            wall_clock_seconds=time.perf_counter() - wall_start,
            cache_hits=hits_after - hits,
            cache_misses=misses_after - misses,
            ticket=ticket,
        )
        logger.debug(
            "inserted %d bits into %d layers of %s (%s INT%d) in %.3fs wall "
            "(%.3fs per-layer CPU, cache %d/%d hit/miss)",
            total_bits,
            len(layer_names),
            model.config.name,
            model.method,
            model.bits,
            report.wall_clock_seconds,
            report.total_seconds,
            report.cache_hits,
            report.cache_misses,
        )
        return watermarked, key, report

    # ------------------------------------------------------------------
    # Extraction / verification
    # ------------------------------------------------------------------
    def _reference_layer_view(self, key: WatermarkKey, name: str) -> QuantizedLinear:
        """Rebuild the insertion-time view of one layer from key material."""
        grid = QuantizationGrid(key.bits if key.bits else 8)
        reference = key.reference_weights[name]
        outliers = key.outlier_columns.get(name)
        outlier_weight = (
            np.zeros((reference.shape[0], outliers.size)) if outliers is not None else None
        )
        return QuantizedLinear(
            name=name,
            weight_int=reference,
            scale=np.ones((reference.shape[0], 1)),
            grid=grid,
            outlier_columns=outliers,
            outlier_weight=outlier_weight,
        )

    def reproduce_locations(self, key: WatermarkKey) -> Dict[str, np.ndarray]:
        """Recompute the watermark locations ``L`` from the key alone.

        The key carries the original quantized weights ``W``, the
        full-precision activations ``A_f``, the coefficients α/β and the seed
        ``d`` — everything the scoring + sub-sampling pipeline consumed during
        insertion — so the reproduced locations are identical to the inserted
        ones.  Keys planned under co-resident occupancy additionally carry
        that occupancy in ``metadata["occupied_slots"]``; it is replayed
        here, so every co-resident owner's locations reproduce independently
        and exactly.  Plans are served from the cache whenever this key (or
        the insertion that created it) has been seen before.
        """
        occupied_slots = key.metadata.get("occupied_slots") or {}
        locations: Dict[str, np.ndarray] = {}
        with span("engine.reproduce_locations", layers=len(key.layer_names)):
            for name in key.layer_names:
                occupied = occupied_slots.get(name)
                locations[name] = self.plan_for_layer(
                    self._reference_layer_view(key, name),
                    key.activations.channel_saliency(name),
                    key.config.bits_per_layer,
                    key.config,
                    occupied=None if occupied is None else np.asarray(occupied, dtype=np.int64),
                ).locations
        return locations

    def ticket_for(self, key: KeyLike, key_id: Optional[str] = None) -> VerificationTicket:
        """The one derivation of ``key``'s :class:`VerificationTicket` (a
        ticket passes through): :meth:`reproduce_locations`, then the values
        at those locations.  ``key_id`` is recorded as given, never hashed.
        """
        if isinstance(key, VerificationTicket):
            return key
        return VerificationTicket.from_key(key, self.reproduce_locations(key), key_id=key_id)

    def extract(
        self,
        suspect: QuantizedModel,
        key: KeyLike,
        strict_layout: bool = True,
    ) -> ExtractionResult:
        """Extract the watermark from ``suspect`` and compare it with the key.

        The paper's extraction (Section 4.2): read the suspect's integer
        weights at the reproduced locations ``L``, form
        ``ΔW[L] = W'[L] − W[L]`` (Equation 6), compare it with the signature
        (the WER of Equation 7) and convert the match count into the
        false-claim probability of Equation 8.

        Parameters
        ----------
        suspect:
            The deployed (possibly attacked, possibly unrelated) quantized
            model.
        key:
            The owner's watermark key, or its ticket; matched through
            :meth:`ticket_for`.
        strict_layout:
            When true (default) the suspect model must expose every layer
            named in the key with matching weight shapes; otherwise missing
            layers are counted as fully unmatched instead of raising.

        Returns
        -------
        ExtractionResult
            Match counts, WER and the false-claim probability.
        """
        wall_start = time.perf_counter()
        result = self.ticket_for(key).match(suspect, strict_layout, wall_start)
        logger.debug("extraction from %s: %s", suspect.config.name, result.summary())
        return result

    def verify(
        self,
        suspect: QuantizedModel,
        key: KeyLike,
        wer_threshold: float = DEFAULT_OWNERSHIP_THRESHOLD,
        max_false_claim_probability: Optional[float] = DEFAULT_MAX_FALSE_CLAIM_PROBABILITY,
    ) -> bool:
        """Ownership verdict: does ``suspect`` carry the owner's watermark?

        The claim is asserted when the extraction rate reaches
        ``wer_threshold`` percent *and* (optionally) the false-claim
        probability of the observed match count is below
        ``max_false_claim_probability``.
        """
        result = self.extract(suspect, key, strict_layout=False)
        if result.wer_percent < wer_threshold:
            return False
        if (
            max_false_claim_probability is not None
            and result.false_claim_probability > max_false_claim_probability
        ):
            return False
        return True

    # ------------------------------------------------------------------
    # Batch serving APIs
    # ------------------------------------------------------------------
    def verification_session(
        self,
        keys: Optional[Mapping[str, KeyLike]] = None,
        wer_threshold: float = DEFAULT_OWNERSHIP_THRESHOLD,
        max_false_claim_probability: Optional[float] = DEFAULT_MAX_FALSE_CLAIM_PROBABILITY,
    ) -> FleetVerificationSession:
        """Open an incremental :class:`FleetVerificationSession` on this engine.

        The streaming counterpart of :meth:`verify_fleet`: register keys up
        front (or :meth:`~FleetVerificationSession.add_key` them as they
        appear), then call :meth:`~FleetVerificationSession.verify` per
        ``(suspect, key)`` pair as suspects materialize, releasing each
        suspect immediately afterwards.  Each key's ticket is still derived
        exactly once per session (location reproduction is served from the
        plan cache across sessions); registered tickets are used as given.
        """
        return FleetVerificationSession(
            self,
            keys=keys,
            wer_threshold=wer_threshold,
            max_false_claim_probability=max_false_claim_probability,
        )

    def verify_fleet(
        self,
        suspects: ModelGroup,
        keys: KeyGroup,
        wer_threshold: float = DEFAULT_OWNERSHIP_THRESHOLD,
        max_false_claim_probability: Optional[float] = DEFAULT_MAX_FALSE_CLAIM_PROBABILITY,
        pairs: Optional[Sequence[Tuple[str, str]]] = None,
    ) -> FleetVerificationReport:
        """Screen a fleet of suspect models against a set of owner keys.

        Every ``(suspect, key)`` pair in the cross product is extracted and
        thresholded; this is the bulk ownership-verification workload (many
        deployed models × many registered owners).  Suspects and keys can be
        a single object, a sequence (auto-named ``suspect-0`` …) or a mapping
        of explicit ids; a key may be a :class:`~repro.core.keys.WatermarkKey`
        or its :class:`~repro.engine.ticket.VerificationTicket`.

        Per-key work is done at most once: each key is turned into its
        ticket a single time (cached plans, one fingerprint hash per layer;
        nothing at all for a ticket), after which every
        suspect in the fleet is a pure integer-comparison pass against it.

        Parameters
        ----------
        pairs:
            Optional explicit ``(suspect_id, key_id)`` pairs to evaluate
            instead of the full cross product.  This is the micro-batching
            hook used by the verification service: coalesced requests that
            each target different keys share one sweep without paying for
            pairs nobody asked about.  Each listed pair is verified exactly
            as it would be in a full sweep (bit-identical evidence and
            verdicts); keys with no requested pair skip ticket derivation
            entirely.

        Returns
        -------
        FleetVerificationReport
            One :class:`~repro.engine.reports.PairVerification` per pair plus
            sweep-level wall-clock and cache-traffic figures.
        """
        suspect_items = _named_items(suspects, "suspect")
        key_items = _named_items(keys, "key")
        requested: Optional[set] = None
        if pairs is not None:
            requested = set(pairs)
            known_suspects = {sid for sid, _ in suspect_items}
            known_keys = {kid for kid, _ in key_items}
            unknown = [
                pair
                for pair in requested
                if pair[0] not in known_suspects or pair[1] not in known_keys
            ]
            if unknown:
                raise KeyError(f"verify_fleet pairs reference unknown ids: {sorted(unknown)[:4]}")
        # The batched sweep is the degenerate streaming case: one session,
        # every suspect already in memory.  Keys with no requested pair never
        # reach session.verify, so their tickets are never derived.
        session = self.verification_session(
            keys=dict(key_items),
            wer_threshold=wer_threshold,
            max_false_claim_probability=max_false_claim_probability,
        )
        results: List[PairVerification] = []
        with span(
            "engine.verify_fleet",
            suspects=len(suspect_items),
            keys=len(key_items),
            pairs=(
                len(requested)
                if requested is not None
                else len(suspect_items) * len(key_items)
            ),
        ):
            for key_id, _key in key_items:
                if requested is not None:
                    wanted = [
                        (sid, suspect)
                        for sid, suspect in suspect_items
                        if (sid, key_id) in requested
                    ]
                else:
                    wanted = suspect_items
                for suspect_id, suspect in wanted:
                    results.append(session.verify(suspect_id, suspect, key_id))
        # Re-order suspect-major for stable reporting regardless of loop nest.
        suspect_order = {sid: i for i, (sid, _) in enumerate(suspect_items)}
        key_order = {kid: i for i, (kid, _) in enumerate(key_items)}
        results.sort(key=lambda p: (suspect_order[p.suspect_id], key_order[p.key_id]))
        report = session.report(results)
        logger.debug("%s", report.summary())
        return report

    def insert_multi(
        self,
        model: QuantizedModel,
        activations: ActivationStats,
        owners: Union[int, Sequence[EmMarkConfig], Mapping[str, EmMarkConfig]],
        signatures: Optional[Mapping[str, np.ndarray]] = None,
        in_place: bool = False,
        allocator: Optional[SlotAllocator] = None,
    ) -> MultiOwnerInsertionResult:
        """Insert N independently keyed watermarks into **one** model.

        The multi-tenant counterpart of :meth:`insert`: every owner's
        signature is placed on a disjoint slot pool of the same
        integer-weight domain (a shared
        :class:`~repro.engine.allocator.SlotAllocator` threads the occupancy
        from each insertion into the next one's planning), so no owner's ±1
        perturbations clobber another's and each key extracts independently
        at 100% WER from the returned model.

        Parameters
        ----------
        model:
            The quantized base to watermark (cloned unless ``in_place``).
        activations:
            Full-precision activation statistics of the base model, shared
            by every owner (co-residents of one base score the same grid).
        owners:
            Either an owner count — ``N`` derives deterministic per-owner
            configurations from :meth:`EmMarkConfig.scaled_for_model` with
            seed offsets, named ``owner-0`` … ``owner-N-1``, where
            ``owner-0`` keeps the base seeds (its plans are bit-identical to
            a single-owner insertion) — or an explicit sequence / mapping of
            per-owner :class:`EmMarkConfig`\\ s.
        signatures:
            Optional explicit ±1 signatures keyed by owner id.
        in_place:
            Watermark ``model`` directly instead of a clone.
        allocator:
            Resume allocation on a pre-populated allocator (e.g. built with
            :meth:`SlotAllocator.from_keys` from earlier owners' keys); a
            fresh one is created when omitted and returned on the result.

        Each owner's key snapshots the model state *it* was inserted into
        (the base plus the earlier owners' bits), so a key alone reproduces
        its re-ranked plan; ``metadata["co_residents"]`` on every key names
        the other owners sharing the model.
        """
        wall_start = time.perf_counter()
        owner_items = self._named_owner_configs(model, owners)
        if not owner_items:
            raise ValueError("insert_multi needs at least one owner")
        duplicate = [oid for oid in {o for o, _ in owner_items}
                     if sum(1 for o, _ in owner_items if o == oid) > 1]
        if duplicate:
            raise ValueError(f"duplicate owner ids: {sorted(duplicate)}")
        working = model if in_place else model.clone()
        if allocator is None:
            allocator = SlotAllocator()
        items: List[OwnerInsertion] = []
        for owner_id, config in owner_items:
            signature = signatures.get(owner_id) if signatures else None
            _, key, report = self.insert(
                working,
                activations,
                config=config,
                signature=signature,
                in_place=True,
                occupied=allocator,
                owner=owner_id,
            )
            items.append(OwnerInsertion(owner_id=owner_id, key=key, report=report))
        owner_ids = [item.owner_id for item in items]
        for item in items:
            co = [oid for oid in owner_ids if oid != item.owner_id]
            prior = item.key.metadata.get("co_residents", [])
            # Full bidirectional listing: earlier owners learn about later
            # ones too (pre-existing allocator entries are kept in front).
            merged = list(dict.fromkeys(list(prior) + co))
            if merged:
                item.key.metadata["co_residents"] = merged
        result = MultiOwnerInsertionResult(
            model=working,
            items=items,
            allocator=allocator,
            wall_clock_seconds=time.perf_counter() - wall_start,
        )
        logger.debug("%s", result.summary())
        return result

    @staticmethod
    def _named_owner_configs(
        model: QuantizedModel,
        owners: Union[int, Sequence[EmMarkConfig], Mapping[str, EmMarkConfig]],
    ) -> List[Tuple[str, EmMarkConfig]]:
        """Normalize the ``owners`` argument into ``(owner_id, config)`` pairs."""
        if isinstance(owners, int):
            return list(
                derive_owner_configs(EmMarkConfig.scaled_for_model(model), owners).items()
            )
        if isinstance(owners, Mapping):
            return list(owners.items())
        return [(f"owner-{index}", config) for index, config in enumerate(owners)]


# ----------------------------------------------------------------------
# Fork hygiene
# ----------------------------------------------------------------------
#: Every engine ever constructed (weakly held) — forked children must reset
#: their inherited cache locks, see :func:`_reset_engines_after_fork`.
_live_engines: "weakref.WeakSet[WatermarkEngine]" = weakref.WeakSet()


def _reset_engines_after_fork() -> None:
    """Repair engine state inherited by a forked child.

    A ``fork()``-ed worker inherits every :class:`WatermarkEngine` object of
    the parent, but none of the parent's threads, so any lock captured
    mid-acquire stays held forever.  Attacks running inside process-pool
    gauntlet workers route through :func:`get_default_engine` (e.g.
    re-watermarking inserts through it), so without this reset the first
    engine call in a forked worker could hang.  Locks are replaced; the plan
    caches' entries are kept — they are pure values, and warm plans are
    exactly what the worker wants.
    """
    global _default_engine_lock
    _default_engine_lock = threading.Lock()
    for engine in list(_live_engines):
        engine.cache.reset_lock()


if hasattr(os, "register_at_fork"):  # POSIX only; Windows has no fork()
    os.register_at_fork(after_in_child=_reset_engines_after_fork)


# ----------------------------------------------------------------------
# Process-wide default engine
# ----------------------------------------------------------------------
_default_engine: Optional[WatermarkEngine] = None
_default_engine_lock = threading.Lock()


def derive_owner_configs(base: EmMarkConfig, owners: int) -> Dict[str, EmMarkConfig]:
    """Deterministic per-owner configurations for a multi-owner insertion.

    The single source of the owner-naming/seed-offset scheme (the engine's
    ``insert_multi(model, N)`` path, the CLI and the experiment variants all
    resolve here): ``owner-0`` keeps the base seeds — its plans, and
    therefore its locations, are bit-identical to a single-owner insertion
    with ``base`` — while each later owner offsets the secret seed ``d`` and
    the signature seed, modelling independently keyed owners of one shared
    base.
    """
    from dataclasses import replace

    if owners < 1:
        raise ValueError("owner count must be >= 1")
    return {
        f"owner-{index}": (
            base
            if index == 0
            else replace(
                base,
                seed=base.seed + index,
                signature_seed=base.signature_seed + index,
            )
        )
        for index in range(owners)
    }


def get_default_engine() -> WatermarkEngine:
    """The process-wide shared engine (created on first use).

    :class:`~repro.core.emmark.EmMark` without an explicit engine, the
    experiment harness and the re-watermarking attacks all run on this
    instance, so its plan cache is shared by every pipeline in the process.
    """
    global _default_engine
    with _default_engine_lock:
        if _default_engine is None:
            _default_engine = WatermarkEngine()
        return _default_engine
