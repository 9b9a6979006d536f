"""Tests for the gauntlet runner and the robustness report."""

import json

import numpy as np
import pytest

from repro.engine import WatermarkEngine
from repro.engine.reports import (
    DEFAULT_MAX_FALSE_CLAIM_PROBABILITY,
    DEFAULT_OWNERSHIP_THRESHOLD,
)
from repro.robustness import (
    GauntletConfig,
    GauntletSubject,
    build_attack,
    run_gauntlet,
)
from repro.utils.rng import new_rng

GRID_STRENGTHS = {"overwrite": (0, 20, 40), "pruning": (0.0, 0.4)}


def _grid_attacks():
    return [build_attack("overwrite"), build_attack("pruning")]


class TestGauntletExecution:
    def test_grid_shape_and_order(self, awq_subject, gauntlet_engine):
        report = run_gauntlet(
            {"deploy": awq_subject}, _grid_attacks(), GRID_STRENGTHS,
            engine=gauntlet_engine, max_workers=2,
        )
        assert report.num_cells == 5
        assert [(c.attack, c.strength) for c in report.cells] == [
            ("overwrite", 0.0), ("overwrite", 20.0), ("overwrite", 40.0),
            ("pruning", 0.0), ("pruning", 0.4),
        ]
        assert report.attacks() == ["overwrite", "pruning"]
        assert report.model_ids() == ["deploy"]

    def test_zero_strength_cells_extract_fully(self, awq_subject, gauntlet_engine):
        report = run_gauntlet(
            {"deploy": awq_subject}, _grid_attacks(), GRID_STRENGTHS,
            engine=gauntlet_engine,
        )
        for cell in report.cells:
            if cell.strength == 0.0:
                assert cell.wer_percent == 100.0 and cell.owned

    def test_quality_measured_per_cell(self, awq_subject, gauntlet_engine):
        report = run_gauntlet(
            {"deploy": awq_subject}, [build_attack("none")], engine=gauntlet_engine,
        )
        cell = report.cells[0]
        assert cell.perplexity is not None and cell.perplexity > 1.0
        assert cell.zero_shot_accuracy is not None

    def test_subject_model_never_mutated(self, awq_subject, gauntlet_engine):
        snapshot = awq_subject.model.integer_weight_snapshot()
        run_gauntlet(
            {"deploy": awq_subject}, _grid_attacks(), GRID_STRENGTHS,
            engine=gauntlet_engine, max_workers=4,
        )
        for name, weights in snapshot.items():
            np.testing.assert_array_equal(
                weights, awq_subject.model.get_layer(name).weight_int
            )

    def test_rewatermark_cells_report_attacker_wer(
        self, awq_subject, gauntlet_engine, small_dataset
    ):
        report = run_gauntlet(
            {"deploy": awq_subject},
            [build_attack("rewatermark", calibration_corpus=small_dataset.calibration)],
            strengths={"rewatermark": (0, 6)},
            engine=gauntlet_engine,
        )
        baseline, attacked = report.cells
        assert baseline.attacker_wer_percent is None
        # The adversary extracts his own fresh signature near-perfectly.
        assert attacked.attacker_wer_percent > 90.0
        # The owner's watermark survives a light re-watermarking.
        assert attacked.wer_percent > 80.0

    def test_single_subject_shorthand(self, awq_subject, gauntlet_engine):
        report = run_gauntlet(
            awq_subject, [build_attack("none")], engine=gauntlet_engine,
        )
        assert report.model_ids() == ["subject-0"]


class TestGauntletDeterminism:
    def test_reports_identical_across_worker_counts(self, awq_subject, int8_subject,
                                                    gauntlet_engine, small_dataset):
        attacks = _grid_attacks() + [
            build_attack("rewatermark", calibration_corpus=small_dataset.calibration)
        ]
        strengths = {**GRID_STRENGTHS, "rewatermark": (0, 6)}
        subjects = {"awq": awq_subject, "int8": int8_subject}
        serial = run_gauntlet(subjects, attacks, strengths,
                              engine=gauntlet_engine, max_workers=1, seed=9)
        parallel = run_gauntlet(subjects, attacks, strengths,
                                engine=gauntlet_engine, max_workers=4, seed=9)
        assert serial.decision_digest() == parallel.decision_digest()
        for a, b in zip(serial.cells, parallel.cells):
            assert a.decision_fields() == b.decision_fields()
            assert a.false_claim_probability == b.false_claim_probability

    def test_seed_changes_attack_randomness(self, awq_subject, gauntlet_engine):
        a = run_gauntlet({"m": awq_subject}, [build_attack("overwrite")],
                         {"overwrite": (30,)}, engine=gauntlet_engine, seed=1)
        b = run_gauntlet({"m": awq_subject}, [build_attack("overwrite")],
                         {"overwrite": (30,)}, engine=gauntlet_engine, seed=2)
        assert a.decision_digest() != b.decision_digest()

    def test_warm_rerun_hits_plan_cache(self, awq_subject):
        engine = WatermarkEngine()
        attacks = [build_attack("overwrite")]
        strengths = {"overwrite": (0, 20)}
        run_gauntlet({"m": awq_subject}, attacks, strengths, engine=engine)
        warm = run_gauntlet({"m": awq_subject}, attacks, strengths, engine=engine)
        # The owner key's location plans are reproduced from cache: one hit
        # per layer, zero rescoring, no matter how many sweep points ran.
        assert warm.cache_misses == 0
        assert warm.cache_hits >= awq_subject.model.num_quantization_layers


class TestCellWiring:
    """Every cell against a direct attack + extraction outside the gauntlet.

    All executors share one cell function, so cross-executor digest equality
    cannot catch a wiring mistake inside it; this recomputes each cell from
    its coordinates with the attack spec and ``engine.extract`` alone.
    """

    SEED = 8
    STRENGTHS = {"overwrite": (0, 30), "pruning": (0.4,), "rewatermark": (6,)}

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_cells_match_direct_attack_and_extract(
        self, multi_owner_subject, small_dataset, executor, paper_rewatermark,
        assert_same_ticket,
    ):
        attacks = _grid_attacks() + [
            build_attack("rewatermark", calibration_corpus=small_dataset.calibration)
        ]
        report = run_gauntlet(
            {"multi": multi_owner_subject}, attacks, self.STRENGTHS,
            engine=WatermarkEngine(), max_workers=2, seed=self.SEED,
            evaluate_quality=False, executor=executor,
        )
        assert report.executor == executor
        assert report.num_cells == 4

        engine = WatermarkEngine()
        specs = {spec.name: spec for spec in attacks}

        def owned(result):
            return (
                result.wer_percent >= DEFAULT_OWNERSHIP_THRESHOLD
                and result.false_claim_probability <= DEFAULT_MAX_FALSE_CLAIM_PROBABILITY
            )

        for cell in report.cells:
            rng = new_rng(self.SEED, "gauntlet", "multi", cell.attack, f"{cell.strength:g}")
            outcome = specs[cell.attack].apply(multi_owner_subject.model, cell.strength, rng)
            owner = engine.extract(outcome.model, multi_owner_subject.key)
            assert cell.wer_percent == owner.wer_percent
            assert cell.matched_bits == owner.matched_bits
            assert cell.owned == owned(owner)
            assert cell.false_claim_probability == owner.false_claim_probability
            co = {
                owner_id: engine.extract(outcome.model, key)
                for owner_id, key in multi_owner_subject.co_keys.items()
            }
            assert cell.co_owner_wer_percent == {o: r.wer_percent for o, r in co.items()}
            assert cell.co_owner_owned == {o: owned(r) for o, r in co.items()}
            if cell.attack == "rewatermark":
                # The cell verified the ticket its insertion handed forward;
                # recompute from an independent reference insertion's full
                # key instead, through the one derivation from a key.
                attacked, attacker_ticket = paper_rewatermark(
                    multi_owner_subject.model, int(cell.strength),
                    small_dataset.calibration, engine,
                )
                for name in attacked.layer_names():
                    np.testing.assert_array_equal(
                        outcome.model.get_layer(name).weight_int,
                        attacked.get_layer(name).weight_int,
                    )
                assert_same_ticket(outcome.attacker_key, attacker_ticket)
                expected_attacker = engine.extract(attacked, attacker_ticket).wer_percent
            else:
                assert outcome.attacker_key is None
                expected_attacker = None
            assert cell.attacker_wer_percent == expected_attacker
        assert report.cells_for(attack="rewatermark")[0].attacker_wer_percent is not None


class TestGauntletValidation:
    def test_empty_attacks_rejected(self, awq_subject, gauntlet_engine):
        with pytest.raises(ValueError, match="at least one attack"):
            run_gauntlet({"m": awq_subject}, [], engine=gauntlet_engine)

    def test_empty_subjects_rejected(self, gauntlet_engine):
        with pytest.raises(ValueError, match="at least one subject"):
            run_gauntlet({}, _grid_attacks(), engine=gauntlet_engine)

    def test_duplicate_attacks_rejected(self, awq_subject, gauntlet_engine):
        with pytest.raises(ValueError, match="duplicate"):
            run_gauntlet({"m": awq_subject},
                         [build_attack("pruning"), build_attack("pruning")],
                         engine=gauntlet_engine)

    def test_unknown_strength_key_rejected(self, awq_subject, gauntlet_engine):
        with pytest.raises(ValueError, match="not in the grid"):
            run_gauntlet({"m": awq_subject}, [build_attack("pruning")],
                         {"overwrite": (1,)}, engine=gauntlet_engine)

    def test_quality_requires_harness(self, awq_subject, gauntlet_engine):
        bare = GauntletSubject(model=awq_subject.model, key=awq_subject.key)
        with pytest.raises(ValueError, match="no harness"):
            run_gauntlet({"m": bare}, [build_attack("none")], engine=gauntlet_engine)

    def test_quality_free_run_without_harness(self, awq_subject, gauntlet_engine):
        bare = GauntletSubject(model=awq_subject.model, key=awq_subject.key)
        report = run_gauntlet({"m": bare}, [build_attack("none")],
                              engine=gauntlet_engine, evaluate_quality=False)
        assert report.cells[0].perplexity is None
        assert report.cells[0].wer_percent == 100.0

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            GauntletConfig(max_workers=0)

    def test_colliding_cell_ids_rejected(self, awq_subject, gauntlet_engine):
        # Duplicate strengths (or values differing only past the %g
        # rendering) would alias two cells onto one suspect id.
        with pytest.raises(ValueError, match="collide"):
            run_gauntlet({"m": awq_subject}, [build_attack("pruning")],
                         {"pruning": (0.3, 0.3)}, engine=gauntlet_engine)
        with pytest.raises(ValueError, match="collide"):
            run_gauntlet({"m": awq_subject}, [build_attack("pruning")],
                         {"pruning": (0.3, 0.3000000001)}, engine=gauntlet_engine)


class TestMultiOwnerGauntlet:
    """Grids over subjects carrying several co-resident watermarks."""

    def test_baseline_cells_verify_every_owner_at_full_wer(
        self, multi_owner_subject, gauntlet_engine
    ):
        report = run_gauntlet(
            {"deploy": multi_owner_subject}, _grid_attacks(), GRID_STRENGTHS,
            engine=gauntlet_engine,
        )
        for cell in report.cells:
            assert set(cell.co_owner_wer_percent) == {"globex"}
            if cell.strength == 0.0:
                assert cell.wer_percent == 100.0 and cell.owned
                assert cell.co_owner_wer_percent["globex"] == 100.0
                assert cell.co_owner_owned["globex"] is True

    def test_modes_and_worker_counts_agree_on_co_owner_evidence(
        self, multi_owner_subject, gauntlet_engine
    ):
        kwargs = dict(engine=gauntlet_engine, seed=5)
        threaded = run_gauntlet({"m": multi_owner_subject}, _grid_attacks(),
                                GRID_STRENGTHS, max_workers=4, executor="thread", **kwargs)
        serial = run_gauntlet({"m": multi_owner_subject}, _grid_attacks(),
                              GRID_STRENGTHS, executor="serial", **kwargs)
        assert (threaded.executor, serial.executor) == ("thread", "serial")
        assert threaded.decision_digest() == serial.decision_digest()
        for a, b in zip(threaded.cells, serial.cells):
            assert a.co_owner_wer_percent == b.co_owner_wer_percent
            assert a.co_owner_owned == b.co_owner_owned

    def test_min_wer_by_owner_covers_all_owners(self, multi_owner_subject, gauntlet_engine):
        report = run_gauntlet(
            {"deploy": multi_owner_subject}, _grid_attacks(), GRID_STRENGTHS,
            engine=gauntlet_engine,
        )
        worst = report.min_wer_by_owner()
        assert set(worst) == {"<primary>", "globex"}
        assert worst["globex"] == min(
            c.co_owner_wer_percent["globex"] for c in report.cells
        )

    def test_co_owner_fields_survive_json(self, multi_owner_subject, gauntlet_engine):
        report = run_gauntlet(
            {"deploy": multi_owner_subject}, [build_attack("none")],
            engine=gauntlet_engine,
        )
        payload = json.loads(report.to_json())
        assert payload["cells"][0]["co_owner_wer_percent"] == {"globex": 100.0}
        assert payload["cells"][0]["co_owner_owned"] == {"globex": True}

    def test_single_owner_digest_unchanged_by_the_co_owner_fields(
        self, awq_subject, gauntlet_engine
    ):
        # decision_fields only grows for multi-owner cells, so single-owner
        # digests (pinned by the versioned benchmark gates) stay stable.
        report = run_gauntlet(
            {"deploy": awq_subject}, [build_attack("none")], engine=gauntlet_engine,
        )
        assert report.cells[0].co_owner_wer_percent == {}
        assert len(report.cells[0].decision_fields()) == 8


class TestTrueSoupInGauntlet:
    def test_soup_cells_report_both_owners_wer(
        self, awq_subject, quantized_awq4, activation_stats, gauntlet_engine
    ):
        report = run_gauntlet(
            {"deploy": awq_subject},
            [build_attack("soup", base_model=quantized_awq4,
                          base_activations=activation_stats)],
            strengths={"soup": (0.0, 0.5, 1.0)},
            engine=gauntlet_engine, seed=3,
        )
        by_strength = {cell.strength: cell for cell in report.cells}
        # t=0: untouched deployment — owner A alone, at 100%.
        assert by_strength[0.0].wer_percent == 100.0
        assert by_strength[0.0].attacker_wer_percent is None
        # t=0.5: both owners present, each near the soup share.
        half = by_strength[0.5]
        assert 25.0 < half.wer_percent < 75.0
        assert 25.0 < half.attacker_wer_percent < 75.0
        # t=1: the soup *is* clone B.
        full = by_strength[1.0]
        assert full.attacker_wer_percent == 100.0
        assert full.wer_percent < 30.0
        assert full.info["true_two_clone"] is True


class TestRobustnessReport:
    @pytest.fixture(scope="class")
    def report(self, awq_subject, gauntlet_engine):
        return run_gauntlet(
            {"deploy": awq_subject}, _grid_attacks(), GRID_STRENGTHS,
            engine=gauntlet_engine, max_workers=2, seed=4,
        )

    def test_min_wer_by_attack(self, report):
        worst = report.min_wer_by_attack()
        assert set(worst) == {"overwrite", "pruning"}
        for attack, wer in worst.items():
            assert wer == min(c.wer_percent for c in report.cells_for(attack=attack))

    def test_frontier_sorted_by_descending_wer(self, report):
        frontier = report.frontier()
        assert len(frontier) == report.num_cells
        wers = [entry["wer_percent"] for entry in frontier]
        assert wers == sorted(wers, reverse=True)

    def test_render_and_table(self, report):
        rendered = report.render()
        assert "Robustness gauntlet" in rendered
        assert "min WER under overwrite" in rendered
        assert "deploy" in rendered

    def test_to_dict_round_trips_through_json(self, report):
        payload = json.loads(report.to_json())
        assert payload["num_cells"] == report.num_cells
        assert payload["decision_digest"] == report.decision_digest()
        assert len(payload["cells"]) == report.num_cells
        assert payload["min_wer_by_attack"] == report.min_wer_by_attack()

    def test_summary_mentions_worst_attack(self, report):
        worst = report.min_wer_by_attack()
        worst_attack = min(worst, key=worst.get)
        assert worst_attack in report.summary()
