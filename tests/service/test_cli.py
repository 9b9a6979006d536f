"""CLI smoke tests: ``--help`` for every sub-command plus an offline verify."""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.service.codec import save_model
from repro.service.registry import KeyRegistry
from tests.conftest import one_shot_server

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestHelp:
    @pytest.mark.parametrize("args", [("--help",), ("insert", "--help"),
                                      ("serve", "--help"),
                                      ("verify", "--help"), ("loadgen", "--help"),
                                      ("gauntlet", "--help"), ("audit", "--help")])
    def test_help_exits_zero(self, args):
        result = _run_cli(*args)
        assert result.returncode == 0, result.stderr
        assert "usage:" in result.stdout

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0
        assert "serve" in result.stdout and "loadgen" in result.stdout

    def test_missing_command_is_an_error(self):
        result = _run_cli()
        assert result.returncode != 0

    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        assert parser.parse_args(["serve"]).command == "serve"
        assert parser.parse_args(
            ["verify", "--registry", "r", "--suspect", "s"]
        ).command == "verify"
        assert parser.parse_args(["loadgen", "--duration", "1"]).command == "loadgen"
        assert parser.parse_args(["gauntlet", "--attack", "overwrite"]).command == "gauntlet"
        args = parser.parse_args(["insert", "--owners", "3"])
        assert args.command == "insert" and args.owners == 3
        assert parser.parse_args(["audit", "--registry", "r"]).command == "audit"

    def test_gauntlet_executor_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["gauntlet", "--executor", "process", "--start-method", "spawn"]
        )
        assert args.executor == "process" and args.start_method == "spawn"
        assert parser.parse_args(["gauntlet"]).executor == "thread"
        with pytest.raises(SystemExit):
            parser.parse_args(["gauntlet", "--executor", "quantum"])
        with pytest.raises(SystemExit):
            parser.parse_args(["gauntlet", "--start-method", "psychic"])


class TestFlagSpelling:
    """Flags match exactly: no prefix abbreviations, no free-form model names."""

    def test_mode_is_not_read_as_model(self):
        result = _run_cli("gauntlet", "--mode", "batched")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "unrecognized arguments: --mode batched" in result.stderr

    def test_removed_batching_window_flag_is_a_usage_error(self):
        result = _run_cli("serve", "--max-wait-ms", "2")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "unrecognized arguments: --max-wait-ms 2" in result.stderr

    def test_removed_fleet_flag_is_a_usage_error(self):
        result = _run_cli("loadgen", "--requests", "1", "--fleet", "127.0.0.1:1")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "unrecognized arguments: --fleet 127.0.0.1:1" in result.stderr

    @pytest.mark.parametrize("command", ["insert", "gauntlet"])
    def test_unknown_model_is_a_usage_error(self, command):
        result = _run_cli(command, "--model", "batched")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "invalid choice: 'batched'" in result.stderr

    @pytest.mark.parametrize("argv", [
        ["--log", "DEBUG", "check", "--list-rules"],
        ["serve", "--po", "0"],
        ["gauntlet", "--work", "2"],
    ])
    def test_abbreviations_are_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


class TestInsertCommand:
    def test_multi_owner_insert_registers_and_saves_keys(self, tmp_path, capsys):
        registry_dir = tmp_path / "registry"
        keys_dir = tmp_path / "keys"
        code = main([
            "insert", "--model", "opt-2.7b-sim", "--bits", "8",
            "--profile", "smoke", "--owners", "2",
            "--registry", str(registry_dir), "--output", str(keys_dir),
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["owners"] == 2
        assert len(payload["decisions"]) == 2
        for decision in payload["decisions"]:
            assert decision["owned"] is True
            assert decision["wer_percent"] == 100.0
            assert decision["co_residents"]
        # Keys landed in the registry, indexed under one model fingerprint.
        registry = KeyRegistry(registry_dir)
        assert len(registry) == 2
        assert registry.stats()["multi_owner_models"] == 1
        # And on disk, one directory per owner.
        assert sorted(p.name for p in keys_dir.iterdir()) == ["owner-0", "owner-1"]

    def test_invalid_owner_count_errors(self, capsys):
        assert main(["insert", "--owners", "0"]) == 2
        assert "--owners" in capsys.readouterr().err


class TestGauntletUsageErrors:
    """Grid mistakes must fail fast (exit 2) before the model is prepared."""

    def test_unknown_attack(self, capsys):
        assert main(["gauntlet", "--attack", "weight-exorcism"]) == 2
        assert "unknown attacks" in capsys.readouterr().err

    def test_duplicate_attack_flags(self, capsys):
        assert main(["gauntlet", "--attack", "overwrite", "--attack", "overwrite"]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_orphaned_strengths(self, capsys):
        assert main(["gauntlet", "--attack", "overwrite",
                     "--strengths", "pruning=0.3"]) == 2
        assert "not in the grid" in capsys.readouterr().err

    def test_malformed_strengths(self, capsys):
        assert main(["gauntlet", "--strengths", "overwrite"]) == 2
        assert "NAME=V1,V2" in capsys.readouterr().err

    @pytest.mark.parametrize("attack,strength", [
        ("pruning", "2.0"), ("requantize", "0"), ("overwrite", "2.5"),
    ])
    def test_out_of_domain_strength(self, capsys, monkeypatch, attack, strength):
        import repro.experiments.common as common

        def unreachable(*args, **kwargs):
            raise AssertionError("the model was prepared for a refused grid")

        monkeypatch.setattr(common, "prepare_context", unreachable)
        assert main(["gauntlet", "--attack", attack,
                     "--strengths", f"{attack}={strength}"]) == 2
        assert f"{attack} strength" in capsys.readouterr().err


class TestOfflineVerify:
    def test_verify_against_registry(
        self, watermarked_and_key, quantized_awq4, tmp_path, capsys
    ):
        """`repro verify` finds ownership of the watermarked deployment."""
        watermarked, key = watermarked_and_key
        registry = KeyRegistry(tmp_path / "reg")
        registry.register(key, owner="acme")
        save_model(watermarked, tmp_path / "suspect-hit")
        save_model(quantized_awq4, tmp_path / "suspect-miss")

        code = main(["verify", "--registry", str(tmp_path / "reg"),
                     "--suspect", str(tmp_path / "suspect-hit"), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["decisions"][0]["owned"] is True

        code = main(["verify", "--registry", str(tmp_path / "reg"),
                     "--suspect", str(tmp_path / "suspect-miss"), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1  # exit 1: no ownership established
        assert out["decisions"][0]["owned"] is False

    def test_offline_audit_flags_a_collision(
        self, watermarked_and_key, tmp_path, capsys
    ):
        """`repro audit` re-verifies slot disjointness straight off the disk."""
        from dataclasses import replace

        _, key = watermarked_and_key
        registry = KeyRegistry(tmp_path / "reg")
        registry.register(key, owner="acme")
        assert main(["audit", "--registry", str(tmp_path / "reg"), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True and out["models"] == 1

        registry.register(replace(key, signature=-key.signature), owner="mallory")
        assert main(["audit", "--registry", str(tmp_path / "reg"), "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False and out["collisions"] == 1

    def test_offline_audit_text_reports_disjoint(
        self, watermarked_and_key, tmp_path, capsys
    ):
        _, key = watermarked_and_key
        KeyRegistry(tmp_path / "reg").register(key, owner="acme")
        assert main(["audit", "--registry", str(tmp_path / "reg")]) == 0
        out = capsys.readouterr().out
        assert "occupancy audit: DISJOINT — 1 model fingerprint(s), 0 collision(s)" in out
        assert "  COLLISION" not in out

    def test_offline_audit_text_names_the_collision(
        self, watermarked_and_key, tmp_path, capsys
    ):
        from dataclasses import replace

        _, key = watermarked_and_key
        registry = KeyRegistry(tmp_path / "reg")
        registry.register(key, owner="acme")
        registry.register(replace(key, signature=-key.signature), owner="mallory")
        assert main(["audit", "--registry", str(tmp_path / "reg")]) == 1
        out = capsys.readouterr().out
        assert "occupancy audit: COLLISION — 1 model fingerprint(s), 1 collision(s)" in out
        assert f"  COLLISION {key.model_fingerprint()}: layer " in out
        assert "already held by wmk-" in out

    def test_existing_empty_registry_is_a_disjoint_verdict(self, tmp_path, capsys):
        (tmp_path / "reg").mkdir()
        assert main(["audit", "--registry", str(tmp_path / "reg"), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True and out["models"] == 0

    def test_verify_empty_registry_errors(self, quantized_awq4, tmp_path, capsys):
        save_model(quantized_awq4, tmp_path / "suspect")
        code = main(["verify", "--registry", str(tmp_path / "empty"),
                     "--suspect", str(tmp_path / "suspect")])
        capsys.readouterr()
        assert code == 2


def _one_error_line(capsys):
    """The single stderr line of a refused command (no traceback)."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


class TestReadOnlyCommandsRefuseBadTargets:
    """`repro audit` and `repro verify` exit 0/1 only for a real verdict; a
    missing registry or suspect, or an unreachable server, is exit 2 and
    creates nothing."""

    def test_audit_of_missing_registry_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir"
        assert main(["audit", "--registry", str(missing)]) == 2
        assert "does not exist" in _one_error_line(capsys)
        assert not (tmp_path / "no").exists()

    def test_verify_against_missing_registry_creates_nothing(
        self, quantized_awq4, tmp_path, capsys
    ):
        save_model(quantized_awq4, tmp_path / "suspect")
        missing = tmp_path / "no" / "such" / "dir"
        code = main(["verify", "--registry", str(missing),
                     "--suspect", str(tmp_path / "suspect")])
        assert code == 2
        assert "does not exist" in _one_error_line(capsys)
        assert not (tmp_path / "no").exists()

    def test_verify_of_missing_suspect_is_not_a_verdict(self, tmp_path, capsys):
        (tmp_path / "reg").mkdir()
        code = main(["verify", "--registry", str(tmp_path / "reg"),
                     "--suspect", str(tmp_path / "no-suspect")])
        assert code == 2
        assert "cannot load suspect" in _one_error_line(capsys)

    def test_audit_of_unreachable_server_is_not_a_collision(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # The socket is closed: nothing listens on ``port``.
        assert main(["audit", "--port", str(port), "--json"]) == 2
        assert f"127.0.0.1:{port}" in _one_error_line(capsys)

    @pytest.mark.parametrize("command", ["audit", "verify"])
    def test_registry_path_that_is_a_file_is_a_usage_error(
        self, command, tmp_path, capsys
    ):
        (tmp_path / "reg").write_text("not a registry")
        argv = [command, "--registry", str(tmp_path / "reg")]
        if command == "verify":
            argv += ["--suspect", str(tmp_path / "suspect")]
        assert main(argv) == 2
        assert "does not exist" in _one_error_line(capsys)
        assert (tmp_path / "reg").read_text() == "not a registry"

    def test_audit_of_an_error_response_is_not_a_verdict(self, capsys):
        with one_shot_server(
            b"HTTP/1.1 500 Internal Server Error\r\nContent-Type: application/json\r\n"
            b"Content-Length: 52\r\nConnection: close\r\n\r\n"
            b'{"error": {"code": "internal", "message": "boom!!"}}'
        ) as port:
            assert main(["audit", "--port", str(port)]) == 2
        line = _one_error_line(capsys)
        assert f"127.0.0.1:{port}" in line and "boom!!" in line

    def test_audit_of_a_non_http_peer_is_not_a_verdict(self, capsys):
        with one_shot_server(b"SSH-2.0-OpenSSH\r\n") as port:
            assert main(["audit", "--port", str(port), "--json"]) == 2
        assert f"127.0.0.1:{port}" in _one_error_line(capsys)


class TestLoadgenCommand:
    def test_requires_one_stop_condition(self, capsys):
        assert main(["loadgen", "--suspect-id", "hit"]) == 2
        assert "exactly one of --duration / --requests" in _one_error_line(capsys)

    def test_requires_a_suspect(self, capsys):
        assert main(["loadgen", "--requests", "1"]) == 2
        assert "no suspects" in _one_error_line(capsys)

    def test_run_against_a_live_server_writes_the_report(
        self, server_handle, tmp_path, capsys
    ):
        output = tmp_path / "load.json"
        code = main(["loadgen", "--port", str(server_handle.port),
                     "--suspect-id", "hit", "--requests", "4",
                     "--concurrency", "2", "--output", str(output)])
        capsys.readouterr()
        assert code == 0
        report = json.loads(output.read_text())
        assert report["completed"] == 4
        assert report["failed"] == 0
        assert report["per_label_completed"] == {"hit": 4}
