"""Unit tests: the command-line interface."""

import os
import re
import shlex

import pytest

from repro.cli import _check_env_args, build_parser, main

README = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "README.md"
)


def readme_commands():
    """Every ``python -m repro ...`` invocation in the README, as argv
    lists (backslash continuations joined, ``&&`` chains split,
    trailing ``# comments`` stripped)."""
    with open(README) as fh:
        text = fh.read()
    text = re.sub(r"\\\n\s*", " ", text)
    commands = []
    for line in text.splitlines():
        for part in line.split("&&"):
            part = part.strip()
            if part.startswith("python -m repro"):
                tokens = shlex.split(part, comments=True)
                # `python -m repro.audit.fixture ...` runs a different
                # module, not the repro CLI — skip anything whose module
                # token is not exactly `repro`.
                if tokens[2] != "repro":
                    continue
                commands.append(tokens[3:])
    return commands


class TestReadmeExamples:
    """The README's CLI examples must stay in sync with the parser —
    a renamed or removed flag has to fail here, not on a reader."""

    def test_readme_examples_exist(self):
        assert len(readme_commands()) >= 20

    def test_readme_covers_the_service_cli(self):
        heads = {argv[0] for argv in readme_commands() if argv}
        assert {"serve", "submit", "status", "agent", "fsck"} <= heads

    @pytest.mark.parametrize(
        "argv", readme_commands(), ids=lambda a: " ".join(a)[:60]
    )
    def test_readme_example_parses(self, argv, capsys):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            err = capsys.readouterr().err
            pytest.fail(
                f"README example no longer parses: "
                f"`python -m repro {' '.join(argv)}`\n{err}"
            )


class TestServiceClientErrors:
    def test_status_against_dead_service_is_one_line(self, capsys):
        # A typed diagnosis, not a ConnectionRefusedError traceback.
        assert main(["status", "--http", "127.0.0.1:1"]) == 1
        err = capsys.readouterr().err
        assert "error: ReproError: could not reach service" in err

    def test_study_status_against_dead_service_is_one_line(self, capsys):
        assert main(["status", "deadbeef", "--http", "127.0.0.1:1"]) == 1
        assert "could not reach service" in capsys.readouterr().err


class TestListingCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "perlbench" in out and "sphinx3" in out

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "core2" in out and "pentium4" in out and "m5_o3cpu" in out

    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "133" in out


class TestRunCommand:
    def test_run_prints_counters_and_verifies(self, capsys):
        assert main(["run", "sphinx3", "--opt", "2"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "verified against reference" in out

    def test_run_with_env_bytes(self, capsys):
        assert main(["run", "sphinx3", "--env-bytes", "256"]) == 0
        assert "env=256B" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "doom"])


class TestBadCounts:
    """Counts and timeouts that cannot describe a real sweep are usage
    errors (exit 2) at parse time, before anything is built or run."""

    @pytest.mark.parametrize("argv", [
        ["study", "bzip2", "link", "--orders", "0"],
        ["study", "bzip2", "link", "--orders", "-2"],
        ["study", "sphinx3", "env", "--timeout", "-1"],
        ["study", "sphinx3", "env", "--timeout", "nan"],
        ["randomized", "bzip2", "--setups", "1"],
        ["randomized", "bzip2", "--timeout", "0"],
        ["submit", "bzip2", "link", "--orders", "0",
         "--http", "127.0.0.1:1"],
        ["submit", "bzip2", "env", "--wait-timeout", "-1",
         "--http", "127.0.0.1:1"],
        ["serve", "--workdir", "svc", "--http", "127.0.0.1:0",
         "--timeout", "-1"],
        ["study", "bzip2", "link", "--orders", "1",
         "--timeline-out", "t.jsonl", "--timeline-interval", "-1"],
        ["serve", "--workdir", "svc", "--http", "127.0.0.1:0",
         "--heartbeat-interval", "0"],
        ["serve", "--workdir", "svc", "--http", "127.0.0.1:0",
         "--agentless-grace", "-1"],
        ["serve", "--workdir", "svc", "--http", "127.0.0.1:0",
         "--agentless-grace", "inf"],
        ["serve", "--workdir", "svc", "--http", "127.0.0.1:0",
         "--agentless-grace", "nan"],
        ["submit", "bzip2", "env", "--poll-interval", "-0.5",
         "--http", "127.0.0.1:1"],
    ], ids=lambda a: " ".join(a[:2] + a[-2:]))
    def test_rejected_at_parse_time(self, argv, capsys, tmp_path,
                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "svc")

    def test_boundaries_accepted(self):
        parser = build_parser()
        args = parser.parse_args(["study", "bzip2", "link", "--orders", "1",
                                  "--timeout", "0.5"])
        assert (args.orders, args.timeout) == (1, 0.5)
        args = parser.parse_args(["randomized", "bzip2", "--setups", "2"])
        assert args.setups == 2
        args = parser.parse_args(["serve", "--workdir", "svc", "--http",
                                  "127.0.0.1:0", "--agentless-grace", "0",
                                  "--heartbeat-interval", "0.05"])
        assert (args.agentless_grace, args.heartbeat_interval) == (0.0, 0.05)


class TestUnreachableEnvSizes:
    """Environment sizes the padding variable cannot reach from the
    77-byte base (below it, or 1-2 bytes above it) are refused at parse
    time as usage errors, before any setup is measured."""

    @pytest.mark.parametrize("argv", [
        ["study", "perlbench", "env", "--env-start", "0"],
        ["study", "sphinx3", "env", "--env-start", "78", "--env-stop", "79"],
        ["study", "sphinx3", "env", "--env-step", "0"],
        ["study", "sphinx3", "env", "--env-start", "200", "--env-stop", "100"],
        ["archive", "sphinx3", "out.json", "--env-start", "0"],
        ["submit", "sphinx3", "env", "--env-start", "0",
         "--http", "127.0.0.1:1"],
        ["run", "sphinx3", "--env-bytes", "78"],
    ], ids=lambda a: " ".join(a[:5]))
    def test_rejected_at_parse_time(self, argv, capsys, tmp_path,
                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "out.json")

    def test_message_names_the_size_and_base(self, capsys):
        with pytest.raises(SystemExit):
            main(["study", "perlbench", "env", "--env-start", "0"])
        err = capsys.readouterr().err
        assert "env size 0 is unreachable" in err
        assert "77-byte base" in err

    def test_link_study_ignores_env_range(self):
        args = build_parser().parse_args(
            ["study", "sphinx3", "link", "--env-start", "0"])
        _check_env_args(args)  # env args are unused by a link study

    def test_reachable_boundaries_accepted(self):
        for argv in (["run", "sphinx3", "--env-bytes", "77"],
                     ["run", "sphinx3", "--env-bytes", "80"],
                     ["study", "sphinx3", "env", "--env-start", "77",
                      "--env-stop", "81", "--env-step", "3"]):
            _check_env_args(build_parser().parse_args(argv))


class TestStudyCommand:
    def test_env_study(self, capsys):
        assert (
            main(
                [
                    "study",
                    "sphinx3",
                    "env",
                    "--env-start",
                    "100",
                    "--env-stop",
                    "164",
                    "--env-step",
                    "16",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speedup" in out and "env_bytes" in out

    def test_link_study(self, capsys):
        assert main(["study", "sphinx3", "link", "--orders", "3"]) == 0
        assert "link_order" in capsys.readouterr().out

    @pytest.mark.slow
    def test_parallel_study_matches_serial(self, capsys):
        argv = [
            "study",
            "sphinx3",
            "env",
            "--env-start",
            "100",
            "--env-stop",
            "164",
            "--env-step",
            "32",
        ]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # The published study table must be identical; the parallel run
        # only adds the sweep accounting line above it.
        table = serial_out[serial_out.index("env_bytes") :]
        assert table in parallel_out
        assert "sweep:" in parallel_out

    def test_resume_skips_remeasurement(self, capsys, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        argv = [
            "study",
            "sphinx3",
            "env",
            "--env-start",
            "100",
            "--env-stop",
            "164",
            "--env-step",
            "32",
            "--resume",
            journal,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "4 measured + 0 resumed" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 measured + 4 resumed" in second
        # Same published numbers either way.
        assert first[first.index("env_bytes") :] == (
            second[second.index("env_bytes") :]
        )


class TestRandomizedCommand:
    def test_randomized(self, capsys):
        assert main(["randomized", "sphinx3", "--setups", "3"]) == 0
        out = capsys.readouterr().out
        assert "random setups" in out
        assert any(
            verdict in out
            for verdict in ("beneficial", "harmful", "inconclusive")
        )


class TestCharacterizeCommand:
    def test_characterize(self, capsys):
        assert main(["characterize", "sphinx3"]) == 0
        out = capsys.readouterr().out
        assert "hottest function" in out and "opcode mix" in out


class TestArchiveCommands:
    def test_archive_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "a.json")
        assert (
            main(
                [
                    "archive",
                    "sphinx3",
                    path,
                    "--env-start",
                    "100",
                    "--env-stop",
                    "164",
                    "--env-step",
                    "32",
                ]
            )
            == 0
        )
        assert "archived 2 measurements" in capsys.readouterr().out
        assert main(["verify-archive", path]) == 0
        assert "reproduce exactly" in capsys.readouterr().out

    def _archive(self, tmp_path, name):
        path = str(tmp_path / name)
        assert (
            main(
                [
                    "archive",
                    "sphinx3",
                    path,
                    "--env-stop",
                    "132",
                    "--env-step",
                    "32",
                ]
            )
            == 0
        )
        return path

    def test_verify_detects_naive_tampering(self, capsys, tmp_path):
        # Editing a measurement without fixing its checksum is caught
        # at load time by the v2 per-record checksum.
        import json

        path = self._archive(tmp_path, "b.json")
        data = json.load(open(path))
        data["measurements"][0]["measurement"]["counters"]["cycles"] += 5000
        json.dump(data, open(path, "w"))
        capsys.readouterr()
        assert main(["verify-archive", path]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_verify_detects_consistent_tampering(self, capsys, tmp_path):
        # A forger who also recomputes the checksum gets past loading,
        # but re-measurement still exposes the drift.
        import json

        from repro.core.session import record_checksum

        path = self._archive(tmp_path, "c.json")
        data = json.load(open(path))
        record = data["measurements"][0]
        record["measurement"]["counters"]["cycles"] += 5000
        record["sha256"] = record_checksum(record["measurement"])
        json.dump(data, open(path, "w"))
        capsys.readouterr()
        assert main(["verify-archive", path]) == 1
        assert "DRIFT" in capsys.readouterr().out
