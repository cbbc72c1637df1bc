"""Tests for the command-line interface (driving main() directly)."""

import json

import pytest

import repro.obs as obs
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--workload", "terasort", "--out", "x.npz"]
            )

    def test_unknown_fault_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "simulate", "--workload", "grep", "--out", "x.npz",
                    "--fault", "Quantum-hog",
                ]
            )


class TestSimulate:
    def test_writes_npz(self, tmp_path, capsys):
        out = tmp_path / "run.npz"
        code = main(
            ["simulate", "--workload", "grep", "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "workload=grep" in capsys.readouterr().out

    def test_with_fault_and_csv(self, tmp_path, capsys):
        out = tmp_path / "run.npz"
        csv_dir = tmp_path / "csvs"
        code = main(
            [
                "simulate", "--workload", "grep", "--seed", "4",
                "--fault", "CPU-hog", "--out", str(out),
                "--csv-dir", str(csv_dir),
            ]
        )
        assert code == 0
        assert "fault=CPU-hog" in capsys.readouterr().out
        assert (csv_dir / "slave-1.csv").exists()
        assert (csv_dir / "master.csv").exists()


class TestDiagnose:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("traces")
        normals = []
        for i in range(6):
            p = tmp / f"normal{i}.npz"
            main(
                ["simulate", "--workload", "grep", "--seed", str(300 + i),
                 "--out", str(p)]
            )
            normals.append(p)
        sig = tmp / "hog.npz"
        main(
            ["simulate", "--workload", "grep", "--seed", "400",
             "--fault", "CPU-hog", "--out", str(sig)]
        )
        incident = tmp / "incident.npz"
        main(
            ["simulate", "--workload", "grep", "--seed", "401",
             "--fault", "CPU-hog", "--out", str(incident)]
        )
        healthy = tmp / "healthy.npz"
        main(
            ["simulate", "--workload", "grep", "--seed", "402",
             "--out", str(healthy)]
        )
        return {"normals": normals, "sig": sig,
                "incident": incident, "healthy": healthy}

    def test_diagnoses_incident(self, traces, capsys):
        code = main(
            [
                "diagnose",
                "--normal", *[str(p) for p in traces["normals"]],
                "--signature", f"CPU-hog={traces['sig']}",
                "--incident", str(traces["incident"]),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "performance problem detected" in out
        assert "verdict: CPU-hog" in out

    def test_healthy_incident_clean(self, traces, capsys):
        code = main(
            [
                "diagnose",
                "--normal", *[str(p) for p in traces["normals"]],
                "--incident", str(traces["healthy"]),
            ]
        )
        assert code == 0
        assert "no performance problem" in capsys.readouterr().out

    def test_bad_signature_spec(self, traces, capsys):
        code = main(
            [
                "diagnose",
                "--normal", *[str(p) for p in traces["normals"]],
                "--signature", "missing-equals",
                "--incident", str(traces["incident"]),
            ]
        )
        assert code == 2
        assert "bad --signature" in capsys.readouterr().err

    def test_unknown_node(self, traces, capsys):
        code = main(
            [
                "diagnose",
                "--normal", *[str(p) for p in traces["normals"]],
                "--incident", str(traces["incident"]),
                "--node", "slave-99",
            ]
        )
        assert code == 2
        assert "not in trace" in capsys.readouterr().err


class TestExplain:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("explain-traces")
        normals = []
        for i in range(6):
            p = tmp / f"normal{i}.npz"
            main(
                ["simulate", "--workload", "grep", "--seed", str(500 + i),
                 "--out", str(p)]
            )
            normals.append(p)
        sig = tmp / "hog.npz"
        main(
            ["simulate", "--workload", "grep", "--seed", "510",
             "--fault", "CPU-hog", "--out", str(sig)]
        )
        incident = tmp / "incident.npz"
        main(
            ["simulate", "--workload", "grep", "--seed", "511",
             "--fault", "CPU-hog", "--out", str(incident)]
        )
        healthy = tmp / "healthy.npz"
        main(
            ["simulate", "--workload", "grep", "--seed", "512",
             "--out", str(healthy)]
        )
        return {"normals": normals, "sig": sig,
                "incident": incident, "healthy": healthy}

    @staticmethod
    def _argv(traces, *extra):
        return [
            "explain",
            "--normal", *[str(p) for p in traces["normals"]],
            "--signature", f"CPU-hog={traces['sig']}",
            "--incident", str(traces["incident"]),
            *extra,
        ]

    def test_text_report_on_clean_stdout(self, traces, capsys):
        code = main(self._argv(traces))
        assert code == 0
        captured = capsys.readouterr()
        assert "InvarNet-X incident explanation: grep@slave-1" in captured.out
        assert "verdict: CPU-hog" in captured.out
        assert "violated invariants" in captured.out
        assert "CPI residuals around alarm tick" in captured.out
        # progress goes to stderr so stdout is exactly the report
        assert "training" in captured.err
        assert "training" not in captured.out

    def test_stdout_is_byte_deterministic(self, traces, capsys):
        main(self._argv(traces))
        first = capsys.readouterr().out
        main(self._argv(traces))
        assert capsys.readouterr().out == first

    def test_json_mode(self, traces, capsys):
        code = main(self._argv(traces, "--json"))
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["matched"] is True
        assert data["top_cause"] == "CPU-hog"
        assert data["context"]["workload"] == "grep"
        assert data["causes"] and data["pairs"] and data["residuals"]

    def test_healthy_incident_clean(self, traces, capsys):
        code = main(
            [
                "explain",
                "--normal", *[str(p) for p in traces["normals"]],
                "--incident", str(traces["healthy"]),
            ]
        )
        assert code == 0
        assert "no performance problem" in capsys.readouterr().out

    def test_trace_flag_prints_spans_to_stderr(self, traces, capsys):
        try:
            code = main(["--trace", *self._argv(traces)])
        finally:
            obs.configure(enabled=False)
            obs.remove_handler()
            obs.reset()
        assert code == 0
        err = capsys.readouterr().err
        assert "pipeline.train_from_runs" in err
        assert "arima.fit" in err
        assert "pipeline.detect" in err

    def test_log_level_flag_streams_events(self, traces, capsys):
        try:
            code = main(["--log-level", "info", *self._argv(traces)])
        finally:
            obs.configure(enabled=False)
            obs.remove_handler()
            obs.reset()
        assert code == 0
        assert "event=trained" in capsys.readouterr().err


class TestExperiment:
    def test_fig2(self, capsys):
        code = main(["experiment", "fig2"])
        assert code == 0
        assert "Fig. 2" in capsys.readouterr().out


class TestHealthAndLedger:
    @pytest.fixture(scope="class")
    def registry(self, tmp_path_factory):
        """A DirectoryStore registry populated through the CLI: one
        training pass, one signature, one diagnosed incident — the
        colocated ledger records all three."""
        tmp = tmp_path_factory.mktemp("health-cli")
        normals = []
        for i in range(6):
            p = tmp / f"normal{i}.npz"
            main(
                ["simulate", "--workload", "grep", "--seed", str(600 + i),
                 "--out", str(p)]
            )
            normals.append(p)
        sig = tmp / "hog.npz"
        main(
            ["simulate", "--workload", "grep", "--seed", "610",
             "--fault", "CPU-hog", "--out", str(sig)]
        )
        incident = tmp / "incident.npz"
        main(
            ["simulate", "--workload", "grep", "--seed", "611",
             "--fault", "CPU-hog", "--out", str(incident)]
        )
        reg = tmp / "reg"
        code = main(
            [
                "diagnose",
                "--normal", *[str(p) for p in normals],
                "--signature", f"CPU-hog={sig}",
                "--incident", str(incident),
                "--store", str(reg),
            ]
        )
        assert code == 0
        return {"reg": reg, "normals": normals, "incident": incident}

    def test_health_text_report(self, registry, capsys):
        code = main(["health", str(registry["reg"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "grep@slave-1" in out
        for check in (
            "residual-drift", "fragile-invariants", "ambiguous-signatures",
            "staleness", "timing-regression",
        ):
            assert check in out
        assert "status=" in out and "score=" in out

    def test_health_json_byte_deterministic(self, registry, capsys):
        """Acceptance: two invocations over the same registry produce
        byte-identical JSON."""
        assert main(["health", str(registry["reg"]), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["health", str(registry["reg"]), "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["contexts"][0]["context"] == ["grep", "slave-1"]
        assert report["thresholds"]["stale_runs"] == 50

    def test_health_threshold_flags_reach_the_report(self, registry, capsys):
        code = main(
            ["health", str(registry["reg"]), "--json", "--stale-runs", "1"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["thresholds"]["stale_runs"] == 1

    def test_health_requires_a_registry(self, tmp_path, capsys):
        code = main(["health", str(tmp_path)])
        assert code == 2
        assert "no model registry" in capsys.readouterr().err

    def test_ledger_list_round_trips_every_run(self, registry, capsys):
        from repro.obs.ledger import RunLedger

        recorded = RunLedger(registry["reg"] / "ledger.jsonl").entries()
        assert recorded  # the diagnose invocation left a trail
        code = main(["ledger", "list", str(registry["reg"])])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = lines[1:]  # header first
        assert len(rows) == len(recorded)
        for entry, row in zip(recorded, rows):
            assert row.split()[0] == str(entry["seq"])
            assert entry["kind"] in row
        kinds = {e["kind"] for e in recorded}
        assert {"train", "signature", "diagnose"} <= kinds

    def test_ledger_list_kind_filter(self, registry, capsys):
        code = main(
            ["ledger", "list", str(registry["reg"]), "--kind", "train"]
        )
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows and all("train" in r for r in rows)

    def test_ledger_list_details_fleet_diagnoses(self, tmp_path, capsys):
        """A ``fleet-diagnose`` entry lists its cause and its bundle."""
        from repro.core import OperationContext
        from repro.serve import FleetMonitor
        from repro.store import DirectoryStore
        from tests.obs.test_blackbox import drive_fault, incident_pipeline

        context = OperationContext("wordcount", "node-0")
        reg = tmp_path / "reg"
        pipe = incident_pipeline([context], store=DirectoryStore(reg))
        pipe.store.persist(context.key())
        fleet = FleetMonitor(
            pipe, shards=1, window_ticks=8, warmup_ticks=12,
            cooldown_ticks=4, blackbox_dir=tmp_path / "incidents",
        )
        drive_fault(fleet, [context], {context.key()}, ticks=22)
        (entry,) = pipe.ledger.entries(kind="fleet-diagnose")
        code = main(["ledger", "list", str(reg), "--kind", "fleet-diagnose"])
        assert code == 0
        (row,) = capsys.readouterr().out.strip().splitlines()[1:]
        assert row.endswith(f"cause=disk_hog bundle={entry['bundle']}")

    def test_ledger_show_latest_and_by_seq(self, registry, capsys):
        assert main(["ledger", "show", str(registry["reg"])]) == 0
        latest = json.loads(capsys.readouterr().out)
        assert latest["kind"] == "diagnose"
        assert main(
            ["ledger", "show", str(registry["reg"]), "--seq", "1"]
        ) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["seq"] == 1
        assert first["kind"] == "train"

    def test_ledger_show_unknown_seq(self, registry, capsys):
        code = main(["ledger", "show", str(registry["reg"]), "--seq", "999"])
        assert code == 2
        assert "no entry with seq=999" in capsys.readouterr().err

    def test_store_inspect_reports_health_and_last_entry(
        self, registry, capsys
    ):
        code = main(
            ["store", "inspect", str(registry["reg"]),
             "--workload", "grep", "--node", "slave-1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "health:" in out and "score=" in out
        assert "last ledger entry:" in out
        assert "kind=diagnose" in out

    def test_trace_out_writes_chrome_trace(self, registry, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        try:
            code = main(
                [
                    "--trace-out", str(trace_path),
                    "diagnose",
                    "--normal", *[str(p) for p in registry["normals"]],
                    "--incident", str(registry["incident"]),
                    "--store", str(registry["reg"]),
                ]
            )
        finally:
            obs.configure(enabled=False)
            obs.remove_handler()
            obs.reset()
        assert code == 0
        assert "wrote trace to" in capsys.readouterr().err
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        names = {e["name"] for e in doc["traceEvents"]}
        assert "pipeline.detect" in names
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        assert doc["otherData"]["producer"] == "repro.obs"


class TestRuns:
    def test_run_requires_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs", "run", "--spec", "smoke"])

    def test_run_requires_a_spec_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs", "run", "--dir", "x"])

    def test_run_rejects_unknown_builtin(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["runs", "run", "--dir", "x", "--spec", "fig99"]
            )

    def test_run_spec_and_spec_file_are_exclusive(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("{}")
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["runs", "run", "--dir", "x", "--spec", "smoke",
                 "--spec-file", str(spec_file)]
            )

    def test_run_bad_spec_file_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("{not json")
        code = main(
            ["runs", "run", "--dir", str(tmp_path / "reg"),
             "--spec-file", str(spec_file)]
        )
        assert code == 2
        assert "bad campaign spec" in capsys.readouterr().err

    def test_run_spec_file_missing_fields_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"name": "half-a-spec"}')
        code = main(
            ["runs", "run", "--dir", str(tmp_path / "reg"),
             "--spec-file", str(spec_file)]
        )
        assert code == 2
        assert "bad campaign spec" in capsys.readouterr().err

    def test_list_on_empty_registry(self, tmp_path, capsys):
        code = main(["runs", "list", "--dir", str(tmp_path)])
        assert code == 0
        assert "no indexed runs" in capsys.readouterr().out

    def test_show_unknown_run_exits_2(self, tmp_path, capsys):
        code = main(
            ["runs", "show", "nope-000000000000", "--dir", str(tmp_path)]
        )
        assert code == 2
        assert "no committed run" in capsys.readouterr().err

    def test_compare_on_empty_index_exits_2(self, tmp_path, capsys):
        code = main(
            ["runs", "compare", "InvarNet-X", "ARX", "--dir", str(tmp_path)]
        )
        assert code == 2
        assert "no indexed measurements" in capsys.readouterr().err

    def test_compare_same_system_exits_2(self, tmp_path, capsys):
        code = main(
            ["runs", "compare", "ARX", "ARX", "--dir", str(tmp_path)]
        )
        assert code == 2
        assert "itself" in capsys.readouterr().err


class TestIncidentsAndReplay:
    @pytest.fixture()
    def incident_registry(self, tmp_path_factory):
        """A registry whose blackbox committed bundles for a two-node
        fault (driven in-process; bundles land in <registry>/incidents)."""
        from repro.core import OperationContext
        from repro.serve import FleetMonitor
        from repro.store import DirectoryStore

        from tests.obs.test_blackbox import drive_fault, incident_pipeline

        registry = tmp_path_factory.mktemp("incident-cli") / "registry"
        contexts = [
            OperationContext("wordcount", f"node-{i}", ip=f"10.0.0.{i}")
            for i in range(3)
        ]
        pipe = incident_pipeline(
            contexts, store=DirectoryStore(registry)
        )
        for context in contexts:
            pipe.store.persist(context.key())
        fleet = FleetMonitor(
            pipe,
            shards=2,
            window_ticks=8,
            warmup_ticks=12,
            cooldown_ticks=4,
            blackbox_dir=registry / "incidents",
        )
        drive_fault(
            fleet, contexts, {contexts[0].key(), contexts[1].key()}
        )
        obs.configure(enabled=False)
        obs.reset()
        return registry

    def test_incidents_list_accepts_registry_root(
        self, incident_registry, capsys
    ):
        code = main(["incidents", "list", str(incident_registry)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("P01  shared-workload")
        assert "cause disk_hog" in out
        assert "P02" not in out  # one platform incident, not singletons

    def test_incidents_list_horizon_and_json(
        self, incident_registry, capsys
    ):
        code = main(
            ["incidents", "list", str(incident_registry / "incidents"),
             "--horizon", "5", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [i["incident_id"] for i in doc] == ["P01", "P02", "P03"]
        assert all(
            i["classification"] == "shared-workload" for i in doc
        )

    def test_incidents_show(self, incident_registry, capsys):
        code = main(["incidents", "show", str(incident_registry), "P01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "causes: disk_hog" in out
        assert "request-id req-" in out

    def test_incidents_show_unknown_exits_2(
        self, incident_registry, capsys
    ):
        code = main(["incidents", "show", str(incident_registry), "P99"])
        assert code == 2
        assert "no platform incident" in capsys.readouterr().err

    def test_replay_reproduces_and_exits_0(
        self, incident_registry, capsys
    ):
        bundle = sorted((incident_registry / "incidents").iterdir())[0]
        code = main(["replay", str(bundle)])
        assert code == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out
        assert "byte-identical" in out

    def test_replay_json_mode(self, incident_registry, capsys):
        bundle = sorted((incident_registry / "incidents").iterdir())[0]
        code = main(["replay", str(bundle), "--json", "--passes", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["passes"] == 3

    def test_replay_tampered_bundle_exits_1(
        self, incident_registry, capsys
    ):
        bundle = sorted((incident_registry / "incidents").iterdir())[0]
        explain = bundle / "explain.txt"
        explain.write_text(
            explain.read_text(encoding="utf-8") + "tamper\n",
            encoding="utf-8",
        )
        code = main(["replay", str(bundle)])
        assert code == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_replay_missing_bundle_exits_2(self, tmp_path, capsys):
        code = main(["replay", str(tmp_path / "nope")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_health_folds_in_platform_incidents(
        self, incident_registry, capsys
    ):
        code = main(["health", str(incident_registry)])
        assert code == 0
        out = capsys.readouterr().out
        assert "platform-incidents" in out

    def test_health_json_carries_incident_check(
        self, incident_registry, capsys
    ):
        code = main(["health", str(incident_registry), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in doc["fleet"]]
        assert "platform-incidents" in names

    def test_serve_parser_accepts_blackbox_flags(self):
        args = build_parser().parse_args(["serve", "reg", "--no-blackbox"])
        assert args.no_blackbox is True
        assert args.blackbox is None
        # the per-lane ring length is fixed; the old flag is unknown
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["serve", "reg", "--blackbox-capacity", "32"]
            )
        assert exc.value.code == 2
