"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.storage.database import SequenceDatabase


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    rc = main(
        [
            "generate",
            "--kind",
            "walk",
            "--n",
            "20",
            "--length",
            "15",
            "--seed",
            "3",
            "--out",
            str(path),
        ]
    )
    assert rc == 0
    return path


@pytest.fixture()
def database_file(dataset_csv, tmp_path):
    db_path = tmp_path / "data.heap"
    rc = main(["build", "--input", str(dataset_csv), "--out", str(db_path)])
    assert rc == 0
    return db_path


class TestGenerate:
    def test_walk_csv_shape(self, dataset_csv):
        lines = dataset_csv.read_text().strip().splitlines()
        assert len(lines) == 20
        assert all(len(line.split(",")) == 15 for line in lines)

    def test_stocks_have_labels(self, tmp_path, capsys):
        path = tmp_path / "stocks.csv"
        rc = main(
            ["generate", "--kind", "stocks", "--n", "5", "--length", "20",
             "--out", str(path)]
        )
        assert rc == 0
        first = path.read_text().splitlines()[0]
        assert first.startswith("TICK")
        assert "wrote 5 sequences" in capsys.readouterr().out

    def test_jitter(self, tmp_path):
        path = tmp_path / "jit.csv"
        main(
            ["generate", "--n", "20", "--length", "30", "--jitter", "0.5",
             "--seed", "1", "--out", str(path)]
        )
        lengths = {len(l.split(",")) for l in path.read_text().splitlines()}
        assert len(lengths) > 1


class TestBuildAndInfo:
    def test_build_creates_loadable_db(self, database_file):
        db = SequenceDatabase.load(database_file)
        assert len(db) == 20

    def test_info_output(self, database_file, capsys):
        rc = main(["info", "--db", str(database_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sequences:      20" in out
        assert "total elements: 300" in out

    def test_build_missing_input_fails(self, tmp_path, capsys):
        rc = main(
            ["build", "--input", str(tmp_path / "nope.csv"), "--out",
             str(tmp_path / "o.heap")]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestQuery:
    def test_epsilon_query_finds_stored_sequence(self, database_file, capsys):
        db = SequenceDatabase.load(database_file)
        target = ",".join(str(v) for v in db.fetch(4).values)
        rc = main(
            ["query", "--db", str(database_file), "--query", target,
             "--epsilon", "0.0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "seq 4" in out
        assert "D_tw=0" in out

    def test_knn_query(self, database_file, capsys):
        db = SequenceDatabase.load(database_file)
        target = ",".join(str(v) for v in db.fetch(2).values)
        rc = main(
            ["query", "--db", str(database_file), "--query", target,
             "--knn", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 nearest neighbour(s):" in out
        assert "seq 2" in out.splitlines()[1]  # exact match ranks first

    def test_query_from_file(self, database_file, tmp_path, capsys):
        db = SequenceDatabase.load(database_file)
        qfile = tmp_path / "q.txt"
        qfile.write_text("\n".join(str(v) for v in db.fetch(0).values))
        rc = main(
            ["query", "--db", str(database_file), "--query", f"@{qfile}",
             "--epsilon", "0.0"]
        )
        assert rc == 0
        assert "seq 0" in capsys.readouterr().out

    def test_bad_query_token_is_one_error_line(self, database_file, capsys):
        rc = main(
            ["query", "--db", str(database_file), "--query", "1,abc",
             "--epsilon", "1.0"]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            "error: query value 'abc' (--query) is not a number"
        ]
        assert "Traceback" not in captured.err

    def test_bad_line_in_query_file_names_it(
        self, database_file, tmp_path, capsys
    ):
        qfile = tmp_path / "q.txt"
        qfile.write_text("1.0 2.0\n3.0 4,5\n")
        rc = main(
            ["query", "--db", str(database_file), "--query", f"@{qfile}",
             "--epsilon", "1.0"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"'4,5' ({qfile}:2)" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_query_file_is_an_error(self, database_file, tmp_path, capsys):
        rc = main(
            ["query", "--db", str(database_file), "--query",
             f"@{tmp_path / 'absent.txt'}", "--epsilon", "1.0"]
        )
        assert rc == 1
        assert "cannot read query file" in capsys.readouterr().err

    def test_epsilon_and_knn_mutually_exclusive(self, database_file):
        with pytest.raises(SystemExit):
            main(
                ["query", "--db", str(database_file), "--query", "1,2",
                 "--epsilon", "1", "--knn", "2"]
            )


class TestCompare:
    def test_compare_synthetic(self, capsys):
        rc = main(["compare", "--queries", "2", "--epsilon", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("Naive-Scan", "LB-Scan", "ST-Filter", "TW-Sim-Search"):
            assert name in out

    def test_compare_with_fastmap(self, dataset_csv, capsys):
        rc = main(
            ["compare", "--input", str(dataset_csv), "--queries", "2",
             "--epsilon", "0.3", "--fastmap"]
        )
        assert rc == 0
        assert "FastMap" in capsys.readouterr().out


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "a3"])
        assert args.id == "a3"
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "zz"])

    def test_experiment_a3_runs(self, capsys, monkeypatch):
        # a3 (bulk load) is the fastest experiment; run it tiny via env.
        from repro.eval import experiments as exp

        monkeypatch.setitem(
            __import__("repro.cli", fromlist=["_EXPERIMENTS"])._EXPERIMENTS,
            "a3",
            lambda: exp.ablation_bulk_load(counts=(100, 200)),
        )
        rc = main(["experiment", "a3"])
        assert rc == 0
        assert "bulk" in capsys.readouterr().out.lower()


class TestQueryDiagnostics:
    def _target(self, database_file, seq_id: int = 4) -> str:
        db = SequenceDatabase.load(database_file)
        return ",".join(str(v) for v in db.fetch(seq_id).values)

    def test_explain_prints_waterfall_and_timeline(
        self, database_file, capsys
    ):
        rc = main(
            ["query", "--db", str(database_file), "--query",
             self._target(database_file), "--epsilon", "0.5", "--explain"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pruning waterfall:" in out
        assert "span timeline:" in out
        assert "engine.search" in out and "ms" in out

    def test_querylog_flag_writes_record(self, database_file, tmp_path, capsys):
        from repro.obs.querylog import load_querylog

        log = tmp_path / "queries.jsonl"
        rc = main(
            ["query", "--db", str(database_file), "--query",
             self._target(database_file), "--epsilon", "0.5",
             "--querylog", str(log)]
        )
        assert rc == 0
        assert "query log: 1 record(s)" in capsys.readouterr().out
        (record,) = load_querylog(log)
        assert record.kind == "range" and record.epsilon == 0.5

    def test_slow_ms_without_querylog_rejected(self, database_file, capsys):
        rc = main(
            ["query", "--db", str(database_file), "--query", "1,2,3",
             "--epsilon", "1.0", "--slow-ms", "5"]
        )
        assert rc == 1
        assert "--slow-ms requires --querylog" in capsys.readouterr().err

    def test_slow_ms_filters_fast_queries(self, database_file, tmp_path, capsys):
        log = tmp_path / "slow.jsonl"
        rc = main(
            ["query", "--db", str(database_file), "--query",
             self._target(database_file), "--epsilon", "0.5",
             "--querylog", str(log), "--slow-ms", "60000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 record(s)" in out and "under the slow-query threshold" in out


class TestProfile:
    def test_profile_writes_artifacts(self, database_file, tmp_path, capsys):
        from repro.obs.querylog import load_querylog

        svg = tmp_path / "flame.svg"
        folded = tmp_path / "stacks.folded"
        log = tmp_path / "profile.jsonl"
        rc = main(
            ["profile", "--db", str(database_file), "--queries", "3",
             "--epsilon", "1.0", "--shards", "2",
             "--svg", str(svg), "--folded", str(folded),
             "--querylog", str(log)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "profiled 3 query(ies)" in out
        assert "span timeline:" in out
        assert svg.read_text().startswith("<svg")
        assert "sharded.search" in folded.read_text()
        records = load_querylog(log)
        assert len(records) == 3
        assert all(r.shards == 2 for r in records)

    def test_profile_synthetic_fallback(self, capsys):
        rc = main(["profile", "--queries", "2", "--epsilon", "0.5"])
        assert rc == 0
        assert "profiled 2 query(ies)" in capsys.readouterr().out

    def test_profile_validate_accepts_good_log(
        self, database_file, tmp_path, capsys
    ):
        log = tmp_path / "v.jsonl"
        main(
            ["profile", "--db", str(database_file), "--queries", "2",
             "--epsilon", "1.0", "--querylog", str(log)]
        )
        capsys.readouterr()
        rc = main(["profile", "--validate", str(log)])
        assert rc == 0
        assert "2 valid record(s)" in capsys.readouterr().out

    def test_profile_validate_rejects_corrupt_log(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text('{"schema_version": 99}\n')
        rc = main(["profile", "--validate", str(log)])
        assert rc == 1
        assert "schema_version" in capsys.readouterr().err


class TestClosedPipe:
    def test_reader_closing_stdout_early_ends_quietly(self, database_file):
        """``repro query ... | head`` with the reader gone before any
        output: exit 0, nothing on stderr."""
        source_root = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(source_root)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "query",
             "--db", str(database_file), "--query", "0,1,2,1", "--knn", "20"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout is not None and proc.stderr is not None
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert stderr == b""
