"""End-to-end tests of the command-line interface."""

import json
import re

import numpy as np
import pytest

from nohgnn.checkpoint import load_dataset, load_model, read_records, write_records
from nohgnn.cli import main
from nohgnn.synth import planted_partition


@pytest.fixture()
def edge_file(tmp_path):
    events = planted_partition(16, 3, p_in=0.6, p_out=0.05, seed=2)
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{e.src} {e.dst} {e.timestamp}\n" for e in events))
    return path, events


def run_train(tmp_path, edge_path, out_name, extra=()):
    out = tmp_path / out_name
    rc = main(
        ["train", "--edges", str(edge_path), "--slots", "3", "--dim", "4",
         "--epochs", "4", "--seed", "1", "--out", str(out), *extra]
    )
    return rc, out


class TestIngest:
    def test_reports_counts_and_writes_artifact(self, tmp_path, edge_file, capsys):
        path, events = edge_file
        out = tmp_path / "ingested"
        assert main(["ingest", "--edges", str(path), "--slots", "3", "--out", str(out)]) == 0
        line = capsys.readouterr().out
        ids = {e.src for e in events} | {e.dst for e in events}
        assert line == f"nodes={len(ids)} edges={len(events)} slots=3\n"
        graph, masked, splits, seed = load_dataset(str(out / "dataset.nohg"))
        assert graph.n_nodes == len(ids)
        assert seed == 0
        assert splits["train"].size > splits["val"].size > splits["test"].size
        assert masked.edge_count == splits["train"].size

    def test_repeat_is_bit_identical(self, tmp_path, edge_file):
        path, _ = edge_file
        for name in ("a", "b"):
            main(["ingest", "--edges", str(path), "--slots", "3", "--seed", "4",
                  "--out", str(tmp_path / name)])
        assert (tmp_path / "a" / "dataset.nohg").read_bytes() == (tmp_path / "b" / "dataset.nohg").read_bytes()

    def test_missing_file_names_path(self, tmp_path, capsys):
        rc = main(["ingest", "--edges", str(tmp_path / "absent.txt"), "--slots", "3"])
        assert rc == 1
        assert "absent.txt" in capsys.readouterr().err


class TestTrain:
    def test_smoke_writes_artifacts(self, tmp_path, edge_file, capsys):
        rc, out = run_train(tmp_path, edge_file[0], "run")
        assert rc == 0
        assert re.fullmatch(
            r"test_f1=\d\.\d{4} test_accuracy=\d\.\d{4}\n", capsys.readouterr().out
        )
        for name in ("checkpoint.nohg", "metrics.jsonl", "dataset.nohg"):
            assert (out / name).exists()
        rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert [row["epoch"] for row in rows] == list(range(1, len(rows) + 1))

    def test_repeat_is_bit_identical(self, tmp_path, edge_file, capsys):
        rc_a, out_a = run_train(tmp_path, edge_file[0], "a")
        first = capsys.readouterr().out
        rc_b, out_b = run_train(tmp_path, edge_file[0], "b")
        second = capsys.readouterr().out
        assert rc_a == rc_b == 0
        assert first == second
        assert (out_a / "checkpoint.nohg").read_bytes() == (out_b / "checkpoint.nohg").read_bytes()
        assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()

    def test_config_file_and_flag_precedence(self, tmp_path, edge_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"edges = {edge_file[0]}\nslots = 3\ndim = 4\nmax_epochs = 2\nout = {tmp_path / 'from_cfg'}\n"
        )
        assert main(["train", str(cfg), "--dim", "6"]) == 0
        capsys.readouterr()
        _, config, _, _ = load_model(str(tmp_path / "from_cfg" / "checkpoint.nohg"))
        assert config.dim == 6
        assert config.max_epochs == 2

    def test_trains_from_ingested_artifact(self, tmp_path, edge_file, capsys):
        path, _ = edge_file
        main(["ingest", "--edges", str(path), "--slots", "3", "--out", str(tmp_path / "ingested")])
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data = {tmp_path / 'ingested' / 'dataset.nohg'}\ndim = 4\nmax_epochs = 2\n"
            f"out = {tmp_path / 'from_data'}\n"
        )
        assert main(["train", str(cfg)]) == 0
        assert (tmp_path / "from_data" / "checkpoint.nohg").exists()

    def test_invalid_learning_rate_rejected(self, tmp_path, edge_file, capsys):
        rc, _ = run_train(tmp_path, edge_file[0], "bad", extra=("--lr", "-0.5"))
        assert rc == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_no_dataset_source_rejected(self, tmp_path, capsys):
        assert main(["train", "--dim", "4"]) == 1
        assert "no dataset" in capsys.readouterr().err


class TestEval:
    def test_replays_train_metrics(self, tmp_path, edge_file, capsys):
        rc, out = run_train(tmp_path, edge_file[0], "run")
        train_line = capsys.readouterr().out
        f1, acc = re.fullmatch(
            r"test_f1=(\d\.\d{4}) test_accuracy=(\d\.\d{4})\n", train_line
        ).groups()
        rc = main(["eval", str(out / "checkpoint.nohg"), str(out / "dataset.nohg")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["f1", "accuracy", "tp", "fp", "tn", "fn"]
        assert report["f1"] == float(f1)
        assert report["accuracy"] == float(acc)

    def test_val_split_matches_best_logged_epoch(self, tmp_path, edge_file, capsys):
        rc, out = run_train(tmp_path, edge_file[0], "run")
        capsys.readouterr()
        rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        best = max(row["val_f1"] for row in rows)
        assert main(["eval", str(out / "checkpoint.nohg"), str(out / "dataset.nohg"),
                     "--split", "val"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["f1"] == round(best, 4)

    def test_train_split_supported(self, tmp_path, edge_file, capsys):
        rc, out = run_train(tmp_path, edge_file[0], "run")
        capsys.readouterr()
        assert main(["eval", str(out / "checkpoint.nohg"), str(out / "dataset.nohg"),
                     "--split", "train"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tp"] + report["fp"] + report["tn"] + report["fn"] > 0

    def test_mismatched_dataset_rejected(self, tmp_path, edge_file, capsys):
        path, _ = edge_file
        rc, out = run_train(tmp_path, path, "run")
        main(["ingest", "--edges", str(path), "--slots", "2", "--out", str(tmp_path / "other")])
        capsys.readouterr()
        rc = main(["eval", str(out / "checkpoint.nohg"), str(tmp_path / "other" / "dataset.nohg")])
        assert rc == 1
        assert "checkpoint/dataset mismatch" in capsys.readouterr().err

    def test_swapped_positionals_rejected(self, tmp_path, edge_file, capsys):
        rc, out = run_train(tmp_path, edge_file[0], "run")
        capsys.readouterr()
        rc = main(["eval", str(out / "dataset.nohg"), str(out / "checkpoint.nohg")])
        assert rc == 1
        assert "not a model" in capsys.readouterr().err

    def test_corrupt_checkpoint_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.nohg"
        write_records(str(path), {"x": np.asarray(1.0)})
        blob = bytearray(path.read_bytes())
        blob[4 + 4 + 4 + 2] = 0xFF  # record name byte, not valid UTF-8
        path.write_bytes(bytes(blob))
        assert main(["eval", str(path), str(path)]) == 1
        err = capsys.readouterr().err
        assert re.search(rf"^error: {re.escape(str(path))}: record name", err, re.M)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.pop("param.layer2.w"), "missing record 'param.layer2.w'"),
            (lambda r: r.__setitem__("param.layer2.w", r["param.layer2.w"][:, :2]),
             "record 'param.layer2.w' has shape (3, 2, 4), expected (3, 4, 4)"),
        ],
        ids=["missing", "wrong-shape"],
    )
    def test_bad_parameter_record_reports_error(self, tmp_path, edge_file, capsys, edit, message):
        rc, out = run_train(tmp_path, edge_file[0], "run")
        ckpt = out / "checkpoint.nohg"
        records = read_records(str(ckpt))
        edit(records)
        write_records(str(ckpt), records)
        capsys.readouterr()
        assert main(["eval", str(ckpt), str(out / "dataset.nohg")]) == 1
        err = capsys.readouterr().err
        assert f"error: {ckpt}: {message}\n" in err
        assert "Traceback" not in err


class TestGradcheck:
    def test_both_transforms_pass(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        for line, kind in zip(lines, ("identity", "dct")):
            match = re.fullmatch(rf"transform={kind} max_rel_error=(\d\.\d{{3}}e[+-]\d{{2}})", line)
            assert float(match.group(1)) <= 1e-4

    def test_single_transform_flag(self, capsys):
        assert main(["gradcheck", "--transform", "dct"]) == 0
        assert capsys.readouterr().out.startswith("transform=dct ")

    def test_repeat_reports_identical_error(self, capsys):
        main(["gradcheck", "--transform", "identity"])
        first = capsys.readouterr().out
        main(["gradcheck", "--transform", "identity"])
        assert capsys.readouterr().out == first

    def test_corrupted_backward_rule_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "nohgnn.tape._relu_grad", lambda x: 1.1 * (x > 0).astype(np.float64)
        )
        assert main(["gradcheck", "--transform", "identity"]) == 1


class TestParser:
    def test_help_lists_every_documented_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--edges", "--slots", "--k-hops", "--layers", "--dim", "--lr",
                     "--beta", "--transform", "--seed", "--neg-ratio", "--epochs",
                     "--patience", "--out"):
            assert flag in text

    def test_split_flag_documented_on_eval(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        assert "--split" in capsys.readouterr().out

    def test_undocumented_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--momentum", "0.9"])
        assert excinfo.value.code == 2
