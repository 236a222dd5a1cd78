"""Command-line interface: exit codes, files, determinism, audit."""

import json
import math
from dataclasses import replace

import pytest

import rfscreen.cli as cli
import rfscreen.evaluate as evaluate
from helpers import mask_timing
from rfscreen import ClassifierSpec, ReportEntry, ScreenerSpec, SweepRow, cross_validate, load_csv
from rfscreen.cli import main
from rfscreen.serialize import dumps, read_json

GEN_CFG = """\
# small synthetic table
n-classes = 5
n-samples-per-class = 8
n-true-features = 8
n-fake-features = 4
n-features-out = 40
min-count = 1
max-count = 2
min-usefulness = 0.8
max-usefulness = 1.0
random-state = 7
"""

SCREEN_CFG = """\
step-size = 20
reduced-size = 5
n-trees = 15
n-subfeatures = 8
n-canaries = 6
random-state = 11
"""


@pytest.fixture()
def workspace(tmp_path):
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(GEN_CFG, encoding="utf-8")
    screen_cfg = tmp_path / "screen.cfg"
    screen_cfg.write_text(SCREEN_CFG, encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", str(gen_cfg), "--out", str(data)]) == 0
    return tmp_path


def _screen(workspace, out="result.json", extra=()):
    out_path = workspace / out
    code = main(["screen", "--data", str(workspace / "data.csv"),
                 "--config", str(workspace / "screen.cfg"),
                 "--out", str(out_path), *extra])
    return code, out_path


class TestGenerate:
    def test_writes_csv_and_provenance(self, workspace):
        ds = load_csv(workspace / "data.csv")
        assert ds.n_samples == 40
        assert ds.n_features == 40
        assert ds.n_classes == 5
        prov = read_json(workspace / "data.provenance.json")
        assert prov["kind"] == "provenance"
        assert len(prov["outputs"]) == 40

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n-classez = 5\n", encoding="utf-8")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "n-classez" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_removed_location_ordering_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("location-ordering-extent = 7\n", encoding="utf-8")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown generate config key(s): location-ordering-extent" in err
        assert not (tmp_path / "x.csv").exists()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        again = tmp_path / "again.csv"
        assert main(["generate", "--config", str(workspace / "gen.cfg"),
                     "--out", str(again)]) == 0
        assert again.read_bytes() == (workspace / "data.csv").read_bytes()

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n-classes 5\n", encoding="utf-8")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "key = value" in capsys.readouterr().err


class TestScreen:
    def test_rfms_result_document(self, workspace):
        code, out = _screen(workspace)
        assert code == 0
        doc = read_json(out)
        assert doc["kind"] == "screening_result"
        assert doc["schema_version"] == 1
        assert len(doc["selected"]) == 5
        assert len(doc["rounds"]) == 3  # ceil(46 / 20)
        assert doc["canaries"]["leak_count"] == len(doc["canaries"]["leaked_ids"])
        assert sorted(doc["permutation"]) == list(range(1, 47))
        assert doc["transforming"] is False

    def test_validation_failure_leaves_no_output(self, workspace, capsys):
        bad_cfg = workspace / "bad.cfg"
        bad_cfg.write_text("step-size = 20\nreduced-size = 30\n", encoding="utf-8")
        out = workspace / "never.json"
        code = main(["screen", "--data", str(workspace / "data.csv"),
                     "--config", str(bad_cfg), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "reduced_size" in capsys.readouterr().err

    def test_rerun_identical_modulo_timing(self, workspace):
        _, first = _screen(workspace, out="a.json", extra=["--threads", "1"])
        _, second = _screen(workspace, out="b.json", extra=["--threads", "4"])
        a = dumps(mask_timing(read_json(first)))
        b = dumps(mask_timing(read_json(second)))
        assert a == b

    def test_kbest_and_random_share_the_schema(self, workspace):
        for screener in ("kbest", "random"):
            code, out = _screen(workspace, out=f"{screener}.json",
                                extra=["--screener", screener])
            assert code == 0
            doc = read_json(out)
            assert doc["screener"]["name"] == screener
            assert len(doc["selected"]) == 5
            assert "rounds" not in doc

    def test_pca_document_carries_model(self, workspace, tmp_path):
        cfg = tmp_path / "pca.cfg"
        cfg.write_text("reduced-size = 3\n", encoding="utf-8")
        out = workspace / "pca.json"
        code = main(["screen", "--data", str(workspace / "data.csv"),
                     "--config", str(cfg), "--out", str(out), "--screener", "pca"])
        assert code == 0
        doc = read_json(out)
        assert doc["transforming"] is True
        assert len(doc["model"]["components"]) == 3
        assert len(doc["model"]["mean"]) == 40

    def test_pca_rejects_canaries(self, workspace, capsys):
        code, out = _screen(workspace, out="pca2.json", extra=["--screener", "pca"])
        assert code == 2
        assert not out.exists()
        assert "canaries" in capsys.readouterr().err

    def test_seed_flag_overrides_random_state(self, workspace):
        _, baseline = _screen(workspace, out="s0.json")
        _, reseeded = _screen(workspace, out="s1.json", extra=["--seed", "999"])
        a = read_json(baseline)
        b = read_json(reseeded)
        assert b["screener"]["random_state"] == 999
        assert a["permutation"] != b["permutation"]

    def test_full_width_carry(self, workspace, tmp_path):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("step-size = 24\nreduced-size = 20\nn-trees = 10\n"
                       "n-subfeatures = 10\nn-canaries = 8\nmin-samples-leaf = 4\n",
                       encoding="utf-8")
        out = workspace / "wide.json"
        code = main(["screen", "--data", str(workspace / "data.csv"),
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        doc = read_json(out)
        assert len(doc["selected"]) == 20
        assert len({item["id"] for item in doc["selected"]}) == 20


class TestEvaluate:
    def test_matches_direct_cross_validate(self, workspace, tmp_path):
        _, result = _screen(workspace)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("knn-k = 1\nfolds = 5\n", encoding="utf-8")
        out = workspace / "report"
        code = main(["evaluate", "--data", str(workspace / "data.csv"),
                     "--result", str(result), "--config", str(cfg),
                     "--classifier", "knn", "--out", str(out)])
        assert code == 0
        report = read_json(workspace / "report.json")
        assert len(report["entries"]) == 1

        ds = load_csv(workspace / "data.csv")
        doc = read_json(result)
        names = [item["name"] for item in doc["selected"]]
        cols = [ds.feature_names.index(n) for n in names]
        direct = cross_validate(ds.select_features(cols), ScreenerSpec("identity"),
                                ClassifierSpec("knn", {"k": 1}), folds=5, seed=20230125)
        assert report["entries"][0]["mean_accuracy"] == direct.mean_accuracy
        assert report["entries"][0]["fold_accuracies"] == list(direct.fold_accuracies)

    def test_accuracies_bounded_and_csv_written(self, workspace, tmp_path):
        _, result = _screen(workspace)
        out = workspace / "rep2"
        code = main(["evaluate", "--data", str(workspace / "data.csv"),
                     "--result", str(result), "--classifier", "all",
                     "--out", str(out), "--folds", "4"])
        assert code == 0
        report = read_json(workspace / "rep2.json")
        assert all(0.0 <= e["mean_accuracy"] <= 1.0 for e in report["entries"])
        csv_lines = (workspace / "rep2.csv").read_text().strip().splitlines()
        assert len(csv_lines) == len(report["entries"]) + 1

    def test_mismatched_feature_names(self, workspace, tmp_path, capsys):
        _, result = _screen(workspace)
        other = tmp_path / "other.csv"
        header = ",".join(["label"] + [f"g{i}" for i in range(1, 47)])
        rows = [",".join(["1"] + ["0.0"] * 46), ",".join(["2"] + ["1.0"] * 46)]
        other.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        code = main(["evaluate", "--data", str(other), "--result", str(result),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "match" in capsys.readouterr().err

    def test_leak_safe_rescreens(self, workspace, tmp_path):
        _, result = _screen(workspace)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("knn-k = 1\nfolds = 3\n", encoding="utf-8")
        out = workspace / "rep3"
        code = main(["evaluate", "--data", str(workspace / "data.csv"),
                     "--result", str(result), "--config", str(cfg),
                     "--classifier", "knn", "--leak-safe", "--out", str(out)])
        assert code == 0
        report = read_json(workspace / "rep3.json")
        assert report["entries"][0]["screening_cpu_s"] > 0.0

    def test_stored_knobs_rebuild_the_screen_config(self, workspace, monkeypatch):
        # leak-safe evaluate re-screens with the spec it rebuilds from the document
        ran = []
        real_screen = cli.screen
        monkeypatch.setattr(cli, "screen",
                            lambda ds, config: real_screen(ds, ran.append(config) or config))
        code, out = _screen(workspace)
        assert code == 0
        spec = cli._screener_spec_from_document(read_json(out), 40)
        assert ran[0].n_canaries == 6
        assert spec.config == replace(ran[0], n_canaries=0)

    def test_leak_safe_step_beyond_features_fails_before_any_fold(self, workspace,
                                                                  monkeypatch, capsys):
        # 40 features and 6 canaries admit step 44 for the screen, but the
        # fold screens run without canaries, so the stored step cannot fit
        cfg = workspace / "wide.cfg"
        cfg.write_text("step-size = 44\nreduced-size = 5\nn-canaries = 6\n", encoding="utf-8")
        out = workspace / "wide.json"
        assert main(["screen", "--data", str(workspace / "data.csv"), "--config", str(cfg),
                     "--out", str(out)]) == 0
        monkeypatch.setattr(evaluate, "fit_screener",
                            lambda spec, train: pytest.fail("a fold screener was fitted"))
        before = sorted(workspace.iterdir())
        code = main(["evaluate", "--data", str(workspace / "data.csv"), "--result", str(out),
                     "--leak-safe", "--out", str(workspace / "never")])
        assert code == 2
        assert "step-size=44 exceeds the augmented feature count 40" in capsys.readouterr().err
        assert sorted(workspace.iterdir()) == before

    def test_pca_result_evaluates(self, workspace, tmp_path):
        cfg = tmp_path / "pca.cfg"
        cfg.write_text("reduced-size = 3\n", encoding="utf-8")
        out = workspace / "pca.json"
        main(["screen", "--data", str(workspace / "data.csv"), "--config", str(cfg),
              "--out", str(out), "--screener", "pca"])
        code = main(["evaluate", "--data", str(workspace / "data.csv"),
                     "--result", str(out), "--out", str(workspace / "pcarep")])
        assert code == 0
        report = read_json(workspace / "pcarep.json")
        assert report["entries"][0]["n_features_out"] == 3

    @pytest.mark.parametrize("top_level", [[], "x"])
    def test_non_object_result_rejected(self, workspace, capsys, top_level):
        bogus = workspace / "bogus.json"
        bogus.write_text(json.dumps(top_level), encoding="utf-8")
        code = main(["evaluate", "--data", str(workspace / "data.csv"),
                     "--result", str(bogus), "--out", str(workspace / "r")])
        assert code == 2
        assert "not a screening result document" in capsys.readouterr().err
        assert not (workspace / "r.json").exists()


class TestSweep:
    def test_row_per_count(self, workspace, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("feature-counts = 2, 5, 10\nknn-k = 1\nfolds = 3\n",
                       encoding="utf-8")
        out = workspace / "sweep"
        code = main(["sweep", "--data", str(workspace / "data.csv"),
                     "--config", str(cfg), "--screener", "kbest",
                     "--classifier", "knn", "--out", str(out)])
        assert code == 0
        lines = (workspace / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        doc = read_json(workspace / "sweep.json")
        assert [r["n_features_out"] for r in doc["rows"]] == [2, 5, 10]
        assert all(0.0 <= r["best_accuracy"] <= 1.0 for r in doc["rows"])

    def test_rfms_sweep_validates_counts(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("feature-counts = 30\nstep-size = 20\nreduced-size = 5\n",
                       encoding="utf-8")
        code = main(["sweep", "--data", str(workspace / "data.csv"),
                     "--config", str(cfg), "--screener", "rfms",
                     "--out", str(workspace / "s2")])
        assert code == 2
        assert "step-size" in capsys.readouterr().err


    def test_rfms_sweep_screens_with_the_screen_config(self, workspace, tmp_path, monkeypatch):
        # n-subfeatures = 0 resolves once, for the pool of the widest count
        knobs = "step-size = 20\nn-trees = 5\nn-subfeatures = 0\nrandom-state = 3\n"
        screen_cfg = tmp_path / "screen0.cfg"
        screen_cfg.write_text(knobs + "reduced-size = 10\n", encoding="utf-8")
        sweep_cfg = tmp_path / "sweep0.cfg"
        sweep_cfg.write_text(knobs + "feature-counts = 4, 10\nknn-k = 1\nfolds = 3\n",
                             encoding="utf-8")
        swept, screened = [], []
        real_screen = evaluate.screen
        monkeypatch.setattr(evaluate, "screen",
                            lambda ds, config: real_screen(ds, swept.append(config) or config))
        monkeypatch.setattr(cli, "screen",
                            lambda ds, config: real_screen(ds, screened.append(config) or config))
        data = str(workspace / "data.csv")
        assert main(["sweep", "--data", data, "--config", str(sweep_cfg), "--screener", "rfms",
                     "--out", str(workspace / "s0")]) == 0
        assert main(["screen", "--data", data, "--config", str(screen_cfg),
                     "--out", str(workspace / "s0.json")]) == 0
        assert [c.reduced_size for c in swept] == [4, 10]
        assert screened[0].forest.n_subfeatures == math.ceil(math.sqrt(20 + 10))
        assert swept[-1] == screened[0]
        assert swept[0] == replace(screened[0], reduced_size=4)

    def test_rf_auto_candidates_follow_each_count(self, workspace, tmp_path, monkeypatch):
        # rf-n-subfeatures = 0 draws round(sqrt(count)) candidates: 1, 3, 3, 4
        seen = []
        train_forest = evaluate.train_forest
        monkeypatch.setattr(evaluate, "train_forest",
                            lambda train, p: train_forest(train, seen.append(p) or p))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("feature-counts = 2, 7, 10, 17\nfolds = 3\nrf-n-trees = 4\n",
                       encoding="utf-8")
        assert main(["sweep", "--data", str(workspace / "data.csv"), "--config", str(cfg),
                     "--screener", "kbest", "--classifier", "rf",
                     "--out", str(workspace / "rf")]) == 0
        assert [p.n_subfeatures for p in seen] == [1] * 3 + [3] * 6 + [4] * 3
        assert {(p.n_trees, p.seed) for p in seen} == {(4, 20230125)}

    @pytest.mark.parametrize("leak_safe", [(), ("--leak-safe",)])
    def test_canaries_are_not_a_sweep_step(self, workspace, tmp_path, leak_safe):
        # the screens run without canaries, as leak-safe evaluate's do; with them, seed 1
        # leaks a canary into a screen under both protocols and the sweep exits 1
        knobs = ("step-size = 20\nn-trees = 15\nfeature-counts = 5, 9\nknn-k = 1\n"
                 "folds = 3\nrandom-state = 1\n")
        docs = []
        for canaries in (30, 0):
            cfg = tmp_path / f"sweep{canaries}.cfg"
            cfg.write_text(knobs + f"n-canaries = {canaries}\n", encoding="utf-8")
            out = workspace / f"sweep{canaries}"
            assert main(["sweep", "--data", str(workspace / "data.csv"), "--config", str(cfg),
                         "--screener", "rfms", "--classifier", "all", "--out", str(out),
                         *leak_safe]) == 0
            docs.append([{k: v for k, v in row.items() if not k.endswith("_cpu_s")}
                         for row in read_json(out.with_suffix(".json"))["rows"]])
        assert docs[0] == docs[1]

    def test_knn_k_beyond_the_smallest_training_fold(self, tmp_path, capsys):
        # 5 rows per class and 2 folds: fold 0 tests 3 + 3 rows and trains on 4
        rows = [f"{c},{i}.5,{c * i}" for c in (1, 2) for i in range(5)]
        data = tmp_path / "tiny.csv"
        data.write_text("label,a,b\n" + "\n".join(rows) + "\n", encoding="utf-8")
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("feature-counts = 1, 2\nfolds = 2\n", encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        code = main(["sweep", "--data", str(data), "--config", str(cfg), "--screener", "kbest",
                     "--leak-safe", "--out", str(tmp_path / "never")])
        assert code == 2
        assert "knn-k must be at most 4" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before


def test_records_csv_writes_the_fields_in_order_with_repr_floats():
    from rfscreen.serialize import records_csv

    entries = [ReportEntry("rfms(5)", "knn(k=1)", 5, (0.5, 0.25), 0.1 + 0.2, 1e-07, 3.0),
               ReportEntry("rfms(5)", "rf(n_trees=7)", 5, (1.0,), 2 / 3, 0.0, 12.5)]
    assert records_csv(entries) == (
        "screener,classifier,n_features_out,mean_accuracy,screening_cpu_s,fitting_cpu_s\n"
        "rfms(5),knn(k=1),5,0.30000000000000004,1e-07,3.0\n"
        "rfms(5),rf(n_trees=7),5,0.6666666666666666,0.0,12.5\n")
    assert records_csv([SweepRow(9, 0.7518518518518519, "majority", 1e16, 0.125)]) == (
        "n_features_out,best_accuracy,best_classifier,screening_cpu_s,fitting_cpu_s\n"
        "9,0.7518518518518519,majority,1e+16,0.125\n")


class TestAudit:
    def test_clean_run_exits_zero(self, workspace, capsys):
        _, result = _screen(workspace)
        doc = read_json(result)
        if doc["canaries"]["leak_count"] != 0:
            pytest.skip("fixture screen leaked; covered by acceptance suite")
        assert main(["audit", "--result", str(result)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_leak_exits_one(self, workspace, capsys):
        _, result = _screen(workspace)
        doc = read_json(result)
        doc["canaries"]["leaked_ids"] = [doc["canaries"]["ids"][0]]
        doc["canaries"]["leak_count"] = 1
        doctored = workspace / "leaky.json"
        doctored.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["audit", "--result", str(doctored)]) == 1
        assert "leaks=1" in capsys.readouterr().out

    def test_baseline_screen_that_keeps_every_canary_leaks(self, workspace, tmp_path):
        cfg = tmp_path / "all.cfg"
        cfg.write_text("reduced-size = 46\nn-canaries = 6\n", encoding="utf-8")
        out = workspace / "all.json"
        assert main(["screen", "--data", str(workspace / "data.csv"), "--config", str(cfg),
                     "--out", str(out), "--screener", "random"]) == 0
        doc = read_json(out)
        canaries = doc["canaries"]
        assert canaries["leak_count"] == 6
        in_selected_order = [item["id"] for item in doc["selected"]
                             if item["id"] in canaries["ids"]]
        assert sorted(in_selected_order) == canaries["ids"]
        assert canaries["leaked_ids"] == in_selected_order
        by_id = {item["id"]: item for item in doc["selected"]}
        assert all(by_id[i]["is_canary"] for i in canaries["leaked_ids"])
        assert main(["audit", "--result", str(out)]) == 1

    def test_without_canaries_is_a_validation_error(self, workspace, tmp_path):
        cfg = tmp_path / "nocanary.cfg"
        cfg.write_text("step-size = 20\nreduced-size = 5\nn-trees = 5\n", encoding="utf-8")
        out = workspace / "nc.json"
        main(["screen", "--data", str(workspace / "data.csv"), "--config", str(cfg),
              "--out", str(out)])
        assert main(["audit", "--result", str(out)]) == 2

    @pytest.mark.parametrize("top_level", [[], "x"])
    def test_non_object_result_rejected(self, tmp_path, capsys, top_level):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps(top_level), encoding="utf-8")
        assert main(["audit", "--result", str(bogus)]) == 2
        assert "not a screening result document" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["audit", "--result", str(tmp_path / "nope.json")]) == 2

    def test_unsupported_schema_version_rejected(self, workspace, capsys):
        _, result = _screen(workspace)
        doc = read_json(result)
        doc["schema_version"] = 2
        future = workspace / "v2.json"
        future.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["audit", "--result", str(future)]) == 2
        assert "schema_version" in capsys.readouterr().err


class TestParsing:
    def test_usage_error_exits_two(self):
        assert main(["screen", "--bogus-flag"]) == 2

    def test_runtime_failure_exits_one(self, workspace, capsys):
        # folds exceed the per-class sample count only once work starts
        _, result = _screen(workspace)
        code = main(["evaluate", "--data", str(workspace / "data.csv"),
                     "--result", str(result), "--out", str(workspace / "r"),
                     "--folds", "20"])
        assert code == 1
        assert "runtime error" in capsys.readouterr().err

    def test_duplicate_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("n-classes = 3\nn-classes = 4\n", encoding="utf-8")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, missing", [
        (["generate"], "--out"),
        (["screen", "--data", "data.csv"], "--out"),
        (["screen", "--out", "x.json"], "--data"),
        (["evaluate", "--data", "data.csv", "--out", "x"], "--result"),
        (["evaluate", "--result", "r.json", "--out", "x"], "--data"),
        (["evaluate", "--data", "data.csv", "--result", "r.json"], "--out"),
        (["sweep", "--data", "data.csv"], "--out"),
        (["sweep", "--out", "x"], "--data"),
        (["audit"], "--result"),
    ])
    def test_missing_required_flag(self, workspace, monkeypatch, capsys, argv, missing):
        monkeypatch.chdir(workspace)
        before = sorted(workspace.iterdir())
        assert main(argv) == 2
        assert missing in capsys.readouterr().err
        assert sorted(workspace.iterdir()) == before

    @pytest.mark.parametrize("command, extra", [("screen", ""),
                                                ("sweep", "feature-counts = 5\n")])
    def test_step_size_beyond_features_and_canaries(self, workspace, capsys, command, extra):
        cfg = workspace / "wide.cfg"  # the table has 40 features; 6 canaries make 46
        cfg.write_text("step-size = 47\nreduced-size = 5\nn-canaries = 6\n" + extra,
                       encoding="utf-8")
        before = sorted(workspace.iterdir())
        code = main([command, "--data", str(workspace / "data.csv"), "--config", str(cfg),
                     "--out", str(workspace / "never")])
        assert code == 2
        assert "step-size" in capsys.readouterr().err
        assert sorted(workspace.iterdir()) == before

    @pytest.mark.parametrize("argv", [
        ["generate", "--config", "gen.cfg", "--out", "x.csv"],
        ["screen", "--data", "data.csv", "--config", "screen.cfg", "--out", "x.json"],
        ["evaluate", "--data", "data.csv", "--result", "r.json", "--out", "x"],
        ["sweep", "--data", "data.csv", "--config", "sweep.cfg", "--out", "x"],
    ])
    def test_threads_below_one_rejected(self, workspace, monkeypatch, capsys, argv):
        monkeypatch.chdir(workspace)
        (workspace / "sweep.cfg").write_text("feature-counts = 5\n", encoding="utf-8")
        before = sorted(workspace.iterdir())
        assert main([*argv, "--threads", "0"]) == 2
        assert "--threads" in capsys.readouterr().err
        assert sorted(workspace.iterdir()) == before
