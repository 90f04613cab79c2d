import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import read_pool_file, write_pool_file

import multigrank
from multigrank import cli
from multigrank.dataset import dataset_fingerprint, load_dataset
from multigrank.graphs import load_pool
from multigrank.ranker import check_model, check_pool, grank_online, load_model


def read_tsv_scores(path):
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    return {rec_id: float(score) for _, rec_id, score in rows}


@pytest.fixture
def workspace(tmp_path):
    """gen -> pool -> train on a small separable problem."""
    out = tmp_path / "run"
    paths = {
        "db": out / "database.csv",
        "queries": out / "queries.csv",
        "pool": out / "pool.bin",
        "model": out / "model.json",
        "out": out,
    }
    assert cli.main([
        "gen", "--out", str(out), "--classes", "3", "--per-class", "8",
        "--dim", "6", "--separation", "10.0", "--seed", "3",
    ]) == 0
    assert cli.main([
        "pool", "--out", str(out), "--dataset", str(paths["db"]),
        "--pool", str(paths["pool"]), "--k", "3", "--sigma-multipliers", "1.0",
    ]) == 0
    assert cli.main([
        "train", "--out", str(out), "--dataset", str(paths["db"]),
        "--pool", str(paths["pool"]), "--model", str(paths["model"]), "--iters", "5",
    ]) == 0
    return paths


class TestGen:
    def test_counts_disjoint_default(self, tmp_path):
        out = tmp_path / "g"
        assert cli.main(["gen", "--out", str(out), "--classes", "5", "--per-class", "40", "--seed", "7"]) == 0
        db = load_dataset(out / "database.csv")
        queries = load_dataset(out / "queries.csv")
        assert db.n == 200
        assert db.dim == 32  # default feature size
        assert queries.n == 10
        assert not set(db.ids) & set(queries.ids)

    def test_rerun_identical(self, tmp_path):
        args = ["gen", "--classes", "2", "--per-class", "6", "--dim", "4", "--seed", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        for name in ("database.csv", "queries.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_overlapping_mode(self, tmp_path):
        out = tmp_path / "g"
        assert cli.main([
            "gen", "--out", str(out), "--classes", "2", "--per-class", "8",
            "--dim", "4", "--seed", "0", "--query-mode", "overlapping",
        ]) == 0
        db = load_dataset(out / "database.csv")
        queries = load_dataset(out / "queries.csv")
        assert db.n == 16 and set(queries.ids) <= set(db.ids)


class TestPool:
    def test_grid_count_sigma_applies_to_gaussian_only(self, tmp_path, workspace):
        pool_path = tmp_path / "wide.json"
        assert cli.main([
            "pool", "--out", str(tmp_path), "--dataset", str(workspace["db"]),
            "--pool", str(pool_path), "--k", "5", "10",
            "--sigma-multipliers", "0.5", "1.0", "2.0",
        ]) == 0
        pool = load_pool(pool_path)
        assert pool.m == 14  # 4 schemes x 2 k + gaussian x 2 k x 3 sigma
        assert pool.dataset_fingerprint == dataset_fingerprint(load_dataset(workspace["db"]))

    def test_fingerprint_mismatch_is_hard_error(self, tmp_path, workspace, capsys):
        # the CLI reports the library's own check, for train as for rank
        other = tmp_path / "other"
        assert cli.main([
            "gen", "--out", str(other), "--classes", "3", "--per-class", "8",
            "--dim", "6", "--seed", "99",
        ]) == 0
        with pytest.raises(ValueError) as refused:
            check_pool(load_pool(workspace["pool"]), load_dataset(other / "database.csv"))
        assert "fingerprint mismatch" in str(refused.value)
        capsys.readouterr()
        common = ["--dataset", str(other / "database.csv"), "--pool", str(workspace["pool"]),
                  "--model", str(workspace["model"])]
        for cmd in (["train"], ["rank", "--queries", str(other / "queries.csv")]):
            rc = cli.main(cmd + ["--out", str(other / cmd[0])] + common)
            assert rc == 1
            assert capsys.readouterr().err == f"error: {refused.value}\n"

    def test_model_of_reordered_specs_is_refused(self, tmp_path, workspace, capsys):
        # same data, same graphs, other order: the model's weights would land
        # on the wrong graphs, for the multig arm and the grank arm alike
        data = ["--dataset", str(workspace["db"])]
        paths = {}
        for name, schemes in (("gc", ["gaussian", "cosine"]), ("cg", ["cosine", "gaussian"])):
            paths[name] = tmp_path / f"{name}.bin"
            assert cli.main(["pool", "--out", str(tmp_path), "--pool", str(paths[name]),
                             "--schemes", *schemes, "--k", "3", "--sigma-multipliers", "1.0"]
                            + data) == 0
        model = tmp_path / "gc_model.json"
        assert cli.main(["train", "--out", str(tmp_path), "--pool", str(paths["gc"]),
                         "--model", str(model), "--iters", "2"] + data) == 0
        with pytest.raises(ValueError) as refused:
            check_model(load_model(model), load_pool(paths["cg"]))
        assert "fingerprint mismatch" in str(refused.value)
        capsys.readouterr()
        for arm in (["multig"], ["grank", "--graph", "1"]):
            rc = cli.main(["rank", "--out", str(tmp_path / "r"), "--pool", str(paths["cg"]),
                           "--model", str(model), "--queries", str(workspace["queries"]),
                           "--baseline", *arm] + data)
            assert rc == 1
            assert capsys.readouterr().err == f"error: {refused.value}\n"
        assert not (tmp_path / "r").exists()


class TestTrain:
    def test_stdout_trace_and_model_file(self, workspace, capsys):
        assert cli.main([
            "train", "--out", str(workspace["out"]), "--dataset", str(workspace["db"]),
            "--pool", str(workspace["pool"]), "--model", str(workspace["model"]),
            "--iters", "5",
        ]) == 0
        out = capsys.readouterr().out
        trace = [float(line.split()[-1]) for line in out.splitlines() if line.startswith("iter")]
        assert trace and all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
        doc = json.loads(workspace["model"].read_text())
        assert set(doc) == {
            "version", "mu", "alpha", "beta", "T", "ridge", "tol", "pool_fingerprint",
            "objective_trace",
        }
        assert sum(doc["mu"]) == pytest.approx(1.0, abs=1e-10)
        assert doc["objective_trace"] == trace


class TestRank:
    def test_duplicated_query_tops_pairwise(self, tmp_path, workspace):
        db = load_dataset(workspace["db"])
        dup = db.records[4]
        qpath = tmp_path / "q.csv"
        qpath.write_text(
            "id,label,f1,f2,f3,f4,f5,f6\n"
            + f"probe,{'/'.join(dup.label)},{','.join(repr(float(v)) for v in dup.features)}\n"
            + f"probe2,{'/'.join(dup.label)},{','.join(repr(float(v)) for v in dup.features)}\n",
        )
        out = tmp_path / "ranks"
        assert cli.main([
            "rank", "--out", str(out), "--dataset", str(workspace["db"]),
            "--queries", str(qpath), "--baseline", "pairwise",
        ]) == 0
        first = (out / "rank_probe.tsv").read_text().splitlines()[1].split("\t")
        assert first[1] == dup.id and float(first[2]) == pytest.approx(1.0)

    def test_clashing_file_names_are_rejected(self, tmp_path, workspace, capsys):
        # "q/1" and "q_1" are distinct ids, but both are written as rank_q_1.tsv
        row = load_dataset(workspace["queries"]).records[0]
        tail = f"{'/'.join(row.label)},{','.join(repr(float(v)) for v in row.features)}\n"
        qpath = tmp_path / "q.csv"
        qpath.write_text("id,label,f1,f2,f3,f4,f5,f6\n" + f"q/1,{tail}" + f"q_1,{tail}")
        out = tmp_path / "ranks"
        assert cli.main([
            "rank", "--out", str(out), "--dataset", str(workspace["db"]),
            "--queries", str(qpath), "--baseline", "pairwise",
        ]) == 1
        err = capsys.readouterr().err
        assert "'q/1'" in err and "'q_1'" in err and "rank_q_1.tsv" in err
        assert not out.exists()

    def test_query_id_with_tab_is_rejected(self, tmp_path, workspace, capsys):
        row = load_dataset(workspace["queries"]).records[0]
        tail = f"{'/'.join(row.label)},{','.join(repr(float(v)) for v in row.features)}\n"
        qpath = tmp_path / "q.csv"
        qpath.write_text("id,label,f1,f2,f3,f4,f5,f6\n" + f"q\t1,{tail}" + f"q2,{tail}")
        out = tmp_path / "ranks"
        assert cli.main([
            "rank", "--out", str(out), "--dataset", str(workspace["db"]),
            "--queries", str(qpath), "--baseline", "pairwise",
        ]) == 1
        assert "id 'q\\t1' at row 1 contains a tab" in capsys.readouterr().err
        assert not out.exists()

    def test_grank_arm_delegates_to_single_graph(self, tmp_path, workspace):
        out = tmp_path / "ranks"
        assert cli.main([
            "rank", "--out", str(out), "--dataset", str(workspace["db"]),
            "--pool", str(workspace["pool"]), "--model", str(workspace["model"]),
            "--queries", str(workspace["queries"]), "--baseline", "grank", "--graph", "1",
        ]) == 0
        db = load_dataset(workspace["db"])
        pool = load_pool(workspace["pool"])
        model = load_model(workspace["model"])
        query = load_dataset(workspace["queries"]).records[0]
        expected = grank_online(pool, 1, db, query.features, model.params, query.id)
        got = read_tsv_scores(out / f"rank_{query.id}.tsv")
        for idx, rec_id in enumerate(expected.item_ids):
            assert got[rec_id] == expected.scores[idx]

    def test_byte_stable(self, tmp_path, workspace):
        args = [
            "rank", "--dataset", str(workspace["db"]), "--pool", str(workspace["pool"]),
            "--model", str(workspace["model"]), "--queries", str(workspace["queries"]),
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir()) and files
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestEval:
    def test_reports_and_table(self, tmp_path, workspace, capsys):
        out = tmp_path / "eval"
        assert cli.main([
            "eval", "--out", str(out), "--dataset", str(workspace["db"]),
            "--pool", str(workspace["pool"]), "--model", str(workspace["model"]),
            "--queries", str(workspace["queries"]),
        ]) == 0
        table = (out / "comparison.txt").read_text()
        assert "multig" in table and "grank[g" in table and "pairwise" in table
        assert capsys.readouterr().out == table
        for stem in ("multig", "grank", "pairwise"):
            doc = json.loads((out / f"{stem}_report.json").read_text())
            assert set(doc) == {"mean_auc", "per_query", "roc", "pr", "level", "skipped"}
            assert (out / f"{stem}_roc.csv").exists()
            assert (out / f"{stem}_pr.csv").exists()
            assert (out / f"{stem}_curves.svg").read_text().startswith("<svg")


class TestExitCodes:
    def test_usage_error(self):
        assert cli.main(["pool", "--bogus-flag"]) == 1
        assert cli.main([]) == 1

    def test_missing_required_key(self, tmp_path):
        assert cli.main(["pool", "--out", str(tmp_path)]) == 1

    def test_io_error(self, tmp_path):
        assert cli.main(["pool", "--out", str(tmp_path), "--dataset", str(tmp_path / "no.csv")]) == 3

    def test_singular_system_exit_code(self, tmp_path, capsys):
        db = tmp_path / "db.csv"
        db.write_text(
            "id,label,f1,f2\n"
            "a1,x,0.0,0.0\n"
            "a2,x,0.0,0.0\n"
            "b1,y,9.0,9.0\n"
            "b2,y,9.0,9.0\n"
        )
        queries = tmp_path / "q.csv"
        queries.write_text("id,label,f1,f2\nq1,x,0.0,0.0\nq2,x,0.0,0.0\n")
        pool = tmp_path / "pool.bin"
        model = tmp_path / "model.json"
        assert cli.main([
            "pool", "--out", str(tmp_path), "--dataset", str(db), "--pool", str(pool),
            "--schemes", "gaussian", "--k", "1", "--sigma-multipliers", "1.0",
        ]) == 0
        assert cli.main([
            "train", "--out", str(tmp_path), "--dataset", str(db), "--pool", str(pool),
            "--model", str(model), "--ridge", "0.0", "--iters", "2",
        ]) == 0
        rc = cli.main([
            "rank", "--out", str(tmp_path / "r"), "--dataset", str(db), "--pool", str(pool),
            "--model", str(model), "--queries", str(queries),
        ])
        assert rc == 2
        assert "ridge" in capsys.readouterr().err


    def test_ill_conditioned_training_exit_code(self, tmp_path, capsys):
        db = tmp_path / "db.csv"
        rows = [f"{c}{i},{c},{1000.0 * (i + 1)},{500.0 * (3 - i)},{250.0 * i}"
                for c in "xy" for i in range(3)]
        db.write_text("id,label,f1,f2,f3\n" + "\n".join(rows) + "\n")
        pool = tmp_path / "pool.bin"
        assert cli.main([
            "pool", "--out", str(tmp_path), "--dataset", str(db), "--pool", str(pool),
            "--schemes", "dot_product", "--k", "2",
        ]) == 0
        rc = cli.main([
            "train", "--out", str(tmp_path), "--dataset", str(db), "--pool", str(pool),
            "--model", str(tmp_path / "model.json"), "--alpha", "100", "--iters", "2",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "training solve" in err and "ridge" not in err

    def test_non_finite_hyperparameter_exit_code(self, tmp_path, workspace, capsys):
        model = tmp_path / "model.json"
        rc = cli.main([
            "train", "--out", str(tmp_path), "--dataset", str(workspace["db"]),
            "--pool", str(workspace["pool"]), "--model", str(model), "--ridge", "nan",
        ])
        assert rc == 1
        assert "ridge must be finite" in capsys.readouterr().err
        assert not model.exists()

    def test_non_integer_model_iters_exit_code(self, tmp_path, workspace, capsys):
        doc = json.loads(workspace["model"].read_text())
        doc["T"] = 2.7
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        rc = cli.main([
            "rank", "--out", str(tmp_path / "r"), "--dataset", str(workspace["db"]),
            "--pool", str(workspace["pool"]), "--model", str(bad),
            "--queries", str(workspace["queries"]),
        ])
        assert rc == 1
        assert "T must be an integer, got 2.7" in capsys.readouterr().err

    def test_corrupt_pool_exit_code(self, tmp_path, workspace, capsys):
        head, edges = read_pool_file(workspace["pool"])
        edges[0][2][0] = -1.0
        bad = tmp_path / "bad_pool.bin"
        write_pool_file(bad, head, edges)
        common = ["--dataset", str(workspace["db"]), "--pool", str(bad),
                  "--model", str(workspace["model"])]
        for cmd in (["train"], ["rank", "--queries", str(workspace["queries"])]):
            rc = cli.main(cmd + ["--out", str(tmp_path / cmd[0])] + common)
            assert rc == 1
            assert "graph 0 triplet 0" in capsys.readouterr().err

    def test_pool_k_past_n_exit_code(self, tmp_path, workspace, capsys):
        doc, edges = read_pool_file(workspace["pool"])
        doc["graphs"][0]["spec"]["k"] = doc["N"]
        bad = tmp_path / "bad_pool.bin"
        write_pool_file(bad, doc, edges)
        rc = cli.main([
            "rank", "--out", str(tmp_path / "r"), "--dataset", str(workspace["db"]),
            "--pool", str(bad), "--model", str(workspace["model"]),
            "--queries", str(workspace["queries"]),
        ])
        assert rc == 1
        assert f"graph 0 spec k={doc['N']} exceeds N-1={doc['N'] - 1}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_malformed_file_fields_exit_code(self, tmp_path, workspace, capsys):
        pool_doc, edges = read_pool_file(workspace["pool"])
        pool_doc["graphs"][0]["spec"]["k"] = "3"
        nan_pool, nan_edges = read_pool_file(workspace["pool"])
        nan_edges[0][2][0] = np.nan
        i, j = nan_edges[0][0][0], nan_edges[0][1][0]
        model_doc = json.loads(workspace["model"].read_text())
        huge_model = dict(model_doc, alpha=10**400)
        del model_doc["alpha"]
        cases = [
            ("pool", (pool_doc, edges),
             "pool file corrupt: graph 0 spec: k must be an integer, got '3'"),
            ("pool", ([pool_doc], edges), "pool file corrupt: expected a JSON object, got list"),
            ("pool", (nan_pool, nan_edges), "pool file corrupt: graph 0 triplet 0 "
                                            f"[{i}, {j}, nan]: weight must be finite and >= 0"),
            ("model", model_doc, "model file corrupt: missing field 'alpha'"),
            ("model", huge_model, f"model file corrupt: alpha must be a number, got {10**400}"),
        ]
        for key, doc, message in cases:
            bad = tmp_path / f"bad_{key}"
            if key == "pool":
                write_pool_file(bad, *doc)
            else:
                bad.write_text(json.dumps(doc))
            files = {"pool": workspace["pool"], "model": workspace["model"], key: bad}
            rc = cli.main([
                "rank", "--out", str(tmp_path / "r"), "--dataset", str(workspace["db"]),
                "--pool", str(files["pool"]), "--model", str(files["model"]),
                "--queries", str(workspace["queries"]),
            ])
            assert rc == 1
            assert f"error: {message}" in capsys.readouterr().err

    def test_json_dataset_exit_code(self, tmp_path, capsys):
        # datasets are CSV only: a JSON file of well-formed records is refused
        db = tmp_path / "db.json"
        db.write_text(json.dumps([
            {"id": "a", "label": "x", "features": [1.0, 2.0]},
            {"id": "b", "label": "y", "features": [0.0, 0.5]},
        ]))
        rc = cli.main(["pool", "--out", str(tmp_path), "--dataset", str(db)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "datasets are CSV" in err
        assert not (tmp_path / "pool.bin").exists()


class TestConfigFile:
    def test_config_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "classes": 2, "per_class": 5, "dim": 4, "separation": 8.0,
            "queries_per_class": 1, "seed": 2,
        }))
        out = tmp_path / "g"
        assert cli.main(["gen", "--config", str(cfg), "--out", str(out), "--per-class", "6"]) == 0
        db = load_dataset(out / "database.csv")
        assert db.n == 12  # flag wins over config's per_class=5
        assert db.dim == 4  # config wins over the default 32

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classses": 2}))
        assert cli.main(["gen", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 1

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"alpha": "1"}, "alpha"),
            ({"iters": 2.5}, "iters"),
            ({"ridge": True}, "ridge"),
            ({"k_values": [3, "5"]}, "k_values"),
            ({"pool": 7}, "pool"),
            ({"alpha": 10**400}, "alpha"),
        ],
    )
    def test_mistyped_config_value(self, tmp_path, workspace, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        model = tmp_path / "model.json"
        rc = cli.main([
            "train", "--config", str(cfg), "--out", str(tmp_path), "--dataset",
            str(workspace["db"]), "--pool", str(workspace["pool"]), "--model", str(model),
        ])
        assert rc == 1
        assert f"error: config key {key!r}: expected" in capsys.readouterr().err
        assert not model.exists()

    def test_config_accepts_int_for_float_and_list_for_tuple(self, tmp_path, workspace):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1, "iters": 2, "schemes": ["gaussian"]}))
        rc = cli.main([
            "train", "--config", str(cfg), "--out", str(tmp_path), "--dataset",
            str(workspace["db"]), "--pool", str(workspace["pool"]),
            "--model", str(tmp_path / "model.json"),
        ])
        assert rc == 0
        assert load_model(tmp_path / "model.json").params.alpha == 1.0


# the README walkthrough up to rank, at N=200, then a second model whose
# weights spread over ten of the 14 graphs (beta 1000), ranked the same way
_WALKTHROUGH = [
    "gen --out run --classes 5 --per-class 40 --dim 32 --seed 7",
    "pool --out run --dataset run/database.csv --pool run/pool.bin --k 5 10"
    " --sigma-multipliers 0.5 1.0 2.0",
    "train --out run --dataset run/database.csv --pool run/pool.bin --model run/model.json"
    " --level 1",
    "rank --out run/ranks --dataset run/database.csv --pool run/pool.bin"
    " --model run/model.json --queries run/queries.csv",
    "train --out run --dataset run/database.csv --pool run/pool.bin --model run/spread.json"
    " --level 1 --beta 1000",
    "rank --out run/spread --dataset run/database.csv --pool run/pool.bin"
    " --model run/spread.json --queries run/queries.csv",
    "eval --out run/eval --dataset run/database.csv --pool run/pool.bin"
    " --model run/model.json --queries run/queries.csv --level 1",
]


def test_walkthrough_rank_bytes_golden(tmp_path):
    # sha256 over (name, bytes) of each arm's rank TSVs as ranked by extended
    # graphs built per query, and of every file `eval` writes (numpy 2.4.6,
    # scipy 1.17.1, x86-64).  Rank bytes depend on the BLAS thread count
    # through the LAPACK inverse, so the walkthrough runs in a fresh process
    # on one thread.
    code = "\n".join(["from multigrank import cli"] + [
        f"assert cli.main({argv.split()!r}) == 0" for argv in _WALKTHROUGH
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(multigrank.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    digests = {}
    for arm, pattern, count in (("ranks", "*.tsv", 10), ("spread", "*.tsv", 10),
                                ("eval", "*", 13)):
        h = hashlib.sha256()
        files = sorted((tmp_path / "run" / arm).glob(pattern))
        assert len(files) == count
        for path in files:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        digests[arm] = h.hexdigest()
    assert digests == {
        "ranks": "9de115aa776b8f22e770ecfa38eb6710fa20c405b14fa86577cf9dbd26b41b24",
        "spread": "c7f61d1cce24355fe754d96513481240818006e19e7ab770f521fdd6ac21c235",
        "eval": "c88d926a82a7b40451f8fbdbbd23cd5e4649bfb1d30495067a4ad07c6315c787",
    }
