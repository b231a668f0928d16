import csv
import hashlib
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from granite import experiment, javaparse
from granite.cli import main
from granite.experiment import (
    ExperimentConfig,
    RepoSpec,
    config_from_dict,
    load_config,
    run_experiment,
)
from granite.forest import FoldResult
from granite.gitrepo import GitRepo
from granite.javaparse import ModuleId
from granite.metrics import process_metrics
from granite.stats import compare_paired
from granite.tracking import HistoryScanner

from repobuilder import RepoBuilder


def make_config(fixture_repo, out_dir, seed=7, k_values=(50, 100, 500, 1000, 5000)):
    return ExperimentConfig(
        repos=(RepoSpec(str(fixture_repo.root), "v*"),),
        output_dir=str(out_dir),
        k_values=tuple(k_values),
        seed=seed,
        folds=10,
    )


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fp:
        return list(csv.DictReader(fp))


# -- config ----------------------------------------------------------------


def test_config_roundtrip(tmp_path, fixture_repo):
    raw = {
        "repos": [{"path": str(fixture_repo.root), "tags": "v*"}],
        "output_dir": str(tmp_path / "out"),
        "k_values": [100, 500],
        "seed": 3,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    config = load_config(cfg_path)
    assert config.repos[0].tags == "v*"
    assert config.k_values == (100, 500)
    assert config.folds == 10


def test_config_validation_errors(tmp_path):
    with pytest.raises(ValueError):
        config_from_dict({"repos": [], "output_dir": "x"})
    with pytest.raises(ValueError):
        config_from_dict({"repos": [{"path": "p"}], "output_dir": "x", "k_values": [50, 50]})
    with pytest.raises(ValueError):
        config_from_dict({"repos": [{"path": "p"}]})
    # one fold leaves no training split and zero divides by zero; neither is a result
    for folds in (1, 0, -3):
        with pytest.raises(ValueError, match="folds must be at least 2"):
            config_from_dict({"repos": [{"path": "p"}], "output_dir": "x", "folds": folds})
    # two clones named alike would overwrite each other's datasets and manifest entry
    with pytest.raises(ValueError, match="'a/repo' and 'b/repo/' share the directory name 'repo'"):
        config_from_dict({"repos": [{"path": "a/repo"}, {"path": "x"}, {"path": "b/repo/"}], "output_dir": "x"})


def test_unknown_config_keys_are_ignored_with_a_warning(caplog):
    raw = {"repos": [{"path": "x", "tag": "v*"}, {"path": "y"}], "output_dir": "o", "fold": 5}
    with caplog.at_level(logging.WARNING, logger="granite.experiment"):
        config = config_from_dict(raw)
    assert (config.folds, config.repos[0].tags) == (10, "*")
    assert [r.getMessage() for r in caplog.records] == [
        "config: ignoring unknown keys 'fold'",
        "repository 'x': ignoring unknown keys 'tag'",
    ]


def test_manifest_hash_changes_iff_config_changes(tmp_path, fixture_repo):
    a = make_config(fixture_repo, tmp_path / "a", seed=1)
    b = make_config(fixture_repo, tmp_path / "a", seed=1)
    c = make_config(fixture_repo, tmp_path / "a", seed=2)
    d = make_config(fixture_repo, tmp_path / "d", seed=1)
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash
    assert a.config_hash == d.config_hash  # output_dir does not affect results


# -- full runs ---------------------------------------------------------------


@pytest.fixture(scope="module")
def first_run(fixture_repo, tmp_path_factory):
    out = tmp_path_factory.mktemp("run1")
    config = make_config(fixture_repo, out)
    status = run_experiment(config)
    return status, out, config


def test_run_succeeds_and_writes_reports(first_run):
    status, out, _ = first_run
    assert status == 0
    for name in ("releases.csv", "summary.csv", "fold_assignments.csv", "manifest.json"):
        assert (out / name).exists()
    assert list((out / "datasets").glob("*.csv"))


def test_release_rows_cover_both_pairs_and_granularities(first_run):
    _, out, _ = first_run
    rows = read_rows(out / "releases.csv")
    key = {(r["release_pair"], r["granularity"]) for r in rows}
    for pair in ("v1.0..v1.1", "v1.1..v2.0"):
        assert (pair, "class") in key
        assert (pair, "method") in key
        assert (pair, "class_to_method") in key
    # each combination appears exactly once
    assert len(key) == len(rows)


def test_ratio_columns_present_for_all_k(first_run):
    _, out, config = first_run
    rows = read_rows(out / "releases.csv")
    method_row = next(r for r in rows if r["granularity"] == "method")
    for kind in ("release", "commit"):
        for k in config.k_values:
            assert f"ratio_{kind}_k{k}" in method_row


def test_projection_rows_have_no_auc_or_ratios(first_run):
    _, out, config = first_run
    rows = read_rows(out / "releases.csv")
    for row in rows:
        if row["granularity"] == "class_to_method":
            assert row["auc"] == ""
            for kind in ("release", "commit"):
                for k in config.k_values:
                    assert row[f"ratio_{kind}_k{k}"] == ""
        else:
            assert row["auc"] != ""


def test_summary_has_rq_rows(first_run):
    _, out, config = first_run
    rows = read_rows(out / "summary.csv")
    rqs = {r["rq"] for r in rows}
    assert rqs == {"rq1", "rq2", "rq3"}
    rq1_metrics = {r["metric"] for r in rows if r["rq"] == "rq1"}
    assert rq1_metrics == {"precision", "recall", "f1", "accuracy", "auc"}
    rq2_metrics = {r["metric"] for r in rows if r["rq"] == "rq2"}
    assert rq2_metrics == {"precision", "recall", "f1", "accuracy"}
    rq3_metrics = {r["metric"] for r in rows if r["rq"] == "rq3"}
    assert len(rq3_metrics) == 2 * len(config.k_values)
    for row in rows:
        assert row["significance"] in ("n.s.", "*", "**")
        assert row["magnitude"] in ("negligible", "small", "medium", "large")


def test_summary_recomputes_from_release_rows(first_run):
    _, out, _ = first_run
    releases = read_rows(out / "releases.csv")
    row_of = {(r["repo"], r["release_pair"], r["granularity"]): r for r in releases}
    both = [
        (row_of[unit + ("class",)], row_of[unit + ("method",)], row_of[unit + ("class_to_method",)])
        for unit in dict.fromkeys((r["repo"], r["release_pair"]) for r in releases)
        if unit + ("class",) in row_of and unit + ("method",) in row_of
    ]
    assert len(both) == 2
    scores = ("precision", "recall", "f1", "accuracy", "auc")
    ratios = [column for column in releases[0] if column.startswith("ratio_")]
    table = (
        [("rq1", s, [(c[s], m[s]) for c, m, _ in both]) for s in scores]
        + [("rq2", s, [(p[s], m[s]) for _, m, p in both]) for s in scores[:4]]
        + [("rq3", r, [(c[r], m[r]) for c, m, _ in both]) for r in ratios]
    )
    expected = []
    for rq, metric, pairs in table:
        kept = [(float(c), float(m)) for c, m in pairs if c != "" and m != ""]
        if not kept:
            continue
        class_vals = [c for c, _ in kept]
        method_vals = [m for _, m in kept]
        stat = compare_paired(class_vals, method_vals)
        expected.append({
            "rq": rq, "metric": metric,
            "class_median": repr(statistics.median(class_vals)),
            "method_median": repr(statistics.median(method_vals)),
            "p_value": repr(stat.p_value), "delta": repr(stat.delta),
            "magnitude": stat.magnitude, "significance": stat.significance_mark,
        })
    assert read_rows(out / "summary.csv") == expected


def test_dataset_files_of_repo_names_that_differ_only_in_punctuation_stay_apart(fixture_repo, tmp_path):
    repos = []
    for name in ("a b", "a-b"):
        shutil.copytree(fixture_repo.root, tmp_path / name)
        repos.append(RepoSpec(str(tmp_path / name), "v*"))
    out = tmp_path / "out"
    assert run_experiment(ExperimentConfig(tuple(repos), str(out), (100,), seed=7, folds=10)) == 0
    rows = [r for r in read_rows(out / "releases.csv") if r["granularity"] in ("class", "method")]
    assert len(rows) == 8
    files = sorted((out / "datasets").iterdir())
    assert len(files) == len(rows)
    assert out / "datasets" / "a%20b__v1.0..v1.1__class.csv" in files
    assert sorted(len(read_rows(f)) for f in files) == sorted(int(r["n_modules"]) for r in rows)


def test_dataset_files_of_names_that_share_the_separator_stay_apart(fixture_repo, tmp_path):
    # repo a__b with pair v1..v2 and repo a with pair b__v1..v2 once both wrote a__b__v1..v2__<granularity>.csv
    repos = []
    for name, tags in (("a__b", ("v1", "v2")), ("a", ("b__v1", "v2"))):
        shutil.copytree(fixture_repo.root, tmp_path / name)
        for tag, commit in zip(tags, ("v1.0", "v1.1")):
            subprocess.run(["git", "-C", str(tmp_path / name), "tag", tag, commit], check=True)
        repos.append(RepoSpec(str(tmp_path / name), "*v[12]"))
    out = tmp_path / "out"
    assert run_experiment(ExperimentConfig(tuple(repos), str(out), (100,), seed=7, folds=10)) == 0
    assert sorted(f.name for f in (out / "datasets").iterdir()) == [
        "a%5F%5Fb__v1..v2__class.csv", "a%5F%5Fb__v1..v2__method.csv",
        "a__b%5F%5Fv1..v2__class.csv", "a__b%5F%5Fv1..v2__method.csv",
    ]


def test_fold_assignments_listed_per_module(first_run):
    _, out, _ = first_run
    rows = read_rows(out / "fold_assignments.csv")
    assert rows
    pairs = {(r["release_pair"], r["granularity"]) for r in rows}
    assert ("v1.0..v1.1", "class") in pairs
    assert ("v1.0..v1.1", "method") in pairs
    folds = {int(r["fold"]) for r in rows}
    assert folds <= set(range(10))


def test_manifest_contents(first_run):
    _, out, config = first_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == config.seed
    assert manifest["config_hash"] == config.config_hash
    assert manifest["release_pairs"] == 2
    assert any(v.startswith("ok") for v in manifest["repos"].values())
    assert manifest["failed_release_pairs"] == []
    assert manifest["skipped_granularities"] == []
    assert manifest["skipped_folds"] == []


def test_manifest_lists_failed_pairs_and_skipped_units(fixture_repo, tmp_path, monkeypatch):
    analyze, cross_validate = experiment.analyze_release_pair, experiment.cross_validate

    def failing_first_pair(repo, scanner, pair, *args):
        if pair.label == "v1.0..v1.1":
            raise RuntimeError("forced failure")
        return analyze(repo, scanner, pair, *args)

    def impossible_method_cv(ds, **kwargs):
        if ds.granularity == "method":
            raise ValueError("forced single label")
        cv = cross_validate(ds, **kwargs)
        cv.folds[3] = FoldResult(3, skipped=True)
        return cv

    monkeypatch.setattr(experiment, "analyze_release_pair", failing_first_pair)
    monkeypatch.setattr(experiment, "cross_validate", impossible_method_cv)
    out = tmp_path / "out"
    assert run_experiment(make_config(fixture_repo, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["release_pairs"] == 1
    assert manifest["failed_release_pairs"] == [
        {"repo": "repo", "release_pair": "v1.0..v1.1", "reason": "RuntimeError: forced failure"}
    ]
    assert manifest["skipped_granularities"] == [
        {"repo": "repo", "release_pair": "v1.1..v2.0", "granularity": "method",
         "reason": "cross-validation impossible: forced single label"}
    ]
    assert manifest["skipped_folds"] == [
        {"repo": "repo", "release_pair": "v1.1..v2.0", "granularity": "class", "folds": [3]}
    ]
    rows = read_rows(out / "releases.csv")
    assert [(r["release_pair"], r["granularity"]) for r in rows] == [("v1.1..v2.0", "class")]


def test_a_release_pair_without_methods_skips_the_method_granularity(tmp_path):
    rb = RepoBuilder(tmp_path / "fields")
    for i in range(4):
        rb.write(f"src/F{i}.java", f"class F{i} {{\n    int a = 0;\n}}\n")
    rb.commit("c1")
    rb.tag("t1")
    for i in range(2):
        rb.write(f"src/F{i}.java", f"class F{i} {{\n    int a = 1;\n}}\n")
    rb.commit("c2")
    rb.tag("t2")
    out = tmp_path / "out"
    config = ExperimentConfig(repos=(RepoSpec(str(rb.root), "t*"),), output_dir=str(out), k_values=(100,), folds=2)
    assert run_experiment(config) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["skipped_granularities"] == [
        {"repo": "fields", "release_pair": "t1..t2", "granularity": "method",
         "reason": "no method modules at release"}
    ]
    rows = read_rows(out / "releases.csv")
    assert [(r["release_pair"], r["granularity"]) for r in rows] == [("t1..t2", "class")]


def test_a_budget_below_every_module_leaves_the_ratios_empty(fixture_repo, tmp_path):
    out = tmp_path / "out"
    assert run_experiment(make_config(fixture_repo, out, k_values=(1,))) == 0
    rows = read_rows(out / "releases.csv")
    assert rows and all(r["ratio_release_k1"] == r["ratio_commit_k1"] == "" for r in rows)
    assert {r["rq"] for r in read_rows(out / "summary.csv")} == {"rq1", "rq2"}


def _file_bytes(out: Path):
    names = ["releases.csv", "summary.csv", "fold_assignments.csv", "manifest.json"]
    names += sorted(str(p.relative_to(out)) for p in (out / "datasets").glob("*.csv"))
    return {name: (out / name).read_bytes() for name in names}


def test_same_seed_byte_identical_reports(fixture_repo, tmp_path, first_run):
    _, first_out, config = first_run
    rerun_out = tmp_path / "rerun"
    rerun_config = make_config(fixture_repo, rerun_out, seed=config.seed)
    assert run_experiment(rerun_config) == 0
    first = _file_bytes(first_out)
    second = _file_bytes(rerun_out)
    for name in first:
        assert first[name] == second[name], f"{name} not reproducible"


# sha256 of every file the fixture run (seed 7, k 50-5000) and `granite mine` write; like
# test_out_of_fold_scores_pinned it pins the random streams granite.streams draws
PINNED_OUTPUTS = {
    "datasets/repo__v1.0..v1.1__class.csv": "b87986af25bd4c43dfd79b10c51ed90891ccd3c464d865218e39623acdce8596",
    "datasets/repo__v1.0..v1.1__method.csv": "7b543fda59fb188be557299100a71779254719b8f04e9c8f1bc7295f0e8aadad",
    "datasets/repo__v1.1..v2.0__class.csv": "af7cc24169bdc7ae18262bc8726c3f6bf0a950786a5ef32ba290bd206fce5cfd",
    "datasets/repo__v1.1..v2.0__method.csv": "598a904759b66fa8dd6e33f620b6a5bbc101bc93ffd38a9453e9fe80568228ea",
    "fold_assignments.csv": "1028ac1b889e91bb89db5c0c22f1b90f18a0937ed007be36682bb4c41d6c4737",
    "manifest.json": "66afd36b0a97bd0bf97e5a19204bb2673ad2fd759c7e967fc5a132dce7e8b1e3",
    "mine.csv": "69a4cf2d5d1a906307531d7139fb974af7b0c0c8a0370f6d109587d793c79937",
    "releases.csv": "de9156f26bde00ec4dc92d46eb330002f8e401175f113fd803e985a095cca24a",
    "summary.csv": "4839ea9a4a1497b149c8747de5f1dcf0a751a5af15fdfd52a278819e58c26751",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_outputs_pinned(fixture_repo, tmp_path, first_run):
    _, out, _ = first_run
    digests = {name: _sha256(data) for name, data in _file_bytes(out).items()}
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    del manifest["config_hash"]  # hashes the repository's temporary path
    digests["manifest.json"] = _sha256(json.dumps(manifest, indent=2, sort_keys=True).encode())
    assert main(["mine", str(fixture_repo.root), "--tags", "v*", "--out", str(tmp_path / "mine.csv")]) == 0
    digests["mine.csv"] = _sha256((tmp_path / "mine.csv").read_bytes())
    assert digests == PINNED_OUTPUTS


def test_outputs_do_not_depend_on_the_hash_seed(fixture_repo, tmp_path):
    # scans key their dicts in walk order, not hash order: two interpreters hashing
    # strings differently write the same bytes for `granite run` and `granite mine`
    src = Path(__file__).resolve().parents[1] / "src"
    written = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash_seed_{hash_seed}"
        config = tmp_path / f"config_{hash_seed}.json"
        config.write_text(json.dumps({"repos": [{"path": str(fixture_repo.root), "tags": "v*"}],
                                      "output_dir": str(out), "k_values": [50, 100, 500, 1000, 5000], "seed": 7}))
        mine = ["mine", str(fixture_repo.root), "--tags", "v*", "--out", str(tmp_path / f"mine_{hash_seed}.csv")]
        code = f"from granite.cli import main; assert main({['run', '--config', str(config)]!r}) == 0; assert main({mine!r}) == 0"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        files = _file_bytes(out)
        files["mine.csv"] = (tmp_path / f"mine_{hash_seed}.csv").read_bytes()
        written.append(files)
    assert len(written[0]) == 9
    for name, data in written[0].items():
        assert written[1][name] == data, f"{name} depends on the hash seed"


def test_different_seed_changes_fold_assignment(fixture_repo, tmp_path, first_run):
    _, first_out, config = first_run
    other_out = tmp_path / "other"
    other = make_config(fixture_repo, other_out, seed=config.seed + 1)
    assert run_experiment(other) == 0
    assert (first_out / "fold_assignments.csv").read_bytes() != (other_out / "fold_assignments.csv").read_bytes()


def test_missing_repo_isolated(fixture_repo, tmp_path):
    config = ExperimentConfig(
        repos=(RepoSpec(str(tmp_path / "nope"), "*"), RepoSpec(str(fixture_repo.root), "v*")),
        output_dir=str(tmp_path / "out"),
        k_values=(100,),
        seed=1,
    )
    assert run_experiment(config) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    statuses = sorted(manifest["repos"].items())
    assert any(v.startswith("failed") for _, v in statuses)
    assert any(v.startswith("ok") for _, v in statuses)


def test_all_repos_failing_nonzero_exit(tmp_path):
    config = ExperimentConfig(
        repos=(RepoSpec(str(tmp_path / "missing"), "*"),),
        output_dir=str(tmp_path / "out"),
        k_values=(100,),
    )
    assert run_experiment(config) == 1


def test_each_blob_is_parsed_or_derived_once(fixture_repo, tmp_path, monkeypatch):
    parse, extract, derive = javaparse.parse_source, javaparse.extract_modules, javaparse.derive_modules
    parses = 0
    extracted, derived = [], []

    def counting_parse(*args, **kwargs):
        nonlocal parses
        parses += 1
        return parse(*args, **kwargs)

    def recording_extract(snapshot, *args):
        extracted.append((snapshot.blob, snapshot.path))
        return extract(snapshot, *args)

    def recording_derive(parent_defs, parent_lines, snapshot):
        defs = derive(parent_defs, parent_lines, snapshot)
        if defs is not None:
            derived.append((snapshot.blob, snapshot.path))
        return defs

    # `from x import f` copies the binding, so replace it in every granite module
    replace = ((parse, counting_parse), (extract, recording_extract), (derive, recording_derive))
    for name, module in list(sys.modules.items()):
        if name == "granite" or name.startswith("granite."):
            for attr, value in list(vars(module).items()):
                for old, new in replace:
                    if value is old:
                        monkeypatch.setattr(module, attr, new)
    assert run_experiment(make_config(fixture_repo, tmp_path / "out")) == 0
    parsed, made = set(extracted), set(derived)
    assert parsed and made  # the fixture's one-line body edits are derived
    assert parses == len(extracted) == len(parsed)
    assert len(derived) == len(made)
    assert not parsed & made


def test_each_adjacent_delta_is_computed_once(fixture_repo, tmp_path, monkeypatch):
    changes, delta = GitRepo.first_parent_changes, HistoryScanner.adjacent_delta
    steps, computed = [], 0

    def recording_changes(self, commits):
        steps.extend(zip(commits, commits[1:]))
        return changes(self, commits)

    def counting_delta(self, *args):
        nonlocal computed
        computed += 1
        return delta(self, *args)

    # the scan reads each range's steps at once and computes one delta per step read
    monkeypatch.setattr(GitRepo, "first_parent_changes", recording_changes)
    monkeypatch.setattr(HistoryScanner, "adjacent_delta", counting_delta)
    assert run_experiment(make_config(fixture_repo, tmp_path / "out")) == 0
    assert steps
    assert computed == len(steps) == len(set(steps))


def _svc_source(name="compute", total_line="total += 1;", extra=False):
    extra_text = "\n    public int extra() {\n        return base + 5;\n    }\n" if extra else ""
    return (
        "public class Svc {\n"
        "    private int base = 1;\n"
        "\n"
        f"    public int {name}(int a) {{\n"
        "        int total = a + base;\n"
        f"        {total_line}\n"
        "        total += 3;\n"
        "        return total;\n"
        "    }\n"
        f"{extra_text}"
        "}\n"
    )


def _util_source(factor=2):
    return f"public class Util {{\n    static int scale(int x) {{\n        return x * {factor};\n    }}\n}}\n"


def _side_source(line="int v = 0;"):
    return f"public class Side {{\n    void side() {{\n        {line}\n    }}\n}}\n"


def _capture_process(monkeypatch):
    """The process vectors that analyze_release_pair assembles, filled in by (pair label, granularity)."""
    process_by_unit = {}
    assemble = experiment.assemble

    def capturing_assemble(product, process, labels, locs, release, granularity):
        process_by_unit[release, granularity] = process
        return assemble(product, process, labels, locs, release, granularity)

    monkeypatch.setattr(experiment, "assemble", capturing_assemble)
    return process_by_unit


def _assert_process_is_a_walk_from_the_root(root, results, process_by_unit):
    """Each pair's modules and process vectors are those of a fresh walk from the root to its r."""
    with GitRepo(root) as repo:
        for res in results:
            chain = list(reversed(repo.first_parent_chain(res.pair.r_commit)))
            reference = HistoryScanner(repo).change_histories(chain)
            metas = repo.commit_meta(chain)
            for granularity in ("class", "method"):
                process = process_by_unit[res.pair.label, granularity]
                assert set(process) == {m for m in reference.end_histories if m.kind == granularity}
                for module, vector in process.items():
                    expected = process_metrics(reference.end_histories[module], metas, res.pair.r_commit)
                    assert np.array_equal(vector, expected), (res.pair.label, module)


def test_carried_histories_match_a_walk_from_the_root(tmp_path, monkeypatch):
    rb = RepoBuilder(tmp_path / "offchain")
    rb.write("src/Svc.java", _svc_source())
    rb.write("src/Util.java", _util_source())
    root = rb.commit("init", author="Alice Dev")
    rb.write("src/Svc.java", _svc_source(total_line="total += 2;"))
    rb.write("src/Util.java", _util_source(3))
    rb.commit("tune and scale", author="Bob Dev")
    rb.write("src/Util.java", _util_source(6))
    rb.commit("scale", author="Alice Dev")
    rb.tag("t1")
    rb.write("src/Svc.java", _svc_source(name="computeAll", total_line="total += 2;"))
    rb.write("src/Util.java", _util_source(4))
    rb.commit("rename and scale", author="Bob Dev")
    rb.tag("t2")
    rb.branch("side")
    rb.checkout("side")
    rb.write("src/Side.java", _side_source())
    rb.commit("side file", author="Carol Dev")
    rb.write("src/Side.java", _side_source("int v = 1;"))
    rb.commit("side edit", author="Carol Dev")
    rb.tag("t3")  # off the first-parent chain of t4, so t3..t4 is skipped
    rb.checkout("main")
    rb.write("src/Svc.java", _svc_source(name="computeAll", total_line="total += 2;", extra=True))
    rb.commit("extra", author="Alice Dev")
    rb.write("src/Util.java", _util_source(5))
    rb.commit("scale again", author="Bob Dev")
    rb.merge("side", "merge side")
    rb.write("src/Svc.java", _svc_source(name="computeAll", total_line="total += 7;", extra=True))
    rb.commit("retune", author="Carol Dev")
    rb.tag("t4")
    rb.write("src/Side.java", _side_source("int v = 2;"))
    rb.commit("side again", author="Alice Dev")
    rb.tag("t5")

    process_by_unit = _capture_process(monkeypatch)
    change_histories = HistoryScanner.change_histories
    root_walks = 0

    def counting_histories(self, commits, prior=None):
        nonlocal root_walks
        root_walks += commits[0] == root
        return change_histories(self, commits, prior)

    monkeypatch.setattr(HistoryScanner, "change_histories", counting_histories)
    results, failed = experiment.analyze_repository(RepoSpec(str(rb.root), "t*"), (100,), seed=0, folds=2)
    monkeypatch.undo()
    assert failed == []
    assert [r.pair.label for r in results] == ["t1..t2", "t2..t3", "t4..t5"]
    assert root_walks == 2  # the first pair and the restart after the skipped t3..t4; t2..t3 is carried
    _assert_process_is_a_walk_from_the_root(rb.root, results, process_by_unit)
    for res in results:
        assert any(v[0] > 0 for v in process_by_unit[res.pair.label, "method"].values())


def test_a_release_whose_blob_does_not_parse_carries_what_a_walk_from_the_root_holds(tmp_path, monkeypatch):
    # c3 breaks A.java and is tagged t2; c4 mends it: every pair must see A's lineage from c1
    source = (
        "public class A {{\n    int f() {{\n        return {};\n    }}\n\n"
        "    int g() {{\n        return {};\n    }}\n}}\n"
    )
    rb = RepoBuilder(tmp_path / "broken-release")
    rb.write("src/A.java", source.format(1, 1))
    rb.write("src/Util.java", _util_source())
    rb.commit("c1", author="Alice Dev")
    rb.tag("t1")
    rb.write("src/A.java", source.format(2, 1))
    rb.commit("c2 edit f()", author="Bob Dev")
    rb.write("src/A.java", "public class A {\n    int f() {\n")
    rb.commit("c3 does not parse", author="Alice Dev")
    rb.tag("t2")
    rb.write("src/A.java", source.format(3, 2))
    rb.write("src/Util.java", _util_source(3))
    rb.commit("c4 mend, edit f() and g()", author="Carol Dev")
    rb.tag("t3")
    rb.write("src/A.java", source.format(4, 2))
    rb.commit("c5 edit f()", author="Bob Dev")
    rb.tag("t4")

    process_by_unit = _capture_process(monkeypatch)
    results, failed = experiment.analyze_repository(RepoSpec(str(rb.root), "t*"), (100,), seed=0, folds=2)
    monkeypatch.undo()
    assert failed == []
    assert [r.pair.label for r in results] == ["t1..t2", "t2..t3", "t3..t4"]
    broken = {ModuleId("class", "src/A.java", "A"), *(ModuleId("method", "src/A.java", "A", m, ()) for m in "fg")}
    for label in ("t2..t3", "t3..t4"):
        assert broken <= set(process_by_unit[label, "class"]) | set(process_by_unit[label, "method"]), label
    _assert_process_is_a_walk_from_the_root(rb.root, results, process_by_unit)


# -- CLI ------------------------------------------------------------------------


def test_cli_run_with_config_file(fixture_repo, tmp_path, capsys):
    out = tmp_path / "cli-out"
    cfg = {
        "repos": [{"path": str(fixture_repo.root), "tags": "v*"}],
        "output_dir": str(out),
        "k_values": [100, 500],
        "seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (out / "releases.csv").exists()


def test_cli_mine_emits_histories(fixture_repo, tmp_path):
    out_file = tmp_path / "histories.csv"
    assert main(["mine", str(fixture_repo.root), "--tags", "v*", "--out", str(out_file)]) == 0
    rows = read_rows(out_file)
    hot = next(
        r for r in rows
        if r["module_id"] == "method:src/Alpha.java:Alpha#hot()" and r["release_pair"] == "v1.0..v1.1"
    )
    assert int(hot["changes"]) == 2
    assert int(hot["delta_release"]) == 0
    assert int(hot["delta_commit"]) == 4


def test_cli_mine_lists_the_tree_once_per_chain_and_mines_what_fresh_scans_do(fixture_repo, tmp_path, monkeypatch):
    with GitRepo(fixture_repo.root) as repo:
        pairs = repo.release_pairs("v*")
    assert len(pairs) == 2 and pairs[0].rprime_commit == pairs[1].r_commit  # one chain
    listed = []
    source_files = GitRepo.source_files
    change_histories = HistoryScanner.change_histories

    def recording_source_files(self, commit):
        listed.append(commit)
        return source_files(self, commit)

    def fresh_histories(self, commits, prior=None):
        return change_histories(self, commits)

    monkeypatch.setattr(GitRepo, "source_files", recording_source_files)
    carried = tmp_path / "carried.csv"
    assert main(["mine", str(fixture_repo.root), "--tags", "v*", "--out", str(carried)]) == 0
    assert listed == [pairs[0].r_commit]
    monkeypatch.setattr(HistoryScanner, "change_histories", fresh_histories)
    fresh = tmp_path / "fresh.csv"
    assert main(["mine", str(fixture_repo.root), "--tags", "v*", "--out", str(fresh)]) == 0
    monkeypatch.undo()
    assert listed == [pairs[0].r_commit] + [p.r_commit for p in pairs]  # each fresh scan lists its r
    assert carried.read_bytes() == fresh.read_bytes()


def test_cli_mine_of_a_missing_repository_fails_before_writing(tmp_path, capsys):
    out_file = tmp_path / "h.csv"
    missing = tmp_path / "nonexistent"
    assert main(["mine", str(missing), "--out", str(out_file)]) == 2
    assert capsys.readouterr().err == f"granite: not a directory: {missing}\n"
    assert not out_file.exists()


def test_cli_mine_of_an_empty_repository_path_fails_before_writing(fixture_repo, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(fixture_repo.root)  # "" must not open the working directory, even where it is a repository
    out_file = tmp_path / "h.csv"
    assert main(["mine", "", "--out", str(out_file)]) == 2
    assert capsys.readouterr() == ("", "granite: a repository path must not be empty\n")
    assert not out_file.exists()


def test_cli_mine_to_a_missing_directory_fails(fixture_repo, tmp_path, capsys):
    out_file = tmp_path / "missing" / "h.csv"
    assert main(["mine", str(fixture_repo.root), "--tags", "v*", "--out", str(out_file)]) == 2
    assert capsys.readouterr() == ("", f"granite: [Errno 2] No such file or directory: '{out_file}'\n")


def _two_tag_repository(root):
    """A repository tagged v1 and v2, and the path of the loose object of v2:src/A.java."""
    rb = RepoBuilder(root)
    for tag, value in (("v1", 1), ("v2", 2)):
        rb.write("src/A.java", f"public class A {{\n    int f() {{\n        return {value};\n    }}\n}}\n")
        rb.commit(tag)
        rb.tag(tag)
    sha = rb.git("rev-parse", "v2:src/A.java").strip()
    return rb, sha, rb.root / ".git" / "objects" / sha[:2] / sha[2:]


def test_a_repository_that_lacks_an_object_ends_mine_with_one_line_and_fails_the_pair_in_run(tmp_path, capsys):
    rb, sha, loose = _two_tag_repository(tmp_path / "partial")
    loose.unlink()  # as a damaged or partial clone lacks it
    assert main(["mine", str(rb.root), "--tags", "v*", "--out", str(tmp_path / "mined.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"granite: object not found: {sha}") and err.count("\n") == 1
    out = tmp_path / "out"
    config = ExperimentConfig(repos=(RepoSpec(str(rb.root), "v*"),), output_dir=str(out))
    assert run_experiment(config) == 0
    failed = json.loads((out / "manifest.json").read_text())["failed_release_pairs"]
    assert [(f["release_pair"], f["reason"]) for f in failed] == [("v1..v2", f"RepositoryError: object not found: {sha}")]


def test_a_corrupt_object_ends_mine_with_granites_line_alone(tmp_path, capfd):
    # capfd, not capsys: git's own error lines would come from the cat-file child's stderr
    rb, sha, loose = _two_tag_repository(tmp_path / "corrupt")
    loose.chmod(0o644)
    loose.write_bytes(b"garbage\n")  # git reads it as a damaged object
    out = tmp_path / "mined.csv"
    assert main(["mine", str(rb.root), "--tags", "v*", "--out", str(out)]) == 2
    assert capfd.readouterr() == ("", f"granite: object not found: {sha}\n")
    assert out.read_text().startswith("release_pair,")  # the rows written before the error stay


def test_cli_mine_without_git_on_the_path_fails_before_writing(fixture_repo, tmp_path, capsys, monkeypatch):
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    out_file = tmp_path / "h.csv"
    assert main(["mine", str(fixture_repo.root), "--tags", "v*", "--out", str(out_file)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("granite: ") and err.count("\n") == 1 and "'git'" in err
    assert not out_file.exists()


def test_cli_run_to_an_output_dir_under_a_file_fails_before_analysis(fixture_repo, tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    analysed = []
    monkeypatch.setattr(experiment, "analyze_repository", lambda *args: analysed.append(args))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"repos": [{"path": str(fixture_repo.root)}], "output_dir": str(blocker / "out")}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"granite: [Errno 20] Not a directory: '{blocker / 'out' / 'datasets'}'\n"
    assert analysed == []


@pytest.mark.parametrize(
    "config, message",
    [
        (None, "granite: [Errno 2] No such file or directory: '{path}'"),
        ({"repos": [], "output_dir": "out"}, "granite: config needs at least one repository"),
        ({"repos": [{"tags": "v*"}], "output_dir": "out"},
         "granite: a repository entry needs a string path, got {{'tags': 'v*'}}"),
        ({"repos": [{"path": 3}], "output_dir": "out"},
         "granite: a repository entry needs a string path, got {{'path': 3}}"),
        ({"repos": ["r"], "output_dir": "out"}, "granite: a repository entry needs a string path, got 'r'"),
        ([{"repos": [{"path": "r"}]}], "granite: config must be a JSON object, got list"),
        ({"repos": "r", "output_dir": "out"}, "granite: repos must be a list of repository entries"),
        ({"repos": [{"path": "r", "tags": ["v*"]}], "output_dir": "out"},
         "granite: the tags of repository 'r' must be a string glob"),
        ({"repos": [{"path": "r"}], "output_dir": "out", "folds": None},
         "granite: k_values must be a list of integers, and folds and seed integers"),
        ({"repos": [{"path": "r"}], "output_dir": "out", "k_values": 5},
         "granite: k_values must be a list of integers, and folds and seed integers"),
        ({"repos": [{"path": "r"}], "output_dir": "out", "k_values": [100.7, 500]},
         "granite: k_values must be a list of integers, and folds and seed integers"),
        ({"repos": [{"path": "r"}], "output_dir": "out", "k_values": "5"},
         "granite: k_values must be a list of integers, and folds and seed integers"),
        ({"repos": [{"path": "r"}], "output_dir": "out", "folds": 2.9},
         "granite: k_values must be a list of integers, and folds and seed integers"),
        ({"repos": [{"path": "r"}], "output_dir": "out", "seed": True},
         "granite: k_values must be a list of integers, and folds and seed integers"),
        ({"repos": [{"path": "r"}], "output_dir": "out", "seed": "7"},
         "granite: k_values must be a list of integers, and folds and seed integers"),
        ({"repos": [{"path": "r"}], "output_dir": "out", "k_values": []}, "granite: k_values must name at least one k"),
        ({"repos": [{"path": "r"}], "output_dir": None}, "granite: config needs output_dir, a non-empty string"),
        ({"repos": [{"path": "r"}], "output_dir": ""}, "granite: config needs output_dir, a non-empty string"),
        ({"repos": [{"path": ""}], "output_dir": "out"}, "granite: a repository path must not be empty"),
    ],
    ids=["missing-config", "no-repos", "repo-without-path", "non-string-path", "string-repo", "list-config",
         "string-repos", "non-string-tags", "null-folds", "scalar-k-values", "fractional-k-value",
         "string-k-values", "fractional-folds", "boolean-seed", "string-seed", "empty-k-values",
         "null-output-dir", "empty-output-dir", "empty-path"],
)
def test_cli_run_rejects_a_bad_config(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    if config is not None:
        path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == message.format(path=path) + "\n"


def test_cli_eval_computes_ratios(tmp_path):
    pred = tmp_path / "preds.csv"
    pred.write_text(
        "module_id,score,loc,delta_release,delta_commit\n"
        "method:src/A.java:A#a(),0.9,40,20,25\n"
        "method:src/B.java:B#b(),0.8,30,10,15\n"
    )
    out = tmp_path / "ratios.csv"
    assert main(["eval", "--predictions", str(pred), "--k", "100", "--out", str(out)]) == 0
    rows = read_rows(out)
    release = next(r for r in rows if r["kind"] == "release")
    assert abs(float(release["ratio"]) - 30 / 70) < 1e-12
    commit = next(r for r in rows if r["kind"] == "commit")
    assert abs(float(commit["ratio"]) - 40 / 70) < 1e-12


def test_cli_eval_reads_a_predictions_file_that_starts_with_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports begin with U+FEFF
    text = (
        "module_id,score,loc,delta_release,delta_commit\n"
        "method:src/A.java:A#a(),0.9,40,20,25\n"
        "method:src/B.java:B#b(),0.8,30,10,15\n"
    )
    outputs = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        pred, out = tmp_path / f"{name}.csv", tmp_path / f"{name}-ratios.csv"
        pred.write_text(text, encoding=encoding)
        assert main(["eval", "--predictions", str(pred), "--k", "50,100", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("method:src/B.java:B#b(),0.8,0,10,15", "loc must be a positive integer, got 0"),
        ("method:src/A.java:A#a(),0.8,30,10,15", "module_id method:src/A.java:A#a() appears twice"),
        ("method:src/B.java:B#b(),nan,30,10,15", "score is NaN"),
        ("method:src/B.java:B#b(),high,30,10,15", "could not convert string to float: 'high'"),
        ("method:src/B.java:B#b(),0.8,30,-50,15",
         "delta_release and delta_commit must be non-negative, got -50 and 15"),
        ("method:src/B.java:B#b(),0.8,30,10,-1", "delta_release and delta_commit must be non-negative, got 10 and -1"),
        ("method:a:B#f(int,0.8,30,10,15", "not a module id: 'method:a:B#f(int'"),
        ("method:x,0.8,30,10,15", "not a module id: 'method:x'"),
        ("class:x,0.8,30,10,15", "not a module id: 'class:x'"),
    ],
    ids=["zero-loc", "duplicate-module", "nan-score", "non-numeric-score", "negative-delta-release",
         "negative-delta-commit", "unclosed-parameter-list", "method-id-without-parts", "class-id-without-path"],
)
def test_cli_eval_rejects_malformed_rows(tmp_path, capsys, bad_row, message):
    pred = tmp_path / "preds.csv"
    pred.write_text(
        "module_id,score,loc,delta_release,delta_commit\n"
        "method:src/A.java:A#a(),0.9,40,20,25\n"
        f"{bad_row}\n"
    )
    out = tmp_path / "ratios.csv"
    assert main(["eval", "--predictions", str(pred), "--k", "100", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{pred}:3: {message}\n"
    assert not out.exists()


def test_cli_eval_rejects_a_file_without_a_column(tmp_path, capsys):
    pred = tmp_path / "preds.csv"
    pred.write_text("module_id,score,loc,delta_commit\nmethod:src/A.java:A#a(),0.9,40,25\n")
    assert main(["eval", "--predictions", str(pred), "--k", "100"]) == 2
    assert capsys.readouterr() == ("", f"{pred}:2: no column delta_release\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--predictions", "{missing}"], "granite: [Errno 2] No such file or directory: '{missing}'"),
        (["--predictions", "{pred}", "--k", "1,x"], "--k must be a strictly increasing list of positive integers"),
        (["--predictions", "{pred}", "--k", "100,,500"], "--k must be a strictly increasing list of positive integers"),
        (["--predictions", "{pred}", "--out", "{missing}/ratios.csv"],
         "granite: [Errno 2] No such file or directory: '{missing}/ratios.csv'"),
    ],
    ids=["missing-predictions", "non-integer-k", "empty-k-entry", "out-in-missing-directory"],
)
def test_cli_eval_rejects_bad_arguments(tmp_path, capsys, args, message):
    pred = tmp_path / "preds.csv"
    pred.write_text("module_id,score,loc,delta_release,delta_commit\nmethod:src/A.java:A#a(),0.9,40,20,25\n")
    out = tmp_path / "ratios.csv"
    paths = {"missing": tmp_path / "missing.csv", "pred": pred}
    assert main(["eval", "--out", str(out), *(a.format(**paths) for a in args)]) == 2
    assert capsys.readouterr() == ("", message.format(**paths) + "\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "body",
    [b"method:src/A.java:A#\xff(),0.9,40,20,25\n",
     b"method:src/A.java:A#a(),0.9,40,20,25,\"" + b"x" * 131_073 + b"\"\n"],
    ids=["not-utf-8", "field-over-the-csv-limit"],
)
def test_cli_eval_of_an_unreadable_predictions_file_fails_before_writing(tmp_path, capsys, body):
    pred = tmp_path / "preds.csv"
    pred.write_bytes(b"module_id,score,loc,delta_release,delta_commit\n" + body)
    out = tmp_path / "ratios.csv"
    assert main(["eval", "--predictions", str(pred), "--k", "100", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("granite: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_eval_null_ratio_for_tiny_budget(tmp_path):
    pred = tmp_path / "preds.csv"
    pred.write_text(
        "module_id,score,loc,delta_release,delta_commit\n"
        "method:src/A.java:A#a(),0.9,400,20,25\n"
    )
    out = tmp_path / "ratios.csv"
    assert main(["eval", "--predictions", str(pred), "--k", "100", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert all(r["ratio"] == "" for r in rows)
    assert all(r["cutoff"] == "0" for r in rows)
