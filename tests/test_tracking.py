import importlib.util
import logging
import os
import sys
import tempfile
import textwrap
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from granite import gitrepo, tracking
from granite.cli import main
from granite.evaluation import change_sizes
from granite.gitrepo import FileSnapshot, GitRepo
from granite.javaparse import ModuleDef, ModuleId, derive_modules, extract_modules
from granite.textdiff import similarity
from granite.tracking import (
    HistoryScanner,
    build_change_histories,
    match_renames,
    module_loc,
)

from repobuilder import RepoBuilder


def mdef(kind, name, body_lines, path="src/X.java", cls="X", params=()):
    if kind == "class":
        mid = ModuleId("class", path, cls)
    else:
        mid = ModuleId("method", path, cls, name, tuple(params))
    return ModuleDef(mid, (1, len(body_lines)), tuple(body_lines))


def java(src):
    return textwrap.dedent(src)


# -- match_renames --------------------------------------------------------


def test_identity_mapping_on_same_snapshot():
    defs = [
        mdef("class", None, ["class X {", "}"]),
        mdef("method", "f", ["void f() {", "  a();", "}"]),
        mdef("method", "g", ["void g() {", "}"]),
    ]
    mapping = match_renames(defs, defs)
    assert mapping == {d.id: d.id for d in defs}


def test_renamed_method_identical_body_matched():
    body = ["void doWork() {", "  step();", "  step();", "  done();", "}"]
    prev = [mdef("method", "doWork", body)]
    cur = [mdef("method", "doTask", ["void doTask() {"] + body[1:])]
    mapping = match_renames(prev, cur)
    assert mapping == {prev[0].id: cur[0].id}


def test_moved_file_identical_body_matched_with_similarity_one():
    body = ["class X {", "  int a;", "}"]
    prev = [mdef("class", None, body, path="src/X.java")]
    cur = [mdef("class", None, body, path="src/core/X.java")]
    assert similarity(prev[0].body, cur[0].body) == 1.0
    mapping = match_renames(prev, cur)
    assert mapping == {prev[0].id: cur[0].id}


def test_low_similarity_is_delete_plus_add():
    prev = [mdef("method", "f", ["void f() {", "  alpha();", "  beta();", "}"])]
    cur = [mdef("method", "g", ["int g(int x) {", "  return x * 2;", "  // done", "}"])]
    sim = similarity(prev[0].body, cur[0].body)
    assert sim < 0.6
    assert match_renames(prev, cur) == {}


def test_each_module_matched_at_most_once():
    body = ["void f() {", "  work();", "}"]
    prev = [
        mdef("method", "f1", body, cls="A"),
        mdef("method", "f2", body, cls="B"),
    ]
    cur = [mdef("method", "renamed", body, cls="A")]
    mapping = match_renames(prev, cur)
    assert len(mapping) == 1
    assert set(mapping.values()) == {cur[0].id}


def test_a_taken_module_is_skipped_by_the_greedy_step():
    p1, p2 = mdef("method", "p1", list("abcdef")), mdef("method", "p2", list("abcdeg"))
    c1 = mdef("method", "c1", list("abcdeh"))
    assert similarity(p1.body, c1.body) == similarity(p2.body, c1.body) == 5 / 6
    # equal similarity: the lower id wins, and p2 finds c1 taken and dies
    assert match_renames([p2, p1], [c1]) == {p1.id: c1.id}


def test_kind_mismatch_never_matches():
    body = ["class X {", "}"]
    prev = [mdef("class", None, body)]
    cur = [mdef("method", "x", body, cls="Y")]
    assert match_renames(prev, cur) == {}


_ID_POOL = [ModuleId("class", "src/X.java", "X"), ModuleId("class", "src/Y.java", "Y")] + [
    ModuleId("method", path, cls, name, ())
    for path, cls in (("src/X.java", "X"), ("src/Y.java", "Y"))
    for name in ("f", "g", "h")
]
# few distinct lines, so identical bodies and near-threshold similarities are common
_module_lists = st.lists(
    st.tuples(st.sampled_from(_ID_POOL), st.lists(st.sampled_from(["{", "}", "a();", "b();", "c();"]), max_size=5)),
    unique_by=lambda t: t[0],
    max_size=6,
).map(lambda items: [ModuleDef(mid, (1, len(body)), tuple(body)) for mid, body in items])


@given(_module_lists, _module_lists, st.data())
def test_match_renames_is_injective_keeps_identities_and_ignores_order(prev, cur, data):
    mapping = match_renames(prev, cur)
    assert set(mapping) <= {d.id for d in prev}
    assert set(mapping.values()) <= {d.id for d in cur}
    assert len(set(mapping.values())) == len(mapping)  # injective
    cur_ids = {d.id for d in cur}
    for d in prev:
        if d.id in cur_ids:
            assert mapping[d.id] == d.id
    shuffled = match_renames(data.draw(st.permutations(prev)), data.draw(st.permutations(cur)))
    assert shuffled == mapping


# -- loc / counting trivials ------------------------------------------------


def test_module_loc_from_span():
    d = ModuleDef(ModuleId("method", "p", "C", "f", ()), (10, 19), tuple(["x"] * 10))
    assert module_loc(d) == 10
    one = ModuleDef(ModuleId("method", "p", "C", "g", ()), (4, 4), ("int g() { return 1; }",))
    assert module_loc(one) == 1


# -- history building over a scripted repository ---------------------------

ALPHA_V1 = java(
    """\
    public class Alpha {
        private int state = 1;

        public int stable() {
            return state;
        }

        public int hot() {
            int x = 1;
            return x + state;
        }
    }
    """
)


@pytest.fixture()
def history_repo(tmp_path):
    rb = RepoBuilder(tmp_path / "hist")
    rb.write("src/Alpha.java", ALPHA_V1)
    rb.write("src/Gamma.java", "public class Gamma {\n    void g() {\n    }\n}\n")
    rb.commit("c1")
    rb.tag("v1")
    # edit hot() body: one line replaced
    rb.write("src/Alpha.java", ALPHA_V1.replace("int x = 1;", "int x = 2;"))
    rb.commit("c2")
    # whitespace-only edit inside hot()
    rb.write("src/Alpha.java", ALPHA_V1.replace("int x = 1;", "int  x = 2;"))
    rb.commit("c3")
    # untouched commit (edit a non-java file)
    rb.write("README.md", "notes\n")
    rb.commit("c4")
    # flip hot() back to the original text (A -> B -> A for the 'x' line)
    rb.write("src/Alpha.java", ALPHA_V1)
    rb.commit("c5")
    rb.tag("v2")
    return rb


def test_untouched_module_has_empty_events(history_repo):
    with GitRepo(history_repo.root) as repo:
        pair = repo.release_pairs("v*")[0]
        histories = build_change_histories(repo, pair)
    stable = next(h for m, h in histories.items() if m.method_name == "stable")
    assert stable.events == []
    assert len(stable.events) == 0
    gamma = next(h for m, h in histories.items() if m.qualified_class == "Gamma" and m.kind == "class")
    assert gamma.events == []


def test_edited_module_event_counts_and_churn(history_repo):
    with GitRepo(history_repo.root) as repo:
        pair = repo.release_pairs("v*")[0]
        histories = build_change_histories(repo, pair)
    hot = next(h for m, h in histories.items() if m.method_name == "hot")
    # three edits: value change, whitespace change, flip back
    assert len(hot.events) == 3
    assert [e.churn for e in hot.events] == [2, 2, 2]
    assert all(e.added == 1 and e.deleted == 1 for e in hot.events)
    alpha = next(
        h for m, h in histories.items() if m.kind == "class" and m.qualified_class == "Alpha"
    )
    assert len(alpha.events) == 3


def test_whitespace_only_edit_counts_as_change(tmp_path):
    rb = RepoBuilder(tmp_path / "ws")
    src = "public class W {\n    void w() {\n        int a = 1;\n    }\n}\n"
    rb.write("src/W.java", src)
    rb.commit("c1")
    rb.tag("r1")
    rb.write("src/W.java", src.replace("int a = 1;", "int a  = 1;"))
    rb.commit("c2")
    rb.tag("r2")
    with GitRepo(rb.root) as repo:
        pair = repo.release_pairs("r*")[0]
        histories = build_change_histories(repo, pair)
    w = next(h for m, h in histories.items() if m.method_name == "w")
    assert len(w.events) == 1
    assert w.events[0].churn == 2


def test_rename_threads_identity_and_counts_signature_edit(tmp_path):
    rb = RepoBuilder(tmp_path / "ren")
    body = (
        "public class R {\n"
        "    public int compute(int a) {\n"
        "        int total = a + 1;\n"
        "        total += 2;\n"
        "        total += 3;\n"
        "        return total;\n"
        "    }\n"
        "}\n"
    )
    rb.write("src/R.java", body)
    rb.commit("c1")
    rb.tag("r1")
    rb.write("src/R.java", body.replace("int compute(int a)", "int computeTotal(int a)"))
    rb.commit("c2")
    rb.tag("r2")
    with GitRepo(rb.root) as repo:
        pair = repo.release_pairs("r*")[0]
        scan = HistoryScanner(repo).change_histories(pair.commits)
    # identity is the birth identity
    method_ids = [m for m in scan.histories if m.kind == "method"]
    assert len(method_ids) == 1
    assert method_ids[0].method_name == "compute"
    history = scan.histories[method_ids[0]]
    assert len(history.events) == 1
    assert history.events[0].churn == 2  # signature line replaced
    # the end-of-range definition carries the new name
    assert scan.end_defs[method_ids[0]].id.method_name == "computeTotal"


def test_file_rename_keeps_birth_path(tmp_path):
    rb = RepoBuilder(tmp_path / "mv")
    src = "public class M {\n    void m() {\n        int v = 0;\n    }\n}\n"
    rb.write("src/M.java", src)
    rb.commit("c1")
    rb.tag("r1")
    rb.write("src/core/M.java", src)
    rb.remove("src/M.java")
    rb.commit("c2")
    rb.tag("r2")
    with GitRepo(rb.root) as repo:
        pair = repo.release_pairs("r*")[0]
        scan = HistoryScanner(repo).change_histories(pair.commits)
    class_ids = [m for m in scan.histories if m.kind == "class"]
    assert len(class_ids) == 1
    assert class_ids[0].file_path == "src/M.java"  # path at birth
    assert scan.histories[class_ids[0]].events == []  # content identical
    assert scan.end_defs[class_ids[0]].id.file_path == "src/core/M.java"


def test_birth_and_death_commits(tmp_path):
    rb = RepoBuilder(tmp_path / "bd")
    rb.write("src/Keep.java", "class Keep {\n    void k() {}\n}\n")
    rb.write("src/Gone.java", "class Gone {\n    void dead() {}\n}\n")
    rb.commit("c1")
    rb.tag("r1")
    rb.remove("src/Gone.java")
    rb.write("src/New.java", "class New {\n    void fresh() {}\n}\n")
    c2 = rb.commit("c2")
    rb.tag("r2")
    with GitRepo(rb.root) as repo:
        pair = repo.release_pairs("r*")[0]
        scan = HistoryScanner(repo).change_histories(pair.commits)
    gone = next(m for m in scan.histories if m.qualified_class == "Gone" and m.kind == "class")
    assert gone not in scan.end_defs  # dead at r'
    assert ModuleId("class", "src/Keep.java", "Keep") in scan.end_defs
    new = next(m for m in scan.end_histories if m.qualified_class == "New" and m.kind == "class")
    assert scan.end_histories[new].birth_commit == c2
    assert new not in scan.histories and new not in scan.end_defs  # only modules alive at r are keyed there


def test_counts_bounded_by_commit_count(history_repo):
    with GitRepo(history_repo.root) as repo:
        pair = repo.release_pairs("v*")[0]
        histories = build_change_histories(repo, pair)
        n = len(pair.commits)
    for history in histories.values():
        assert len(history.events) <= n - 1


def test_module_born_under_a_renamed_modules_old_id_keeps_its_own_history(tmp_path):
    rb = RepoBuilder(tmp_path / "reborn")
    src = (
        "public class R {\n"
        "    public int foo(int a) {\n"
        "        int total = a + 1;\n"
        "        total += 2;\n"
        "        total += 3;\n"
        "        return total;\n"
        "    }\n"
        "}\n"
    )
    rb.write("src/R.java", src)
    rb.commit("c1")
    rb.tag("r1")
    src = src.replace("int foo(int a)", "int bar(int a)")
    rb.write("src/R.java", src)
    c2 = rb.commit("c2 rename foo to bar")
    src = src.replace("total += 2;", "total += 20;")
    rb.write("src/R.java", src)
    c3 = rb.commit("c3 edit bar")
    src = src.replace("    }\n}\n", "    }\n\n    public int foo(int a) {\n        return a * 7;\n    }\n}\n")
    rb.write("src/R.java", src)
    c4 = rb.commit("c4 add a new foo")
    src = src.replace("total += 3;", "total += 30;")
    rb.write("src/R.java", src)
    c5 = rb.commit("c5 edit bar")
    rb.tag("r2")
    with GitRepo(rb.root) as repo:
        pair = repo.release_pairs("r*")[0]
        scan = HistoryScanner(repo).change_histories(pair.commits)
    foo = ModuleId("method", "src/R.java", "R", "foo", ("int",))
    bar = ModuleId("method", "src/R.java", "R", "bar", ("int",))
    old = scan.histories[foo]
    assert old.birth_commit == pair.r_commit
    assert [e.commit for e in old.events] == [c2, c3, c5]
    assert scan.end_defs[foo].id == bar
    assert scan.end_histories[bar] is old
    new = scan.end_histories[foo]
    assert new.birth_commit == c4
    assert new.events == []


def test_co_changed_counts_the_modules_of_the_kind_whose_body_changed_in_the_commit(tmp_path):
    rb = RepoBuilder(tmp_path / "co")
    source = (
        "public class A {{\n    int f() {{\n        return {};\n    }}\n"
        "    int g() {{\n        return {};\n    }}\n}}\n"
    )
    rb.write("src/A.java", source.format(1, 1))
    rb.commit("c1")
    rb.write("src/A.java", source.format(2, 2))
    both = rb.commit("c2 edit f() and g()")
    rb.write("src/A.java", source.format(3, 2))
    alone = rb.commit("c3 edit f() alone")
    with GitRepo(rb.root) as repo:
        scan = HistoryScanner(repo).change_histories(repo.first_parent_chain(alone)[::-1])
    events = {str(m): [(e.commit, e.co_changed) for e in h.events] for m, h in scan.histories.items()}
    assert events == {
        "class:src/A.java:A": [(both, 1), (alone, 1)],
        "method:src/A.java:A#f()": [(both, 2), (alone, 1)],
        "method:src/A.java:A#g()": [(both, 2)],
    }


def test_end_histories_are_keyed_by_the_modules_of_the_last_commit(fixture_repo):
    # every blob of the fixture parses, so the scanner's file map ends as the last commit's listing
    with GitRepo(fixture_repo.root) as repo:
        chain = repo.first_parent_chain("HEAD")[::-1]
        scanner = HistoryScanner(repo)
        scan = scanner.change_histories(chain)
        assert len(chain) > 20
        assert set(scan.end_histories) == set(scanner.snapshot_modules(chain[-1], repo.source_files(chain[-1])))


def test_a_scan_that_continues_a_prior_one_is_one_walk(fixture_repo):
    with GitRepo(fixture_repo.root) as repo:
        first, second = repo.release_pairs("v*")
        scanner = HistoryScanner(repo)
        prior = scanner.change_histories(first.commits)
        with pytest.raises(ValueError, match="the prior scan ends at"):
            scanner.change_histories(second.commits[1:], prior)
        continued = scanner.change_histories(second.commits, prior)
        whole = scanner.change_histories(first.commits + second.commits[1:])
        fresh = scanner.change_histories(second.commits)
    assert continued.chain == whole.commits == whole.chain
    assert continued.end_histories == whole.end_histories
    assert continued.files == whole.files
    # this range's own events, snapshots and defs are those of a fresh scan of it
    assert (continued.histories, continued.start_defs, continued.end_defs) == (
        fresh.histories, fresh.start_defs, fresh.end_defs)


def test_a_blob_that_does_not_parse_keeps_its_files_last_parsed_modules(tmp_path, caplog):
    # c3 does not parse and c4 restores the text of c2: f() changed at c2 and c5 only, and lives on
    rb = RepoBuilder(tmp_path / "broken")
    source = "public class A {{\n    int f() {{\n        return {};\n    }}\n}}\n"
    rb.write("src/A.java", source.format(1))
    rb.commit("c1")
    rb.tag("r1")
    rb.write("src/A.java", source.format(2))
    c2 = rb.commit("c2 edit f()")
    rb.write("src/A.java", "public class A {\n    int f() {\n")
    rb.commit("c3 does not parse")
    rb.write("src/A.java", source.format(2))
    rb.commit("c4 restore c2")
    rb.write("src/A.java", source.format(3))
    c5 = rb.commit("c5 edit f()")
    rb.tag("r2")
    with caplog.at_level(logging.WARNING, logger="granite.javaparse"), GitRepo(rb.root) as repo:
        scan = HistoryScanner(repo).change_histories(repo.release_pairs("r*")[0].commits)
    for module in (ModuleId("class", "src/A.java", "A"), ModuleId("method", "src/A.java", "A", "f", ())):
        assert [e.commit for e in scan.histories[module].events] == [c2, c5]
        assert module in scan.end_defs
        sizes = change_sizes(scan, module)
        assert (sizes.delta_release, sizes.delta_commit) == (2, 4)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and warnings[0].startswith("src/A.java@") and "parse failed" in warnings[0]


def test_commit_step_matches_only_the_files_whose_blob_changed(tmp_path, monkeypatch):
    rb = RepoBuilder(tmp_path / "step")
    a_src = "public class A {\n    int f() {\n        return 1;\n    }\n}\n"
    rb.write("src/A.java", a_src)
    rb.write("src/B.java", "public class B {\n    void g() {\n    }\n}\n")
    rb.commit("c1")
    rb.tag("s1")
    rb.write("src/A.java", a_src.replace("return 1;", "return 2;"))
    rb.commit("c2 edit A only")
    rb.tag("s2")

    calls = []

    def recording_match(prev, cur):
        calls.append(({d.id for d in prev}, {d.id for d in cur}))
        return match_renames(prev, cur)

    # `from x import f` copies the binding, so replace it in every granite module
    for name, module in list(sys.modules.items()):
        if name == "granite" or name.startswith("granite."):
            for attr, value in list(vars(module).items()):
                if value is match_renames:
                    monkeypatch.setattr(module, attr, recording_match)
    with GitRepo(rb.root) as repo:
        pair = repo.release_pairs("s*")[0]
        scan = HistoryScanner(repo).change_histories(pair.commits)
    a_ids = {m for m in scan.start_defs if m.file_path == "src/A.java"}
    b_ids = {m for m in scan.start_defs if m.file_path == "src/B.java"}
    assert len(a_ids) == 2 and len(b_ids) == 2
    assert calls == [(a_ids, a_ids)]
    f = next(m for m in a_ids if m.method_name == "f")
    assert [e.churn for e in scan.histories[f].events] == [2]
    for m in b_ids:
        assert scan.end_histories[m] is scan.histories[m]
        assert scan.histories[m].events == []


def test_paths_with_non_ascii_tab_and_space_are_read_verbatim(tmp_path):
    rb = RepoBuilder(tmp_path / "paths")
    paths = ["src/\u00c9.java", "src/tab\tx.java", "src/with space.java"]
    for i, path in enumerate(paths):
        rb.write(path, f"public class C{i} {{\n    int f() {{\n        return 1;\n    }}\n}}\n")
    rb.commit("c1")
    rb.tag("p1")
    for i, path in enumerate(paths):
        rb.write(path, f"public class C{i} {{\n    int f() {{\n        return 2;\n    }}\n}}\n")
    rb.commit("c2 edit every method")
    rb.tag("p2")
    with GitRepo(rb.root) as repo:
        pair = repo.release_pairs("p*")[0]
        assert sorted(repo.source_files(pair.r_commit)) == sorted(paths)
        scan = HistoryScanner(repo).change_histories(pair.commits)
    methods = {m.file_path: scan.histories[m] for m in scan.start_defs if m.kind == "method"}
    assert sorted(methods) == sorted(paths)
    for history in methods.values():
        assert [e.commit for e in history.events] == [pair.rprime_commit]


def test_paths_that_are_not_utf8_are_skipped_with_one_warning_each(tmp_path, caplog):
    # Decoding with replacement would turn both names into "\ufffd.java" and drop one class silently.
    rb = RepoBuilder(tmp_path / "bytes")
    rb.write("README.md", "readme\n")
    rb.commit("c0")
    classes = {b"\xff.java": "A", b"\xfe.java": "B", b"Ok.java": "C"}
    for value in (1, 2):
        for raw, name in classes.items():
            rb.write(os.fsdecode(raw), f"public class {name} {{\n    int f() {{\n        return {value};\n    }}\n}}\n")
        head = rb.commit(f"set every f() to {value}")
    with caplog.at_level(logging.WARNING, logger="granite.gitrepo"), GitRepo(rb.root) as repo:
        chain = repo.first_parent_chain(head)[::-1]
        steps = repo.first_parent_changes(chain)
        listed = repo.source_files(head)
        scan = HistoryScanner(repo).change_histories(chain)
    assert [sorted(step) for step in steps] == [["Ok.java"], ["Ok.java"]]
    assert sorted(listed) == ["Ok.java"]
    assert scan.histories == {}  # no .java file at c0
    assert {m.file_path for m in scan.end_histories} == {"Ok.java"}
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert sorted(warnings) == [
        f"{rb.root}: skipping path {raw!r}: not valid UTF-8" for raw in (b"\xfe.java", b"\xff.java")
    ]


def test_a_blob_that_is_not_utf8_is_read_with_replacement_and_one_warning(tmp_path, caplog):
    # Latin-1 "\u00e9" and "\u00ef" are no UTF-8; each reads as U+FFFD, which no name holds, so the names are cut
    rb = RepoBuilder(tmp_path / "latin1")
    rb.write("Ok.java", "class Ok {\n    void f() {}\n}\n")
    rb.commit("c1")
    rb.write_bytes("Cafe.java", "class Caf\u00e9 {\n    void na\u00efve() {}\n}\n".encode("latin-1"))
    rb.commit("c2 add a Latin-1 file")
    rb.write("Ok.java", "class Ok {\n    void g() {}\n}\n")
    head = rb.commit("c3 edit Ok.java only")
    with caplog.at_level(logging.WARNING, logger="granite.gitrepo"), GitRepo(rb.root) as repo:
        scan = HistoryScanner(repo).change_histories(repo.first_parent_chain(head)[::-1])
        sha = repo.source_files(head)["Cafe.java"]
    assert sorted(str(m) for m in scan.end_histories if m.file_path == "Cafe.java") == [
        "class:Cafe.java:Caf", "method:Cafe.java:Caf#ve()"]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        f"{rb.root}: blob {sha} is not valid UTF-8 (invalid continuation byte at byte 9); "
        "reading it with replacement characters"
    ]


def test_a_scan_keeps_one_string_per_distinct_line(tmp_path):
    rb = RepoBuilder(tmp_path / "lines")
    source = java(
        """\
        public class A {
            int f() {
                return 1;
            }

            int g() {
                return 0;
            }
        }
        """
    )
    rb.write("src/A.java", source)
    rb.commit("c1")
    rb.tag("l1")
    rb.write("src/A.java", source.replace("return 1;", "return 2;"))
    rb.commit("c2 edit one line")
    rb.tag("l2")
    with GitRepo(rb.root) as repo:
        scan = HistoryScanner(repo).change_histories(repo.release_pairs("l*")[0].commits)
    assert len(scan.start_defs) == 3
    for module, before in scan.start_defs.items():
        after = scan.end_defs[module].body
        assert len(after) == len(before.body)
        unchanged = [(x, y) for x, y in zip(before.body, after) if x == y]
        assert unchanged and all(x is y for x, y in unchanged), module


def test_a_scan_keeps_one_copy_of_each_distinct_module_id_and_body(tmp_path):
    rb = RepoBuilder(tmp_path / "shared")
    source = java(
        """\
        public class A {
            int f() {
                return 1;
            }

            int g() {
                return 0;
            }
        }
        """
    )
    rb.write("src/A.java", source)
    rb.write("src/B.java", source.replace("class A", "class B"))
    rb.commit("c1")
    rb.tag("s1")
    rb.write("src/A.java", source.replace("return 1;", "return 2;"))
    rb.commit("c2 edit f")
    rb.tag("s2")
    with GitRepo(rb.root) as repo:
        scan = HistoryScanner(repo).change_histories(repo.release_pairs("s*")[0].commits)
    a_g, b_g = (ModuleId("method", f"src/{c}.java", c, "g", ()) for c in "AB")
    before, after = scan.start_defs[a_g], scan.end_defs[a_g]
    assert after.id == before.id and after.id is before.id  # two blobs of A.java, one id
    assert after.body == before.body and after.body is before.body
    assert scan.start_defs[b_g].body is before.body  # two files, one body
    assert scan.end_defs[ModuleId("method", "src/A.java", "A", "f", ())].body != before.body


class _CountingSubprocess:
    """Stands in for the `subprocess` module inside granite.gitrepo and counts spawns."""

    def __init__(self, real):
        self.real = real
        self.spawns = 0

    def __getattr__(self, name):
        return getattr(self.real, name)

    def run(self, *args, **kwargs):
        self.spawns += 1
        return self.real.run(*args, **kwargs)

    def Popen(self, *args, **kwargs):  # noqa: N802  (mirrors subprocess.Popen)
        self.spawns += 1
        return self.real.Popen(*args, **kwargs)


def test_git_spawns_do_not_grow_with_the_commit_count(tmp_path, monkeypatch):
    rb = RepoBuilder(tmp_path / "spawns")
    commits = []
    for i in range(12):
        rb.write("src/A.java", f"public class A {{\n    int f() {{\n        return {i};\n    }}\n}}\n")
        rb.write(f"src/B{i}.java", f"public class B{i} {{\n}}\n")
        commits.append(rb.commit(f"c{i}"))
    counter = _CountingSubprocess(gitrepo.subprocess)
    monkeypatch.setattr(gitrepo, "subprocess", counter)
    spawns = {}
    for n in (3, 12):
        with GitRepo(rb.root) as repo:
            counter.spawns = 0
            scan = HistoryScanner(repo).change_histories(commits[:n])
            spawns[n] = counter.spawns
        f = next(m for m in scan.histories if m.method_name == "f")
        assert len(scan.histories[f].events) == n - 1
    # one file listing, one log over the range and one `cat-file --batch`
    assert spawns[3] == spawns[12] <= 3


# -- blobs derived from their parent's parse --------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module_fields(defs):
    return [(d.id, d.span, d.body, d.decl and asdict(d.decl)) for d in defs]


def _bench_run_module():
    """perfbench/run.py, for its workload shapes and its synthrepo; the sys.path entry it adds is taken back."""
    if "perfbench_run" not in sys.modules:
        saved = list(sys.path)
        try:
            spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
            module = sys.modules["perfbench_run"] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
            spec.loader.exec_module(module)
        finally:
            sys.path[:] = saved
    return sys.modules["perfbench_run"]


@pytest.mark.parametrize("workload", ["run-wide", "run-long", "mine-history"])
def test_derived_modules_equal_a_full_parse_on_every_changed_blob_of_the_bench_repositories(workload, tmp_path):
    bench = _bench_run_module()
    bench.synthrepo.build(tmp_path / "repo", bench.WORKLOADS[workload].full, 1)
    derived = 0
    with GitRepo(tmp_path / "repo") as repo:
        commits = repo.first_parent_chain("HEAD")[::-1]
        parents = {}  # path -> (lines, modules) of its current blob
        for path, sha in repo.source_files(commits[0]).items():
            lines = repo.blob_lines(sha)
            parents[path] = (lines, extract_modules(FileSnapshot(path, lines, commits[0])))
        for commit, changed in zip(commits[1:], repo.first_parent_changes(commits)):
            for path, sha in changed.items():
                base = parents.pop(path, None)
                if sha is None:
                    continue
                snapshot = FileSnapshot(path, repo.blob_lines(sha), commit)
                full = extract_modules(snapshot)
                made = derive_modules(base[1], base[0], snapshot) if base else None
                if made is not None:
                    derived += 1
                    assert _module_fields(made) == _module_fields(full), (path, commit)
                parents[path] = (snapshot.lines, full)
    assert derived


@st.composite
def _shapes(draw):
    """Small synthrepo shapes, with rename and move rates from 0."""
    ints = {"classes": (2, 8), "methods": (1, 5), "fanout": (1, 3), "commits": (4, 40), "tags": (2, 4),
            "ops_per_commit": (1, 3), "authors": (1, 3)}
    fields = {name: draw(st.integers(*bounds)) for name, bounds in ints.items()}
    rates = {"rename_rate": draw(st.floats(0, 0.6)), "move_rate": draw(st.floats(0, 0.3))}
    return _bench_run_module().synthrepo.Shape(**fields, **rates)


@settings(max_examples=max(10, settings().max_examples // 2), deadline=None)
@given(_shapes(), st.integers(0, 2**16))
def test_mine_reports_what_the_synthetic_repositorys_ledger_records(shape, seed):
    # the pipeline-level oracle of tracking: every edit, rename and move the generator made, per release pair
    bench = _bench_run_module()
    with tempfile.TemporaryDirectory() as tmp:
        root, out = Path(tmp) / "repo", Path(tmp) / "mined.csv"
        ledger = bench.synthrepo.build(root, shape, seed)
        with GitRepo(root) as repo:
            pairs = [p.label for p in repo.release_pairs(bench.synthrepo.TAG_GLOB)]
        assert main(["mine", str(root), "--tags", bench.synthrepo.TAG_GLOB, "--out", str(out)]) == 0
        units, failed, _ = bench.check.check_mine(out, ledger, pairs)
    assert units and not failed


# Each member of a file is [kind, method name, body statements]; the kinds put the body's '{' on the
# header's line, on a line of its own (Allman), after a header of two lines, and in a nested type.
_KINDS = ("same", "allman", "multi", "nested")
_STATEMENTS = (
    "x = 1;", "y();", "int z = a + 2;", "if (a > 0) {", "}", "} else {", "{ b(); }",
    's = "}";', "c = '{';", "// }", "/* { */", "/*", "*/", 's = "q\\',  # the last ends in a backslash
)
_EDITS = st.one_of(
    st.tuples(st.sampled_from(["edit", "insert"]), st.integers(0, 3), st.integers(0, 5), st.sampled_from(_STATEMENTS)),
    st.tuples(st.just("delete"), st.integers(0, 3), st.integers(0, 5)),
    st.tuples(st.just("rename"), st.integers(0, 3), st.sampled_from(["f", "g", "renamed"])),
    st.just(("break",)),  # this commit's blob of the file does not parse
    st.just(("move",)),
)


def _render(cls, members):
    lines = [f"public class {cls} {{", "    private int x;", ""]
    for kind, name, body in members:
        heads = {
            "same": [f"    int {name}() {{"],
            "allman": [f"    void {name}(int a)", "    {"],
            "multi": [f"    public int {name}(int a,", "            int b) {"],
            "nested": ["    static class N {", f"        void {name}() {{"],
        }
        pad = " " * (12 if kind == "nested" else 8)
        lines += heads[kind] + [pad + s for s in body] + (["        }", "    }"] if kind == "nested" else ["    }"])
        lines.append("")
    return "\n".join(lines + ["}", ""])


def _commit_history(rb, steps):
    """Two files, then one commit per (file, edit) step; oldest first."""
    files = [
        [f"src/{cls}.java", cls, [[kind, f"m{k}", ["x = 1;", "y();"]] for k, kind in enumerate(_KINDS)]]
        for cls in ("A", "B")
    ]
    for path, cls, members in files:
        rb.write(path, _render(cls, members))
    commits = [rb.commit("c0")]
    for which, (op, *args) in steps:
        path, cls, members = files[which]
        text = None
        if op == "move":
            (rb.root / path).unlink()
            path = files[which][0] = f"src/{cls}.java" if "moved" in path else f"src/moved/{cls}.java"
        elif op == "break":
            text = _render(cls, members).rstrip().rstrip("}")
        elif op == "rename":
            members[args[0]][1] = args[1]
        else:
            body = members[args[0]][2]
            if op == "insert":
                body.insert(args[1] % (len(body) + 1), args[2])
            elif body and op == "edit":
                body[args[1] % len(body)] = args[2]
            elif body:
                del body[args[1] % len(body)]
        rb.write(path, text or _render(cls, members))
        commits.append(rb.commit(f"c{len(commits)}"))
    return commits


def _scan_fields(scan):
    return (
        scan.commits, scan.histories, scan.end_histories, scan.files,
        {k: _module_fields([d]) for k, d in scan.start_defs.items()},
        {k: _module_fields([d]) for k, d in scan.end_defs.items()},
    )


@settings(max_examples=max(10, settings().max_examples // 4), deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), _EDITS), min_size=1, max_size=6))
@example([(0, ("edit", 0, 0, 's = "q\\')), (0, ("edit", 0, 1, "}")), (0, ("insert", 0, 1, "y();"))])
@example([(0, ("insert", 1, 0, "/*")), (0, ("insert", 0, 0, "y();"))])
@example([(0, ("edit", 0, 0, "} else {")), (1, ("insert", 2, 1, "if (a > 0) {"))])
@example([(0, ("rename", 1, "renamed")), (0, ("rename", 3, "f")), (1, ("delete", 3, 0))])
@example([(0, ("break",)), (0, ("insert", 2, 1, "y();")), (0, ("move",)), (0, ("edit", 0, 0, "y();"))])
def test_a_scan_that_derives_blobs_equals_one_that_parses_every_blob(steps):
    with tempfile.TemporaryDirectory() as tmp:
        rb = RepoBuilder(Path(tmp) / "repo")
        commits = _commit_history(rb, steps)
        with GitRepo(rb.root) as repo:
            derived = HistoryScanner(repo).change_histories(commits)
            with mock.patch.object(tracking, "derive_modules", lambda *args: None):
                parsed = HistoryScanner(repo).change_histories(commits)
    assert _scan_fields(derived) == _scan_fields(parsed)


_DUPLICATED = {
    "duplicate method": "    int f() {{\n        return {};\n    }}\n\n    int f() {{\n        return 0;\n    }}\n",
    "dropping type": "    int f() {{\n        return {};\n    }}\n\n    class N {{\n    }}\n\n    class N {{\n    }}\n",
}


@pytest.mark.parametrize("warning", sorted(_DUPLICATED))
def test_a_body_edit_in_a_file_that_drops_a_declaration_warns_again(tmp_path, caplog, warning):
    rb = RepoBuilder(tmp_path / "dup")
    source = "public class A {{\n" + _DUPLICATED[warning] + "}}\n"
    rb.write("src/A.java", source.format(1))
    c1 = rb.commit("c1")
    rb.write("src/A.java", source.format(2))
    c2 = rb.commit("c2 edit the first f()")
    with caplog.at_level(logging.WARNING, logger="granite.javaparse"), GitRepo(rb.root) as repo:
        scan = HistoryScanner(repo).change_histories([c1, c2])
    # the second blob is parsed in full, not derived from the first, so its warning is logged too
    assert sum(warning in r.getMessage() for r in caplog.records) == 2
    f = ModuleId("method", "src/A.java", "A", "f", ())
    assert [e.commit for e in scan.histories[f].events] == [c2]


def test_a_body_edit_after_a_blob_that_does_not_parse_is_derived_from_the_last_that_did(tmp_path, caplog):
    rb = RepoBuilder(tmp_path / "after")
    source = "public class A {{\n    int f() {{\n        return {};\n    }}\n}}\n"
    rb.write("src/A.java", source.format(1))
    c1 = rb.commit("c1")
    rb.write("src/A.java", "public class A {\n    int f() {\n")
    c2 = rb.commit("c2 does not parse")
    rb.write("src/A.java", source.format("1 + 1"))
    c3 = rb.commit("c3 edit f()")
    made = []

    def recording_derive(*args):
        defs = derive_modules(*args)
        made.append(defs is not None)
        return defs

    with caplog.at_level(logging.WARNING, logger="granite.javaparse"), GitRepo(rb.root) as repo, \
            mock.patch.object(tracking, "derive_modules", recording_derive):
        scan = HistoryScanner(repo).change_histories([c1, c2, c3])
        full = extract_modules(repo.snapshot(c3, "src/A.java"))
    assert made == [False, True]  # c2 is parsed, and fails; c3 is derived from c1
    assert _module_fields(scan.end_defs.values()) == _module_fields(full)
    assert ["parse failed" in r.getMessage() for r in caplog.records] == [True]
