import logging
import os
import sys
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from granite import gitrepo
from granite.gitrepo import GitRepo
from granite.javaparse import ModuleDef, ModuleId
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
    new = next(m for m in scan.histories if m.qualified_class == "New" and m.kind == "class")
    assert scan.histories[new].birth_commit == c2
    assert new in scan.end_defs


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
    assert {m.file_path for m in scan.histories} == {"Ok.java"}
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert sorted(warnings) == [
        f"{rb.root}: skipping path {raw!r}: not valid UTF-8" for raw in (b"\xfe.java", b"\xff.java")
    ]


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
