import logging
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from granite.gitrepo import FileSnapshot, GitRepo, RepositoryError, _lines, _source_lines, resolve_release_pairs
from granite.javaparse import extract_modules

from repobuilder import RepoBuilder


@pytest.fixture()
def linear_repo(tmp_path):
    rb = RepoBuilder(tmp_path / "linear")
    rb.write("a.txt", "one\ntwo\n")
    rb.commit("c1")
    rb.tag("1.0")
    rb.write("a.txt", "one\ntwo\nthree\n")
    rb.commit("c2")
    rb.write("b.java", "class B {}\n")
    rb.commit("c3")
    rb.tag("1.1")
    rb.write("a.txt", "one\n")
    rb.commit("c4")
    rb.tag("2.0")
    return rb


def test_consecutive_tags_pair_up(linear_repo):
    pairs = resolve_release_pairs(linear_repo.root, "*")
    assert [(p.r_tag, p.rprime_tag) for p in pairs] == [("1.0", "1.1"), ("1.1", "2.0")]


def test_single_tag_yields_no_pairs(tmp_path):
    rb = RepoBuilder(tmp_path / "one")
    rb.write("x.txt", "x\n")
    rb.commit("only")
    rb.tag("1.0")
    assert resolve_release_pairs(rb.root, "*") == []


def test_tag_filter_glob(linear_repo):
    pairs = resolve_release_pairs(linear_repo.root, "1.*")
    assert [(p.r_tag, p.rprime_tag) for p in pairs] == [("1.0", "1.1")]


def test_unreadable_repository_is_fatal(tmp_path):
    plain = tmp_path / "notarepo"
    plain.mkdir()
    with pytest.raises(RepositoryError):
        GitRepo(plain)


def test_linearize_includes_endpoints_in_order(linear_repo):
    pairs = resolve_release_pairs(linear_repo.root, "*")
    first = pairs[0]
    commits = first.commits
    assert len(commits) == 3  # tag commit, c2, c3
    assert commits[0] == first.r_commit
    assert commits[-1] == first.rprime_commit
    with GitRepo(linear_repo.root) as repo:
        # each adjacent pair is child/first-parent
        for parent, child in zip(commits, commits[1:]):
            out = repo._run("rev-parse", f"{child}^1").strip()
            assert out == parent


def test_degenerate_pair_same_commit(tmp_path):
    rb = RepoBuilder(tmp_path / "same")
    rb.write("x.txt", "x\n")
    head = rb.commit("only")
    rb.tag("1.0")
    rb.tag("1.1")
    pairs = resolve_release_pairs(rb.root, "*")
    assert len(pairs) == 1
    assert pairs[0].commits == (head,)


def test_linearize_follows_first_parent_across_merge(tmp_path):
    rb = RepoBuilder(tmp_path / "merge")
    rb.write("f.txt", "base\n")
    a = rb.commit("A")
    rb.tag("r1")
    rb.write("f.txt", "base\nmain1\n")
    b = rb.commit("B")
    rb.branch("side", b)
    rb.checkout("side")
    rb.write("side.txt", "side work\n")
    d = rb.commit("D side")
    rb.checkout("main")
    rb.write("f.txt", "base\nmain1\nmain2\n")
    c = rb.commit("C")
    m = rb.merge("side", "M merge")
    rb.tag("r2")

    pairs = resolve_release_pairs(rb.root, "r*")
    assert len(pairs) == 1
    commits = list(pairs[0].commits)
    assert commits == [a, b, c, m]
    assert d not in commits


def test_release_pairs_read_only_the_commits_they_hold(tmp_path, monkeypatch):
    rb = RepoBuilder(tmp_path / "long")
    for i in range(8):  # history before the first release
        rb.write("f.txt", f"{i}\n")
        rb.commit(f"c{i}")
    for tag in ("t1", "t2", "t3"):
        for i in range(2):
            rb.write("f.txt", f"{tag} {i}\n")
            rb.commit(f"{tag} {i}")
        rb.tag(tag)
    listed = []
    run = GitRepo._run

    def listing_run(self, *args):
        out = run(self, *args)
        if args[0] != "for-each-ref":  # the tag listing names tags, not history
            listed.extend(line.split()[0] for line in _lines(out))
        return out

    with GitRepo(rb.root) as repo:
        monkeypatch.setattr(GitRepo, "_run", listing_run)
        pairs = repo.release_pairs("t*")
    assert [len(p.commits) for p in pairs] == [3, 3]
    assert len(listed) <= sum(len(p.commits) for p in pairs)


def test_disconnected_tags_skipped_with_warning(tmp_path, caplog):
    rb = RepoBuilder(tmp_path / "branchy")
    rb.write("f.txt", "base\n")
    rb.commit("A")
    rb.tag("t1")
    rb.branch("rel", "HEAD")
    rb.checkout("rel")
    rb.write("f.txt", "rel\n")
    rb.commit("R")
    rb.tag("t2")  # t2 lives on a side branch
    rb.checkout("main")
    rb.write("f.txt", "main\n")
    rb.commit("B")
    rb.tag("t3")  # t3 is not a first-parent descendant of t2
    with caplog.at_level(logging.WARNING, logger="granite.gitrepo"):
        pairs = resolve_release_pairs(rb.root, "t*")
    labels = [p.label for p in pairs]
    assert "t1..t2" in labels
    assert "t2..t3" not in labels
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any(w.startswith("skipping release pair t2..t3: ") for w in warnings)


def test_file_churn_and_blob_reads(linear_repo):
    with GitRepo(linear_repo.root) as repo:
        pairs = repo.release_pairs("*")
        c_10 = pairs[0].r_commit
        c_11 = pairs[0].rprime_commit
        c_20 = pairs[1].rprime_commit
        assert repo.diff_churn("a.txt", "a.txt", c_10, c_10) == 0
        assert repo.diff_churn("a.txt", "a.txt", c_10, c_11) == 1  # one line added
        assert repo.diff_churn("a.txt", "a.txt", c_11, c_20) == 2  # two lines deleted
        # absent blob reads as empty on either side
        assert repo.diff_churn("b.java", "b.java", c_10, c_11) == 1
        assert repo.file_lines(c_10, "missing.txt") == ()


def test_close_ends_the_blob_reader_and_closes_its_pipes(linear_repo):
    with GitRepo(linear_repo.root) as repo:
        head = repo.release_pairs("*")[-1].rprime_commit
        assert repo.file_lines(head, "b.java")  # starts the cat-file child
        exited = repo._batch
        exited.kill()
        exited.wait()
        assert repo.file_lines(head, "b.java")  # replaces the child that exited
        assert exited.stdin.closed and exited.stdout.closed
        live = repo._batch
        assert live is not exited
    assert live.returncode is not None
    assert live.stdin.closed and live.stdout.closed
    repo.close()  # closing twice is harmless

    # a child that exits after the liveness check leaves a request unsent in the stdin buffer
    assert repo.file_lines(head, "b.java")
    dying = repo._batch
    dying.kill()
    dying.wait()
    with pytest.raises(BrokenPipeError):
        dying.stdin.write(b"HEAD\n")
        dying.stdin.flush()
    repo.close()
    assert dying.stdin.closed and dying.stdout.closed


def test_source_files_lists_java_only(linear_repo):
    with GitRepo(linear_repo.root) as repo:
        head = repo.release_pairs("*")[-1].rprime_commit
        files = repo.source_files(head)
        assert list(files) == ["b.java"]


def test_commit_meta_authors_and_times(tmp_path):
    rb = RepoBuilder(tmp_path / "meta")
    rb.write("x.txt", "1\n")
    c1 = rb.commit("c1", author="Alice Dev")
    rb.write("x.txt", "2\n")
    c2 = rb.commit("c2", author="Bob Dev")
    with GitRepo(rb.root) as repo:
        meta = repo.commit_meta([c1, c2])
        assert meta[c1].author == "Alice Dev"
        assert meta[c2].author == "Bob Dev"
        assert meta[c2].timestamp - meta[c1].timestamp == 3600


def test_release_pairs_deterministic(linear_repo):
    first = resolve_release_pairs(linear_repo.root, "*")
    second = resolve_release_pairs(linear_repo.root, "*")
    assert first == second


def test_annotated_tags_resolve_to_commits(tmp_path):
    rb = RepoBuilder(tmp_path / "annotated")
    rb.write("a.txt", "1\n")
    c1 = rb.commit("c1")
    rb.git("tag", "-a", "v1.0", "-m", "first release")
    rb.write("a.txt", "2\n")
    c2 = rb.commit("c2")
    rb.git("tag", "-a", "v2.0", "-m", "second release")
    pairs = resolve_release_pairs(rb.root, "v*")
    assert len(pairs) == 1
    assert pairs[0].r_commit == c1
    assert pairs[0].rprime_commit == c2
    assert pairs[0].commits == (c1, c2)


def test_tags_on_non_commits_are_skipped_with_a_warning(tmp_path, caplog):
    rb = RepoBuilder(tmp_path / "odd-tags")
    rb.write("a.txt", "1\n")
    c1 = rb.commit("c1")
    rb.git("tag", "-a", "v1", "-m", "first release")
    rb.write("a.txt", "2\n")
    c2 = rb.commit("c2")
    rb.tag("v2")
    tree = rb.git("rev-parse", "HEAD^{tree}").strip()
    blob = rb.git("rev-parse", "HEAD:a.txt").strip()
    annotated = rb.git("rev-parse", "v1").strip()
    rb.git("tag", "v-tree", tree)
    rb.git("tag", "v-blob", blob)
    rb.git("tag", "-a", "v-nested", "-m", "n", annotated)
    with caplog.at_level(logging.WARNING, logger="granite.gitrepo"):
        with GitRepo(rb.root) as repo:
            tags = repo.tags("v*")
    assert [(t.name, t.commit) for t in tags] == [("v1", c1), ("v2", c2)]
    assert tags[1].commit_time - tags[0].commit_time == 3600
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 3
    for name, kind, obj in [("v-tree", "tree", tree), ("v-blob", "blob", blob), ("v-nested", "tag", annotated)]:
        assert sum(f"skipping tag {name}:" in w and f"{kind} {obj}" in w for w in warnings) == 1


def _java_listing(rb, commit):
    """A commit's .java files as one full `ls-tree -r -z` listing gives them: path -> blob."""
    files = {}
    for entry in rb.git("ls-tree", "-r", "-z", commit).split("\0"):
        meta, _, path = entry.partition("\t")
        parts = meta.split()
        if len(parts) == 3 and parts[1] == "blob" and path.endswith(".java"):
            files[path] = parts[2]
    return files


def test_first_parent_changes_equal_the_difference_of_two_listings(tmp_path):
    """On every first-parent step the raw-log reader agrees with comparing two full listings."""
    rb = RepoBuilder(tmp_path / "steps")
    for name in ("A", "B", "C", "F"):
        rb.write(f"{name}.java", f"class {name} {{}}\n")
    rb.write("T.java", "X.java")  # the blob a symlink to X.java holds
    root = rb.commit("c1")
    rb.branch("side", root)
    rb.checkout("side")
    rb.write("A.java", "class A { int side; }\n")
    side = rb.commit("side edits A")
    rb.checkout("main")
    rb.write("B.java", "class B { int main; }\n")
    rb.commit("main edits B")
    rb.merge("side", "merge side")
    rb.git("mv", "C.java", "C2.java")
    rb.remove("B.java")
    rb.commit("move C, delete B")
    os.chmod(rb.root / "A.java", 0o755)
    chmod = rb.commit("chmod +x A")
    (rb.root / "F.java").unlink()
    os.symlink("A.java", rb.root / "F.java")
    rb.commit("F becomes a symlink")
    (rb.root / "T.java").unlink()
    os.symlink("X.java", rb.root / "T.java")
    retype = rb.commit("T becomes a symlink to its own text")
    os.symlink("C2.java", rb.root / "L.java")
    rb.commit("add the symlink L.java")
    (rb.root / "sub.java").mkdir()  # an unpopulated submodule: `git add -A` keeps the gitlink
    rb.git("update-index", "--add", "--cacheinfo", f"160000,{root},sub.java")
    gitlink = rb.commit("add the gitlink sub.java")
    rb.git("update-index", "--cacheinfo", f"160000,{side},sub.java")
    regitlink = rb.commit("move the gitlink")
    head = rb.head()
    assert rb.git("ls-tree", chmod, "A.java").startswith("100755 blob")
    assert rb.git("ls-tree", retype, "T.java").startswith("120000 blob")
    assert rb.git("ls-tree", head, "sub.java").startswith("160000 commit")

    with GitRepo(rb.root) as repo:
        chain = list(reversed(repo.first_parent_chain(head)))
        steps = repo.first_parent_changes(chain)
        assert side not in chain and len(steps) == len(chain) - 1 == 9
        for a, b, step in zip(chain, chain[1:], steps):
            old, new = _java_listing(rb, a), _java_listing(rb, b)
            assert step == {p: new.get(p) for p in old.keys() | new.keys() if old.get(p) != new.get(p)}
        by_commit = dict(zip(chain[1:], steps))
        assert by_commit[chmod] == by_commit[retype] == by_commit[gitlink] == by_commit[regitlink] == {}
        assert set(repo.source_files(head)) == {"A.java", "C2.java", "F.java", "L.java", "T.java"}
        with pytest.raises(RepositoryError):
            repo.first_parent_changes([chain[0], chain[2]])


@pytest.mark.parametrize(
    "source, spans",
    [
        ("class B {\n    void f() {} // page\f break; void g() {\n    void h() {}\n}\n",
         {"class:B.java:B": (1, 4), "method:B.java:B#f()": (2, 2), "method:B.java:B#h()": (3, 3)}),
        ('class B {\n    String s = "a\u2028b";\n    void m() {}\n}\n',
         {"class:B.java:B": (1, 4), "method:B.java:B#m()": (3, 3)}),
        ("class B {\r\n    void f() {}\r    void h() {}\r\n}\r\n",
         {"class:B.java:B": (1, 4), "method:B.java:B#f()": (2, 2), "method:B.java:B#h()": (3, 3)}),
    ],
    ids=["form-feed-in-comment", "line-separator-in-string", "cr-and-crlf"],
)
def test_blob_lines_end_where_java_ends_them(tmp_path, source, spans):
    rb = RepoBuilder(tmp_path / "r")
    rb.write("B.java", source)
    head = rb.commit("c1")
    with GitRepo(rb.root) as repo:
        sha = repo.source_files(head)["B.java"]
        lines = repo.blob_lines(sha)
    assert len(lines) == 4
    assert {str(d.id): d.span for d in extract_modules(FileSnapshot("B.java", lines, sha))} == spans


def test_commit_meta_reads_an_author_name_with_a_line_separator(tmp_path):
    rb = RepoBuilder(tmp_path / "r")
    rb.write("A.java", "class A {}\n")
    sha = rb.commit("c1", author="Ann\u2028Lee")
    with GitRepo(rb.root) as repo:
        assert repo.commit_meta([sha])[sha].author == "Ann\u2028Lee"


# the line breaks of str.splitlines that are no line breaks in Java or in git's output
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@given(st.text(st.sampled_from("\r\n a") | st.characters(blacklist_characters=_OTHER_BREAKS)))
def test_lines_split_like_splitlines_without_other_breaks(text):
    assert _source_lines(text) == tuple(text.splitlines())
    if "\r" not in text:
        assert _lines(text) == text.splitlines()
