import pytest

from granite.gitrepo import GitRepo, RepositoryError, resolve_release_pairs

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
    pairs = resolve_release_pairs(rb.root, "t*")
    labels = [p.label for p in pairs]
    assert "t1..t2" in labels
    assert "t2..t3" not in labels


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
