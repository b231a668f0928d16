"""Read-only access to a local Git repository.

Resolves release pairs from tags, walks first-parent commit chains, lists and
reads blobs, and computes file-level line churn between commits.  All access
goes through the git command line; nothing is ever written to the repository.
"""

from __future__ import annotations

import fnmatch
import logging
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from granite.textdiff import line_churn

log = logging.getLogger(__name__)

CommitId = str  # 40-hex object name


class RepositoryError(RuntimeError):
    """Raised when the repository is unreadable or a revision cannot be resolved."""


@dataclass(frozen=True)
class Tag:
    name: str
    commit: CommitId
    commit_time: int  # committer timestamp of the tagged commit


@dataclass(frozen=True)
class ReleasePair:
    """Two consecutive releases r and r' with the first-parent commits between them.

    commits[0] is the commit of r_tag, commits[-1] the commit of rprime_tag.
    """

    r_tag: str
    rprime_tag: str
    r_commit: CommitId
    rprime_commit: CommitId
    commits: Tuple[CommitId, ...]

    @property
    def label(self) -> str:
        return f"{self.r_tag}..{self.rprime_tag}"


@dataclass(frozen=True)
class CommitMeta:
    author: str
    timestamp: int  # committer time, seconds since epoch


@dataclass(frozen=True)
class FileSnapshot:
    path: str
    lines: Tuple[str, ...]
    commit: CommitId


class GitRepo:
    """Handle on an on-disk Git repository.

    A handle is single-threaded (it owns one `git cat-file --batch` child);
    open several handles for parallel read-only work on the same repository.
    """

    def __init__(self, path):
        self.path = Path(path)
        if not self.path.is_dir():
            raise RepositoryError(f"not a directory: {self.path}")
        try:
            self._run("rev-parse", "--git-dir")
        except RepositoryError as exc:
            raise RepositoryError(f"not a readable Git repository: {self.path}") from exc
        self._batch: Optional[subprocess.Popen] = None
        self._blob_cache: Dict[str, Tuple[str, ...]] = {}
        self._tree_cache: Dict[CommitId, Dict[str, str]] = {}
        self._meta_cache: Dict[CommitId, CommitMeta] = {}

    # -- plumbing ----------------------------------------------------------

    def _run(self, *args: str) -> str:
        proc = subprocess.run(
            ["git", "-C", str(self.path), *args],
            capture_output=True,
        )
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            raise RepositoryError(f"git {' '.join(args[:2])}... failed: {stderr}")
        return proc.stdout.decode("utf-8", "replace")

    def _batch_proc(self) -> subprocess.Popen:
        if self._batch is None or self._batch.poll() is not None:
            self._batch = subprocess.Popen(
                ["git", "-C", str(self.path), "cat-file", "--batch"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        return self._batch

    def close(self) -> None:
        if self._batch is not None and self._batch.poll() is None:
            self._batch.stdin.close()
            self._batch.wait(timeout=10)
        self._batch = None

    def __enter__(self) -> "GitRepo":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tags and release pairs --------------------------------------------

    def tags(self, pattern: str = "*") -> List[Tag]:
        """Tags matching the glob, sorted by committer date of the tagged commit."""
        out = self._run(
            "for-each-ref", "refs/tags",
            "--format=%(refname:short)%09%(objectname)%09%(*objectname)",
        )
        raw: List[Tuple[str, str]] = []
        for line in out.splitlines():
            if not line.strip():
                continue
            name, objname, peeled = (line.split("\t") + ["", ""])[:3]
            commit = peeled or objname  # annotated tags carry the commit in *objectname
            if fnmatch.fnmatchcase(name, pattern):
                raw.append((name, commit))
        if not raw:
            return []
        times = self._commit_times([c for _, c in raw])
        tags = [Tag(name, commit, times[commit]) for name, commit in raw if commit in times]
        tags.sort(key=lambda t: (t.commit_time, t.name))
        return tags

    def _commit_times(self, commits: Sequence[CommitId]) -> Dict[CommitId, int]:
        times: Dict[CommitId, int] = {}
        unique = list(dict.fromkeys(commits))
        for i in range(0, len(unique), 500):
            chunk = unique[i:i + 500]
            try:
                out = self._run("log", "--no-walk=unsorted", "--format=%H %ct", *chunk)
            except RepositoryError:
                # a tag may point at a non-commit object; resolve one by one
                out = ""
                for sha in chunk:
                    try:
                        out += self._run("log", "--no-walk=unsorted", "--format=%H %ct", sha)
                    except RepositoryError:
                        log.warning("%s: skipping unresolvable tag target %s", self.path, sha)
            for line in out.splitlines():
                sha, _, ts = line.partition(" ")
                if sha:
                    times[sha] = int(ts)
        return times

    def release_pairs(self, tag_filter: str = "*") -> List[ReleasePair]:
        """Consecutive date-ordered tag pairs with their linearized commit ranges.

        Pairs whose endpoints are not connected along first-parent history are
        skipped with a warning so one odd tag does not sink the whole repository.
        """
        tags = self.tags(tag_filter)
        if len(tags) < 2:
            log.warning("%s: fewer than 2 tags match %r; no release pairs", self.path, tag_filter)
            return []
        pairs: List[ReleasePair] = []
        for older, newer in zip(tags, tags[1:]):
            try:
                commits = self.linearize(older, newer)
            except RepositoryError as exc:
                log.warning("skipping release pair %s..%s: %s", older.name, newer.name, exc)
                continue
            pairs.append(
                ReleasePair(older.name, newer.name, older.commit, newer.commit, tuple(commits))
            )
        return pairs

    # -- history -----------------------------------------------------------

    def first_parent_chain(self, commit: CommitId) -> List[CommitId]:
        """commit and its first-parent ancestors, newest first."""
        out = self._run("rev-list", "--first-parent", commit)
        return out.split()

    def linearize(self, r: Tag, rprime: Tag) -> List[CommitId]:
        """First-parent path from r to r', oldest first, endpoints included."""
        if r.commit == rprime.commit:
            return [r.commit]
        chain = self.first_parent_chain(rprime.commit)
        try:
            idx = chain.index(r.commit)
        except ValueError:
            raise RepositoryError(
                f"{r.name} is not a first-parent ancestor of {rprime.name}"
            ) from None
        return list(reversed(chain[:idx + 1]))

    def commit_meta(self, commits: Sequence[CommitId]) -> Dict[CommitId, CommitMeta]:
        missing = [c for c in dict.fromkeys(commits) if c not in self._meta_cache]
        for i in range(0, len(missing), 500):
            chunk = missing[i:i + 500]
            out = self._run("log", "--no-walk=unsorted", "--format=%H%x09%an%x09%ct", *chunk)
            for line in out.splitlines():
                sha, author, ts = (line.split("\t") + ["", "0"])[:3]
                if sha:
                    self._meta_cache[sha] = CommitMeta(author, int(ts))
        return {c: self._meta_cache[c] for c in commits if c in self._meta_cache}

    # -- trees and blobs -----------------------------------------------------

    def source_files(self, commit: CommitId, suffix: str = ".java") -> Dict[str, str]:
        """path -> blob sha for files with the given suffix at a commit."""
        if commit not in self._tree_cache:
            out = self._run("ls-tree", "-r", commit)
            files: Dict[str, str] = {}
            for line in out.splitlines():
                # "<mode> <type> <sha>\t<path>"
                meta, _, path = line.partition("\t")
                parts = meta.split()
                if len(parts) == 3 and parts[1] == "blob":
                    files[path] = parts[2]
            self._tree_cache[commit] = files
        return {p: s for p, s in self._tree_cache[commit].items() if p.endswith(suffix)}

    def blob_lines(self, sha: str) -> Tuple[str, ...]:
        cached = self._blob_cache.get(sha)
        if cached is not None:
            return cached
        proc = self._batch_proc()
        proc.stdin.write((sha + "\n").encode())
        proc.stdin.flush()
        header = proc.stdout.readline().decode("utf-8", "replace").strip()
        if header.endswith("missing"):
            raise RepositoryError(f"object not found: {sha}")
        _, _, size = header.split()
        data = proc.stdout.read(int(size))
        proc.stdout.read(1)  # trailing newline after the object body
        lines = tuple(data.decode("utf-8", "replace").splitlines())
        self._blob_cache[sha] = lines
        return lines

    def file_lines(self, commit: CommitId, path: str) -> Tuple[str, ...]:
        """Lines of a file at a commit; an absent file reads as empty."""
        sha = self._tree_sha(commit, path)
        return self.blob_lines(sha) if sha else ()

    def _tree_sha(self, commit: CommitId, path: str) -> Optional[str]:
        if commit in self._tree_cache:
            return self._tree_cache[commit].get(path)
        out = self._run("ls-tree", commit, "--", path)
        for line in out.splitlines():
            meta, _, p = line.partition("\t")
            parts = meta.split()
            if len(parts) == 3 and parts[1] == "blob" and p == path:
                return parts[2]
        return None

    def snapshot(self, commit: CommitId, path: str) -> FileSnapshot:
        return FileSnapshot(path=path, lines=self.file_lines(commit, path), commit=commit)

    def diff_churn(self, path_old: str, path_new: str, c: CommitId, c_prime: CommitId) -> int:
        """Added + deleted lines between two blobs; an absent blob is empty."""
        return line_churn(self.file_lines(c, path_old), self.file_lines(c_prime, path_new))


def resolve_release_pairs(repo_path, tag_filter: str = "*") -> List[ReleasePair]:
    with GitRepo(repo_path) as repo:
        return repo.release_pairs(tag_filter)
