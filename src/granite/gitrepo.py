"""Read-only access to a local Git repository.

Resolves release pairs from tags, walks first-parent commit chains, lists and
reads blobs, and computes file-level line churn between commits.  All access
goes through the git command line; nothing is ever written to the repository.
"""

from __future__ import annotations

import contextlib
import fnmatch
import logging
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from granite.textdiff import line_churn

log = logging.getLogger(__name__)

CommitId = str  # 40-hex object name
_NO_FILE = ("000000", "160000")  # raw diff modes of an absent path and of a gitlink


def _lines(text: str) -> List[str]:
    """Split at '\n' only, as git ends its output lines; one empty last line is dropped, as str.splitlines does.

    str.splitlines also breaks at '\v', '\f', '\x1c'-'\x1e', '\x85', U+2028 and U+2029, which a name or a
    source line may hold.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _source_lines(text: str) -> Tuple[str, ...]:
    """A source file's lines as Java ends them (JLS 3.4): at '\n', '\r' or '\r\n' only."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return tuple(_lines(text))


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
    blob: str  # the sha of the blob the lines were read from


class GitRepo:
    """Handle on an on-disk Git repository.

    A handle is single-threaded (it owns one `git cat-file --batch` child);
    open several handles for parallel read-only work on the same repository.
    A commit's files come from one `ls-tree -r -z`, and what each commit of
    a first-parent chain changed from one `git log --raw -z` over the chain;
    paths are read verbatim, and a .java path that is not UTF-8 is skipped
    with one warning.  Only commit metadata is cached; a caller that reads a
    blob again keeps what it made of it.
    """

    def __init__(self, path):
        if not str(path):  # Path("") is the working directory
            raise RepositoryError("a repository path must not be empty")
        self.path = Path(path)
        if not self.path.is_dir():
            raise RepositoryError(f"not a directory: {self.path}")
        try:
            self._run("rev-parse", "--git-dir")
        except RepositoryError as exc:
            raise RepositoryError(f"not a readable Git repository: {self.path}") from exc
        self._batch: Optional[subprocess.Popen] = None
        self._meta_cache: Dict[CommitId, CommitMeta] = {}
        self._undecodable: Set[bytes] = set()  # .java paths already warned about

    # -- plumbing ----------------------------------------------------------

    def _run(self, *args: str) -> str:
        return self._run_raw(*args).decode("utf-8", "replace")

    def _run_raw(self, *args: str) -> bytes:
        proc = subprocess.run(
            ["git", "-C", str(self.path), *args],
            capture_output=True,
        )
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            raise RepositoryError(f"git {' '.join(args[:2])}... failed: {stderr}")
        return proc.stdout

    def _java_path(self, raw: bytes) -> Optional[str]:
        """A .java path as text; None for other paths, and for one that is not UTF-8 (warned once).

        Replacing undecodable bytes would map distinct paths to one name, so such a path is dropped.
        """
        if not raw.endswith(b".java"):
            return None
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            if raw not in self._undecodable:
                self._undecodable.add(raw)
                log.warning("%s: skipping path %r: not valid UTF-8", self.path, raw)
            return None

    def _batch_proc(self) -> subprocess.Popen:
        if self._batch is None or self._batch.poll() is not None:
            self.close()  # a child that exited still holds its pipes
            self._batch = subprocess.Popen(
                ["git", "-C", str(self.path), "cat-file", "--batch"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,  # a damaged object reads as missing, without git's own lines about it
            )
        return self._batch

    def close(self) -> None:
        """End the cat-file child, if any, and close both of its pipes."""
        if self._batch is not None:
            with contextlib.suppress(BrokenPipeError):  # unsent input to a child that already exited
                self._batch.stdin.close()
            self._batch.wait(timeout=10)
            self._batch.stdout.close()
        self._batch = None

    def __enter__(self) -> "GitRepo":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tags and release pairs --------------------------------------------

    def tags(self, pattern: str = "*") -> List[Tag]:
        """Tags matching the glob, sorted by committer date of the tagged commit; tags on non-commits warn."""
        out = self._run("for-each-ref", "refs/tags", "--format=%(refname:short)%09%(objecttype)%09%(objectname)"
                        "%09%(committerdate:unix)%09%(*objecttype)%09%(*objectname)%09%(*committerdate:unix)")
        tags: List[Tag] = []
        for line in _lines(out):
            name, *target = line.split("\t")
            if not fnmatch.fnmatchcase(name, pattern):
                continue
            kind, obj, ts = target[3:] if target[0] == "tag" else target[:3]  # an annotated tag's target
            if kind != "commit":
                log.warning("%s: skipping tag %s: it points at %s %s, not a commit", self.path, name, kind, obj)
                continue
            tags.append(Tag(name, obj, int(ts)))
        tags.sort(key=lambda t: (t.commit_time, t.name))
        return tags

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
        """First-parent path from r to r', oldest first, endpoints included; the walk from r' stops at r."""
        if r.commit == rprime.commit:
            return [r.commit]
        out = self._run("rev-list", "--first-parent", "--parents", rprime.commit, "^" + r.commit)
        rows = [line.split() for line in _lines(out)]  # "<commit> <first parent> ...", newest first
        if not rows or rows[-1][1:2] != [r.commit]:
            raise RepositoryError(f"{r.name} is not a first-parent ancestor of {rprime.name}")
        return [r.commit] + [row[0] for row in reversed(rows)]

    def commit_meta(self, commits: Sequence[CommitId]) -> Dict[CommitId, CommitMeta]:
        missing = [c for c in dict.fromkeys(commits) if c not in self._meta_cache]
        for i in range(0, len(missing), 500):
            chunk = missing[i:i + 500]
            out = self._run("log", "--no-walk=unsorted", "--format=%H%x09%ct%x09%an", *chunk)
            for line in _lines(out):
                sha, ts, author = line.split("\t", 2)
                self._meta_cache[sha] = CommitMeta(author, int(ts))
        return {c: self._meta_cache[c] for c in commits if c in self._meta_cache}

    def first_parent_changes(self, commits: Sequence[CommitId]) -> List[Dict[str, Optional[str]]]:
        """Per commit of a first-parent chain after commits[0], the .java files its diff changed: path -> new blob.

        The blob is None where the path no longer holds a file (removed, or now a gitlink); a change of
        mode or type alone is no change.  Caches the commits' metadata.
        """
        if len(commits) < 2:
            return []
        out = self._run_raw("log", "--first-parent", "--diff-merges=first-parent", "--raw", "-r", "--no-renames",
                            "--no-abbrev", "-z", "--format=%H%x09%ct%x09%an", commits[-1], "^" + commits[0])
        logged, steps = [], []
        tokens = iter(out.split(b"\0"))
        for token in tokens:
            token = token.lstrip(b"\n")
            if token.startswith(b":"):  # ":<old mode> <new mode> <old sha> <new sha> <status>", then the path
                old_mode, new_mode, old, new, _ = token[1:].decode().split(" ")
                old, new = (None if old_mode in _NO_FILE else old), (None if new_mode in _NO_FILE else new)
                path = self._java_path(next(tokens))
                if old != new and path is not None:
                    steps[-1][path] = new
            elif token:  # "<sha>\t<committer time>\t<author>"
                sha, ts, author = token.decode("utf-8", "replace").split("\t", 2)
                self._meta_cache[sha] = CommitMeta(author, int(ts))
                logged.append(sha)
                steps.append({})
        if logged[::-1] != list(commits[1:]):
            raise RepositoryError(f"not a first-parent chain: {commits[0]}..{commits[-1]}")
        return steps[::-1]

    # -- trees and blobs -----------------------------------------------------

    def source_files(self, commit: CommitId) -> Dict[str, str]:
        """path -> blob sha for the .java files at a commit."""
        files: Dict[str, str] = {}
        for raw, sha in self._ls_tree(commit).items():
            path = self._java_path(raw)
            if path is not None:
                files[path] = sha
        return files

    def _ls_tree(self, commit: CommitId) -> Dict[bytes, str]:
        """Raw path -> blob sha for every file at a commit; symlinks are files, gitlinks not."""
        files: Dict[bytes, str] = {}
        for entry in self._run_raw("ls-tree", "-r", "-z", commit).split(b"\0"):
            meta, _, path = entry.partition(b"\t")  # "<mode> <type> <sha>\t<path>"
            parts = meta.split()
            if len(parts) == 3 and parts[1] == b"blob":
                files[path] = parts[2].decode()
        return files

    def blob_lines(self, sha: str) -> Tuple[str, ...]:
        """A blob's source lines.

        A blob that is not valid UTF-8 is read with U+FFFD for each bad byte sequence, which cuts any name
        it falls in, so each such read logs a warning naming the repository and the blob.
        """
        proc = self._batch_proc()
        proc.stdin.write((sha + "\n").encode())
        proc.stdin.flush()
        header = proc.stdout.readline().decode("utf-8", "replace").strip()
        if header.endswith("missing"):
            raise RepositoryError(f"object not found: {sha}")
        _, _, size = header.split()
        data = proc.stdout.read(int(size))
        proc.stdout.read(1)  # trailing newline after the object body
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            log.warning("%s: blob %s is not valid UTF-8 (%s at byte %d); reading it with replacement characters",
                        self.path, sha, exc.reason, exc.start)
            text = data.decode("utf-8", "replace")
        return _source_lines(text)

    def file_lines(self, commit: CommitId, path: str) -> Tuple[str, ...]:
        """Lines of a file at a commit; an absent file reads as empty."""
        return self.snapshot(commit, path).lines

    def snapshot(self, commit: CommitId, path: str) -> FileSnapshot:
        """A file at a commit, with the blob it was read from; an absent file reads as empty, from blob ""."""
        sha = self._ls_tree(commit).get(path.encode(), "")
        return FileSnapshot(path, self.blob_lines(sha) if sha else (), sha)

    def diff_churn(self, path_old: str, path_new: str, c: CommitId, c_prime: CommitId) -> int:
        """Added + deleted lines between two blobs; an absent blob is empty."""
        return line_churn(self.file_lines(c, path_old), self.file_lines(c_prime, path_new))


def resolve_release_pairs(repo_path, tag_filter: str = "*") -> List[ReleasePair]:
    with GitRepo(repo_path) as repo:
        return repo.release_pairs(tag_filter)
