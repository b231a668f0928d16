"""Track modules across commits: rename matching and per-module change histories.

Modules keep the identity they were born with; renames (of a method, or of the
whole file) are threaded by content similarity so one logical module owns one
history even when its name or path changes mid-range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from granite.gitrepo import CommitId, FileChange, FileSnapshot, GitRepo, ReleasePair
from granite.javaparse import ModuleDef, ModuleId, extract_modules
from granite.textdiff import diff_sizes, similarity

# Matches Git's default rename threshold; pairs below this stay delete + add.
RENAME_SIMILARITY = 0.6

Snapshot = Dict[ModuleId, ModuleDef]  # the modules of one commit


@dataclass(frozen=True)
class ChangeEvent:
    commit: CommitId
    churn: int
    added: int
    deleted: int


@dataclass
class ChangeHistory:
    module: ModuleId
    events: List[ChangeEvent]
    birth_commit: CommitId


def module_loc(mdef: ModuleDef) -> int:
    """Physical lines of the extracted code segment."""
    return mdef.span[1] - mdef.span[0] + 1


def match_renames(
    prev: Sequence[ModuleDef], cur: Sequence[ModuleDef]
) -> Dict[ModuleId, ModuleId]:
    """Map modules of one snapshot onto the next.

    Identity matches come first; leftovers pair greedily by maximal body
    similarity above RENAME_SIMILARITY, same kind only, each module used once.
    Unmatched prev modules are deaths, unmatched cur modules births.
    """
    cur_by_id = {d.id: d for d in cur}
    mapping: Dict[ModuleId, ModuleId] = {}
    for d in prev:
        if d.id in cur_by_id:
            mapping[d.id] = d.id

    loose_prev = sorted((d for d in prev if d.id not in mapping), key=lambda d: d.id.sort_key)
    matched_cur = set(mapping.values())
    loose_cur = sorted((d for d in cur if d.id not in matched_cur), key=lambda d: d.id.sort_key)
    if not loose_prev or not loose_cur:
        return mapping

    # identical bodies pair up without running the diff
    by_body: Dict[Tuple[str, Tuple[str, ...]], List[ModuleDef]] = {}
    for d in loose_cur:
        by_body.setdefault((d.id.kind, d.body), []).append(d)
    taken_cur = set()
    still_prev: List[ModuleDef] = []
    for d in loose_prev:
        bucket = by_body.get((d.id.kind, d.body))
        hit = None
        if bucket:
            for cand in bucket:
                if cand.id not in taken_cur:
                    hit = cand
                    break
        if hit is not None:
            mapping[d.id] = hit.id
            taken_cur.add(hit.id)
        else:
            still_prev.append(d)
    loose_cur = [d for d in loose_cur if d.id not in taken_cur]

    candidates = []
    for p in still_prev:
        for c in loose_cur:
            if p.id.kind != c.id.kind:
                continue
            total = len(p.body) + len(c.body)
            if total == 0:
                continue
            if 2.0 * min(len(p.body), len(c.body)) / total < RENAME_SIMILARITY:
                continue  # similarity upper bound already below threshold
            sim = similarity(p.body, c.body)
            if sim >= RENAME_SIMILARITY:
                candidates.append((-sim, p.id.sort_key, c.id.sort_key, p.id, c.id))
    candidates.sort(key=lambda t: t[:3])
    used_prev, used_cur = set(), set()
    for _, _, _, pid, cid in candidates:
        if pid in used_prev or cid in used_cur:
            continue
        mapping[pid] = cid
        used_prev.add(pid)
        used_cur.add(cid)
    return mapping


@dataclass
class _Delta:
    """What happened to the files whose blob differs between two adjacent commits."""

    prev: Tuple[ModuleId, ...]  # the modules of those files at the parent
    matched: Dict[ModuleId, ModuleId]  # prev id -> child id
    changes: Dict[ModuleId, Tuple[int, int, int]]  # child id -> (churn, added, deleted)
    births: Tuple[ModuleId, ...]


@dataclass
class ScanResult:
    """Change histories over one linearized commit range."""

    commits: Tuple[CommitId, ...]
    histories: Dict[ModuleId, ChangeHistory]  # keyed by birth identity; the first lineage born under an id keeps it
    start_defs: Dict[ModuleId, ModuleDef]  # snapshot at commits[0]
    end_defs: Dict[ModuleId, ModuleDef]  # histories key -> def at commits[-1], if alive
    end_histories: Dict[ModuleId, ChangeHistory]  # module id at commits[-1] -> its lineage's history
    touched: Dict[CommitId, Dict[str, int]]  # commit -> kind -> modules changed

    def alive_at_start(self) -> List[ModuleId]:
        return sorted(self.start_defs, key=lambda m: m.sort_key)


class HistoryScanner:
    """Builds module snapshots and change histories over a repository.

    A range's files are listed at its first commit; each later commit steps
    by the files its first-parent diff changed, read for the whole range at
    once.  The modules of an unchanged file keep their identity and history
    without matching, and rename matching and body diffs run over the
    modules of the changed files alone.  Parses are cached per (blob, path),
    so each is parsed once; snapshots are built at the first and last commit.
    """

    def __init__(self, repo: GitRepo):
        self.repo = repo
        self._defs_cache: Dict[Tuple[str, str], List[ModuleDef]] = {}

    def _file_modules(self, commit: CommitId, path: str, sha: str) -> List[ModuleDef]:
        defs = self._defs_cache.get((sha, path))
        if defs is None:
            lines = self.repo.blob_lines(sha)
            defs = self._defs_cache[(sha, path)] = extract_modules(FileSnapshot(path, lines, commit))
        return defs

    def snapshot_modules(self, commit: CommitId, files: Dict[str, Optional[str]]) -> Snapshot:
        # files maps path -> blob sha, or None once removed; module ids carry their file's path
        return {d.id: d for p, sha in sorted(files.items()) if sha for d in self._file_modules(commit, p, sha)}

    def adjacent_delta(self, a: CommitId, b: CommitId, changed: Dict[str, FileChange]) -> _Delta:
        """The step from commit a to its child b over the files whose blob differs (added and removed too)."""
        prev = {d.id: d for p, (old, _) in sorted(changed.items()) if old for d in self._file_modules(a, p, old)}
        cur = {d.id: d for p, (_, new) in sorted(changed.items()) if new for d in self._file_modules(b, p, new)}
        mapping = match_renames(list(prev.values()), list(cur.values()))
        changes: Dict[ModuleId, Tuple[int, int, int]] = {}
        for pid, cid in mapping.items():
            pbody, cbody = prev[pid].body, cur[cid].body
            if pbody != cbody:
                added, deleted = diff_sizes(pbody, cbody)
                changes[cid] = (added + deleted, added, deleted)
        births = tuple(sorted(cur.keys() - mapping.values(), key=lambda m: m.sort_key))
        return _Delta(tuple(prev), mapping, changes, births)

    def change_histories(self, commits: Sequence[CommitId]) -> ScanResult:
        if not commits:
            raise ValueError("empty commit range")
        files = self.repo.source_files(commits[0])
        start = self.snapshot_modules(commits[0], files)
        histories = {mid: ChangeHistory(mid, [], commits[0]) for mid in start}
        alive: Dict[ModuleId, ChangeHistory] = dict(histories)  # id at the current commit -> lineage
        touched: Dict[CommitId, Dict[str, int]] = {}
        for a, b, changed in zip(commits, commits[1:], self.repo.first_parent_changes(commits)):
            delta = self.adjacent_delta(a, b, changed)
            files.update((path, new) for path, (_, new) in changed.items())
            stepped = {pid: alive.pop(pid) for pid in delta.prev}
            counts = {"class": 0, "method": 0}
            for pid, cid in delta.matched.items():
                history = alive[cid] = stepped[pid]
                change = delta.changes.get(cid)
                if change is not None:
                    history.events.append(ChangeEvent(b, *change))
                    counts[cid.kind] += 1
            for bid in delta.births:
                alive[bid] = ChangeHistory(bid, [], b)
                histories.setdefault(bid, alive[bid])
            touched[b] = counts
        end = self.snapshot_modules(commits[-1], files)
        end_defs = {h.module: end[cid] for cid, h in alive.items() if histories[h.module] is h}
        return ScanResult(tuple(commits), histories, start, end_defs, alive, touched)


@dataclass(frozen=True)
class PriorHistories:
    """Every module's change history along a first-parent chain, up to and including its last commit."""

    commits: Tuple[CommitId, ...]  # the chain, oldest first
    histories: Dict[ModuleId, ChangeHistory]  # module id at commits[-1] -> its lineage's history
    touched: Dict[CommitId, Dict[str, int]]  # commit -> kind -> modules changed

    def extended(self, scan: ScanResult) -> "PriorHistories":
        """These histories continued by a scan that starts at commits[-1]."""
        histories: Dict[ModuleId, ChangeHistory] = {}
        for mid, h in scan.end_histories.items():
            if h.birth_commit == scan.commits[0]:  # alive when the scan began
                before = self.histories[h.module]
                h = ChangeHistory(before.module, before.events + h.events, before.birth_commit)
            histories[mid] = h
        return PriorHistories(self.commits + scan.commits[1:], histories, {**self.touched, **scan.touched})


def build_change_histories(repo: GitRepo, pair: ReleasePair) -> Dict[ModuleId, ChangeHistory]:
    """Per-module change histories over one release pair's commit sequence."""
    return HistoryScanner(repo).change_histories(pair.commits).histories
