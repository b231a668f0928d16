"""Track modules across commits: rename matching and per-module change histories.

Modules keep the identity they were born with; renames (of a method, or of the
whole file) are threaded by content similarity so one logical module owns one
history even when its name or path changes mid-range.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from granite.gitrepo import CommitId, GitRepo, ReleasePair
from granite.javaparse import ModuleDef, ModuleId, extract_modules
from granite.textdiff import diff_sizes, similarity

log = logging.getLogger(__name__)

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


def count_changes_between(history: ChangeHistory) -> int:
    """Number of commits in which the module's text changed."""
    return len(history.events)


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
    """Everything that happened between two adjacent commits."""

    matched: Dict[ModuleId, ModuleId]
    changes: Dict[ModuleId, Tuple[int, int, int]]  # cur id -> (churn, added, deleted)
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

    Parses are cached per blob, so a file that does not change between commits
    is parsed once; snapshots and deltas are rebuilt on every walk.
    """

    def __init__(self, repo: GitRepo):
        self.repo = repo
        self._defs_cache: Dict[Tuple[str, str], List[ModuleDef]] = {}

    def snapshot_modules(self, commit: CommitId) -> Snapshot:
        modules: Dict[ModuleId, ModuleDef] = {}
        for path, sha in sorted(self.repo.source_files(commit).items()):
            key = (sha, path)
            defs = self._defs_cache.get(key)
            if defs is None:
                snapshot = self.repo.snapshot(commit, path)
                defs = extract_modules(snapshot)
                self._defs_cache[key] = defs
            for d in defs:
                if d.id in modules:
                    log.warning("%s: duplicate module %s across files; keeping first", commit[:10], d.id)
                    continue
                modules[d.id] = d
        return modules

    def adjacent_delta(self, a: CommitId, b: CommitId, prev: Snapshot, cur: Snapshot) -> _Delta:
        """What happened from snapshot prev at commit a to snapshot cur at its child b."""
        files_a = self.repo.source_files(a)
        files_b = self.repo.source_files(b)
        mapping = match_renames(list(prev.values()), list(cur.values()))
        changes: Dict[ModuleId, Tuple[int, int, int]] = {}
        for pid, cid in mapping.items():
            if pid == cid and files_a.get(pid.file_path) == files_b.get(cid.file_path):
                continue  # file blob unchanged, so the segment is unchanged
            pbody, cbody = prev[pid].body, cur[cid].body
            if pbody == cbody:
                continue
            added, deleted = diff_sizes(pbody, cbody)
            changes[cid] = (added + deleted, added, deleted)
        matched_cur = set(mapping.values())
        births = tuple(sorted((m for m in cur if m not in matched_cur), key=lambda m: m.sort_key))
        return _Delta(mapping, changes, births)

    def change_histories(self, commits: Sequence[CommitId]) -> ScanResult:
        if not commits:
            raise ValueError("empty commit range")
        start = prev = self.snapshot_modules(commits[0])
        histories = {mid: ChangeHistory(mid, [], commits[0]) for mid in start}
        alive: Dict[ModuleId, ChangeHistory] = dict(histories)
        touched: Dict[CommitId, Dict[str, int]] = {}
        for a, b in zip(commits, commits[1:]):
            cur = self.snapshot_modules(b)
            delta = self.adjacent_delta(a, b, prev, cur)
            new_alive: Dict[ModuleId, ChangeHistory] = {}
            counts = {"class": 0, "method": 0}
            for pid, cid in delta.matched.items():
                history = new_alive[cid] = alive[pid]
                change = delta.changes.get(cid)
                if change is not None:
                    history.events.append(ChangeEvent(b, *change))
                    counts[cid.kind] += 1
            for bid in delta.births:
                new_alive[bid] = ChangeHistory(bid, [], b)
                histories.setdefault(bid, new_alive[bid])
            alive, prev = new_alive, cur
            touched[b] = counts
        end_defs = {h.module: prev[cid] for cid, h in alive.items() if histories[h.module] is h}
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


def dump_modules_jsonl(defs: Iterable[ModuleDef], fp) -> None:
    """Debug dump: one module per line, body omitted."""
    for d in sorted(defs, key=lambda d: d.id.sort_key):
        fp.write(json.dumps({"id": str(d.id), "span": list(d.span)}) + "\n")
