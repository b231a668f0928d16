"""Track modules across commits: rename matching and per-module change histories.

Modules keep the identity they were born with; renames (of a method, or of the
whole file) are threaded by content similarity so one logical module owns one
history even when its name or path changes mid-range.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from granite.gitrepo import CommitId, FileSnapshot, GitRepo, ReleasePair
from granite.javaparse import ModuleDef, ModuleId, derive_modules, extract_modules
from granite.textdiff import diff_sizes, similarity

# Matches Git's default rename threshold; pairs below this stay delete + add.
RENAME_SIMILARITY = 0.6

Snapshot = Dict[ModuleId, ModuleDef]  # the modules of one commit
Files = Dict[str, Optional[str]]  # path -> blob sha; None where the path holds no file


@dataclass(frozen=True)
class ChangeEvent:
    commit: CommitId
    churn: int
    added: int
    deleted: int
    co_changed: int  # modules of this kind whose body changed in the commit, this one included


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

    loose_prev = sorted((d for d in prev if d.id not in mapping), key=lambda d: d.id)
    matched_cur = set(mapping.values())
    loose_cur = sorted((d for d in cur if d.id not in matched_cur), key=lambda d: d.id)
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
            if 2.0 * min(len(p.body), len(c.body)) / total < RENAME_SIMILARITY:
                continue  # similarity upper bound already below threshold
            sim = similarity(p.body, c.body)
            if sim >= RENAME_SIMILARITY:
                candidates.append((-sim, p.id, c.id))
    candidates.sort()
    used_prev, used_cur = set(), set()
    for _, pid, cid in candidates:
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
    """Change histories over one linearized commit range, and the walk that reached its last commit."""

    commits: Tuple[CommitId, ...]
    chain: Tuple[CommitId, ...]  # the walk's commits, oldest first, from where it started to commits[-1]
    histories: Dict[ModuleId, ChangeHistory]  # module id at commits[0] -> its lineage's events in this range
    start_defs: Dict[ModuleId, ModuleDef]  # snapshot at commits[0]
    end_defs: Dict[ModuleId, ModuleDef]  # histories key -> def at commits[-1], if alive
    end_histories: Dict[ModuleId, ChangeHistory]  # module id at commits[-1] -> its lineage's whole walk, births too
    files: Files  # the walk's path -> blob map at commits[-1]


class HistoryScanner:
    """Builds module snapshots and change histories over a repository.

    A walk lists its files at the commit it starts from into a path -> blob
    map, which each later commit steps by the files its first-parent diff
    changed (read for the whole range at once); the map gives their parent
    blobs.  A scan given the scan that ended at its first commit takes over
    that map instead, so consecutive scans are one walk and their
    end_histories equal a walk from where the first one started.
    A blob that does not parse is no change, so the map keeps its file's
    last parsed blob and the file's modules carry on.  The modules of an
    unchanged file keep their identity and history without matching, and
    rename matching and body diffs run over the modules of the changed files
    alone.  Modules are cached per (blob, path), so each blob is parsed or
    derived once, and a blob that does not parse is warned about once, by
    path and blob.  A changed blob is derived from its path's last blob that
    parsed and dropped no declaration, whatever blob the map holds
    (javaparse.derive_modules), when the edit between them lies inside one
    method body, and parsed in full otherwise; for this the scanner keeps
    that blob's lines and modules, and no other blob's lines.  So a blob's
    modules depend on the blob alone.  Snapshots are built at the first and
    last commit.  The cache lives as long as the scanner, and most lines of
    a blob repeat a line of an earlier blob, so the scanner keeps one string
    per distinct line read and every cached module body is made of those
    strings; likewise it keeps one copy of each distinct module id and of
    each distinct body, which most blobs of a file repeat, in the same table.
    A scan's dicts are in walk order (the tree listing, then each diff), not sorted by id.
    """

    def __init__(self, repo: GitRepo):
        self.repo = repo
        self._defs_cache: Dict[Tuple[str, str], Optional[List[ModuleDef]]] = {}
        # each distinct line, module id and body read -> its one kept copy; one table, since a line (a str) never
        # equals a tuple and a body (a tuple of str) never equals a ModuleId, whose last field is None or a tuple
        self._kept: Dict[object, object] = {}
        # path -> (modules, lines) of the last blob of it read that parsed, if its parse dropped nothing
        self._tips: Dict[str, Tuple[List[ModuleDef], Tuple[str, ...]]] = {}

    def _file_modules(self, path: str, sha: str) -> Optional[List[ModuleDef]]:
        """The blob's modules; None when it does not parse."""
        key = (sha, path)
        if key not in self._defs_cache:
            lines = self.repo.blob_lines(sha)
            snapshot = FileSnapshot(path, tuple(map(self._kept.setdefault, lines, lines)), sha)
            tip = self._tips.get(path)
            defs = derive_modules(*tip, snapshot) if tip else None
            dropped: List[ModuleId] = []
            if defs is None:
                defs = extract_modules(snapshot, dropped)
            if defs is not None:
                defs = [self._shared(d) for d in defs]
                if dropped:
                    self._tips.pop(path, None)  # a blob derived from this one would miss the warnings of its full parse
                else:
                    self._tips[path] = (defs, snapshot.lines)
            self._defs_cache[key] = defs
        return self._defs_cache[key]

    def _shared(self, d: ModuleDef) -> ModuleDef:
        """d with the kept copy of its id and body; d itself when it holds them already."""
        mid, body = self._kept.setdefault(d.id, d.id), self._kept.setdefault(d.body, d.body)
        return d if mid is d.id and body is d.body else ModuleDef(mid, d.span, body, d.decl)

    def snapshot_modules(self, files: Files) -> Snapshot:
        # module ids carry their file's path
        return {d.id: d for p, sha in files.items() if sha for d in self._file_modules(p, sha) or ()}

    def adjacent_delta(self, changed: Files, files: Files) -> _Delta:
        """One commit step over the files whose blob differs: changed gives their new blobs, files all the parent's."""
        prev = {d.id: d for p in changed if (old := files.get(p)) for d in self._file_modules(p, old) or ()}
        cur = {d.id: d for p, new in changed.items() if new for d in self._file_modules(p, new) or ()}
        mapping = match_renames(list(prev.values()), list(cur.values()))
        changes: Dict[ModuleId, Tuple[int, int, int]] = {}
        for pid, cid in mapping.items():
            pbody, cbody = prev[pid].body, cur[cid].body
            if pbody != cbody:
                added, deleted = diff_sizes(pbody, cbody)
                changes[cid] = (added + deleted, added, deleted)
        births = tuple(sorted(cur.keys() - mapping.values()))
        return _Delta(tuple(prev), mapping, changes, births)

    def change_histories(self, commits: Sequence[CommitId], prior: Optional[ScanResult] = None) -> ScanResult:
        """Histories over commits; prior, the scan that ended at commits[0], is the walk this one continues."""
        if not commits:
            raise ValueError("empty commit range")
        if prior is not None and prior.commits[-1] != commits[0]:
            raise ValueError(f"the prior scan ends at {prior.commits[-1]}, not at {commits[0]}")
        files = dict(prior.files) if prior is not None else self.repo.source_files(commits[0])
        start = self.snapshot_modules(files)
        histories = {mid: ChangeHistory(mid, [], commits[0]) for mid in start}
        alive: Dict[ModuleId, ChangeHistory] = dict(histories)  # id at the current commit -> lineage
        for commit, changed in zip(commits[1:], self.repo.first_parent_changes(commits)):
            # a blob that does not parse is left out, so files keeps the path's last parsed blob
            changed = {p: sha for p, sha in changed.items() if sha is None or self._file_modules(p, sha) is not None}
            delta = self.adjacent_delta(changed, files)
            files.update(changed)
            stepped = {pid: alive.pop(pid) for pid in delta.prev}
            co_changed = Counter(cid.kind for cid in delta.changes)
            for pid, cid in delta.matched.items():
                history = alive[cid] = stepped[pid]
                change = delta.changes.get(cid)
                if change is not None:
                    history.events.append(ChangeEvent(commit, *change, co_changed[cid.kind]))
            for bid in delta.births:
                alive[bid] = ChangeHistory(bid, [], commit)
        end = self.snapshot_modules(files)
        end_defs = {h.module: end[cid] for cid, h in alive.items() if h.birth_commit == commits[0]}
        chain = tuple(commits)
        if prior is not None:
            chain = prior.chain + chain[1:]
            for cid, h in alive.items():
                if h.birth_commit == commits[0]:  # alive at commits[0]: its lineage so far comes first
                    before = prior.end_histories[h.module]
                    alive[cid] = ChangeHistory(before.module, before.events + h.events, before.birth_commit)
        return ScanResult(tuple(commits), chain, histories, start, end_defs, alive, files)


def build_change_histories(repo: GitRepo, pair: ReleasePair) -> Dict[ModuleId, ChangeHistory]:
    """Per-module change histories over one release pair's commit sequence."""
    return HistoryScanner(repo).change_histories(pair.commits).histories
