"""Seeded synthetic Java repositories with a ground-truth change ledger.

A repository is written in one `git fast-import` stream, so a history of
thousands of commits builds in about a second.  Its structure (class and
method counts, the 3-ary `extends` forest, commit and tag counts, how many
change events each history segment holds) is fixed by the Shape; the seed
only picks which modules are hot, the order of edits, which edits also
rename a method or move a file, authors and timestamps.  That keeps the
amount of work almost constant across seeds while the content varies.

Every edit replaces exactly one line of one method body.  A rename also
rewrites the method's signature line; a move changes the file's directory
and always comes with an edit of one of its methods, so rename tracking
has to go through `similarity`.  The ledger records, per release pair and
per module alive at the pair's first tag, the number of commits that
changed it, its total churn and its LOC, in the module-id format granite
writes.
"""

from __future__ import annotations

import random
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

START_TIME = 1_600_000_000
TAG_GLOB = "v*"
PACKAGES = 4
STMTS = 4  # statements per method


@dataclass(frozen=True)
class Shape:
    classes: int
    methods: int  # per class
    fanout: int  # children per class in the extends forest
    commits: int
    tags: int
    ops_per_commit: int  # method edits per commit
    rename_rate: float  # share of edits that also rename the method
    move_rate: float  # share of commits that also move one edited class to another directory
    authors: int


@dataclass
class _Method:
    name: str
    consts: List[int]


@dataclass
class _Class:
    index: int
    package: int
    methods: List[_Method]

    @property
    def path(self) -> str:
        return f"src/pkg{self.package}/C{self.index}.java"


def _method_lines(ci: int, mj: int, m: _Method) -> List[str]:
    v = f"v{ci}_{mj}"
    lines = [f"    public int {m.name}(int a, int b) {{"]
    for s, c in enumerate(m.consts):
        prev = "a" if s == 0 else f"{v}_{s - 1}"
        lines.append(f"        int {v}_{s} = {prev} + {c};")
        if s == 0 and mj % 4 in (1, 3):
            lines += [f"        if ({v}_0 > b) {{", f"            {v}_0 = {v}_0 - b;", "        }"]
        if s == 1 and mj % 4 in (2, 3):
            lines += [f"        for (int k{ci}_{mj} = 0; k{ci}_{mj} < b; k{ci}_{mj}++) {{",
                      f"            {v}_1 += k{ci}_{mj};", "        }"]
    lines += [f"        return {v}_{len(m.consts) - 1};", "    }"]
    return lines


def _class_text(cls: _Class, fanout: int) -> Tuple[str, Dict[int, int]]:
    """Source text and LOC of every method (by method index)."""
    head = f"public class C{cls.index}"
    if cls.index > 0:
        head += f" extends C{(cls.index - 1) // fanout}"
    lines = [head + " {", f"    private int f{cls.index} = {cls.index};", ""]
    method_loc = {}
    for j, m in enumerate(cls.methods):
        body = _method_lines(cls.index, j, m)
        method_loc[j] = len(body)
        lines += body + [""]
    lines[-1] = "}"
    return "\n".join(lines) + "\n", method_loc


def _hot_counts(events: int, slots: int) -> List[int]:
    """Fixed, skewed split of `events` over `slots` ranked modules."""
    weights = [1.0 / (r + 1) ** 0.8 for r in range(slots)]
    total = sum(weights)
    raw = [events * w / total for w in weights]
    counts = [int(x) for x in raw]
    order = sorted(range(slots), key=lambda r: (counts[r] - raw[r], r))
    for r in order[:events - sum(counts)]:
        counts[r] += 1
    return counts


# release pair label -> module id at the pair's first tag -> [changes, total_churn, loc]
Ledger = Dict[str, Dict[str, List[int]]]


def build(root: Path, shape: Shape, seed: int) -> Ledger:
    """Write the repository at `root` (which must not exist) and return its ledger."""
    rng = random.Random(seed)
    classes = [
        _Class(i, i % PACKAGES,
               [_Method(f"m{j}", [rng.randrange(1000) for _ in range(STMTS)])
                for j in range(shape.methods)])
        for i in range(shape.classes)
    ]
    hot = [(i, j) for i in range(shape.classes) for j in range(shape.methods)]
    rng.shuffle(hot)  # hotness rank of each method, kept for the whole history

    # history segments: pre-release history, then one per release pair
    seg_len = shape.commits // shape.tags
    tag_at = [seg_len * (t + 1) - 1 for t in range(shape.tags)]
    tag_at[-1] = shape.commits - 1
    plan: List[List[Tuple[int, int]]] = [[] for _ in range(shape.commits)]
    start = 1
    for end in tag_at:
        n = end - start + 1
        if n <= 0:
            continue
        events = [hot[r] for r, c in enumerate(_hot_counts(n * shape.ops_per_commit, len(hot)))
                  for _ in range(c)]
        rng.shuffle(events)
        carry: List[Tuple[int, int]] = []
        for k in range(start, end + 1):
            todo, carry, ops = carry + events[:shape.ops_per_commit], [], []
            events = events[shape.ops_per_commit:]
            for key in todo:
                (carry if key in ops else ops).append(key)
            plan[k] = ops
        start = end + 1

    stream: List[bytes] = []

    def data(text: str) -> None:
        raw = text.encode()
        stream.append(b"data %d\n" % len(raw) + raw + b"\n")

    texts: Dict[int, str] = {}
    locs: Dict[int, Tuple[int, Dict[int, int]]] = {}

    def render(cls: _Class) -> None:
        text, method_loc = _class_text(cls, shape.fanout)
        texts[cls.index] = text
        locs[cls.index] = (text.count("\n"), method_loc)

    for cls in classes:
        render(cls)

    def module_ids() -> Dict[Tuple[int, int], str]:
        """(class, -1) for a class, (class, method) for a method -> current module id."""
        ids = {}
        for cls in classes:
            ids[(cls.index, -1)] = f"class:{cls.path}:C{cls.index}"
            for j, m in enumerate(cls.methods):
                ids[(cls.index, j)] = f"method:{cls.path}:C{cls.index}#{m.name}(int,int)"
        return ids

    def module_locs() -> Dict[Tuple[int, int], int]:
        out = {}
        for cls in classes:
            class_loc, method_loc = locs[cls.index]
            out[(cls.index, -1)] = class_loc
            for j, loc in method_loc.items():
                out[(cls.index, j)] = loc
        return out

    # exact numbers of renames and moves, so the tracking work does not vary with the seed
    n_ops = sum(len(ops) for ops in plan)
    rename_ops = set(rng.sample(range(n_ops), round(shape.rename_rate * n_ops)))
    move_commits = set(rng.sample(range(1, shape.commits), round(shape.move_rate * (shape.commits - 1))))

    churn_at: List[Dict[Tuple[int, int], int]] = []
    snapshots: Dict[int, Tuple[Dict, Dict]] = {}
    clock = START_TIME
    op = 0
    for k in range(shape.commits):
        clock += rng.randrange(1800, 8 * 3600)
        author = f"Dev{rng.randrange(shape.authors)}"
        changed: Dict[Tuple[int, int], int] = {}
        deletes: List[str] = []
        if k == 0:
            touched = list(range(shape.classes))
            message = "initial import"
        else:
            touched = []
            for ci, mj in plan[k]:
                m = classes[ci].methods[mj]
                m.consts[rng.randrange(STMTS)] += 1 + rng.randrange(997)
                churn = 2
                if op in rename_ops:
                    m.name = f"m{mj}r{op}"
                    churn = 4
                op += 1
                changed[(ci, mj)] = churn
                changed[(ci, -1)] = changed.get((ci, -1), 0) + churn
                if ci not in touched:
                    touched.append(ci)
            if k in move_commits and touched:
                cls = classes[touched[0]]
                deletes.append(cls.path)
                cls.package = (cls.package + 1 + rng.randrange(PACKAGES - 1)) % PACKAGES
            message = f"change {len(plan[k])} methods"
        churn_at.append(changed)
        for ci in touched:
            render(classes[ci])
        stamp = f"{author} <{author.lower()}@example.test> {clock} +0000"
        stream.append(f"commit refs/heads/main\nmark :{k + 1}\nauthor {stamp}\ncommitter {stamp}\n".encode())
        data(message)
        if k > 0:
            stream.append(f"from :{k}\n".encode())
        for path in deletes:
            stream.append(f"D {path}\n".encode())
        for ci in touched:
            stream.append(f"M 100644 inline {classes[ci].path}\n".encode())
            data(texts[ci])
        stream.append(b"\n")
        if k in tag_at:
            snapshots[k] = (module_ids(), module_locs())
    for t, k in enumerate(tag_at):
        stream.append(f"reset refs/tags/{tag_name(t)}\nfrom :{k + 1}\n\n".encode())

    root.mkdir(parents=True)
    subprocess.run(["git", "init", "-q", "-b", "main", str(root)], check=True, capture_output=True)
    subprocess.run(["git", "-C", str(root), "fast-import", "--quiet"], input=b"".join(stream),
                   check=True, capture_output=True)

    pairs: Ledger = {}
    for t in range(shape.tags - 1):
        a, b = tag_at[t], tag_at[t + 1]
        ids, loc = snapshots[a]
        entries = {ids[key]: [0, 0, loc[key]] for key in ids}
        for k in range(a + 1, b + 1):
            for key, churn in churn_at[k].items():
                entry = entries[ids[key]]
                entry[0] += 1
                entry[1] += churn
        pairs[f"{tag_name(t)}..{tag_name(t + 1)}"] = entries
    return pairs


def tag_name(t: int) -> str:
    return f"v{t:02d}"
