"""Product and process metrics for class and method modules.

Product metrics are purely syntactic and come from the release snapshot;
process metrics come from the change history strictly before the release.
The catalog (names, order, and the token-level counting rules) is documented
in docs/metrics.md; every value is finite, non-negative, and deterministic.
Each row masks each of its segments once, from the segment's own lines, and
scans it once for its words, its erased generics and its brackets (_segment).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from granite.gitrepo import CommitId, CommitMeta
from granite.javaparse import (
    IDENT,
    KEYWORDS,
    ModuleDef,
    ModuleId,
    WORD_RE,
    mask_source,
)
from granite.tracking import ChangeHistory, module_loc

if TYPE_CHECKING:  # the functions that use numpy import it, so `granite mine` and `granite eval` never load it
    import numpy as np

CLASS_METRIC_NAMES: Tuple[str, ...] = (
    "loc",
    "num_methods",
    "num_fields",
    "weighted_methods",
    "inheritance_depth",
    "num_children",
    "coupled_types",
    "response_set",
    "lack_of_cohesion",
    "max_nesting",
    "num_static_members",
    "num_public_members",
    "num_string_literals",
    "num_loops",
    "num_comparisons",
)

METHOD_METRIC_NAMES: Tuple[str, ...] = (
    "loc",
    "cyclomatic",
    "num_params",
    "max_nesting",
    "num_locals",
    "num_invocations",
    "num_loops",
    "num_comparisons",
    "num_returns",
    "num_string_literals",
    "num_unique_identifiers",
    "fan_out",
)

PROCESS_METRIC_NAMES: Tuple[str, ...] = (
    "commit_count",
    "distinct_authors",
    "total_churn",
    "added_lines",
    "deleted_lines",
    "max_churn",
    "mean_churn",
    "age_days",
    "days_since_last_change",
    "change_density",
    "active_weeks",
    "co_change_count",
    "max_changes_30d",
    "first_change_offset_days",
    "churn_last_90d",
    "author_entropy",
    "dominant_author_ratio",
)

_CALL_RE = re.compile(rf"({IDENT})\s*\(")
_LOCALS_TOKEN_RE = re.compile(rf"{IDENT}|\S")
# an identifier that starts a word: none begins inside a number such as 0XFFab or 1E5f
_NAME_RE = re.compile(rf"(?<![\w$]){IDENT}")
# generic argument lists are erased before counting comparison operators;
# '&'/'|' stay out of the class so `a < b && c > d` keeps its comparisons
_GENERIC_RE = re.compile(r"<[\w$,.\s?\[\]]*>")
_COMPARISON_RE = re.compile(r"==|!=|<=|>=|(?<![<-])<(?![<=])|(?<![->])>(?![>=])")
_BRACKET_RE = re.compile(r"[(){}]")

_NON_CALL_WORDS = frozenset(
    "if for while switch catch synchronized return throw assert do else try finally new case instanceof".split()
)
_BRANCH_WORDS = frozenset("if for while do case catch".split())
_LOOP_WORDS = frozenset("for while do".split())
_PRIMITIVES = frozenset("boolean byte char short int long float double var".split())

_DAY = 86_400.0
_WINDOW_30D = 30 * 86_400
_WINDOW_90D = 90 * 86_400


# ---------------------------------------------------------------------------
# token-level counting primitives


def _erase_generics(masked: str) -> str:
    erased = 1
    while erased:  # nested generics collapse inside-out; a pass that erases shortens the text, so this ends
        masked, erased = _GENERIC_RE.subn(" ", masked)
    return masked


class _Segment(NamedTuple):
    """One segment's lines, masked once, with everything a row reads of them."""

    masked: str
    literals: int
    words: List[str]
    erased: str  # masked, with generic argument lists erased
    body_start: Optional[int]  # offset of the first '{' outside parentheses (the real body brace)
    nesting: int  # brace depth beyond the segment's own outermost brace


def _segment(lines: Sequence[str]) -> _Segment:
    masked, literals = mask_source("\n".join(lines))
    parens = depth = peak = 0
    body_start = None
    for m in _BRACKET_RE.finditer(masked):
        ch = m.group()
        if ch == "(":
            parens += 1
        elif ch == ")":
            parens -= 1
        elif ch == "}":
            depth = max(0, depth - 1)
        else:
            if body_start is None and parens == 0:
                body_start = m.start()
            depth += 1
            peak = max(peak, depth)
    return _Segment(
        masked, len(literals), _NAME_RE.findall(masked), _erase_generics(masked), body_start, max(0, peak - 1)
    )


def _comparisons(seg: _Segment) -> int:
    return len(_COMPARISON_RE.findall(seg.erased))


def _cyclomatic(seg: _Segment) -> int:
    branches = sum(1 for w in seg.words if w in _BRANCH_WORDS)
    branches += seg.masked.count("&&") + seg.masked.count("||")
    branches += seg.erased.count("?")
    return 1 + branches


def _invocation_names(masked_body: str) -> List[str]:
    return [w for w in _CALL_RE.findall(masked_body) if w not in _NON_CALL_WORDS]


def _count_locals(masked_body: str) -> int:
    """Local variable declarators, recognized as `[final] Type name [= ...]`.

    Each parenthesized group is a statement of its own.  A `(` after a `=` does not
    end the statement it is in: that statement resumes after the matching `)`.
    """
    toks: List[str] = _LOCALS_TOKEN_RE.findall(masked_body)
    total = 0
    stmt: List[str] = []
    outer: List[Optional[List[str]]] = []  # per open '(': the statement it interrupts, or None
    for tok in toks:
        if tok not in (";", "{", "}", "(", ")"):
            stmt.append(tok)
            continue
        if tok == "(" and "=" in stmt:
            outer.append(stmt)
        else:
            total += _declarators_in(stmt)
            if tok == "(":
                outer.append(None)
        stmt = (outer.pop() or []) if tok == ")" and outer else []
    total += _declarators_in(stmt)
    return total


def _declarators_in(stmt: List[str]) -> int:
    toks = [t for t in stmt if t != "final"]
    i = 0
    if i >= len(toks):
        return 0
    head = toks[i]
    if not WORD_RE.fullmatch(head):
        return 0
    if head in KEYWORDS and head not in _PRIMITIVES:
        return 0
    i += 1
    while i + 1 < len(toks) and toks[i] == "." and WORD_RE.fullmatch(toks[i + 1]):
        i += 2
    if i < len(toks) and toks[i] == "<":  # generic type arguments
        depth = 0
        while i < len(toks):
            if toks[i] == "<":
                depth += 1
            elif toks[i] == ">":
                depth -= 1
                if depth == 0:
                    i += 1
                    break
            i += 1
        else:
            return 0
    while i + 1 < len(toks) and toks[i] == "[" and toks[i + 1] == "]":
        i += 2
    if i >= len(toks):
        return 0
    name = toks[i]
    if not WORD_RE.fullmatch(name) or name in KEYWORDS:
        return 0
    i += 1
    after = toks[i] if i < len(toks) else None
    if after not in (None, "=", ",", "[", ":"):
        return 0
    if after == ":" and i + 1 < len(toks) and toks[i + 1] == ":":
        return 0  # method reference, not an enhanced-for variable
    count = 1
    depth = 0
    while i < len(toks):
        tok = toks[i]
        if tok in "([{<":
            depth += 1
        elif tok in ")]}>":
            depth = max(0, depth - 1)  # a lone comparison '>' must not skew the depth
        elif tok == "," and depth == 0:
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            after_nxt = toks[i + 2] if i + 2 < len(toks) else None
            if nxt and WORD_RE.fullmatch(nxt) and nxt not in KEYWORDS and after_nxt in (None, "=", ",", "["):
                count += 1
        i += 1
    return count


# ---------------------------------------------------------------------------
# method product metrics


def method_product_metrics(mdef: ModuleDef) -> np.ndarray:
    """12 product metrics of one method segment, ordered as METHOD_METRIC_NAMES."""
    import numpy as np
    seg = _segment(mdef.body)
    body = seg.masked[seg.body_start:] if seg.body_start is not None else ""
    invocations = _invocation_names(body)
    values = (
        float(module_loc(mdef)),
        float(_cyclomatic(seg)),
        float(len(mdef.id.param_types or ())),
        float(seg.nesting),
        float(_count_locals(body)),
        float(len(invocations)),
        float(sum(1 for w in seg.words if w in _LOOP_WORDS)),
        float(_comparisons(seg)),
        float(sum(1 for w in seg.words if w == "return")),
        float(seg.literals),
        float(len({w for w in seg.words if w not in KEYWORDS})),
        float(len(set(invocations))),
    )
    return np.array(values, dtype=np.float64)


# ---------------------------------------------------------------------------
# class product metrics


def _simple_name(qualified: str) -> str:
    return qualified.rsplit(".", 1)[-1]


def _coupled_types(words: Iterable[str], own_name: str) -> set:
    """Distinct names of any script that start uppercase and hold a lowercase letter, own_name excluded."""
    return {
        w
        for w in words
        if w[0].isupper() and w != own_name and any(c.islower() for c in w)
    }


def class_hierarchy(defs: Iterable[ModuleDef]) -> Dict[ModuleId, Tuple[int, int]]:
    """(inheritance depth, number of children) of every class module in defs.

    A supertype resolves by simple name to the first class of that name in
    module sort order.  An external supertype ends the chain, and so does a
    cycle.
    """
    classes = sorted((d for d in defs if d.id.kind == "class"), key=lambda d: d.id)
    by_simple: Dict[str, ModuleId] = {}
    for d in classes:
        by_simple.setdefault(_simple_name(d.id.qualified_class), d.id)
    parent: Dict[ModuleId, Optional[ModuleId]] = {}
    for d in classes:
        name = d.decl.extends_name
        parent[d.id] = by_simple.get(_simple_name(name)) if name else None
    children = Counter(p for mid, p in parent.items() if p is not None and p != mid)

    out: Dict[ModuleId, Tuple[int, int]] = {}
    for mid, cursor in parent.items():
        depth, seen = 0, {mid}
        while cursor is not None and cursor not in seen:
            depth += 1
            seen.add(cursor)
            cursor = parent[cursor]
        out[mid] = (depth, children[mid])
    return out


def class_product_metrics(
    mdef: ModuleDef, hierarchy: Mapping[ModuleId, Tuple[int, int]]
) -> np.ndarray:
    """15 product metrics of one class module, ordered as CLASS_METRIC_NAMES.

    hierarchy is class_hierarchy() of the release snapshot, so inheritance
    depth and child counts resolve within the project.
    """
    import numpy as np
    seg = _segment(mdef.body)
    methods = mdef.decl.methods
    fields = mdef.decl.fields
    field_names = {n for f in fields for n in f.names}

    first = mdef.span[0]  # method spans count lines of the whole file
    wmc = 0
    method_words: List[set] = []
    for m in methods:
        method_seg = _segment(mdef.body[m.span[0] - first:m.span[1] - first + 1])
        wmc += _cyclomatic(method_seg)
        method_words.append(set(method_seg.words))

    # cohesion: method pairs sharing no field reference minus pairs sharing one
    p = q = 0
    if field_names and len(method_words) >= 2:
        uses = [ws & field_names for ws in method_words]
        for i in range(len(uses)):
            for j in range(i + 1, len(uses)):
                if uses[i] & uses[j]:
                    q += 1
                else:
                    p += 1
    lcom = max(0, p - q)

    coupled = _coupled_types(seg.words, _simple_name(mdef.id.qualified_class))

    body = seg.masked[seg.body_start:] if seg.body_start is not None else seg.masked
    rfc = len(methods) + len(set(_invocation_names(body)))

    dit, noc = hierarchy[mdef.id]

    num_static = sum(1 for m in methods if "static" in m.modifiers) + sum(
        len(f.names) for f in fields if "static" in f.modifiers
    )
    num_public = sum(1 for m in methods if "public" in m.modifiers) + sum(
        len(f.names) for f in fields if "public" in f.modifiers
    )

    values = (
        float(module_loc(mdef)),
        float(len(methods)),
        float(sum(len(f.names) for f in fields)),
        float(wmc),
        float(dit),
        float(noc),
        float(len(coupled)),
        float(rfc),
        float(lcom),
        float(seg.nesting),
        float(num_static),
        float(num_public),
        float(seg.literals),
        float(sum(1 for w in seg.words if w in _LOOP_WORDS)),
        float(_comparisons(seg)),
    )
    return np.array(values, dtype=np.float64)


# ---------------------------------------------------------------------------
# process metrics


def process_metrics(
    history: ChangeHistory,
    commit_metadata: Mapping[CommitId, CommitMeta],
    r_commit: CommitId,
) -> np.ndarray:
    """17 history metrics of one module, ordered as PROCESS_METRIC_NAMES.

    Only events strictly before r_commit count; a module born at the release
    has age 0 and every count 0.
    """
    import numpy as np
    events = [e for e in history.events if e.commit != r_commit]
    r_time = commit_metadata[r_commit].timestamp
    birth_time = commit_metadata[history.birth_commit].timestamp

    churns = [e.churn for e in events]
    times = sorted(commit_metadata[e.commit].timestamp for e in events)
    authors = [commit_metadata[e.commit].author for e in events]

    n = len(events)
    total_churn = float(sum(churns))
    age_days = max(0.0, (r_time - birth_time) / _DAY)

    if times:
        days_since_last = max(0.0, (r_time - times[-1]) / _DAY)
        first_offset = max(0.0, (times[0] - birth_time) / _DAY)
    else:
        days_since_last = age_days
        first_offset = 0.0

    density = (n / age_days) if age_days > 0 else 0.0
    weeks = len({t // (7 * 86_400) for t in times})

    max_30d = 0
    lo = 0
    for hi in range(len(times)):
        while times[hi] - times[lo] > _WINDOW_30D:
            lo += 1
        max_30d = max(max_30d, hi - lo + 1)

    churn_90d = float(
        sum(e.churn for e in events if r_time - commit_metadata[e.commit].timestamp <= _WINDOW_90D)
    )

    author_counts: Dict[str, int] = {}
    for a in authors:
        author_counts[a] = author_counts.get(a, 0) + 1
    if len(author_counts) > 1:
        entropy = -sum((c / n) * math.log2(c / n) for c in author_counts.values())
    else:
        entropy = 0.0
    dominant = (max(author_counts.values()) / n) if n else 0.0

    co_change = sum(1 for e in events if e.co_changed >= 2)

    values = (
        float(n),
        float(len(author_counts)),
        total_churn,
        float(sum(e.added for e in events)),
        float(sum(e.deleted for e in events)),
        float(max(churns) if churns else 0),
        (total_churn / n) if n else 0.0,
        age_days,
        days_since_last,
        density,
        float(weeks),
        float(co_change),
        float(max_30d),
        first_offset,
        churn_90d,
        float(entropy),
        float(dominant),
    )
    return np.array(values, dtype=np.float64)
