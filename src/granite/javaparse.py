"""Declaration-level Java source parser.

Extracts type and method/constructor declarations with their exact line spans
so each one can be tracked as a module across commits.  The parser is purely
syntactic: comments and string literals are masked out first, then a token
scan recovers the declaration structure, passing over each body it does not
read by brace matching, without tokenizing it.  Anonymous and local classes
are folded into their enclosing declaration; full semantic analysis (imports,
classpath, overload resolution) is deliberately absent.

Because bodies are passed over, an edit that stays inside one method body, and
that can change neither the masking nor the brace matching around it, changes
no declaration: derive_modules then gives a blob's modules from those of an
earlier blob of its file, moving the lines after the edit, without parsing.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from granite.gitrepo import FileSnapshot
from granite.textdiff import common_affixes

log = logging.getLogger(__name__)

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while record sealed permits
    var yield""".split()
)

MODIFIER_WORDS = frozenset(
    "public private protected static final abstract synchronized native "
    "transient volatile strictfp default sealed".split()
)

_TYPE_WORDS = frozenset({"class", "interface", "enum", "record"})

# a Java identifier: a letter (any script), '_' or '$', then letters, digits, '_' or '$'
IDENT = r"(?:[^\W\d]|\$)[\w$]*"
WORD_RE = re.compile(IDENT)
_TOKEN_RE = re.compile(rf"(?P<word>{IDENT})|\d[0-9A-Za-z_.]*|\S")


# ---------------------------------------------------------------------------
# module identity


class ModuleId(NamedTuple):
    """Identity of a class or method module; file_path is the path at birth.

    A tuple, so hashing and equality run in C: ids key every snapshot and history.
    Its tuple order is the module order; only class ids hold None, and kind sorts them apart from methods.
    """

    kind: str  # "class" | "method"
    file_path: str
    qualified_class: str
    method_name: Optional[str] = None
    param_types: Optional[Tuple[str, ...]] = None

    def __str__(self) -> str:
        if self.kind == "class":
            return f"class:{self.file_path}:{self.qualified_class}"
        params = ",".join(self.param_types or ())
        return f"method:{self.file_path}:{self.qualified_class}#{self.method_name}({params})"


def parse_module_id(text: str) -> ModuleId:
    """Inverse of str(ModuleId); paths and parameter types may contain ':' and '#', types no ',', '(' or ')'.

    Text that is not exactly some id's string raises ValueError.
    """
    kind, _, rest = text.partition(":")
    mid = None
    if kind == "class":
        path, _, qualified = rest.rpartition(":")
        mid = ModuleId("class", path, qualified)
    elif kind == "method":
        head, _, params = rest[:-1].rpartition("(")
        loc, _, name = head.rpartition("#")
        path, _, qualified = loc.rpartition(":")
        mid = ModuleId("method", path, qualified, name, tuple(params.split(",")) if params else ())
    if mid is None or str(mid) != text:
        raise ValueError(f"not a module id: {text!r}")
    return mid


@dataclass(frozen=True, slots=True)
class ModuleDef:
    """An extracted code segment: module identity plus its exact source lines.

    A class module also carries its parsed declaration (spans relative to the
    file); a method module carries none.  The declaration takes no part in
    equality or hashing.
    """

    id: ModuleId
    span: Tuple[int, int]  # 1-based inclusive line numbers
    body: Tuple[str, ...]
    decl: Optional[TypeDecl] = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# masking and tokens


# one alternation, tried left to right at each offset: line comment, block
# comment, text block, string literal, char literal.  An unterminated block
# comment or text block runs to the end of the text; an unterminated string or
# char literal ends at its line's end, unless a backslash escapes the newline.
_MASKED_RE = re.compile(
    r'//[^\n]*|/\*.*?(?:\*/|\Z)|""".*?(?:"""|\Z)'
    r'|"(?:\\.|[^"\\\n])*(?:\\\Z)?"?'
    r"|'(?:\\.|[^'\\\n])*(?:\\\Z)?'?",
    re.S,
)


def mask_source(text: str) -> Tuple[str, List[int]]:
    """Blank out comments and string/char literals, preserving offsets.

    Returns the masked text (same length, newlines kept) and the start offsets
    of the string literals and text blocks that were removed.
    """
    literals: List[int] = []

    def blank(m: re.Match) -> str:
        found = m.group()
        if found[0] == '"':
            literals.append(m.start())
        return "\n".join(" " * len(part) for part in found.split("\n"))

    return _MASKED_RE.sub(blank, text), literals


# ---------------------------------------------------------------------------
# declaration structure


@dataclass(slots=True)
class MethodDecl:
    name: str
    param_types: Tuple[str, ...]
    modifiers: frozenset
    span: Tuple[int, int]  # 1-based inclusive line numbers in the file
    body_open: int  # line of the body's '{'; 0 for a method without a body


@dataclass(slots=True)
class FieldDecl:
    names: Tuple[str, ...]
    modifiers: frozenset


@dataclass(slots=True)
class TypeDecl:
    qualified: str
    extends_name: Optional[str]
    span: Tuple[int, int]
    methods: List[MethodDecl] = field(default_factory=list)
    fields: List[FieldDecl] = field(default_factory=list)


@dataclass
class ParsedFile:
    masked: str
    line_starts: List[int]
    types: List[TypeDecl] = field(default_factory=list)  # every type, nested ones too, in preorder
    error: Optional[str] = None

    def line_of(self, offset: int) -> int:
        return bisect_right(self.line_starts, offset)


class _ParseError(Exception):
    pass


def _is_word(tok: re.Match) -> bool:
    return tok.lastgroup == "word"


_CLOSER = {"(": ")", "[": "]", "{": "}"}
_OPENER = {close: open_ for open_, close in _CLOSER.items()}


def _split_commas(toks: Sequence[re.Match]) -> Tuple[List[List[re.Match]], bool]:
    """Split toks at the commas outside (), <>, [] and {}; also say whether every bracket closed.

    A '>' without its '<' is a comparison and closes nothing.
    """
    segments: List[List[re.Match]] = [[]]
    depth = dict.fromkeys("(<[{", 0)
    for tok in toks:
        c = tok[0]
        if c in depth:
            depth[c] += 1
        elif c in _OPENER:
            depth[_OPENER[c]] -= 1
        elif c == ">":
            depth["<"] = max(0, depth["<"] - 1)
        elif c == "," and not any(depth.values()):
            segments.append([])
            continue
        segments[-1].append(tok)
    return segments, not any(depth.values())


def _declarator_name(toks: Sequence[re.Match]) -> Optional[str]:
    for tok in reversed(toks):
        if _is_word(tok) and tok[0] not in KEYWORDS:
            return tok[0]
    return None


# a record component is a private final field
_RECORD_COMPONENT_MODIFIERS = frozenset({"private", "final"})
# each distinct modifier set -> its one shared copy; at most one entry per subset of MODIFIER_WORDS
_MODIFIER_SETS: Dict[frozenset, frozenset] = {_RECORD_COMPONENT_MODIFIERS: _RECORD_COMPONENT_MODIFIERS}


def _modifier_set(toks: Sequence[re.Match]) -> frozenset:
    """The modifier words among toks, as the one shared frozenset of that set: parse records live as long as a scan."""
    found = frozenset(tok[0] for tok in toks if tok[0] in MODIFIER_WORDS)
    return _MODIFIER_SETS.setdefault(found, found)


class _Parser:
    """Recursive descent over the tokenizer's matches: a token's text is tok[0], its offset tok.start().

    Tokens are made on demand, up to and including the next '{', and skip_balanced jumps over a
    '{...}' group by the brace map without tokenizing it: the parser reads declarations, not bodies.
    """

    def __init__(self, parsed: ParsedFile):
        self.pf = parsed
        self.toks: List[re.Match] = []  # the tokens made so far; the cursor is self.toks[self.i]
        self.i = 0
        self.pos = 0  # offset in the masked text where tokenizing resumes
        # masking blanks the braces of comments and literals, so every brace left is a token
        self.close_of: Dict[int, int] = {}  # offset of each '{' -> offset of its '}'; an unmatched '{' has none
        opened: List[int] = []
        for m in re.finditer(r"[{}]", parsed.masked):
            if m[0] == "{":
                opened.append(m.start())
            elif opened:  # a '}' that closes nothing is ignored
                self.close_of[opened.pop()] = m.start()

    # cursor helpers --------------------------------------------------------

    def _fill(self, j: int) -> bool:
        """Tokenize on, up to and including each next '{', until token j exists; False at end of file."""
        masked = self.pf.masked
        while j >= len(self.toks):
            if self.pos >= len(masked):
                return False
            end = masked.find("{", self.pos) + 1 or len(masked)
            self.toks.extend(_TOKEN_RE.finditer(masked, self.pos, end))
            self.pos = end
        return True

    def peek(self, k: int = 0) -> Optional[re.Match]:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) or self._fill(j) else None

    def at(self, text: str, k: int = 0) -> bool:
        tok = self.peek(k)
        return tok is not None and tok[0] == text

    def at_word(self, k: int = 0) -> bool:
        tok = self.peek(k)
        return tok is not None and _is_word(tok)

    def advance(self) -> re.Match:
        if self.i >= len(self.toks) and not self._fill(self.i):
            raise _ParseError("unexpected end of file")
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def skip_balanced(self, open_ch: str, close_ch: str) -> re.Match:
        """Cursor sits on open_ch; consume through the matching close_ch."""
        if open_ch == "{":
            close = self.close_of.get(self.toks[self.i].start())
            if close is None:
                raise _ParseError("unexpected end of file")
            del self.toks[self.i + 1:]  # lookahead inside the group
            tok = _TOKEN_RE.match(self.pf.masked, close)
            self.toks.append(tok)
            self.i += 2
            self.pos = close + 1
            return tok
        depth = 0
        while True:
            tok = self.advance()
            if tok[0] == open_ch:
                depth += 1
            elif tok[0] == close_ch:
                depth -= 1
                if depth == 0:
                    return tok

    def skip_to(self, *stops: str) -> str:
        """Move to the first token in stops outside (), [] and {}; leave it unconsumed and return its text.

        Each bracket group is passed over whole, matched by its own kind.
        """
        while True:
            tok = self.peek()
            if tok is None:
                raise _ParseError("unexpected end of file")
            text = tok[0]
            if text in stops:
                return text
            if text in _CLOSER:
                self.skip_balanced(text, _CLOSER[text])
            else:
                self.i += 1

    def skip_annotation(self) -> bool:
        """Cursor on '@'. Consumes the annotation; False if this is '@interface'."""
        if self.at("interface", 1):
            return False
        self.advance()  # '@'
        if not self.at_word():
            return True  # stray '@'; tolerate
        self.advance()
        while self.at(".") and self.at_word(1):
            self.advance()
            self.advance()
        if self.at("("):
            self.skip_balanced("(", ")")
        return True

    def _dotted_name(self) -> str:
        parts = [self.advance()[0]]
        while self.at(".") and self.at_word(1):
            self.advance()
            parts.append(self.advance()[0])
        if self.at("<"):
            self.skip_balanced("<", ">")
        return ".".join(parts)

    # grammar ---------------------------------------------------------------

    def parse_unit(self) -> None:
        stmt_start: Optional[int] = None
        while self.peek() is not None:
            tok = self.peek()
            text = tok[0]
            if text in ("package", "import"):
                self.skip_to(";")
            elif text == "@":
                if stmt_start is None:
                    stmt_start = tok.start()
                if not self.skip_annotation():
                    self._parse_type(stmt_start, (), at_interface=True)
                    stmt_start = None
            elif text in _TYPE_WORDS and self._at_type_keyword():
                self._parse_type(stmt_start if stmt_start is not None else tok.start(), ())
                stmt_start = None
            elif text == ";":
                self.advance()
                stmt_start = None
            else:
                if stmt_start is None:
                    stmt_start = tok.start()
                self.advance()

    def _at_type_keyword(self) -> bool:
        """Cursor on a word of _TYPE_WORDS; 'record' is contextual, a declaration only before Name ( or Name <."""
        return self.peek()[0] != "record" or (
            self.at_word(1)
            and self.peek(1)[0] not in KEYWORDS
            and (self.at("(", 2) or self.at("<", 2))
        )

    def _parse_type(self, decl_start: int, chain: Tuple[str, ...], at_interface: bool = False) -> None:
        if at_interface:
            self.advance()  # '@'
            self.advance()  # 'interface'
            keyword = "@interface"
        else:
            keyword = self.advance()[0]
        name_tok = self.advance()
        if not _is_word(name_tok):
            raise _ParseError(f"expected type name after {keyword!r}")
        name = name_tok[0]
        if self.at("<"):
            self.skip_balanced("<", ">")

        extends_name: Optional[str] = None
        record_components: List[Tuple[str, Optional[str]]] = []
        mode = None
        while True:
            tok = self.peek()
            if tok is None:
                raise _ParseError(f"unterminated {keyword} {name}")
            text = tok[0]
            if text == "{":
                break
            if text == ";" and keyword == "@interface":
                break  # tolerate odd files
            if text == "(" and keyword == "record":
                record_components = self._parse_param_list()
                continue
            if text in ("extends", "implements", "permits"):
                mode = text
                self.advance()
            elif _is_word(tok) and text not in KEYWORDS:
                dotted = self._dotted_name()
                if mode == "extends" and extends_name is None:
                    extends_name = dotted
            elif text == "<":
                self.skip_balanced("<", ">")
            else:
                self.advance()

        self.advance()  # '{'
        decl = TypeDecl(".".join(chain + (name,)), extends_name, (0, 0))
        self.pf.types.append(decl)  # ahead of the types nested in it: preorder
        for _, comp_name in record_components:
            if comp_name:
                decl.fields.append(FieldDecl((comp_name,), _RECORD_COMPONENT_MODIFIERS))
        if keyword == "enum":
            self.skip_to(";", "}")  # the constants; the member loop takes the ';' or closes the body
        components = tuple(pt for pt, _ in record_components) if keyword == "record" else None
        close = self._parse_members(decl, chain + (name,), components)
        decl.span = (self.pf.line_of(decl_start), self.pf.line_of(close.start()))

    def _parse_members(
        self, decl: TypeDecl, chain: Tuple[str, ...], components: Optional[Tuple[str, ...]] = None
    ) -> re.Match:
        """The members up to the type's closing brace, which it returns; components are a record's component types."""
        member_start: Optional[int] = None
        pending: List[re.Match] = []

        def reset():
            nonlocal member_start, pending
            member_start = None
            pending = []

        while True:
            tok = self.peek()
            if tok is None:
                raise _ParseError(f"unterminated body of {decl.qualified}")
            text = tok[0]
            if text == "}":
                return self.advance()
            if text == "@":
                if member_start is None:
                    member_start = tok.start()
                if not self.skip_annotation():
                    self._parse_type(member_start, chain, at_interface=True)
                    reset()
            elif text in _TYPE_WORDS and self._at_type_keyword():
                if member_start is None:
                    member_start = tok.start()
                self._parse_type(member_start, chain)
                reset()
            elif text == ";":
                self.advance()
                if pending:
                    segments, closed = _split_commas(pending)
                    if not closed:
                        segments.pop()  # a declarator whose brackets never close names nothing
                    names = [n for seg in segments if (n := _declarator_name(seg))]
                    decl.fields.append(FieldDecl(tuple(names), _modifier_set(pending)))
                reset()
            elif text == "=":
                self.advance()
                segments, _ = _split_commas(pending)
                names = [n for seg in segments if (n := _declarator_name(seg))]
                self._skip_initializers(names)
                if names and member_start is not None:
                    decl.fields.append(FieldDecl(tuple(names), _modifier_set(pending)))
                reset()
            elif text == "(":
                method = self._parse_method(pending, member_start or tok.start())
                if method is not None:
                    decl.methods.append(method)
                reset()
            elif text == "{":
                close = self.skip_balanced("{", "}")
                # `R {` in record R is its compact canonical constructor: the constructor
                # R(components); any other block here is a static or instance initializer
                if components is not None and pending and pending[-1][0] == chain[-1]:
                    span = (self.pf.line_of(member_start), self.pf.line_of(close.start()))
                    body_open = self.pf.line_of(tok.start())
                    decl.methods.append(MethodDecl(chain[-1], components, _modifier_set(pending), span, body_open))
                reset()
            else:
                if member_start is None:
                    member_start = tok.start()
                pending.append(tok)
                self.i += 1

    def _skip_initializers(self, names: List[str]) -> None:
        """After '=', move to the ';' or the type's '}' that ends the field, collecting further declarator names."""
        while self.skip_to(";", ",", "}") == ",":
            self.advance()
            # either the next declarator or a comma inside a generic
            word, nxt = self.peek(), self.peek(1)
            if nxt is not None and _is_word(word) and word[0] not in KEYWORDS and nxt[0] in ("=", ",", ";", "["):
                names.append(word[0])

    def _parse_method(self, pending: List[re.Match], start: int) -> Optional[MethodDecl]:
        name = next((tok[0] for tok in reversed(pending) if _is_word(tok)), None)
        params = self._parse_param_list()
        if name is None or name in KEYWORDS:
            self.skip_to(";", "}")  # expression-looking construct at member level; resynchronize
            return None
        body, end = self._finish_method_header()
        return MethodDecl(
            name,
            tuple(pt for pt, _ in params),
            _modifier_set(pending),
            (self.pf.line_of(start), self.pf.line_of(end.start())),
            self.pf.line_of(body.start()) if body else 0,
        )

    def _finish_method_header(self) -> Tuple[Optional[re.Match], re.Match]:
        """Pass over the throws/default tail and consume the body or ';': (the body's '{' or None, the last token)."""
        if self.skip_to("{", ";", "default") == "default":
            self.skip_to(";")  # an annotation element's default may be an array {...}
        if not self.at("{"):
            return None, self.advance()
        body = self.peek()
        return body, self.skip_balanced("{", "}")

    def _parse_param_list(self) -> List[Tuple[str, Optional[str]]]:
        """Cursor on '('. Returns [(type_name, param_name)] with annotations dropped and generics erased."""
        self.advance()  # '('
        kept: List[re.Match] = []
        depth = 1
        while True:
            tok = self.advance()
            c = tok[0]
            if c == "@":
                self.i -= 1  # back onto the '@'
                if not self.skip_annotation():
                    self.i += 2  # '@interface': dropped like an annotation name
                continue
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if not depth:
                    break
            kept.append(tok)
        segments, _ = _split_commas(kept)
        return [p for p in map(_param_from_segment, segments) if p is not None]


def _param_from_segment(seg: List[re.Match]) -> Optional[Tuple[str, Optional[str]]]:
    """(type, name) of one parameter: 'final' dropped, generic argument lists erased; None without a word."""
    kept = ""  # the words and dots outside generics; the last word is the name
    name: Optional[str] = None
    name_at = brackets = dots = gdepth = 0
    ellipsis = False
    for tok in seg:
        text = tok[0]
        if text == "<":
            gdepth += 1
        elif text == ">":
            gdepth = max(0, gdepth - 1)
        elif not gdepth and text != "final":
            if _is_word(tok):
                name, name_at = text, len(kept)
                kept += text
            elif text == ".":
                kept += "."
            elif text == "[":
                brackets += 1
            dots = dots + 1 if text == "." else 0
            ellipsis = ellipsis or dots == 3
    if name is None:
        return None
    base = kept[:name_at].strip(".")
    if not base:
        base, name = name, None  # unnamed (e.g. receiver-less decl)
    return base + "[]" * brackets + ("..." if ellipsis else ""), name


# ---------------------------------------------------------------------------
# public API


def parse_source(text: str) -> ParsedFile:
    """Parse Java source into its type declarations, in preorder; failures set .error and leave no types."""
    masked, _ = mask_source(text)
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    parsed = ParsedFile(masked=masked, line_starts=line_starts)
    parser = _Parser(parsed)
    try:
        parser.parse_unit()
    except (_ParseError, RecursionError) as exc:
        parsed.types = []
        parsed.error = str(exc) or exc.__class__.__name__
    return parsed


def extract_modules(snapshot: FileSnapshot, dropped_ids: Optional[List[ModuleId]] = None) -> Optional[List[ModuleDef]]:
    """One ModuleDef per type declaration and per method/constructor declaration.

    Of two types with one qualified name the first is kept; the second goes with its
    methods and the types nested in it, each with a warning.  Of two methods with one
    id the first is kept, with a warning.  The id of each declaration left out is also
    appended to dropped_ids, when given.  A file that does not parse is warned about
    and gives None; [] is a file without types.
    """
    text = "\n".join(snapshot.lines)
    parsed = parse_source(text)
    if parsed.error:
        log.warning("%s@%s: skipped, parse failed: %s", snapshot.path, snapshot.blob[:10], parsed.error)
        return None
    defs: List[ModuleDef] = []
    seen: Dict[ModuleId, bool] = {}
    dropped_ids = [] if dropped_ids is None else dropped_ids

    def segment(span: Tuple[int, int]) -> Tuple[str, ...]:
        # the blob's own line strings, so a cached module holds no second copy
        return tuple(snapshot.lines[span[0] - 1:span[1]])

    dropped: Tuple[str, ...] = ()  # "A." per dropped type A; in preorder its nested types follow it
    for t in parsed.types:
        cid = ModuleId("class", snapshot.path, t.qualified)
        if cid in seen or t.qualified.startswith(dropped):
            log.warning(
                "%s: dropping type %s and its methods: it or a type around it repeats an earlier type",
                snapshot.path, t.qualified,
            )
            dropped_ids.append(cid)
            dropped += (t.qualified + ".",)
            continue
        seen[cid] = True
        defs.append(ModuleDef(cid, t.span, segment(t.span), t))
        for m in t.methods:
            mid = ModuleId("method", snapshot.path, t.qualified, m.name, m.param_types)
            if mid in seen:
                log.warning("%s: duplicate method %s; keeping first", snapshot.path, mid)
                dropped_ids.append(mid)
                continue
            seen[mid] = True
            defs.append(ModuleDef(mid, m.span, segment(m.span)))
    return defs


# a line holding one of these may open or close a comment or a literal, or carry a literal on to the next line
_MASK_MARK_RE = re.compile(r"[\"'\\]|/[/*]|\*/")


def _braces_nest(text: str) -> bool:
    """The braces of text never close below the depth it starts at, and balance at its end."""
    depth = 0
    for brace in re.findall(r"[{}]", text):
        depth += 1 if brace == "{" else -1
        if depth < 0:
            return False
    return depth == 0


def derive_modules(
    parent_defs: Sequence[ModuleDef], parent_lines: Sequence[str], snapshot: FileSnapshot
) -> Optional[List[ModuleDef]]:
    """The blob's modules from those of an earlier blob of its file, or None where only a full parse gives them.

    The edit between the two blobs is what their common prefix and suffix leave.
    When it lies strictly inside one method's body on both sides (below the line of
    the body's '{' and above that of its '}'), its braces nest on both sides, and
    neither side of it, nor the line before it, holds a quote, a backslash or a
    comment mark, then masking and the brace map outside the edit are as they were
    and the parser, which passes over bodies, reads the same declarations.  So the
    modules are the parent's, in their order: every line after the edit moves by
    the difference in line count, and the bodies that hold the edit are sliced from
    the new lines.  Records the edit does not touch are shared, none is mutated.

    parent_defs must be a full parse's result, or derived from one, that dropped
    nothing: the warnings of a dropped declaration come from extract_modules alone.
    """
    old, new = parent_lines, snapshot.lines
    lo, hi = common_affixes(old, new)
    end = len(old) - hi  # the edit replaces old lines lo + 1 .. end (1-based) with new lines lo + 1 .. len(new) - hi
    if not any(0 < m.body_open <= lo and end < m.span[1] for d in parent_defs if d.decl for m in d.decl.methods):
        return None
    edits = ("\n".join(old[lo:end]), "\n".join(new[lo:len(new) - hi]))
    if _MASK_MARK_RE.search(old[lo - 1]) or any(_MASK_MARK_RE.search(e) or not _braces_nest(e) for e in edits):
        return None
    delta = len(new) - len(old)

    def moved(line: int) -> int:
        return line + delta if line > lo else line  # no declaration has a line inside the edit

    def method(m: MethodDecl) -> MethodDecl:
        if m.span[1] <= lo:
            return m
        return MethodDecl(m.name, m.param_types, m.modifiers, (moved(m.span[0]), m.span[1] + delta), moved(m.body_open))

    out: List[ModuleDef] = []
    for d in parent_defs:
        first, last = d.span
        if last <= lo or (first > lo and not delta):  # before the edit, or after one that keeps the line count
            out.append(d)
            continue
        span = (moved(first), last + delta)
        body = tuple(new[first - 1:span[1]]) if first <= lo else d.body
        decl = d.decl
        if decl and delta:
            decl = TypeDecl(decl.qualified, decl.extends_name, span, list(map(method, decl.methods)), decl.fields)
        out.append(ModuleDef(d.id, span, body, decl))
    return out
