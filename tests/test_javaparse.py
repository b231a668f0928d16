import logging
import textwrap
from dataclasses import asdict
from typing import List, Tuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from granite import javaparse
from granite.gitrepo import FileSnapshot
from granite.javaparse import (
    KEYWORDS,
    FieldDecl,
    MethodDecl,
    ModuleId,
    TypeDecl,
    _is_word,
    _modifier_set,
    _ParseError,
    _split_commas,
    derive_modules,
    extract_modules,
    mask_source,
    parse_module_id,
    parse_source,
)


def snap(source, path="src/Sample.java"):
    return FileSnapshot(path=path, lines=tuple(textwrap.dedent(source).split("\n")), commit="0" * 40)


def ids(defs):
    return {str(d.id) for d in defs}


SIMPLE = """\
    package demo;

    import java.util.List;

    public class Calc {
        private int total;

        public int add(int x) {
            total += x;
            return total;
        }

        public void reset() {
            total = 0;
        }
    }
    """


def test_one_class_two_methods():
    defs = extract_modules(snap(SIMPLE))
    assert ids(defs) == {
        "class:src/Sample.java:Calc",
        "method:src/Sample.java:Calc#add(int)",
        "method:src/Sample.java:Calc#reset()",
    }


def test_spans_and_bodies_match_file_lines():
    snapshot = snap(SIMPLE)
    defs = extract_modules(snapshot)
    by_id = {str(d.id): d for d in defs}
    add = by_id["method:src/Sample.java:Calc#add(int)"]
    assert snapshot.lines[add.span[0] - 1].strip().startswith("public int add")
    assert snapshot.lines[add.span[1] - 1].strip() == "}"
    assert add.body == snapshot.lines[add.span[0] - 1:add.span[1]]
    cls = by_id["class:src/Sample.java:Calc"]
    assert cls.span[0] <= add.span[0] and add.span[1] <= cls.span[1]


def test_nested_type_dot_qualified():
    source = """\
    class Outer {
        static class Inner {
            void ping() {}
        }
        void outerMethod() {}
    }
    """
    defs = extract_modules(snap(source))
    assert "class:src/Sample.java:Outer.Inner" in ids(defs)
    assert "method:src/Sample.java:Outer.Inner#ping()" in ids(defs)
    assert "method:src/Sample.java:Outer#outerMethod()" in ids(defs)


def test_overloads_distinct_by_param_types():
    source = """\
    class F {
        void f(int a) {}
        void f(String a) {}
        void f(java.util.List<String> items, int... rest) {}
    }
    """
    defs = extract_modules(snap(source))
    assert "method:src/Sample.java:F#f(int)" in ids(defs)
    assert "method:src/Sample.java:F#f(String)" in ids(defs)
    assert "method:src/Sample.java:F#f(java.util.List,int...)" in ids(defs)


def test_constructor_counts_as_method():
    source = """\
    class Box {
        Box(int size) {}
    }
    """
    defs = extract_modules(snap(source))
    assert "method:src/Sample.java:Box#Box(int)" in ids(defs)


def test_a_records_compact_constructor_is_its_canonical_constructor():
    compact = """\
    record R(int a, String b) {
      public R {
        if (a < 0) throw new IllegalArgumentException();
      }
      int twice() { return 2 * a; }
      static { LOG.info("loaded"); }
    }
    """
    explicit = compact.replace("public R {", "public R(int a, String b) {")
    for source in (compact, explicit):
        defs = extract_modules(snap(source))
        assert [(str(d.id), d.span) for d in defs] == [
            ("class:src/Sample.java:R", (1, 7)),
            ("method:src/Sample.java:R#R(int,String)", (2, 4)),
            ("method:src/Sample.java:R#twice()", (5, 5)),
        ]
    generic = "record P<T>(@NonNull T x, List<T> y) {\n  P {\n  }\n  class Inner {\n    { init(); }\n  }\n}\n"
    assert ids(extract_modules(snap(generic))) == {
        "class:src/Sample.java:P",
        "method:src/Sample.java:P#P(T,List)",
        "class:src/Sample.java:P.Inner",
    }


def test_anonymous_class_folds_into_method():
    source = """\
    class A {
        void run() {
            Runnable r = new Runnable() {
                public void run() { System.out.println("x"); }
            };
            r.run();
        }
    }
    """
    defs = extract_modules(snap(source))
    assert ids(defs) == {
        "class:src/Sample.java:A",
        "method:src/Sample.java:A#run()",
    }


def test_field_initializer_with_anonymous_class_is_not_a_method():
    source = """\
    class A {
        static final Runnable R = new Runnable() {
            public void run() {}
        };
        void real() {}
    }
    """
    defs = extract_modules(snap(source))
    method_ids = {str(d.id) for d in defs if d.id.kind == "method"}
    assert method_ids == {"method:src/Sample.java:A#real()"}


def test_interface_enum_and_initializer_blocks():
    source = """\
    interface Api {
        int VERSION = 1;
        void call(String payload);
    }

    enum Mode {
        ON("on"), OFF("off") {
            public String toString() { return "off"; }
        };

        private final String label;

        Mode(String label) { this.label = label; }

        public String label() { return label; }
    }

    class WithInit {
        static int counter;
        static {
            counter = 1;
        }
        int bump() { return ++counter; }
    }
    """
    defs = extract_modules(snap(source))
    got = ids(defs)
    assert "class:src/Sample.java:Api" in got
    assert "method:src/Sample.java:Api#call(String)" in got
    assert "class:src/Sample.java:Mode" in got
    assert "method:src/Sample.java:Mode#Mode(String)" in got
    assert "method:src/Sample.java:Mode#label()" in got
    assert "method:src/Sample.java:WithInit#bump()" in got
    # no module for the enum constants or the static initializer
    assert not any("toString" in g for g in got)


def test_generic_annotated_and_throws_signatures():
    source = """\
    import java.io.IOException;
    import java.util.Map;

    public abstract class Store<K, V extends Comparable<V>> {
        @Deprecated
        public <T> Map<K, T> load(Map<K, ? extends T> seed, int limit) throws IOException {
            return null;
        }

        protected abstract V pick(K key) throws IOException;

        public void copy(final V[] from, V[] to) {}
    }
    """
    defs = extract_modules(snap(source))
    got = ids(defs)
    assert "method:src/Sample.java:Store#load(Map,int)" in got
    assert "method:src/Sample.java:Store#pick(K)" in got
    assert "method:src/Sample.java:Store#copy(V[],V[])" in got


def test_annotation_lines_included_in_method_span():
    source = """\
    class A {
        @Deprecated
        @SuppressWarnings("unchecked")
        void old() {
        }
    }
    """
    snapshot = snap(source)
    defs = extract_modules(snapshot)
    method = next(d for d in defs if d.id.kind == "method")
    assert snapshot.lines[method.span[0] - 1].strip() == "@Deprecated"


def test_comments_strings_do_not_break_structure():
    source = """\
    class Tricky {
        // a comment with a stray { brace
        String s = "not a method(int x) { }";
        /* multi
           line } comment */
        char c = '{';
        void real(String t) {
            String u = "quote \\" and { brace";
        }
    }
    """
    defs = extract_modules(snap(source))
    method_ids = {str(d.id) for d in defs if d.id.kind == "method"}
    assert method_ids == {"method:src/Sample.java:Tricky#real(String)"}


def test_unparseable_file_skipped():
    source = """\
    class Broken {
        void f() {
    """
    assert extract_modules(snap(source)) is None
    assert extract_modules(snap("package p;\n")) == []  # parses, and declares no type


def test_mask_source_counts_string_literals():
    masked, literals = mask_source('x = "a" + "b"; // "c"\nchar q = \'"\';')
    assert len(literals) == 2
    assert '"' not in masked.replace('\n', '')


def scanned_mask_source(text: str) -> Tuple[str, List[int]]:
    """The masker that scanned one character at a time; kept as the oracle."""
    out = list(text)
    literals: List[int] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            for k in range(i, end):
                if out[k] != "\n":
                    out[k] = " "
            i = end
        elif ch == '"' and text.startswith('"""', i):
            literals.append(i)
            j = text.find('"""', i + 3)
            end = n if j == -1 else j + 3
            for k in range(i, end):
                if out[k] != "\n":
                    out[k] = " "
            i = end
        elif ch == '"' or ch == "'":
            quote = ch
            if quote == '"':
                literals.append(i)
            j = i + 1
            while j < n:
                c = text[j]
                if c == "\\" and j + 1 < n:
                    j += 2
                    continue
                if c == quote or c == "\n":
                    break
                j += 1
            end = j + 1 if j < n and text[j] == quote else min(j, n)
            for k in range(i, min(end, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = max(end, i + 1)
        else:
            i += 1
    return "".join(out), literals


# quotes, slashes, stars, backslashes and newlines make every masking rule meet every other
_MASKABLE = st.text(st.sampled_from("\"'/*\\\n") | st.sampled_from("a {") | st.characters()) | st.text()


@settings(deadline=None)
@given(_MASKABLE)
@example('x = "open')
@example("c = 'x")
@example('s = """open\n{')
@example("s = \"a\\")
@example("a /*/ b\n}")
@example('s = "a\\\nb" + c;\n')
@example('"""a"""b')
@example("'\"'")
def test_mask_source_equals_the_character_scanner(text):
    assert mask_source(text) == scanned_mask_source(text)


def test_module_id_roundtrip():
    mid = ModuleId("method", "src/a/B.java", "B.Inner", "f", ("int", "String[]"))
    assert parse_module_id(str(mid)) == mid
    cid = ModuleId("class", "src/a/B.java", "B.Inner")
    assert parse_module_id(str(cid)) == cid
    for path in ("src/a#b/A.java", "src/a#b:c/A.java"):
        mid = ModuleId("method", path, "A", "m", ("int",))
        assert parse_module_id(str(mid)) == mid
        cid = ModuleId("class", path, "A")
        assert parse_module_id(str(cid)) == cid


def test_parse_module_id_rejects_text_that_is_not_exactly_an_ids_string():
    # the first four each parsed to another id: `method:a:B#f(in)`, `method::#()`, `class::x`, `method::#(a:B#)`
    for text in ("method:a:B#f(int", "method:x", "class:x", "method:a:B#f", "None", "", "klass:a:B"):
        with pytest.raises(ValueError, match="not a module id"):
            parse_module_id(text)


# well-formed declarations nest to any depth; stray tokens between and inside them break them in arbitrary places
_WELL_FORMED_MEMBERS = (
    "int x;", "int[] a = {1, 2};", "void f() { g(); }", "int g(int a, String... b) { return a; }",
    "A() { super(); }", "abstract void h() throws E;", "@Override public String s() { return \"}\"; }",
    "static { x = 1; }", "Runnable r = new Runnable() { public void run() {} };", "String v() default \"{\";",
    "/* } */ // {", "ONE, TWO;", "int a, b[], c = 1, d;", "Map<K, List<V>> m, n;",
    "void p(@Named(value = \"x\", n = 2) final Map<String, List<Integer>> m, int[]... rest) {}",
    "int[] v() default {1, 2};", "A(1) { void f() {} }, B(2);", "Runnable r = () -> { a(); }, s = null;",
    "void q(@A(b = @B(c = {1, 2})) int p) {}", "char c() { return '}'; }", "void k() { /* } */ x(); // }\n}",
    'String t() { return """\n  } {\n  """; }',
)
_MEMBERS = st.sampled_from(_WELL_FORMED_MEMBERS + ("if (x) { y(); }",))  # a statement where a member belongs
_STRAY = st.sampled_from((
    "{", "}", "(", ")", ";", "<", ">", "@", "class", '"', "'", "/*", "*/", "//", "\\", "\n", ",", "[", "]", "=",
))


def _declarations(members, stray=st.nothing()):
    return st.recursive(
        members,
        lambda inner: st.builds(
            "{} {} {{\n{}\n}}".format,
            st.sampled_from(("class", "interface", "enum", "record", "@interface", "public static class")),
            st.sampled_from(("A", "B extends A", "C<T> implements I, J", "R(int a)")),
            st.lists(inner | stray, max_size=4).map("\n".join),
        ),
        max_leaves=12,
    )


_DECLS = _declarations(_MEMBERS, _STRAY)
_SOURCES = st.text() | st.lists(_DECLS | _STRAY, max_size=8).map("\n".join)


@settings(deadline=None)
@given(_SOURCES)
def test_parse_source_never_raises_and_nests_spans_in_bounds(text):
    parsed = parse_source(text)
    n_lines = len(text.split("\n"))

    def check(span, outer):
        assert 1 <= span[0] <= span[1] <= n_lines
        assert outer[0] <= span[0] and span[1] <= outer[1]

    for i, t in enumerate(parsed.types):
        # in preorder a nested type's enclosing type is the nearest earlier one whose name is its prefix
        outer = next((o for o in reversed(parsed.types[:i]) if t.qualified.startswith(o.qualified + ".")), None)
        assert (outer is None) == ("." not in t.qualified)
        check(t.span, outer.span if outer else (1, n_lines))
        for m in t.methods:
            check(m.span, t.span)


_IDENT = st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,6}", fullmatch=True)
# the separators of str(ModuleId) come up often; any other character may too
_PATHS = st.text(st.sampled_from(":#()/.") | st.characters(blacklist_characters="\n"), max_size=20)
_PARAM_TYPES = st.lists(
    st.text(st.sampled_from(":#<>[]. ") | st.characters(blacklist_characters=",()"), min_size=1, max_size=8),
    max_size=3,
)


@given(
    _PATHS,
    st.lists(_IDENT, min_size=1, max_size=3).map(".".join),
    st.one_of(st.none(), st.tuples(_IDENT, _PARAM_TYPES.map(tuple))),
)
def test_module_id_roundtrips_on_any_extractable_id(path, qualified, method):
    if method is None:
        mid = ModuleId("class", path, qualified)
    else:
        mid = ModuleId("method", path, qualified, *method)
    assert parse_module_id(str(mid)) == mid


def test_method_span_inside_exactly_one_class_span():
    source = """\
    class Outer {
        int a;
        class Inner {
            void deep() { if (a > 0) { a--; } }
        }
        void shallow() {}
    }
    """
    defs = extract_modules(snap(source))
    classes = [d for d in defs if d.id.kind == "class"]
    methods = [d for d in defs if d.id.kind == "method"]
    for m in methods:
        owners = [
            c for c in classes
            if c.span[0] <= m.span[0] and m.span[1] <= c.span[1]
            and c.id.qualified_class == m.id.qualified_class
        ]
        assert len(owners) == 1


def test_a_duplicate_type_goes_with_its_methods_and_nested_types(caplog):
    source = "class A { void f() {} }\nclass A { void g() {} class C { void h() {} } }\nclass AB { void k() {} }"
    with caplog.at_level(logging.WARNING, logger="granite.javaparse"):
        defs = extract_modules(snap(source, "A.java"))
    assert [(str(d.id), d.span) for d in defs] == [
        ("class:A.java:A", (1, 1)),
        ("method:A.java:A#f()", (1, 1)),
        ("class:A.java:AB", (3, 3)),
        ("method:A.java:AB#k()", (3, 3)),
    ]
    assert [m.name for m in defs[0].decl.methods] == ["f"]
    assert [r.getMessage() for r in caplog.records] == [
        f"A.java: dropping type {name} and its methods: it or a type around it repeats an earlier type"
        for name in ("A", "A.C")
    ]


def test_a_duplicate_method_keeps_the_first(caplog):
    source = "class A {\n    void f() {}\n    void f() { int x; }\n}"
    with caplog.at_level(logging.WARNING, logger="granite.javaparse"):
        defs = extract_modules(snap(source, "A.java"))
    assert [(str(d.id), d.span) for d in defs] == [("class:A.java:A", (1, 4)), ("method:A.java:A#f()", (2, 2))]
    assert [r.getMessage() for r in caplog.records] == ["A.java: duplicate method method:A.java:A#f(); keeping first"]


def test_parse_records_have_no_instance_dict():
    # a blob's records stay cached for a whole scan, so none carries a per-instance __dict__
    defs = extract_modules(snap("class A {\n    private int x;\n    void f(int y) {}\n}\n"))
    decl = defs[0].decl
    records = [*defs, decl, *decl.methods, *decl.fields]
    assert [type(r).__name__ for r in records] == ["ModuleDef", "ModuleDef", "TypeDecl", "MethodDecl", "FieldDecl"]
    assert not any(hasattr(r, "__dict__") for r in records)


def test_equal_modifier_sets_are_one_shared_object():
    a = extract_modules(snap("class A {\n    public static void f() {}\n}\n", "A.java"))[0].decl
    b = extract_modules(snap("class B {\n    static public int g(int x) { return x; }\n}\n", "B.java"))[0].decl
    (f,), (g,) = a.methods, b.methods
    assert f.modifiers == {"public", "static"} and f.modifiers is g.modifiers
    # a record component is a private final field, like a declared one
    r = parse_source("record R(int x) {\n    private final int y = 0;\n}\n").types[0]
    assert [fd.names for fd in r.fields] == [("x",), ("y",)]
    assert r.fields[0].modifiers == {"private", "final"} and r.fields[0].modifiers is r.fields[1].modifiers


def test_dotted_and_generic_supertypes_and_dotted_annotations_with_arguments():
    parsed = parse_source(
        "@java.lang.Deprecated\n"
        "public class Sub extends p.Base<java.util.Map<String, Integer>>\n"
        "        implements java.io.Serializable, Comparable<Sub> {\n"
        "    @javax.annotation.Nullable(value = \"x\") int f(java.util.List<String> xs) { return 0; }\n"
        "}\n"
    )
    assert parsed.error is None
    sub = parsed.types[0]
    assert sub.extends_name == "p.Base"
    assert sub.span == (1, 5)  # from the annotation's line
    assert [(m.name, m.param_types) for m in sub.methods] == [("f", ("java.util.List",))]


def test_parse_source_structure_details():
    parsed = parse_source(
        "public class A extends Base implements X, Y {\n"
        "    private static int count, total;\n"
        "    public final String name = \"n\";\n"
        "    public A() {}\n"
        "    int get() { return count; }\n"
        "}\n"
    )
    assert parsed.error is None
    cls = parsed.types[0]
    assert cls.qualified == "A"
    assert cls.extends_name == "Base"
    assert cls.span == (1, 6)
    assert [(f.names, f.modifiers) for f in cls.fields] == [
        (("count", "total"), {"private", "static"}),
        (("name",), {"public", "final"}),
    ]
    assert [(m.name, m.param_types, m.modifiers, m.span) for m in cls.methods] == [
        ("A", (), {"public"}, (4, 4)),
        ("get", (), frozenset(), (5, 5)),
    ]


def test_array_return_and_generic_members():
    source = """\
    class Arrays {
        int[] firstTwo(int[] xs) {
            return new int[] {xs[0], xs[1]};
        }
        <T extends Comparable<T>> T max(T a, T b) {
            return a.compareTo(b) > 0 ? a : b;
        }
    }
    """
    defs = extract_modules(snap(source))
    got = ids(defs)
    assert "method:src/Sample.java:Arrays#firstTwo(int[])" in got
    assert "method:src/Sample.java:Arrays#max(T,T)" in got


def test_annotated_varargs_parameter():
    source = """\
    class V {
        void log(@Nullable final String fmt, @NonNull Object... args) {}
    }
    """
    defs = extract_modules(snap(source))
    assert "method:src/Sample.java:V#log(String,Object...)" in ids(defs)


def test_enum_inside_interface_and_annotation_type():
    source = """\
    public interface Plugin {
        enum Kind { READER, WRITER }
        Kind kind();
    }

    @interface Marker {
        String value() default "none";
    }
    """
    defs = extract_modules(snap(source))
    got = ids(defs)
    assert "class:src/Sample.java:Plugin" in got
    assert "class:src/Sample.java:Plugin.Kind" in got
    assert "method:src/Sample.java:Plugin#kind()" in got
    assert "class:src/Sample.java:Marker" in got


def test_field_array_initializer_not_a_method():
    source = """\
    class F {
        static final int[] TABLE = {1, 2, 3};
        int use() { return TABLE[0]; }
    }
    """
    defs = extract_modules(snap(source))
    method_ids = {str(d.id) for d in defs if d.id.kind == "method"}
    assert method_ids == {"method:src/Sample.java:F#use()"}


def test_generated_declarations_pinned():
    # the multi-declarator fields and the annotated generic varargs parameters of the generator below
    parsed = parse_source(
        "class G<K, V> {\n"
        "    Map<K, List<V>> m, n;\n"
        "    ONE, TWO;\n"
        "    int g(int a, String... b) { return a; }\n"
        "    void p(@Named(value = \"x\", n = 2) final Map<String, List<Integer>> m, int[]... rest) {}\n"
        "}\n"
    )
    (cls,) = parsed.types
    assert [f.names for f in cls.fields] == [("m", "n"), ("ONE", "TWO")]
    assert [(m.name, m.param_types) for m in cls.methods] == [
        ("g", ("int", "String...")),
        ("p", ("Map", "int[]...")),
    ]


def test_generated_skips_pinned():
    # the array default (its ';' on a line of its own ends the element), enum constants with bodies, lambda
    # initializer, member-level statement and nested annotation arguments of the generator above; the
    # statement runs to the next ';' and takes `int z` with it
    parsed = parse_source(
        "class G {\n"
        "    int[] v() default {1, 2}\n"
        "    ;\n"
        "    enum E {\n"
        "        A(1) { void f() {} }, B(2);\n"
        "        Runnable r = () -> { a(); }, s = null;\n"
        "        if (x) { y(); }\n"
        "        int z;\n"
        "        void q(@A(b = @B(c = {1, 2})) int p) {}\n"
        "    }\n"
        "}\n"
    )
    assert parsed.error is None
    cls, enum = parsed.types
    assert (cls.span, [(m.name, m.param_types, m.span) for m in cls.methods]) == ((1, 11), [("v", (), (2, 3))])
    assert (enum.qualified, enum.span) == ("G.E", (4, 10))
    assert [f.names for f in enum.fields] == [("r", "s")]
    assert [(m.name, m.param_types, m.span) for m in enum.methods] == [("q", ("int",), (9, 9))]


def test_recovery_pinned():
    # an initializer that runs to the end of the file ends the parse
    assert parse_source("class A { int x = 1").error == "unexpected end of file"
    # type parameters after `extends` are passed over
    (cls,) = parse_source("class A extends <T> B { void f() {} }").types
    assert (cls.qualified, cls.extends_name, [m.name for m in cls.methods]) == ("A", "B", ["f"])
    # a declarator whose brackets never close names nothing; the next member still reads
    (cls,) = parse_source("class A { int a, b[; void f() {} }").types
    assert ([f.names for f in cls.fields], [m.name for m in cls.methods]) == ([("a",)], ["f"])


def test_braces_pinned():
    # a stray '}' before a type opens its statement; braces in comments and literals are masked; a lambda
    # body, an enum constant's body and an array default are passed over; a '{' that never closes fails
    parsed = parse_source(
        "}\n"
        "class A {\n"
        "    void c() { /* } */ x(); // }\n"
        "    }\n"
        "    String s() { return \"}\"; }\n"
        "    char ch() { return '}'; }\n"
        "    String t() {\n"
        "        return \"\"\"\n"
        "            }\n"
        "            \"\"\";\n"
        "    }\n"
        "    Runnable r = () -> { a(); };\n"
        "    enum E { ONE { void f() {} }, TWO; void g() {} }\n"
        "    int[] v() default {1, 2};\n"
        "    void last() {}\n"
        "}\n"
    )
    assert parsed.error is None
    cls, enum = parsed.types
    assert (cls.span, [f.names for f in cls.fields]) == ((1, 16), [("r",)])
    assert [(m.name, m.span) for m in cls.methods] == [
        ("c", (3, 4)), ("s", (5, 5)), ("ch", (6, 6)), ("t", (7, 11)), ("v", (14, 14)), ("last", (15, 15)),
    ]
    assert (enum.qualified, enum.span) == ("A.E", (13, 13))
    assert [(m.name, m.span) for m in enum.methods] == [("g", (13, 13))]
    for source, error in (
        ("class A {\n  void f() {\n    if (x) {\n  }\n}\n", "unterminated body of A"),
        ("class A { void f() {} }\nclass B { void g() { { }\n", "unexpected end of file"),
    ):
        parsed = parse_source(source)
        assert (parsed.error, parsed.types) == (error, [])


def test_bodies_are_not_tokenized():
    body = "\n".join(f"        s{i} = g(s{i - 1}); if (s{i} > 0) {{ s{i}--; }}" for i in range(1, 5001))
    parsers = []

    class Kept(javaparse._Parser):
        def __init__(self, parsed):
            super().__init__(parsed)
            parsers.append(self)

    with mock.patch.object(javaparse, "_Parser", Kept):
        parsed = parse_source(f"class A {{\n    void f() {{\n{body}\n    }}\n}}\n")
    assert [(m.name, m.span) for m in parsed.types[0].methods] == [("f", (2, 5003))]
    assert len(parsers[0].toks) < 50  # class and method headers only


class _EagerParser(javaparse._Parser):
    """The cursor before the brace map: every token made up front, and '{...}' stepped through token by token.

    It is the oracle that tokenizing on demand and jumping over bodies leave every parse as it was.
    """

    def __init__(self, parsed):
        self.pf = parsed
        self.toks = list(javaparse._TOKEN_RE.finditer(parsed.masked))
        self.i = 0

    def peek(self, k=0):
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def advance(self):
        if self.i >= len(self.toks):
            raise _ParseError("unexpected end of file")
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def skip_balanced(self, open_ch, close_ch):
        depth = 0
        while True:
            tok = self.advance()
            if tok[0] == open_ch:
                depth += 1
            elif tok[0] == close_ch:
                depth -= 1
                if depth == 0:
                    return tok


def _listed_param(seg):
    """_param_from_segment as it was, over lists of the kept tokens, their words and their texts."""
    flat = []
    gdepth = 0
    for tok in seg:
        text = tok[0]
        if text == "<":
            gdepth += 1
        elif text == ">":
            gdepth = max(0, gdepth - 1)
        elif not gdepth and text != "final":
            flat.append(tok)

    words = [idx for idx, tok in enumerate(flat) if _is_word(tok)]
    if not words:
        return None
    name_idx = words[-1]
    name = flat[name_idx][0]
    base = "".join(tok[0] for tok in flat[:name_idx] if _is_word(tok) or tok[0] == ".").strip(".")
    if not base:
        base, name = name, None
    texts = [tok[0] for tok in flat]
    brackets = texts.count("[")
    ellipsis = any(a == b == c == "." for a, b, c in zip(texts, texts[1:], texts[2:]))
    return base + "[]" * brackets + ("..." if ellipsis else ""), name


@settings(deadline=None)
@given(_SOURCES)
@example("class A { void f() { if (x) { y(); } } int g() { return '}'; } }")
@example('class A { void f() { /* } */ } String t() { return """\n}\n"""; } } } class B { {')
@example("class A {\n int a = 1, { b(); }\n int c;\n void d() {}\n}")  # lookahead inside a group jumped over
@example("class A { void f(a..b c, d....e f, final List<X>... g, int[] h[], @A() i, a.b.c.d j) {} }")
def test_brace_map_parses_like_the_eager_tokenizer(text):
    parsed = parse_source(text)
    with mock.patch.object(javaparse, "_Parser", _EagerParser), \
            mock.patch.object(javaparse, "_param_from_segment", _listed_param):
        oracle = parse_source(text)
    assert _parsed_fields(parsed) == _parsed_fields(oracle)


class _DepthLoopParser(_EagerParser):
    """The parser before skip_to, with a hand-written depth loop for each construct it passes over.

    It is the oracle that well-formed sources parse the same with one skip primitive.  The
    package/import skip of parse_unit is left out: the generator writes no such statement.
    """

    def _parse_type(self, decl_start, chain, at_interface=False):
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

        extends_name = None
        record_components = []
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
        self.pf.types.append(decl)
        for _, comp_name in record_components:
            if comp_name:
                decl.fields.append(FieldDecl((comp_name,), frozenset({"private", "final"})))
        if keyword == "enum":
            self._skip_enum_constants()
        components = tuple(pt for pt, _ in record_components) if keyword == "record" else None
        close = self._parse_members(decl, chain + (name,), components)
        decl.span = (self.pf.line_of(decl_start), self.pf.line_of(close.start()))

    def _skip_enum_constants(self):
        depth = 0
        while True:
            tok = self.peek()
            if tok is None:
                raise _ParseError("unterminated enum body")
            text = tok[0]
            if depth == 0 and text == ";":
                self.advance()
                return
            if depth == 0 and text == "}":
                return  # constants only; member loop closes the body
            if text in ("{", "("):
                depth += 1
            elif text in ("}", ")"):
                depth -= 1
            self.advance()

    def _skip_initializers(self, names):
        depth = 0
        while True:
            c = self.advance()[0]
            if c in "({[":
                depth += 1
            elif c in ")}]":
                depth -= 1
            elif c == ";" and depth == 0:
                return
            elif c == "," and depth == 0:
                if (
                    self.at_word()
                    and self.peek()[0] not in KEYWORDS
                    and self.peek(1) is not None
                    and self.peek(1)[0] in ("=", ",", ";", "[")
                ):
                    names.append(self.peek()[0])

    def _parse_method(self, pending, start):
        name = next((tok[0] for tok in reversed(pending) if _is_word(tok)), None)
        params = self._parse_param_list()
        if name is None or name in KEYWORDS:
            self._resync_member()
            return None
        body, end = self._finish_method_header()
        return MethodDecl(
            name,
            tuple(pt for pt, _ in params),
            _modifier_set(pending),
            (self.pf.line_of(start), self.pf.line_of(end.start())),
            self.pf.line_of(body.start()) if body else 0,
        )

    def _resync_member(self):
        depth = 0
        while self.peek() is not None:
            c = self.advance()[0]
            if c in "({[":
                depth += 1
            elif c in ")}]":
                depth -= 1
            elif c == ";" and depth <= 0:
                return

    def _finish_method_header(self):
        saw_default = False
        while True:
            tok = self.peek()
            if tok is None:
                raise _ParseError("unterminated method header")
            text = tok[0]
            if text == "{":
                if saw_default:
                    self.skip_balanced("{", "}")  # annotation element array default
                    saw_default = False
                    continue
                return tok, self.skip_balanced("{", "}")
            if text == ";":
                return None, self.advance()
            if text == "@":
                self.skip_annotation()
                continue
            if text == "default":
                saw_default = True
            self.advance()

    def _parse_param_list(self):
        first = self.i
        self.skip_balanced("(", ")")
        segments, _ = _split_commas(self.toks[first + 1:self.i - 1])
        return [p for p in map(_depth_loop_param, segments) if p is not None]


def _depth_loop_param(seg):
    flat = []
    gdepth = 0
    k = 0
    while k < len(seg):
        text = seg[k][0]
        k += 1
        if text == "<":
            gdepth += 1
        elif text == ">":
            gdepth = max(0, gdepth - 1)
        elif gdepth > 0 or text == "final":
            pass
        elif text == "@":
            if k < len(seg) and _is_word(seg[k]):
                k += 1
                while k + 1 < len(seg) and seg[k][0] == "." and _is_word(seg[k + 1]):
                    k += 2
            if k < len(seg) and seg[k][0] == "(":
                depth = 0
                while k < len(seg):
                    c = seg[k][0]
                    k += 1
                    if c == "(":
                        depth += 1
                    elif c == ")":
                        depth -= 1
                        if depth == 0:
                            break
        else:
            flat.append(seg[k - 1])

    words = [idx for idx, tok in enumerate(flat) if _is_word(tok)]
    if not words:
        return None
    name_idx = words[-1]
    name = flat[name_idx][0]
    base = "".join(tok[0] for tok in flat[:name_idx] if _is_word(tok) or tok[0] == ".").strip(".")
    if not base:
        base, name = name, None
    texts = [tok[0] for tok in flat]
    brackets = texts.count("[")
    ellipsis = any(a == b == c == "." for a, b, c in zip(texts, texts[1:], texts[2:]))
    return base + "[]" * brackets + ("..." if ellipsis else ""), name


def _parsed_fields(parsed):
    return parsed.masked, parsed.line_starts, parsed.error, [asdict(t) for t in parsed.types]


@settings(deadline=None)
@given(st.lists(_declarations(st.sampled_from(_WELL_FORMED_MEMBERS)), max_size=8).map("\n".join))
def test_skip_to_parses_well_formed_sources_like_the_depth_loops(text):
    parsed = parse_source(text)
    with mock.patch.object(javaparse, "_Parser", _DepthLoopParser):
        oracle = parse_source(text)
    assert _parsed_fields(parsed) == _parsed_fields(oracle)


def test_non_ascii_identifiers_are_whole_words():
    defs = extract_modules(snap("class Café { void café(int ä) {} void naïve() {} void résumé() {} }", "A.java"))
    assert [str(d.id) for d in defs] == [
        "class:A.java:Café",
        "method:A.java:Café#café(int)",
        "method:A.java:Café#naïve()",
        "method:A.java:Café#résumé()",
    ]


def _module_fields(defs):
    return [(d.id, d.span, d.body, d.decl and asdict(d.decl)) for d in defs]


def test_derived_modules_shift_what_follows_the_edit_and_mutate_nothing():
    old = snap(
        """\
        class A {
            int f() {
                return 1;
            }

            static class N {
                void g()
                {
                    return;
                }
            }
        }
        """
    )
    new = snap("\n".join(old.lines).replace("return 1;", "x();\n        return 1;"))
    parent = extract_modules(old)
    before = _module_fields(parent)
    derived = derive_modules(parent, old.lines, new)
    assert _module_fields(derived) == _module_fields(extract_modules(new))
    assert _module_fields(parent) == before
    assert [m.body_open for d in derived if d.decl for m in d.decl.methods] == [2, 9]
    # the records the edit leaves are the parent's own
    unchanged = derive_modules(parent, old.lines, snap("\n".join(old.lines).replace("return;", "x();")))
    assert [d is p for d, p in zip(unchanged, parent)] == [False, True, False, False]
