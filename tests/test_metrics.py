import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from granite.gitrepo import CommitMeta, FileSnapshot
from granite.javaparse import KEYWORDS, ModuleId, extract_modules, mask_source
from granite.metrics import (
    CLASS_METRIC_NAMES,
    METHOD_METRIC_NAMES,
    PROCESS_METRIC_NAMES,
    class_hierarchy,
    class_product_metrics,
    method_product_metrics,
    process_metrics,
    _BRANCH_WORDS,
    _COMPARISON_RE,
    _GENERIC_RE,
    _LOOP_WORDS,
    _NAME_RE,
    _count_locals,
    _coupled_types,
    _invocation_names,
    _simple_name,
)
from granite.tracking import ChangeEvent, ChangeHistory, module_loc

CATALOG = Path(__file__).resolve().parent.parent / "docs" / "metrics.md"


def modules_of(source, path="src/T.java"):
    snapshot = FileSnapshot(path=path, lines=tuple(textwrap.dedent(source).split("\n")), commit="0" * 40)
    return extract_modules(snapshot)


def class_vec(source, qualified, extra_context=()):
    defs = modules_of(source)
    target = next(d for d in defs if d.id.kind == "class" and d.id.qualified_class == qualified)
    vec = class_product_metrics(target, class_hierarchy(list(defs) + list(extra_context)))
    return dict(zip(CLASS_METRIC_NAMES, vec))


def method_vec(source, name):
    defs = modules_of(source)
    target = next(d for d in defs if d.id.kind == "method" and d.id.method_name == name)
    return dict(zip(METHOD_METRIC_NAMES, method_product_metrics(target)))


# -- class metrics ----------------------------------------------------------


def test_three_methods_no_fields():
    src = """\
    class A {
        void f() {}
        void g() {}
        void h() {}
    }
    """
    vec = class_vec(src, "A")
    assert vec["num_methods"] == 3
    assert vec["num_fields"] == 0


def test_no_extends_clause_means_depth_zero():
    vec = class_vec("class Root {\n}\n", "Root")
    assert vec["inheritance_depth"] == 0


def test_inheritance_chain_within_project():
    src = """\
    class A {}
    class B extends A {}
    class C extends B {}
    class D extends External {}
    """
    defs = modules_of(src)
    hierarchy = class_hierarchy(defs)
    byname = {d.id.qualified_class: d for d in defs if d.id.kind == "class"}
    depth = lambda q: dict(zip(CLASS_METRIC_NAMES, class_product_metrics(byname[q], hierarchy)))[
        "inheritance_depth"
    ]
    assert depth("A") == 0
    assert depth("B") == 1
    assert depth("C") == 2
    assert depth("D") == 0  # external supertype contributes nothing
    children = dict(zip(CLASS_METRIC_NAMES, class_product_metrics(byname["A"], hierarchy)))[
        "num_children"
    ]
    assert children == 1


def test_a_dotted_generic_supertype_resolves_to_the_project_class():
    sub = """\
    @java.lang.Deprecated
    public class Sub extends p.Base<java.util.Map<String, Integer>> implements java.io.Serializable, Comparable<Sub> {}
    """
    defs = modules_of(sub, "src/q/Sub.java") + modules_of("package p;\npublic class Base {}\n", "src/p/Base.java")
    assert class_hierarchy(defs) == {
        ModuleId("class", "src/q/Sub.java", "Sub"): (1, 0),
        ModuleId("class", "src/p/Base.java", "Base"): (0, 1),
    }


def test_nested_type_on_its_enclosing_line_is_measured_from_its_own_declaration():
    src = """\
    class Base { void b() {} }
    class Outer { static class Inner extends Base { void x() {} void y() {} } int z; }
    """
    inner = class_vec(src, "Outer.Inner")
    assert inner["num_methods"] == 2
    assert inner["num_fields"] == 0
    assert inner["inheritance_depth"] == 1
    assert class_vec(src, "Base")["num_children"] == 1


CBO_FIXTURE = """\
class Shop {
    private Inventory inventory;
    private java.util.List<Order> orders;

    public Receipt checkout(Customer customer) {
        Invoice invoice = Billing.create(customer);
        return new Receipt(invoice);
    }
}
"""

# hand-enumerated camel-case type references, own name excluded:
# Inventory, Order, Receipt, Customer, Invoice, Billing, plus the
# java.util.List reference's simple name List.
CBO_EXPECTED = {"Inventory", "Order", "Receipt", "Customer", "Invoice", "Billing", "List"}


def test_cbo_matches_hand_enumerated_reference_count():
    vec = class_vec(CBO_FIXTURE, "Shop")
    assert vec["coupled_types"] == len(CBO_EXPECTED)


def test_type_names_of_any_script_are_coupled_and_erased_from_generics():
    src = "class A { Eclair a; Éclair b; Ähnlich c; int f(Map<Ökonom, Integer> m) { return 0; } }"
    # Eclair, Éclair, Ähnlich, Map, Ökonom, Integer; no '<' or '>' is left to count as a comparison
    assert class_vec(src, "A")["coupled_types"] == 6
    assert class_vec(src, "A")["num_comparisons"] == 0
    assert method_vec(src, "f")["num_comparisons"] == 0


def ascii_coupled_types(masked, own_name):
    # the ASCII-only rule the any-script one replaced
    return {w for w in re.findall(r"\b[A-Z][A-Za-z0-9_$]*\b", masked) if w != own_name and any(c.islower() for c in w)}


@example("int x = 0XCafe + 1E5f + 0x1aBcd;")
@example("Map<List<Foo>, Bar> m; Foo9 a_Bb _Cc")
@given(st.text(alphabet="AaBbEeXxZz09_ .,;<>()[]{}=+-\n", max_size=60))
def test_coupled_types_of_ascii_text_without_dollar_are_unchanged(text):
    assert _coupled_types(_NAME_RE.findall(text), "Aa") == ascii_coupled_types(text, "Aa")


def test_letters_inside_number_literals_are_not_identifiers():
    src = "class A {\n  int f() { return 0xCafe + 1E5f + 10L; }\n}\n"
    assert method_vec(src, "f")["num_unique_identifiers"] == 1  # f; not xCafe, E5f or L
    # a() and b() share no field either way; the f of 1.5f is not a use of field f
    cohesion = "class A {\n  float f;\n  int g;\n  void a() { g = 2; float x = %s; }\n  void b() { f = 1; }\n}\n"
    assert class_vec(cohesion % "1.5f", "A")["lack_of_cohesion"] == 1
    assert class_vec(cohesion % "1.5", "A")["lack_of_cohesion"] == 1


def test_wmc_is_sum_of_method_complexities():
    src = """\
    class W {
        int plain() { return 1; }
        int branchy(int x) {
            if (x > 0) { return x; }
            for (int i = 0; i < x; i++) { x--; }
            return x;
        }
    }
    """
    vec = class_vec(src, "W")
    defs = modules_of(src)
    total = sum(
        method_product_metrics(d)[METHOD_METRIC_NAMES.index("cyclomatic")]
        for d in defs
        if d.id.kind == "method"
    )
    assert vec["weighted_methods"] == total


def test_static_public_and_literal_counts():
    src = """\
    public class S {
        public static final String NAME = "s";
        private int hidden;
        public static void a() { log("x"); }
        void b() {}
    }
    """
    vec = class_vec(src, "S")
    assert vec["num_static_members"] == 2  # NAME and a()
    assert vec["num_public_members"] == 2  # NAME and a()
    assert vec["num_string_literals"] == 2
    assert vec["num_fields"] == 2


def test_every_declarator_counts_also_before_an_initializer():
    src = """\
    public class D {
        public static int a, b[], c = 1, d;
        int e;
    }
    """
    (cls,) = [d for d in modules_of(src) if d.id.kind == "class"]
    assert [f.names for f in cls.decl.fields] == [("a", "b", "c", "d"), ("e",)]
    vec = class_vec(src, "D")
    assert vec["num_fields"] == 5
    assert vec["num_static_members"] == 4
    assert vec["num_public_members"] == 4


def test_text_blocks_and_block_comments_are_masked():
    src = """\
    class T {
        String render(int x) {
            String page = \"\"\"
                { if "quoted" // no comment
                \"\"\";
            /* } closes nothing */
            if (x > 0) {
                return page + "!";
            }
            return page;
        }
    }
    """
    method = method_vec(src, "render")
    assert method["num_string_literals"] == 2  # the text block and "!"
    assert method["cyclomatic"] == 2  # the if outside the text block
    assert method["max_nesting"] == 1
    cls = class_vec(src, "T")
    assert cls["num_string_literals"] == 2
    assert cls["weighted_methods"] == 2
    assert cls["max_nesting"] == 2  # method body, then the if block


def test_empty_class_metrics_are_zero_except_loc():
    vec = class_vec("class E {\n}\n", "E")
    assert vec["loc"] == 2
    for name in CLASS_METRIC_NAMES:
        if name != "loc":
            assert vec[name] == 0, name


def test_cohesion_counts_disjoint_method_pairs():
    src = """\
    class C {
        int a;
        int b;
        int useA() { return a; }
        int useAagain() { return a + 1; }
        int useB() { return b; }
    }
    """
    # pairs: (useA,useAagain) share a; (useA,useB) and (useAagain,useB) share nothing
    vec = class_vec(src, "C")
    assert vec["lack_of_cohesion"] == 2 - 1


# -- method metrics ----------------------------------------------------------


def test_straight_line_body_complexity_one():
    src = """\
    class M {
        int f() {
            int a = 1;
            return a;
        }
    }
    """
    assert method_vec(src, "f")["cyclomatic"] == 1


def test_two_ifs_complexity_three():
    src = """\
    class M {
        int f(int x) {
            if (x > 0) { x += 1; }
            if (x > 5) { x -= 1; }
            return x;
        }
    }
    """
    assert method_vec(src, "f")["cyclomatic"] == 3


def test_parameter_count():
    src = """\
    class M {
        void f(int a, String b) {}
    }
    """
    assert method_vec(src, "f")["num_params"] == 2


def test_method_counts_on_busy_fixture():
    src = '''\
    class M {
        int busy(int x, int[] values) {
            int total = 0;
            String label = "sum";
            for (int i = 0; i < values.length; i++) {
                if (values[i] > x && values[i] != 7) {
                    total += values[i];
                }
            }
            log(label);
            return total;
        }
    }
    '''
    vec = method_vec(src, "busy")
    assert vec["loc"] == 11
    assert vec["num_loops"] == 1
    assert vec["num_returns"] == 1
    assert vec["num_string_literals"] == 1
    # comparisons: i < values.length, values[i] > x, values[i] != 7
    assert vec["num_comparisons"] == 3
    # cyclomatic: 1 + for + if + &&
    assert vec["cyclomatic"] == 4
    # locals: total, label, i
    assert vec["num_locals"] == 3
    # invocations: log(...); values.length is not a call
    assert vec["num_invocations"] == 1
    assert vec["fan_out"] == 1
    assert vec["max_nesting"] == 2  # for block, then if block inside it


@pytest.mark.parametrize(
    "statement, locals_",
    [
        ("int a = f(x), b = 2;", 2),
        ("String s = g(), t = h(), u;", 3),
        ("Map<K, V> m = new HashMap<>(), q = null;", 2),
        ("int a = (int) x, b;", 2),
        ('@SuppressWarnings("x") int a = 1;', 1),
        ("try (Res r = open()) {}", 1),
        ("catch (Exception e) {}", 1),
        ("for (int i = 0, j = f(x); i < j; i++) {}", 2),
        ("Function<String, Integer> fn = (String s) -> s.length();", 2),
        ("x = foo(a), y;", 0),
        ("int[] a, b;", 2),  # array dimensions after the type
        ("a b.c();", 0),  # a name followed by something other than '=', ',', '[' or ':'
        ("Foo x::y;", 0),  # `name::` starts a method reference
    ],
)
def test_num_locals_counts_every_declarator_of_a_statement(statement, locals_):
    # a parenthesized group after '=' is passed over; the declarators after it still count
    assert method_vec(f"class T {{ void f() {{ {statement} }} }}", "f")["num_locals"] == locals_


def test_a_method_without_a_body_has_no_locals_or_calls():
    vec = method_vec("abstract class T {\n    abstract int g();\n}\n", "g")
    assert (vec["num_locals"], vec["num_invocations"], vec["fan_out"]) == (0, 0, 0)
    assert vec["cyclomatic"] == 1
    assert vec["num_unique_identifiers"] == 1


def test_generics_do_not_count_as_comparisons():
    src = """\
    class M {
        java.util.Map<String, java.util.List<Integer>> f() {
            java.util.Map<String, java.util.List<Integer>> m = build();
            return m;
        }
    }
    """
    assert method_vec(src, "f")["num_comparisons"] == 0


@pytest.mark.parametrize("depth", [12, 13, 40])
def test_generics_nested_to_any_depth_are_no_comparisons(depth):
    generic = "L<" * depth + "?" + ">" * depth
    src = f"class M {{\n    void f() {{\n        {generic} x = null;\n    }}\n}}\n"
    assert method_vec(src, "f")["num_comparisons"] == 0
    assert class_vec(src, "M")["num_comparisons"] == 0


def test_unique_identifiers_excludes_keywords():
    src = """\
    class M {
        int f(int alpha) {
            return alpha + beta;
        }
    }
    """
    # identifiers: f, alpha, beta (int/return are keywords)
    assert method_vec(src, "f")["num_unique_identifiers"] == 3


def test_metric_vectors_are_pure():
    defs = modules_of(CBO_FIXTURE)
    cls = next(d for d in defs if d.id.kind == "class")
    first = class_product_metrics(cls, class_hierarchy(defs))
    second = class_product_metrics(cls, class_hierarchy(defs))
    assert np.array_equal(first, second)
    method = next(d for d in defs if d.id.kind == "method")
    assert np.array_equal(method_product_metrics(method), method_product_metrics(method))


def test_every_method_vector_is_finite_nonnegative():
    defs = modules_of(CBO_FIXTURE)
    for d in defs:
        vec = method_product_metrics(d) if d.id.kind == "method" else class_product_metrics(d, class_hierarchy(defs))
        assert np.all(np.isfinite(vec))
        assert np.all(vec >= 0)


# -- the catalog ----------------------------------------------------------------


def test_the_catalog_lists_every_column_in_order():
    tables = [
        re.findall(r"^\| `(\w+)` \|", section, re.M)
        for section in CATALOG.read_text(encoding="utf-8").split("\n## ")[1:]
    ]
    assert [tuple(t) for t in tables if t] == [CLASS_METRIC_NAMES, METHOD_METRIC_NAMES, PROCESS_METRIC_NAMES]


# -- the product-metric rows against the row functions that scanned each segment
# several times, kept as the oracle


def oracle_erase_generics(masked):
    prev = None
    out = masked
    for _ in range(12):  # nested generics collapse inside-out; the generated ones nest at most 12 deep
        prev = out
        out = _GENERIC_RE.sub(" ", out)
        if out == prev:
            break
    return out


def oracle_words(masked):
    return _NAME_RE.findall(masked)


def oracle_body_start(masked):
    depth = 0
    for i, ch in enumerate(masked):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "{" and depth == 0:
            return i
    return None


def oracle_max_nesting(masked):
    depth = peak = 0
    for ch in masked:
        if ch == "{":
            depth += 1
            peak = max(peak, depth)
        elif ch == "}":
            depth = max(0, depth - 1)
    return max(0, peak - 1)


def oracle_comparisons(masked):
    return len(_COMPARISON_RE.findall(oracle_erase_generics(masked)))


def oracle_cyclomatic(masked):
    words = oracle_words(masked)
    branches = sum(1 for w in words if w in _BRANCH_WORDS)
    branches += masked.count("&&") + masked.count("||")
    branches += oracle_erase_generics(masked).count("?")
    return 1 + branches


def oracle_coupled_types(masked, own_name):
    return {w for w in oracle_words(masked) if w[0].isupper() and w != own_name and any(c.islower() for c in w)}


def oracle_method_row(mdef):
    masked, literals = mask_source("\n".join(mdef.body))
    start = oracle_body_start(masked)
    body = masked[start:] if start is not None else ""
    words = oracle_words(masked)
    invocations = _invocation_names(body)
    values = (
        module_loc(mdef),
        oracle_cyclomatic(masked),
        len(mdef.id.param_types or ()),
        oracle_max_nesting(masked),
        _count_locals(body),
        len(invocations),
        sum(1 for w in words if w in _LOOP_WORDS),
        oracle_comparisons(masked),
        sum(1 for w in words if w == "return"),
        len(literals),
        len({w for w in words if w not in KEYWORDS}),
        len(set(invocations)),
    )
    return np.array(values, dtype=np.float64)


def oracle_class_row(mdef, hierarchy):
    masked, literals = mask_source("\n".join(mdef.body))
    words = oracle_words(masked)
    methods = mdef.decl.methods
    fields = mdef.decl.fields
    field_names = {n for f in fields for n in f.names}
    first = mdef.span[0]
    wmc = 0
    method_words = []
    for m in methods:
        seg_masked, _ = mask_source("\n".join(mdef.body[m.span[0] - first:m.span[1] - first + 1]))
        wmc += oracle_cyclomatic(seg_masked)
        method_words.append(set(oracle_words(seg_masked)))
    p = q = 0
    if field_names and len(method_words) >= 2:
        uses = [ws & field_names for ws in method_words]
        for i in range(len(uses)):
            for j in range(i + 1, len(uses)):
                if uses[i] & uses[j]:
                    q += 1
                else:
                    p += 1
    body_off = oracle_body_start(masked)
    body = masked[body_off:] if body_off is not None else masked
    dit, noc = hierarchy[mdef.id]
    num_static = sum(1 for m in methods if "static" in m.modifiers) + sum(
        len(f.names) for f in fields if "static" in f.modifiers
    )
    num_public = sum(1 for m in methods if "public" in m.modifiers) + sum(
        len(f.names) for f in fields if "public" in f.modifiers
    )
    values = (
        module_loc(mdef),
        len(methods),
        sum(len(f.names) for f in fields),
        wmc,
        dit,
        noc,
        len(oracle_coupled_types(masked, _simple_name(mdef.id.qualified_class))),
        len(methods) + len(set(_invocation_names(body))),
        max(0, p - q),
        oracle_max_nesting(masked),
        num_static,
        num_public,
        len(literals),
        sum(1 for w in words if w in _LOOP_WORDS),
        oracle_comparisons(masked),
    )
    return np.array(values, dtype=np.float64)


# a block comment that closes on a member's first line: that member's own segment reads the
# comment's tail, a stray ')' or '}', as code
_HEADS = ("", "/* (\n} ) */ ", "/* {\n) } */ ")
_ANNOTATIONS = ("", "@Override ", '@SuppressWarnings({"unchecked", "raw"}) ', "@Ann(v = {1, 2}, w = @In({3})) ")
_STATEMENTS = (
    "int a = f(x), b = 2;",
    "if (x > 0 && y < 3 || z) { x++; }",
    "for (int i = 0; i < n; i++) { while (a != b) { a--; } }",
    "do { x = x >> 1; } while (x >= 1);",
    "String s = \"a { ( b\" + '}' + '(' + \"\\\"\";",
    'String t = """\n    { ) " if\n    """;',
    "// } ( if (a) comment\n",
    "/* { ) while\n } */",
    "Map<String, List<? extends Number>> m = new HashMap<>();",
    "List<?> w = x == null ? null : y.get(0);",
    "Runnable r = () -> { if (ok) { run(); } };",
    "Object o = new Object() { public int hashCode() { return 1; } };",
    "return count + field;",
    "switch (k) { case 1: break; default: g(); }",
    "try (Res r = open()) { use(r); } catch (Exception e) { throw e; }",
    "x = a <= b ? c : d;",
    "field = other;",
)
_SEPARATORS = ("\n", " ", "\n        ")


@st.composite
def java_members(draw, i):
    """A method with or without a body, a field or a nested class."""
    kind = draw(st.sampled_from(("method", "method", "bodyless", "field", "nested")))
    head = draw(st.sampled_from(_HEADS))
    if kind == "field":
        return head + draw(st.sampled_from((
            "private int field;",
            'static String other = "x";',
            "public List<Map<String, Integer>> cache, more = null;",
        )))
    if kind == "nested":
        return f"{head}static class Inner{i} extends Base {{ int field; void x() {{ if (field > 0) {{ field--; }} }} }}"
    ann = draw(st.sampled_from(_ANNOTATIONS))
    mods = draw(st.sampled_from(("", "public ", "static ", "public static ", "private ")))
    ret = draw(st.sampled_from(("void", "int", "Map<String, List<?>>", "<T extends Comparable<T>> T")))
    params = draw(st.sampled_from(("", "int x", "int x, String y", "List<? super T> xs, int... n")))
    if kind == "bodyless":
        return f"{head}{ann}abstract {ret} m{i}({params});"
    deep = draw(st.integers(1, 12))
    statements = draw(st.lists(
        st.sampled_from(_STATEMENTS) | st.just("L<" * deep + "?" + ">" * deep + " deep = null;"), max_size=4
    ))
    sep = draw(st.sampled_from(_SEPARATORS))
    return f"{head}{ann}{mods}{ret} m{i}({params}) {{{sep}{sep.join(statements)}{sep}}}"


@st.composite
def java_sources(draw):
    """One or two types: a class, a record with a compact constructor, an interface or an enum."""
    types = []
    for t in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("class", "class", "record", "interface", "enum")))
        head = draw(st.sampled_from(_HEADS)) + draw(st.sampled_from(_ANNOTATIONS[::2]))
        members = [draw(java_members(i)) for i in range(draw(st.integers(0, 4)))]
        if kind == "class":
            opening = f"{head}class T{t} extends {'Base<String>' if t else 'Base'} {{"
        elif kind == "record":
            opening = f"{head}record T{t}(int a, int b) {{"
            compact = f"T{t} {{ if (a > b) {{ throw new IllegalArgumentException(); }} }}"
            members.insert(draw(st.integers(0, len(members))), compact)
        elif kind == "interface":
            opening = f"{head}interface T{t} {{"
            members = [m.replace("abstract ", "") for m in members]
        else:
            opening = f"{head}enum T{t} {{ ONE, TWO;"
        sep = draw(st.sampled_from(_SEPARATORS))
        types.append(opening + sep + sep.join(members) + sep + "}")
    return "class Base {}\n" + "\n".join(types) + "\n"


@settings(max_examples=max(10, settings().max_examples // 4))
@given(java_sources())
def test_product_rows_equal_the_oracle(source):
    defs = modules_of(source)
    assert defs is not None, source
    hierarchy = class_hierarchy(defs)
    for d in defs:
        if d.id.kind == "class":
            assert np.array_equal(class_product_metrics(d, hierarchy), oracle_class_row(d, hierarchy)), d.id
        else:
            assert np.array_equal(method_product_metrics(d), oracle_method_row(d)), d.id


# -- process metrics ----------------------------------------------------------


def hist(module_kind="method", events=(), birth="b" * 40):
    from granite.javaparse import ModuleId

    mid = ModuleId(module_kind, "src/T.java", "T", "f", ()) if module_kind == "method" else None
    return ChangeHistory(mid, list(events), birth)


DAY = 86_400


def metas(*entries):
    return {c: CommitMeta(author, ts) for c, author, ts in entries}


def test_no_prior_commits_all_zero():
    r = "r" * 40
    history = hist(events=[], birth=r)
    vec = process_metrics(history, metas((r, "Alice", 1000 * DAY)), r)
    assert np.all(vec == 0)


def test_counts_authors_and_churn():
    r, c1, c2, c3 = "r" * 40, "1" * 40, "2" * 40, "3" * 40
    history = hist(
        events=[
            ChangeEvent(c1, 4, 2, 2, co_changed=2),
            ChangeEvent(c2, 6, 5, 1, co_changed=1),
            ChangeEvent(c3, 2, 1, 1, co_changed=3),
        ],
        birth="b" * 40,
    )
    meta = metas(
        ("b" * 40, "Alice", 0),
        (c1, "Alice", 5 * DAY),
        (c2, "Bob", 20 * DAY),
        (c3, "Alice", 60 * DAY),
        (r, "Carol", 140 * DAY),
    )
    vec = dict(zip(PROCESS_METRIC_NAMES, process_metrics(history, meta, r)))
    assert vec["commit_count"] == 3
    assert vec["distinct_authors"] == 2
    assert vec["total_churn"] == 12
    assert vec["added_lines"] == 8
    assert vec["deleted_lines"] == 4
    assert vec["max_churn"] == 6
    assert vec["mean_churn"] == 4
    assert vec["age_days"] == 140
    assert vec["days_since_last_change"] == 80
    assert vec["change_density"] == 3 / 140
    assert vec["co_change_count"] == 2  # c1 and c3 touched other modules too
    assert vec["max_changes_30d"] == 2  # c1+c2 are 15 days apart; c3 is alone
    assert vec["first_change_offset_days"] == 5
    assert vec["churn_last_90d"] == 2  # only c3 falls within 90 days of r
    assert vec["dominant_author_ratio"] == 2 / 3
    # entropy of {2/3, 1/3}
    import math

    expected = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    assert abs(vec["author_entropy"] - expected) < 1e-12


def test_entropy_zero_for_single_author():
    r, c1 = "r" * 40, "1" * 40
    history = hist(events=[ChangeEvent(c1, 2, 1, 1, co_changed=1)], birth="b" * 40)
    meta = metas(("b" * 40, "A", 0), (c1, "A", DAY), (r, "A", 2 * DAY))
    vec = dict(zip(PROCESS_METRIC_NAMES, process_metrics(history, meta, r)))
    assert vec["author_entropy"] == 0
    assert vec["distinct_authors"] == 1


def test_events_at_release_commit_excluded():
    r, c1 = "r" * 40, "1" * 40
    events = [ChangeEvent(c1, 2, 1, 1, co_changed=1), ChangeEvent(r, 8, 4, 4, co_changed=2)]
    history = hist(events=events, birth="b" * 40)
    meta = metas(("b" * 40, "A", 0), (c1, "A", DAY), (r, "A", 2 * DAY))
    vec = dict(zip(PROCESS_METRIC_NAMES, process_metrics(history, meta, r)))
    assert vec["commit_count"] == 1
    assert vec["total_churn"] == 2
    assert vec["co_change_count"] == 0


def test_never_changed_module_days_since_last_equals_age():
    r = "r" * 40
    history = hist(events=[], birth="b" * 40)
    meta = metas(("b" * 40, "A", 0), (r, "A", 50 * DAY))
    vec = dict(zip(PROCESS_METRIC_NAMES, process_metrics(history, meta, r)))
    assert vec["age_days"] == 50
    assert vec["days_since_last_change"] == 50
    assert vec["commit_count"] == 0
