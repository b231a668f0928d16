"""Session fixtures: a scripted synthetic repository with a ground-truth ledger.

The fixture repo has three release tags and ~28 commits.  Every edit is a
single-line replacement or insertion on a known module, so change counts,
per-event churn, release/commit change sizes, and LOC are all known by
construction and recorded in the ledger the acceptance suite checks against.
"""

import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# HYPOTHESIS_PROFILE=ci runs every property and differential test ten times deeper, without deadlines
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from repobuilder import RepoBuilder


def mod_source(k: int, run_line: str = None, helper_lines: Tuple[str, ...] = None) -> str:
    run_line = run_line or f"int result = input + value{k};"
    helper_lines = helper_lines or (f"value{k} += 1;",)
    helper_body = "\n".join(f"        {line}" for line in helper_lines)
    return (
        f"public class Mod{k} {{\n"
        f"    private int value{k} = {k};\n"
        f"\n"
        f"    public int run(int input) {{\n"
        f"        {run_line}\n"
        f"        return result;\n"
        f"    }}\n"
        f"\n"
        f"    public void helper() {{\n"
        f"{helper_body}\n"
        f"    }}\n"
        f"}}\n"
    )


def alpha_source(hot_line: str = "int x = 1;", renamed: str = "renamedLater", stable_line: str = "return state;") -> str:
    return (
        "public class Alpha {\n"
        "    private int state = 1;\n"
        "\n"
        "    public int stable() {\n"
        f"        {stable_line}\n"
        "    }\n"
        "\n"
        "    public int hot() {\n"
        f"        {hot_line}\n"
        "        return x + state;\n"
        "    }\n"
        "\n"
        f"    public int {renamed}(int seed) {{\n"
        "        int total = seed;\n"
        "        total += state;\n"
        "        total += 2;\n"
        "        return total;\n"
        "    }\n"
        "}\n"
    )


def beta_source(mark_line: str = "int mark = 1;", count_line: str = "count += mark;", extra: bool = False) -> str:
    extra_text = "\n    public int extra() {\n        return count + 1;\n    }\n" if extra else ""
    return (
        "public class Beta {\n"
        "    private int count = 0;\n"
        "\n"
        "    public void flip() {\n"
        f"        {mark_line}\n"
        f"        {count_line}\n"
        "    }\n"
        "\n"
        "    public int steady() {\n"
        "        return count;\n"
        "    }\n"
        f"{extra_text}"
        "}\n"
    )


@dataclass
class LedgerEntry:
    count: int = 0
    churns: Tuple[int, ...] = ()
    delta_release: int = 0
    delta_commit: int = 0
    loc: int = 0


@dataclass
class PairLedger:
    label: str
    n_commits: int
    entries: Dict[str, LedgerEntry] = field(default_factory=dict)  # keyed by str(birth ModuleId)


@dataclass
class FixtureRepo:
    root: Path
    pairs: Dict[str, PairLedger]


def _baseline_entries(renamed: str) -> Dict[str, LedgerEntry]:
    """Every module alive at a release, zero-change defaults with LOC filled in."""
    entries: Dict[str, LedgerEntry] = {}
    entries["class:src/Alpha.java:Alpha"] = LedgerEntry(loc=19)
    entries["method:src/Alpha.java:Alpha#stable()"] = LedgerEntry(loc=3)
    entries["method:src/Alpha.java:Alpha#hot()"] = LedgerEntry(loc=4)
    entries[f"method:src/Alpha.java:Alpha#{renamed}(int)"] = LedgerEntry(loc=6)
    entries["class:src/Beta.java:Beta"] = LedgerEntry(loc=12)
    entries["method:src/Beta.java:Beta#flip()"] = LedgerEntry(loc=4)
    entries["method:src/Beta.java:Beta#steady()"] = LedgerEntry(loc=3)
    for k in range(10):
        entries[f"class:src/Mod{k}.java:Mod{k}"] = LedgerEntry(loc=12)
        entries[f"method:src/Mod{k}.java:Mod{k}#run(int)"] = LedgerEntry(loc=4)
        entries[f"method:src/Mod{k}.java:Mod{k}#helper()"] = LedgerEntry(loc=3)
    return entries


def build_fixture_repo(root: Path) -> FixtureRepo:
    rb = RepoBuilder(root)

    # -- pre-history (process-metric background) -----------------------------
    rb.write("src/Alpha.java", alpha_source())
    rb.write("src/Beta.java", beta_source())
    for k in range(5):
        rb.write(f"src/Mod{k}.java", mod_source(k))
    rb.commit("add core modules", author="Alice Dev")
    for k in range(5, 10):
        rb.write(f"src/Mod{k}.java", mod_source(k))
    rb.commit("add remaining modules", author="Bob Dev")
    rb.write("README.md", "fixture project\n")
    rb.commit("add readme", author="Alice Dev")
    rb.write("src/Alpha.java", alpha_source(hot_line="int x = 0;"))
    rb.commit("tune hot", author="Alice Dev")
    rb.write("src/Mod0.java", mod_source(0, run_line="int result = input * 2 + value0;"))
    rb.commit("speed up mod0", author="Bob Dev")
    rb.write("src/Alpha.java", alpha_source(hot_line="int x = 1;"))
    rb.commit("revert hot tuning", author="Alice Dev")
    rb.write("README.md", "fixture project\nwith docs\n")
    rb.commit("expand readme", author="Bob Dev")
    rb.write("docs/notes.md", "release notes\n")
    rb.commit("notes", author="Alice Dev")
    rb.tag("v1.0")

    # -- release pair v1.0 -> v1.1 -------------------------------------------
    rb.write("src/Alpha.java", alpha_source(hot_line="int x = 2;"))
    rb.commit("hot experiment", author="Alice Dev")
    rb.write("src/Beta.java", beta_source(mark_line="int  mark = 1;"))
    rb.commit("reformat flip", author="Bob Dev")  # whitespace-only edit
    rb.write("src/Alpha.java", alpha_source(hot_line="int x = 2;", renamed="renamedNow"))
    rb.commit("rename helper method", author="Alice Dev")
    rb.write("src/Mod1.java", mod_source(1, run_line="int result = input - value1;"))
    rb.commit("fix mod1 sign", author="Bob Dev")
    rb.write("README.md", "fixture project\nwith docs\nand more\n")
    rb.commit("docs again", author="Alice Dev")
    rb.write("src/Mod2.java", mod_source(2, helper_lines=("value2 += 1;", "value2 += 2;")))
    rb.commit("extend mod2 helper", author="Alice Dev")
    rb.write("docs/notes.md", "release notes\nupdated\n")
    rb.commit("notes again", author="Bob Dev")
    rb.write("src/Alpha.java", alpha_source(hot_line="int x = 1;", renamed="renamedNow"))
    rb.commit("revert hot experiment", author="Bob Dev")  # A -> B -> A completes
    rb.write("src/Mod3.java", mod_source(3, run_line="int result = input + value3 + 1;"))
    rb.commit("adjust mod3", author="Alice Dev")
    rb.tag("v1.1")

    # -- release pair v1.1 -> v2.0 -------------------------------------------
    rb.write("src/Mod4.java", mod_source(4, run_line="int result = input * value4;"))
    rb.commit("mod4 product", author="Alice Dev")
    rb.write("src/Beta.java", beta_source(mark_line="int  mark = 1;", extra=True))
    rb.commit("beta extra accessor", author="Bob Dev")
    mod5 = mod_source(5)
    rb.write("src/core/Mod5.java", mod5)
    rb.remove("src/Mod5.java")
    rb.commit("move mod5 to core", author="Alice Dev")
    rb.branch("side")
    rb.checkout("side")
    rb.write("src/Mod6.java", mod_source(6, helper_lines=("value6 += 10;",)))
    rb.commit("side: mod6 helper", author="Bob Dev")
    rb.checkout("main")
    rb.write("src/Mod7.java", mod_source(7, run_line="int result = input + value7 * 3;"))
    rb.commit("mod7 scaling", author="Alice Dev")
    rb.merge("side", "merge side work", author="Alice Dev")
    rb.write("README.md", "fixture project\nwith docs\nand more\nstill more\n")
    rb.commit("readme padding", author="Bob Dev")
    rb.write("src/Alpha.java", alpha_source(hot_line="int x = 1;", renamed="renamedNow",
                                            stable_line="return state + 0;"))
    rb.commit("stable tweak", author="Bob Dev")
    rb.write("src/Mod8.java", mod_source(8, run_line="int result = input + value8 - 1;"))
    rb.commit("mod8 offset", author="Alice Dev")
    rb.write("src/Beta.java", beta_source(mark_line="int  mark = 1;", count_line="count += mark * 2;", extra=True))
    rb.commit("flip doubling", author="Bob Dev")
    rb.tag("v2.0")

    # -- ground truth ---------------------------------------------------------
    pair1 = PairLedger("v1.0..v1.1", n_commits=10, entries=_baseline_entries("renamedLater"))
    e = pair1.entries
    e["method:src/Alpha.java:Alpha#hot()"] = LedgerEntry(2, (2, 2), 0, 4, loc=4)
    e["method:src/Beta.java:Beta#flip()"] = LedgerEntry(1, (2,), 2, 2, loc=4)
    e["method:src/Alpha.java:Alpha#renamedLater(int)"] = LedgerEntry(1, (2,), 2, 2, loc=6)
    e["method:src/Mod1.java:Mod1#run(int)"] = LedgerEntry(1, (2,), 2, 2, loc=4)
    e["method:src/Mod2.java:Mod2#helper()"] = LedgerEntry(1, (1,), 1, 1, loc=3)
    e["method:src/Mod3.java:Mod3#run(int)"] = LedgerEntry(1, (2,), 2, 2, loc=4)
    e["class:src/Alpha.java:Alpha"] = LedgerEntry(3, (2, 2, 2), 2, 6, loc=19)
    e["class:src/Beta.java:Beta"] = LedgerEntry(1, (2,), 2, 2, loc=12)
    e["class:src/Mod1.java:Mod1"] = LedgerEntry(1, (2,), 2, 2, loc=12)
    e["class:src/Mod2.java:Mod2"] = LedgerEntry(1, (1,), 1, 1, loc=12)
    e["class:src/Mod3.java:Mod3"] = LedgerEntry(1, (2,), 2, 2, loc=12)

    pair2 = PairLedger("v1.1..v2.0", n_commits=10, entries=_baseline_entries("renamedNow"))
    e = pair2.entries
    e["method:src/Mod2.java:Mod2#helper()"] = LedgerEntry(loc=4)  # grew during pair 1
    e["class:src/Mod2.java:Mod2"] = LedgerEntry(loc=13)
    e["method:src/Mod4.java:Mod4#run(int)"] = LedgerEntry(1, (2,), 2, 2, loc=4)
    e["class:src/Mod4.java:Mod4"] = LedgerEntry(1, (2,), 2, 2, loc=12)
    e["class:src/Beta.java:Beta"] = LedgerEntry(2, (4, 2), 6, 6, loc=12)
    e["method:src/Beta.java:Beta#flip()"] = LedgerEntry(1, (2,), 2, 2, loc=4)
    e["method:src/Mod6.java:Mod6#helper()"] = LedgerEntry(1, (2,), 2, 2, loc=3)  # lands at the merge
    e["class:src/Mod6.java:Mod6"] = LedgerEntry(1, (2,), 2, 2, loc=12)
    e["method:src/Mod7.java:Mod7#run(int)"] = LedgerEntry(1, (2,), 2, 2, loc=4)
    e["class:src/Mod7.java:Mod7"] = LedgerEntry(1, (2,), 2, 2, loc=12)
    e["method:src/Alpha.java:Alpha#stable()"] = LedgerEntry(1, (2,), 2, 2, loc=3)
    e["class:src/Alpha.java:Alpha"] = LedgerEntry(1, (2,), 2, 2, loc=19)
    e["method:src/Mod8.java:Mod8#run(int)"] = LedgerEntry(1, (2,), 2, 2, loc=4)
    e["class:src/Mod8.java:Mod8"] = LedgerEntry(1, (2,), 2, 2, loc=12)
    # Mod5 only moved files: identity threads, no change events

    return FixtureRepo(root=root, pairs={"v1.0..v1.1": pair1, "v1.1..v2.0": pair2})


@pytest.fixture(scope="session")
def fixture_repo(tmp_path_factory) -> FixtureRepo:
    root = tmp_path_factory.mktemp("granite-fixture") / "repo"
    return build_fixture_repo(root)
