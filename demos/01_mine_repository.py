"""Mining a repository: release pairs, commit chains, and per-module histories.

Builds a small throwaway Git repository, tags two releases, and walks the
change histories granite extracts from it.  Run with no arguments, or pass a
path to mine one of your own repositories instead:

    python demos/01_mine_repository.py [path-to-repo [tag-glob]]
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from granite.evaluation import change_sizes
from granite.gitrepo import GitRepo
from granite.tracking import HistoryScanner, module_loc


def scripted_repo(root: Path) -> Path:
    """A toy project: six classes, two releases, a handful of scripted edits."""
    root.mkdir(parents=True)
    clock = [1_700_000_000]

    def git(*args):
        subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True)

    def commit(msg):
        clock[0] += 3600
        env = dict(os.environ)
        env.update(
            GIT_AUTHOR_NAME="Demo", GIT_AUTHOR_EMAIL="demo@example.test",
            GIT_COMMITTER_NAME="Demo", GIT_COMMITTER_EMAIL="demo@example.test",
            GIT_AUTHOR_DATE=f"{clock[0]} +0000", GIT_COMMITTER_DATE=f"{clock[0]} +0000",
        )
        git("add", "-A")
        subprocess.run(
            ["git", "-C", str(root), "commit", "-q", "-m", msg],
            check=True, capture_output=True, env=env,
        )

    def service(name, factor):
        return (
            f"public class {name} {{\n"
            f"    private int factor = {factor};\n"
            f"\n"
            f"    public int apply(int input) {{\n"
            f"        int result = input * factor;\n"
            f"        return result;\n"
            f"    }}\n"
            f"\n"
            f"    public void reset() {{\n"
            f"        factor = {factor};\n"
            f"    }}\n"
            f"}}\n"
        )

    names = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta"]
    git("init", "-q", "-b", "main")
    for i, name in enumerate(names):
        (root / f"{name}.java").write_text(service(name, i + 1))
    commit("initial import")
    git("tag", "r1")

    # three methods change between r1 and r2, one of them twice
    (root / "Alpha.java").write_text(service("Alpha", 1).replace("input * factor", "input * factor + 1"))
    commit("alpha offset")
    (root / "Beta.java").write_text(service("Beta", 2).replace("factor = 2;\n    }", "factor = 2 ;\n    }"))
    commit("beta whitespace")
    (root / "Alpha.java").write_text(service("Alpha", 1).replace("input * factor", "input * factor + 2"))
    commit("alpha offset again")
    (root / "Gamma.java").write_text(service("Gamma", 3).replace("int result = input * factor;", "int result = input + factor;"))
    commit("gamma sum")
    git("tag", "r2")
    return root


def main() -> None:
    if len(sys.argv) > 1:
        repo_path, tag_glob = sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else "*"
    else:
        repo_path = scripted_repo(Path(tempfile.mkdtemp(prefix="granite-demo-")) / "repo")
        tag_glob = "r*"
        print(f"scripted demo repository at {repo_path}\n")

    with GitRepo(repo_path) as repo:
        pairs = repo.release_pairs(tag_glob)
        print(f"{len(pairs)} release pair(s) from tags matching {tag_glob!r}")
        scanner = HistoryScanner(repo)
        for pair in pairs:
            print(f"\n== {pair.label}: {len(pair.commits)} commits on the first-parent chain")
            scan = scanner.change_histories(pair.commits)
            print(f"   {len(scan.start_defs)} modules alive at {pair.r_tag}")
            for module in sorted(scan.start_defs):
                n = len(scan.histories[module].events)
                if n == 0:
                    continue
                churn = change_sizes(scan, module).delta_commit
                loc = module_loc(scan.start_defs[module])
                print(f"   {module}  changes={n}  churn={churn}  loc={loc}")


if __name__ == "__main__":
    main()
