"""The whole pipeline end to end, driven by a config.

Scripts a repository, writes a JSON config, runs the experiment, and prints
the reports it leaves behind.  Equivalent to:

    granite run --config demo-config.json

    python demos/05_full_experiment.py
"""

import importlib
import json
import sys
import tempfile
from pathlib import Path

from granite.experiment import load_config, run_experiment


def scripted_repo(root: Path) -> Path:
    # reuse the builder from the first demo without packaging demos as a module
    sys.path.insert(0, str(Path(__file__).parent))
    mining_demo = importlib.import_module("01_mine_repository")
    return mining_demo.scripted_repo(root)


def main() -> None:
    work = Path(tempfile.mkdtemp(prefix="granite-demo-"))
    repo = scripted_repo(work / "repo")
    out = work / "report"

    config_path = work / "config.json"
    config_path.write_text(json.dumps({
        "repos": [{"path": str(repo), "tags": "r*"}],
        "output_dir": str(out),
        "k_values": [20, 60, 200],
        "seed": 42,
        "folds": 4,
    }, indent=2))
    print(f"config at {config_path}:\n{config_path.read_text()}")

    status = run_experiment(load_config(config_path))
    print(f"run_experiment exit status: {status}\n")

    for name in ("releases.csv", "summary.csv", "fold_assignments.csv", "manifest.json"):
        path = out / name
        print(f"== {name} " + "=" * max(0, 60 - len(name)))
        print(path.read_text())


if __name__ == "__main__":
    main()
