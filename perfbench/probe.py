"""Set-up probe: the work every granite invocation does before its first pair.

    python3 perfbench/probe.py run CONFIG.json
    python3 perfbench/probe.py mine REPO TAG_GLOB

Starts the interpreter, imports granite, loads the config (for `run`),
opens the repository and resolves its release pairs, then prints the pair
labels as JSON.  The benchmark times this process from spawn to exit.
"""

import json
import sys

import granite  # noqa: F401  (the import is part of what is timed)
from granite.experiment import load_config
from granite.gitrepo import GitRepo


def main(argv) -> int:
    if argv[:1] == ["run"] and len(argv) == 2:
        spec = load_config(argv[1]).repos[0]
        path, tags = spec.path, spec.tags
    elif argv[:1] == ["mine"] and len(argv) == 3:
        path, tags = argv[1], argv[2]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    with GitRepo(path) as repo:
        pairs = repo.release_pairs(tags)
    print(json.dumps([p.label for p in pairs]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
