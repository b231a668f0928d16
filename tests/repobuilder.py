"""Helper for scripting small deterministic Git repositories in tests."""

import subprocess
from pathlib import Path


class RepoBuilder:
    """Writes files, commits, tags and branches with fixed identities and dates."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._clock = 1_600_000_000
        self.git("init", "-q", "-b", "main")
        self.git("config", "user.name", "Alice Dev")
        self.git("config", "user.email", "alice@example.test")
        self.git("config", "commit.gpgsign", "false")
        self.git("config", "core.autocrlf", "false")
        self.git("config", "tag.gpgsign", "false")

    def git(self, *args: str) -> str:
        proc = subprocess.run(
            ["git", "-C", str(self.root), *args],
            capture_output=True,
            check=True,
        )
        return proc.stdout.decode()

    def write(self, rel_path: str, text: str) -> None:
        self.write_bytes(rel_path, text.encode("utf-8"))

    def write_bytes(self, rel_path: str, data: bytes) -> None:
        path = self.root / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)

    def remove(self, rel_path: str) -> None:
        self.git("rm", "-q", str(rel_path))

    def commit(self, message: str, author: str = "Alice Dev", step: int = 3600) -> str:
        self._clock += step
        date = f"{self._clock} +0000"
        self.git("add", "-A")
        proc = subprocess.run(
            ["git", "-C", str(self.root), "commit", "-q", "--allow-empty", "-m", message],
            capture_output=True,
            check=True,
            env=self._env(author, date),
        )
        assert proc.returncode == 0
        return self.head()

    def merge(self, branch: str, message: str, author: str = "Alice Dev") -> str:
        self._clock += 3600
        date = f"{self._clock} +0000"
        subprocess.run(
            ["git", "-C", str(self.root), "merge", "-q", "--no-ff", "-m", message, branch],
            capture_output=True,
            check=True,
            env=self._env(author, date),
        )
        return self.head()

    def _env(self, author: str, date: str) -> dict:
        import os

        env = dict(os.environ)
        env.update(
            GIT_AUTHOR_NAME=author,
            GIT_AUTHOR_EMAIL=f"{author.split()[0].lower()}@example.test",
            GIT_AUTHOR_DATE=date,
            GIT_COMMITTER_NAME="Committer Bot",
            GIT_COMMITTER_EMAIL="commit@example.test",
            GIT_COMMITTER_DATE=date,
        )
        return env

    def tag(self, name: str) -> None:
        self.git("tag", name)

    def branch(self, name: str, start: str = "HEAD") -> None:
        self.git("branch", name, start)

    def checkout(self, ref: str) -> None:
        self.git("checkout", "-q", ref)

    def head(self) -> str:
        return self.git("rev-parse", "HEAD").strip()
