"""Tracked-constant store.

Every constant_tracked scenario pins one number: the constant its own
runner measured at the scenario's provenance point (prime, dim, trials,
seed), which the registry states.  Runs at that point must reproduce the
stored constant exactly (drift detection); runs elsewhere must stay
within SLACK times it for upper-tracked constants, or at or above it for
floor-tracked ones.

The store holds only what it measured: each constant and a hash of the
runner source.  If the runner changes, its stored constant is suspect,
so verify checks the hash before any scenario executes and a mismatch
aborts the run.  Regenerate with ``fflab baseline --regen``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from ..errors import FFLabError

SCHEMA = "fflab-baselines/2"

# Fixed project constant, kept only here: away from its provenance point an
# upper-tracked run passes up to SLACK times the stored constant.
SLACK = 2.0

_DEFAULT_PATH = Path(__file__).parent / "baselines.json"


class BaselineMismatch(FFLabError):
    """The store, or an entry's oracle hash, does not match the code."""


class BaselineMissing(FFLabError):
    """No stored entry for a constant-tracked scenario."""


def oracle_hash(fn) -> str:
    src = inspect.getsource(fn)
    return hashlib.sha256(src.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class BaselineEntry:
    constant: float
    oracle_hash: str


class BaselineStore:
    def __init__(self, entries: dict, path: Optional[Path] = None):
        self.entries = dict(entries)
        self.path = path or _DEFAULT_PATH

    @classmethod
    def load(cls, path: Optional[Path] = None) -> "BaselineStore":
        path = Path(path) if path else _DEFAULT_PATH
        if not path.exists():
            return cls({}, path)
        doc = json.loads(path.read_text())
        if set(doc) != {"schema", "entries"} or doc["schema"] != SCHEMA or any(
                set(e) != {"constant", "oracle_hash"} for e in doc["entries"].values()):
            raise BaselineMismatch(
                f"{path} is not a {SCHEMA} store of constants and oracle "
                f"hashes; move it aside and run `fflab baseline --regen`")
        return cls({sid: BaselineEntry(**e) for sid, e in doc["entries"].items()}, path)

    def save(self) -> None:
        doc = {"schema": SCHEMA,
               "entries": {sid: asdict(e) for sid, e in sorted(self.entries.items())}}
        self.path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")

    def verify(self, sid: str, runner) -> float:
        """sid's stored constant, once its hash matches the runner source;
        raises before anything runs when the entry is missing or stale."""
        if sid not in self.entries:
            raise BaselineMissing(
                f"no baseline entry for {sid}; run "
                f"`fflab baseline --regen --ids {sid}` to create one"
            )
        e = self.entries[sid]
        h = oracle_hash(runner)
        if h != e.oracle_hash:
            raise BaselineMismatch(
                f"{sid}: runner source hash {h[:12]} does not match stored "
                f"{e.oracle_hash[:12]}; regenerate with "
                f"`fflab baseline --regen --ids {sid}`"
            )
        return e.constant
