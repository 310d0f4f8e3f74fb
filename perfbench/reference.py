"""Reference result digests, made by the tree backend.

The tree interpreter is the program's independent semantics oracle, so
every digest a run checks comes from it, never from the backend under
test.  Digests are looked up in order:

1. ``perfbench/references.json``: pinned, committed digests;
2. ``.bench_build/perfbench/references.json``: digests this checkout
   computed earlier;
3. computed now by ``python perfbench/reference.py WORKLOAD SEED``,
   which reruns each campaign with ``backend="tree"`` and stores the
   digests in (2).

Computing reruns the tree backend on every variant a campaign visits.
Its model runs depend only on the variant, not on the seed, so they are
kept in ``.bench_build/perfbench/tree-runs/`` and reused when another
seed visits the same variant; so is each model's numerical profile.
Without that, one 256-lane wave takes the tree backend about 150 s.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import pickle
import sys
from collections import defaultdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "references.json"
STATE = ROOT / ".bench_build" / "perfbench"
COMPUTED = STATE / "references.json"
TREE_RUNS = STATE / "tree-runs"
TREE_WORKERS = 2


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def known(workload: str, seed: int) -> dict[str, str]:
    """``fingerprint -> sha256`` for the workload's campaigns whose
    reference is already pinned or computed."""
    table = {**_load(COMPUTED), **_load(PINNED)}
    out = {}
    for entry in workloads.reference_inputs(workload, seed):
        key = workloads.fingerprint(workload, seed, entry)
        if key in table:
            out[key] = table[key]["sha256"]
    return out


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Tree-run store
# ---------------------------------------------------------------------------

def _rebuild_defaultdict(sample, items):
    table = defaultdict(lambda: copy.deepcopy(sample))
    table.update(items)
    return table


class _Pickler(pickle.Pickler):
    """Pickles the interpreter ledger's ``defaultdict(lambda: ...)``
    tables by their default value (lambdas themselves do not pickle)."""

    def reducer_override(self, obj):
        if (type(obj) is defaultdict and obj.default_factory is not None
                and obj.default_factory.__name__ == "<lambda>"):
            return _rebuild_defaultdict, (obj.default_factory(),
                                          list(obj.items()))
        return NotImplemented


def _dumps(value) -> bytes:
    buffer = io.BytesIO()
    _Pickler(buffer).dump(value)
    return buffer.getvalue()


def _stored(path: Path, compute):
    """*compute()*, served from the pickle at *path* once written."""
    try:
        # Only this module writes these files.
        outcome, value = pickle.loads(path.read_bytes())
    except (OSError, pickle.UnpicklingError, EOFError, ValueError,
            AttributeError, TypeError):
        try:
            value, outcome = compute(), "ok"
        except Exception as exc:  # noqa: BLE001 - stored, re-raised
            value, outcome = exc, "raise"
        try:
            _atomic_write(path, _dumps((outcome, value)))
        except (OSError, pickle.PicklingError, TypeError, AttributeError):
            pass
    if outcome == "raise":
        raise value
    return value


def _store_path(*key) -> Path:
    blob = json.dumps(key, sort_keys=True).encode()
    return TREE_RUNS / (hashlib.sha256(blob).hexdigest() + ".pkl")


def install_tree_run_store() -> None:
    """Serve repeated tree-backend ``ModelCase.run`` calls from disk.

    Only runs with the default (tree) interpreter are stored; a run is
    keyed by the model's constructor spec, the variant's kinds and the
    op cap, which is everything it depends on.  A model's default
    numerical profile depends on the model alone.
    """
    import repro.numerics as numerics
    from repro.models.base import ModelCase
    run_model = ModelCase.run
    profile_model = numerics.profile_model
    TREE_RUNS.mkdir(parents=True, exist_ok=True)

    def run(self, assignment=None, max_ops=None, interpreter_factory=None):
        if interpreter_factory is not None:
            return run_model(self, assignment, max_ops, interpreter_factory)
        kinds = None if assignment is None else assignment.key()
        return _stored(_store_path("run", self.model_spec(), kinds, max_ops),
                       lambda: run_model(self, assignment, max_ops, None))

    def profile(model, assignment=None):
        if assignment is not None:
            return profile_model(model, assignment)
        return _stored(_store_path("profile", model.model_spec()),
                       lambda: profile_model(model))
    ModelCase.run = run
    numerics.profile_model = profile


# ---------------------------------------------------------------------------
# Computing references
# ---------------------------------------------------------------------------

def _tree_digests(workload: str, seed: int) -> list[str]:
    from repro.core import run_campaign
    from repro.core.algorithms import make_algorithm
    from repro.models.registry import get_model

    results = []
    if workload == "service-funarc":
        for name, config in workloads.service_campaigns(seed):
            case = get_model("funarc")
            algorithm = make_algorithm(name, case, config.max_evaluations)
            results.append(run_campaign(
                case, config.overriding(backend="tree", cache_dir=None,
                                        workers=TREE_WORKERS),
                algorithm=algorithm))
    else:
        model, config, algorithm = workloads.campaign(workload, seed)
        results.append(run_campaign(
            model, config.overriding(backend="tree", workers=TREE_WORKERS),
            algorithm=algorithm))
    return [hashlib.sha256(r.to_json().encode()).hexdigest()
            for r in results]


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    install_tree_run_store()
    digests = _tree_digests(workload, seed)
    computed = _load(COMPUTED)
    for entry, digest in zip(workloads.reference_inputs(workload, seed),
                             digests):
        computed[workloads.fingerprint(workload, seed, entry)] = {
            "workload": workload, "seed": seed, "sha256": digest}
    STATE.mkdir(parents=True, exist_ok=True)
    _atomic_write(COMPUTED, (json.dumps(computed, indent=1, sort_keys=True)
                             + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
