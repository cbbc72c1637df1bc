"""Byte rail for the three manifest-committed directory writers.

The model store, the campaign registry and the incident blackbox all
commit a directory the same way: artifacts first, ``manifest.json`` last
(DESIGN.md §9).  This rail drives each writer over fixed inputs and pins
the sha256 of every file it leaves behind, so any rewrite of the shared
commit/JSON machinery must reproduce the on-disk format byte for byte.

Inputs are chosen so the bytes do not depend on the host:

- the registry runs the deterministic fake ``execute_spec`` of
  ``tests/eval`` under a fixed clock;
- the bundle is diagnosed from the hand-built models of
  ``tests/serve/conftest.py`` (exact coefficients; the window's metric
  columns are affine in one another, so every MIC is exactly 1.0);
- the store persists exact hand-built slots.

The only bytes excluded are the host fields of a bundle's
``environment.json`` (``python``, ``platform``, ``numpy``).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.core import OperationContext
from repro.core.invariants import InvariantSet
from repro.eval.registry import executor as executor_module
from repro.eval.registry.executor import RunRegistry
from repro.serve import FleetMonitor, Tick
from repro.store import ContextModels, DirectoryStore
from tests.eval.test_registry_executor import fake_execute_spec, make_spec
from tests.serve.conftest import CATALOG, build_pipeline, last_value_detector

#: Host-dependent keys of a bundle's environment.json.
_HOST_FIELDS = ('  "numpy": ', '  "platform": ', '  "python": ')


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "environment.json":
        data = b"".join(
            line
            for line in data.splitlines(keepends=True)
            if not line.decode("utf-8").startswith(_HOST_FIELDS)
        )
    return hashlib.sha256(data).hexdigest()


def tree_digests(root: Path, skip: tuple[str, ...] = ()) -> dict[str, str]:
    """sha256 of every regular file under ``root``, by relative path."""
    return {
        path.relative_to(root).as_posix(): _file_digest(path)
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in skip
    }


def build_registry(root: Path, monkeypatch) -> RunRegistry:
    monkeypatch.setattr(executor_module, "execute_spec", fake_execute_spec)
    registry = RunRegistry(root, clock=lambda: 1234.5)
    registry.execute(make_spec())
    registry.execute(make_spec(name="other", test_reps=3))
    return registry


def build_bundles(root: Path) -> None:
    contexts = [
        OperationContext("wordcount", f"node-{i}", ip=f"10.0.0.{i}")
        for i in range(2)
    ]
    pipe = build_pipeline(contexts)
    slot = pipe.store.peek(contexts[0].key())
    slot.database.add(
        np.array([True]), "disk_hog",
        ip=contexts[0].ip, workload=contexts[0].workload,
    )
    fleet = FleetMonitor(
        pipe,
        shards=2,
        window_ticks=8,
        warmup_ticks=12,
        cooldown_ticks=4,
        blackbox_dir=root,
    )
    for t in range(30):
        batch = []
        for context in contexts:
            fault = context is contexts[0] and t >= 14
            batch.append(
                Tick(
                    context=context,
                    metrics=np.array([1.0, 2.0, 3.0, 4.0]) + t * 0.01,
                    cpi=1.0 + (t - 13) * 1.0 if fault else 1.0,
                )
            )
        fleet.ingest(batch, request_id=f"req-{t:03d}")


def build_store(root: Path) -> None:
    store = DirectoryStore(root)
    contexts = [
        OperationContext("wordcount", "slave-1", "10.0.0.11"),
        OperationContext("sort", "slave 2", "10.0.0.12"),
        OperationContext("*", "*"),
    ]
    for context in contexts:
        models = ContextModels(
            context=context,
            detector=last_value_detector(),
            invariants=InvariantSet(
                pairs=[(0, 1), (2, 3)],
                baseline=np.array([0.9, 0.8]),
                catalog=CATALOG,
            ),
        )
        models.database.add(
            np.array([True, False]), "CPU-hog",
            ip=context.ip, workload=context.workload,
        )
        store.adopt(context.key(), models)
        store.persist(context.key())
    store.persist(contexts[0].key())  # revision 2
    store.discard(contexts[1].key())


REGISTRY_DIGESTS = {
    "<index dump>": (
        "2dc1861437d7ce59a34f3ea021e20b58a9f8161ef3ef1a8ae7496c97bf400865"
    ),
    "ledger.jsonl": (
        "e862da92efe45e619f638b696e3f2bb5793e68837a93c1d5c23918db3a66e5d6"
    ),
    "runs/fake-6069863856f8/events/Bad--wordcount@slave-1.jsonl": (
        "c1d7e8ddc0a77f5d757b5e52a26757c5d85190dfde386edf6b0a4e5cc84aed08"
    ),
    "runs/fake-6069863856f8/events/Good--wordcount@slave-1.jsonl": (
        "7be185890843ea14ad933adb8d770f0a76e00568d625f461665dc25c01b89270"
    ),
    "runs/fake-6069863856f8/manifest.json": (
        "ccdce67e469b8d68ac605eca5024258a8e4fd0b84a9083f43a2c8d5d08a5ed89"
    ),
    "runs/fake-6069863856f8/report.json": (
        "d4151a66b1a9f4040cdd618c7af47290b508f32eb6a04366a395f3ca114307d4"
    ),
    "runs/fake-6069863856f8/report.md": (
        "498f1b39b2c5e48cd27ec3caec6f658d695baca6ef6bc0fa1aac8c8e5460a857"
    ),
    "runs/fake-6069863856f8/run_table.csv": (
        "2c10b9664386e053d9dc24ef2b8448a9becb269f7981d69c8a20e350b10dfca3"
    ),
    "runs/fake-6069863856f8/spec.json": (
        "a307e33a117fb855d7a098207bec246106b02341af56be4421099cb3acaf8820"
    ),
    "runs/other-4efd7ffa7c97/events/Bad--wordcount@slave-1.jsonl": (
        "c1d7e8ddc0a77f5d757b5e52a26757c5d85190dfde386edf6b0a4e5cc84aed08"
    ),
    "runs/other-4efd7ffa7c97/events/Good--wordcount@slave-1.jsonl": (
        "7be185890843ea14ad933adb8d770f0a76e00568d625f461665dc25c01b89270"
    ),
    "runs/other-4efd7ffa7c97/manifest.json": (
        "c404fd6ebc7316654fe30cc4eb9b98737046756c700f60a2d9a26579fdf2eb06"
    ),
    "runs/other-4efd7ffa7c97/report.json": (
        "481496f152967394d8355d3db6929733e37d1a0b76be3b5f80d8bf9b6b8101e9"
    ),
    "runs/other-4efd7ffa7c97/report.md": (
        "3a7df26542ca673d85a4436eb56ef4471d0b28fe89bad8454e3350103a619c15"
    ),
    "runs/other-4efd7ffa7c97/run_table.csv": (
        "d2c8c134792bc272ec9b102aff20ba56b34d1d08e5424f0501ac3af1c811cec1"
    ),
    "runs/other-4efd7ffa7c97/spec.json": (
        "4cb0f722b84c932f9d4a0631c782cb97fba17d3b0b0b2b7aa2a9188764b2c7c1"
    ),
}

#: ``build_pipeline`` stubs inference (no causes, no observed pair
#: values), and a bundle's explain.* project the diagnosis' inference,
#: so they agree with its report.json: no ranked cause, no pairs.
BUNDLE_DIGESTS = {
    "inc-0322ad3b6d9a/environment.json": (
        "6cf8e194159ab6dd4d8f51511f10a32335b79df33863896032231c821e73064b"
    ),
    "inc-0322ad3b6d9a/explain.json": (
        "539f1e9e402b80745dbc410547b12e1ca47632d9899e434e7926ad1871499ac8"
    ),
    "inc-0322ad3b6d9a/explain.txt": (
        "d2a33570cd423dd677d14299a22a62102280b163a78787a20146ddf05a5c9121"
    ),
    "inc-0322ad3b6d9a/flight.json": (
        "25d53674a0320af7899e638613007a5be8b0fa2ce242b4b67b9a188e50f8a74c"
    ),
    "inc-0322ad3b6d9a/manifest.json": (
        "2b3e0b0b139d4a4bc10be477d778e1c541bcb67d740c258badbf20bb5f7dbb24"
    ),
    "inc-0322ad3b6d9a/models/invariants_wordcount_node-0.xml": (
        "bd403142849269ae924fbe789a8c83f3fed7ea9142aaa1ed3276545fba845f0a"
    ),
    "inc-0322ad3b6d9a/models/model_wordcount_node-0.xml": (
        "40bc4e3bff815deb54e2deb1a9afc838b3f522dab11a61435cc766f5b9b9f1db"
    ),
    "inc-0322ad3b6d9a/models/signatures_wordcount_node-0.xml": (
        "740c92e071b3d26a2abc52183908401b9a7d31e28451504ad53ff6e405e840ea"
    ),
    "inc-0322ad3b6d9a/report.json": (
        "862d478defe017f36e48884559d673f51d0cfb021e551852aaaae3f594f312a4"
    ),
    "inc-0322ad3b6d9a/window.json": (
        "5baa6fabf9826bb9094052078edeffb0393dbe64365eba483a89aee8d0ab43ff"
    ),
    "inc-436994998c00/environment.json": (
        "6cf8e194159ab6dd4d8f51511f10a32335b79df33863896032231c821e73064b"
    ),
    "inc-436994998c00/explain.json": (
        "d835597b91b765c1f30e7776bf7298aaf9ae0f0b9d47c6bf03ab4d70ecdc06a8"
    ),
    "inc-436994998c00/explain.txt": (
        "bfedae6fa45c99d4eb70a8a29e8a27835e15e91fdfb1a432c6da63b74cedc184"
    ),
    "inc-436994998c00/flight.json": (
        "d8360bbfbcab1b0f0911239775a8e890e168ab72392dc2f6e52bf881f293dddd"
    ),
    "inc-436994998c00/manifest.json": (
        "269a745d9cd86230515563971cf83ed6c7c594e57890a88ed5eb535578995665"
    ),
    "inc-436994998c00/models/invariants_wordcount_node-0.xml": (
        "bd403142849269ae924fbe789a8c83f3fed7ea9142aaa1ed3276545fba845f0a"
    ),
    "inc-436994998c00/models/model_wordcount_node-0.xml": (
        "40bc4e3bff815deb54e2deb1a9afc838b3f522dab11a61435cc766f5b9b9f1db"
    ),
    "inc-436994998c00/models/signatures_wordcount_node-0.xml": (
        "740c92e071b3d26a2abc52183908401b9a7d31e28451504ad53ff6e405e840ea"
    ),
    "inc-436994998c00/report.json": (
        "e705e45104c3c4012cb5002d1922c664a2e7b2411ba6dfa06dc9583ee455b20f"
    ),
    "inc-436994998c00/window.json": (
        "2aa0bb81a1f202fd47226342030019e8e9ce0bf66435689063e241f726cf558f"
    ),
}

STORE_DIGESTS = {
    "contexts/%2A@%2A/invariants.xml": (
        "16e0b48631c56718f0e256b0c39d093d33d56f6d2e708a55b1e0d175dad93f88"
    ),
    "contexts/%2A@%2A/model.xml": (
        "b709159e6868ca61ae9fc41b33ec617e6d80a8d344972a36305906c6b8059936"
    ),
    "contexts/%2A@%2A/signatures.xml": (
        "79d7cc561174957e562ce19371db1d717848e6885fc122981ae425848ee622cb"
    ),
    "contexts/wordcount@slave-1/invariants.xml": (
        "079c61420f814926e9d4e37efbb1906b675020394c92930c8d028c3f10bd8237"
    ),
    "contexts/wordcount@slave-1/model.xml": (
        "b8f52b6c51a001681ca03ee6c71e4576b5c6ad2b01bad1801a5f7657c7e2b5ce"
    ),
    "contexts/wordcount@slave-1/signatures.xml": (
        "3a379b6c45d53a79ff02ebb10f6cdae0f62ff5eddb3d3c8a5ee64f555ba60ebb"
    ),
    "manifest.json": (
        "00f48886727d67733fe8c71da5a18d5513465f9d9fb32aa53390021b6569ac3e"
    ),
}


def test_registry_run_directories_keep_their_bytes(tmp_path, monkeypatch):
    registry = build_registry(tmp_path / "campaigns", monkeypatch)
    digests = tree_digests(registry.root, skip=("index.sqlite",))
    digests["<index dump>"] = hashlib.sha256(
        registry.index.dump().encode("utf-8")
    ).hexdigest()
    assert digests == REGISTRY_DIGESTS


def test_incident_bundles_keep_their_bytes(tmp_path):
    build_bundles(tmp_path / "incidents")
    assert tree_digests(tmp_path / "incidents") == BUNDLE_DIGESTS


def test_directory_store_keeps_its_bytes(tmp_path):
    build_store(tmp_path / "store")
    assert tree_digests(tmp_path / "store") == STORE_DIGESTS
