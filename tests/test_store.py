import errno
import os
import threading
import urllib.parse

import pytest

from queuemc.errors import CorruptionError, KeyExistsError, NotFoundError, StorageFullError
from queuemc.store import DirectoryObjectStore, MemoryObjectStore, content_digest


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryObjectStore()
    return DirectoryObjectStore(tmp_path / "objects")


def test_put_get_round_trip(store):
    data = b"\x00\x01payload\xff"
    digest = store.put("ds", data)
    assert store.get("ds") == data
    assert digest == content_digest(data)


def test_put_same_key_twice_rejected(store):
    store.put("k", b"a")
    with pytest.raises(KeyExistsError):
        store.put("k", b"b")


def test_get_missing_key(store):
    with pytest.raises(NotFoundError):
        store.get("nope")


def test_200_mb_payload_size_reported(store):
    # Realistic payload scale for a full multi-cluster dataset bundle.
    data = bytes(200 * 1024 * 1024)
    store.put("big", data)
    assert len(store.get("big")) == len(data)


def test_concurrent_readers_see_identical_digests(store):
    data = b"shared-dataset" * 1000
    store.put("k", data)
    digests = []
    lock = threading.Lock()

    def read():
        d = content_digest(store.get("k"))
        with lock:
            digests.append(d)

    threads = [threading.Thread(target=read) for _ in range(50)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(digests) == 50
    assert len(set(digests)) == 1


def test_disk_layout_and_sidecar(tmp_path):
    root = tmp_path / "objects"
    store = DirectoryObjectStore(root)
    digest = store.put("some/key", b"abc")
    encoded = urllib.parse.quote("some/key", safe="")
    assert encoded == "some%2Fkey"
    assert (root / encoded).read_bytes() == b"abc"
    assert (root / (encoded + ".sha")).read_text() == f"{digest} 3\n"


def test_disk_corruption_detected(tmp_path):
    root = tmp_path / "objects"
    store = DirectoryObjectStore(root)
    store.put("k", b"original")
    path = root / "k"
    path.unlink()
    path.write_bytes(b"tampered")
    with pytest.raises(CorruptionError):
        store.get("k")


@pytest.mark.parametrize("sidecar", [
    pytest.param("{digest} five\n".encode("ascii"), id="size-not-an-integer"),
    pytest.param("{digest} 8\n".encode("ascii") + "é".encode("utf-8"), id="not-ascii"),
])
def test_disk_unreadable_sidecar_is_corruption(tmp_path, sidecar):
    root = tmp_path / "objects"
    store = DirectoryObjectStore(root)
    digest = store.put("k", b"original")
    side = root / "k.sha"
    side.unlink()
    side.write_bytes(sidecar.replace(b"{digest}", digest.encode("ascii")))
    with pytest.raises(CorruptionError):
        store.get("k")


def test_disk_store_shared_between_instances(tmp_path):
    # Read-your-writes across "processes" (two handles to one root).
    writer = DirectoryObjectStore(tmp_path / "objects")
    reader = DirectoryObjectStore(tmp_path / "objects")
    writer.put("k", b"cross-context")
    assert reader.get("k") == b"cross-context"


def _disk_full(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fails", ["publish", "link", "sidecar"])
def test_disk_put_on_a_full_disk(tmp_path, monkeypatch, fails):
    # The disk fills up in the publication as a whole, at its link after
    # the temp file has been written, or while the digest sidecar is
    # published after the data file.
    root = tmp_path / "objects"
    store = DirectoryObjectStore(root)
    if fails == "publish":
        monkeypatch.setattr(DirectoryObjectStore, "_publish", _disk_full)
    elif fails == "link":
        monkeypatch.setattr(os, "link", _disk_full)
    else:
        publish, calls = DirectoryObjectStore._publish, []

        def second_call_fails(self, target, data):
            calls.append(target)
            if len(calls) == 2:
                _disk_full()
            publish(self, target, data)

        monkeypatch.setattr(DirectoryObjectStore, "_publish", second_call_fails)
    with pytest.raises(StorageFullError):
        store.put("k", b"payload")
    with pytest.raises(NotFoundError):
        store.get("k")
    assert not list(root.iterdir())  # no data file, sidecar or temp file
    monkeypatch.undo()
    store.put("k", b"payload")  # the key is absent, so a retry succeeds
    assert store.get("k") == b"payload"
