import json
import logging

from debias_embed.manifest import RunManifest, capture_warnings, file_fingerprint


def test_file_fingerprint_stable_and_content_sensitive(tmp_path):
    a = tmp_path / "a.bin"
    a.write_bytes(b"hello world")
    b = tmp_path / "b.bin"
    b.write_bytes(b"hello world!")
    assert file_fingerprint(str(a)) == file_fingerprint(str(a))
    assert file_fingerprint(str(a)) != file_fingerprint(str(b))
    assert len(file_fingerprint(str(a))) == 64


def test_manifest_written_with_single_timestamp_key(tmp_path):
    src = tmp_path / "input.vec"
    src.write_text("1 2\nw 1 2\n")
    manifest = RunManifest(
        command=["debias-embed", "debias"],
        config={"k": 4},
        seeds={"seed": 0},
        inputs={str(src): file_fingerprint(str(src))},
    )
    out = tmp_path / "run.manifest.json"
    manifest.write(str(out))
    data = json.loads(out.read_text())
    assert data["config"] == {"k": 4}
    assert data["seeds"] == {"seed": 0}
    assert data["inputs"][str(src)] == file_fingerprint(str(src))
    assert data["tool_version"]
    timestamp_keys = [k for k in data if "time" in k or "created" in k or "date" in k]
    assert timestamp_keys == ["created_at"]
    assert data["created_at"].endswith("+00:00") or data["created_at"].endswith("Z")


def test_manifest_outputs_fingerprinted(tmp_path):
    out_file = tmp_path / "result.vec"
    out_file.write_text("1 1\nw 0.5\n")
    manifest = RunManifest(command=["x"], config={}, seeds={}, inputs={})
    manifest.add_output(str(out_file))
    path = tmp_path / "m.json"
    manifest.write(str(path))
    data = json.loads(path.read_text())
    assert data["outputs"][str(out_file)] == file_fingerprint(str(out_file))


def test_capture_warnings_collects_package_logs():
    log = logging.getLogger("debias_embed.somewhere")
    with capture_warnings() as messages:
        log.warning("first thing %d", 1)
        log.warning("second thing")
    assert messages == ["first thing 1", "second thing"]
    # handler detached: further warnings are not appended
    log.warning("third thing")
    assert len(messages) == 2
