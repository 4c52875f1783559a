"""Host fingerprint fields and the thread pinning children run under."""

import json

import fingerprint
import run


def test_fingerprint_fields(tmp_path):
    host = fingerprint.host_fingerprint(str(tmp_path))
    assert set(host) == {
        "cpu_model", "nproc", "load_start", "load_end", "python", "numpy",
        "kernel_backend", "git_rev", "git_dirty", "thread_env",
    }
    assert isinstance(host["cpu_model"], str) and host["cpu_model"]
    assert host["nproc"] >= 1
    assert len(host["load_start"]) == 3
    assert host["python"].count(".") == 2
    # Outside a git checkout (the benchmark's own runs) there is no revision.
    assert host["git_rev"] is None and host["git_dirty"] is None
    assert host["thread_env"]["OMP_NUM_THREADS"] == "1"
    json.dumps(host)


def test_git_state_of_a_repository():
    state = fingerprint.git_state(run.ROOT)
    if state["git_rev"] is not None:
        assert len(state["git_rev"]) == 40
        assert isinstance(state["git_dirty"], bool)


def test_children_run_with_threads_pinned_and_scratch_inside_checkout():
    env = run.child_env()
    for name, value in fingerprint.THREAD_ENV.items():
        assert env[name] == value
    assert env["PYTHONPATH"].split(":")[0].endswith("src")
    assert env["TMPDIR"].startswith(run.ROOT)
