"""Tests for the Env abstraction (LocalFsEnv and MemEnv behave alike)."""

import pytest

from repro.errors import NotFoundError
from repro.lsm.env import LocalFsEnv, MemEnv, normalize_path


@pytest.fixture(params=["mem", "local"])
def env_root(request, tmp_path):
    if request.param == "mem":
        env = MemEnv()
        return env, "root"
    env = LocalFsEnv()
    return env, str(tmp_path / "root")


class TestEnvContract:
    def test_write_then_read(self, env_root):
        env, root = env_root
        env.create_dir(root)
        path = env.join(root, "file")
        with env.new_writable_file(path) as fh:
            fh.append(b"hello ")
            fh.append(b"world")
            fh.flush()
            fh.sync()
        assert env.file_exists(path)
        assert env.file_size(path) == 11
        with env.new_random_access_file(path) as fh:
            assert fh.read(0, 5) == b"hello"
            assert fh.read(6, 5) == b"world"
            assert fh.size() == 11

    def test_read_past_eof_is_short(self, env_root):
        env, root = env_root
        env.create_dir(root)
        path = env.join(root, "f")
        with env.new_writable_file(path) as fh:
            fh.append(b"abc")
        with env.new_random_access_file(path) as fh:
            assert fh.read(2, 100) == b"c"
            assert fh.read(50, 10) == b""

    def test_sequential_read(self, env_root):
        env, root = env_root
        env.create_dir(root)
        path = env.join(root, "f")
        with env.new_writable_file(path) as fh:
            fh.append(b"0123456789")
        with env.new_sequential_file(path) as fh:
            assert fh.read(4) == b"0123"
            assert fh.read(4) == b"4567"
            assert fh.read(4) == b"89"
            assert fh.read(4) == b""

    def test_missing_file_raises(self, env_root):
        env, root = env_root
        env.create_dir(root)
        with pytest.raises(NotFoundError):
            env.new_random_access_file(env.join(root, "nope"))
        with pytest.raises(NotFoundError):
            env.file_size(env.join(root, "nope"))
        with pytest.raises(NotFoundError):
            env.delete_file(env.join(root, "nope"))

    def test_delete(self, env_root):
        env, root = env_root
        env.create_dir(root)
        path = env.join(root, "f")
        env.new_writable_file(path).close()
        env.delete_file(path)
        assert not env.file_exists(path)

    def test_rename_replaces(self, env_root):
        env, root = env_root
        env.create_dir(root)
        src, dst = env.join(root, "src"), env.join(root, "dst")
        with env.new_writable_file(src) as fh:
            fh.append(b"data")
        with env.new_writable_file(dst) as fh:
            fh.append(b"old")
        env.rename_file(src, dst)
        assert not env.file_exists(src)
        with env.new_random_access_file(dst) as fh:
            assert fh.read(0, 10) == b"data"

    def test_get_children(self, env_root):
        env, root = env_root
        env.create_dir(root)
        for name in ("b", "a", "c"):
            env.new_writable_file(env.join(root, name)).close()
        assert env.get_children(root) == ["a", "b", "c"]

    def test_get_children_missing_dir_raises(self, env_root):
        env, root = env_root
        with pytest.raises(NotFoundError):
            env.get_children(env.join(root, "missing-dir"))

    def test_create_dir_idempotent(self, env_root):
        env, root = env_root
        env.create_dir(root)
        env.create_dir(root)
        assert env.get_children(root) == []

    def test_overwrite_truncates(self, env_root):
        env, root = env_root
        env.create_dir(root)
        path = env.join(root, "f")
        with env.new_writable_file(path) as fh:
            fh.append(b"long content here")
        with env.new_writable_file(path) as fh:
            fh.append(b"x")
        assert env.file_size(path) == 1


class TestLocalMmap:
    def test_mmap_reads(self, tmp_path):
        env = LocalFsEnv(use_mmap_reads=True)
        path = str(tmp_path / "f")
        with env.new_writable_file(path) as fh:
            fh.append(b"mmap me please")
        with env.new_random_access_file(path) as fh:
            assert fh.read(0, 4) == b"mmap"
            assert fh.read(8, 6) == b"please"

    def test_mmap_empty_file(self, tmp_path):
        env = LocalFsEnv(use_mmap_reads=True)
        path = str(tmp_path / "f")
        env.new_writable_file(path).close()
        with env.new_random_access_file(path) as fh:
            assert fh.read(0, 4) == b""


class TestMemEnvNesting:
    def test_nested_children(self):
        env = MemEnv()
        env.create_dir("a/b")
        env.new_writable_file("a/b/f1").close()
        env.new_writable_file("a/c").close()
        assert env.get_children("a") == ["b", "c"]
        assert env.get_children("a/b") == ["f1"]

    @pytest.mark.parametrize(
        "path", ["db/x", "/db/x/", "db//x", "db///x", "//db////x//"]
    )
    def test_runs_of_slashes_name_one_path(self, path):
        env = MemEnv()
        with env.new_writable_file(path) as fh:
            fh.append(b"payload")
        assert env.file_exists("db/x")
        assert env.file_size("db/x") == 7
        assert env.get_children("db") == ["x"]
        assert env.get_children("/db//") == ["x"]


class TestNormalizePath:
    @pytest.mark.parametrize(
        "path, expected",
        [
            ("db/x", "db/x"),
            ("/db/x/", "db/x"),
            ("db///x", "db/x"),
            ("//a//b///c//", "a/b/c"),
            ("", ""),
            ("///", ""),
        ],
    )
    def test_drops_empty_pieces(self, path, expected):
        assert normalize_path(path) == expected
