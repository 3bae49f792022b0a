"""The perf trajectory: ``benchmarks/ab_pairs.py --record`` links.

``BENCH_trajectory.json`` at the repo root is a chain of paired A/B
sessions, one link per change and workload.  These tests pin the link
schema, the ``parent_rev`` chaining (of the committed file and of
``append_link``), and that a link names a change by the tree its commit
will hold.
"""

import importlib.util
import json
import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _ab_pairs():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", os.path.join(ROOT, "benchmarks", "ab_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_pairs = _ab_pairs()


def _link(workload, git_rev, parent_rev, ratio=1.0):
    side = {"fastest_quarter_ms": 100.0, "median_ms": 110.0}
    return {
        "workload": workload,
        "git_rev": git_rev,
        "parent_rev": parent_rev,
        "host": {"cpu_model": "cpu", "nproc": 2, "affinity": 2, "python": "3.11.7"},
        "seed": 0,
        "pairs": 16,
        "change": dict(side),
        "parent": dict(side),
        "ratio": ratio,
        "ahead": 8,
        "aa_ratio": 1.0,
    }


class TestCommittedTrajectory:
    def load(self):
        with open(os.path.join(ROOT, "BENCH_trajectory.json"), encoding="utf-8") as handle:
            return json.load(handle)

    def test_links_have_the_schema(self):
        links = self.load()
        assert links, "the trajectory holds at least one link"
        for link in links:
            assert tuple(link) == ab_pairs.LINK_FIELDS
            assert set(link["host"]) == {"cpu_model", "nproc", "affinity", "python"}
            for side in ("change", "parent"):
                assert set(link[side]) == {"fastest_quarter_ms", "median_ms"}
                assert all(value > 0 for value in link[side].values())
            assert link["ratio"] == pytest.approx(
                link["parent"]["fastest_quarter_ms"] / link["change"]["fastest_quarter_ms"]
            )
            assert 0 <= link["ahead"] <= link["pairs"]
            assert link["aa_ratio"] > 0
            for rev in ("git_rev", "parent_rev"):
                assert len(link[rev]) == 40 and int(link[rev], 16) >= 0

    def test_links_chain(self):
        assert ab_pairs.chain_breaks(self.load()) == []


class TestAppendLink:
    def test_links_chain_per_workload(self, tmp_path):
        path = str(tmp_path / "trajectory.json")
        ab_pairs.append_link(path, _link("seq_ring", "b" * 40, "a" * 40))
        ab_pairs.append_link(path, _link("thr_mha", "b" * 40, "a" * 40))
        ab_pairs.append_link(path, _link("seq_ring", "c" * 40, "b" * 40))
        with open(path, encoding="utf-8") as handle:
            links = json.load(handle)
        assert [(link["workload"], link["git_rev"][0]) for link in links] == [
            ("seq_ring", "b"), ("thr_mha", "b"), ("seq_ring", "c"),
        ]

    def test_a_link_that_breaks_the_chain_is_refused(self, tmp_path):
        path = str(tmp_path / "trajectory.json")
        ab_pairs.append_link(path, _link("seq_ring", "b" * 40, "a" * 40))
        before = open(path, encoding="utf-8").read()
        with pytest.raises(SystemExit, match="parent_rev"):
            ab_pairs.append_link(path, _link("seq_ring", "d" * 40, "c" * 40))
        assert open(path, encoding="utf-8").read() == before

    def test_a_link_missing_a_field_is_refused(self, tmp_path):
        link = _link("seq_ring", "b" * 40, "a" * 40)
        del link["aa_ratio"]
        with pytest.raises(SystemExit, match="fields"):
            ab_pairs.append_link(str(tmp_path / "trajectory.json"), link)


@pytest.mark.skipif(shutil.which("git") is None, reason="git unavailable")
def test_source_rev_names_the_tree_its_commit_holds(tmp_path):
    """Recorded before its commit exists, a change's ``git_rev`` is the
    tree the commit then holds under ``src/`` — untracked files included,
    ignored ones not."""

    def git(*arguments):
        return subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
             *arguments],
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    git("init", "-q")
    (tmp_path / ".gitignore").write_text("__pycache__/\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("a = 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    assert ab_pairs.source_rev(str(tmp_path)) == git("rev-parse", "HEAD:src")
    (tmp_path / "src" / "a.py").write_text("a = 2\n")
    (tmp_path / "src" / "b.py").write_text("b = 1\n")
    (tmp_path / "src" / "__pycache__").mkdir()
    (tmp_path / "src" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    recorded = ab_pairs.source_rev(str(tmp_path))
    assert git("status", "--porcelain") == "M src/a.py\n?? src/b.py"
    git("add", "-A")
    git("commit", "-q", "-m", "change")
    assert recorded == git("rev-parse", "HEAD:src")
