"""The worker pool shared by grid, fleet and serve
(``repro.experiments.pool``): the partition rule, and the rule for a
worker that dies mid-task."""

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments import cache as grid_cache
from repro.experiments import grid as grid_mod
from repro.experiments.pool import partition
from repro.fleet import SHARD_SIZE, PopulationSpec
from repro.fleet import runner as fleet_runner
from repro.obs.metrics import disable, enable


@given(items=st.lists(st.integers(0, 4), max_size=60),
       size=st.one_of(st.none(), st.integers(1, 8)))
def test_partition_keeps_every_item_once_in_order_under_one_key(items,
                                                                size):
    indexed = list(enumerate(items))
    tasks = partition(indexed, lambda item: item[1], size)
    assert sorted(item for task in tasks for item in task) == indexed
    for task in tasks:
        assert task and task == sorted(task)
        assert len({key for __, key in task}) == 1
        assert size is None or len(task) <= size
    # A key's runs come in input order and are full but for the last.
    for key in set(items):
        runs = [task for task in tasks if task[0][1] == key]
        assert [item for run in runs for item in run] == \
            [item for item in indexed if item[1] == key]
        if size is not None:
            assert all(len(run) == size for run in runs[:-1])


@settings(max_examples=25, deadline=None)
@given(households=st.integers(1, 80), seed=st.integers(0, 10_000))
def test_fleet_shards_are_country_runs_of_at_most_shard_size(households,
                                                             seed):
    population = list(PopulationSpec(households, seed=seed))
    shards = fleet_runner.shards(population, SHARD_SIZE)
    assert sorted(household.index for shard in shards
                  for household in shard) == list(range(households))
    for shard in shards:
        assert 0 < len(shard) <= SHARD_SIZE
        assert len({household.country for household in shard}) == 1
        indexes = [household.index for household in shard]
        assert indexes == sorted(indexes)


# -- a worker that dies mid-task ------------------------------------------------


@pytest.fixture
def kill_one_worker(monkeypatch, tmp_path):
    """Make the first forked pool worker that starts its second
    simulation exit at once with ``os._exit(1)``, as an OOM kill would.

    ``install(owner, name)`` wraps the simulation function; the parent
    (this process) never dies, so the serial reruns complete.  Returns
    the path of a marker file the dying worker creates.
    """
    marker = str(tmp_path / "worker-died")
    parent = os.getpid()

    def install(owner, name):
        real = getattr(owner, name)
        calls = []

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                calls.append(None)
                if len(calls) == 2:
                    try:
                        os.close(os.open(marker,
                                         os.O_CREAT | os.O_EXCL))
                    except FileExistsError:
                        pass
                    else:
                        os._exit(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, dying)
        return marker

    return install


def _cli(capsys, *argv):
    """Run the CLI in this process; return (exit code, stdout)."""
    code = main(list(argv))
    return code, capsys.readouterr().out


def _requeued(metrics_path):
    with open(metrics_path, encoding="utf-8") as fileobj:
        for line in fileobj:
            record = json.loads(line)
            if record.get("name") == "retry.worker.requeued":
                return record["value"]
    return 0


def _read(path):
    with open(path, "rb") as fileobj:
        return fileobj.read()


@pytest.mark.slow
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the dying wrapper reaches workers by fork")
class TestWorkerDeath:
    """A worker that dies mid-task breaks the pool; the lost tasks
    rerun in the parent, and the command ends as a clean run does."""

    GRID = ("grid", "--minutes", "1", "--filter", "vendor=samsung,lg",
            "--filter", "country=uk", "--filter", "scenario=linear,hdmi",
            "--filter", "phase=LIn-OIn")
    FLEET = ("--households", "6", "--seed", "22",
             "--mix", "country=uk:1,us:1", "--no-cache")

    def test_grid_stores_the_cells_of_a_clean_run(self, tmp_path, capsys,
                                                  kill_one_worker):
        # Two content groups (linear, HDMI) of two cells each.
        clean, died = tmp_path / "clean", tmp_path / "died"
        assert _cli(capsys, *self.GRID, "--jobs", "1",
                    "--cache-dir", str(clean))[0] == 0
        marker = kill_one_worker(grid_mod, "run_experiment")
        metrics = tmp_path / "metrics.jsonl"
        assert _cli(capsys, *self.GRID, "--jobs", "2",
                    "--cache-dir", str(died),
                    "--metrics-out", str(metrics))[0] == 0
        assert os.path.exists(marker)
        assert _requeued(metrics) >= 1
        stored = {}
        for root in (clean, died):
            stored[root] = {}
            for directory, __, names in os.walk(root):
                for name in names:
                    if name.endswith(".tmp"):
                        # The temp file of a store the broken pool's
                        # SIGTERM cut short; the cache never reads it.
                        continue
                    content = _read(os.path.join(directory, name))
                    if name.endswith(".json"):
                        content = json.loads(content)
                        content.pop("elapsed_s")
                    stored[root][name] = content
        assert len(stored[clean]) == 8
        assert stored[died] == stored[clean]

    def test_scorecard_renders_the_clean_verdicts(self, tmp_path, capsys,
                                                  monkeypatch,
                                                  kill_one_worker):
        # Roku's four scorecard cells form two content groups.
        outputs = []
        for jobs, dies in ((1, False), (2, True)):
            monkeypatch.setenv("REPRO_CACHE_DIR",
                               str(tmp_path / f"cache-{jobs}"))
            grid_cache.reset()
            if dies:
                marker = kill_one_worker(grid_mod, "run_experiment")
            findings = tmp_path / f"findings-{jobs}.jsonl"
            registry = enable()
            try:
                code, out = _cli(capsys, "scorecard", "--vendors", "roku",
                                 "--jobs", str(jobs),
                                 "--findings-out", str(findings))
            finally:
                disable()
                grid_cache.reset()
            outputs.append((code, out, _read(findings)))
        assert os.path.exists(marker)
        assert registry.counters.get("retry.worker.requeued", 0) >= 1
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("command", ["fleet", "serve"])
    def test_report_and_findings_match_a_clean_run(self, command,
                                                   tmp_path, capsys,
                                                   kill_one_worker):
        extra = ("--plain",) if command == "serve" else ()
        outputs = []
        for jobs in (1, 2):
            if jobs == 2:
                marker = kill_one_worker(fleet_runner, "run_session")
            findings = tmp_path / f"findings-{jobs}.jsonl"
            metrics = tmp_path / f"metrics-{jobs}.jsonl"
            code, out = _cli(capsys, command, *self.FLEET, *extra,
                             "--jobs", str(jobs),
                             "--findings-out", str(findings),
                             "--metrics-out", str(metrics))
            assert code == 0
            outputs.append((out, _read(findings)))
        assert os.path.exists(marker)
        assert _requeued(metrics) >= 1
        assert outputs[1] == outputs[0]
