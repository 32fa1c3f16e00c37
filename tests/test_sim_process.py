"""Unit tests for generator-based processes and signals."""

import pytest

from repro.sim import EventLoop, Process, Sleep, seconds, spawn


class TestSleep:
    def test_periodic_process(self):
        loop = EventLoop()
        ticks = []

        def body():
            while True:
                yield Sleep(seconds(15))
                ticks.append(loop.now)

        spawn(loop, body(), name="ticker")
        loop.run_until(seconds(60))
        assert ticks == [seconds(15), seconds(30), seconds(45), seconds(60)]

    def test_zero_sleep_resumes_at_same_time(self):
        loop = EventLoop()
        times = []

        def body():
            times.append(loop.now)
            yield Sleep(0)
            times.append(loop.now)

        spawn(loop, body())
        loop.run_until(seconds(1))
        assert times == [0, 0]

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            Sleep(-5)

    def test_process_finishes(self):
        loop = EventLoop()

        def body():
            yield Sleep(seconds(1))

        proc = spawn(loop, body())
        loop.run_until(seconds(2))
        assert proc.finished
        assert not proc.alive


class TestStop:
    def test_stopped_process_never_resumes(self):
        loop = EventLoop()
        ticks = []

        def body():
            while True:
                yield Sleep(seconds(1))
                ticks.append(loop.now)

        proc = spawn(loop, body())
        loop.run_until(seconds(3))
        proc.stop()
        loop.run_until(seconds(10))
        assert len(ticks) == 3
        assert proc.stopped and not proc.alive

    def test_stop_before_first_step(self):
        loop = EventLoop()
        ran = []

        def body():
            ran.append(True)
            yield Sleep(1)

        proc = spawn(loop, body())
        proc.stop()
        loop.run_until(seconds(1))
        assert ran == []


class TestState:
    def test_repr_and_alive_follow_the_lifecycle(self):
        loop = EventLoop()

        def body():
            yield Sleep(seconds(1))

        proc = spawn(loop, body(), name="acr")
        assert proc.alive and repr(proc) == "Process('acr', running)"
        loop.run_until(seconds(2))
        assert not proc.alive and repr(proc) == "Process('acr', finished)"

    def test_stop_after_finish_leaves_it_finished(self):
        loop = EventLoop()

        def body():
            yield Sleep(0)

        proc = spawn(loop, body())
        loop.run_until(seconds(1))
        proc.stop()
        assert proc.finished and not proc.alive
        assert repr(proc) == "Process('proc', stopped)"

    def test_unstarted_process_never_runs(self):
        loop = EventLoop()
        ran = []

        def body():
            ran.append(loop.now)
            yield Sleep(0)

        proc = Process(loop, body())
        loop.run_until(seconds(1))
        assert ran == [] and proc.alive


class TestErrors:
    def test_unknown_yield_command_raises(self):
        loop = EventLoop()

        def body():
            yield "not-a-command"

        spawn(loop, body())
        with pytest.raises(TypeError):
            loop.run_until(seconds(1))
