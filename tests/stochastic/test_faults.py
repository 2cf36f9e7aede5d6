"""Restart semantics of simulate_compiled under a DeviceFaults plan.

Hand-built graphs with hand-computable timings: every scenario's start,
end, and lost-work numbers are derived on paper in the test body.
"""

import pytest

from repro.pipeline.work import Task, WorkKind
from repro.pipeline.executor import DeviceFaults, compile_graph, simulate_compiled


def chain_graph(durations, device=0, num_devices=None):
    """A linear chain of forward tasks on one device."""
    tasks = []
    for i, d in enumerate(durations):
        tasks.append(Task(
            tid=f"t{i}",
            device=device,
            kind=WorkKind.FORWARD,
            duration=d,
            deps=(f"t{i - 1}",) if i else (),
            priority=(i,),
            meta={"stage": device, "micro_batch": i},
        ))
    return compile_graph(tasks, num_devices or device + 1)


def faults(times, delay=0.0, ckpt=0.0, num_devices=1, device=0):
    ft = [()] * num_devices
    ft[device] = tuple(times)
    return DeviceFaults(failure_times=tuple(ft), restart_delay=delay,
                        checkpoint_every=ckpt)


class TestNoFaults:
    def test_task_durs_path_matches_table_path(self):
        g = chain_graph([1.0, 2.0, 0.5])
        by_table = simulate_compiled(g, tuple(float(c + 1) for c in range(8)))
        by_tasks = simulate_compiled(
            g, None, task_durs=[float(c + 1) for c in g.dur_code])
        assert by_tasks.start == by_table.start
        assert by_tasks.ev_end == by_table.ev_end
        assert by_tasks.makespan == by_table.makespan
        assert by_tasks.restarts == ()

    def test_failure_after_makespan_is_ignored(self):
        g = chain_graph([1.0])
        sim = simulate_compiled(g, None, task_durs=[1.0],
                                faults=faults([5.0], delay=1.0))
        assert sim.makespan == 1.0
        assert sim.restarts == ()


class TestIdleFailure:
    def test_failure_before_start_delays_start(self):
        g = chain_graph([1.0])
        sim = simulate_compiled(g, None, task_durs=[1.0],
                                faults=faults([0.0], delay=0.5))
        assert list(sim.start) == [0.5]
        assert sim.makespan == 1.5
        # Idle restarts lose no work.
        assert sim.restarts == ((0, 0, 0.0, 0.5, 0.0),)


class TestInAttemptFailure:
    def test_whole_attempt_lost_without_checkpoints(self):
        g = chain_graph([1.0])
        sim = simulate_compiled(g, None, task_durs=[1.0],
                                faults=faults([0.6], delay=0.2))
        # 0.6s of work lost, resume at 0.8, full redo => end 1.8.
        assert sim.makespan == pytest.approx(1.8)
        assert sim.restarts == ((0, 0, 0.6, pytest.approx(0.8),
                                 pytest.approx(0.6)),)

    def test_checkpoint_preserves_completed_intervals(self):
        g = chain_graph([1.0])
        sim = simulate_compiled(g, None, task_durs=[1.0],
                                faults=faults([0.6], delay=0.2, ckpt=0.25))
        # Checkpoints at 0.25/0.5: failing at 0.6 keeps 0.5s, loses 0.1s;
        # resume 0.8 with 0.5s left => end 1.3.
        assert sim.makespan == pytest.approx(1.3)
        (dev, idx, fail, resume, lost), = sim.restarts
        assert (dev, idx, fail) == (0, 0, 0.6)
        assert resume == pytest.approx(0.8)
        assert lost == pytest.approx(0.1)

    def test_two_failures_in_one_attempt(self):
        g = chain_graph([1.0])
        sim = simulate_compiled(g, None, task_durs=[1.0],
                                faults=faults([0.3, 0.9], delay=0.1))
        # Lose 0.3 (resume 0.4), lose 0.5 (resume 1.0), finish at 2.0.
        assert sim.makespan == pytest.approx(2.0)
        assert len(sim.restarts) == 2
        assert sum(r[4] for r in sim.restarts) == pytest.approx(0.8)

    def test_failure_during_downtime_extends_outage(self):
        g = chain_graph([1.0])
        sim = simulate_compiled(g, None, task_durs=[1.0],
                                faults=faults([0.5, 0.6], delay=0.5))
        # 0.5: lose 0.5s, down until 1.0.  0.6 strikes a dead device:
        # the outage extends to 1.1, nothing new is lost.
        assert sim.makespan == pytest.approx(2.1)
        assert [r[4] for r in sim.restarts] == [pytest.approx(0.5), 0.0]

    def test_downstream_tasks_shift(self):
        g = chain_graph([1.0, 1.0])
        sim = simulate_compiled(g, None, task_durs=[1.0, 1.0],
                                faults=faults([0.5], delay=0.5))
        # t0 redone after the failure: 0.5 lost + 0.5 downtime => ends 2.0;
        # t1 rides behind untouched.
        assert list(sim.ev_end) == [pytest.approx(2.0), pytest.approx(3.0)]
        assert sim.start[1] == pytest.approx(2.0)

    def test_fault_free_devices_unaffected(self):
        tasks = [
            Task(tid="a", device=0, kind=WorkKind.FORWARD, duration=1.0,
                 priority=(0,), meta={"stage": 0, "micro_batch": 0}),
            Task(tid="b", device=1, kind=WorkKind.FORWARD, duration=1.0,
                 priority=(0,), meta={"stage": 1, "micro_batch": 0}),
        ]
        g = compile_graph(tasks, 2)
        sim = simulate_compiled(g, None, task_durs=[1.0, 1.0],
                                faults=faults([0.5], delay=0.5,
                                              num_devices=2, device=1))
        by_dev = {g.device[i]: sim.ev_end[i] for i in range(2)}
        assert by_dev[0] == 1.0
        assert by_dev[1] == pytest.approx(2.0)

    def test_faulty_span_never_beats_fault_free(self):
        g = chain_graph([0.5, 1.0, 0.75])
        clean = simulate_compiled(g, None, task_durs=[0.5, 1.0, 0.75])
        for times in ([0.1], [0.6, 1.2], [0.0, 0.3, 1.9]):
            for ckpt in (0.0, 0.25):
                sim = simulate_compiled(
                    g, None, task_durs=[0.5, 1.0, 0.75],
                    faults=faults(times, delay=0.2, ckpt=ckpt))
                assert sim.makespan >= clean.makespan
