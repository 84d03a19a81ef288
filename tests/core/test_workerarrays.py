"""WorkerArrays view consistency: SoA columns vs thin Worker views.

The struct-of-arrays refactor split each worker's hot state between a
shared per-region column store (read by the dispatch fast path) and the
``Worker`` object that owns one row (read by cold paths).  These tests
pin the contract that both sides always observe the same state —
admission decisions, load scores, memory budget, online flag, and
locality group must agree whether computed from the columns or through
the view.
"""

import math

from repro.cluster import MachineSpec
from repro.core import Worker, WorkerArrays, WorkerParams
from repro.core.call import CallIdAllocator, FunctionCall
from repro.sim import Simulator
from repro.workloads import FunctionSpec, LogNormal, ResourceProfile

_ids = CallIdAllocator()


def fixed_profile(cpu=100.0, mem=64.0, exec_s=1.0):
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(cpu), sigma=0.0),
        memory_mb=LogNormal(mu=math.log(mem), sigma=0.0),
        exec_time_s=LogNormal(mu=math.log(exec_s), sigma=0.0))


def make_call(sim, name="f", cpu=100.0, mem=64.0, exec_s=1.0):
    spec = FunctionSpec(name=name, profile=fixed_profile(cpu, mem, exec_s),
                        code_size_mb=5.0)
    return FunctionCall(spec=spec, submit_time=sim.now, start_time=sim.now,
                        region_submitted="r", source_level=0,
                        call_id=_ids.allocate())


def make_worker(sim, arrays=None, name="w0", threads=8, cores=4,
                memory_mb=64 * 1024.0):
    machine = MachineSpec(cores=cores, core_mips=1000.0, threads=threads,
                          memory_mb=memory_mb)
    return Worker(sim, name, "r", machine=machine, params=WorkerParams(),
                  arrays=arrays)


def cold_memory(w):
    """Memory recomputed from the view's cold state, as the column must be."""
    return (w.params.runtime_baseline_mb + w._resident_mb +
            w._live_memory_mb)


def view_score(arr, i):
    """The dispatch loop's inlined load score, recomputed from columns."""
    s = arr.running[i] / arr.threads[i]
    s = max(s, arr.cpu_load[i] / arr.cores[i])
    return max(s, arr.mem_mb[i] / arr.memory_mb[i])


class TestSharedStoreLayout:
    def test_workers_own_consecutive_rows(self):
        sim = Simulator()
        store = WorkerArrays()
        ws = [make_worker(sim, arrays=store, name=f"w{i}") for i in range(5)]
        assert len(store) == 5
        for i, w in enumerate(ws):
            assert w._arrays is store
            assert w._index == i
            assert store.workers[i] is w
        assert store.capacity_threads == 5 * 8
        assert store.free_threads() == 5 * 8

    def test_group_epoch_moves_on_append_and_group_write(self):
        sim = Simulator()
        store = WorkerArrays()
        w = make_worker(sim, arrays=store)
        epoch = store.group_epoch
        make_worker(sim, arrays=store, name="w1")
        assert store.group_epoch > epoch
        epoch = store.group_epoch
        w.locality_group = 2
        assert store.group_epoch > epoch
        epoch = store.group_epoch
        store.set_group(slice(0, 2), store.group[::-1])
        assert store.group_epoch > epoch
        assert list(store.group) == [0, 2]

    def test_private_store_by_default(self):
        sim = Simulator()
        w = make_worker(sim)
        assert len(w._arrays) == 1
        assert w._arrays.workers[0] is w


class TestColumnViewConsistency:
    def test_running_and_cpu_track_execute_complete(self):
        sim = Simulator()
        store = WorkerArrays()
        w = make_worker(sim, arrays=store)
        i = w._index
        assert store.running[i] == 0
        assert w.execute(make_call(sim, exec_s=2.0))
        assert store.running[i] == w.running_count == 1
        assert store.cpu_load[i] == w.cpu_load
        assert store.total_running == 1
        sim.run_until(10.0)
        assert store.running[i] == w.running_count == 0
        assert store.cpu_load[i] == w.cpu_load == 0.0
        assert store.total_running == 0

    def test_memory_column_equals_view_memory(self):
        sim = Simulator()
        store = WorkerArrays()
        w = make_worker(sim, arrays=store)
        i = w._index
        w.execute(make_call(sim, mem=512.0))
        assert store.mem_mb[i] == w.memory_in_use_mb == cold_memory(w)
        sim.run_until(10.0)
        # Resident set (code cache) persists after the call finishes and
        # both sides see it.
        assert store.mem_mb[i] == w.memory_in_use_mb == cold_memory(w)

    def test_load_score_matches_inlined_column_score(self):
        sim = Simulator()
        store = WorkerArrays()
        w = make_worker(sim, arrays=store)
        for k in range(3):
            w.execute(make_call(sim, name=f"f{k}", cpu=4000.0, mem=256.0,
                                exec_s=5.0))
        assert w.load_score() == view_score(store, w._index)

    def test_admission_flips_exactly_when_thread_column_fills(self):
        sim = Simulator()
        store = WorkerArrays()
        w = make_worker(sim, arrays=store, threads=2)
        i = w._index
        probe = make_call(sim, name="probe", cpu=1.0, mem=1.0)
        assert w.can_admit(probe)
        w.execute(make_call(sim, name="a", exec_s=50.0))
        assert store.running[i] < store.threads[i]
        assert w.can_admit(probe)
        w.execute(make_call(sim, name="b", exec_s=50.0))
        assert store.running[i] == store.threads[i]
        assert not w.can_admit(probe)

    def test_memory_budget_refusal_reads_column(self):
        # 64 GiB machine, 0.92 headroom, 4 GiB runtime baseline: one
        # 50 000 MB call leaves room for a small call but not a second
        # large one.  Projection reads the mem column, not the view.
        sim = Simulator()
        store = WorkerArrays()
        w = make_worker(sim, arrays=store)
        w.execute(make_call(sim, name="big", mem=50_000.0, exec_s=50.0))
        assert not w.can_admit(make_call(sim, name="big2", mem=50_000.0))
        assert w.can_admit(make_call(sim, name="small", mem=64.0))

    def test_online_flag_roundtrips_through_column(self):
        sim = Simulator()
        store = WorkerArrays()
        w = make_worker(sim, arrays=store)
        i = w._index
        assert w.online and store.online[i] == 1
        w.online = False
        assert store.online[i] == 0
        assert not w.can_admit(make_call(sim))
        store.online[i] = 1
        assert w.online

    def test_locality_group_roundtrips_through_column(self):
        sim = Simulator()
        store = WorkerArrays()
        ws = [make_worker(sim, arrays=store, name=f"w{i}") for i in range(4)]
        ws[2].locality_group = 3
        assert store.group[2] == 3
        store.set_group(1, 7)
        assert ws[1].locality_group == 7
        assert [w.locality_group for w in ws] == list(store.group)


class TestFailRecover:
    def test_fail_interrupt_resyncs_columns(self):
        sim = Simulator()
        store = WorkerArrays()
        w = make_worker(sim, arrays=store)
        i = w._index
        for k in range(3):
            w.execute(make_call(sim, name=f"f{k}", exec_s=100.0))
        assert store.total_running == 3
        w.fail()
        assert not w.online and store.online[i] == 0
        assert store.running[i] == w.running_count == 0
        assert store.cpu_load[i] == w.cpu_load == 0.0
        assert store.total_running == 0

    def test_recover_resyncs_memory_column(self):
        sim = Simulator()
        store = WorkerArrays()
        w = make_worker(sim, arrays=store)
        i = w._index
        w.execute(make_call(sim, mem=256.0, exec_s=100.0))
        w.fail()
        w.recover()
        assert w.online and store.online[i] == 1
        assert store.mem_mb[i] == w.memory_in_use_mb == cold_memory(w)
        # Recovered worker admits again through the same columns.
        assert w.can_admit(make_call(sim, name="after"))
