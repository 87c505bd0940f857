"""rational_product's classes on worker processes: the same bits, and no process left behind.

A batch of classes (qfunc.rational_products) is shared between the calling
process and one forked worker wherever more than one CPU is usable.  Every
class is the same _class_products on the same ints wherever it runs, and
each list is put together in the same order, so the parallel results must
equal the serial ones bit for bit: on the shift lists the counted left
sides hand the kernel (PROTOTYPE; decimal COR2, whose two single-class
lists run side by side; COR2 with a complex beta, in blocks of two; THM4
mod 5 with a complex character, blocks of four beside exact real classes),
at every checkpoint stop, with two usable CPUs, and on THM4 mod 7 with
three, where still one worker runs.  The serial path is forced by one
usable CPU.

Process hygiene: a worker exits with its interpreter, after a normal exit
and after an uncaught exception; an exception in the parent's own share,
KeyboardInterrupt included, kills and reaps the worker, and the next call
returns the serial bits; an exception in a worker is raised in the parent;
a child forked after the worker started runs its own batch, without the
parent's pipes; a worker killed between batches is reaped and replaced,
one lost during a batch is reaped and its share runs in the parent, also
with SIGCHLD ignored or SIGPIPE at its default action; a fork that fails, a running thread or a refused work
budget leave the batch serial or refused with nothing forked.

A test that patches the class loop (_class_products, _single_steps,
_block_differences), as a mutation gate over that loop would, must first
call qfunc._stop_workers(), the teardown atexit runs: a worker keeps the
code it was forked with, so a worker started before the patch would run
the unpatched loop.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

from qprod import products, qfunc
from qprod.characters import enumerate_characters
from qprod.products import IdentitySpec, eval_lhs_info
from qprod.qfunc import Precision, context, rational_product, rational_products

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHI5 = next(c for c in enumerate_characters(5) if c.order == 4)  # complex values +-i
CHI7 = next(c for c in enumerate_characters(7) if c.order == 6)

needs_two_cpus = pytest.mark.skipif(qfunc._usable_cpus() < 2, reason="fewer than two usable CPUs")


@pytest.fixture(autouse=True)
def fresh_workers():
    # each test starts and ends without a live worker
    qfunc._stop_workers()
    yield
    qfunc._stop_workers()


def bits(value):
    return value._mpc_ if hasattr(value, "_mpc_") else value._mpf_


def kernel_calls(spec, monkeypatch):
    """The rational_products calls, (shift_lists, start, stops, ctx, result_ctx), of spec's left side."""
    calls = []

    def spy(*args):
        calls.append(args)
        return rational_products(*args)

    with monkeypatch.context() as patch:
        patch.setattr(products, "rational_products", spy)
        qfunc._MEMO.clear()  # a side stored by an earlier test would reach no kernel
        eval_lhs_info(spec)
    assert calls
    return calls


def sent_batches(monkeypatch):
    """A list that grows by one entry per message the calling process sends to a worker."""
    sent = []
    send = qfunc._send

    def counted(fd, obj):
        sent.append(obj)
        return send(fd, obj)

    monkeypatch.setattr(qfunc, "_send", counted)
    return sent


def serial(call, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(qfunc, "_usable_cpus", lambda: 1)
        return rational_products(*call)


P30 = Precision(30)


@needs_two_cpus
@pytest.mark.parametrize("spec,cpus", [
    (IdentitySpec("PROTOTYPE", terms=4000, prec=P30), 2),
    (IdentitySpec("COR2", alphas=("0.3205", "0.5"), betas=("0.6538", "0.1667"), terms=2000, prec=P30), 2),
    (IdentitySpec("COR2", alphas=("0.3+0.2i", "0.6-0.1i"), betas=("0.5+0.1i", "0.4"), terms=2000, prec=P30), 2),
    (IdentitySpec("THM4", chi=CHI5, z="0.3", blocks=1000, prec=P30), 2),
    (IdentitySpec("THM4", chi=CHI7, z="0.25", blocks=1000, prec=P30), 3),
], ids=["prototype", "cor2-decimal", "cor2-complex-beta", "thm4-mod5-complex-chi", "thm4-mod7-three-cpus"])
def test_parallel_bits_equal_serial_bits(spec, cpus, monkeypatch):
    calls = kernel_calls(spec, monkeypatch)
    monkeypatch.setattr(qfunc, "_usable_cpus", lambda: cpus)
    for call in calls:
        shift_lists, start, stops = call[:3]
        assert len(stops) > 1  # the checkpoints and the last stop
        expected = serial(call, monkeypatch)
        sent = sent_batches(monkeypatch)
        parallel = rational_products(*call)
        assert len(sent) == 1 == len(qfunc._WORKERS)  # one worker, however many CPUs
        assert [[bits(v) for v in values] for values in parallel] == \
            [[bits(v) for v in values] for values in expected]


def run_script(body):
    """Run body in a fresh interpreter that has a batch's arguments as `args`."""
    script = f"""
import os, signal, sys, time
from fractions import Fraction
from qprod import qfunc
half = Fraction(1, 2)
args = [(0, half), (1, half)], 1, [20001], qfunc.context(qfunc.Precision(30))
{body}"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)


def run_batch_script(ending):
    """Run a parallel batch in a fresh interpreter that prints its worker's pid, then ends as `ending` says."""
    return run_script(f"""
qfunc.rational_product(*args)
print(qfunc._WORKERS[0][0], flush=True)
if {ending == "raise"!r}:
    raise RuntimeError("uncaught")
""")


@needs_two_cpus
@pytest.mark.parametrize("ending", ["exit", "raise"])
def test_no_worker_outlives_its_interpreter(ending):
    proc = run_batch_script(ending)
    assert proc.returncode == (1 if ending == "raise" else 0), proc.stderr
    assert ("RuntimeError: uncaught" in proc.stderr) == (ending == "raise")
    pid = int(proc.stdout)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def two_classes(count):
    ctx = context(P30)
    half = Fraction(1, 2)
    return [(0, half), (1, half)], 1, [count // 2, count + 1], ctx


@needs_two_cpus
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_exception_in_the_own_share_stops_the_worker(error, monkeypatch):
    args = two_classes(20000)
    expected = serial(([args[0]], *args[1:]), monkeypatch)[0]
    assert [bits(v) for v in rational_product(*args)] == [bits(v) for v in expected]
    [(pid, request, reply)] = qfunc._WORKERS
    class_products = qfunc._class_products

    def raising(*task):
        raise error("in the parent's own share")

    # the live worker keeps the loop it was forked with; only this process raises
    monkeypatch.setattr(qfunc, "_class_products", raising)
    with pytest.raises(error, match="in the parent's own share"):
        rational_product(*args)
    assert qfunc._WORKERS == []
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)  # killed and reaped
    monkeypatch.setattr(qfunc, "_class_products", class_products)
    sent = sent_batches(monkeypatch)
    assert [bits(v) for v in rational_product(*args)] == [bits(v) for v in expected]
    assert len(sent) == 1  # a new worker, not a stale reply


@needs_two_cpus
def test_an_exception_in_a_worker_is_raised_in_the_parent():
    B = 200
    good = (((0, 0), (1, 0)), 1, 1, 1, [5001], B)  # the costlier share: this process's own
    bad = (((0, 0), (-1, 0)), 1, 1, 1, [1001], B)  # its factor n = 1 has a zero denominator
    with pytest.raises(ZeroDivisionError) as serial_error:
        qfunc._class_products(*bad)
    with pytest.raises(ZeroDivisionError) as worker_error:
        qfunc._class_batch([good, bad])
    assert str(worker_error.value) == str(serial_error.value)
    assert qfunc._WORKERS == []


@needs_two_cpus
def test_a_forked_child_runs_its_own_batch(monkeypatch):
    args = two_classes(20000)
    expected = [bits(v) for v in serial(([args[0]], *args[1:]), monkeypatch)[0]]
    assert [bits(v) for v in rational_product(*args)] == expected
    [(parent_worker, request, reply)] = qfunc._WORKERS
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            os.close(read_end)
            closed = []
            for fd in (request, reply):
                try:
                    os.fstat(fd)
                except OSError:
                    closed.append(fd)
            ok = (qfunc._WORKERS == [] and closed == [request, reply]
                  and [bits(v) for v in rational_product(*args)] == expected
                  and len(qfunc._WORKERS) == 1 and qfunc._WORKERS[0][0] != parent_worker)
            qfunc._stop_workers()
            os.write(write_end, b"ok" if ok else b"failed")
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        answer = fh.read()
    assert os.waitpid(child, 0)[1] == 0
    assert answer == b"ok"
    # the parent's worker still answers
    assert qfunc._WORKERS[0][0] == parent_worker
    assert [bits(v) for v in rational_product(*args)] == expected


def wait_for_exit(pid):
    """Wait until pid has exited, leaving it unreaped, or until it is reaped elsewhere."""
    while True:
        try:
            if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT | os.WNOHANG):
                return
        except ChildProcessError:
            return
        time.sleep(0.01)


def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@needs_two_cpus
def test_a_worker_killed_between_batches_is_replaced(monkeypatch):
    args = two_classes(20000)
    expected = [bits(v) for v in serial(([args[0]], *args[1:]), monkeypatch)[0]]
    assert [bits(v) for v in rational_product(*args)] == expected
    [(pid, request, reply)] = qfunc._WORKERS
    os.kill(pid, signal.SIGKILL)
    wait_for_exit(pid)
    sent = sent_batches(monkeypatch)
    assert [bits(v) for v in rational_product(*args)] == expected
    assert reaped(pid)
    assert len(sent) == 1 and len(qfunc._WORKERS) == 1 and qfunc._WORKERS[0][0] != pid


@needs_two_cpus
def test_a_worker_lost_during_a_batch_leaves_its_share_to_the_parent(monkeypatch):
    args = two_classes(20000)
    expected = [bits(v) for v in serial(([args[0]], *args[1:]), monkeypatch)[0]]
    assert [bits(v) for v in rational_product(*args)] == expected
    [(pid, request, reply)] = qfunc._WORKERS
    send = qfunc._send

    def send_then_kill(fd, obj):
        sent = send(fd, obj)
        os.kill(pid, signal.SIGKILL)
        wait_for_exit(pid)
        return sent

    with monkeypatch.context() as patch:
        patch.setattr(qfunc, "_send", send_then_kill)
        assert [bits(v) for v in rational_product(*args)] == expected
    assert reaped(pid) and qfunc._WORKERS == []
    assert [bits(v) for v in rational_product(*args)] == expected
    assert len(qfunc._WORKERS) == 1


@needs_two_cpus
@pytest.mark.parametrize("name,action", [("SIGCHLD", "SIG_IGN"), ("SIGPIPE", "SIG_DFL")])
def test_a_killed_worker_is_replaced_under_other_signal_settings(name, action):
    # with SIGCHLD ignored the kernel reaps the worker, so waitpid finds no child;
    # with SIGPIPE at its default a write to the dead worker's pipe would end the parent
    proc = run_script(f"""
signal.signal(signal.{name}, signal.{action})
first = [v._mpf_ for v in qfunc.rational_product(*args)]
pid = qfunc._WORKERS[0][0]
os.kill(pid, signal.SIGKILL)
while True:
    try:
        if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT | os.WNOHANG):
            break
    except ChildProcessError:
        break
    time.sleep(0.01)
second = [v._mpf_ for v in qfunc.rational_product(*args)]
print(first == second and qfunc._WORKERS[0][0] != pid)
""")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


@needs_two_cpus
def test_a_failed_fork_leaves_the_batch_serial(monkeypatch):
    args = two_classes(20000)
    expected = [bits(v) for v in serial(([args[0]], *args[1:]), monkeypatch)[0]]

    def no_fork():
        raise OSError("no fork here")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert [bits(v) for v in rational_product(*args)] == expected
    assert qfunc._WORKERS == []
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds  # its pipes were closed


def test_a_batch_stays_serial_beside_a_running_thread(monkeypatch):
    args = two_classes(20000)
    sent = sent_batches(monkeypatch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        rational_product(*args)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert sent == [] and qfunc._WORKERS == []


def test_small_or_single_class_batches_stay_serial(monkeypatch):
    sent = sent_batches(monkeypatch)
    half = Fraction(1, 2)
    ctx = context(P30)
    # two classes of 2 * _WORKER_FACTORS factors in all, so the share that would move holds fewer
    rational_product([(0, half), (1, half)], 1, [2 * qfunc._WORKER_FACTORS - 1], ctx)
    rational_product([(half, Fraction(1, 4))], 0, [10**5], ctx)
    assert sent == [] and qfunc._WORKERS == []


def test_the_work_budget_refuses_before_anything_is_forked(monkeypatch):
    monkeypatch.setattr(qfunc, "_WORK_BUDGET", 10**4)
    monkeypatch.setattr(qfunc, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError):
        rational_product(*two_classes(20000))
    assert qfunc._WORKERS == []
