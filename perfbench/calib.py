"""How fast the host runs Python right now, from a fixed piece of work.

The virtual machines this benchmark runs on change speed all the time, each
CPU on its own: `work()` took from 0.49 to 1.10 ms within ten seconds on a
2-vCPU VM, in states that last from well under a second to a minute.  A run
that falls mostly into one state reads up to twice as fast or as slow as the
next, whatever the program does.  So the timed code runs `work()` at short
intervals, on the same CPU (run.py pins every process to one), and reports
its times scaled to a reference speed:

    scaled = raw * REFERENCE_MS / (mean time of work() while raw was taken)

`work()` is plain interpreted Python of the kind coachplan runs (objects,
float maths, dict and tuple traffic, small sorts).  It is fixed here and the
program never calls it, so a change to the program moves the scaled times and
a change of the host's state does not.
"""
import contextlib
import math
import os
import select
import subprocess
import tempfile
import time

# The time of `work()` that counts as reference speed: about its time on a
# 2-vCPU Intel Xeon VM at 2.0 GHz under Python 3.11, in the VM's slower state.
REFERENCE_MS = 1.0


class _Body:
    def __init__(self, i):
        self.x = math.cos(i) * 3.0
        self.y = math.sin(i * 1.3) * 2.0
        self.vx = math.sin(i * 0.7) * 0.5
        self.vy = math.cos(i * 1.1) * 0.5


def work():
    """A fixed amount of work; returns a digest so none of it can be skipped."""
    bodies = [_Body(i) for i in range(30)]
    cells = {}
    total = 0.0
    for step in range(16):
        bx, by = math.cos(step * 0.2), math.sin(step * 0.3)
        for b in bodies:
            b.x += b.vx * 0.05
            b.y += b.vy * 0.05
            if abs(b.x) > 4.5:
                b.vx = -b.vx
            if abs(b.y) > 3.0:
                b.vy = -b.vy
            d = math.hypot(b.x - bx, b.y - by)
            key = (int(b.x * 2), int(b.y * 2))
            cells[key] = cells.get(key, 0) + 1
            total += d
        near = sorted(bodies, key=lambda b: (b.x - bx) ** 2 + (b.y - by) ** 2)[:5]
        total += sum(b.x for b in near)
    return round(total, 6), len(cells)


class Clock:
    """Samples `work()` around and inside a timed stretch and scales its time.

    `begin()` and `end()` bracket the stretch with `EDGE` samples each,
    outside it.  Inside it, `tick()`, called between operations, takes one
    more sample once `INTERVAL_S` have passed since the last, and `run()`
    samples while a child process on the same CPU runs.  `scale(raw)` takes
    off the time the inside samples (and any `aside()` block) took from the
    stretch and scales the rest.

    A sample is the CPU time `work()` took, so a sample that another process
    interrupts still reads the host's speed.
    """

    EDGE = 3
    INTERVAL_S = 0.01

    def __init__(self):
        self.samples = []
        self.inside = 0.0
        self.last = 0.0

    def _sample(self):
        """Time one `work()`; returns the wall time it took."""
        wall, cpu = time.perf_counter(), time.thread_time()
        work()
        self.samples.append(time.thread_time() - cpu)
        self.last = time.perf_counter()
        return self.last - wall

    def begin(self):
        self.samples, self.inside = [], 0.0
        for _ in range(self.EDGE):
            self._sample()

    def tick(self):
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.inside += self._sample()

    def run(self, cmd, timeout, **popen):
        """Run `cmd` to its end, sampling every `INTERVAL_S` while it runs,
        and return its subprocess.CompletedProcess (text output).  Kill it
        and raise TimeoutError after `timeout` seconds.  The child shares
        this process's CPU, so the CPU time this process takes meanwhile is
        time the child could not run: it counts as inside."""
        cpu, deadline = time.thread_time(), time.perf_counter() + timeout
        with tempfile.TemporaryFile() as err:
            child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, **popen)
            try:
                with child.stdout:
                    out = self._follow(child.stdout.fileno(), deadline, timeout)
            except BaseException:
                child.kill()
                raise
            finally:
                code = child.wait()
            err.seek(0)
            self.inside += time.thread_time() - cpu
            return subprocess.CompletedProcess(cmd, code, out.decode(), err.read().decode())

    def _follow(self, fd, deadline, timeout):
        """Read `fd` to its end, sampling whenever it stays quiet."""
        chunks = []
        while True:
            if select.select([fd], [], [], self.INTERVAL_S)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)
            elif time.perf_counter() > deadline:
                raise TimeoutError(f"the child ran past {timeout} s")
            else:
                self._sample()

    @contextlib.contextmanager
    def aside(self):
        """Take the time of the block off the stretch, as for the samples."""
        t = time.perf_counter()
        try:
            yield
        finally:
            self.inside += time.perf_counter() - t

    def end(self):
        for _ in range(self.EDGE):
            self._sample()

    def mean_ms(self):
        return sum(self.samples) * 1e3 / len(self.samples)

    def scale(self, raw):
        """`raw` seconds, timed from begin() to end(), at reference speed."""
        return (raw - self.inside) * REFERENCE_MS / self.mean_ms()
