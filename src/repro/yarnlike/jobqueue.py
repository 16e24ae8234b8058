"""Continuous batch-job submission (Section 6.1's background stream)."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.workloads.batch import BatchJobSpec, DEFAULT_JOB_MIX
from repro.yarnlike.container import JobInstance
from repro.yarnlike.nodemanager import ContainerLaunchError, NodeManager


class ContinuousSubmitter:
    """Keeps ``target_concurrent`` batch jobs in flight.

    When a job finishes, the next spec from the round-robin mix is
    launched immediately, mimicking a saturated batch queue.  Call
    :meth:`start` once; call :meth:`stop` to stop replacing finished jobs.
    Stopping also unhooks the submitter from the NodeManager, whose
    ``on_job_finished`` list otherwise holds it in a reference cycle.
    """

    def __init__(
        self,
        nodemanager: NodeManager,
        target_concurrent: int = 3,
        mix: Sequence[BatchJobSpec] = DEFAULT_JOB_MIX,
        containers_per_job: int = 1,
        tasks_per_container: int = 4,
    ):
        if target_concurrent < 1:
            raise ValueError("target_concurrent must be >= 1")
        if not mix:
            raise ValueError("job mix must not be empty")
        self.nm = nodemanager
        self.target_concurrent = target_concurrent
        self.mix = list(mix)
        self.containers_per_job = containers_per_job
        self.tasks_per_container = tasks_per_container
        self._mix_cursor = 0
        self._running = False
        self.submitted = 0
        #: launches abandoned by the NodeManager (cgroup faults); each
        #: failure leaves a deficit that is made up on the next finish.
        self.launch_failures = 0
        self._deficit = 0

    def start(self) -> None:
        if self._running:
            raise RuntimeError("submitter already started")
        self._running = True
        self.nm.on_job_finished.append(self._job_finished)
        for _ in range(self.target_concurrent):
            self._submit_next()

    def stop(self) -> None:
        if self._running:
            self._running = False
            self.nm.on_job_finished.remove(self._job_finished)

    def _next_spec(self) -> BatchJobSpec:
        spec = self.mix[self._mix_cursor % len(self.mix)]
        self._mix_cursor += 1
        return spec

    def _submit_next(self) -> Optional[JobInstance]:
        self.submitted += 1
        try:
            return self.nm.launch_job(
                self._next_spec(),
                n_containers=self.containers_per_job,
                tasks_per_container=self.tasks_per_container,
            )
        except ContainerLaunchError:
            self.launch_failures += 1
            self._deficit += 1
            return None

    def _job_finished(self, job: JobInstance) -> None:
        if not self._running:
            return
        # replace the finished job, plus any earlier failed launches.
        attempts = 1 + self._deficit
        self._deficit = 0
        for _ in range(attempts):
            self._submit_next()
