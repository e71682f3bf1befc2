"""Test oracle: the job log's close check as a full scan.

This is the :class:`repro.jobs.JobLog.all_terminal` body the control
plane shipped before it answered from the ``completed``/``failed``
counters: it walked every row and tested its state.  It is kept here,
and only here, so ``test_jobs_log_equivalence.py`` can prove the
counter-based check answers exactly as the scan did.  Nothing in
``src/`` imports this module.

The body is verbatim; the subclass inherits every mutator, so a
difference the harness finds is a difference in how the query answers,
not in what the log records.
"""

from repro.jobs import JobLog
from repro.jobs.state import TERMINAL_STATES


class OracleJobLog(JobLog):
    """A :class:`JobLog` whose close check scans every row."""

    def all_terminal(self) -> bool:
        """True when every known job has closed (and any exist)."""
        if not self.rows:
            return False
        return all(row.state in TERMINAL_STATES
                   for row in self.rows.values())
