"""Acceptance gate: one test per entry of ``tensorball.gates.GATES``.

Each test prints its gate's verdict line (``acceptance <k> <name>: PASS/FAIL``)
so the suite doubles as a release checklist; ``tensorball selftest`` prints
the same nine lines from the same table.
"""

from tensorball.gates import GATES


def _acceptance(gate):
    def test():
        ok, line = gate()
        print(line)
        assert ok, line

    test.gate = gate
    return test


# test_acceptance_<k>_<gate name>, k the gate's place in the table
for _k, _gate in enumerate(GATES, 1):
    globals()[f"test_acceptance_{_k}_{_gate.__name__}"] = _acceptance(_gate)
