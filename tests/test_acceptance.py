"""End-to-end acceptance battery, one test case per registered criterion.

Each case runs its criterion at the stated tolerance and prints a single
pass/fail line (run pytest with -s or look at captured output). The same
checks back ``goldsplit verify``.
"""

import pytest

from goldsplit import acceptance


@pytest.mark.parametrize("key", list(acceptance.CRITERIA))
def test_criterion(key):
    result = acceptance.CRITERIA[key]()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name} [{result.elapsed:.1f}s]: {result.detail}")
    assert result.name.startswith(key.replace("_", " ") + " (")
    assert result.passed, result.detail
