"""Every test closes the journals it opens.

The autouse fixture below records each file that
amem.persistence.lock_journal opens during a test and closes any still open
at teardown, so a leaked journal never surfaces as an unraisable
ResourceWarning in whichever later test the garbage collector runs in. A
test that otherwise passed fails for its leak; a test that failed keeps
only its own failure.
"""

import pytest

from amem import persistence

_CALL_PASSED = pytest.StashKey[bool]()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.when == "call":
        item.stash[_CALL_PASSED] = report.passed
    return report


@pytest.fixture(autouse=True)
def journals_are_closed(request, monkeypatch):
    opened = []
    lock_journal = persistence.lock_journal

    def recording_lock_journal(path):
        file, created = lock_journal(path)
        opened.append((str(path), file))
        return file, created

    monkeypatch.setattr(persistence, "lock_journal", recording_lock_journal)
    yield
    leaked = [path for path, file in opened if not file.closed]
    for _, file in opened:
        file.close()
    if leaked and request.node.stash.get(_CALL_PASSED, False):
        pytest.fail(f"journal files left open: {leaked}", pytrace=False)
