from hypothesis import settings

# Property tests draw their examples from a fixed seed and carry no time limit,
# so a slow or busy host neither changes which inputs run nor fails them.
settings.register_profile("sentid", deadline=None, derandomize=True)
settings.load_profile("sentid")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    outcomes = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("skipped", "SKIP")):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(rep, "when", "call") in ("call", "setup"):
                outcomes.setdefault(nodeid, label)
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for nodeid in sorted(outcomes):
        terminalreporter.write_line(f"  {outcomes[nodeid]:<4} {nodeid.split('::')[-1]}")
