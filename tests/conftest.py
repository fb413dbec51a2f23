"""Session-wide test options.

``--lp-engine linprog`` runs the whole session on the
:func:`scipy.optimize.linprog` fallback of
:class:`repro.opt.incremental.IncrementalLP`, the engine used where
scipy lacks the HiGHS binding. Without it (``auto``) the import-time
probe decides, as it does for every program run.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--lp-engine", choices=("auto", "linprog"), default="auto",
        help="LP engine for branch-and-bound relaxations: 'auto' keeps the "
             "import-time probe's choice, 'linprog' forces the fallback")


def pytest_configure(config):
    if config.getoption("--lp-engine") == "linprog":
        from repro.opt import incremental

        incremental.LP_ENGINE = "linprog"


def pytest_report_header(config):
    from repro.opt import incremental

    return f"lp engine: {incremental.LP_ENGINE}"
