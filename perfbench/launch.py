"""Start one measured axialcheck process under a host-speed gauge.

    python3 perfbench/launch.py cli <axialcheck arguments>   # one CLI request
    python3 perfbench/launch.py setup                        # import and build the catalog

`cli` runs axialcheck.cli.main as the installed `axialcheck` script does and
appends the gauge line (hostspeed.MARKER) to stderr.  `setup` prints
"<seconds> <gauge line>": the time to import axialcheck and its CLI module
and build the catalog, which every request pays before its work, with the
gauges that ran inside it taken out.
"""

import sys

from hostspeed import Gauge


def _load():
    import axialcheck
    import axialcheck.cli  # noqa: F401

    axialcheck.list_entries()


def setup():
    with Gauge() as gauge:
        _result, seconds = gauge.timed(_load)
    print(f"{seconds!r} {gauge.line()}")
    return 0


def cli(argv):
    gauge = Gauge()
    try:
        with gauge:
            from axialcheck.cli import main
            return main(argv)
    finally:
        sys.stderr.write(gauge.line() + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        sys.exit(setup())
    if sys.argv[1:2] == ["cli"]:
        sys.exit(cli(sys.argv[2:]))
    sys.stderr.write("usage: launch.py setup | cli <axialcheck arguments>\n")
    sys.exit(2)
