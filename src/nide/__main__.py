"""``python -m nide <command>`` runs the ``nide`` command line tool."""

from .bench import main

if __name__ == "__main__":
    raise SystemExit(main())
