"""`python -m focml` runs the command line driver (`focml.cli`)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
