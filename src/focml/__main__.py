"""`python -m focml` runs the command line driver (`focml.cli`)."""

from .cli import run

if __name__ == "__main__":
    run()
