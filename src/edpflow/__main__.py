"""Command-line entry point, so ``python -m edpflow`` runs the ``edpflow`` tool."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
