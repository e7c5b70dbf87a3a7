"""`python -m gridcubes ...` runs the gridcubes command."""

from .cli import main

if __name__ == "__main__":
    main()
