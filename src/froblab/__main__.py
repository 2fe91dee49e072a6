"""``python -m froblab``: the same command line as the ``froblab`` script."""

from .cli import main

if __name__ == "__main__":
    main()
