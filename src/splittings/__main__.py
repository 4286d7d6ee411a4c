"""python -m splittings: the same CLI as the splittings console script."""

from .cli_io import main

if __name__ == "__main__":
    main()
