"""Entry point of ``python -m magicsudoku``; see magicsudoku.cli."""
from .cli import main
main()
