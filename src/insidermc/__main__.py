"""``python -m insidermc``: the command line, also from a source checkout."""
from .cli import run

# spawned sampling workers import this module again under another name
if __name__ == "__main__":
    run()
