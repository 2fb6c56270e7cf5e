import sys

try:  # Ctrl-C while the CLI loads, before main's own handler exists
    from .cli import main
except KeyboardInterrupt:
    if sys.stderr is not None:  # None when fd 2 was closed at start; print would use stdout
        print("error: interrupted", file=sys.stderr)
    sys.exit(130)

sys.exit(main())
