import sys

try:  # Ctrl-C while the CLI loads, before main's own handler exists
    from .cli import main
except KeyboardInterrupt:
    print("error: interrupted", file=sys.stderr)
    sys.exit(130)

sys.exit(main())
