#!/bin/sh
# Stand-in for a Lean checker: verify.sh SECONDS MARKER FILE
# Waits SECONDS, then accepts FILE (exit 0) when it holds MARKER.
sleep "$1"
if grep -q -F "$2" "$3"; then
    exit 0
fi
echo "error: proof marker missing" >&2
exit 1
