# Shell helpers for the tests workflow, which sources this file into every bash step (BASH_ENV).

# quiet CMD [ARG...]: run CMD and fail the step unless it exits 0 with an empty stderr,
# showing that stderr: no leaked warning or traceback.
quiet() {
  "$@" 2> "$RUNNER_TEMP/stderr.txt" && test ! -s "$RUNNER_TEMP/stderr.txt" \
    || { cat "$RUNNER_TEMP/stderr.txt"; exit 1; }
}
