# Runs BIN and checks that it exits 0 and that its stdout equals the file
# EXPECTED byte for byte. On a mismatch the actual output is written to
# ACTUAL, so `diff EXPECTED ACTUAL` shows what moved.
#
#   cmake -DBIN=<binary> -DEXPECTED=<file> -DACTUAL=<file> -P expect_stdout.cmake

execute_process(COMMAND "${BIN}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR
          "stdout of ${BIN} differs from ${EXPECTED}; actual output in "
          "${ACTUAL}")
endif()
