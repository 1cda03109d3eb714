# Runs `thls optimize polynom --threads <value>` for malformed values and
# expects a clean exit 1 with the flag named on stderr — not an uncaught
# exception, and not a silently truncated number.
#
#   cmake -DTHLS=path/to/thls -P cli_numeric_flag_test.cmake
foreach(value "x" "4x" "99999999999")
  execute_process(
    COMMAND "${THLS}" optimize polynom --threads "${value}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR
      "--threads ${value}: expected exit status 1, got '${rc}'\n${err}")
  endif()
  if(NOT err MATCHES "--threads")
    message(FATAL_ERROR
      "--threads ${value}: stderr does not name the flag:\n${err}")
  endif()
endforeach()
