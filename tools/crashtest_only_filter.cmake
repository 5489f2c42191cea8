# ctest script for `crashtest_only_filter`: runs the quick single-node sweep
# filtered to `--only wal.torn` with --keep, then passes only when the printed
# trial count equals the number of wal.torn#N trial directories left behind
# and no other trial ran.
#
#   cmake -DCRASHTEST=path/to/seltrig_crashtest -DDIR=state-dir -P crashtest_only_filter.cmake
file(REMOVE_RECURSE "${DIR}")
execute_process(
  COMMAND "${CRASHTEST}" --quick --only wal.torn --keep --dir "${DIR}"
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "seltrig_crashtest exited ${rc}:\n${out}")
endif()
if(NOT out MATCHES "seltrig_crashtest: ([0-9]+) trials")
  message(FATAL_ERROR "no summary line in:\n${out}")
endif()
set(printed "${CMAKE_MATCH_1}")
file(GLOB ran RELATIVE "${DIR}" "${DIR}/*")
file(GLOB torn RELATIVE "${DIR}" "${DIR}/wal.torn#*")
list(LENGTH ran ran_count)
list(LENGTH torn torn_count)
if(torn_count EQUAL 0 OR NOT ran_count EQUAL torn_count OR
   NOT printed EQUAL torn_count)
  message(FATAL_ERROR "printed ${printed} trials; trial directories: ${ran}")
endif()
message(STATUS "${printed} trials, all wal.torn#N: ${torn}")
file(REMOVE_RECURSE "${DIR}")
