# Checks that a bench binary rejects an argument it does not know
# (bench/obs_cli.hpp, rejectUnknownArguments): the run exits with code 2,
# prints a usage line, and writes no file.
#   cmake -DBIN=<bench binary> -DDIR=<output dir>
#         -P expect_unknown_flag_rejected.cmake
set(out ${DIR}/unknown_flag.folded)
file(REMOVE ${out})
execute_process(
  COMMAND ${BIN} --obs-prof ${out}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 2 OR NOT err MATCHES "usage: ")
  message(FATAL_ERROR "unknown flag not rejected (exit ${exit_code}):\n${err}")
endif()
if(EXISTS ${out})
  message(FATAL_ERROR "a rejected run wrote ${out}")
endif()
