# Checks `qclab_e2e compare` on a smoke result: a set compared with itself
# lists every end-to-end metric and flags nothing, and a copy whose
# latency_p50_ms is inflated is flagged WORSE with exit code 1.
#   cmake -DE2E=<qclab_e2e> -DBENCHMARK=<BENCHMARK.json> -DDIR=<output dir>
#         -P expect_compare_flags.cmake
set(a ${DIR}/compare_a.json)
set(b ${DIR}/compare_b.json)
execute_process(
  COMMAND ${E2E} --workload paper_circuits --smoke
  OUTPUT_FILE ${a}
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "smoke run failed")
endif()

execute_process(
  COMMAND ${E2E} compare --benchmark ${BENCHMARK} ${a} -- ${a}
  OUTPUT_VARIABLE table
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0 OR table MATCHES "WORSE|better")
  message(FATAL_ERROR "a set compared with itself was flagged:\n${table}")
endif()
foreach(metric setup_s latency_p50_ms latency_p90_ms throughput_rps
               peak_rss_mib)
  if(NOT table MATCHES "paper_circuits +${metric} ")
    message(FATAL_ERROR "compare did not list ${metric}:\n${table}")
  endif()
endforeach()

file(READ ${a} result)
string(REGEX REPLACE "(\"latency_p50_ms\": {\"value\": )[^,]*" "\\11e9"
       result "${result}")
file(WRITE ${b} "${result}")
execute_process(
  COMMAND ${E2E} compare --benchmark ${BENCHMARK} ${a} -- ${b}
  OUTPUT_VARIABLE table
  RESULT_VARIABLE exit_code)
if(exit_code EQUAL 0 OR NOT table MATCHES "latency_p50_ms[^\n]*WORSE")
  message(FATAL_ERROR "an inflated latency was not flagged:\n${table}")
endif()
