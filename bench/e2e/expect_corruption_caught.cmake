# Runs `qclab_e2e --smoke --corrupt-for-test` on one workload and passes
# only if the run fails because request 0's damaged output was caught.
#   cmake -DE2E=<qclab_e2e> -DWORKLOAD=<name> -P expect_corruption_caught.cmake
execute_process(
  COMMAND ${E2E} --workload ${WORKLOAD} --smoke --corrupt-for-test
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE result
  ERROR_VARIABLE summary)
if(exit_code EQUAL 0)
  message(FATAL_ERROR "corrupted ${WORKLOAD} run exited 0:\n${summary}")
endif()
if(NOT summary MATCHES "FAILED request 0: ")
  message(FATAL_ERROR
    "corrupted ${WORKLOAD} run failed for another reason:\n${summary}")
endif()
if(NOT result MATCHES "\"correct\": false")
  message(FATAL_ERROR "corrupted ${WORKLOAD} run reported correct:\n${result}")
endif()
