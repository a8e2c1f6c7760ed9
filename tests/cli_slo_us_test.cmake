# Runs `falcc_cli classify --shards 2 --slo-us V` for every non-finite V
# and expects a clean InvalidArgument exit (status 1 and the flag's
# message), never an abort. The flags are checked before any file is
# opened, so the model and data paths need not exist.
#
#   cmake -DFALCC_CLI=path/to/falcc_cli -P cli_slo_us_test.cmake
foreach(value nan inf)
  execute_process(
    COMMAND ${FALCC_CLI} classify --model missing.falcc --data missing.csv
            --shards 2 --slo-us ${value}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "--slo-us ${value}: exit '${code}', want 1\n${err}")
  endif()
  if(NOT err MATCHES "--slo-us must be positive")
    message(FATAL_ERROR "--slo-us ${value}: unexpected stderr:\n${err}")
  endif()
endforeach()
